/**
 * @file
 * Process-wide backend selection. The active engine is resolved once
 * from the TRINITY_BACKEND env var ("serial" by default, "threads"
 * for the worker-pool engine with SIMD kernels inside each job, "sim"
 * for the simulated-accelerator timing backend) and can be switched
 * programmatically — tests use that to compare engines in one
 * process, benches to sweep thread counts and SIMD levels. An unknown
 * name is rejected with an error listing every registered engine.
 */

#ifndef TRINITY_BACKEND_REGISTRY_H
#define TRINITY_BACKEND_REGISTRY_H

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "backend/poly_backend.h"

namespace trinity {

class BackendRegistry
{
  public:
    using Factory = std::function<std::unique_ptr<PolyBackend>()>;

    /** The process-wide registry ("serial", "threads" and "sim"
     *  built in). */
    static BackendRegistry &instance();

    /** Register a factory under @p name (future engines plug in here). */
    void registerFactory(const std::string &name, Factory factory);

    /** Registered engine names. */
    std::vector<std::string> names() const;

    /** Registered engine names as one comma-separated string — used
     *  by the unknown-engine error and the explorer example.
     *  @p exclude drops one name from the list (the sim backend uses
     *  it to advertise the valid *inner* engines, i.e. everything but
     *  itself). */
    std::string listEngines(const std::string &exclude = "") const;

    /**
     * Build a fresh engine by name without touching the active one;
     * fatal on an unknown name, listing the registered engines.
     */
    std::unique_ptr<PolyBackend> create(const std::string &name);

    /**
     * The active engine. On first use resolves TRINITY_BACKEND (an
     * unknown name is fatal); defaults to "serial".
     */
    PolyBackend &active();

    /** Switch the active engine to a registered name. */
    void select(const std::string &name);

    /**
     * Install a caller-constructed engine (e.g. a ThreadPoolBackend
     * with an explicit thread count) as the active one.
     */
    void use(std::unique_ptr<PolyBackend> backend);

  private:
    BackendRegistry();

    const Factory *find(const std::string &name) const;

    std::vector<std::pair<std::string, Factory>> factories_;
    std::unique_ptr<PolyBackend> active_;
};

/** Shorthand for BackendRegistry::instance().active(). */
PolyBackend &activeBackend();

} // namespace trinity

#endif // TRINITY_BACKEND_REGISTRY_H
