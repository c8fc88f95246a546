#include "backend/registry.h"

#include <cstdlib>

#include "accel/configs.h"
#include "backend/serial_backend.h"
#include "backend/sim_backend.h"
#include "backend/thread_pool_backend.h"
#include "common/logging.h"

namespace trinity {

BackendRegistry::BackendRegistry()
{
    registerFactory("serial", [] {
        return std::unique_ptr<PolyBackend>(new SerialBackend());
    });
    registerFactory("threads", [] {
        return std::unique_ptr<PolyBackend>(new ThreadPoolBackend());
    });
    // The simulated-accelerator timing backend: a functional engine
    // wrapped so every batch charges cycles to a machine model.
    registerFactory("sim", [this] {
        const char *inner_env = std::getenv("TRINITY_SIM_INNER");
        std::string inner_name = inner_env != nullptr ? inner_env
                                                      : "serial";
        if (inner_name == "sim") {
            trinity_fatal("TRINITY_SIM_INNER=sim would wrap the timing "
                          "backend in itself (recursive self-wrapping); "
                          "pick a functional inner engine: %s",
                          listEngines("sim").c_str());
        }
        if (find(inner_name) == nullptr) {
            trinity_fatal("unknown TRINITY_SIM_INNER engine '%s'; valid "
                          "inner engines: %s",
                          inner_name.c_str(), listEngines("sim").c_str());
        }
        const char *machine_env = std::getenv("TRINITY_SIM_MACHINE");
        sim::Machine machine = accel::machineByName(
            machine_env != nullptr ? machine_env : "trinity-ckks");
        return std::unique_ptr<PolyBackend>(new SimBackend(
            create(inner_name), std::move(machine)));
    });
}

BackendRegistry &
BackendRegistry::instance()
{
    static BackendRegistry reg;
    return reg;
}

void
BackendRegistry::registerFactory(const std::string &name, Factory factory)
{
    for (auto &entry : factories_) {
        if (entry.first == name) {
            entry.second = std::move(factory);
            return;
        }
    }
    factories_.emplace_back(name, std::move(factory));
}

std::vector<std::string>
BackendRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(factories_.size());
    for (const auto &entry : factories_) {
        out.push_back(entry.first);
    }
    return out;
}

std::string
BackendRegistry::listEngines(const std::string &exclude) const
{
    std::string out;
    for (const auto &name : names()) {
        if (!exclude.empty() && name == exclude) {
            continue;
        }
        if (!out.empty()) {
            out += ", ";
        }
        out += name;
    }
    return out;
}

const BackendRegistry::Factory *
BackendRegistry::find(const std::string &name) const
{
    for (const auto &entry : factories_) {
        if (entry.first == name) {
            return &entry.second;
        }
    }
    return nullptr;
}

std::unique_ptr<PolyBackend>
BackendRegistry::create(const std::string &name)
{
    if (const Factory *factory = find(name)) {
        return (*factory)();
    }
    trinity_fatal("unknown poly backend '%s'; registered engines: %s",
                  name.c_str(), listEngines().c_str());
}

PolyBackend &
BackendRegistry::active()
{
    if (!active_) {
        const char *env = std::getenv("TRINITY_BACKEND");
        select(env != nullptr ? env : "serial");
    }
    return *active_;
}

void
BackendRegistry::select(const std::string &name)
{
    if (const Factory *factory = find(name)) {
        active_ = (*factory)();
        return;
    }
    trinity_fatal("unknown poly backend '%s' (TRINITY_BACKEND); "
                  "registered engines: %s",
                  name.c_str(), listEngines().c_str());
}

void
BackendRegistry::use(std::unique_ptr<PolyBackend> backend)
{
    trinity_assert(backend != nullptr, "null backend");
    active_ = std::move(backend);
}

PolyBackend &
activeBackend()
{
    return BackendRegistry::instance().active();
}

} // namespace trinity
