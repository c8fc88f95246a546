/**
 * @file
 * Multi-tenant PIR serving front end.
 *
 * Clients submit() encrypted queries and receive a
 * std::future<pir::PirResponse>. The serving loop (batching_server.h:
 * windows, admission, deadline shedding, per-tenant grouping, the
 * pir_server.* metrics) hands each tenant group to this server's
 * executor, which acquires the tenant's resident database from the
 * PirDbStore (the returned shared_ptr pins it for the group's
 * lifetime, so a concurrent eviction can never pull the serving form
 * out from under an in-flight fold) and answers each query through the
 * PirEngine pipeline. Per-tenant query keys come from a caller-supplied
 * provider — the server never sees a secret key.
 *
 * submit() refuses a query whose GLWE shape does not fit params() with
 * InvalidRequest.
 */

#ifndef TRINITY_RUNTIME_PIR_SERVER_H
#define TRINITY_RUNTIME_PIR_SERVER_H

#include <functional>

#include "pir/pir.h"
#include "runtime/batching_server.h"

namespace trinity {
namespace runtime {

/**
 * The PIR serving runtime. Thread-safe for any number of concurrent
 * submitters; the destructor completes every queued request before
 * returning.
 */
class PirServer
{
  public:
    /** Per-tenant uploaded key material (expansion + conversion
     *  keys). Called on the worker thread, outside the server lock;
     *  the returned reference must stay valid for the batch. */
    using KeysProvider =
        std::function<const pir::PirQueryKeys &(pir::PirTenantId)>;

    /** ServerOptions::fromEnv() with the PIR metrics label. */
    static ServerOptions defaultOptions();

    /** @p store and the provider's key material must outlive the
     *  server. */
    PirServer(std::shared_ptr<TfheContext> ctx,
              const pir::PirParams &params, pir::PirDbStore &store,
              KeysProvider keys,
              ServerOptions opts = defaultOptions());

    PirServer(const PirServer &) = delete;
    PirServer &operator=(const PirServer &) = delete;

    /** Enqueue tenant @p t's query against its registered database. */
    std::future<pir::PirResponse> submit(pir::PirTenantId t,
                                         pir::PirQuery query);

    ServerStats stats() const { return core_.stats(); }
    const ServerOptions &options() const { return core_.options(); }
    size_t maxBatch() const { return core_.maxBatch(); }
    const pir::PirParams &params() const { return engine_.params(); }

  private:
    std::vector<pir::PirResponse>
    execute(pir::PirTenantId t,
            const std::vector<const pir::PirQuery *> &group) const;

    pir::PirDbStore &store_;
    const KeysProvider keys_;
    const pir::PirEngine engine_;
    /** Last: its worker runs execute(), which uses the members above. */
    BatchingServer<pir::PirQuery, pir::PirResponse> core_;
};

} // namespace runtime
} // namespace trinity

#endif // TRINITY_RUNTIME_PIR_SERVER_H
