/**
 * @file
 * Multi-client PBS serving front end.
 *
 * Clients submit() independent bootstrap requests and receive a
 * std::future<LweCiphertext>. The serving loop (batching_server.h:
 * windows, admission, deadline shedding, per-tenant grouping, the
 * pbs_server.* metrics) hands each tenant group to this server's
 * executor, which acquires the tenant's keys and runs the group as one
 * fused job stream through the batched-PBS pipeline. This models the
 * traffic shape Trinity is built for: many mutually independent gate
 * bootstraps from many clients, coalesced so the accelerator (or CPU
 * engine) sees wide batches instead of a trickle of single bootstraps.
 *
 * Keys come from one of two resolvers:
 *  - Single-tenant: constructed over one TfheGateBootstrapper, whose
 *    keys serve tenant 0; the tenant-less submit() overloads submit
 *    for tenant 0.
 *  - Multi-tenant: constructed over a KeyStore; a group acquires its
 *    tenant's materialized keys from the store, pinned for the
 *    batch's lifetime. Requests in one fused batch must share keys —
 *    the lockstep blind rotation reads one GGSW per step for the whole
 *    batch — which is why the loop groups windows by tenant.
 *
 * submit() refuses a request whose ciphertext or LUT does not fit the
 * parameter set with InvalidRequest, before it can reach the lockstep
 * batch it would otherwise fail in.
 *
 * TRINITY_RUNTIME_BATCH bounds *aggregation* (queueing latency and
 * result batching); lockstep *execution* width is the engine's
 * business — groups wider than preferredBatch() split into
 * consecutive lockstep chunks, so raising the knob above the hint
 * amortizes queueing overhead without widening the working set per
 * chunk. Call BatchedBootstrapper::runChunked() / runPbsBatchChunked()
 * directly to control lockstep width explicitly (benches do).
 */

#ifndef TRINITY_RUNTIME_PBS_SERVER_H
#define TRINITY_RUNTIME_PBS_SERVER_H

#include "runtime/batched_pbs.h"
#include "runtime/batching_server.h"
#include "runtime/key_store.h"

namespace trinity {
namespace runtime {

/**
 * The PBS serving runtime. Thread-safe for any number of concurrent
 * submitters; the destructor completes every queued request before
 * returning.
 */
class PbsServer
{
  public:
    /** Single-tenant mode: borrows @p gb (keys + context); it must
     *  outlive the server. */
    explicit PbsServer(const TfheGateBootstrapper &gb,
                       ServerOptions opts = ServerOptions::fromEnv());

    /** Multi-tenant mode: requests carry TenantIds and execute with
     *  keys acquired from @p store (which must outlive the server). */
    PbsServer(std::shared_ptr<TfheContext> ctx, KeyStore &store,
              ServerOptions opts = ServerOptions::fromEnv());

    PbsServer(const PbsServer &) = delete;
    PbsServer &operator=(const PbsServer &) = delete;

    /** Enqueue a sign bootstrap (gate-style refresh) of @p ct for
     *  tenant 0. */
    std::future<LweCiphertext> submit(LweCiphertext ct);

    /** Enqueue a programmable bootstrap of @p ct for tenant 0 with
     *  caller-owned LUT @p tv; the test vector must stay alive until
     *  the future resolves. */
    std::future<LweCiphertext> submit(LweCiphertext ct, const Poly &tv);

    /** Enqueue tenant @p t's sign bootstrap (the tenant's stored sign
     *  test vector). */
    std::future<LweCiphertext> submit(TenantId t, LweCiphertext ct);

    /** Enqueue tenant @p t's programmable bootstrap with caller-owned
     *  LUT @p tv. */
    std::future<LweCiphertext> submit(TenantId t, LweCiphertext ct,
                                      const Poly &tv);

    ServerStats stats() const { return core_.stats(); }
    const ServerOptions &options() const { return core_.options(); }
    size_t maxBatch() const { return core_.maxBatch(); }

  private:
    struct Request
    {
        LweCiphertext ct;
        const Poly *tv = nullptr; ///< nullptr: the tenant's sign LUT
    };

    /** One group's key material; `pin` keeps store-resident keys
     *  alive for the batch, so a concurrent eviction can never pull
     *  them out from under the lockstep blind rotation. */
    struct GroupKeys
    {
        std::shared_ptr<const void> pin;
        const TfheBootstrapper &boot;
        const TfheBootstrapKey &bsk;
        const TfheKeySwitchKey &ksk;
        const Poly &signTv;
    };
    using KeyResolver = std::function<GroupKeys(TenantId)>;

    PbsServer(const TfheParams &params, KeyResolver keys,
              ServerOptions opts);

    std::future<LweCiphertext> enqueue(TenantId t, LweCiphertext ct,
                                       const Poly *tv);
    std::vector<LweCiphertext>
    execute(TenantId t, const std::vector<const Request *> &group) const;

    const TfheParams params_;
    const KeyResolver keys_;
    /** Last: its worker runs execute(), which uses the members above. */
    BatchingServer<Request, LweCiphertext> core_;
};

} // namespace runtime
} // namespace trinity

#endif // TRINITY_RUNTIME_PBS_SERVER_H
