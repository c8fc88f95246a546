#include "runtime/pbs_server.h"

#include "backend/registry.h"

namespace trinity {
namespace runtime {

PbsServer::PbsServer(const TfheGateBootstrapper &gb, ServerOptions opts)
    : PbsServer(
          gb.params(),
          [&gb](TenantId t) -> GroupKeys {
              if (t != 0) {
                  throw InvalidRequest(
                      "tenant " + std::to_string(t) +
                      " on a single-tenant PbsServer (tenant 0 only)");
              }
              return {nullptr, gb.bootstrapper(), gb.bootstrapKey(),
                      gb.keySwitchKey(), gb.signVector()};
          },
          std::move(opts))
{
}

PbsServer::PbsServer(std::shared_ptr<TfheContext> ctx, KeyStore &store,
                     ServerOptions opts)
    : PbsServer(
          ctx->params(),
          [&store, boot = std::make_shared<const TfheBootstrapper>(ctx)](
              TenantId t) -> GroupKeys {
              std::shared_ptr<const ResidentKeys> keys = store.acquire(t);
              return {keys, *boot, keys->bsk, keys->ksk, keys->signTv};
          },
          std::move(opts))
{
}

PbsServer::PbsServer(const TfheParams &params, KeyResolver keys,
                     ServerOptions opts)
    : params_(params), keys_(std::move(keys)),
      core_(std::move(opts), "pbsBatch",
            [this](TenantId t, const std::vector<const Request *> &group) {
                return execute(t, group);
            })
{
}

std::future<LweCiphertext>
PbsServer::submit(LweCiphertext ct)
{
    return enqueue(0, std::move(ct), nullptr);
}

std::future<LweCiphertext>
PbsServer::submit(LweCiphertext ct, const Poly &tv)
{
    return enqueue(0, std::move(ct), &tv);
}

std::future<LweCiphertext>
PbsServer::submit(TenantId t, LweCiphertext ct)
{
    return enqueue(t, std::move(ct), nullptr);
}

std::future<LweCiphertext>
PbsServer::submit(TenantId t, LweCiphertext ct, const Poly &tv)
{
    return enqueue(t, std::move(ct), &tv);
}

std::future<LweCiphertext>
PbsServer::enqueue(TenantId t, LweCiphertext ct, const Poly *tv)
{
    std::string bad;
    if (ct.a.size() != params_.nLwe) {
        bad = "LWE dimension " + std::to_string(ct.a.size()) +
              ", parameter set has n_lwe=" + std::to_string(params_.nLwe);
    } else if (ct.b >= params_.q || !allReduced(ct.a, params_.q)) {
        bad = "ciphertext coefficient not reduced mod q";
    } else if (tv != nullptr && !isTestVector(*tv, params_)) {
        bad = "LUT is not a coefficient-domain polynomial of N=" +
              std::to_string(params_.bigN) + " coefficients reduced mod q";
    }
    if (!bad.empty()) {
        return failedFuture<LweCiphertext>(std::make_exception_ptr(
            InvalidRequest("invalid PBS request: " + bad)));
    }
    return core_.submit(t, Request{std::move(ct), tv});
}

std::vector<LweCiphertext>
PbsServer::execute(TenantId t,
                   const std::vector<const Request *> &group) const
{
    GroupKeys keys = keys_(t);
    PbsBatch batch;
    for (const Request *r : group) {
        batch.add(r->ct, r->tv != nullptr ? *r->tv : keys.signTv);
    }
    return runPbsBatchChunked(keys.boot, batch, keys.bsk, keys.ksk,
                              activeBackend().preferredBatch());
}

} // namespace runtime
} // namespace trinity
