#include "runtime/pir_server.h"

namespace trinity {
namespace runtime {

ServerOptions
PirServer::defaultOptions()
{
    ServerOptions opts = ServerOptions::fromEnv();
    opts.label = "pir_server";
    return opts;
}

PirServer::PirServer(std::shared_ptr<TfheContext> ctx,
                     const pir::PirParams &params,
                     pir::PirDbStore &store, KeysProvider keys,
                     ServerOptions opts)
    : store_(store), keys_(std::move(keys)),
      engine_(std::move(ctx), params),
      core_(std::move(opts), "pirBatch",
            [this](pir::PirTenantId t,
                   const std::vector<const pir::PirQuery *> &group) {
                return execute(t, group);
            })
{
    trinity_assert(keys_ != nullptr, "PirServer needs a keys provider");
}

std::future<pir::PirResponse>
PirServer::submit(pir::PirTenantId t, pir::PirQuery query)
{
    const TfheParams &p = params().tfhe;
    auto fits = [&](const Poly &poly) {
        return poly.coeffs().size() == p.bigN && poly.q() == p.q &&
               poly.domain() == Domain::Coeff &&
               std::all_of(poly.coeffs().begin(), poly.coeffs().end(),
                           [&](u64 x) { return x < p.q; });
    };
    const GlweCiphertext &ct = query.ct;
    if (ct.a.size() != p.k || !fits(ct.b) ||
        !std::all_of(ct.a.begin(), ct.a.end(), fits)) {
        return failedFuture<pir::PirResponse>(
            std::make_exception_ptr(InvalidRequest(
                "invalid PIR query: expected k+1=" +
                std::to_string(p.k + 1) + " coefficient-domain polys of N=" +
                std::to_string(p.bigN) + " coefficients mod q")));
    }
    return core_.submit(t, std::move(query));
}

std::vector<pir::PirResponse>
PirServer::execute(pir::PirTenantId t,
                   const std::vector<const pir::PirQuery *> &group) const
{
    // The shared_ptr pins the resident form for the whole group, so
    // evictions triggered by other tenants' faults can't invalidate
    // the fold's rows mid-flight.
    std::shared_ptr<const pir::ResidentPirDb> db = store_.acquire(t);
    const pir::PirQueryKeys &keys = keys_(t);
    std::vector<pir::PirResponse> out;
    out.reserve(group.size());
    for (const pir::PirQuery *q : group) {
        out.push_back(engine_.answer(*db, keys, *q));
    }
    return out;
}

} // namespace runtime
} // namespace trinity
