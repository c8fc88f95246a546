/**
 * @file
 * pir-serve: a runtime::PirServer over the standard() N=2048 ring with
 * two tenants, each with a withShape(64, 5) database — 268 MB resident
 * per tenant, far past the host's last-level cache, so every query
 * streams its tenant's whole database through the fold. One generator
 * thread keeps two queries per tenant in flight. The fold and the CMux
 * tree reuse the external-product/MAC kernels of pbs-serve in a
 * bandwidth-bound shape; expansion exercises Auto and the Galois
 * keyswitch. PBS batching does nothing here.
 */

#include <cstdio>

#include "accel/configs.h"
#include "harness.h"
#include "runtime/pir_server.h"

namespace perfbench {

using namespace trinity;

namespace {

constexpr size_t kTenants = 2;
constexpr size_t kPerTenant = 2; ///< queries in flight per tenant
constexpr size_t kQueries = 8;   ///< pre-encrypted queries per tenant
constexpr int kSetups = 5;
const char *const kLabel = "pir_server";

struct Tenant
{
    std::unique_ptr<pir::PirClient> client;
    pir::PirQueryKeys keys;
    std::unique_ptr<pir::PirDatabase> db;
    std::vector<size_t> index;
    std::vector<pir::PirQuery> queries;
};

struct State
{
    pir::PirParams pp = pir::PirParams::withShape(64, 5);
    std::vector<Tenant> tenants;
    std::shared_ptr<TfheContext> serverCtx;
    std::unique_ptr<pir::PirDbStore> store;
    std::unique_ptr<runtime::PirServer> server;
    u64 inputDigest = 0;
    bool warmOk = true;

    bool
    decodes(size_t t, size_t q, const pir::PirResponse &r) const
    {
        const Tenant &tn = tenants[t];
        return tn.client->decode(r) == tn.db->record(tn.index[q]);
    }
};

size_t
queryOf(u64 seed, u64 id)
{
    return static_cast<size_t>(mix(seed * 0x100000001b3ULL + id) %
                               kQueries);
}

void
digestPoly(Digest &d, const Poly &p)
{
    for (u64 c : p.coeffs()) {
        d.add(c);
    }
}

std::unique_ptr<State>
setup(u64 seed)
{
    auto s = std::make_unique<State>();
    const pir::PirParams &pp = s->pp;
    Digest d;
    s->tenants.resize(kTenants);
    for (size_t t = 0; t < kTenants; ++t) {
        Tenant &tn = s->tenants[t];
        tn.client = std::make_unique<pir::PirClient>(
            pp, mix(seed ^ (0xc11e47ULL + t)));
        tn.keys = tn.client->makeQueryKeys();
        tn.db = std::make_unique<pir::PirDatabase>(
            pir::PirDatabase::random(pp, mix(seed ^ (0xdbULL + t))));
        for (size_t q = 0; q < kQueries; ++q) {
            size_t idx = static_cast<size_t>(
                mix(seed ^ (u64(t) << 40) ^ (q + 1)) % pp.records());
            tn.index.push_back(idx);
            tn.queries.push_back(tn.client->makeQuery(idx));
            for (const Poly &a : tn.queries.back().ct.a) {
                digestPoly(d, a);
            }
            digestPoly(d, tn.queries.back().ct.b);
        }
        for (size_t rec = 0; rec < pp.records(); ++rec) {
            for (size_t i = 0; i < pp.tfhe.bigN; ++i) {
                d.add(tn.db->coeff(rec, i));
            }
        }
    }
    s->inputDigest = d.h;
    s->serverCtx = std::make_shared<TfheContext>(pp.tfhe, mix(seed ^ 0x5e));
    State *raw = s.get();
    s->store = std::make_unique<pir::PirDbStore>(
        *s->serverCtx,
        [raw](pir::PirTenantId t) -> const pir::PirDatabase & {
            return *raw->tenants[static_cast<size_t>(t)].db;
        },
        0, "pir_dbstore");
    runtime::ServerOptions o;
    o.maxBatch = kTenants * kPerTenant;
    o.maxWaitUs = 2000;
    o.label = kLabel;
    s->server = std::make_unique<runtime::PirServer>(
        s->serverCtx, pp, *s->store,
        [raw](pir::PirTenantId t) -> const pir::PirQueryKeys & {
            return raw->tenants[static_cast<size_t>(t)].keys;
        },
        o);
    // Warm-up: one query per tenant materializes every database.
    std::vector<std::future<pir::PirResponse>> warm;
    for (size_t t = 0; t < kTenants; ++t) {
        warm.push_back(s->server->submit(t, s->tenants[t].queries[0]));
    }
    for (size_t t = 0; t < kTenants; ++t) {
        pir::PirResponse r = warm[t].get();
        s->warmOk = s->warmOk && s->decodes(t, 0, r);
    }
    return s;
}

LoopResult
serve(State &s, const Options &opt, double seconds)
{
    u64 seed = opt.seed;
    return closedLoop<pir::PirResponse>(
        kTenants * kPerTenant, seconds,
        // Each finished query is replaced by one of the same tenant, so
        // every tenant keeps kPerTenant queries in flight.
        [](u64 id, long long prev) -> u64 {
            return prev >= 0 ? static_cast<u64>(prev) : id % kTenants;
        },
        [&s, seed](u64 id, u64 t) {
            return s.server->submit(t,
                                    s.tenants[t].queries[queryOf(seed, id)]);
        },
        [&s, &opt](u64 id, u64 t, pir::PirResponse &r) {
            if (static_cast<long long>(id) == opt.corruptUnit) {
                r.comps.back()[0] ^= u64(1) << (r.logQs - 1);
            }
            return s.decodes(t, queryOf(opt.seed, id), r);
        });
}

/**
 * Answer tenant 0's first query stage by stage (expansion, one GSW
 * assembly per CMux dimension, the first-dimension fold, the CMux tree
 * replayed with TfheContext::cmux, the modulus switch) and through
 * PirEngine::answer, interleaved; the stages must add up to the whole
 * and both responses must match. Returns the median stage times.
 */
std::vector<std::pair<std::string, double>>
stagePass(State &s, Report &rep)
{
    pir::PirEngine engine(s.serverCtx, s.pp);
    auto db = s.store->acquire(0);
    const Tenant &tn = s.tenants[0];
    const pir::PirQuery &query = tn.queries[0];
    std::vector<double> ex, gs, fo, cm, ms;
    pir::PirResponse resp, whole;
    double direct = stageSumPass(
        rep, "pir",
        [&](u64 unit, long parent) {
            std::vector<GlweCiphertext> expanded, accs;
            std::vector<GgswCiphertext> gsw;
            ex.push_back(timed("pir.expand", parent, unit, [&] {
                expanded = engine.expand(tn.keys, query);
            }));
            gs.push_back(timed("pir.query_gsw", parent, unit, [&] {
                for (u32 t = 0; t < s.pp.gswDims; ++t) {
                    gsw.push_back(engine.queryGsw(tn.keys, expanded, t));
                }
            }));
            fo.push_back(timed("pir.fold", parent, unit, [&] {
                accs = engine.fold(*db, expanded);
            }));
            cm.push_back(timed("pir.cmux_tree", parent, unit, [&] {
                for (u32 t = 0; t < s.pp.gswDims; ++t) {
                    std::vector<GlweCiphertext> next(accs.size() / 2);
                    for (size_t i = 0; i < next.size(); ++i) {
                        next[i] = s.serverCtx->cmux(gsw[t], accs[2 * i],
                                                    accs[2 * i + 1]);
                    }
                    accs = std::move(next);
                }
            }));
            ms.push_back(timed("pir.mod_switch", parent, unit, [&] {
                resp = engine.modSwitch(accs[0]);
            }));
            return ex.back() + gs.back() + fo.back() + cm.back() +
                   ms.back();
        },
        [&](u64 unit) {
            return timed("pir.answer", -1, unit, [&] {
                whole = engine.answer(*db, tn.keys, query);
            });
        },
        [&] { return resp == whole && s.decodes(0, 0, whole); });
    return {{"pir.answer", direct},
            {"pir.expand", median(ex)},
            {"pir.query_gsw", median(gs)},
            {"pir.fold", median(fo)},
            {"pir.cmux_tree", median(cm)},
            {"pir.mod_switch", median(ms)}};
}

} // namespace

void
runPirServe(const Options &opt, Report &rep)
{
    std::unique_ptr<State> s;
    double setupS = repeatedSetup(opt.trace ? 1 : kSetups, s,
                                  [&] { return setup(opt.seed); });
    std::printf("input_digest %016llx\n",
                static_cast<unsigned long long>(s->inputDigest));
    if (!s->warmOk) {
        rep.fail("a warm-up response did not decode to its record");
    }

    runtime::ServerStats before = s->server->stats();
    LoopResult loop = measure(
        opt, rep, [&](double secs) { return serve(*s, opt, secs); },
        [&] {
            resetServerHistograms(kLabel);
            before = s->server->stats();
        });
    runtime::ServerStats after = s->server->stats();
    pir::PirDbStore::Stats ds = s->store->stats();
    s->server.reset(); // idle engine for the direct and sim passes

    std::vector<std::pair<std::string, double>> stages =
        stagePass(*s, rep);

    auto db = s->store->acquire(0);
    pir::PirEngine engine(s->serverCtx, s->pp);
    std::function<bool()> unit = [&s, &engine, db] {
        const Tenant &tn = s->tenants[0];
        return s->decodes(0, 0, engine.answer(*db, tn.keys, tn.queries[0]));
    };

    if (!opt.trace) {
        reportEndToEnd(rep, loop, setupS);
        simEndToEnd(accel::trinityTfhe(4), 1, unit, rep);
        return;
    }

    reportServer(rep, kLabel, before, after);
    rep.metric("runtime.dbstore_materializations",
               static_cast<double>(ds.materializations));
    double foldMs = 0;
    for (const auto &[stage, ms] : stages) {
        rep.metric(stage + "_ms", ms);
        if (stage == "pir.fold") {
            foldMs = ms;
        }
    }
    // Bytes the fold streams are computed from the shape, not measured.
    rep.metric("pir.fold_gb_per_s",
               foldMs > 0 ? static_cast<double>(s->pp.residentBytes()) /
                                1e9 / (foldMs * 1e-3)
                          : 0.0);
    rep.metric("pir.materialize_ms",
               timed("pir.materialize", -1, kStageUnitBase, [&] {
                   pir::ResidentPirDb cold = pir::materializePirDb(
                       *s->serverCtx, *s->tenants[1].db);
                   (void)cold;
               }));
    simLayers(accel::trinityTfhe(4), 1, unit, stages, rep);
}

} // namespace perfbench
