/**
 * @file
 * pbs-serve: a multi-tenant runtime::PbsServer over a KeyStore at
 * Set-I (N=1024). Four tenants with Zipf(1) popularity; one generator
 * thread keeps 16 sign bootstraps in flight (a closed loop, like a
 * TFHE circuit client waiting on its gate outputs). Every keyset is
 * resident after warm-up, so the time goes to blind rotation — the
 * lockstep decompose / NTT / MAC against a bootstrap key shared by the
 * batch. The PIR fold, BConv and the CKKS keyswitch do no work here.
 */

#include <cmath>
#include <cstdio>

#include "accel/configs.h"
#include "backend/registry.h"
#include "common/modarith.h"
#include "harness.h"
#include "runtime/pbs_server.h"

namespace perfbench {

using namespace trinity;

namespace {

constexpr size_t kTenants = 4;
constexpr size_t kInflight = 16;
constexpr size_t kPool = 32;     ///< pre-encrypted inputs per tenant
constexpr size_t kSimWidth = 8;  ///< fused batch priced by the sim
constexpr int kSetups = 3;
const char *const kLabel = "pbs_server";

struct Tenant
{
    runtime::TenantKeyMaterial keys;
    std::vector<LweCiphertext> pool;
    std::vector<bool> bits;
};

struct State
{
    std::shared_ptr<TfheContext> ctx;
    std::unique_ptr<TfheBootstrapper> boot;
    std::vector<Tenant> tenants;
    std::unique_ptr<runtime::KeyStore> store;
    std::unique_ptr<runtime::PbsServer> server;
    u64 inputDigest = 0;
    bool warmOk = true;

    runtime::KeyStore::Provider
    provider()
    {
        return [this](runtime::TenantId t)
                   -> const runtime::TenantKeyMaterial & {
            return tenants[static_cast<size_t>(t)].keys;
        };
    }

    /** Whether @p out is the sign bootstrap of tenant @p t's input
     *  @p slot. */
    bool
    decodes(size_t t, size_t slot, const LweCiphertext &out) const
    {
        u64 phase = ctx->lwePhase(out, tenants[t].keys.lweKey);
        return (centeredRep(phase, ctx->q()) > 0) == tenants[t].bits[slot];
    }
};

/** Zipf(1) popularity over the tenants: tenant t has weight 1/(t+1). */
size_t
zipfTenant(double u)
{
    double total = 0;
    for (size_t t = 0; t < kTenants; ++t) {
        total += 1.0 / static_cast<double>(t + 1);
    }
    double acc = 0;
    for (size_t t = 0; t < kTenants; ++t) {
        acc += 1.0 / static_cast<double>(t + 1) / total;
        if (u < acc) {
            return t;
        }
    }
    return kTenants - 1;
}

size_t
slotOf(u64 seed, u64 id)
{
    return static_cast<size_t>(mix(seed * 0x100000001b3ULL + id) % kPool);
}

std::unique_ptr<State>
setup(u64 seed)
{
    auto s = std::make_unique<State>();
    s->ctx = std::make_shared<TfheContext>(TfheParams::setI(), mix(seed));
    s->boot = std::make_unique<TfheBootstrapper>(s->ctx);
    u64 q = s->ctx->q();
    u64 mu = q / 8;
    Digest d;
    s->tenants.resize(kTenants);
    for (size_t t = 0; t < kTenants; ++t) {
        Tenant &tn = s->tenants[t];
        tn.keys = runtime::TenantKeyMaterial::generate(*s->ctx, *s->boot);
        for (size_t j = 0; j < kPool; ++j) {
            bool bit = (mix(seed ^ (u64(t) << 40) ^ j) & 1) != 0;
            tn.bits.push_back(bit);
            tn.pool.push_back(
                s->ctx->lweEncrypt(bit ? mu : q - mu, tn.keys.lweKey));
            for (u64 a : tn.pool.back().a) {
                d.add(a);
            }
            d.add(tn.pool.back().b);
        }
    }
    s->inputDigest = d.h;
    s->store = std::make_unique<runtime::KeyStore>(*s->ctx, s->provider(),
                                                   0, "keystore");
    runtime::ServerOptions o;
    o.maxBatch = kInflight;
    o.maxWaitUs = 2000;
    o.label = kLabel;
    s->server = std::make_unique<runtime::PbsServer>(s->ctx, *s->store, o);
    // Warm-up: one request per tenant faults every keyset in.
    std::vector<std::future<LweCiphertext>> warm;
    for (size_t t = 0; t < kTenants; ++t) {
        warm.push_back(s->server->submit(t, s->tenants[t].pool[0]));
    }
    for (size_t t = 0; t < kTenants; ++t) {
        LweCiphertext out = warm[t].get();
        s->warmOk = s->warmOk && s->decodes(t, 0, out);
    }
    return s;
}

LoopResult
serve(State &s, const Options &opt, double seconds)
{
    u64 seed = opt.seed;
    return closedLoop<LweCiphertext>(
        kInflight, seconds,
        // A golden-ratio sequence with a seeded phase: every seed sees
        // the same popularity mix, so the batch widths the server can
        // form do not drift from seed to seed.
        [seed](u64 id, long long) -> u64 {
            double u = unitReal(seed) +
                       0.6180339887498949 * static_cast<double>(id);
            return zipfTenant(u - std::floor(u));
        },
        [&s, seed](u64 id, u64 t) {
            return s.server->submit(t, s.tenants[t].pool[slotOf(seed, id)]);
        },
        [&s, &opt](u64 id, u64 t, LweCiphertext &out) {
            if (static_cast<long long>(id) == opt.corruptUnit) {
                out.b = s.ctx->modulus().add(out.b, s.ctx->q() / 2);
            }
            return s.decodes(t, slotOf(opt.seed, id), out);
        });
}

/**
 * Time one fused batch of @p width of tenant 0's requests stage by
 * stage (blind rotation, sample extraction, keyswitch) and as one
 * runPbsBatchChunked call; the stages must add up to the whole.
 * Returns the median stage times.
 */
std::vector<std::pair<std::string, double>>
stagePass(State &s, size_t width, Report &rep)
{
    auto keys = s.store->acquire(0);
    const Tenant &tn = s.tenants[0];
    runtime::PbsBatch batch;
    for (size_t j = 0; j < width; ++j) {
        batch.add(tn.pool[j % kPool], keys->signTv);
    }
    std::vector<double> br, se, ks;
    std::vector<LweCiphertext> outs, whole;
    double direct = stageSumPass(
        rep, "pbs",
        [&](u64 unit, long parent) {
            std::vector<GlweCiphertext> accs;
            std::vector<LweCiphertext> wides;
            br.push_back(timed("tfhe.blind_rotate", parent, unit, [&] {
                accs = s.boot->blindRotateBatch(batch.inputs.data(),
                                                batch.testVectors.data(),
                                                width, keys->bsk);
            }));
            se.push_back(timed("tfhe.sample_extract", parent, unit, [&] {
                wides = s.boot->sampleExtractBatch(accs.data(), width, 0);
            }));
            ks.push_back(timed("tfhe.keyswitch", parent, unit, [&] {
                outs = s.boot->keySwitchBatch(wides.data(), width,
                                              keys->ksk);
            }));
            return br.back() + se.back() + ks.back();
        },
        [&](u64 unit) {
            return timed("tfhe.pbs_batch", -1, unit, [&] {
                whole = runtime::runPbsBatchChunked(*s.boot, batch,
                                                    keys->bsk, keys->ksk, 0);
            });
        },
        [&] {
            bool ok = outs.size() == width && whole.size() == width;
            for (size_t j = 0; ok && j < width; ++j) {
                ok = outs[j].a == whole[j].a && outs[j].b == whole[j].b &&
                     s.decodes(0, j % kPool, whole[j]);
            }
            return ok;
        });
    return {{"tfhe.pbs_batch", direct},
            {"tfhe.blind_rotate", median(br)},
            {"tfhe.sample_extract", median(se)},
            {"tfhe.keyswitch", median(ks)}};
}

/** One fused batch of kSimWidth, verified — the sim-priced unit. */
std::function<bool()>
simUnit(State &s, std::shared_ptr<const runtime::ResidentKeys> keys,
        std::shared_ptr<runtime::PbsBatch> batch)
{
    return [&s, keys, batch] {
        std::vector<LweCiphertext> out = runtime::runPbsBatchChunked(
            *s.boot, *batch, keys->bsk, keys->ksk, 0);
        bool ok = out.size() == kSimWidth;
        for (size_t j = 0; ok && j < kSimWidth; ++j) {
            ok = s.decodes(0, j, out[j]);
        }
        return ok;
    };
}

} // namespace

void
runPbsServe(const Options &opt, Report &rep)
{
    std::unique_ptr<State> s;
    double setupS = repeatedSetup(opt.trace ? 1 : kSetups, s,
                                  [&] { return setup(opt.seed); });
    std::printf("input_digest %016llx\n",
                static_cast<unsigned long long>(s->inputDigest));
    if (!s->warmOk) {
        rep.fail("a warm-up bootstrap did not decrypt to its input bit");
    }

    runtime::ServerStats before = s->server->stats();
    LoopResult loop = measure(
        opt, rep, [&](double secs) { return serve(*s, opt, secs); },
        [&] {
            resetServerHistograms(kLabel);
            before = s->server->stats();
        });
    runtime::ServerStats after = s->server->stats();
    runtime::KeyStore::Stats ks = s->store->stats();
    s->server.reset(); // idle engine for the direct and sim passes

    double avgBatch = batchMean(before, after);
    size_t width = static_cast<size_t>(std::lround(avgBatch));
    width = std::clamp<size_t>(width, 1,
                               activeBackend().preferredBatch());
    std::vector<std::pair<std::string, double>> stages =
        stagePass(*s, width, rep);

    auto keys = s->store->acquire(0);
    auto batch = std::make_shared<runtime::PbsBatch>();
    for (size_t j = 0; j < kSimWidth; ++j) {
        batch->add(s->tenants[0].pool[j], keys->signTv);
    }
    std::function<bool()> unit = simUnit(*s, keys, batch);

    if (!opt.trace) {
        reportEndToEnd(rep, loop, setupS);
        rep.note("runtime.batch_mean", avgBatch, "count");
        simEndToEnd(accel::trinityTfhe(4), kSimWidth, unit, rep);
        return;
    }

    reportServer(rep, kLabel, before, after);
    rep.metric("runtime.keystore_hit_rate", ks.hitRate());
    rep.metric("runtime.keystore_materializations",
               static_cast<double>(ks.materializations));
    for (const auto &[stage, ms] : stages) {
        rep.metric(stage + "_ms", ms);
    }
    {
        // Cold materialization of one keyset in a private store.
        runtime::KeyStore probe(*s->ctx, s->provider(), 0,
                                "keystore.probe");
        rep.metric("tfhe.materialize_ms",
                   timed("tfhe.materialize", -1, kStageUnitBase, [&] {
                       probe.acquire(0);
                   }));
    }
    rep.note("stage_batch_width", static_cast<double>(width), "count");
    simLayers(accel::trinityTfhe(4), kSimWidth, unit, stages, rep);
}

} // namespace perfbench
