/**
 * @file
 * Multi-tenant serving under key-cache pressure: a closed-loop load
 * generator drives a ShardedPbsServer with Zipf-distributed tenant
 * popularity while the per-shard KeyStores run at a budget smaller
 * than the tenants' combined working set, so lazy materialization,
 * LRU eviction, and refault all happen under live traffic. Reported
 * per engine (serial, threads, and simd-<level>: a one-thread pool at
 * the dispatched SIMD level): saturation OPS, per-shard
 * request-latency p50/p99/p999, keystore hit rate and evictions —
 * plus one fused tenant batch priced on the Trinity-TFHE machine
 * model. Every decrypted result is verified against the submitted
 * bit, so the rows double as an evict/refault bit-correctness check.
 *
 * Positional args: [tenants] [shards] [clients] [requests-per-client]
 * (defaults depend on --smoke). TRINITY_KEYSTORE_BYTES overrides the
 * default budget of half the combined tenant working set.
 */

#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "accel/configs.h"
#include "backend/registry.h"
#include "backend/sim_backend.h"
#include "backend/thread_pool_backend.h"
#include "bench/bench_util.h"
#include "common/modarith.h"
#include "obs/metrics.h"
#include "runtime/sharded_server.h"

using namespace trinity;
using namespace trinity::bench;

namespace {

/** One tenant's client-side state: durable keys plus a pre-encrypted
 *  request pool (the context RNG is not thread-safe, so every
 *  ciphertext a client thread submits is minted up front). */
struct Tenant
{
    runtime::TenantKeyMaterial keys;
    std::vector<LweCiphertext> pool;
    std::vector<bool> bits;
};

/** Zipf(s=1) popularity over @p n tenants as an inverse-CDF table. */
std::vector<double>
zipfCdf(size_t n)
{
    std::vector<double> cdf(n);
    double total = 0;
    for (size_t i = 0; i < n; ++i) {
        total += 1.0 / static_cast<double>(i + 1);
        cdf[i] = total;
    }
    for (double &c : cdf) {
        c /= total;
    }
    return cdf;
}

size_t
sampleZipf(const std::vector<double> &cdf, std::mt19937_64 &rng)
{
    double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
    size_t lo = 0;
    size_t hi = cdf.size() - 1;
    while (lo < hi) {
        size_t mid = (lo + hi) / 2;
        if (cdf[mid] < u) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    return lo;
}

struct LoadResult
{
    double ops = 0;       ///< completed requests per second
    u64 wrong = 0;        ///< decrypt mismatches (must be 0)
    u64 completed = 0;
    runtime::ShardedStats stats;
};

/** Closed-loop run: @p clients threads, each submitting @p perClient
 *  Zipf-sampled tenant requests and blocking on every future. */
LoadResult
runLoad(const std::shared_ptr<TfheContext> &ctx,
        std::vector<Tenant> &tenants, size_t shards, size_t budget,
        size_t clients, size_t perClient)
{
    runtime::ShardedOptions opts;
    opts.shards = shards;
    opts.keystoreBudgetBytes = budget;
    opts.server.maxBatch = 8;
    opts.server.maxWaitUs = 200;
    runtime::KeyStore::Provider provider =
        [&tenants](runtime::TenantId t)
        -> const runtime::TenantKeyMaterial & {
        return tenants[static_cast<size_t>(t)].keys;
    };
    std::vector<double> cdf = zipfCdf(tenants.size());
    LoadResult res;
    std::vector<u64> wrong(clients, 0);
    Timer t;
    {
        runtime::ShardedPbsServer server(ctx, provider, opts);
        std::vector<std::thread> workers;
        workers.reserve(clients);
        for (size_t c = 0; c < clients; ++c) {
            workers.emplace_back([&, c] {
                std::mt19937_64 rng(0x5eedULL + c);
                for (size_t i = 0; i < perClient; ++i) {
                    size_t tid = sampleZipf(cdf, rng);
                    Tenant &tn = tenants[tid];
                    size_t slot = (c * perClient + i) % tn.pool.size();
                    LweCiphertext out =
                        server.submit(tid, tn.pool[slot]).get();
                    u64 phase = ctx->lwePhase(out, tn.keys.lweKey);
                    bool bit = centeredRep(phase, ctx->q()) > 0;
                    if (bit != tn.bits[slot]) {
                        ++wrong[c];
                    }
                }
            });
        }
        for (auto &w : workers) {
            w.join();
        }
        res.stats = server.stats();
    }
    double ms = t.elapsedMs();
    res.completed = clients * perClient;
    res.ops = 1000.0 * static_cast<double>(res.completed) / ms;
    for (u64 w : wrong) {
        res.wrong += w;
    }
    return res;
}

/** Per-shard latency tails from the obs registry histograms (reset
 *  before each engine run; the shard servers feed them live). */
void
resetShardHistograms(size_t shards)
{
    obs::MetricsRegistry &reg = obs::MetricsRegistry::instance();
    for (size_t i = 0; i < shards; ++i) {
        std::string p = "pbs_server.shard" + std::to_string(i);
        reg.histogram(p + ".request_latency_ns").reset();
        reg.histogram(p + ".queue_wait_ns").reset();
        reg.histogram(p + ".batch_size").reset();
    }
}

void
reportShardTails(const std::string &engine, size_t shards)
{
    obs::MetricsRegistry &reg = obs::MetricsRegistry::instance();
    const double to_ms = 1e-6;
    for (size_t i = 0; i < shards; ++i) {
        std::string p = "pbs_server.shard" + std::to_string(i);
        obs::Histogram &lat = reg.histogram(p + ".request_latency_ns");
        std::string metric = "shard" + std::to_string(i) + " latency";
        row(engine + " p50", metric,
            static_cast<double>(lat.percentile(0.50)) * to_ms, "ms",
            "measured");
        row(engine + " p99", metric,
            static_cast<double>(lat.percentile(0.99)) * to_ms, "ms",
            "measured");
        row(engine + " p999", metric,
            static_cast<double>(lat.percentile(0.999)) * to_ms, "ms",
            "measured");
    }
}

} // namespace

int
main(int argc, char **argv)
{
    BenchArgs args = parseBenchArgs(argc, argv);
    // Smoke keeps CI wall-clock-bounded on the tiny parameter set;
    // the full run uses Set-I so each tenant costs paper-scale tens
    // of MB and materialization is a real NTT sweep.
    TfheParams params =
        args.smoke ? TfheParams::testTiny() : TfheParams::setI();
    size_t tenants = args.smoke ? 8 : 6;
    size_t shards = 2;
    size_t clients = 4;
    size_t perClient = args.smoke ? 24 : 32;
    if (args.positional.size() > 0) {
        tenants = std::stoul(args.positional[0]);
    }
    if (args.positional.size() > 1) {
        shards = std::stoul(args.positional[1]);
    }
    if (args.positional.size() > 2) {
        clients = std::stoul(args.positional[2]);
    }
    if (args.positional.size() > 3) {
        perClient = std::stoul(args.positional[3]);
    }

    header("Multi-tenant sharded PBS serving (" + params.name + ")");
    size_t perTenant = runtime::KeyStore::residentBytesFor(params);
    // Default pressure point: the fleet can hold half the tenants —
    // the popular (Zipf head) tenants stay resident, the tail
    // evicts/refaults continuously.
    size_t budget = runtime::KeyStore::budgetFromEnv(
        perTenant * std::max<size_t>(1, tenants / 2));
    row("working set per tenant", params.name,
        static_cast<double>(perTenant) / 1e6, "MB", "measured");
    row("keystore budget (total)", params.name,
        static_cast<double>(budget) / 1e6, "MB", "configured");
    note("tenants=" + std::to_string(tenants) +
         " shards=" + std::to_string(shards) +
         " clients=" + std::to_string(clients) +
         " requests/client=" + std::to_string(perClient) +
         " (Zipf s=1 popularity)");

    auto ctx = std::make_shared<TfheContext>(params, 0xdecaf);
    TfheBootstrapper boot(ctx);
    std::vector<Tenant> fleet(tenants);
    for (size_t i = 0; i < tenants; ++i) {
        fleet[i].keys = runtime::TenantKeyMaterial::generate(*ctx, boot);
        size_t poolSize = 16;
        for (size_t j = 0; j < poolSize; ++j) {
            bool b = ((i + j) % 3) != 1;
            fleet[i].bits.push_back(b);
            u64 mu = ctx->params().q / 8;
            u64 m = b ? mu : ctx->modulus().neg(mu);
            fleet[i].pool.push_back(
                ctx->lweEncrypt(m, fleet[i].keys.lweKey));
        }
    }

    auto &breg = BackendRegistry::instance();
    std::string prev = activeBackend().name();
    const std::string simdRow =
        std::string("simd-") + simd::levelName(simd::resolveLevel());
    for (const std::string &name :
         {std::string("serial"), std::string("threads"), simdRow}) {
        if (name == simdRow) {
            breg.use(std::make_unique<ThreadPoolBackend>(1));
        } else {
            breg.select(name);
        }
        resetShardHistograms(shards);
        LoadResult res = runLoad(ctx, fleet, shards, budget, clients,
                                 perClient);
        row(name + " saturation", params.name + " closed loop",
            res.ops, "OPS", "measured");
        reportShardTails(name, shards);
        row(name + " keystore hit rate", params.name,
            res.stats.keystore.hitRate(), "frac", "measured");
        row(name + " keystore evictions", params.name,
            static_cast<double>(res.stats.keystore.evictions), "evt",
            "measured");
        row(name + " shed+rejected", params.name,
            static_cast<double>(res.stats.serving.shed +
                                res.stats.serving.rejected),
            "req", "measured");
        // The load loop decrypt-verifies every response against the
        // submitted bit — 0 means evict/refault never corrupted a
        // batch.
        row(name + " wrong results", params.name,
            static_cast<double>(res.wrong), "req", "measured");
    }
    breg.select(prev);

    // One fused tenant batch priced on the Trinity-TFHE machine
    // model: the accelerator-terms cost of a shard executing one
    // tenant group at B=8 (keys pre-materialized — serving steady
    // state, not the fault path).
    {
        breg.use(std::make_unique<SimBackend>(breg.create("serial"),
                                              accel::trinityTfhe(4)));
        SimBackend &sb = *activeSimBackend();
        runtime::KeyStore store(
            *ctx,
            [&fleet](runtime::TenantId t)
                -> const runtime::TenantKeyMaterial & {
                return fleet[static_cast<size_t>(t)].keys;
            },
            0, "keystore.simprice");
        auto keys = store.acquire(0);
        const size_t B = 8;
        runtime::PbsBatch batch;
        for (size_t j = 0; j < B; ++j) {
            batch.add(fleet[0].pool[j], keys->signTv);
        }
        sb.ledger().reset();
        runtime::runPbsBatchChunked(boot, batch, keys->bsk, keys->ksk,
                                    0);
        double ops =
            static_cast<double>(B) /
            sb.seconds(sb.ledger().overlappedLatencyCycles());
        row("Trinity-TFHE tenant batch B=8", params.name, ops, "OPS",
            "sim-priced");
        breg.select(prev);
    }

    note("closed-loop load: every request waits for its result; "
         "tenant -> shard routing is key-affine (splitmix64), so a "
         "tenant's keys materialize in exactly one shard's store");
    writeJsonReport(args, "table_multitenant");
    return 0;
}
