/**
 * @file
 * Single-thread non-NTT hot-kernel throughput: the table-driven
 * Galois automorphism and the two BConv phases (Shoup scaling pass 1,
 * lazily folded u128 matrix-product pass 2), per SIMD dispatch level,
 * against the serial reference engine (direct index map, term-by-term
 * reduced accumulate — the recurrences every engine is verified
 * against). The acceptance gate reads auto.speedup and
 * bconv_p2.speedup: avx2 >= 2x and avx512 >= 3x serial at N=4096.
 *
 * Usage: bench_micro_kernels [--smoke] [--json=PATH] [N [limbs [reps]]]
 */

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "backend/auto_table.h"
#include "backend/scratch_arena.h"
#include "backend/serial_backend.h"
#include "backend/simd_kernels.h"
#include "backend/thread_pool_backend.h"
#include "bench/bench_util.h"
#include "common/primes.h"
#include "common/rng.h"
#include "poly/rns.h"

using namespace trinity;

namespace {

size_t
positionalOr(const bench::BenchArgs &args, size_t idx, size_t fallback)
{
    return idx < args.positional.size()
               ? std::strtoul(args.positional[idx].c_str(), nullptr, 10)
               : fallback;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchArgs args = bench::parseBenchArgs(argc, argv);
    size_t n = positionalOr(args, 0, 4096);
    size_t limbs = positionalOr(args, 1, 8);
    size_t reps = positionalOr(args, 2, args.smoke ? 100 : 2000);

    std::vector<u64> qs = findNttPrimes(45, 2 * n, limbs);
    std::vector<u64> ps = findNttPrimes(50, 2 * n, limbs);
    BaseConverter bconv(qs, ps);
    BConvPlan plan = bconv.plan();
    Modulus q0(qs[0]);
    auto table = AutoTableCache::get(n, 5);

    Rng rng(42);
    std::vector<u64> src = rng.uniformVec(n, qs[0]);
    std::vector<u64> dst(n);
    std::vector<std::vector<u64>> x(limbs);
    std::vector<const u64 *> in;
    for (size_t i = 0; i < limbs; ++i) {
        x[i] = rng.uniformVec(n, qs[i]);
        in.push_back(x[i].data());
    }
    std::vector<u64> v(limbs * n); // pass-1 scratch, limb-major
    std::vector<std::vector<u64>> y(limbs, std::vector<u64>(n));
    std::vector<u64 *> out;
    for (auto &row : y) {
        out.push_back(row.data());
    }

    bench::header("micro_kernels: non-NTT hot kernels per SIMD level");
    bench::note("N=" + std::to_string(n) +
                ", limbs=" + std::to_string(limbs) +
                ", reps=" + std::to_string(reps) +
                " (single thread; speedups vs the serial reference)");
    bench::note("simd dispatch: available levels = " +
                simd::availableLevels() + ", auto = " +
                simd::levelName(simd::bestAvailableLevel()));

    // Each config times the same four kernels; serial runs the
    // reference recurrences, the simd rows the KernelSet of one level.
    struct Config
    {
        std::string label;
        std::function<double()> autoMs, p1Ms, p2Ms, convMs;
    };
    std::vector<Config> configs;

    static SerialBackend serial;
    configs.push_back(
        {"serial",
         [&, reps] {
             AutoJob job{dst.data(), src.data(), &q0, n, 5};
             bench::Timer t;
             for (size_t r = 0; r < reps; ++r) {
                 serial.automorphismBatch(&job, 1);
             }
             return t.elapsedMs();
         },
         [&, reps] {
             bench::Timer t;
             for (size_t r = 0; r < reps; ++r) {
                 for (size_t i = 0; i < limbs; ++i) {
                     const Modulus &qi = plan.fromMods[i];
                     u64 *vi = v.data() + i * n;
                     for (size_t c = 0; c < n; ++c) {
                         vi[c] = qi.mulShoup(in[i][c], plan.qhatInv[i],
                                             plan.qhatInvPrecon[i]);
                     }
                 }
             }
             return t.elapsedMs();
         },
         [&, reps] {
             bench::Timer t;
             for (size_t r = 0; r < reps; ++r) {
                 for (size_t j = 0; j < limbs; ++j) {
                     const Modulus &pj = plan.toMods[j];
                     for (size_t c = 0; c < n; ++c) {
                         u128 acc = 0;
                         for (size_t i = 0; i < limbs; ++i) {
                             acc += static_cast<u128>(
                                        pj.reduce(v[i * n + c])) *
                                    plan.qhatModP[i * limbs + j];
                         }
                         out[j][c] = pj.reduce128(acc);
                     }
                 }
             }
             return t.elapsedMs();
         },
         [&, reps] {
             bench::Timer t;
             for (size_t r = 0; r < reps; ++r) {
                 serial.baseConvert(plan, in.data(), out.data(), n);
             }
             return t.elapsedMs();
         }});

    for (simd::Level level :
         {simd::Level::Scalar, simd::Level::Avx2, simd::Level::Avx512}) {
        if (!simd::levelAvailable(level)) {
            continue;
        }
        const simd::KernelSet *ks = &simd::kernelsForLevel(level);
        auto engine = std::make_shared<ThreadPoolBackend>(1, level);
        configs.push_back(
            {std::string("simd-") + simd::levelName(level),
             [&, engine, reps] {
                 AutoJob job{dst.data(), src.data(), &q0, n, 5};
                 bench::Timer t;
                 for (size_t r = 0; r < reps; ++r) {
                     engine->automorphismBatch(&job, 1);
                 }
                 return t.elapsedMs();
             },
             [&, ks, reps] {
                 bench::Timer t;
                 for (size_t r = 0; r < reps; ++r) {
                     for (size_t i = 0; i < limbs; ++i) {
                         ks->bconvPass1(v.data() + i * n, in[i],
                                       plan.qhatInv[i],
                                       plan.qhatInvPrecon[i],
                                       plan.fromMods[i], n);
                     }
                 }
                 return t.elapsedMs();
             },
             [&, ks, reps] {
                 bench::Timer t;
                 for (size_t r = 0; r < reps; ++r) {
                     for (size_t j = 0; j < limbs; ++j) {
                         ks->bconvPass2(out[j], v.data(), n, limbs,
                                       plan.qhatModP + j, limbs,
                                       plan.toMods[j], n);
                     }
                 }
                 return t.elapsedMs();
             },
             [&, engine, reps] {
                 bench::Timer t;
                 for (size_t r = 0; r < reps; ++r) {
                     engine->baseConvert(plan, in.data(), out.data(),
                                         n);
                 }
                 return t.elapsedMs();
             }});
    }

    double base_auto = 0;
    double base_p1 = 0;
    double base_p2 = 0;
    double base_conv = 0;
    for (const Config &cfg : configs) {
        cfg.autoMs(); // warm: tables, converter constants, caches
        double auto_ms = cfg.autoMs();
        double p1_ms = cfg.p1Ms();
        double p2_ms = cfg.p2Ms();
        // Allocation accounting next to the cycles: the full-BConv
        // loop runs over the pooled scratch arena; with the slab
        // warmed, every acquire should hit the pool. allocs/op is
        // arena misses per conversion — 0 in steady state.
        double conv_ms = cfg.convMs(); // warms the arena slab
        ScratchArena::resetStats();
        conv_ms = cfg.convMs();
        auto arena = ScratchArena::stats();
        if (cfg.label == "serial") {
            base_auto = auto_ms;
            base_p1 = p1_ms;
            base_p2 = p2_ms;
            base_conv = conv_ms;
        }
        double coeffs = static_cast<double>(n) * reps;
        bench::row(cfg.label, "auto.thru", coeffs / (auto_ms / 1000.0),
                   "coef/s", "measured");
        bench::row(cfg.label, "auto.speedup",
                   auto_ms > 0 ? base_auto / auto_ms : 0, "x",
                   "measured");
        bench::row(cfg.label, "bconv_p1.speedup",
                   p1_ms > 0 ? base_p1 / p1_ms : 0, "x", "measured");
        bench::row(cfg.label, "bconv_p2.speedup",
                   p2_ms > 0 ? base_p2 / p2_ms : 0, "x", "measured");
        bench::row(cfg.label, "bconv.full.speedup",
                   conv_ms > 0 ? base_conv / conv_ms : 0, "x",
                   "measured");
        bench::row(cfg.label, "bconv.allocs_per_op",
                   reps > 0 ? static_cast<double>(arena.misses) / reps
                            : 0,
                   "allocs", "measured");
        bench::row(cfg.label, "bconv.arena_hits_per_op",
                   reps > 0 ? static_cast<double>(arena.hits) / reps
                            : 0,
                   "hits", "measured");
    }
    bench::writeJsonReport(args, "micro_kernels");
    return 0;
}
