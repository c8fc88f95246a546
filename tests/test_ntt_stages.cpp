/**
 * @file
 * Stage-level NTT and fused-epilogue tests: the KernelSet's stage-range
 * entry points must be bit-identical to the monolithic transforms for
 * ANY stage/butterfly chunking — including chunk boundaries that are
 * not lane multiples — at every SIMD level the host can run; the
 * coefficient-tiled thread-pool executor that is built on them must be
 * bit-identical to serial (down to a 1-worker pool); the fused
 * NTT+MAC / iNTT+add entry points must equal their unfused pairs on
 * every engine; and the pooled scratch arena must make the keyswitch
 * and PBS hot loops allocation-free after warmup.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "backend/registry.h"
#include "backend/scratch_arena.h"
#include "backend/simd_kernels.h"
#include "backend/thread_pool_backend.h"
#include "ckks/encoder.h"
#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "ckks/keys.h"
#include "common/primes.h"
#include "poly/ntt.h"
#include "poly/rns.h"
#include "runtime/batched_pbs.h"

namespace trinity {
namespace {

std::vector<simd::Level>
availableLevels()
{
    std::vector<simd::Level> out = {simd::Level::Scalar};
    for (simd::Level level : {simd::Level::Avx2, simd::Level::Avx512}) {
        if (simd::levelAvailable(level)) {
            out.push_back(level);
        }
    }
    return out;
}

std::vector<u64>
randomSpan(size_t n, u64 q, u64 seed)
{
    Rng rng(seed);
    return rng.uniformVec(n, q);
}

/** Uneven butterfly split points for one stage: boundaries that are
 *  neither lane multiples nor block multiples. */
std::vector<size_t>
unevenSplits(size_t half)
{
    std::vector<size_t> cuts = {0};
    for (size_t c : {size_t(1), size_t(3), size_t(7), half / 2 - 1,
                     half / 2 + 5, half - 3}) {
        if (c > cuts.back() && c < half) {
            cuts.push_back(c);
        }
    }
    cuts.push_back(half);
    return cuts;
}

/** Stage-by-stage over the full butterfly range == monolithic. */
TEST(NttStages, FullRangePerStageMatchesMonolithic)
{
    for (simd::Level level : availableLevels()) {
        const auto &ks = simd::kernelsForLevel(level);
        for (size_t n : {size_t(16), size_t(1024), size_t(4096)}) {
            for (u32 bits : {30u, 50u, 59u}) {
                u64 q = findNttPrimes(bits, 2 * n, 1)[0];
                auto table = NttTableCache::get(n, q);
                size_t logn = table->logn();
                auto ref = randomSpan(n, q, n + bits);
                auto fwd = ref;
                table->forward(fwd.data());

                auto got = ref;
                for (size_t s = 0; s < logn; ++s) {
                    ks.nttForwardStages(*table, got.data(), s, s + 1, 0,
                                        n / 2);
                }
                EXPECT_EQ(got, fwd)
                    << simd::levelName(level) << " fwd n=" << n
                    << " bits=" << bits;

                auto inv = fwd;
                table->inverse(inv.data());
                EXPECT_EQ(inv, ref) << "inverse round-trip n=" << n;

                got = fwd;
                for (size_t s = 0; s < logn; ++s) {
                    ks.nttInverseStages(*table, got.data(), s, s + 1, 0,
                                        n / 2, /*scaleN=*/true);
                }
                EXPECT_EQ(got, ref)
                    << simd::levelName(level) << " inv n=" << n
                    << " bits=" << bits;
            }
        }
    }
}

/** Butterfly chunk boundaries that are NOT lane multiples (and not
 *  block multiples) must still reproduce the monolithic transform. */
TEST(NttStages, UnevenChunkBoundariesMatchMonolithic)
{
    for (simd::Level level : availableLevels()) {
        const auto &ks = simd::kernelsForLevel(level);
        for (size_t n : {size_t(16), size_t(1024), size_t(4096)}) {
            u64 q = findNttPrimes(50, 2 * n, 1)[0];
            auto table = NttTableCache::get(n, q);
            size_t logn = table->logn();
            auto cuts = unevenSplits(n / 2);
            auto ref = randomSpan(n, q, 3 * n + 1);
            auto fwd = ref;
            table->forward(fwd.data());

            auto got = ref;
            for (size_t s = 0; s < logn; ++s) {
                for (size_t c = 0; c + 1 < cuts.size(); ++c) {
                    ks.nttForwardStages(*table, got.data(), s, s + 1,
                                        cuts[c], cuts[c + 1]);
                }
            }
            EXPECT_EQ(got, fwd)
                << simd::levelName(level) << " fwd n=" << n;

            got = fwd;
            for (size_t s = 0; s < logn; ++s) {
                for (size_t c = 0; c + 1 < cuts.size(); ++c) {
                    ks.nttInverseStages(*table, got.data(), s, s + 1,
                                        cuts[c], cuts[c + 1],
                                        /*scaleN=*/true);
                }
            }
            EXPECT_EQ(got, ref)
                << simd::levelName(level) << " inv n=" << n;
        }
    }
}

/** The tiled executor's exact phase decomposition — per-stage chunks
 *  for the global stages, one multi-stage region call per tile —
 *  replayed at the kernel level for several tile counts. */
TEST(NttStages, TileRegionDecompositionMatchesMonolithic)
{
    for (simd::Level level : availableLevels()) {
        const auto &ks = simd::kernelsForLevel(level);
        size_t n = 4096;
        u64 q = findNttPrimes(55, 2 * n, 1)[0];
        auto table = NttTableCache::get(n, q);
        size_t logn = table->logn();
        auto ref = randomSpan(n, q, 77);
        auto fwd = ref;
        table->forward(fwd.data());
        for (size_t tiles : {size_t(2), size_t(4), size_t(8)}) {
            size_t log_tiles = 0;
            while ((size_t{1} << log_tiles) < tiles) {
                ++log_tiles;
            }
            size_t bchunk = (n / 2) / tiles;

            auto got = ref;
            for (size_t s = 0; s < log_tiles; ++s) {
                for (size_t c = 0; c < tiles; ++c) {
                    ks.nttForwardStages(*table, got.data(), s, s + 1,
                                        c * bchunk, (c + 1) * bchunk);
                }
            }
            for (size_t c = 0; c < tiles; ++c) {
                ks.nttForwardStages(*table, got.data(), log_tiles, logn,
                                    c * bchunk, (c + 1) * bchunk);
            }
            EXPECT_EQ(got, fwd)
                << simd::levelName(level) << " tiles=" << tiles;

            got = fwd;
            for (size_t c = 0; c < tiles; ++c) {
                ks.nttInverseStages(*table, got.data(), 0,
                                    logn - log_tiles, c * bchunk,
                                    (c + 1) * bchunk, /*scaleN=*/false);
            }
            for (size_t s = logn - log_tiles; s < logn; ++s) {
                for (size_t c = 0; c < tiles; ++c) {
                    ks.nttInverseStages(*table, got.data(), s, s + 1,
                                        c * bchunk, (c + 1) * bchunk,
                                        /*scaleN=*/true);
                }
            }
            EXPECT_EQ(got, ref)
                << simd::levelName(level) << " tiles=" << tiles;
        }
    }
}

/** The thread-pool tiled path (now running SIMD stage kernels inside
 *  each tile) stays bit-identical to serial, including a 1-worker
 *  pool and lengths below the tiling threshold. */
TEST(NttStages, TiledThreadPoolBitIdentical)
{
    for (size_t n : {size_t(16), size_t(1024), size_t(4096)}) {
        auto qs = findNttPrimes(40, 2 * n, 2);
        Rng rng(n);
        RnsPoly ref = RnsPoly::uniform(n, qs, rng);
        RnsPoly expect = ref;
        BackendRegistry::instance().select("serial");
        expect.toEval();
        for (size_t threads : {1, 4, 8}) {
            RnsPoly got = ref;
            BackendRegistry::instance().use(
                std::make_unique<ThreadPoolBackend>(threads));
            got.toEval();
            EXPECT_EQ(got.flat(), expect.flat())
                << threads << " threads fwd n=" << n;
            got.toCoeff();
            EXPECT_EQ(got.flat(), ref.flat())
                << threads << " threads inv n=" << n;
        }
        BackendRegistry::instance().select("serial");
    }
}

/** Fused forward NTT + one/two-accumulator MAC == the unfused pair,
 *  at the kernel level per SIMD level. */
TEST(NttFused, ForwardMulAddMatchesUnfused)
{
    for (simd::Level level : availableLevels()) {
        const auto &ks = simd::kernelsForLevel(level);
        for (size_t n : {size_t(16), size_t(1024)}) {
            u64 q = findNttPrimes(50, 2 * n, 1)[0];
            Modulus mod(q);
            auto table = NttTableCache::get(n, q);
            auto a = randomSpan(n, q, 21);
            auto b0 = randomSpan(n, q, 22);
            auto b1 = randomSpan(n, q, 23);
            auto acc0 = randomSpan(n, q, 24);
            auto acc1 = randomSpan(n, q, 25);

            auto ea = a;
            auto e0 = acc0;
            auto e1 = acc1;
            table->forward(ea.data());
            const auto &ref = simd::scalarKernels();
            ref.mulAdd(e0.data(), ea.data(), b0.data(), mod, n);
            ref.mulAdd(e1.data(), ea.data(), b1.data(), mod, n);

            auto ga = a;
            auto g0 = acc0;
            auto g1 = acc1;
            ks.nttForwardMulAdd(*table, ga.data(), b0.data(), g0.data(),
                                b1.data(), g1.data());
            EXPECT_EQ(ga, ea) << simd::levelName(level) << " n=" << n;
            EXPECT_EQ(g0, e0) << simd::levelName(level) << " n=" << n;
            EXPECT_EQ(g1, e1) << simd::levelName(level) << " n=" << n;

            // Single-accumulator form (acc1 == nullptr).
            ga = a;
            g0 = acc0;
            ks.nttForwardMulAdd(*table, ga.data(), b0.data(), g0.data(),
                                nullptr, nullptr);
            EXPECT_EQ(g0, e0)
                << simd::levelName(level) << " single-acc n=" << n;
        }
    }
}

/** Fused inverse NTT + accumulate == the unfused pair per level. */
TEST(NttFused, InverseAddMatchesUnfused)
{
    for (simd::Level level : availableLevels()) {
        const auto &ks = simd::kernelsForLevel(level);
        for (size_t n : {size_t(16), size_t(1024)}) {
            u64 q = findNttPrimes(50, 2 * n, 1)[0];
            Modulus mod(q);
            auto table = NttTableCache::get(n, q);
            auto a = randomSpan(n, q, 31);
            auto acc = randomSpan(n, q, 32);

            auto ea = a;
            auto eacc = acc;
            table->inverse(ea.data());
            simd::scalarKernels().add(eacc.data(), eacc.data(),
                                      ea.data(), mod, n);

            auto ga = a;
            auto gacc = acc;
            ks.nttInverseAdd(*table, ga.data(), gacc.data());
            EXPECT_EQ(ga, ea) << simd::levelName(level) << " n=" << n;
            EXPECT_EQ(gacc, eacc)
                << simd::levelName(level) << " n=" << n;
        }
    }
}

/** The fused batch entry points are bit-identical to the unfused
 *  recording on every engine (serial, threads at 4 and 1, sim). */
TEST(NttFused, BatchMatchesUnfusedAcrossEngines)
{
    size_t n = 1024;
    size_t limbs = 4;
    auto qs = findNttPrimes(45, 2 * n, limbs);

    // Unfused reference, computed once with the serial tables.
    std::vector<std::vector<u64>> a(limbs), b(limbs), acc(limbs),
        inv_a(limbs), inv_acc(limbs);
    for (size_t i = 0; i < limbs; ++i) {
        a[i] = randomSpan(n, qs[i], 41 + i);
        b[i] = randomSpan(n, qs[i], 51 + i);
        acc[i] = randomSpan(n, qs[i], 61 + i);
        inv_a[i] = randomSpan(n, qs[i], 71 + i);
        inv_acc[i] = randomSpan(n, qs[i], 81 + i);
    }
    std::vector<std::vector<u64>> efwd_a = a, efwd_acc = acc,
                                  einv_a = inv_a, einv_acc = inv_acc;
    for (size_t i = 0; i < limbs; ++i) {
        Modulus mod(qs[i]);
        auto table = NttTableCache::get(n, qs[i]);
        table->forward(efwd_a[i].data());
        simd::scalarKernels().mulAdd(efwd_acc[i].data(),
                                     efwd_a[i].data(), b[i].data(), mod,
                                     n);
        table->inverse(einv_a[i].data());
        simd::scalarKernels().add(einv_acc[i].data(),
                                  einv_acc[i].data(), einv_a[i].data(),
                                  mod, n);
    }

    auto &reg = BackendRegistry::instance();
    std::vector<std::unique_ptr<PolyBackend>> engines;
    engines.push_back(reg.create("serial"));
    engines.push_back(std::make_unique<ThreadPoolBackend>(4));
    engines.push_back(std::make_unique<ThreadPoolBackend>(1));
    engines.push_back(reg.create("sim"));
    for (auto &engine : engines) {
        std::vector<std::vector<u64>> ga = a, gacc = acc,
                                      gia = inv_a, giacc = inv_acc;
        std::vector<NttMulAddJob> fwd(limbs);
        std::vector<NttInvAddJob> inv(limbs);
        std::vector<std::shared_ptr<const NttTable>> tables(limbs);
        for (size_t i = 0; i < limbs; ++i) {
            tables[i] = NttTableCache::get(n, qs[i]);
            fwd[i] = {ga[i].data(),   tables[i].get(), b[i].data(),
                      gacc[i].data(), nullptr,         nullptr};
            inv[i] = {gia[i].data(), tables[i].get(), giacc[i].data()};
        }
        engine->nttForwardMulAddBatch(fwd.data(), limbs);
        engine->nttInverseAddBatch(inv.data(), limbs);
        for (size_t i = 0; i < limbs; ++i) {
            EXPECT_EQ(ga[i], efwd_a[i])
                << engine->name() << " fwd limb " << i;
            EXPECT_EQ(gacc[i], efwd_acc[i])
                << engine->name() << " fwd acc limb " << i;
            EXPECT_EQ(gia[i], einv_a[i])
                << engine->name() << " inv limb " << i;
            EXPECT_EQ(giacc[i], einv_acc[i])
                << engine->name() << " inv acc limb " << i;
        }
    }
}

/** The scratch arena recycles slabs: after one warmup call at a given
 *  shape, the CKKS keyswitch hot loop acquires every scratch buffer
 *  from the pool — zero heap allocations per call. */
TEST(ScratchArenaReuse, KeySwitchZeroMissAfterWarmup)
{
    for (const char *engine : {"serial", "threads"}) {
        BackendRegistry::instance().select(engine);
        auto ctx =
            std::make_shared<CkksContext>(CkksParams::testSmall());
        CkksKeyGenerator keygen(ctx, 7);
        CkksEncoder encoder(ctx);
        CkksEncryptor enc(ctx, keygen.makePublicKey(), 8);
        CkksEvaluator eval(ctx);
        auto relin = keygen.makeRelinKey();
        std::vector<double> vals(ctx->params().slots(), 0.25);
        auto pt = encoder.encodeReal(vals, ctx->params().maxLevel, 0);
        auto ct = enc.encrypt(pt);

        eval.multiply(ct, ct, relin); // warmup fills the arena
        ScratchArena::resetStats();
        for (int rep = 0; rep < 3; ++rep) {
            eval.multiply(ct, ct, relin);
        }
        auto stats = ScratchArena::stats();
        EXPECT_EQ(stats.misses, 0u)
            << engine << ": keyswitch allocated after warmup";
        EXPECT_GT(stats.hits, 0u)
            << engine << ": keyswitch never touched the arena";
    }
    BackendRegistry::instance().select("serial");
}

/** Same contract for the batched PBS path: warmed up, the blind-
 *  rotation loop never allocates from the arena's slab classes. */
TEST(ScratchArenaReuse, PbsZeroMissAfterWarmup)
{
    BackendRegistry::instance().select("serial");
    TfheGateBootstrapper gb(TfheParams::testTiny(), 515);
    runtime::BatchedBootstrapper bb(gb);
    std::vector<LweCiphertext> cts;
    for (bool b : {true, false, true}) {
        cts.push_back(gb.encryptBit(b));
    }
    bb.bootstrapSignBatch(cts); // warmup
    ScratchArena::resetStats();
    bb.bootstrapSignBatch(cts);
    EXPECT_EQ(ScratchArena::stats().misses, 0u);
}

/** Arena mechanics: exact-size reuse, cross-size isolation, stats. */
TEST(ScratchArenaReuse, BucketsReuseExactSizes)
{
    ScratchArena &arena = ScratchArena::local();
    arena.clear();
    ScratchArena::resetStats();
    u64 *p = nullptr;
    {
        ScratchBuffer b = arena.acquire(1024);
        p = b.data();
        EXPECT_EQ(b.size(), 1024u);
    }
    EXPECT_EQ(ScratchArena::stats().misses, 1u);
    {
        ScratchBuffer b = arena.acquire(1024);
        EXPECT_EQ(b.data(), p); // same slab back
        ScratchBuffer c = arena.acquire(1024);
        EXPECT_NE(c.data(), p); // pool empty -> fresh slab
        ScratchBuffer d = arena.acquire(512);
        EXPECT_NE(d.data(), nullptr);
    }
    auto stats = ScratchArena::stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 3u);
    arena.clear();
}

} // namespace
} // namespace trinity
