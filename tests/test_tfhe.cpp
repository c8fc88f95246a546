/**
 * @file
 * TFHE tests: LWE/GLWE/GGSW encryption, gadget decomposition (and
 * its division-free quotient against a u128-division oracle on every
 * gadget shape in use), external product, CMux, blind rotation,
 * sample extract, keyswitch (and the lazy keyswitch against its
 * per-term oracle on every engine, and its ksk shape check), full PBS
 * (Algorithm 2), and the boolean gate layer.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <memory>

#include <gtest/gtest.h>

#include "backend/observer.h"
#include "backend/registry.h"
#include "backend/thread_pool_backend.h"
#include "common/primes.h"
#include "pir/params.h"
#include "tfhe/gates.h"

namespace trinity {
namespace {

struct TfheFixture : public ::testing::Test
{
    void
    SetUp() override
    {
        ctx = std::make_shared<TfheContext>(TfheParams::testTiny(), 4242);
        lwe_sk = ctx->makeLweKey();
        glwe_sk = ctx->makeGlweKey();
    }

    i64
    centeredPhase(const LweCiphertext &ct)
    {
        return centeredRep(ctx->lwePhase(ct, lwe_sk), ctx->q());
    }

    std::shared_ptr<TfheContext> ctx;
    LweSecretKey lwe_sk;
    GlweSecretKey glwe_sk;
};

TEST_F(TfheFixture, ParamsUseNttFriendlyPrimeNearTwoPow32)
{
    for (const auto &p :
         {TfheParams::setI(), TfheParams::setII(), TfheParams::setIII()}) {
        EXPECT_EQ(p.q % (2 * p.bigN), 1u) << p.name;
        double rel = std::abs(static_cast<double>(p.q) - std::pow(2, 32)) /
                     std::pow(2, 32);
        EXPECT_LT(rel, 1e-4) << p.name;
    }
}

TEST_F(TfheFixture, LweEncryptDecrypt)
{
    u64 q = ctx->q();
    for (u64 m : {q / 8, q / 4, q - q / 8, u64(0)}) {
        auto ct = ctx->lweEncrypt(m, lwe_sk);
        i64 err = centeredRep(ctx->modulus().sub(
                                  ctx->lwePhase(ct, lwe_sk), m),
                              q);
        EXPECT_LT(std::abs(err), 64) << "m=" << m;
    }
}

TEST_F(TfheFixture, GlweEncryptDecrypt)
{
    const auto &p = ctx->params();
    Rng rng(71);
    Poly m(p.bigN, p.q);
    for (size_t i = 0; i < p.bigN; ++i) {
        m[i] = (rng.next() & 1) ? p.q / 8 : 0;
    }
    auto ct = ctx->glweEncrypt(m, glwe_sk);
    Poly phase = ctx->glwePhase(ct, glwe_sk);
    phase.subInPlace(m);
    EXPECT_LT(phase.infNorm(), 64u);
}

TEST_F(TfheFixture, TrivialGlweIsNoiseFree)
{
    Poly m(ctx->params().bigN, ctx->q());
    m[0] = 12345;
    m[7] = 999;
    auto ct = ctx->glweTrivial(m);
    Poly phase = ctx->glwePhase(ct, glwe_sk);
    phase.subInPlace(m);
    EXPECT_EQ(phase.infNorm(), 0u);
}

/** The rings of every gadget shape in use: each TFHE set and each PIR
 *  set, whose contexts build the bsk/fold and ksk/Galois gadgets. */
std::vector<TfheParams>
gadgetRings()
{
    return {TfheParams::setI(),        TfheParams::setII(),
            TfheParams::setIII(),      TfheParams::testTiny(),
            pir::PirParams::standard().tfhe,
            pir::PirParams::testTiny().tfhe};
}

/**
 * Decomposition inputs for @p g over q = mod.value(), 768 in all: the
 * edge values; the smallest x whose rounded value reaches B^levels
 * (the carry wrap) when one exists below q; x on both sides of 128
 * quotient boundaries, where v = x * B^levels + floor(q/2) crosses a
 * multiple of q; then random x. Of the boundaries, 64 are spread over
 * the whole range, and 64 are the crossings that land v closest above
 * a multiple (v mod q = 0..63), where a reciprocal estimate of the
 * quotient falls one short.
 */
std::vector<u64>
gadgetInputs(const Modulus &mod, const Gadget &g, Rng &rng)
{
    u64 q = mod.value();
    u128 b_levels = u128(1) << (g.logBase() * g.levels());
    std::vector<u64> xs = {0, 1, q / 2, q / 2 + 1, q - 1};
    u128 wrap = (u128(q) * b_levels - q / 2 + b_levels - 1) / b_levels;
    if (wrap < q) {
        xs.push_back(static_cast<u64>(wrap));
    }
    auto bothSides = [&](u64 x) {
        xs.push_back(x);
        if (x >= 1) {
            xs.push_back(x - 1);
        }
    };
    // Multiples k * q for k in [1, top] lie within reach of x < q; the
    // smallest x with v >= k * q is below q for each.
    u128 top = (u128(q - 1) * b_levels + q / 2) / q;
    for (u64 i = 0; i < 64; ++i) {
        u128 k = 1 + (top - 1) * i / 63;
        bothSides(
            static_cast<u64>((k * q - q / 2 + b_levels - 1) / b_levels));
    }
    // v = r mod q at x = (r - floor(q/2)) / B^levels mod q.
    u64 inv_scale = mod.inv(static_cast<u64>(b_levels % q));
    for (u64 r = 0; r < 64; ++r) {
        bothSides(mod.mul(mod.sub(r, q / 2), inv_scale));
    }
    while (xs.size() < 768) {
        xs.push_back(rng.uniform(q));
    }
    return xs;
}

/** decomposePoly over @p xs in 256-coefficient chunks (the tiny
 *  rings' NTT tables stop at 256): out[l][i] is limb l of xs[i]. */
std::vector<std::vector<u64>>
decomposeInChunks(const Gadget &g, u64 q, const std::vector<u64> &xs)
{
    const size_t chunk = 256;
    std::vector<std::vector<u64>> out(g.levels());
    std::vector<Poly> limbs(g.levels(), Poly(chunk, q));
    for (size_t c = 0; c < xs.size(); c += chunk) {
        size_t len = std::min(chunk, xs.size() - c);
        g.decomposePoly(xs.data() + c, len, limbs.data());
        for (u32 l = 0; l < g.levels(); ++l) {
            out[l].insert(out[l].end(), limbs[l].coeffs().begin(),
                          limbs[l].coeffs().begin() + len);
        }
    }
    return out;
}

/** The decomposition's reference body: the quotient by exact u128
 *  division, then balanced digits with the carry wrap. */
void
u128Decompose(u64 q, u32 log_b, u32 levels, u64 x, i64 *digits)
{
    u64 b = 1ULL << log_b;
    u64 half_b = b >> 1;
    u128 scale = u128(1) << (log_b * levels);
    u128 y = (u128(x) * scale + q / 2) / q;
    u64 carry = 0;
    for (u32 l = levels; l-- > 0;) {
        u64 r = static_cast<u64>(y & (b - 1)) + carry;
        y >>= log_b;
        if (r >= half_b) {
            digits[l] = static_cast<i64>(r) - static_cast<i64>(b);
            carry = 1;
        } else {
            digits[l] = static_cast<i64>(r);
            carry = 0;
        }
    }
}

/** Every gadget shape in use: the bsk and ksk gadgets of each TFHE
 *  set, and the fold and Galois-keyswitch gadgets of each PIR set. */
TEST(Gadget, EveryShapeInUseReconstructsWithinBound)
{
    Rng rng(72);
    for (const TfheParams &p : gadgetRings()) {
        TfheContext ctx(p, 1);
        const Modulus &m = ctx.modulus();
        for (const Gadget *g : {&ctx.gadget(), &ctx.ksGadget()}) {
            u32 levels = g->levels();
            u64 base = 1ULL << g->logBase();
            u128 b_levels = u128(1) << (g->logBase() * levels);
            std::vector<u64> xs = gadgetInputs(ctx.modulus(), *g, rng);
            // Rounding x to a multiple of q/B^levels costs at most
            // q/(2 B^levels); rounding each g_l costs 1/2 per unit of
            // |d_l| <= B/2.
            double bound = static_cast<double>(p.q) /
                               (2.0 * static_cast<double>(b_levels)) +
                           levels * static_cast<double>(base) / 4 + 1;
            std::vector<std::vector<u64>> limbs =
                decomposeInChunks(*g, p.q, xs);
            std::vector<i64> digits(levels);
            for (size_t i = 0; i < xs.size(); ++i) {
                g->decompose(xs[i], digits.data());
                u64 recon = 0;
                for (u32 l = 0; l < levels; ++l) {
                    EXPECT_LE(std::abs(digits[l]),
                              static_cast<i64>(base / 2));
                    EXPECT_EQ(limbs[l][i], toResidue(digits[l], p.q));
                    recon = m.add(recon, m.mul(toResidue(digits[l], p.q),
                                               g->element(l)));
                }
                EXPECT_LE(std::abs(centeredRep(m.sub(recon, xs[i]), p.q)),
                          bound)
                    << p.name << " logB=" << g->logBase()
                    << " levels=" << levels << " x=" << xs[i];
            }
        }
    }
}

/**
 * decompose() and decomposePoly() against the u128-division oracle,
 * digit for digit, on every gadget shape in use. Where the quotient is
 * division-free ((q-1) * B^levels + floor(q/2) < 2^64, every TFHE
 * shape), the inputs must include some whose reciprocal estimate
 * floor(v * floor(2^64/q) / 2^64) falls one short, so the fix-up step
 * is exercised, not only present.
 */
TEST(Gadget, EveryShapeInUseMatchesU128DivisionOracle)
{
    Rng rng(74);
    size_t narrow_shapes = 0;
    for (const TfheParams &p : gadgetRings()) {
        TfheContext ctx(p, 1);
        for (const Gadget *g : {&ctx.gadget(), &ctx.ksGadget()}) {
            u32 levels = g->levels();
            u32 shift = g->logBase() * levels;
            bool narrow = (u128(p.q - 1) << shift) + p.q / 2 <
                          (u128(1) << 64);
            u64 recip = static_cast<u64>((u128(1) << 64) / p.q);
            std::vector<u64> xs = gadgetInputs(ctx.modulus(), *g, rng);
            std::vector<std::vector<u64>> limbs =
                decomposeInChunks(*g, p.q, xs);
            std::vector<i64> got(levels), want(levels);
            size_t fixups = 0;
            for (size_t i = 0; i < xs.size(); ++i) {
                u128Decompose(p.q, g->logBase(), levels, xs[i],
                              want.data());
                g->decompose(xs[i], got.data());
                EXPECT_EQ(got, want)
                    << p.name << " logB=" << g->logBase()
                    << " levels=" << levels << " x=" << xs[i];
                for (u32 l = 0; l < levels; ++l) {
                    EXPECT_EQ(limbs[l][i], toResidue(want[l], p.q))
                        << p.name << " limb " << l << " x=" << xs[i];
                }
                if (narrow) {
                    u64 v = (xs[i] << shift) + p.q / 2;
                    u64 y0 = static_cast<u64>((u128(v) * recip) >> 64);
                    fixups += y0 != v / p.q;
                }
            }
            if (narrow) {
                ++narrow_shapes;
                EXPECT_GT(fixups, 0u)
                    << p.name << " logB=" << g->logBase()
                    << " levels=" << levels;
            }
        }
    }
    // Both gadgets of the four TFHE sets; PIR's q ~ 2^60 shapes keep
    // the division.
    EXPECT_EQ(narrow_shapes, 8u);
}

/** gadgetMac against a per-term mulAdd chain at the largest operands
 *  its contract allows, with and without accumulating into dst. */
TEST(GadgetMac, MatchesPerTermChainAtItsBound)
{
    // The largest NTT-friendly prime below 2^61.
    u64 q = findNttPrimes(61, 2 * 2048, 1)[0];
    Modulus mod(q);
    const size_t n = 64;
    Rng rng(73);
    for (bool random : {false, true}) {
        for (size_t rows : {1, 8, 15, 16}) {
            for (bool accumulate : {false, true}) {
                auto operand = [&] {
                    std::vector<u64> v(n, q - 1);
                    if (random) {
                        for (u64 &x : v) {
                            x = rng.uniform(q);
                        }
                    }
                    return v;
                };
                std::vector<std::vector<u64>> a(rows), b(rows);
                std::vector<const u64 *> pa(rows), pb(rows);
                for (size_t r = 0; r < rows; ++r) {
                    a[r] = operand();
                    b[r] = operand();
                    pa[r] = a[r].data();
                    pb[r] = b[r].data();
                }
                std::vector<u64> dst = operand();
                std::vector<u64> want(n);
                for (size_t i = 0; i < n; ++i) {
                    u64 acc = accumulate ? dst[i] : 0;
                    for (size_t r = 0; r < rows; ++r) {
                        acc = mod.mulAdd(a[r][i], b[r][i], acc);
                    }
                    want[i] = acc;
                }
                gadgetMac(dst.data(), pa.data(), pb.data(), rows, n, mod,
                          accumulate);
                EXPECT_EQ(dst, want) << "rows=" << rows
                                     << " accumulate=" << accumulate
                                     << " random=" << random;
            }
        }
    }
}

TEST_F(TfheFixture, ExternalProductByOnePreservesMessage)
{
    const auto &p = ctx->params();
    // GGSW(1) (x) GLWE(m) must decrypt to ~m.
    Poly m(p.bigN, p.q);
    m[0] = p.q / 4;
    m[3] = p.q / 8;
    auto glwe = ctx->glweEncrypt(m, glwe_sk);
    auto ggsw = ctx->ggswEncrypt(1, glwe_sk);
    ctx->ggswToEval(ggsw);
    auto prod = ctx->externalProduct(ggsw, glwe);
    Poly phase = ctx->glwePhase(prod, glwe_sk);
    phase.subInPlace(m);
    EXPECT_LT(phase.infNorm(), 1u << 18); // well below q/16 margin
}

TEST_F(TfheFixture, ExternalProductByZeroKillsMessage)
{
    const auto &p = ctx->params();
    Poly m(p.bigN, p.q);
    m[0] = p.q / 4;
    auto glwe = ctx->glweEncrypt(m, glwe_sk);
    auto ggsw = ctx->ggswEncrypt(0, glwe_sk);
    ctx->ggswToEval(ggsw);
    auto prod = ctx->externalProduct(ggsw, glwe);
    Poly phase = ctx->glwePhase(prod, glwe_sk);
    EXPECT_LT(phase.infNorm(), 1u << 18);
}

TEST_F(TfheFixture, CmuxSelects)
{
    const auto &p = ctx->params();
    Poly m0(p.bigN, p.q), m1(p.bigN, p.q);
    m0[0] = p.q / 4;
    m1[0] = ctx->modulus().neg(p.q / 4);
    auto ct0 = ctx->glweEncrypt(m0, glwe_sk);
    auto ct1 = ctx->glweEncrypt(m1, glwe_sk);
    for (i64 bit : {0, 1}) {
        auto sel = ctx->ggswEncrypt(bit, glwe_sk);
        ctx->ggswToEval(sel);
        auto out = ctx->cmux(sel, ct0, ct1);
        Poly phase = ctx->glwePhase(out, glwe_sk);
        i64 got = centeredRep(phase[0], p.q);
        i64 expect = bit ? -static_cast<i64>(p.q / 4)
                         : static_cast<i64>(p.q / 4);
        EXPECT_NEAR(static_cast<double>(got),
                    static_cast<double>(expect), 1 << 18)
            << "bit=" << bit;
    }
}

struct PbsFixture : public ::testing::Test
{
    void
    SetUp() override
    {
        ctx = std::make_shared<TfheContext>(TfheParams::testTiny(), 888);
        boot = std::make_unique<TfheBootstrapper>(ctx);
        lwe_sk = ctx->makeLweKey();
        glwe_sk = ctx->makeGlweKey();
        bsk = boot->makeBootstrapKey(lwe_sk, glwe_sk);
        ksk = boot->makeKeySwitchKey(glwe_sk, lwe_sk);
    }

    std::shared_ptr<TfheContext> ctx;
    std::unique_ptr<TfheBootstrapper> boot;
    LweSecretKey lwe_sk;
    GlweSecretKey glwe_sk;
    TfheBootstrapKey bsk;
    TfheKeySwitchKey ksk;
};

TEST_F(PbsFixture, SampleExtractMatchesCoefficient)
{
    const auto &p = ctx->params();
    Rng rng(73);
    Poly m(p.bigN, p.q);
    for (size_t i = 0; i < p.bigN; ++i) {
        m[i] = rng.uniform(p.q);
    }
    auto glwe = ctx->glweEncrypt(m, glwe_sk);
    LweSecretKey wide = glwe_sk.extractLweKey();
    for (size_t idx : {size_t(0), size_t(1), p.bigN / 2, p.bigN - 1}) {
        auto lwe = boot->sampleExtract(glwe, idx);
        u64 phase = ctx->lwePhase(lwe, wide);
        i64 err = centeredRep(ctx->modulus().sub(phase, m[idx]), p.q);
        EXPECT_LT(std::abs(err), 64) << "idx=" << idx;
    }
}

TEST_F(PbsFixture, KeySwitchPreservesPhase)
{
    const auto &p = ctx->params();
    LweSecretKey wide = glwe_sk.extractLweKey();
    u64 msg = p.q / 4;
    // Encrypt under the wide key by extracting from a GLWE.
    Poly m(p.bigN, p.q);
    m[0] = msg;
    auto glwe = ctx->glweEncrypt(m, glwe_sk);
    auto wide_ct = boot->sampleExtract(glwe, 0);
    auto small = boot->keySwitch(wide_ct, ksk);
    EXPECT_EQ(small.a.size(), p.nLwe);
    i64 err = centeredRep(
        ctx->modulus().sub(ctx->lwePhase(small, lwe_sk), msg), p.q);
    EXPECT_LT(std::abs(err), 1 << 20); // decomposition noise bound
}

TEST_F(PbsFixture, BlindRotateProducesRotatedTestVector)
{
    const auto &p = ctx->params();
    // Noise-free input encodes phase exactly: use s=0 ciphertext
    // (a = 0, b = phase) so we can predict the rotation amount.
    u64 phase = p.q / 3;
    LweCiphertext ct;
    ct.a.assign(p.nLwe, 0);
    ct.b = phase;
    // Identity-ish test vector tv[i] = i (arbitrary marker values).
    Poly tv(p.bigN, p.q);
    for (size_t i = 0; i < p.bigN; ++i) {
        tv[i] = i * 1000;
    }
    auto acc = boot->blindRotate(ct, tv, bsk);
    Poly got = ctx->glwePhase(acc, glwe_sk);
    // Expected: tv * X^{-b~}.
    u64 b_tilde = boot->modSwitch(phase);
    Poly expect = tv.mulMonomial(2 * p.bigN - b_tilde);
    got.subInPlace(expect);
    EXPECT_LT(got.infNorm(), 1u << 18);
}

TEST_F(PbsFixture, PbsSignExtraction)
{
    const auto &p = ctx->params();
    u64 mu = p.q / 8;
    Poly tv = boot->signTestVector(mu);
    for (bool bit : {false, true}) {
        u64 m = bit ? mu : ctx->modulus().neg(mu);
        auto ct = ctx->lweEncrypt(m, lwe_sk);
        auto fresh = boot->pbs(ct, tv, bsk, ksk);
        i64 phase = centeredRep(ctx->lwePhase(fresh, lwe_sk), p.q);
        if (bit) {
            EXPECT_GT(phase, static_cast<i64>(mu / 2));
        } else {
            EXPECT_LT(phase, -static_cast<i64>(mu / 2));
        }
    }
}

TEST_F(PbsFixture, PbsProgrammableLut)
{
    // Program tv so the output distinguishes 4 phase quadrants... the
    // negacyclic constraint allows an arbitrary function on [0, N)
    // (phases in the "positive" half).
    const auto &p = ctx->params();
    u64 marker1 = p.q / 16, marker2 = p.q / 5;
    Poly tv(p.bigN, p.q);
    for (size_t i = 0; i < p.bigN; ++i) {
        tv[i] = (i < p.bigN / 2) ? marker1 : marker2;
    }
    // Input phase q/8 -> index ~N/4 -> marker1.
    auto ct1 = ctx->lweEncrypt(p.q / 8, lwe_sk);
    auto out1 = boot->pbs(ct1, tv, bsk, ksk);
    i64 ph1 = centeredRep(ctx->lwePhase(out1, lwe_sk), p.q);
    EXPECT_NEAR(static_cast<double>(ph1),
                static_cast<double>(marker1), 1 << 21);
    // Input phase 3q/8 -> index ~3N/4 -> marker2.
    auto ct2 = ctx->lweEncrypt(3 * (p.q / 8), lwe_sk);
    auto out2 = boot->pbs(ct2, tv, bsk, ksk);
    i64 ph2 = centeredRep(ctx->lwePhase(out2, lwe_sk), p.q);
    EXPECT_NEAR(static_cast<double>(ph2),
                static_cast<double>(marker2), 1 << 21);
}

/** The lazy keyswitch's oracle: one reduced multiply and subtract per
 *  digit and coefficient. Adds the MAC lanes it ran to @p mac_lanes,
 *  the tally LweKs events carry. */
LweCiphertext
perTermKeySwitch(const TfheContext &ctx, const LweCiphertext &wide,
                 const TfheKeySwitchKey &ksk, u64 &mac_lanes)
{
    const auto &p = ctx.params();
    const Modulus &m = ctx.modulus();
    const Gadget &ks = ctx.ksGadget();
    u32 lk = ks.levels();
    LweCiphertext out;
    out.a.assign(p.nLwe, 0);
    out.b = wide.b;
    std::vector<i64> digits(lk);
    for (size_t i = 0; i < wide.a.size(); ++i) {
        u64 x = wide.a[i];
        if (x == 0) {
            continue;
        }
        ks.decompose(x, digits.data());
        for (u32 j = 0; j < lk; ++j) {
            if (digits[j] == 0) {
                continue;
            }
            u64 d = toResidue(digits[j], p.q);
            const LweCiphertext &row = ksk.rows[i][j];
            for (size_t t = 0; t < p.nLwe; ++t) {
                out.a[t] = m.sub(out.a[t], m.mul(d, row.a[t]));
            }
            out.b = m.sub(out.b, m.mul(d, row.b));
            mac_lanes += p.nLwe + 1;
        }
    }
    return out;
}

/** Sums the MAC lanes of LweKs kernel events. */
struct LweKsLanes final : BackendObserver
{
    void
    onKernel(const KernelEvent &ev) override
    {
        if (ev.type == sim::KernelType::LweKs) {
            lanes += ev.elements;
        }
    }

    std::atomic<u64> lanes{0};
};

/**
 * keySwitch and keySwitchBatch against the per-term oracle, bit for
 * bit, at every TFHE set on every engine (serial, threads, a one-thread
 * pool, sim), with the same MAC-lane tally: random wide ciphertexts
 * under a random ksk, and the i64 sum at its extreme, every ksk
 * coefficient q-1 and every digit -B/2.
 */
TEST(LazyKeySwitch, MatchesPerTermOracleOnEveryEngine)
{
    BackendRegistry &reg = BackendRegistry::instance();
    const std::string before = activeBackend().name();
    const std::vector<std::pair<const char *, std::function<void()>>>
        engines = {
            {"serial", [&] { reg.select("serial"); }},
            {"threads", [&] { reg.select("threads"); }},
            {"threads-1",
             [&] { reg.use(std::make_unique<ThreadPoolBackend>(1)); }},
            {"sim", [&] { reg.select("sim"); }},
        };
    for (const TfheParams &p :
         {TfheParams::setI(), TfheParams::setII(), TfheParams::setIII(),
          TfheParams::testTiny()}) {
        auto ctx = std::make_shared<TfheContext>(p, 95);
        TfheBootstrapper boot(ctx);
        const Gadget &ks = ctx->ksGadget();
        ASSERT_EQ(ks.logBase(), 4u) << p.name;
        ASSERT_EQ(ks.levels(), 5u) << p.name;
        Rng rng(96);
        // The lazy sum is exact for any rows below q, so uniform rows
        // test it as well as encryptions would, at a fraction of the
        // cost.
        auto makeKsk = [&](bool extreme) {
            TfheKeySwitchKey ksk;
            ksk.rows.assign(p.k * p.bigN,
                            std::vector<LweCiphertext>(ks.levels()));
            for (auto &levels : ksk.rows) {
                for (LweCiphertext &ct : levels) {
                    ct.a.resize(p.nLwe);
                    for (u64 &v : ct.a) {
                        v = extreme ? p.q - 1 : rng.uniform(p.q);
                    }
                    ct.b = extreme ? p.q - 1 : rng.uniform(p.q);
                }
            }
            return ksk;
        };
        const TfheKeySwitchKey randomKsk = makeKsk(false);
        const TfheKeySwitchKey extremeKsk = makeKsk(true);

        std::vector<LweCiphertext> random(3);
        for (LweCiphertext &ct : random) {
            ct.a.resize(p.k * p.bigN);
            for (u64 &v : ct.a) {
                v = rng.uniform(p.q);
            }
            ct.b = rng.uniform(p.q);
        }
        // Balanced base-16 digits of y = 0x77778 are all -8: the
        // lowest place is 8 -> -8 carrying 1, which makes each 7 above
        // it 8 -> -8 again. x = round(y q / 16^5) decomposes to y.
        u128 y = 0x77778;
        u128 scale = u128(1) << 20;
        u64 xAllMin = static_cast<u64>((y * p.q + scale / 2) / scale);
        i64 digits[5];
        ks.decompose(xAllMin, digits);
        for (i64 d : digits) {
            ASSERT_EQ(d, -8) << p.name;
        }
        std::vector<LweCiphertext> extreme(1);
        extreme[0].a.assign(p.k * p.bigN, xAllMin);
        extreme[0].b = p.q - 1;

        u64 wantLanes = 0;
        std::vector<LweCiphertext> wantRandom, wantExtreme;
        for (const LweCiphertext &ct : random) {
            wantRandom.push_back(
                perTermKeySwitch(*ctx, ct, randomKsk, wantLanes));
        }
        wantExtreme.push_back(
            perTermKeySwitch(*ctx, extreme[0], extremeKsk, wantLanes));

        for (const auto &[engine, install] : engines) {
            install();
            LweKsLanes counter;
            installObserver(&counter);
            auto expectSame = [&](const std::vector<LweCiphertext> &got,
                                  const std::vector<LweCiphertext> &want,
                                  const char *what) {
                ASSERT_EQ(got.size(), want.size());
                for (size_t j = 0; j < got.size(); ++j) {
                    EXPECT_EQ(got[j].a, want[j].a)
                        << p.name << " " << engine << " " << what << j;
                    EXPECT_EQ(got[j].b, want[j].b)
                        << p.name << " " << engine << " " << what << j;
                }
            };
            std::vector<LweCiphertext> single;
            for (const LweCiphertext &ct : random) {
                single.push_back(boot.keySwitch(ct, randomKsk));
            }
            expectSame(single, wantRandom, "keySwitch random ");
            expectSame({boot.keySwitch(extreme[0], extremeKsk)},
                       wantExtreme, "keySwitch extreme ");
            expectSame(boot.keySwitchBatch(random.data(), random.size(),
                                           randomKsk),
                       wantRandom, "keySwitchBatch random ");
            expectSame(boot.keySwitchBatch(extreme.data(), extreme.size(),
                                           extremeKsk),
                       wantExtreme, "keySwitchBatch extreme ");
            removeObserver(&counter);
            EXPECT_EQ(counter.lanes.load(), 2 * wantLanes)
                << p.name << " " << engine;
        }
    }
    reg.select(before);
}

/** PIR's ring, q ~ 2^60 with a 15-level base-16 keyswitch gadget,
 *  puts the lazy keyswitch's sum near 2^78: a bootstrapper over it
 *  must refuse to build, while the context itself still builds (the
 *  Gadget test above constructs it). */
TEST(TfheBootstrapperDeathTest, RefusesRingPastTheKeySwitchBound)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    auto ctx =
        std::make_shared<TfheContext>(pir::PirParams::standard().tfhe, 1);
    EXPECT_DEATH(
        {
            TfheBootstrapper boot(ctx);
            (void)boot;
        },
        "LWE keyswitch bound");
}

/** keySwitch and keySwitchBatch check a direct caller's ksk once per
 *  call, before any row is read: a ciphertext with a short mask and
 *  a later row with fewer than lk levels each stop at the shape check
 *  instead of reading past the end of a vector. */
TEST(TfheBootstrapperDeathTest, KeySwitchRefusesMalformedKsk)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    const TfheParams p = TfheParams::testTiny();
    auto ctx = std::make_shared<TfheContext>(p, 97);
    TfheBootstrapper boot(ctx);
    u32 lk = ctx->ksGadget().levels();
    Rng rng(98);
    TfheKeySwitchKey ksk;
    ksk.rows.assign(p.k * p.bigN, std::vector<LweCiphertext>(lk));
    for (auto &levels : ksk.rows) {
        for (LweCiphertext &ct : levels) {
            ct.a = rng.uniformVec(p.nLwe, p.q);
            ct.b = rng.uniform(p.q);
        }
    }
    LweCiphertext wide;
    wide.a = rng.uniformVec(p.k * p.bigN, p.q);
    wide.b = rng.uniform(p.q);
    EXPECT_EQ(boot.keySwitch(wide, ksk).a.size(), p.nLwe);

    TfheKeySwitchKey shortMask = ksk;
    shortMask.rows[7][2].a.pop_back();
    TfheKeySwitchKey shortRow = ksk;
    size_t last = p.k * p.bigN - 1;
    shortRow.rows[last].pop_back();
    const std::string shortMaskMsg =
        "row 7 level 2 holds " + std::to_string(p.nLwe - 1) +
        " mask coefficients";
    const std::string shortRowMsg = "row " + std::to_string(last) +
                                    " holds " + std::to_string(lk - 1) +
                                    " levels";
    EXPECT_DEATH(boot.keySwitch(wide, shortMask), shortMaskMsg);
    EXPECT_DEATH(boot.keySwitchBatch(&wide, 1, shortMask), shortMaskMsg);
    EXPECT_DEATH(boot.keySwitch(wide, shortRow), shortRowMsg);
    EXPECT_DEATH(boot.keySwitchBatch(&wide, 1, shortRow), shortRowMsg);
}

struct GateFixture : public ::testing::Test
{
    void
    SetUp() override
    {
        gb = std::make_unique<TfheGateBootstrapper>(
            TfheParams::testTiny(), 31337);
    }

    std::unique_ptr<TfheGateBootstrapper> gb;
};

TEST_F(GateFixture, TruthTables)
{
    for (int x = 0; x <= 1; ++x) {
        for (int y = 0; y <= 1; ++y) {
            auto cx = gb->encryptBit(x);
            auto cy = gb->encryptBit(y);
            EXPECT_EQ(gb->decryptBit(gb->gateNand(cx, cy)), !(x && y))
                << "NAND " << x << "," << y;
            EXPECT_EQ(gb->decryptBit(gb->gateAnd(cx, cy)),
                      static_cast<bool>(x && y))
                << "AND " << x << "," << y;
            EXPECT_EQ(gb->decryptBit(gb->gateOr(cx, cy)),
                      static_cast<bool>(x || y))
                << "OR " << x << "," << y;
            EXPECT_EQ(gb->decryptBit(gb->gateXor(cx, cy)),
                      static_cast<bool>(x ^ y))
                << "XOR " << x << "," << y;
        }
    }
}

TEST_F(GateFixture, NotAndMux)
{
    auto c0 = gb->encryptBit(false);
    auto c1 = gb->encryptBit(true);
    EXPECT_TRUE(gb->decryptBit(gb->gateNot(c0)));
    EXPECT_FALSE(gb->decryptBit(gb->gateNot(c1)));
    EXPECT_TRUE(gb->decryptBit(gb->gateMux(c1, c1, c0)));
    EXPECT_FALSE(gb->decryptBit(gb->gateMux(c0, c1, c0)));
    EXPECT_FALSE(gb->decryptBit(gb->gateMux(c1, c0, c1)));
}

TEST_F(GateFixture, DeepGateChainStaysCorrect)
{
    // Chain 16 NANDs; bootstrap must refresh noise at every step.
    auto acc = gb->encryptBit(true);
    bool expect = true;
    for (int i = 0; i < 16; ++i) {
        bool bit = (i % 3) != 0;
        auto c = gb->encryptBit(bit);
        acc = gb->gateNand(acc, c);
        expect = !(expect && bit);
    }
    EXPECT_EQ(gb->decryptBit(acc), expect);
}

TEST(TfheSetI, PbsAtPaperParameters)
{
    // One full-parameter PBS (Table IV Set-I) as an integration check.
    TfheGateBootstrapper gb(TfheParams::setI(), 515151);
    auto c1 = gb.encryptBit(true);
    auto c0 = gb.encryptBit(false);
    EXPECT_FALSE(gb.decryptBit(gb.gateNand(c1, c1)));
    EXPECT_TRUE(gb.decryptBit(gb.gateNand(c1, c0)));
}

} // namespace
} // namespace trinity
