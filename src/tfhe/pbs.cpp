#include "tfhe/pbs.h"

#include <cstring>

#include "backend/observer.h"
#include "backend/registry.h"
#include "common/logging.h"

namespace trinity {

TfheBootstrapper::TfheBootstrapper(std::shared_ptr<TfheContext> ctx)
    : ctx_(std::move(ctx))
{
    // keySwitchInto sums k*N*lk products d * row, |d| <= B/2 and
    // row <= q-1, in one i64 per output coefficient before reducing.
    const TfheParams &p = ctx_->params();
    const Gadget &ks = ctx_->ksGadget();
    u128 per_term = (u128(1) << (ks.logBase() - 1)) * (p.q - 1);
    u128 terms = u128(p.k) * p.bigN * ks.levels();
    trinity_assert(terms <= ((u128(1) << 63) - 1) / per_term,
                   "%s: LWE keyswitch bound (B/2)*(q-1)*k*N*lk >= 2^63 "
                   "(logBks=%u, lk=%u, q=%llu)",
                   p.name.c_str(), ks.logBase(), ks.levels(),
                   (unsigned long long)p.q);
}

TfheBootstrapKey
TfheBootstrapper::makeBootstrapKey(const LweSecretKey &lwe_sk,
                                   const GlweSecretKey &glwe_sk,
                                   bool toEval)
{
    TfheBootstrapKey out;
    out.bsk.reserve(lwe_sk.s.size());
    for (i64 bit : lwe_sk.s) {
        GgswCiphertext g = ctx_->ggswEncrypt(bit, glwe_sk);
        if (toEval) {
            ctx_->ggswToEval(g);
        }
        out.bsk.push_back(std::move(g));
    }
    return out;
}

TfheKeySwitchKey
TfheBootstrapper::makeKeySwitchKey(const GlweSecretKey &from,
                                   const LweSecretKey &to)
{
    const Gadget &ks = ctx_->ksGadget();
    LweSecretKey wide = from.extractLweKey();
    TfheKeySwitchKey ksk;
    ksk.rows.resize(wide.s.size());
    for (size_t i = 0; i < wide.s.size(); ++i) {
        ksk.rows[i].reserve(ks.levels());
        for (u32 j = 0; j < ks.levels(); ++j) {
            u64 msg = wide.s[i] ? ks.element(j) : 0;
            ksk.rows[i].push_back(ctx_->lweEncrypt(msg, to));
        }
    }
    return ksk;
}

u64
TfheBootstrapper::modSwitch(u64 x) const
{
    const auto &p = ctx_->params();
    u64 two_n = 2 * p.bigN;
    // round(2N * x / q) mod 2N
    u128 num = u128(x) * two_n + p.q / 2;
    return static_cast<u64>(num / p.q) % two_n;
}

GlweCiphertext
TfheBootstrapper::blindRotate(const LweCiphertext &ct, const Poly &tv,
                              const TfheBootstrapKey &bsk) const
{
    const auto &p = ctx_->params();
    u64 two_n = 2 * p.bigN;
    trinity_assert(ct.a.size() == bsk.bsk.size(),
                   "bsk/ciphertext dimension mismatch");
    emitKernel(sim::KernelType::ModSwitch, ct.a.size() + 1, p.bigN);
    u64 b_tilde = modSwitch(ct.b);
    // ACC_0 = Rotate(tv, -b~)  (Algorithm 2 line 2).
    GlweCiphertext acc =
        ctx_->glweMulMonomial(ctx_->glweTrivial(tv), two_n - b_tilde);
    for (size_t i = 0; i < ct.a.size(); ++i) {
        u64 a_tilde = modSwitch(ct.a[i]);
        if (a_tilde == 0) {
            continue;
        }
        // ACC = CMux(bsk_i, ACC, X^{a~_i} * ACC): selects the rotated
        // accumulator when s_i = 1 (lines 5-11).
        GlweCiphertext rotated = ctx_->glweMulMonomial(acc, a_tilde);
        acc = ctx_->cmux(bsk.bsk[i], acc, rotated);
    }
    return acc;
}

void
TfheBootstrapper::extractInto(const GlweCiphertext &acc, size_t idx,
                              LweCiphertext &out) const
{
    const auto &p = ctx_->params();
    size_t n = p.bigN;
    const Modulus &m = ctx_->modulus();
    trinity_assert(idx < n, "extract index out of range");
    out.a.resize(p.k * n);
    for (size_t j = 0; j < p.k; ++j) {
        const Poly &aj = acc.a[j];
        trinity_assert(aj.domain() == Domain::Coeff,
                       "sample extract needs coefficient domain");
        for (size_t i = 0; i < n; ++i) {
            // a'_{jN+i} = A_j[idx-i], negacyclic wrap brings a sign.
            u64 v;
            if (i <= idx) {
                v = aj[idx - i];
            } else {
                v = m.neg(aj[n + idx - i]);
            }
            out.a[j * n + i] = v;
        }
    }
    out.b = acc.b[idx];
}

LweCiphertext
TfheBootstrapper::sampleExtract(const GlweCiphertext &acc,
                                size_t idx) const
{
    const auto &p = ctx_->params();
    emitKernel(sim::KernelType::SampleExtract, p.k * p.bigN, p.bigN);
    LweCiphertext out;
    extractInto(acc, idx, out);
    return out;
}

u64
TfheBootstrapper::keySwitchInto(const LweCiphertext &wide,
                                const TfheKeySwitchKey &ksk,
                                LweCiphertext &out) const
{
    const auto &p = ctx_->params();
    const Modulus &m = ctx_->modulus();
    const Gadget &ks = ctx_->ksGadget();
    u32 lk = ks.levels();
    size_t n = p.nLwe;
    trinity_assert(wide.a.size() == ksk.rows.size(),
                   "ksk dimension mismatch: %zu rows for a %zu-wide LWE",
                   ksk.rows.size(), wide.a.size());
    // c'' = (0,...,0,b') - sum_i sum_j d_ij * ksk[i][j]. The signed
    // digits times the rows sum exactly in i64 (sum[n] is the body);
    // the constructor's bound keeps |sum| < 2^63, so one reduction per
    // coefficient gives the residue a per-term chain would. Pool
    // workers run this concurrently: the sum is per call.
    std::vector<i64> sum(n + 1, 0);
    i64 *acc = sum.data();
    i64 digits[64]; // levels <= 64, asserted by Gadget
    u64 mac_lanes = 0;
    for (size_t i = 0; i < wide.a.size(); ++i) {
        u64 x = wide.a[i];
        if (x == 0) {
            continue;
        }
        ks.decompose(x, digits);
        for (u32 j = 0; j < lk; ++j) {
            i64 d = digits[j];
            if (d == 0) {
                continue;
            }
            const LweCiphertext &row = ksk.rows[i][j];
            const u64 *ra = row.a.data();
            for (size_t t = 0; t < n; ++t) {
                acc[t] += d * static_cast<i64>(ra[t]);
            }
            acc[n] += d * static_cast<i64>(row.b);
            mac_lanes += n + 1;
        }
    }
    out.a.resize(n);
    for (size_t t = 0; t < n; ++t) {
        out.a[t] = m.neg(toResidue(acc[t], p.q));
    }
    out.b = m.sub(wide.b, toResidue(acc[n], p.q));
    return mac_lanes;
}

void
TfheBootstrapper::checkKeySwitchKey(const TfheKeySwitchKey &ksk) const
{
    const auto &p = ctx_->params();
    u32 lk = ctx_->ksGadget().levels();
    trinity_assert(ksk.rows.size() == p.k * p.bigN,
                   "ksk dimension mismatch: %zu rows, want k*N = %zu",
                   ksk.rows.size(), p.k * p.bigN);
    for (size_t i = 0; i < ksk.rows.size(); ++i) {
        trinity_assert(ksk.rows[i].size() == lk,
                       "ksk dimension mismatch: row %zu holds %zu "
                       "levels, want lk = %u",
                       i, ksk.rows[i].size(), lk);
        for (u32 j = 0; j < lk; ++j) {
            trinity_assert(ksk.rows[i][j].a.size() == p.nLwe,
                           "ksk dimension mismatch: row %zu level %u "
                           "holds %zu mask coefficients, want n_lwe = "
                           "%zu",
                           i, j, ksk.rows[i][j].a.size(), p.nLwe);
        }
    }
}

LweCiphertext
TfheBootstrapper::keySwitch(const LweCiphertext &wide,
                            const TfheKeySwitchKey &ksk) const
{
    checkKeySwitchKey(ksk);
    LweCiphertext out;
    u64 mac_lanes = keySwitchInto(wide, ksk, out);
    emitKernel(sim::KernelType::LweKs, mac_lanes,
               ctx_->params().nLwe);
    return out;
}

LweCiphertext
TfheBootstrapper::pbs(const LweCiphertext &in, const Poly &tv,
                      const TfheBootstrapKey &bsk,
                      const TfheKeySwitchKey &ksk) const
{
    OpScope scope("PBS");
    GlweCiphertext acc = blindRotate(in, tv, bsk);
    LweCiphertext wide = sampleExtract(acc, 0);
    return keySwitch(wide, ksk);
}

std::vector<GlweCiphertext>
TfheBootstrapper::blindRotateBatch(const LweCiphertext *const *cts,
                                   const Poly *const *tvs, size_t count,
                                   const TfheBootstrapKey &bsk) const
{
    const auto &p = ctx_->params();
    u64 two_n = 2 * p.bigN;
    std::vector<GlweCiphertext> accs;
    if (count == 0) {
        return accs;
    }
    accs.reserve(count);
    emitKernel(sim::KernelType::ModSwitch,
               count * (cts[0]->a.size() + 1), p.bigN);
    for (size_t j = 0; j < count; ++j) {
        trinity_assert(cts[j]->a.size() == bsk.bsk.size(),
                       "bsk/ciphertext dimension mismatch");
        u64 b_tilde = modSwitch(cts[j]->b);
        // ACC_0 = Rotate(tv, -b~) per request (Algorithm 2 line 2).
        accs.push_back(ctx_->glweMulMonomial(ctx_->glweTrivial(*tvs[j]),
                                             two_n - b_tilde));
    }
    // Lockstep over the LWE mask: step i applies bsk_i to every
    // request at once, so the GGSW rows are read once per step for
    // the whole batch instead of once per request. All n_lwe steps
    // are recorded into ONE command stream: each request carries its
    // own dependency chain through the steps, so a pipelined engine
    // runs the NTTs of step i+1 under the MACs of step i (and the
    // timing backend prices exactly that overlap). Rotation amounts
    // are captured at record time, so the rot buffer is reusable
    // per step. The scratch outlives the stream (declared first) and
    // is pooled per thread across calls — its decomposition/product
    // polynomials are sized once for a given GLWE shape, so the PBS
    // hot loop stops allocating after the first batch. A change of
    // {N, q, k, extRows} rebuilds it; a wider batch only grows it in
    // place (recordCmuxRotateBatch appends request slots).
    static thread_local CmuxBatchScratch scratch;
    static thread_local u64 scratch_shape[4] = {0, 0, 0, 0};
    u64 shape[4] = {p.bigN, p.q, p.k, p.extRows()};
    if (std::memcmp(shape, scratch_shape, sizeof shape) != 0) {
        scratch = CmuxBatchScratch{};
        std::memcpy(scratch_shape, shape, sizeof shape);
    }
    auto stream = activeBackend().newStream();
    std::vector<u64> rot(count);
    for (size_t i = 0; i < bsk.bsk.size(); ++i) {
        for (size_t j = 0; j < count; ++j) {
            rot[j] = modSwitch(cts[j]->a[i]);
        }
        ctx_->recordCmuxRotateBatch(*stream, bsk.bsk[i], accs.data(),
                                    rot.data(), count, scratch);
    }
    stream->submit();
    stream->wait();
    return accs;
}

std::vector<LweCiphertext>
TfheBootstrapper::sampleExtractBatch(const GlweCiphertext *accs,
                                     size_t count, size_t idx) const
{
    const auto &p = ctx_->params();
    std::vector<LweCiphertext> out(count);
    emitKernel(sim::KernelType::SampleExtract, count * p.k * p.bigN,
               p.bigN);
    activeBackend().run(count, [&](size_t j) {
        extractInto(accs[j], idx, out[j]);
    });
    return out;
}

std::vector<LweCiphertext>
TfheBootstrapper::keySwitchBatch(const LweCiphertext *wides, size_t count,
                                 const TfheKeySwitchKey &ksk) const
{
    const auto &p = ctx_->params();
    checkKeySwitchKey(ksk);
    std::vector<LweCiphertext> out(count);
    std::vector<u64> lanes(count, 0);
    activeBackend().run(count, [&](size_t j) {
        lanes[j] = keySwitchInto(wides[j], ksk, out[j]);
    });
    u64 mac_lanes = 0;
    for (u64 l : lanes) {
        mac_lanes += l;
    }
    emitKernel(sim::KernelType::LweKs, mac_lanes, p.nLwe);
    return out;
}

std::vector<LweCiphertext>
TfheBootstrapper::pbsBatch(const LweCiphertext *const *ins,
                           const Poly *const *tvs, size_t count,
                           const TfheBootstrapKey &bsk,
                           const TfheKeySwitchKey &ksk) const
{
    OpScope scope("PBS");
    std::vector<GlweCiphertext> accs =
        blindRotateBatch(ins, tvs, count, bsk);
    std::vector<LweCiphertext> wides =
        sampleExtractBatch(accs.data(), count, 0);
    return keySwitchBatch(wides.data(), count, ksk);
}

Poly
TfheBootstrapper::makeTestVector(
    const std::function<u64(size_t)> &f) const
{
    const auto &p = ctx_->params();
    Poly tv(p.bigN, p.q);
    for (size_t i = 0; i < p.bigN; ++i) {
        tv[i] = f(i);
    }
    return tv;
}

Poly
TfheBootstrapper::signTestVector(u64 amplitude) const
{
    return makeTestVector([amplitude](size_t) { return amplitude; });
}

} // namespace trinity
