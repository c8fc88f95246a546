#include "tfhe/gadget.h"

#include "common/logging.h"

namespace trinity {

Gadget::Gadget(u64 q, u32 log_b, u32 levels)
    : q_(q), log_b_(log_b), levels_(levels)
{
    // B/2 <= q also keeps B below 2^64 and makes residue() exact.
    trinity_assert(log_b >= 1 && levels >= 1 &&
                       u64(log_b) * levels <= 64 &&
                       (u128(1) << (log_b - 1)) <= q,
                   "unsupported gadget shape logB=%u levels=%u", log_b,
                   levels);
    u128 v_max = (u128(q - 1) << (log_b * levels)) + q / 2;
    narrow_ = v_max < (u128(1) << 64);
    recip_ = static_cast<u64>((u128(1) << 64) / q);
    // q is prime, so these are approximate gadget elements — the
    // rounding is absorbed as decomposition noise (Joye-Walter
    // "Liberating TFHE").
    g_.resize(levels);
    for (u32 l = 0; l < levels; ++l) {
        u128 denom = u128(1) << (log_b * (l + 1));
        g_[l] = static_cast<u64>((u128(q) + denom / 2) / denom);
    }
}

void
Gadget::decomposeWide(u64 x, i64 *digits) const
{
    // y = round(x * B^levels / q) in [0, B^levels]
    u128 scale = u128(1) << (log_b_ * levels_);
    balancedDigits((u128(x) * scale + q_ / 2) / q_, digits);
}

void
Gadget::decomposePoly(const u64 *src, size_t n, Poly *limbs) const
{
    i64 digits[64] = {}; // levels <= 64, asserted at construction
    u64 *dst[64] = {};
    for (u32 l = 0; l < levels_; ++l) {
        dst[l] = limbs[l].coeffs().data();
    }
    for (size_t i = 0; i < n; ++i) {
        decompose(src[i], digits);
        for (u32 l = 0; l < levels_; ++l) {
            dst[l][i] = residue(digits[l]);
        }
    }
}

void
gadgetMac(u64 *dst, const u64 *const *a, const u64 *const *b, size_t rows,
          size_t n, const Modulus &mod, bool accumulate)
{
    trinity_assert(rows <= kGadgetMacMaxRows &&
                       mod.value() < (1ULL << 61),
                   "gadgetMac: %zu rows at q=%llu overflow 128 bits",
                   rows, (unsigned long long)mod.value());
    for (size_t i = 0; i < n; ++i) {
        u128 acc = accumulate ? dst[i] : 0;
        for (size_t r = 0; r < rows; ++r) {
            acc += static_cast<u128>(a[r][i]) * b[r][i];
        }
        dst[i] = mod.reduce128(acc);
    }
}

} // namespace trinity
