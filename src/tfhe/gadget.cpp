#include "tfhe/gadget.h"

#include "common/logging.h"

namespace trinity {

Gadget::Gadget(u64 q, u32 log_b, u32 levels)
    : q_(q), log_b_(log_b), levels_(levels)
{
    trinity_assert(log_b >= 1 && levels >= 1 &&
                       u64(log_b) * levels <= 64,
                   "unsupported gadget shape logB=%u levels=%u", log_b,
                   levels);
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
Gadget::decompose(u64 x, i64 *digits) const
{
    u64 b = 1ULL << log_b_;
    u64 half_b = b >> 1;
    // y = round(x * B^levels / q) in [0, B^levels]
    u128 scale = u128(1) << (log_b_ * levels_);
    u128 y = (u128(x) * scale + q_ / 2) / q_;
    // Balanced base-B digits, least significant last in storage
    // order; the final carry wraps modulo B^levels (equivalent to
    // subtracting q).
    u64 carry = 0;
    for (u32 l = levels_; l-- > 0;) {
        u64 r = static_cast<u64>(y & (b - 1)) + carry;
        y >>= log_b_;
        if (r >= half_b) {
            digits[l] = static_cast<i64>(r) - static_cast<i64>(b);
            carry = 1;
        } else {
            digits[l] = static_cast<i64>(r);
            carry = 0;
        }
    }
}

void
Gadget::decomposePoly(const u64 *src, size_t n, Poly *limbs) const
{
    i64 digits[64] = {}; // levels <= 64, asserted at construction
    for (size_t i = 0; i < n; ++i) {
        decompose(src[i], digits);
        for (u32 l = 0; l < levels_; ++l) {
            limbs[l][i] = toResidue(digits[l], q_);
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
