/**
 * @file
 * Signed gadget decomposition over a prime modulus, and the one MAC
 * loop that consumes its digits.
 *
 * Every gadget in the repo is an instance of Gadget: TfheContext
 * builds the external-product gadget (logBg, lb) and the keyswitch
 * gadget (logBks, lk) from its parameters, and PBS, the LWE
 * keyswitch, the PIR Galois keyswitch, query encoding, database
 * materialization and the PIR fold all read those two. The
 * decomposition is balanced base-B — y = round(x * B^levels / q),
 * balanced digits with a carry wrap.
 *
 * The quotient y = floor(v / q), v = x * B^levels + floor(q/2), is
 * division-free when v < 2^64 for every residue x, i.e. when
 * (q-1) * B^levels + floor(q/2) < 2^64: both gadgets of every TFHE
 * set (q ~ 2^32, B^levels <= 2^24) qualify. There the high word of
 * v * floor(2^64 / q) undershoots v / q by less than 1, so it is y or
 * y - 1, and one compare against q fixes it up. Wider shapes (PIR's
 * q ~ 2^60 ring, B^levels up to 2^60) put v past 64 bits and keep
 * the exact u128 division; the constructor picks the path from q and
 * the shape.
 *
 * gadgetMac() is the external-product inner product: decomposed limbs
 * times transform-domain rows, summed per coefficient. Blind
 * rotation, the sequential external product, the Galois keyswitch and
 * the PIR fold all run it.
 */

#ifndef TRINITY_TFHE_GADGET_H
#define TRINITY_TFHE_GADGET_H

#include <vector>

#include "common/modarith.h"
#include "common/types.h"
#include "poly/poly.h"

namespace trinity {

/** Gadget vector g_l = round(q / B^(l+1)) with its decomposition. */
class Gadget
{
  public:
    Gadget(u64 q, u32 log_b, u32 levels);

    u32 levels() const { return levels_; }
    u32 logBase() const { return log_b_; }
    u64 element(u32 l) const { return g_[l]; }

    /**
     * Signed decomposition of a residue x < q into digits d_l in
     * [-B/2, B/2) so that sum d_l * g_l ~ x. Full-width gadgets
     * (logB * levels covering all of q) leave only the per-level
     * rounding of the prime; truncated gadgets additionally carry a
     * q / B^levels approximation term.
     */
    void
    decompose(u64 x, i64 *digits) const
    {
        if (!narrow_) {
            decomposeWide(x, digits);
            return;
        }
        u64 v = (x << (log_b_ * levels_)) + q_ / 2;
        u64 y = static_cast<u64>((u128(v) * recip_) >> 64);
        if (v - y * q_ >= q_) {
            ++y;
        }
        balancedDigits(y, digits);
    }

    /** d mod q for a digit of decompose(): |d| <= B/2 <= q, so d + q
     *  for d < 0 (added under the sign mask) and d otherwise. */
    u64
    residue(i64 d) const
    {
        return static_cast<u64>(d) + (q_ & static_cast<u64>(d >> 63));
    }

    /**
     * Decompose @p n coefficients of @p src into levels() residue
     * limbs: limbs[l][i] = d_l(src[i]) mod q.
     */
    void decomposePoly(const u64 *src, size_t n, Poly *limbs) const;

  private:
    u64 q_;
    u32 log_b_;
    u32 levels_;
    /** (q-1) * B^levels + floor(q/2) < 2^64: decompose() divides by
     *  multiplying with recip_ = floor(2^64 / q). */
    bool narrow_;
    u64 recip_;
    std::vector<u64> g_;

    /** decompose() by exact u128 division, for shapes past 64 bits. */
    void decomposeWide(u64 x, i64 *digits) const;

    /** Balanced base-B digits of y in [0, B^levels], least
     *  significant last in storage order; the final carry wraps
     *  modulo B^levels (equivalent to subtracting q). A place value
     *  r >= B/2 becomes r - B and carries one; the carry is computed,
     *  not branched on, since random digits would mispredict half the
     *  time. */
    template <typename Y>
    void
    balancedDigits(Y y, i64 *digits) const
    {
        u64 mask = (1ULL << log_b_) - 1;
        u64 half_b = 1ULL << (log_b_ - 1);
        u64 carry = 0;
        for (u32 l = levels_; l-- > 0;) {
            u64 r = static_cast<u64>(y & mask) + carry;
            y >>= log_b_;
            carry = r >= half_b;
            digits[l] = static_cast<i64>(r) -
                        static_cast<i64>(carry << log_b_);
        }
    }
};

/** Most products gadgetMac() sums before one reduction. */
constexpr size_t kGadgetMacMaxRows = 16;

/**
 * dst[i] = (accumulate ? dst[i] : 0) + sum_{r < rows} a[r][i] * b[r][i]
 * mod q, for reduced operands. The sum stays unreduced in 128 bits and
 * is reduced once per coefficient. That is exact for rows <= 16 and
 * q < 2^61: 16 (q-1)^2 + (q-1) < 2^127, and reduce128 is exact on any
 * 128-bit input. So the result is bit-identical to a per-term mulAdd
 * chain.
 */
void gadgetMac(u64 *dst, const u64 *const *a, const u64 *const *b,
               size_t rows, size_t n, const Modulus &mod,
               bool accumulate);

} // namespace trinity

#endif // TRINITY_TFHE_GADGET_H
