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
     * Signed decomposition of a residue x into digits d_l in
     * [-B/2, B/2) so that sum d_l * g_l ~ x. Full-width gadgets
     * (logB * levels covering all of q) leave only the per-level
     * rounding of the prime; truncated gadgets additionally carry a
     * q / B^levels approximation term.
     */
    void decompose(u64 x, i64 *digits) const;

    /**
     * Decompose @p n coefficients of @p src into levels() residue
     * limbs: limbs[l][i] = d_l(src[i]) mod q.
     */
    void decomposePoly(const u64 *src, size_t n, Poly *limbs) const;

  private:
    u64 q_;
    u32 log_b_;
    u32 levels_;
    std::vector<u64> g_;
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
