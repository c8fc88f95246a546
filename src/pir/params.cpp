#include "pir/params.h"

#include "common/logging.h"
#include "common/primes.h"
#include "tfhe/gadget.h"

namespace trinity {
namespace pir {

namespace {

TfheParams
pirRing(const char *name, size_t big_n)
{
    TfheParams p;
    p.name = name;
    p.bigN = big_n;
    p.k = 1;
    p.nLwe = 1; // PIR never touches the LWE layer
    // The CMux tree multiplies the converted GSW rows' noise by
    // ~sqrt(N * extRows) * Bg/2, and those rows already carry the
    // expansion + conversion noise — a ~2^60 modulus buys the ~20 bits
    // of headroom that chain needs at N = 2048 (a 32-bit ring fails
    // empirically: the tree lands a few bits above Delta/2).
    p.q = nearestNttPrime(1ULL << 60, 2 * big_n);
    // External-product gadget: 40 digit bits against the top of q.
    // The q/Bg^lb ~ 2^20 truncation rides the fold as eps (*) s (*)
    // pt — a double convolution whose tail needs ~9 bits of slack
    // under Delta/2 at N = 2048 (32 covered bits fail empirically);
    // keeping lb at 8 keeps the resident database and the fold's MAC
    // work at 8 rows per record rather than a full-width 12-15.
    p.lb = 8;
    p.logBg = 5;
    // Galois-keyswitch gadget: full-width (15 * 4 = 60 bits, exact).
    // The expansion applies ~2^m keyswitches whose noise compounds
    // through the doubling walk and then feeds the GSW conversion, so
    // a truncated KS gadget's rounding term (amplified by sigma(s))
    // is the one approximation this pipeline cannot afford.
    p.lk = 15;
    p.logBks = 4;
    return p;
}

} // namespace

u32
PirParams::expansionLevels() const
{
    size_t need = queryCoeffs();
    u32 m = 0;
    while ((size_t(1) << m) < need) {
        ++m;
    }
    return m;
}

u64
PirParams::delta() const
{
    u64 p = 1ULL << logP;
    return (tfhe.q + p / 2) / p;
}

PirParams
PirParams::standard()
{
    PirParams p;
    p.tfhe = pirRing("pir-std", 2048);
    p.dim1 = 64;
    p.gswDims = 3;
    p.logP = 8;
    p.logQs = 20;
    p.validate();
    return p;
}

PirParams
PirParams::withShape(size_t dim1, u32 gsw_dims)
{
    PirParams p = standard();
    p.dim1 = dim1;
    p.gswDims = gsw_dims;
    p.validate();
    return p;
}

PirParams
PirParams::testTiny()
{
    PirParams p;
    p.tfhe = pirRing("pir-tiny", 256);
    p.dim1 = 8;
    p.gswDims = 2;
    p.logP = 4;
    p.logQs = 20;
    p.validate();
    return p;
}

void
PirParams::validate() const
{
    trinity_assert(tfhe.q != 0, "PirParams ring not initialized");
    trinity_assert(tfhe.k == 1, "PIR assumes k = 1 (RLWE)");
    trinity_assert(dim1 >= 2 && (dim1 & (dim1 - 1)) == 0,
                   "dim1 must be a power of two >= 2 (got %zu)", dim1);
    trinity_assert(logP >= 1 && logP <= 8,
                   "logP must be in [1, 8] (records pack as bytes)");
    trinity_assert(logQs >= logP + 2 && logQs <= 32,
                   "logQs out of range");
    trinity_assert((size_t(1) << expansionLevels()) <= tfhe.bigN,
                   "query does not fit one ring element: dim1 + "
                   "gswDims*lb = %zu needs 2^m > N = %zu",
                   queryCoeffs(), tfhe.bigN);
    trinity_assert(tfhe.extRows() <= kGadgetMacMaxRows,
                   "fold/CMux gadgetMac sums at most %zu rows",
                   kGadgetMacMaxRows);
}

} // namespace pir
} // namespace trinity
