#include "runtime/key_store.h"

#include <algorithm>

#include "common/logging.h"

namespace trinity {
namespace runtime {

// ------------------------------------------------------- tenant material

TenantKeyMaterial
TenantKeyMaterial::generate(TfheContext &ctx, TfheBootstrapper &boot)
{
    TenantKeyMaterial m;
    m.lweKey = ctx.makeLweKey();
    GlweSecretKey glwe = ctx.makeGlweKey();
    // Stored form: coefficient domain. The NTT sweep is deferred to
    // the keystore's first-use materialization.
    m.bskStored = boot.makeBootstrapKey(m.lweKey, glwe, false);
    m.ksk = boot.makeKeySwitchKey(glwe, m.lweKey);
    m.signTv = boot.signTestVector(ctx.params().q / 8);
    return m;
}

// ------------------------------------------------------- ingress checks

namespace {

/** Whether @p x has N coefficients mod q, each below q. */
bool
inRing(const Poly &x, const TfheParams &p)
{
    return x.coeffs().size() == p.bigN && x.q() == p.q &&
           allReduced(x.coeffs(), p.q);
}

/** The first part of @p m that does not fit @p p, or "" when it all
 *  does. PBS indexes the keys without bounds checks, and the
 *  keyswitch's i64 bound needs every ksk coefficient below q. */
std::string
keyMaterialFault(const TenantKeyMaterial &m, const TfheParams &p)
{
    const std::vector<std::vector<LweCiphertext>> &ksk = m.ksk.rows;
    if (ksk.size() != p.k * p.bigN) {
        return "keyswitch key has " + std::to_string(ksk.size()) +
               " rows, parameter set needs k*N=" +
               std::to_string(p.k * p.bigN);
    }
    for (const std::vector<LweCiphertext> &levels : ksk) {
        if (levels.size() != p.lk) {
            return "keyswitch key row of " + std::to_string(levels.size()) +
                   " levels, parameter set has lk=" + std::to_string(p.lk);
        }
        for (const LweCiphertext &ct : levels) {
            if (ct.a.size() != p.nLwe || ct.b >= p.q ||
                !allReduced(ct.a, p.q)) {
                return "keyswitch key ciphertext is not n_lwe=" +
                       std::to_string(p.nLwe) +
                       " mask coefficients and a body, each below q";
            }
        }
    }
    const std::vector<GgswCiphertext> &bsk = m.bskStored.bsk;
    if (bsk.size() != p.nLwe) {
        return "bootstrap key has " + std::to_string(bsk.size()) +
               " GGSWs, parameter set has n_lwe=" + std::to_string(p.nLwe);
    }
    for (const GgswCiphertext &g : bsk) {
        if (g.rows.size() != p.extRows()) {
            return "bootstrap key GGSW of " + std::to_string(g.rows.size()) +
                   " rows, parameter set needs (k+1)*lb=" +
                   std::to_string(p.extRows());
        }
        for (const GlweCiphertext &row : g.rows) {
            if (row.a.size() != p.k) {
                return "bootstrap key GLWE row of " +
                       std::to_string(row.a.size()) +
                       " mask polynomials, parameter set has k=" +
                       std::to_string(p.k);
            }
            for (size_t c = 0; c <= p.k; ++c) {
                const Poly &x = glweComp(row, c);
                if (!inRing(x, p) ||
                    (g.inEval && x.domain() != Domain::Eval)) {
                    return "bootstrap key polynomial is not N=" +
                           std::to_string(p.bigN) +
                           " coefficients mod q, each below q, in the "
                           "GGSW's domain";
                }
            }
        }
    }
    if (!isTestVector(m.signTv, p)) {
        return "sign LUT is not a coefficient-domain polynomial of N=" +
               std::to_string(p.bigN) + " coefficients, each below q";
    }
    return "";
}

} // namespace

bool
allReduced(const std::vector<u64> &v, u64 q)
{
    return std::all_of(v.begin(), v.end(), [q](u64 x) { return x < q; });
}

bool
isTestVector(const Poly &tv, const TfheParams &p)
{
    return tv.domain() == Domain::Coeff && inRing(tv, p);
}

// ----------------------------------------------------------- byte sizing

namespace {

size_t
bskBytesOf(const TfheBootstrapKey &bsk)
{
    size_t bytes = 0;
    for (const GgswCiphertext &g : bsk.bsk) {
        for (const GlweCiphertext &row : g.rows) {
            for (const Poly &aj : row.a) {
                bytes += aj.coeffs().size() * sizeof(u64);
            }
            bytes += row.b.coeffs().size() * sizeof(u64);
        }
    }
    return bytes;
}

size_t
kskBytesOf(const TfheKeySwitchKey &ksk)
{
    size_t bytes = 0;
    for (const auto &levels : ksk.rows) {
        for (const LweCiphertext &ct : levels) {
            bytes += (ct.a.size() + 1) * sizeof(u64);
        }
    }
    return bytes;
}

} // namespace

size_t
KeyStore::residentBytesFor(const TfheParams &p)
{
    size_t bsk = p.nLwe * p.extRows() * (p.k + 1) * p.bigN * sizeof(u64);
    size_t ksk =
        p.k * p.bigN * p.lk * (p.nLwe + 1) * sizeof(u64);
    size_t tv = p.bigN * sizeof(u64);
    return bsk + ksk + tv;
}

// -------------------------------------------------------------- KeyStore

KeyStore::KeyStore(const TfheContext &ctx, Provider provider,
                   size_t budget, std::string label)
    : ResidentCache(budget, std::move(label)), ctx_(ctx),
      provider_(std::move(provider))
{
    trinity_assert(provider_ != nullptr,
                   "KeyStore needs a tenant-material provider");
}

std::shared_ptr<const ResidentKeys>
KeyStore::materialize(TenantId tenant)
{
    const TenantKeyMaterial &m = provider_(tenant);
    std::string fault = keyMaterialFault(m, ctx_.params());
    if (!fault.empty()) {
        throw InvalidKeyMaterial("tenant " + std::to_string(tenant) +
                                 ": " + fault);
    }
    auto keys = std::make_shared<ResidentKeys>();
    // Deep-copy the stored (coefficient-domain) bootstrap key and run
    // the forward-NTT sweep — the lazy materialization this store
    // exists to amortize. If a provider hands out keys already in the
    // NTT domain, ggswToEval is a no-op and only the copy is paid.
    keys->bsk.bsk = m.bskStored.bsk;
    for (GgswCiphertext &g : keys->bsk.bsk) {
        ctx_.ggswToEval(g);
    }
    keys->ksk = m.ksk;
    keys->signTv = m.signTv;
    keys->bytes = bskBytesOf(keys->bsk) + kskBytesOf(keys->ksk) +
                  keys->signTv.coeffs().size() * sizeof(u64);
    return keys;
}

} // namespace runtime
} // namespace trinity
