/**
 * @file
 * OnionPIR-style single-server PIR on the TFHE layer.
 *
 * Query lifecycle (docs/PIR.md walks a full example):
 *
 *  client                         server
 *  ------                         ------
 *  makeQueryKeys() ------------>  (uploaded once per client)
 *  makeQuery(index) ----------->  PirEngine::answer():
 *                                   1. expandQuery: 1 ciphertext ->
 *                                      2^m entries (selection vector
 *                                      + GSW gadget slots)
 *                                   2. queryGsw: RLWE->GSW conversion
 *                                      of the per-dimension bits
 *                                   3. fold: gadget-decomposed
 *                                      external-product accumulation
 *                                      over the first dimension,
 *                                      recorded into a CommandStream
 *                                   4. CMux tree over the remaining
 *                                      dimensions
 *  decode(response) <-----------    5. modulus-switched response
 *
 * The query packs everything into ONE ring element: coefficient i <
 * dim1 carries Delta * inv(2^m) at the selected first-dimension row,
 * and coefficient dim1 + t*lb + l carries g_l * inv(2^m) * bit_t(col)
 * — after expansion (which multiplies by 2^m) entry i encrypts
 * exactly Delta * [i == row] and the gadget slots encrypt g_l * bit,
 * ready for GSW assembly.
 */

#ifndef TRINITY_PIR_PIR_H
#define TRINITY_PIR_PIR_H

#include "pir/database.h"
#include "pir/expand.h"

namespace trinity {
namespace pir {

/** One uploaded query: a single RLWE ciphertext. */
struct PirQuery
{
    GlweCiphertext ct;
};

/** Per-client key material the server holds (never the secret key):
 *  expansion Galois keys and the RLWE->GSW conversion keys. */
struct PirQueryKeys
{
    std::vector<GaloisKey> galois;     ///< galois[j]: level-j element
    std::vector<GgswCiphertext> conv;  ///< conv[j]: GGSW(-s_j), NTT
};

/** Modulus-switched response: k+1 components mod 2^logQs. */
struct PirResponse
{
    u32 logQs = 0;
    std::vector<std::vector<u64>> comps; ///< comps[k] is the body

    bool
    operator==(const PirResponse &o) const
    {
        return logQs == o.logQs && comps == o.comps;
    }
};

/** Client state: secret key, query encoding, response decoding. */
class PirClient
{
  public:
    PirClient(const PirParams &params, u64 seed);

    const PirParams &params() const { return params_; }

    /** Expansion + conversion keys for upload (one-time). */
    PirQueryKeys makeQueryKeys();

    /** Encrypt a query for record @p index in [0, records()). */
    PirQuery makeQuery(size_t index);

    /** Recover the record's N coefficients (values in [0, 2^logP)). */
    std::vector<u64> decode(const PirResponse &resp) const;

    // --- test/bench access ----------------------------------------------
    TfheContext &ctx() { return *ctx_; }
    std::shared_ptr<TfheContext> sharedCtx() const { return ctx_; }
    const GlweSecretKey &secretKey() const { return sk_; }

  private:
    PirParams params_;
    std::shared_ptr<TfheContext> ctx_;
    GlweSecretKey sk_;
};

/** Server-side query executor over one parameter set. */
class PirEngine
{
  public:
    PirEngine(std::shared_ptr<TfheContext> ctx, const PirParams &params);

    const PirParams &params() const { return params_; }

    /** Full pipeline: expansion, GSW assembly, fold, CMux tree,
     *  modulus switch. */
    PirResponse answer(const ResidentPirDb &db, const PirQueryKeys &keys,
                       const PirQuery &query) const;

    // --- pipeline stages (exposed for tests) -----------------------------

    /** Oblivious expansion into all 2^m entries. */
    std::vector<GlweCiphertext> expand(const PirQueryKeys &keys,
                                       const PirQuery &query) const;

    /** Assemble the GGSW for dimension bit @p t from the expanded
     *  gadget slots (RLWE->GSW conversion), NTT domain. */
    GgswCiphertext queryGsw(const PirQueryKeys &keys,
                            const std::vector<GlweCiphertext> &expanded,
                            u32 t) const;

    /**
     * First-dimension fold: gadget-decompose each selection entry and
     * external-product-accumulate it against every database row, one
     * output accumulator per column. Recorded into a CommandStream —
     * per-row decompose -> NTT chains feed per-chunk MAC commands, so
     * pipelined engines overlap row r+1's NTTs with row r's MACs and
     * the sim prices the DAG's makespan. Each chunk of 16
     * first-dimension rows accumulates into its own partial.
     */
    std::vector<GlweCiphertext>
    fold(const ResidentPirDb &db,
         const std::vector<GlweCiphertext> &expanded) const;

    /** Round every component from q down to 2^logQs. */
    PirResponse modSwitch(const GlweCiphertext &ct) const;

  private:
    std::shared_ptr<TfheContext> ctx_;
    PirParams params_;
};

} // namespace pir
} // namespace trinity

#endif // TRINITY_PIR_PIR_H
