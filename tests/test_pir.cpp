/**
 * @file
 * PIR subsystem tests: the engine's gadget-shape check, keyswitched
 * automorphisms, oblivious query expansion (exact one-hot for random
 * indices), RLWE->GSW conversion, CMux-tree-vs-direct-index
 * equivalence, the end-to-end answer/decode path on every engine
 * (bit-identical serial vs threads vs sim), the weight-accounted
 * database residency cache, and malformed queries refused at submit
 * (one case per check, plus a seeded fuzz over every check).
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "backend/registry.h"
#include "backend/thread_pool_backend.h"
#include "common/primes.h"
#include "common/rng.h"
#include "pir/database.h"
#include "pir/pir.h"
#include "runtime/pir_server.h"
#include "tfhe/gadget.h"

namespace trinity {
namespace pir {
namespace {

/** Engines every test host can run. */
std::vector<std::string>
engines()
{
    return {"serial", "threads", "sim"};
}

/** Activate an engine; "threads" gets an explicit 4-worker pool so
 *  the pipelined executor is exercised even on single-core hosts. */
void
activateEngine(const std::string &engine)
{
    auto &reg = BackendRegistry::instance();
    if (engine == "threads") {
        reg.use(std::make_unique<ThreadPoolBackend>(4));
    } else {
        reg.select(engine);
    }
}

struct SerialGuard
{
    ~SerialGuard() { BackendRegistry::instance().select("serial"); }
};

u64
centeredAbs(const Modulus &mod, u64 x)
{
    i64 c = centeredRep(x, mod.value());
    return static_cast<u64>(c < 0 ? -c : c);
}

// ----------------------------------------------------------- engine setup

/** The engine's context supplies both gadgets, so a context that
 *  differs from the params in any gadget field must be refused. */
TEST(PirEngineDeathTest, RejectsContextWithAnotherGadgetShape)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    PirParams pp = PirParams::testTiny();
    std::vector<TfheParams> others(5, pp.tfhe);
    others[0].k = 2;
    others[1].lb -= 1;
    others[2].logBg += 1;
    others[3].lk -= 1;
    others[4].logBks -= 1;
    for (const TfheParams &other : others) {
        auto ctx = std::make_shared<TfheContext>(other, 1);
        EXPECT_DEATH({ PirEngine engine(ctx, pp); },
                     "engine context/parameter mismatch");
    }
}

// --------------------------------------------------- keyswitched automorphism

TEST(PirGalois, KeyswitchTracksAutomorphism)
{
    SerialGuard guard;
    PirParams pp = PirParams::testTiny();
    PirClient client(pp, 11);
    TfheContext &ctx = client.ctx();
    const TfheParams &p = ctx.params();
    const Modulus &mod = ctx.modulus();

    Rng rng(12);
    Poly msg(p.bigN, p.q);
    for (size_t i = 0; i < p.bigN; ++i) {
        msg[i] = mod.mul(rng.uniform(1ULL << pp.logP),
                         pp.delta());
    }
    GlweCiphertext ct = ctx.glweEncrypt(msg, client.secretKey());

    for (u32 j = 0; j < pp.expansionLevels(); ++j) {
        u64 g = expansionGaloisElement(p.bigN, j);
        GaloisKey key = makeGaloisKey(ctx, client.secretKey(), g);
        GlweCiphertext out = applyGalois(ctx, key, ct);
        Poly want = msg.automorphism(g);
        Poly got = ctx.glwePhase(out, client.secretKey());
        for (size_t i = 0; i < p.bigN; ++i) {
            EXPECT_LT(centeredAbs(mod, mod.sub(got[i], want[i])),
                      pp.delta() / 2)
                << "g=" << g << " coeff " << i;
        }
    }
}

// ------------------------------------------------------------- expansion

TEST(PirExpand, DecryptsToExactOneHot)
{
    SerialGuard guard;
    PirParams pp = PirParams::testTiny();
    PirClient client(pp, 21);
    TfheContext &ctx = client.ctx();
    const Modulus &mod = ctx.modulus();
    PirQueryKeys keys = client.makeQueryKeys();
    PirEngine engine(client.sharedCtx(), pp);
    Gadget gadget(pp.tfhe.q, pp.tfhe.logBg, pp.tfhe.lb);

    Rng rng(22);
    for (int trial = 0; trial < 3; ++trial) {
        size_t index = rng.uniform(pp.records());
        size_t row = index % pp.dim1;
        size_t col = index / pp.dim1;
        PirQuery query = client.makeQuery(index);
        std::vector<GlweCiphertext> expanded =
            engine.expand(keys, query);
        ASSERT_EQ(expanded.size(),
                  size_t(1) << pp.expansionLevels());

        // Selection slots: Delta at exactly the queried row.
        for (size_t i = 0; i < pp.dim1; ++i) {
            Poly ph = ctx.glwePhase(expanded[i], client.secretKey());
            u64 want = (i == row) ? pp.delta() : 0;
            for (size_t c = 0; c < pp.tfhe.bigN; ++c) {
                u64 expect = (c == 0) ? want : 0;
                EXPECT_LT(centeredAbs(mod, mod.sub(ph[c], expect)),
                          pp.delta() / 2)
                    << "entry " << i << " coeff " << c;
            }
        }
        // GSW slots: g_l * bit_t(col), exact up to expansion noise.
        for (u32 t = 0; t < pp.gswDims; ++t) {
            u64 bit = (col >> t) & 1;
            for (u32 l = 0; l < pp.tfhe.lb; ++l) {
                const GlweCiphertext &e =
                    expanded[pp.dim1 + t * pp.tfhe.lb + l];
                Poly ph = ctx.glwePhase(e, client.secretKey());
                u64 want = bit ? gadget.element(l) : 0;
                EXPECT_LT(centeredAbs(mod, mod.sub(ph[0], want)),
                          pp.delta() / 2)
                    << "t=" << t << " l=" << l;
            }
        }
    }
}

// ------------------------------------------------------- RLWE->GSW + CMux

TEST(PirGsw, ConvertedGswDrivesCmux)
{
    SerialGuard guard;
    PirParams pp = PirParams::testTiny();
    PirClient client(pp, 31);
    TfheContext &ctx = client.ctx();
    const Modulus &mod = ctx.modulus();
    PirQueryKeys keys = client.makeQueryKeys();
    PirEngine engine(client.sharedCtx(), pp);

    size_t col = 0b10 % (size_t(1) << pp.gswDims);
    size_t index = col * pp.dim1 + 3;
    PirQuery query = client.makeQuery(index);
    std::vector<GlweCiphertext> expanded = engine.expand(keys, query);

    Poly m0(pp.tfhe.bigN, pp.tfhe.q), m1(pp.tfhe.bigN, pp.tfhe.q);
    m0[0] = mod.mul(1, pp.delta());
    m1[0] = mod.mul(2, pp.delta());
    GlweCiphertext c0 = ctx.glweTrivial(m0);
    GlweCiphertext c1 = ctx.glweTrivial(m1);

    for (u32 t = 0; t < pp.gswDims; ++t) {
        u64 bit = (col >> t) & 1;
        GgswCiphertext gsw = engine.queryGsw(keys, expanded, t);
        GlweCiphertext sel = ctx.cmux(gsw, c0, c1);
        Poly ph = ctx.glwePhase(sel, client.secretKey());
        u64 want = mod.mul(bit ? 2 : 1, pp.delta());
        EXPECT_LT(centeredAbs(mod, mod.sub(ph[0], want)),
                  pp.delta() / 2)
            << "t=" << t << " bit=" << bit;
    }
}

// --------------------------------------------------------------- end to end

TEST(PirE2e, AnswerMatchesDirectIndex)
{
    SerialGuard guard;
    PirParams pp = PirParams::testTiny();
    PirClient client(pp, 41);
    PirQueryKeys keys = client.makeQueryKeys();
    PirEngine engine(client.sharedCtx(), pp);
    PirDatabase db = PirDatabase::random(pp, 42);
    ResidentPirDb resident = materializePirDb(client.ctx(), db);

    Rng rng(43);
    std::set<size_t> indices = {0, pp.records() - 1};
    while (indices.size() < 5) {
        indices.insert(rng.uniform(pp.records()));
    }
    for (size_t index : indices) {
        PirQuery query = client.makeQuery(index);
        PirResponse resp = engine.answer(resident, keys, query);
        EXPECT_EQ(client.decode(resp), db.record(index))
            << "index " << index;
    }
}

TEST(PirE2e, BitIdenticalAcrossEngines)
{
    SerialGuard guard;
    PirParams pp = PirParams::testTiny();
    PirClient client(pp, 51);
    PirQueryKeys keys = client.makeQueryKeys();
    PirEngine engine(client.sharedCtx(), pp);
    PirDatabase db = PirDatabase::random(pp, 52);
    size_t index = pp.records() / 2 + 1;
    PirQuery query = client.makeQuery(index);

    PirResponse reference;
    bool haveReference = false;
    for (const std::string &name : engines()) {
        activateEngine(name);
        // Materialize per engine too: the serving form must also be
        // engine-independent.
        ResidentPirDb resident = materializePirDb(client.ctx(), db);
        PirResponse resp = engine.answer(resident, keys, query);
        BackendRegistry::instance().select("serial");
        EXPECT_EQ(client.decode(resp), db.record(index))
            << "engine " << name;
        if (!haveReference) {
            reference = resp;
            haveReference = true;
        } else {
            EXPECT_TRUE(resp == reference)
                << "engine " << name
                << " response differs from serial";
        }
    }
}

// ---------------------------------------------------------------- residency

TEST(PirDbStoreTest, LruEvictionAndPinning)
{
    SerialGuard guard;
    PirParams pp = PirParams::testTiny();
    PirClient client(pp, 61);
    std::vector<PirDatabase> dbs;
    for (u64 t = 0; t < 3; ++t) {
        dbs.push_back(PirDatabase::random(pp, 100 + t));
    }
    size_t perDb = pp.residentBytes();
    // Budget fits exactly two resident databases.
    PirDbStore store(
        client.ctx(), [&](PirTenantId t) -> const PirDatabase & {
            return dbs[t];
        },
        2 * perDb, "pir_dbstore_test");

    auto a = store.acquire(0);
    auto b = store.acquire(1);
    EXPECT_EQ(store.stats().misses, 2u);
    EXPECT_EQ(store.residentBytes(), 2 * perDb);

    // Touch 0, then fault 2: LRU should evict 1.
    store.acquire(0);
    EXPECT_EQ(store.stats().hits, 1u);
    auto c = store.acquire(2);
    EXPECT_TRUE(store.resident(0));
    EXPECT_FALSE(store.resident(1));
    EXPECT_TRUE(store.resident(2));
    EXPECT_EQ(store.stats().evictions, 1u);

    // The pinned pointer outlives eviction.
    EXPECT_EQ(b->polys.size(),
              pp.records() * pp.tfhe.lb);
    // Re-acquire of the evicted tenant is a fresh materialization.
    auto b2 = store.acquire(1);
    EXPECT_EQ(store.stats().materializations, 4u);
    EXPECT_NE(b.get(), b2.get());

    EXPECT_TRUE(store.evict(2));
    EXPECT_FALSE(store.resident(2));
    EXPECT_FALSE(store.evict(2));
}

// ------------------------------------------------------------------ server

TEST(PirServerTest, ConcurrentQueriesDecodeCorrectly)
{
    SerialGuard guard;
    PirParams pp = PirParams::testTiny();
    PirClient client(pp, 71);
    PirQueryKeys keys = client.makeQueryKeys();
    PirDatabase db = PirDatabase::random(pp, 72);
    PirDbStore store(
        client.ctx(),
        [&](PirTenantId) -> const PirDatabase & { return db; }, 0,
        "pir_server_test_store");

    runtime::ServerOptions opts;
    opts.label = "pir_server_test";
    opts.maxBatch = 4;
    opts.maxQueue = 64;
    runtime::PirServer server(
        client.sharedCtx(), pp, store,
        [&](PirTenantId) -> const PirQueryKeys & { return keys; },
        opts);

    std::vector<size_t> indices;
    std::vector<std::future<PirResponse>> futs;
    Rng rng(73);
    for (int i = 0; i < 8; ++i) {
        size_t index = rng.uniform(pp.records());
        indices.push_back(index);
        futs.push_back(
            server.submit(i % 2, client.makeQuery(index)));
    }
    for (size_t i = 0; i < futs.size(); ++i) {
        PirResponse resp = futs[i].get();
        EXPECT_EQ(client.decode(resp), db.record(indices[i]))
            << "query " << i;
    }
    runtime::ServerStats st = server.stats();
    EXPECT_EQ(st.requests, 8u);
    EXPECT_EQ(st.rejected, 0u);
    EXPECT_GE(st.batches, 1u);
}

TEST(PirServerTest, MalformedQueryIsRejectedAtSubmit)
{
    SerialGuard guard;
    PirParams pp = PirParams::testTiny();
    PirClient client(pp, 81);
    PirQueryKeys keys = client.makeQueryKeys();
    PirDatabase db = PirDatabase::random(pp, 82);
    PirDbStore store(
        client.ctx(),
        [&](PirTenantId) -> const PirDatabase & { return db; }, 0,
        "pir_server_invalid_store");
    runtime::ServerOptions opts;
    opts.label = "pir_server_invalid";
    opts.maxWaitUs = 100;
    runtime::PirServer server(
        client.sharedCtx(), pp, store,
        [&](PirTenantId) -> const PirQueryKeys & { return keys; },
        opts);

    std::vector<PirQuery> bad(4, client.makeQuery(0));
    bad[0].ct.a.clear();                               // no mask poly
    bad[1].ct.b = Poly(pp.tfhe.bigN / 2, pp.tfhe.q);   // short body
    bad[2].ct.a[0][5] = pp.tfhe.q;                     // unreduced
    bad[3].ct.b.setDomain(Domain::Eval);               // wrong domain
    for (size_t i = 0; i < bad.size(); ++i) {
        EXPECT_THROW(server.submit(0, bad[i]).get(),
                     runtime::InvalidRequest)
            << "query " << i;
    }
    size_t index = 5;
    EXPECT_EQ(client.decode(server.submit(0, client.makeQuery(index)).get()),
              db.record(index));
    EXPECT_EQ(server.stats().requests, 1u);
}

TEST(PirServerTest, SeededSubmitFuzzFailsOnlyMalformed)
{
    SerialGuard guard;
    PirParams pp = PirParams::testTiny();
    const TfheParams &p = pp.tfhe;
    PirClient client(pp, 91);
    PirQueryKeys keys = client.makeQueryKeys();
    PirDatabase db = PirDatabase::random(pp, 92);
    PirDbStore store(
        client.ctx(),
        [&](PirTenantId) -> const PirDatabase & { return db; }, 0,
        "pir_server_fuzz_store");
    runtime::ServerOptions opts;
    opts.label = "pir_server_fuzz";
    opts.maxBatch = 16;
    opts.maxWaitUs = 20000;
    runtime::PirServer server(
        client.sharedCtx(), pp, store,
        [&](PirTenantId) -> const PirQueryKeys & { return keys; },
        opts);
    std::vector<u64> primes = findNttPrimes(40, 2 * p.bigN, 2);
    u64 otherQ = primes[0] != p.q ? primes[0] : primes[1];

    // Each malformed query is a healthy tenant-1 query with exactly one
    // mutation; every sixteenth submit is a healthy query of tenant 0
    // or 2.
    constexpr size_t kMalformed = 64;
    constexpr size_t kKinds = 5;
    Rng rng(0xf1a2);
    std::vector<PirTenantId> healthyTenants;
    std::vector<PirQuery> healthy;
    std::vector<std::future<PirResponse>> good;
    std::vector<std::future<PirResponse>> bad;
    PirQuery base = client.makeQuery(3);
    for (size_t i = 0; i < kMalformed; ++i) {
        if (i % 16 == 0) {
            PirTenantId t = healthy.size() % 2 == 0 ? 0 : 2;
            healthyTenants.push_back(t);
            healthy.push_back(
                client.makeQuery(rng.uniform(pp.records())));
            good.push_back(server.submit(t, healthy.back()));
        }
        PirQuery q = base;
        // The polynomial a single-poly mutation hits: b or a mask poly.
        auto pickPoly = [&]() -> Poly & {
            size_t which = rng.uniform(p.k + 1);
            return which == p.k ? q.ct.b : q.ct.a[which];
        };
        switch (i % kKinds) {
        case 0: // k-1 or k+1 mask polynomials
            if (rng.uniform(2) == 0) {
                q.ct.a.pop_back();
            } else {
                q.ct.a.push_back(q.ct.b);
            }
            break;
        case 1: { // N/2 or N+1 coefficients
            size_t sizes[] = {p.bigN / 2, p.bigN + 1};
            pickPoly().coeffs().resize(sizes[rng.uniform(2)]);
            break;
        }
        case 2: // another modulus
            pickPoly() = Poly(p.bigN, otherQ);
            break;
        case 3: // the Eval domain
            pickPoly().setDomain(Domain::Eval);
            break;
        case 4: // one coefficient outside [0, q)
            pickPoly().coeffs()[rng.uniform(p.bigN)] =
                p.q + rng.next() % (0 - p.q); // in [q, 2^64)
            break;
        }
        bad.push_back(server.submit(1, q));
    }
    ASSERT_GE(healthy.size(), 4u);

    for (size_t i = 0; i < bad.size(); ++i) {
        EXPECT_THROW(bad[i].get(), runtime::InvalidRequest)
            << "malformed " << i;
    }
    PirEngine direct(client.sharedCtx(), pp);
    ResidentPirDb resident = materializePirDb(client.ctx(), db);
    for (size_t i = 0; i < good.size(); ++i) {
        EXPECT_TRUE(good[i].get() ==
                    direct.answer(resident, keys, healthy[i]))
            << "healthy " << i;
    }
    EXPECT_EQ(server.stats().requests, good.size());
    EXPECT_FALSE(store.resident(1)); // refused before any db fault

    // The server keeps serving after the burst.
    size_t index = 6;
    EXPECT_EQ(client.decode(server.submit(0, client.makeQuery(index)).get()),
              db.record(index));
    EXPECT_EQ(server.stats().requests, good.size() + 1);
}

} // namespace
} // namespace pir
} // namespace trinity
