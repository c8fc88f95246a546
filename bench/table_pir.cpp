/**
 * @file
 * OnionPIR-style PIR serving throughput vs database size. A client
 * mints one encrypted query per trial; the server answers it through
 * the full pipeline (oblivious expansion, RLWE->GSW conversion,
 * CommandStream first-dimension fold, CMux tree, modulus switch) and
 * every response is decrypt-verified against the addressed record, so
 * the rows double as an end-to-end correctness check. Reported per
 * engine (serial, threads, and simd-<level>: a one-thread pool at the
 * dispatched SIMD level): queries/sec and the one-time
 * database materialization cost, across a resident-size sweep that
 * tops out above 1 GB in the full run — plus one query priced on the
 * Trinity-TFHE machine model.
 *
 * Two size axes are reported honestly: "raw" is the packed plaintext
 * the tenant registered (records * N * logP / 8); "resident" is the
 * serving working set the fold actually streams (lb gadget-scaled
 * NTT-domain copies per record, 64-bit coefficients), the OnionPIR
 * preprocessed-database blow-up.
 *
 * Positional args: none. --smoke runs the tiny parameter set only.
 * TRINITY_BACKEND is ignored (the bench drives its own engine sweep).
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "accel/configs.h"
#include "backend/registry.h"
#include "backend/sim_backend.h"
#include "backend/simd_kernels.h"
#include "backend/thread_pool_backend.h"
#include "bench/bench_util.h"
#include "pir/pir.h"

using namespace trinity;
using namespace trinity::bench;

namespace {

struct EngineRun
{
    double qps = 0;
    double materializeMs = 0;
    u64 wrong = 0;
};

/** Materialize the serving form and answer @p nq queries on the
 *  active engine, decrypt-verifying every response. */
EngineRun
runEngine(pir::PirClient &client, const pir::PirQueryKeys &keys,
          const pir::PirDatabase &db, size_t nq)
{
    const pir::PirParams &pp = db.params();
    pir::PirEngine engine(client.sharedCtx(), pp);
    EngineRun res;

    Timer mt;
    pir::ResidentPirDb resident = materializePirDb(client.ctx(), db);
    res.materializeMs = mt.elapsedMs();

    // Queries spread across the index space, minted up front (the
    // context RNG is not thread-safe and keygen noise is the client's
    // business, not the serving path's).
    std::vector<size_t> indices;
    std::vector<pir::PirQuery> queries;
    for (size_t i = 0; i < nq; ++i) {
        size_t index = (i * (pp.records() / nq)) + i % pp.dim1;
        index %= pp.records();
        indices.push_back(index);
        queries.push_back(client.makeQuery(index));
    }

    Timer qt;
    std::vector<pir::PirResponse> resps;
    for (size_t i = 0; i < nq; ++i) {
        resps.push_back(engine.answer(resident, keys, queries[i]));
    }
    double ms = qt.elapsedMs();
    res.qps = 1000.0 * static_cast<double>(nq) / ms;

    for (size_t i = 0; i < nq; ++i) {
        if (client.decode(resps[i]) != db.record(indices[i])) {
            ++res.wrong;
        }
    }
    return res;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchArgs args = parseBenchArgs(argc, argv);

    // Sweep: resident serving set doubles per step; the full run's
    // last point crosses 1 GB (dim1=64, 2^7 columns, N=2048, lb=8).
    std::vector<pir::PirParams> sweep;
    if (args.smoke) {
        sweep.push_back(pir::PirParams::testTiny());
    } else {
        for (u32 d = 4; d <= 7; ++d) {
            sweep.push_back(pir::PirParams::standard().withShape(64, d));
        }
    }

    header(std::string("PIR serving throughput vs database size") +
           (args.smoke ? " (smoke)" : ""));
    note("every response decrypt-verified against the addressed "
         "record; qps is single-query closed loop (no pipelining "
         "across queries)");

    auto &breg = BackendRegistry::instance();
    std::string prev = activeBackend().name();
    u64 wrong = 0;
    double gateSerialQps = 0;
    double gateSimdQps = 0;
    const std::string simdRow =
        std::string("simd-") + simd::levelName(simd::resolveLevel());

    for (size_t s = 0; s < sweep.size(); ++s) {
        const pir::PirParams &pp = sweep[s];
        double residentMb =
            static_cast<double>(pp.residentBytes()) / 1e6;
        double rawMb = static_cast<double>(pp.rawBytes()) / 1e6;
        char tagBuf[64];
        std::snprintf(tagBuf, sizeof tagBuf, "%.0fMB", residentMb);
        std::string tag(tagBuf);

        pir::PirClient client(pp, 0xbead + s);
        pir::PirQueryKeys keys = client.makeQueryKeys();
        pir::PirDatabase db = pir::PirDatabase::random(pp, 77 + s);
        size_t nq = args.smoke ? 3 : (pp.records() >= 4096 ? 1 : 2);

        row("database", "pir.resident " + tag, residentMb, "MB",
            "measured");
        row("database", "pir.raw " + tag, rawMb, "MB", "measured");
        note("records=" + std::to_string(pp.records()) + " (" +
             std::to_string(pp.dim1) + " x 2^" +
             std::to_string(pp.gswDims) + "), N=" +
             std::to_string(pp.tfhe.bigN) + ", logP=" +
             std::to_string(pp.logP) + ", queries=" +
             std::to_string(nq));

        for (const std::string &name :
             {std::string("serial"), std::string("threads"), simdRow}) {
            if (name == simdRow) {
                breg.use(std::make_unique<ThreadPoolBackend>(1));
            } else {
                breg.select(name);
            }
            EngineRun res = runEngine(client, keys, db, nq);
            breg.select("serial");
            wrong += res.wrong;
            row(name, "pir.qps " + tag, res.qps, "q/s", "measured");
            row(name, "pir.materialize " + tag, res.materializeMs,
                "ms", "measured");
            if (s == 0) {
                if (name == "serial") {
                    gateSerialQps = res.qps;
                } else if (name == simdRow) {
                    gateSimdQps = res.qps;
                }
            }
        }
    }

    // Regression-gate rows (first sweep point): single-thread ratios
    // transfer across runners, so these are what CI diffs against the
    // committed baseline. The simd row carries the dispatched level's
    // name (the gate skips rows missing on either side).
    if (gateSerialQps > 0) {
        row("serial", "pir.qps.speedup", 1.0, "x", "measured");
        row(simdRow, "pir.qps.speedup", gateSimdQps / gateSerialQps, "x",
            "measured");
    }

    // One query priced on the Trinity-TFHE machine model: the fold's
    // DAG (decompose -> NTT -> MAC chains) plus expansion/CMux kernel
    // events, scheduled in virtual time with overlap.
    {
        const pir::PirParams &pp = sweep[0];
        pir::PirClient client(pp, 0xfeed);
        pir::PirQueryKeys keys = client.makeQueryKeys();
        pir::PirDatabase db = pir::PirDatabase::random(pp, 99);
        breg.use(std::make_unique<SimBackend>(breg.create("serial"),
                                              accel::trinityTfhe(4)));
        SimBackend &sb = *activeSimBackend();
        pir::PirEngine engine(client.sharedCtx(), pp);
        pir::ResidentPirDb resident =
            materializePirDb(client.ctx(), db);
        size_t index = pp.records() / 3;
        pir::PirQuery query = client.makeQuery(index);
        sb.ledger().reset();
        pir::PirResponse resp = engine.answer(resident, keys, query);
        double qps =
            1.0 / sb.seconds(sb.ledger().overlappedLatencyCycles());
        breg.select(prev);
        if (client.decode(resp) != db.record(index)) {
            ++wrong;
        }
        char tagBuf[64];
        std::snprintf(tagBuf, sizeof tagBuf, "%.0fMB",
                      static_cast<double>(pp.residentBytes()) / 1e6);
        row("Trinity-TFHE", std::string("pir.qps ") + tagBuf, qps,
            "q/s", "sim-priced");
    }

    row("all engines", "pir.wrong", static_cast<double>(wrong), "q",
        "measured");
    writeJsonReport(args, "table_pir");
    return wrong == 0 ? 0 : 1;
}
