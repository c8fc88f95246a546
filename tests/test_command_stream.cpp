/**
 * @file
 * Command-stream executor tests: bit-exactness of recorded-stream vs
 * blocking execution on every engine (serial/threads/sim),
 * out-of-order-completion stress over randomized dependency graphs,
 * protocol death tests, the coefficient-tiled NTT path of the thread
 * pool, and the sim ledger's overlapped-makespan bracketing for a
 * fused PBS batch.
 */

#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "accel/configs.h"
#include "backend/command_stream.h"
#include "backend/registry.h"
#include "backend/sim_backend.h"
#include "backend/thread_pool_backend.h"
#include "common/primes.h"
#include "common/rng.h"
#include "runtime/batched_pbs.h"
#include "sim/machine.h"
#include "workload/tfhe_ops.h"

namespace trinity {
namespace {

/** Temporarily force an env var, restoring the prior state. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        const char *old = std::getenv(name);
        hadOld_ = old != nullptr;
        if (hadOld_) {
            old_ = old;
        }
        ::setenv(name, value, 1);
    }
    ~ScopedEnv()
    {
        if (hadOld_) {
            ::setenv(name_, old_.c_str(), 1);
        } else {
            ::unsetenv(name_);
        }
    }

  private:
    const char *name_;
    bool hadOld_ = false;
    std::string old_;
};

/**
 * A deterministic workload recorded against externally owned buffers:
 * a mix of NTT round-trips, element-wise chains, mulAdd accumulation,
 * automorphism, scalar multiply, and raw tasks, with genuine
 * dependencies (later commands read earlier results). Recording it on
 * any engine must produce the bytes the serial blocking path does.
 */
struct Workload
{
    size_t n = 1024;
    Modulus mod;
    std::shared_ptr<const NttTable> table;
    std::vector<std::vector<u64>> buf; ///< 6 buffers of length n

    explicit Workload(u64 seed)
        : mod(findNttPrimes(40, 2 * n, 1)[0]),
          table(NttTableCache::get(n, mod.value()))
    {
        Rng rng(seed);
        buf.resize(6);
        for (auto &b : buf) {
            b.resize(n);
            for (auto &x : b) {
                x = rng.uniform(mod.value());
            }
        }
    }

    void
    record(CommandStream &s)
    {
        u64 *b0 = buf[0].data();
        u64 *b1 = buf[1].data();
        u64 *b2 = buf[2].data();
        u64 *b3 = buf[3].data();
        u64 *b4 = buf[4].data();
        u64 *b5 = buf[5].data();
        // b0, b1 to the NTT domain.
        Job ntt = s.nttForward({{b0, table.get()}, {b1, table.get()}});
        // b2 = b0 * b1 (pointwise, NTT domain).
        Job mul =
            s.pointwiseMul({{b2, b0, b1, &mod, n}}, {ntt});
        // b3 += b2 * b0 twice, chained (RMW on b3).
        Job ma1 = s.mulAdd({{b3, b2, b0, &mod, n}}, {mul});
        Job ma2 = s.mulAdd({{b3, b2, b1, &mod, n}}, {ma1});
        // b2 back to coefficients; fence pins the whole prefix.
        Job intt = s.nttInverse({{b2, table.get()}}, {mul, ma2});
        Event fence = s.fence();
        // b4 = automorphism(b2), b5 = 3 * b4, then a raw task folds
        // b3 into b5 (disjoint chunks per index).
        Job aut = s.automorphism({{b4, b2, &mod, n, 5}}, {intt, fence});
        Job sc = s.scalarMul({{b5, b4, 3, &mod, n}}, {aut});
        s.task(
            4,
            [this, b5, b3](size_t i) {
                size_t chunk = n / 4;
                for (size_t c = i * chunk; c < (i + 1) * chunk; ++c) {
                    b5[c] = mod.add(b5[c], b3[c]);
                }
            },
            {sc, ma2});
        // b0/b1 stay in the NTT domain — also part of the output.
    }

    std::vector<u64>
    flat() const
    {
        std::vector<u64> out;
        for (const auto &b : buf) {
            out.insert(out.end(), b.begin(), b.end());
        }
        return out;
    }
};

/** Activate an engine; "threads" gets an explicit 4-worker pool so
 *  the pipelined executor is exercised even on single-core hosts
 *  (the default constructor sizes to hardware concurrency), and
 *  "threads-1" a one-thread pool (inline batches, eager streams). */
void
activateEngine(const std::string &engine)
{
    auto &reg = BackendRegistry::instance();
    if (engine == "threads") {
        reg.use(std::make_unique<ThreadPoolBackend>(4));
    } else if (engine == "threads-1") {
        reg.use(std::make_unique<ThreadPoolBackend>(1));
    } else {
        reg.select(engine);
    }
}

std::vector<u64>
runWorkloadOn(const std::string &engine, u64 seed)
{
    activateEngine(engine);
    Workload w(seed);
    auto stream = activeBackend().newStream();
    w.record(*stream);
    stream->submit();
    stream->wait();
    BackendRegistry::instance().select("serial");
    return w.flat();
}

TEST(CommandStream, RecordedStreamBitExactAcrossEngines)
{
    // Blocking reference: the same ops issued eagerly on serial (an
    // EagerStream is by construction the blocking path).
    std::vector<u64> ref = runWorkloadOn("serial", 99);
    for (const char *engine : {"threads", "sim"}) {
        EXPECT_EQ(runWorkloadOn(engine, 99), ref) << engine;
    }
}

/**
 * Randomized-DAG stress: many commands with random dependency edges,
 * where each command's declared deps are exactly the hazards it has
 * (last writer of its sources, last toucher of its destination). Any
 * dependency-respecting execution order — including the thread pool's
 * out-of-order completion — must reproduce the serial record-order
 * result bit for bit.
 */
TEST(CommandStream, RandomDagStressMatchesSerial)
{
    constexpr size_t kBufs = 8;
    constexpr size_t kCmds = 120;
    constexpr size_t kLen = 512;
    Modulus mod(findNttPrimes(30, 2 * kLen, 1)[0]);

    auto run = [&](const std::string &engine, u64 seed) {
        activateEngine(engine);
        Rng rng(seed);
        std::vector<std::vector<u64>> buf(kBufs);
        for (auto &b : buf) {
            b.resize(kLen);
            for (auto &x : b) {
                x = rng.uniform(mod.value());
            }
        }
        std::vector<Job> lastWriter(kBufs);
        std::vector<std::vector<Job>> readersSince(kBufs);
        auto stream = activeBackend().newStream();
        for (size_t c = 0; c < kCmds; ++c) {
            size_t a = rng.uniform(kBufs);
            size_t b = rng.uniform(kBufs);
            size_t d = rng.uniform(kBufs);
            // Hazard deps: RAW on sources, WAW+WAR on the dest.
            std::vector<Job> deps = {lastWriter[a], lastWriter[b],
                                     lastWriter[d]};
            for (Job r : readersSince[d]) {
                deps.push_back(r);
            }
            u64 *pa = buf[a].data();
            u64 *pb = buf[b].data();
            u64 *pd = buf[d].data();
            Job j;
            switch (rng.uniform(4)) {
            case 0:
                j = stream->add({{pd, pa, pb, &mod, kLen}}, deps);
                break;
            case 1:
                j = stream->sub({{pd, pa, pb, &mod, kLen}}, deps);
                break;
            case 2:
                j = stream->pointwiseMul({{pd, pa, pb, &mod, kLen}},
                                         deps);
                break;
            default:
                j = stream->task(
                    2,
                    [pd, pa, pb, &mod, kLen](size_t half) {
                        size_t lo = half * (kLen / 2);
                        size_t hi = lo + kLen / 2;
                        for (size_t i = lo; i < hi; ++i) {
                            pd[i] = mod.mulAdd(pa[i], pb[i], pd[i]);
                        }
                    },
                    deps);
                break;
            }
            lastWriter[d] = j;
            readersSince[d].clear();
            readersSince[a].push_back(j);
            readersSince[b].push_back(j);
        }
        stream->submit();
        stream->wait();
        BackendRegistry::instance().select("serial");
        std::vector<u64> out;
        for (const auto &bb : buf) {
            out.insert(out.end(), bb.begin(), bb.end());
        }
        return out;
    };

    for (u64 seed : {7u, 1234u, 80211u}) {
        auto ref = run("serial", seed);
        EXPECT_EQ(run("threads", seed), ref) << "seed " << seed;
        EXPECT_EQ(run("sim", seed), ref) << "seed " << seed;
    }
}

/** End-to-end: the fully recorded blind rotation (one stream over
 *  all lockstep steps) executed by the pipelined pool must reproduce
 *  the serial bytes — per-request chains reuse scratch regions across
 *  steps, so this exercises the WAR/WAW ordering for real. */
TEST(CommandStream, PipelinedPbsBatchMatchesSerialBitExact)
{
    TfheGateBootstrapper gb(TfheParams::testTiny(), 777);
    std::vector<bool> bits = {true, false, true, true, false};
    std::vector<LweCiphertext> cts;
    for (bool b : bits) {
        cts.push_back(gb.encryptBit(b));
    }
    runtime::BatchedBootstrapper bb(gb);
    BackendRegistry::instance().select("serial");
    std::vector<LweCiphertext> ref = bb.bootstrapSignBatch(cts);
    activateEngine("threads");
    std::vector<LweCiphertext> piped = bb.bootstrapSignBatch(cts);
    BackendRegistry::instance().select("serial");
    ASSERT_EQ(piped.size(), ref.size());
    for (size_t i = 0; i < ref.size(); ++i) {
        EXPECT_EQ(piped[i].a, ref[i].a) << i;
        EXPECT_EQ(piped[i].b, ref[i].b) << i;
        EXPECT_EQ(gb.decryptBit(piped[i]), bits[i]) << i;
    }
}

/** The blocking record-and-wait wrapper, called repeatedly with one
 *  shared scratch: every call opens a fresh stream, so the scratch's
 *  cached per-request job chains must rebind (stream ids, not
 *  recycled addresses) and results must match the sequential CMux.
 *  The rotations cover the fused gather's segment edges (1, N-1, N,
 *  N+1, 2N-1) and an inactive slot per step, at testTiny and at
 *  Set-I, whose lb = 2 gadget is the one PBS serving runs. */
TEST(CommandStream, BlockingCmuxWrapperReusesScratchAcrossStreams)
{
    for (const TfheParams &p :
         {TfheParams::testTiny(), TfheParams::setI()}) {
        TfheContext ctx(p, 4242);
        GlweSecretKey sk = ctx.makeGlweKey();
        GgswCiphertext g0 = ctx.ggswEncrypt(1, sk);
        GgswCiphertext g1 = ctx.ggswEncrypt(0, sk);
        ctx.ggswToEval(g0);
        ctx.ggswToEval(g1);
        u64 n = p.bigN;
        const std::vector<u64> rot1 = {1, 0, n - 1, n, n + 1, 2 * n - 1, 5};
        const std::vector<u64> rot2 = {2 * n - 1, n + 1, n, 0, n - 1, 1, 3};
        // Uniform accumulators: every coefficient's difference, not
        // just a test vector's few values, goes through the gadget.
        Rng rng(4243);
        std::vector<GlweCiphertext> init(rot1.size());
        for (GlweCiphertext &acc : init) {
            for (size_t c = 0; c < p.k; ++c) {
                acc.a.push_back(Poly::uniform(n, p.q, rng));
            }
            acc.b = Poly::uniform(n, p.q, rng);
        }
        auto flatten = [&](const std::vector<GlweCiphertext> &accs) {
            std::vector<u64> flat;
            for (const auto &acc : accs) {
                for (size_t c = 0; c <= p.k; ++c) {
                    const Poly &comp = glweComp(acc, c);
                    flat.insert(flat.end(), comp.coeffs().begin(),
                                comp.coeffs().end());
                }
            }
            return flat;
        };
        // Sequential reference: CMux per active slot, step by step.
        BackendRegistry::instance().select("serial");
        std::vector<GlweCiphertext> want = init;
        for (const auto &[g, rots] :
             {std::pair{&g0, &rot1}, std::pair{&g1, &rot2}}) {
            for (size_t j = 0; j < want.size(); ++j) {
                if ((*rots)[j] % (2 * n) == 0) {
                    continue;
                }
                GlweCiphertext rotated =
                    ctx.glweMulMonomial(want[j], (*rots)[j]);
                want[j] = ctx.cmux(*g, want[j], rotated);
            }
        }
        const std::vector<u64> ref = flatten(want);

        for (const char *engine : {"serial", "threads", "threads-1", "sim"}) {
            activateEngine(engine);
            std::vector<GlweCiphertext> accs = init;
            CmuxBatchScratch sc;
            ctx.cmuxRotateBatch(g0, accs.data(), rot1.data(), accs.size(),
                                sc);
            ctx.cmuxRotateBatch(g1, accs.data(), rot2.data(), accs.size(),
                                sc);
            BackendRegistry::instance().select("serial");
            EXPECT_EQ(flatten(accs), ref) << p.name << " " << engine;
        }
    }
}

TEST(CommandStreamDeath, WaitOnUnsubmittedStreamIsFatal)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(
        {
            BackendRegistry::instance().select("serial");
            Workload w(1);
            auto stream = activeBackend().newStream();
            w.record(*stream);
            stream->wait();
        },
        ::testing::ExitedWithCode(1), "unsubmitted CommandStream");
}

TEST(CommandStreamDeath, RecordingAfterSubmitIsFatal)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(
        {
            BackendRegistry::instance().select("serial");
            Workload w(1);
            auto stream = activeBackend().newStream();
            stream->submit();
            w.record(*stream);
        },
        ::testing::ExitedWithCode(1), "recording after submit");
}

/** The coefficient-tiled path engages exactly when limb fan-out
 *  cannot feed the pool (scalar kernels, few large jobs) and must be
 *  bit-identical to the monolithic transform. */
TEST(TiledNtt, UnderfullBatchesMatchSerialBitExact)
{
    ScopedEnv scalar("TRINITY_SIMD_LEVEL", "scalar");
    ThreadPoolBackend tp(8); // count*2 <= 8 engages tiling for <=4 jobs
    for (size_t n : {1024u, 4096u}) {
        u64 q = findNttPrimes(50, 2 * n, 1)[0];
        auto table = NttTableCache::get(n, q);
        for (size_t count : {1u, 3u}) {
            Rng rng(n + count);
            std::vector<std::vector<u64>> tiled(count), ref(count);
            std::vector<NttJob> jobs;
            for (size_t j = 0; j < count; ++j) {
                tiled[j].resize(n);
                for (auto &x : tiled[j]) {
                    x = rng.uniform(q);
                }
                ref[j] = tiled[j];
                jobs.push_back({tiled[j].data(), table.get()});
            }
            tp.nttForwardBatch(jobs.data(), jobs.size());
            for (size_t j = 0; j < count; ++j) {
                table->forward(ref[j].data());
                EXPECT_EQ(tiled[j], ref[j])
                    << "forward n=" << n << " count=" << count
                    << " job=" << j;
            }
            tp.nttInverseBatch(jobs.data(), jobs.size());
            for (size_t j = 0; j < count; ++j) {
                table->inverse(ref[j].data());
                EXPECT_EQ(tiled[j], ref[j])
                    << "inverse n=" << n << " count=" << count
                    << " job=" << j;
            }
        }
    }
}

/**
 * The acceptance bracket for live overlap pricing: on a fused PBS
 * batch, the ledger's overlapped makespan must improve on sequential
 * charging (streams expose cross-pool overlap) while staying above
 * the static scheduler's idealized makespan for the same pipelined
 * graph (the live path charges extra difference adds and eagerly
 * serialized prologue/epilogue kernels).
 */
TEST(SimStream, OverlappedMakespanBracketsOnFusedPbsBatch)
{
    if (!streamsEnabled()) {
        GTEST_SKIP() << "TRINITY_STREAMS=off";
    }
    {
        ScopedEnv machine("TRINITY_SIM_MACHINE", "trinity-tfhe");
        BackendRegistry::instance().select("sim");
    }
    auto params = TfheParams::testTiny();
    TfheGateBootstrapper gb(params, 31337);
    runtime::BatchedBootstrapper bb(gb);
    const size_t B = 8;
    std::vector<LweCiphertext> cts;
    for (size_t i = 0; i < B; ++i) {
        cts.push_back(gb.encryptBit(i % 3 != 0));
    }
    SimBackend *sb = activeSimBackend();
    ASSERT_NE(sb, nullptr);
    sb->ledger().reset();
    std::vector<LweCiphertext> out = bb.runChunked(
        {{&cts[0], &cts[1], &cts[2], &cts[3], &cts[4], &cts[5], &cts[6],
          &cts[7]},
         std::vector<const Poly *>(B, &gb.signVector())},
        B);
    for (size_t i = 0; i < B; ++i) {
        EXPECT_EQ(gb.decryptBit(out[i]), i % 3 != 0);
    }
    double sequential = sb->ledger().computeCycles();
    double overlapped = sb->ledger().overlappedCycles();
    double static_span =
        sim::schedule(workload::pbsBatchGraph(params, B), sb->machine())
            .makespanCycles;
    EXPECT_LT(overlapped, sequential);
    EXPECT_GT(overlapped, static_span);
    BackendRegistry::instance().select("serial");
}

} // namespace
} // namespace trinity
