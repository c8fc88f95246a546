/**
 * @file
 * ckks-conv: one CKKS job at a time on the N=2^14 ring (the Table IX
 * ring) with a deep chain (L=11, dnum=3): HMult -> Rescale -> three
 * rotate-and-add steps (HRotate by 1, 2, 4) -> ckksToTfhe extraction of
 * 32 LWEs -> LwePacker::tfheToCkks repack, decrypt-checked at every
 * hand-off. These are the kernels the serving workloads barely touch:
 * the hybrid keyswitch's BConv, multi-limb NTTs, and Auto. There is no
 * server layer, so a runtime/ change must leave this workload alone.
 */

#include <cmath>
#include <complex>
#include <cstdio>
#include <utility>

#include "accel/configs.h"
#include "common/modarith.h"
#include "conv/conversion.h"
#include "harness.h"

namespace perfbench {

using namespace trinity;

namespace {

constexpr size_t kNslot = 32;
constexpr i64 kSteps[] = {1, 2, 4};
constexpr size_t kRotations = sizeof(kSteps) / sizeof(kSteps[0]);
constexpr size_t kPool = 2; ///< encrypted input pairs
constexpr int kSetups = 5;
/** Decoded slot error allowed after HMult + rescale + rotations. */
constexpr double kSlotTolerance = 1e-2;

CkksParams
ringParams()
{
    CkksParams p;
    p.n = size_t(1) << 14;
    p.maxLevel = 11;
    p.dnum = 3;
    p.scaleBits = 36;
    p.firstModBits = 45;
    p.specialModBits = 45;
    return p;
}

struct Input
{
    CkksCiphertext x;
    CkksCiphertext y;
    /** Slot i of the job's CKKS result: sum_{j<8} x[i+j] * y[i+j]. */
    std::vector<double> expect;
};

struct State
{
    std::shared_ptr<CkksContext> ctx;
    std::unique_ptr<CkksKeyGenerator> keygen;
    CkksEvalKey relin;
    std::vector<CkksEvalKey> rot;
    std::unique_ptr<CkksEncoder> encoder;
    std::unique_ptr<CkksEncryptor> enc;
    std::unique_ptr<CkksEvaluator> eval;
    std::unique_ptr<LwePacker> packer;
    std::vector<Input> inputs;
    u64 inputDigest = 0;
    bool warmOk = true;
};

struct JobOut
{
    CkksCiphertext summed; ///< after HMult, Rescale and the rotations
    std::vector<ConvLwe> lwes;
    CkksCiphertext packed;
};

/** Per-stage times of one job, ms. */
struct StageMs
{
    double hmult = 0;
    double rescale = 0;
    double rotate = 0; ///< all rotate-and-add steps
    double extract = 0;
    double pack = 0;  ///< ring embedding + PackLWEs
    double trace = 0; ///< field trace
    std::vector<double> rotates;

    double
    sum() const
    {
        return hmult + rescale + rotate + extract + pack + trace;
    }
};

/**
 * Run one job on input @p in. With @p st the repack is issued as its
 * parts (ring embedding + PackLWEs, then the field trace) and every
 * stage time is kept; without, the repack is one tfheToCkks call.
 */
JobOut
runJob(const State &s, const Input &in, long parent, u64 unit,
       StageMs *st)
{
    JobOut o;
    StageMs local;
    StageMs &m = st != nullptr ? *st : local;
    m.hmult = timed("ckks.hmult", parent, unit, [&] {
        o.summed = s.eval->multiply(in.x, in.y, s.relin);
    });
    m.rescale = timed("ckks.rescale", parent, unit,
                      [&] { s.eval->rescaleInPlace(o.summed); });
    for (size_t i = 0; i < kRotations; ++i) {
        m.rotates.push_back(timed("ckks.rotate", parent, unit, [&] {
            CkksCiphertext r = s.eval->rotate(o.summed, kSteps[i], s.rot[i]);
            o.summed = s.eval->add(o.summed, r);
        }));
        m.rotate += m.rotates.back();
    }
    m.extract = timed("conv.extract", parent, unit,
                      [&] { o.lwes = ckksToTfhe(o.summed, kNslot); });
    if (st == nullptr) {
        timed("conv.repack", parent, unit,
              [&] { o.packed = s.packer->tfheToCkks(o.lwes); });
        return o;
    }
    CkksCiphertext packed;
    m.pack = timed("conv.pack", parent, unit, [&] {
        std::vector<CkksCiphertext> cts;
        cts.reserve(o.lwes.size());
        for (const ConvLwe &lwe : o.lwes) {
            cts.push_back(s.packer->ringEmbed(lwe));
        }
        packed = s.packer->packLwes(std::move(cts));
    });
    m.trace = timed("conv.field_trace", parent, unit, [&] {
        o.packed = s.packer->fieldTrace(std::move(packed), kNslot);
    });
    return o;
}

/**
 * Decrypt-check every hand-off of a job: the CKKS slots against the
 * plaintext computation, each extracted LWE's phase against the
 * decrypted coefficient (exactly), and each repacked coefficient
 * against N times that phase (within the packing noise bound).
 */
bool
verify(const State &s, const Input &in, const JobOut &o)
{
    const CkksSecretKey &sk = s.keygen->secretKey();
    CkksPlaintext pt = s.enc->decrypt(o.summed, sk);
    std::vector<cd> slots = s.encoder->decode(pt);
    for (size_t i = 0; i < slots.size(); ++i) {
        if (!(std::fabs(slots[i].real() - in.expect[i]) <
              kSlotTolerance)) {
            return false;
        }
    }
    u64 q0 = s.ctx->qChain()[0];
    Modulus m(q0);
    size_t n = s.ctx->n();
    CkksPlaintext packed = s.enc->decrypt(o.packed, sk);
    for (size_t j = 0; j < kNslot; ++j) {
        u64 coeff = pt.poly.limb(0)[j];
        if (convLwePhase(o.lwes[j], sk) != coeff) {
            return false;
        }
        u64 expect = m.mul(coeff, m.reduce(static_cast<u64>(n)));
        u64 got = packed.poly.limb(0)[j * (n / kNslot)];
        i64 err = centeredRep(m.sub(got, expect), q0);
        // Noise grows ~N-fold across the packing tree (see
        // tests/test_conversion.cpp for the same bound).
        if (std::llabs(err) >= static_cast<long long>(q0 / 128)) {
            return false;
        }
    }
    return true;
}

std::unique_ptr<State>
setup(u64 seed)
{
    auto s = std::make_unique<State>();
    s->ctx = std::make_shared<CkksContext>(ringParams());
    s->keygen = std::make_unique<CkksKeyGenerator>(s->ctx, mix(seed ^ 0x6b));
    CkksPublicKey pk = s->keygen->makePublicKey();
    s->relin = s->keygen->makeRelinKey();
    for (i64 step : kSteps) {
        s->rot.push_back(s->keygen->makeRotationKey(step));
    }
    s->encoder = std::make_unique<CkksEncoder>(s->ctx);
    s->enc = std::make_unique<CkksEncryptor>(s->ctx, pk, mix(seed ^ 0xe1));
    s->eval = std::make_unique<CkksEvaluator>(s->ctx);
    s->packer = std::make_unique<LwePacker>(s->ctx, *s->keygen);

    size_t slots = s->encoder->slots();
    size_t level = s->ctx->params().maxLevel;
    Rng rng(mix(seed ^ 0x1a));
    Digest d;
    for (size_t p = 0; p < kPool; ++p) {
        std::vector<double> xv(slots), yv(slots), prod(slots);
        for (size_t i = 0; i < slots; ++i) {
            xv[i] = 2.0 * rng.uniformReal() - 1.0;
            yv[i] = 2.0 * rng.uniformReal() - 1.0;
            prod[i] = xv[i] * yv[i];
        }
        Input in;
        in.x = s->enc->encrypt(s->encoder->encodeReal(xv, level));
        in.y = s->enc->encrypt(s->encoder->encodeReal(yv, level));
        in.expect.assign(slots, 0.0);
        for (size_t i = 0; i < slots; ++i) {
            for (size_t j = 0; j < (size_t(1) << kRotations); ++j) {
                in.expect[i] += prod[(i + j) % slots];
            }
        }
        for (const CkksCiphertext *ct : {&in.x, &in.y}) {
            for (u64 v : ct->c0.flat()) {
                d.add(v);
            }
            for (u64 v : ct->c1.flat()) {
                d.add(v);
            }
        }
        s->inputs.push_back(std::move(in));
    }
    s->inputDigest = d.h;
    // Warm-up: one job through every stage.
    JobOut o = runJob(*s, s->inputs[0], -1, 0, nullptr);
    s->warmOk = verify(*s, s->inputs[0], o);
    return s;
}

size_t
inputOf(u64 seed, u64 id)
{
    return static_cast<size_t>(mix(seed * 0x100000001b3ULL + id) % kPool);
}

/** Jobs back to back for @p seconds; only job time is timed (the
 *  client-side verification between jobs is not). */
LoopResult
jobs(const State &s, const Options &opt, double seconds)
{
    LoopResult r;
    u64 deadline = nowNs() + static_cast<u64>(seconds * 1e9);
    double busyMs = 0;
    for (u64 id = 0; nowNs() < deadline; ++id) {
        const Input &in = s.inputs[inputOf(opt.seed, id)];
        u64 start = nowNs();
        long job = spans().open("bench.job", -1, id);
        JobOut o = runJob(s, in, job, id, nullptr);
        spans().close(job);
        u64 end = nowNs();
        if (static_cast<long long>(id) == opt.corruptUnit) {
            LimbView c0 = o.packed.c0.limb(0);
            c0[0] = c0.modulus().add(c0[0], c0.q() / 2);
        }
        bool ok = false;
        timed("bench.verify", -1, id, [&] { ok = verify(s, in, o); });
        r.units.push_back({id, start, end, ok});
        if (ok) {
            r.latencyMs.push_back(msBetween(start, end));
        }
        busyMs += msBetween(start, end);
    }
    r.throughput =
        busyMs > 0 ? static_cast<double>(r.units.size()) / (busyMs * 1e-3)
                   : 0.0;
    return r;
}

/**
 * Run one job staged and whole; the stages must add up to the whole
 * job. Also times the hybrid keyswitch on its own. Returns the median
 * stage times.
 */
std::vector<std::pair<std::string, double>>
stagePass(const State &s, Report &rep)
{
    const Input &in = s.inputs[0];
    std::vector<StageMs> st;
    bool ok = true;
    double direct = stageSumPass(
        rep, "ckks-conv",
        [&](u64 unit, long parent) {
            st.emplace_back();
            ok = verify(s, in, runJob(s, in, parent, unit, &st.back())) &&
                 ok;
            return st.back().sum();
        },
        [&](u64 unit) {
            JobOut o;
            double ms = timed("bench.job", -1, unit, [&] {
                o = runJob(s, in, -1, unit, nullptr);
            });
            ok = verify(s, in, o) && ok;
            return ms;
        },
        [&] { return std::exchange(ok, true); });
    std::vector<double> keyswitch;
    size_t level = s.ctx->params().maxLevel;
    for (int r = 0; r < kStageReps; ++r) {
        keyswitch.push_back(timed("ckks.keyswitch", -1,
                                  kStageUnitBase + static_cast<u64>(r), [&] {
                                      auto ks = s.eval->keySwitch(
                                          in.x.c1, s.relin, level);
                                      (void)ks;
                                  }));
    }
    auto med = [&](double StageMs::*f) {
        std::vector<double> v;
        for (const StageMs &m : st) {
            v.push_back(m.*f);
        }
        return median(v);
    };
    std::vector<double> perRotate;
    for (const StageMs &m : st) {
        perRotate.insert(perRotate.end(), m.rotates.begin(),
                         m.rotates.end());
    }
    return {{"bench.job", direct},
            {"ckks.hmult", med(&StageMs::hmult)},
            {"ckks.rescale", med(&StageMs::rescale)},
            {"ckks.rotate", median(perRotate)},
            {"ckks.keyswitch", median(keyswitch)},
            {"conv.extract", med(&StageMs::extract)},
            {"conv.pack", med(&StageMs::pack)},
            {"conv.field_trace", med(&StageMs::trace)}};
}

} // namespace

void
runCkksConv(const Options &opt, Report &rep)
{
    std::unique_ptr<State> s;
    double setupS = repeatedSetup(opt.trace ? 1 : kSetups, s,
                                  [&] { return setup(opt.seed); });
    std::printf("input_digest %016llx\n",
                static_cast<unsigned long long>(s->inputDigest));
    if (!s->warmOk) {
        rep.fail("the warm-up job did not decrypt correctly");
    }

    LoopResult loop = measure(
        opt, rep, [&](double secs) { return jobs(*s, opt, secs); }, [] {});

    std::vector<std::pair<std::string, double>> stages = stagePass(*s, rep);
    std::function<bool()> unit = [&s] {
        const Input &in = s->inputs[0];
        return verify(*s, in, runJob(*s, in, -1, 0, nullptr));
    };

    if (!opt.trace) {
        reportEndToEnd(rep, loop, setupS);
        simEndToEnd(accel::trinityConversion(4), 1, unit, rep);
        return;
    }
    for (const auto &[stage, ms] : stages) {
        if (stage != "bench.job") {
            rep.metric(stage + "_ms", ms);
        }
    }
    simLayers(accel::trinityConversion(4), 1, unit, stages, rep);
}

} // namespace perfbench
