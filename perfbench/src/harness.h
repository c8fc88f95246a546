/**
 * @file
 * Shared machinery of the repository benchmark: options, the span log
 * the benchmark keeps around its own calls into each layer, the
 * closed-loop client that drives a serving front end, percentile and
 * stage-sum helpers, the sim-priced pass, and the metric report that
 * ends every run with one JSON line.
 *
 * Nothing here reaches inside the library: every number is taken from
 * outside, around calls into the public functions of runtime/, tfhe/,
 * pir/, ckks/ and conv/.
 */

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <algorithm>
#include <chrono>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.h"
#include "runtime/pbs_server.h"
#include "sim/machine.h"

namespace perfbench {

using trinity::u64;

/** Monotonic clock in nanoseconds. */
u64 nowNs();

inline double
msBetween(u64 start, u64 end)
{
    return static_cast<double>(end - start) * 1e-6;
}

/** splitmix64: every per-unit choice is a pure function of (seed, id). */
u64 mix(u64 x);

/** Uniform double in [0, 1) from a mixed word. */
inline double
unitReal(u64 x)
{
    return static_cast<double>(mix(x) >> 11) * 0x1.0p-53;
}

/** Order-sensitive word hash: the self-test compares input and sim
 *  digests across runs. */
struct Digest
{
    u64 h = 1469598103934665603ULL;

    void add(u64 v) { h = (h ^ v) * 1099511628211ULL; }
};

struct Options
{
    std::string workload;
    u64 seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Where the traced run writes its span file ("" = nowhere). */
    std::string spansPath;
    /** Unit whose result is perturbed before verification (self-test
     *  of the failure accounting); -1 = none. */
    long long corruptUnit = -1;
};

// ------------------------------------------------------------------ spans

/**
 * In-memory span log, written as JSON when the benchmark ends. A span
 * is one call into a layer's public function (or one whole request or
 * job); every span of a request or job carries that unit's id. Spans
 * are recorded only while the log is on (the traced run).
 */
class SpanLog
{
  public:
    void setOn(bool on) { on_ = on; }
    bool on() const { return on_; }

    /** Record a finished span; returns its id, or -1 while off. */
    long add(const char *name, u64 start, u64 end, long parent, u64 unit);
    /** Open a span now (its end is stamped by close()). */
    long open(const char *name, long parent, u64 unit);
    void close(long id);

    /** Self time per layer in ms: each span's duration minus the part
     *  its children cover, summed by the name's prefix before '.'. */
    std::map<std::string, double> selfMsByLayer() const;

    /** Write every span plus the per-layer self times as strict JSON;
     *  false on I/O failure. */
    bool write(const std::string &path) const;

  private:
    struct Span
    {
        const char *name; ///< string literal
        u64 start;
        u64 end;
        long parent;
        u64 unit;
    };

    bool on_ = false;
    mutable std::mutex mtx_;
    std::vector<Span> spans_;
};

SpanLog &spans();

/** Run @p f, record it as span @p name, return its duration in ms. */
template <class F>
double
timed(const char *name, long parent, u64 unit, F &&f)
{
    u64 start = nowNs();
    f();
    u64 end = nowNs();
    spans().add(name, start, end, parent, unit);
    return msBetween(start, end);
}

/** Span unit ids of the stage-sum and probe calls, apart from the
 *  request/job ids of the timed loops. */
constexpr u64 kStageUnitBase = u64(1) << 40;

// ------------------------------------------------------------------ stats

double median(std::vector<double> v);

/** The highest percentile with at least ten samples beyond it. */
struct Tail
{
    double value = 0;
    double pct = 0;
    size_t samples = 0;
};

Tail tailOf(std::vector<double> v);

/** Peak resident set of this process, MB. */
double peakRssMb();

/**
 * Set up @p reps times from scratch (dropping the previous state
 * first, so peak memory holds one state) and keep the last state.
 * Returns the median set-up time in seconds.
 */
template <class State, class Make>
double
repeatedSetup(int reps, std::unique_ptr<State> &state, Make make)
{
    std::vector<double> secs;
    for (int r = 0; r < reps; ++r) {
        state.reset();
        u64 start = nowNs();
        state = make();
        secs.push_back(msBetween(start, nowNs()) * 1e-3);
    }
    return median(secs);
}

// ----------------------------------------------------------------- report

/**
 * Metric sink. metric() values go into the final JSON line — in the
 * untraced run exactly the end-to-end metrics, in the traced run every
 * per-layer metric (0 where the workload bypasses the layer); note()
 * values are printed by name only. finish() prints the table, then the
 * JSON line, and returns the exit code.
 */
class Report
{
  public:
    explicit Report(bool trace) : trace_(trace) {}

    void metric(const std::string &name, double value);
    void note(const std::string &name, double value,
              const std::string &unit);
    /** Record a check that failed: the run exits nonzero. */
    void fail(const std::string &why);

    /** Count one verified unit of work. */
    void
    unit(bool ok)
    {
        ++attempted_;
        if (!ok) {
            ++failed_;
        }
    }

    int finish();

  private:
    bool trace_;
    u64 attempted_ = 0;
    u64 failed_ = 0;
    std::map<std::string, double> metrics_;
    std::vector<std::pair<std::string, std::string>> notes_;
    std::vector<std::string> failures_;
};

/** Metric names with units, in report order. */
const std::vector<std::pair<std::string, std::string>> &endToEndMetrics();
const std::vector<std::pair<std::string, std::string>> &perLayerMetrics();

// ------------------------------------------------------------- stage sum

/** Allowed gap between the staged sum and the direct time of one
 *  unit, as a share of the direct time: the median over repetitions of
 *  each staged run against the direct run next to it. */
constexpr double kStageTolerance = 0.15;

/** Repetitions of the staged and the direct unit (interleaved). */
constexpr int kStageReps = 8;

/**
 * Run one unit kStageReps times staged and kStageReps times whole,
 * alternating which goes first. staged(unit, parentSpan) issues the
 * unit stage by stage and returns the sum of its stage times;
 * whole(unit) issues it as one call and returns that call's time.
 * Each must drop its intermediates before returning, so both start
 * from the same heap and cache state. verify() checks the two results
 * after each repetition. Records a failure when the staged sum and the
 * whole unit differ by more than kStageTolerance. Returns the median
 * whole time in ms.
 */
double stageSumPass(Report &rep, const char *what,
                    const std::function<double(u64, long)> &staged,
                    const std::function<double(u64)> &whole,
                    const std::function<bool()> &verify);

// ------------------------------------------------------------ closed loop

/** One finished unit of work. */
struct UnitRecord
{
    u64 id = 0;
    u64 submitNs = 0;
    u64 doneNs = 0;
    bool ok = false;
};

struct LoopResult
{
    std::vector<UnitRecord> units;
    double throughput = 0;         ///< steady-state units per second
    std::vector<double> latencyMs; ///< steady-state samples
};

/**
 * One generator thread that keeps @p inflight requests outstanding for
 * @p seconds: each completion is verified and, before the deadline,
 * replaced by a new request (a closed loop — the client waits on its
 * outputs). pick(id, prevTenant) names the tenant of request @p id
 * (prevTenant is the tenant whose request just finished, or -1 while
 * filling); submit() enqueues it; verify() checks the result. A
 * request that resolves with an exception (AdmissionRejected,
 * DeadlineExceeded, or an execution error) counts as failed.
 *
 * Steady state leaves out the first @p inflight requests (the initial
 * fill): throughput counts completions between the fill's last one and
 * the deadline, and latency samples are the later requests done by the
 * deadline.
 */
template <class R>
LoopResult
closedLoop(size_t inflight, double seconds,
           const std::function<u64(u64, long long)> &pick,
           const std::function<std::future<R>(u64, u64)> &submit,
           const std::function<bool(u64, u64, R &)> &verify)
{
    struct Slot
    {
        u64 id;
        u64 tenant;
        u64 submitNs;
        u64 submitEndNs;
        std::future<R> fut;
    };
    LoopResult res;
    std::vector<Slot> live;
    u64 next = 0;
    u64 deadline = nowNs() + static_cast<u64>(seconds * 1e9);
    auto launch = [&](long long prev) {
        Slot s;
        s.id = next++;
        s.tenant = pick(s.id, prev);
        s.submitNs = nowNs();
        s.fut = submit(s.id, s.tenant);
        s.submitEndNs = nowNs();
        live.push_back(std::move(s));
    };
    for (size_t i = 0; i < inflight; ++i) {
        launch(-1);
    }
    std::vector<size_t> ready;
    std::vector<u64> doneAt;
    while (!live.empty()) {
        // Stamp every finished request before verifying any, so a
        // verification never delays another request's completion time.
        ready.clear();
        doneAt.clear();
        for (size_t i = 0; i < live.size(); ++i) {
            if (live[i].fut.wait_for(std::chrono::seconds(0)) ==
                std::future_status::ready) {
                ready.push_back(i);
                doneAt.push_back(nowNs());
            }
        }
        if (ready.empty()) {
            live.front().fut.wait_for(std::chrono::microseconds(200));
            continue;
        }
        // Replace every finished request before verifying any, so the
        // server never waits on the client's verification.
        std::vector<Slot> finished;
        for (size_t k = ready.size(); k-- > 0;) {
            finished.push_back(std::move(live[ready[k]]));
            live.erase(live.begin() + static_cast<long>(ready[k]));
        }
        if (nowNs() < deadline) {
            for (const Slot &s : finished) {
                launch(static_cast<long long>(s.tenant));
            }
        }
        for (size_t k = 0; k < finished.size(); ++k) {
            Slot &s = finished[k];
            UnitRecord u{s.id, s.submitNs, doneAt[ready.size() - 1 - k],
                         false};
            u64 verifyStart = nowNs();
            try {
                R out = s.fut.get();
                u.ok = verify(s.id, s.tenant, out);
            } catch (...) {
                u.ok = false;
            }
            if (spans().on()) {
                long req = spans().add("bench.request", u.submitNs,
                                       u.doneNs, -1, u.id);
                spans().add("runtime.submit", s.submitNs, s.submitEndNs,
                            req, u.id);
                spans().add("bench.verify", verifyStart, nowNs(), req,
                            u.id);
            }
            res.units.push_back(u);
        }
    }

    std::vector<u64> done;
    for (const UnitRecord &u : res.units) {
        if (u.doneNs > deadline) {
            continue;
        }
        done.push_back(u.doneNs);
        if (u.id >= inflight && u.ok) {
            res.latencyMs.push_back(msBetween(u.submitNs, u.doneNs));
        }
    }
    std::sort(done.begin(), done.end());
    if (done.size() > inflight && done.back() > done[inflight - 1]) {
        res.throughput =
            static_cast<double>(done.size() - inflight) /
            (static_cast<double>(done.back() - done[inflight - 1]) * 1e-9);
    }
    return res;
}

/**
 * The timed phase. The untraced run calls serve(opt.seconds). The traced
 * run serves the first half untraced, calls @p beforeTraced, and serves
 * the second half with spans on; the drop in throughput between the two
 * halves is reported as obs.trace_overhead_frac. Every unit served is
 * counted into the report. Returns the last half (or the whole) run.
 */
LoopResult measure(const Options &opt, Report &rep,
                   const std::function<LoopResult(double)> &serve,
                   const std::function<void()> &beforeTraced);

/** The untraced run's end-to-end metrics. */
void reportEndToEnd(Report &rep, const LoopResult &r, double setupS);

/** ServerStats::avgBatch of the requests served between two stats
 *  snapshots. */
double batchMean(const trinity::runtime::ServerStats &before,
                 const trinity::runtime::ServerStats &after);

/** runtime.queue_wait_* from the server's `<label>.queue_wait_ns`
 *  histogram, plus batch_mean/rejected/shed from the stats delta. */
void reportServer(Report &rep, const std::string &label,
                  const trinity::runtime::ServerStats &before,
                  const trinity::runtime::ServerStats &after);

/** Zero the server histogram a traced phase reads. */
void resetServerHistograms(const std::string &label);

// ---------------------------------------------------------- sim pricing

/** Deterministic modelled counts of one unit. */
struct SimCounts
{
    /** Per sim::KernelType, summed from the KernelEvents of the eager
     *  pass when bytes are counted, else from the ledger. */
    std::map<int, u64> elements;
    std::map<int, u64> bytes; ///< per sim::KernelType (eager pass)
    std::map<int, double> cycles;
    double overlapped = 0;
    double sequential = 0;
    double transfer = 0;
    double usPerUnit = 0;

    bool operator==(const SimCounts &o) const;
    u64 digest() const;
};

/**
 * Price one unit on @p machine: the active engine is swapped for a
 * SimBackend around a fresh `threads` engine and @p unit runs once with
 * command streams on (cycles, overlap); when @p withBytes, it runs once
 * more eagerly under a counting observer (per-class bytes). Restores
 * the `threads` engine. @p unit returns whether its result verified;
 * @p width divides the modelled latency into sim_us_per_unit.
 */
SimCounts simPrice(const trinity::sim::Machine &machine, double width,
                   bool withBytes, const std::function<bool()> &unit,
                   Report &rep);

/**
 * The traced run's sim pass: price the unit twice (with bytes),
 * require identical counts, report kernel.* and sim.* metrics, and
 * print host ms per stage next to the modelled breakdown.
 */
void simLayers(const trinity::sim::Machine &machine, double width,
               const std::function<bool()> &unit,
               const std::vector<std::pair<std::string, double>> &hostMs,
               Report &rep);

/** The untraced run's sim pass: sim_us_per_unit and the digest. */
void simEndToEnd(const trinity::sim::Machine &machine, double width,
                 const std::function<bool()> &unit, Report &rep);

// -------------------------------------------------------------- workloads

void runPbsServe(const Options &opt, Report &rep);
void runPirServe(const Options &opt, Report &rep);
void runCkksConv(const Options &opt, Report &rep);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
