#include "harness.h"

#include <cmath>
#include <cstdio>
#include <cstring>

#include <sys/resource.h>

#include "backend/command_stream.h"
#include "backend/observer.h"
#include "backend/registry.h"
#include "backend/sim_backend.h"
#include "obs/metrics.h"

namespace perfbench {

using namespace trinity;
using sim::KernelType;

u64
nowNs()
{
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

u64
mix(u64 x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

// ------------------------------------------------------------------ spans

SpanLog &
spans()
{
    static SpanLog log;
    return log;
}

long
SpanLog::add(const char *name, u64 start, u64 end, long parent, u64 unit)
{
    if (!on_) {
        return -1;
    }
    std::lock_guard<std::mutex> lk(mtx_);
    spans_.push_back({name, start, end, parent, unit});
    return static_cast<long>(spans_.size() - 1);
}

long
SpanLog::open(const char *name, long parent, u64 unit)
{
    u64 now = nowNs();
    return add(name, now, now, parent, unit);
}

void
SpanLog::close(long id)
{
    if (id < 0) {
        return;
    }
    u64 now = nowNs();
    std::lock_guard<std::mutex> lk(mtx_);
    spans_[static_cast<size_t>(id)].end = now;
}

std::map<std::string, double>
SpanLog::selfMsByLayer() const
{
    std::lock_guard<std::mutex> lk(mtx_);
    std::vector<std::vector<std::pair<u64, u64>>> kids(spans_.size());
    for (const Span &s : spans_) {
        if (s.parent >= 0) {
            kids[static_cast<size_t>(s.parent)].push_back(
                {s.start, s.end});
        }
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        // Union of the children's intervals, clipped to the parent.
        std::vector<std::pair<u64, u64>> &k = kids[i];
        std::sort(k.begin(), k.end());
        u64 covered = 0;
        u64 reach = s.start;
        for (const auto &[a, b] : k) {
            u64 lo = std::max(a, reach);
            u64 hi = std::min(b, s.end);
            if (hi > lo) {
                covered += hi - lo;
                reach = hi;
            }
        }
        std::string name(s.name);
        out[name.substr(0, name.find('.'))] +=
            static_cast<double>(s.end - s.start - covered) * 1e-6;
    }
    return out;
}

bool
SpanLog::write(const std::string &path) const
{
    std::map<std::string, double> self = selfMsByLayer();
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        return false;
    }
    std::fprintf(f, "{\n\"clock\": \"steady_clock ns\",\n"
                    "\"self_ms_by_layer\": {");
    size_t i = 0;
    for (const auto &[layer, ms] : self) {
        std::fprintf(f, "%s\"%s\": %.6f", i++ == 0 ? "" : ", ",
                     layer.c_str(), ms);
    }
    std::fprintf(f, "},\n\"spans\": [");
    {
        std::lock_guard<std::mutex> lk(mtx_);
        for (size_t j = 0; j < spans_.size(); ++j) {
            const Span &s = spans_[j];
            std::fprintf(f,
                         "%s\n{\"id\": %zu, \"name\": \"%s\", "
                         "\"start_ns\": %llu, \"end_ns\": %llu, "
                         "\"parent\": %ld, \"unit\": %llu}",
                         j == 0 ? "" : ",", j, s.name,
                         static_cast<unsigned long long>(s.start),
                         static_cast<unsigned long long>(s.end), s.parent,
                         static_cast<unsigned long long>(s.unit));
        }
    }
    std::fprintf(f, "\n]\n}\n");
    bool ok = std::ferror(f) == 0;
    return std::fclose(f) == 0 && ok;
}

// ------------------------------------------------------------------ stats

double
median(std::vector<double> v)
{
    if (v.empty()) {
        return 0;
    }
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail
tailOf(std::vector<double> v)
{
    Tail t;
    t.samples = v.size();
    if (v.empty()) {
        return t;
    }
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    // Rank r (1-based) leaves n - r samples beyond it.
    size_t r = n > 10 ? n - 10 : n;
    t.value = v[r - 1];
    t.pct = 100.0 * static_cast<double>(r) / static_cast<double>(n);
    return t;
}

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof ru);
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

// ----------------------------------------------------------------- report

namespace {

/** Kernel classes the per-layer kernel.* and sim.* metrics cover. */
const std::vector<std::pair<KernelType, const char *>> &
kernelClasses()
{
    static const std::vector<std::pair<KernelType, const char *>> k = {
        {KernelType::Ntt, "ntt"},       {KernelType::Intt, "intt"},
        {KernelType::Ip, "ip"},         {KernelType::ModMul, "modmul"},
        {KernelType::ModAdd, "modadd"}, {KernelType::Bconv, "bconv"},
        {KernelType::Auto, "auto"},     {KernelType::Decomp, "decomp"},
        {KernelType::Rotate, "rotate"}, {KernelType::LweKs, "lweks"},
    };
    return k;
}

} // namespace

const std::vector<std::pair<std::string, std::string>> &
endToEndMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> m = {
        {"throughput_per_s", "1/s"}, {"latency_p50_ms", "ms"},
        {"latency_tail_ms", "ms"},   {"setup_s", "s"},
        {"peak_rss_mb", "MB"},
    };
    return m;
}

const std::vector<std::pair<std::string, std::string>> &
perLayerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> m = [] {
        std::vector<std::pair<std::string, std::string>> v = {
            {"runtime.queue_wait_p50_ms", "ms"},
            {"runtime.queue_wait_tail_ms", "ms"},
            {"runtime.batch_mean", "count"},
            {"runtime.keystore_hit_rate", "frac"},
            {"runtime.keystore_materializations", "count"},
            {"runtime.dbstore_materializations", "count"},
            {"runtime.rejected", "count"},
            {"runtime.shed", "count"},
            {"tfhe.pbs_batch_ms", "ms"},
            {"tfhe.blind_rotate_ms", "ms"},
            {"tfhe.sample_extract_ms", "ms"},
            {"tfhe.keyswitch_ms", "ms"},
            {"tfhe.materialize_ms", "ms"},
            {"pir.expand_ms", "ms"},
            {"pir.query_gsw_ms", "ms"},
            {"pir.fold_ms", "ms"},
            {"pir.cmux_tree_ms", "ms"},
            {"pir.mod_switch_ms", "ms"},
            {"pir.answer_ms", "ms"},
            {"pir.fold_gb_per_s", "GB/s"},
            {"pir.materialize_ms", "ms"},
            {"ckks.hmult_ms", "ms"},
            {"ckks.rescale_ms", "ms"},
            {"ckks.rotate_ms", "ms"},
            {"ckks.keyswitch_ms", "ms"},
            {"conv.extract_ms", "ms"},
            {"conv.pack_ms", "ms"},
            {"conv.field_trace_ms", "ms"},
        };
        for (const auto &[type, name] : kernelClasses()) {
            (void)type;
            v.push_back({std::string("kernel.") + name + ".elements",
                         "count"});
            v.push_back({std::string("kernel.") + name + ".bytes",
                         "bytes"});
        }
        for (const auto &[type, name] : kernelClasses()) {
            (void)type;
            v.push_back({std::string("sim.") + name + ".cycles", "cycles"});
        }
        v.push_back({"sim.overlapped_cycles", "cycles"});
        v.push_back({"sim.sequential_cycles", "cycles"});
        v.push_back({"sim.transfer_cycles", "cycles"});
        v.push_back({"obs.trace_overhead_frac", "frac"});
        return v;
    }();
    return m;
}

void
Report::metric(const std::string &name, double value)
{
    if (!std::isfinite(value)) {
        fail("metric " + name + " is not finite");
        value = 0;
    }
    metrics_[name] = value;
}

void
Report::note(const std::string &name, double value,
             const std::string &unit)
{
    char buf[160];
    std::snprintf(buf, sizeof buf, "%-34s %16.6g  %s", name.c_str(),
                  value, unit.c_str());
    notes_.push_back({name, buf});
}

void
Report::fail(const std::string &why)
{
    std::fprintf(stderr, "check failed: %s\n", why.c_str());
    failures_.push_back(why);
}

int
Report::finish()
{
    const auto &names = trace_ ? perLayerMetrics() : endToEndMetrics();
    for (const auto &[name, value] : metrics_) {
        (void)value;
        bool known = false;
        for (const auto &m : names) {
            known = known || m.first == name;
        }
        if (!known) {
            fail("metric " + name + " does not belong to this run");
        }
    }
    if (!trace_) {
        for (const auto &m : names) {
            if (metrics_.count(m.first) == 0) {
                fail("end-to-end metric " + m.first + " was not measured");
            }
        }
    }
    double failedFrac =
        attempted_ == 0 ? 1.0
                        : static_cast<double>(failed_) /
                              static_cast<double>(attempted_);
    note("failed_frac", failedFrac, "frac");
    bool correct = failures_.empty() && failed_ == 0 && attempted_ > 0;

    std::printf("\n%-34s %16s  %s\n", "metric", "value", "unit");
    for (const auto &[name, unit] : names) {
        auto it = metrics_.find(name);
        double v = it == metrics_.end() ? 0.0 : it->second;
        std::printf("%-34s %16.6g  %s\n", name.c_str(), v, unit.c_str());
    }
    for (const auto &n : notes_) {
        std::printf("%s\n", n.second.c_str());
    }
    for (const std::string &f : failures_) {
        std::printf("FAILED: %s\n", f.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
    for (size_t i = 0; i < names.size(); ++i) {
        auto it = metrics_.find(names[i].first);
        double v = it == metrics_.end() ? 0.0 : it->second;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", names[i].first.c_str(), v,
                    names[i].second.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
    return correct ? 0 : 1;
}

// ------------------------------------------------------------- stage sum

double
stageSumPass(Report &rep, const char *what,
             const std::function<double(u64, long)> &staged,
             const std::function<double(u64)> &whole,
             const std::function<bool()> &verify)
{
    std::vector<double> stagedMs, directMs;
    for (int r = 0; r < kStageReps; ++r) {
        u64 unit = kStageUnitBase + static_cast<u64>(r);
        for (int k = 0; k < 2; ++k) {
            if ((k + r) % 2 == 0) {
                long parent = spans().open("bench.stage_sum", -1, unit);
                stagedMs.push_back(staged(unit, parent));
                spans().close(parent);
            } else {
                directMs.push_back(whole(unit));
            }
        }
        rep.unit(verify());
    }
    // Each repetition's two runs are adjacent in time, so their ratio
    // cancels slow drift in the host's speed; the median drops bursts.
    std::vector<double> gaps;
    for (size_t i = 0; i < stagedMs.size(); ++i) {
        gaps.push_back(directMs[i] > 0
                           ? (stagedMs[i] - directMs[i]) / directMs[i]
                           : 1.0);
    }
    double gap = median(gaps);
    std::printf("stage-sum %-10s stages %10.3f ms  unit %10.3f ms  "
                "median gap %+6.1f%%  (tolerance %.0f%%)\n",
                what, median(stagedMs), median(directMs), 100.0 * gap,
                100.0 * kStageTolerance);
    rep.note(std::string("stage_sum_gap.") + what, gap, "frac");
    if (!(std::fabs(gap) <= kStageTolerance)) {
        char buf[200];
        std::snprintf(buf, sizeof buf,
                      "%s stage times add up to %+.1f%% of the whole unit "
                      "(median of %d pairs)",
                      what, 100.0 * gap, kStageReps);
        rep.fail(buf);
    }
    return median(directMs);
}

// ------------------------------------------------------------ closed loop

LoopResult
measure(const Options &opt, Report &rep,
        const std::function<LoopResult(double)> &serve,
        const std::function<void()> &beforeTraced)
{
    auto account = [&rep](const LoopResult &r) {
        for (const UnitRecord &u : r.units) {
            rep.unit(u.ok);
        }
    };
    if (!opt.trace) {
        LoopResult r = serve(opt.seconds);
        account(r);
        return r;
    }
    LoopResult plain = serve(opt.seconds / 2);
    account(plain);
    beforeTraced();
    spans().setOn(true);
    LoopResult traced = serve(opt.seconds / 2);
    account(traced);
    rep.metric("obs.trace_overhead_frac",
               plain.throughput > 0
                   ? 1.0 - traced.throughput / plain.throughput
                   : 0.0);
    return traced;
}

void
reportEndToEnd(Report &rep, const LoopResult &r, double setupS)
{
    Tail t = tailOf(r.latencyMs);
    if (r.throughput <= 0 || r.latencyMs.empty()) {
        rep.fail("no steady-state unit completed; raise --seconds");
    }
    rep.metric("throughput_per_s", r.throughput);
    rep.metric("latency_p50_ms", median(r.latencyMs));
    rep.metric("latency_tail_ms", t.value);
    rep.metric("setup_s", setupS);
    rep.metric("peak_rss_mb", peakRssMb());
    rep.note("latency_tail_percentile", t.pct, "%");
    rep.note("latency_samples", static_cast<double>(t.samples), "count");
}

void
resetServerHistograms(const std::string &label)
{
    obs::MetricsRegistry::instance()
        .histogram(label + ".queue_wait_ns")
        .reset();
}

double
batchMean(const runtime::ServerStats &before,
          const runtime::ServerStats &after)
{
    runtime::ServerStats d;
    d.requests = after.requests - before.requests;
    d.batches = after.batches - before.batches;
    return d.avgBatch();
}

void
reportServer(Report &rep, const std::string &label,
             const runtime::ServerStats &before,
             const runtime::ServerStats &after)
{
    obs::Histogram &h = obs::MetricsRegistry::instance().histogram(
        label + ".queue_wait_ns");
    u64 n = h.count();
    double tailQ = n > 10 ? static_cast<double>(n - 10) /
                                static_cast<double>(n)
                          : 1.0;
    rep.metric("runtime.queue_wait_p50_ms",
               static_cast<double>(h.percentile(0.5)) * 1e-6);
    rep.metric("runtime.queue_wait_tail_ms",
               static_cast<double>(h.percentile(tailQ)) * 1e-6);
    rep.metric("runtime.batch_mean", batchMean(before, after));
    rep.metric("runtime.rejected",
               static_cast<double>(after.rejected - before.rejected));
    rep.metric("runtime.shed",
               static_cast<double>(after.shed - before.shed));
}

// ---------------------------------------------------------- sim pricing

namespace {

/** Counts every kernel event the eager pass delivers (observers are
 *  called under the observer registry's lock). */
class EventCounter final : public BackendObserver
{
  public:
    void
    onKernel(const KernelEvent &ev) override
    {
        elements[static_cast<int>(ev.type)] += ev.elements;
        bytes[static_cast<int>(ev.type)] += ev.bytes;
    }

    std::map<int, u64> elements;
    std::map<int, u64> bytes;
};

u64
doubleBits(double d)
{
    u64 b = 0;
    std::memcpy(&b, &d, sizeof b);
    return b;
}

} // namespace

bool
SimCounts::operator==(const SimCounts &o) const
{
    return elements == o.elements && bytes == o.bytes &&
           cycles == o.cycles && overlapped == o.overlapped &&
           sequential == o.sequential && transfer == o.transfer;
}

u64
SimCounts::digest() const
{
    Digest d;
    for (const auto &[t, v] : elements) {
        d.add(static_cast<u64>(t));
        d.add(v);
    }
    for (const auto &[t, v] : bytes) {
        d.add(static_cast<u64>(t));
        d.add(v);
    }
    for (const auto &[t, v] : cycles) {
        d.add(static_cast<u64>(t));
        d.add(doubleBits(v));
    }
    d.add(doubleBits(overlapped));
    d.add(doubleBits(sequential));
    d.add(doubleBits(transfer));
    return d.h;
}

SimCounts
simPrice(const sim::Machine &machine, double width, bool withBytes,
         const std::function<bool()> &unit, Report &rep)
{
    // The sim pass runs on another engine: keep it out of the spans.
    spans().setOn(false);
    BackendRegistry &reg = BackendRegistry::instance();
    reg.use(std::make_unique<SimBackend>(reg.create("threads"), machine));
    SimBackend &sb = *activeSimBackend();
    SimCounts c;
    sb.ledger().reset();
    rep.unit(unit());
    for (const auto &[type, cell] : sb.ledger().byKernel()) {
        c.elements[static_cast<int>(type)] = cell.elements;
        c.cycles[static_cast<int>(type)] = cell.cycles;
    }
    c.overlapped = sb.ledger().overlappedCycles();
    c.sequential = sb.ledger().computeCycles();
    c.transfer = sb.ledger().transferCycles();
    c.usPerUnit =
        sb.seconds(sb.ledger().overlappedLatencyCycles()) * 1e6 / width;
    if (withBytes) {
        // Stream-recorded kernels reach only the sim ledger; the eager
        // executor delivers every event to every observer.
        EventCounter counter;
        overrideStreams(0);
        installObserver(&counter);
        bool ok = unit();
        removeObserver(&counter);
        overrideStreams(-1);
        rep.unit(ok);
        c.elements = counter.elements;
        c.bytes = counter.bytes;
    }
    reg.select("threads");
    return c;
}

void
simLayers(const sim::Machine &machine, double width,
          const std::function<bool()> &unit,
          const std::vector<std::pair<std::string, double>> &hostMs,
          Report &rep)
{
    SimCounts a = simPrice(machine, width, true, unit, rep);
    SimCounts b = simPrice(machine, width, true, unit, rep);
    if (!(a == b)) {
        rep.fail("kernel counts or sim cycles differ between two passes "
                 "over the same unit");
    }
    std::printf("sim_digest %016llx\n",
                static_cast<unsigned long long>(a.digest()));
    for (const auto &[type, name] : kernelClasses()) {
        int t = static_cast<int>(type);
        rep.metric(std::string("kernel.") + name + ".elements",
                   static_cast<double>(a.elements[t]));
        rep.metric(std::string("kernel.") + name + ".bytes",
                   static_cast<double>(a.bytes[t]));
        rep.metric(std::string("sim.") + name + ".cycles", a.cycles[t]);
    }
    rep.metric("sim.overlapped_cycles", a.overlapped);
    rep.metric("sim.sequential_cycles", a.sequential);
    rep.metric("sim.transfer_cycles", a.transfer);

    // Host wall time per stage next to the modelled breakdown of the
    // same unit: a from-outside counterpart of the paper's Fig. 2.
    std::printf("\nhost stages (one unit, threads engine, %s):\n",
                machine.name.c_str());
    for (const auto &[stage, ms] : hostMs) {
        std::printf("  %-26s %12.3f ms\n", stage.c_str(), ms);
    }
    std::printf("modelled kernels (%s):\n", machine.name.c_str());
    std::printf("  %-8s %16s %16s %14s %7s\n", "class", "elements",
                "bytes", "cycles", "share");
    for (const auto &[type, name] : kernelClasses()) {
        int t = static_cast<int>(type);
        double share = a.sequential > 0 ? a.cycles[t] / a.sequential : 0;
        std::printf("  %-8s %16llu %16llu %14.0f %6.1f%%\n", name,
                    static_cast<unsigned long long>(a.elements[t]),
                    static_cast<unsigned long long>(a.bytes[t]),
                    a.cycles[t], 100.0 * share);
    }
    std::printf("  overlapped %.0f / sequential %.0f / transfer %.0f "
                "cycles; %.3f us per unit\n\n",
                a.overlapped, a.sequential, a.transfer, a.usPerUnit);
}

void
simEndToEnd(const sim::Machine &machine, double width,
            const std::function<bool()> &unit, Report &rep)
{
    SimCounts c = simPrice(machine, width, false, unit, rep);
    rep.note("sim_us_per_unit", c.usPerUnit, "us");
    std::printf("sim_digest %016llx\n",
                static_cast<unsigned long long>(c.digest()));
}

} // namespace perfbench
