/**
 * @file
 * Repository benchmark entry point.
 *
 *   trinity_perfbench --workload <pbs-serve|pir-serve|ckks-conv>
 *                     --seed <n> --seconds <s> --trace <0|1>
 *                     [--spans <path>] [--corrupt-unit <id>]
 *
 * The untraced run (--trace 0) measures the end-to-end metrics; the
 * traced run (--trace 1) reports the per-layer metrics and, with
 * --spans, writes the benchmark's own spans as JSON. Every run ends
 * with one JSON line and exits nonzero when any unit fails
 * verification or any consistency check fails. --corrupt-unit
 * perturbs one result before it is verified (the self-test of the
 * failure accounting). perfbench/README.md describes the workloads
 * and metrics.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "backend/registry.h"
#include "harness.h"

using namespace perfbench;

namespace {

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "error: %s\nusage: trinity_perfbench --workload "
                 "<pbs-serve|pir-serve|ckks-conv> --seed <n> --seconds "
                 "<s> --trace <0|1> [--spans <path>] [--corrupt-unit "
                 "<id>]\n",
                 why);
    return 2;
}

bool
parseNumber(const std::string &s, double &out)
{
    char *end = nullptr;
    out = std::strtod(s.c_str(), &end);
    return !s.empty() && end != nullptr && *end == '\0';
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc) {
            return usage(("missing value after " + a).c_str());
        }
        std::string v = argv[++i];
        double num = 0;
        if (a == "--workload") {
            opt.workload = v;
        } else if (a == "--spans") {
            opt.spansPath = v;
        } else if (!parseNumber(v, num)) {
            return usage(("not a number: " + a + " " + v).c_str());
        } else if (a == "--seed" && num >= 0) {
            opt.seed = static_cast<u64>(num);
        } else if (a == "--seconds" && num > 0 && num <= 600) {
            opt.seconds = num;
        } else if (a == "--trace" && (num == 0 || num == 1)) {
            opt.trace = num == 1;
        } else if (a == "--corrupt-unit" && num >= 0) {
            opt.corruptUnit = static_cast<long long>(num);
        } else {
            return usage(("bad argument: " + a + " " + v).c_str());
        }
    }
    void (*run)(const Options &, Report &) = nullptr;
    if (opt.workload == "pbs-serve") {
        run = runPbsServe;
    } else if (opt.workload == "pir-serve") {
        run = runPirServe;
    } else if (opt.workload == "ckks-conv") {
        run = runCkksConv;
    } else {
        return usage("unknown workload");
    }

    // The engine a deployment runs; everything below uses it unless a
    // sim pass swaps it for a priced one.
    trinity::BackendRegistry::instance().select("threads");
    std::printf("workload %s  seed %llu  seconds %g  trace %d  engine "
                "%s (%zu threads)\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0, trinity::activeBackend().name(),
                trinity::activeBackend().threadCount());

    Report rep(opt.trace);
    try {
        run(opt, rep);
    } catch (const std::exception &e) {
        rep.fail(std::string("exception: ") + e.what());
    }
    if (opt.trace) {
        std::printf("\nself time per layer (benchmark spans):\n");
        for (const auto &[layer, ms] : spans().selfMsByLayer()) {
            std::printf("  %-10s %12.3f ms\n", layer.c_str(), ms);
        }
        if (!opt.spansPath.empty() && !spans().write(opt.spansPath)) {
            rep.fail("cannot write " + opt.spansPath);
        }
    }
    return rep.finish();
}
