/**
 * @file
 * perfbench --workload campaign|replay|stream --seed N --seconds S
 *           --trace 0|1 [--out-dir DIR]
 *
 * Runs one workload. Prints a detail record (host, set-up samples,
 * timed regions with cpu/wall, correctness checks) as one JSON line,
 * then, as the last line, {"correct", "attempted", "failed",
 * "metrics"}: the end-to-end metrics with --trace 0, the per-layer
 * ones with --trace 1. Exits 1 when a correctness check fails and 2 on
 * bad arguments.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "util/logging.h"
#include "workloads.h"

#ifndef PERFBENCH_TRACED
#define PERFBENCH_TRACED 0
#endif

namespace {

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "campaign|replay|stream --seed N --seconds S --trace 0|1 "
                 "[--out-dir DIR]\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
#ifdef __GLIBC__
    // Fixed thresholds: blocks of 1 MiB and up (the render mask of each
    // gpu::Pipeline, about 2.4 MB) are always mapped, and unmapped on
    // free. By default glibc raises the mmap threshold after the first
    // such free, so later masks stay cached in whichever worker arena
    // freed them, and campaign's peak RSS moved in 2.4 MB steps from run
    // to run (16-23 MB over ten seeds on a shared 4-vCPU x86-64 host).
    // The trim threshold is raised as glibc's own adjustment raises it;
    // left at 128 KiB, heaps were trimmed and regrown each round, which
    // cost campaign 7 % of its trials/s on that host.
    mallopt(M_MMAP_THRESHOLD, 1 << 20);
    mallopt(M_TRIM_THRESHOLD, 8 << 20);
#endif
    gpusc::setVerbose(false);
    perfbench::Options opt;
    opt.wrapped = PERFBENCH_TRACED;
    bool haveWorkload = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i], val = argv[i + 1];
        char *end = nullptr;
        if (key == "--workload") {
            opt.workload = val;
            haveWorkload = true;
        } else if (key == "--seed") {
            opt.seed = std::strtoull(val.c_str(), &end, 10);
        } else if (key == "--seconds") {
            opt.seconds = std::strtod(val.c_str(), &end);
        } else if (key == "--trace") {
            opt.trace = val == "1";
            if (val != "0" && val != "1")
                return usage("--trace takes 0 or 1");
        } else if (key == "--out-dir") {
            opt.outDir = val;
        } else {
            return usage(("unknown option " + key).c_str());
        }
        if (end && *end)
            return usage(("bad value for " + key).c_str());
    }
    if (argc % 2 == 0)
        return usage("options take one value each");
    bool known = false;
    for (const std::string &w : perfbench::workloadNames())
        known = known || w == opt.workload;
    if (!haveWorkload || !known)
        return usage("--workload must be campaign, replay or stream");
    if (!(opt.seconds > 0.0))
        return usage("--seconds must be positive");
    if (opt.trace && !opt.wrapped)
        return usage("--trace 1 needs the perfbench_traced build");
    std::filesystem::create_directories(opt.outDir);

    const perfbench::Result res = perfbench::runWorkload(opt);

    std::string detail = "{";
    for (std::size_t i = 0; i < res.detail.size(); ++i)
        detail += (i ? ", \"" : "\"") + res.detail[i].first +
                  "\": " + res.detail[i].second;
    std::printf("%s}\n", detail.c_str());

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                res.correct() ? "true" : "false",
                (unsigned long long)res.attempted,
                (unsigned long long)res.failed);
    for (std::size_t i = 0; i < res.metrics.size(); ++i) {
        const perfbench::Metric &m = res.metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("}}\n");
    for (const std::string &v : res.violations)
        std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", v.c_str());
    return res.correct() ? 0 : 1;
}
