/**
 * @file
 * The three benchmark workloads (campaign, replay, stream) and what
 * one run of them reports.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

#include "probes.h"

namespace perfbench {

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    /** Traced run: per-layer metrics instead of end-to-end ones. */
    bool trace = false;
    /** Built with the layer wrappers (see wrap.cc). */
    bool wrapped = false;
    /** Scratch directory inside the checkout (corpus, span dumps). */
    std::string outDir = ".bench_out";
};

struct Result
{
    std::vector<std::string> violations; ///< failed correctness checks
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    Metrics metrics;
    /** Everything else worth keeping, as JSON object fields. */
    std::vector<std::pair<std::string, std::string>> detail;

    bool correct() const { return violations.empty(); }
};

/** Names of the workloads, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Run @p opt.workload. Exits on a set-up failure. */
Result runWorkload(const Options &opt);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
