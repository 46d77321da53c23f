/**
 * @file
 * Arithmetic the benchmark reports with: percentiles under the
 * ten-samples-beyond rule, open-loop scheduling timed from due times,
 * cpu/wall ratios and the ledger residual. Pure functions (the
 * open-loop runner takes its clock as a parameter) so tests can pin
 * each rule with synthetic inputs.
 */

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace perfbench {

/** Nearest-rank percentile, q in [0, 1]; 0 for an empty sample. */
double percentile(std::vector<double> values, double q);

/** Median (nearest-rank p50). */
double median(std::vector<double> values);

/** A tail percentile and the evidence behind it. */
struct Tail
{
    double q = 0.0;         ///< the percentile used, in [0, 1]
    double value = 0.0;     ///< its value
    std::size_t beyond = 0; ///< samples strictly above its rank
    std::size_t samples = 0;
};

/**
 * The highest percentile, at most @p maxQ, that has at least
 * @p minBeyond samples beyond it. With n samples the nearest rank k
 * of percentile q is ceil(q n), leaving n - k beyond, so q is capped
 * at (n - minBeyond) / n. With no more than @p minBeyond samples no
 * percentile qualifies and q is 0 (value = minimum).
 */
Tail tailPercentile(std::vector<double> values, double maxQ = 0.99,
                    std::size_t minBeyond = 10);

/** One operation of a load generator, in seconds on its clock. */
struct OpTiming
{
    double due = 0.0;   ///< when the operation should have been issued
    double start = 0.0; ///< when the generator issued it
    double end = 0.0;   ///< when it completed

    /** Latency as a user sees it: from the due time, so a stall also
     *  delays every operation queued behind it. */
    double latency() const { return end - due; }
    /** How late the generator issued the operation. */
    double lateness() const { return start - due; }
};

/**
 * Open loop: operation i is due at t0 + i * period whatever happened
 * before it. The generator waits (through @p sleepUntil) until the due
 * time, or issues at once when it is already late, then runs
 * @p work(i). @p now is the clock (seconds).
 */
std::vector<OpTiming>
runOpenLoop(std::size_t ops, double period,
            const std::function<double()> &now,
            const std::function<void(double)> &sleepUntil,
            const std::function<void(std::size_t)> &work);

/**
 * Whether the generator falls further behind over the run: the mean
 * lateness of the last tenth of operations exceeds that of the first
 * tenth by more than @p slack seconds.
 */
bool latenessGrows(const std::vector<OpTiming> &ops, double slack);

/** Busy threads implied by a region: CPU seconds per wall second. */
double cpuWall(double cpuSeconds, double wallSeconds);

/**
 * Share of a measured total that the ledger does not explain:
 * 1 - sum(parts) / total. Negative when the parts over-explain it
 * (overlapping spans or unit costs measured on a faster path).
 */
double ledgerResidual(double total, const std::vector<double> &parts);

/** Process CPU time (user + system), seconds. */
double processCpuSeconds();

/** Steady clock, seconds since an arbitrary epoch. */
double wallSeconds();

/** Peak resident set of this process, MiB. */
double peakRssMb();

} // namespace perfbench

#endif // PERFBENCH_STATS_H
