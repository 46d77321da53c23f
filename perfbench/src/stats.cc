#include "stats.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>
#include <numeric>

#include <sys/resource.h>

namespace perfbench {

namespace {

/** 1-based nearest rank of percentile q over n samples. */
std::size_t
nearestRank(double q, std::size_t n)
{
    const double k = std::ceil(q * double(n) - 1e-9);
    return std::clamp<std::size_t>(std::size_t(k < 1 ? 1 : k), 1, n);
}

} // namespace

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    return values[nearestRank(q, values.size()) - 1];
}

double
median(std::vector<double> values)
{
    return percentile(std::move(values), 0.5);
}

Tail
tailPercentile(std::vector<double> values, double maxQ,
               std::size_t minBeyond)
{
    Tail t;
    t.samples = values.size();
    if (values.empty())
        return t;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    if (n <= minBeyond) {
        t.value = values.front();
        t.beyond = n - 1;
        return t;
    }
    std::size_t k = nearestRank(maxQ, n);
    k = std::min(k, n - minBeyond);
    t.q = double(k) / double(n);
    t.value = values[k - 1];
    t.beyond = n - k;
    return t;
}

std::vector<OpTiming>
runOpenLoop(std::size_t ops, double period,
            const std::function<double()> &now,
            const std::function<void(double)> &sleepUntil,
            const std::function<void(std::size_t)> &work)
{
    std::vector<OpTiming> out(ops);
    const double t0 = now();
    for (std::size_t i = 0; i < ops; ++i) {
        OpTiming &op = out[i];
        op.due = t0 + double(i) * period;
        double t = now();
        if (t < op.due) {
            sleepUntil(op.due);
            t = now();
        }
        op.start = t;
        work(i);
        op.end = now();
    }
    return out;
}

bool
latenessGrows(const std::vector<OpTiming> &ops, double slack)
{
    const std::size_t tenth = ops.size() / 10;
    if (tenth == 0)
        return false;
    double first = 0.0, last = 0.0;
    for (std::size_t i = 0; i < tenth; ++i) {
        first += ops[i].lateness();
        last += ops[ops.size() - 1 - i].lateness();
    }
    return (last - first) / double(tenth) > slack;
}

double
cpuWall(double cpuSeconds, double wallSeconds)
{
    return wallSeconds > 0.0 ? cpuSeconds / wallSeconds : 0.0;
}

double
ledgerResidual(double total, const std::vector<double> &parts)
{
    if (total <= 0.0)
        return 0.0;
    return 1.0 - std::accumulate(parts.begin(), parts.end(), 0.0) / total;
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

double
wallSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

} // namespace perfbench
