/**
 * Tests of the benchmark's own arithmetic: the tail percentile's
 * ten-samples-beyond rule, open-loop timing from due times, and the
 * cpu/wall and ledger-residual formulas.
 */

#include <gtest/gtest.h>

#include <vector>

#include "stats.h"

using namespace perfbench;

namespace {

std::vector<double>
oneTo(int n)
{
    std::vector<double> v;
    for (int i = n; i >= 1; --i) // unsorted on purpose
        v.push_back(double(i));
    return v;
}

} // namespace

TEST(Percentile, NearestRank)
{
    EXPECT_EQ(percentile(oneTo(100), 0.5), 50.0);
    EXPECT_EQ(percentile(oneTo(100), 0.99), 99.0);
    EXPECT_EQ(percentile(oneTo(100), 1.0), 100.0);
    EXPECT_EQ(percentile(oneTo(3), 0.0), 1.0);
    EXPECT_EQ(median(oneTo(5)), 3.0);
    EXPECT_EQ(percentile({}, 0.5), 0.0);
}

TEST(TailPercentile, P99OnceTenSamplesLieBeyondIt)
{
    const Tail t = tailPercentile(oneTo(1000));
    EXPECT_DOUBLE_EQ(t.q, 0.99);
    EXPECT_EQ(t.value, 990.0);
    EXPECT_EQ(t.beyond, 10u);
    EXPECT_EQ(t.samples, 1000u);

    const Tail big = tailPercentile(oneTo(5000));
    EXPECT_DOUBLE_EQ(big.q, 0.99);
    EXPECT_EQ(big.beyond, 50u);
}

TEST(TailPercentile, FewerSamplesLowerThePercentile)
{
    // 100 samples: p99 would leave one beyond, so p90 is reported.
    const Tail t = tailPercentile(oneTo(100));
    EXPECT_DOUBLE_EQ(t.q, 0.90);
    EXPECT_EQ(t.value, 90.0);
    EXPECT_EQ(t.beyond, 10u);

    // 999 samples: 989 / 999, still ten beyond.
    const Tail u = tailPercentile(oneTo(999));
    EXPECT_EQ(u.beyond, 10u);
    EXPECT_LT(u.q, 0.99);
}

TEST(TailPercentile, NoPercentileQualifiesWithTenOrFewer)
{
    const Tail t = tailPercentile(oneTo(10));
    EXPECT_EQ(t.q, 0.0);
    EXPECT_EQ(t.value, 1.0);
    EXPECT_EQ(tailPercentile({}).samples, 0u);
}

namespace {

/** A clock the test advances: sleeping jumps to the target, work
 *  costs what the schedule says. */
struct FakeClock
{
    double t = 100.0;
    std::vector<double> cost;

    std::vector<OpTiming>
    run(double period)
    {
        return runOpenLoop(
            cost.size(), period, [this] { return t; },
            [this](double until) { t = until; },
            [this](std::size_t i) { t += cost[i]; });
    }
};

} // namespace

TEST(OpenLoop, IdleGeneratorIssuesOnTime)
{
    FakeClock c;
    c.cost.assign(20, 0.25);
    const std::vector<OpTiming> ops = c.run(1.0);
    for (std::size_t i = 0; i < ops.size(); ++i) {
        EXPECT_DOUBLE_EQ(ops[i].due, 100.0 + double(i));
        EXPECT_DOUBLE_EQ(ops[i].lateness(), 0.0);
        EXPECT_DOUBLE_EQ(ops[i].latency(), 0.25);
    }
    EXPECT_FALSE(latenessGrows(ops, 0.5));
}

TEST(OpenLoop, StallDelaysTheRoundsBehindIt)
{
    // Round 3 stalls for 3.5 periods; later rounds cost 0.25 each, so
    // the generator catches up 0.75 per period.
    FakeClock c;
    c.cost.assign(20, 0.25);
    c.cost[3] = 3.5;
    const std::vector<OpTiming> ops = c.run(1.0);
    EXPECT_DOUBLE_EQ(ops[3].latency(), 3.5);
    // Round 4 was due at 104 but could start only at 106.5.
    EXPECT_DOUBLE_EQ(ops[4].lateness(), 2.5);
    EXPECT_DOUBLE_EQ(ops[4].latency(), 2.75);
    EXPECT_DOUBLE_EQ(ops[5].latency(), 2.0);
    EXPECT_DOUBLE_EQ(ops[6].latency(), 1.25);
    EXPECT_DOUBLE_EQ(ops[7].latency(), 0.5);
    EXPECT_DOUBLE_EQ(ops[8].lateness(), 0.0);
    EXPECT_DOUBLE_EQ(ops[8].latency(), 0.25);
    // Timed from the start instead, rounds 4-7 would look unaffected.
    EXPECT_DOUBLE_EQ(ops[5].end - ops[5].start, 0.25);
    // A one-off stall that is caught up is not a growing backlog.
    EXPECT_FALSE(latenessGrows(ops, 0.5));
}

TEST(OpenLoop, OverloadShowsAsGrowingLateness)
{
    FakeClock c;
    c.cost.assign(50, 1.2); // 20 % over capacity
    const std::vector<OpTiming> ops = c.run(1.0);
    EXPECT_NEAR(ops.back().lateness(), 49 * 0.2, 1e-9);
    EXPECT_TRUE(latenessGrows(ops, 0.5));
}

TEST(CpuWall, BusyThreads)
{
    EXPECT_DOUBLE_EQ(cpuWall(8.0, 2.0), 4.0);
    EXPECT_DOUBLE_EQ(cpuWall(1.0, 1.0), 1.0);
    EXPECT_DOUBLE_EQ(cpuWall(1.0, 0.0), 0.0);
}

TEST(LedgerResidual, UnexplainedShare)
{
    EXPECT_DOUBLE_EQ(ledgerResidual(10.0, {2.0, 3.0, 4.0}), 0.1);
    EXPECT_DOUBLE_EQ(ledgerResidual(10.0, {}), 1.0);
    EXPECT_DOUBLE_EQ(ledgerResidual(10.0, {6.0, 6.0}), -0.2);
    EXPECT_DOUBLE_EQ(ledgerResidual(0.0, {1.0}), 0.0);
}
