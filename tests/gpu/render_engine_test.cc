/** @file Unit tests for the timed GPU front-end. */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

#include "gpu/model.h"
#include "gpu/pipeline.h"
#include "gpu/render_engine.h"
#include "util/event_queue.h"
#include "util/rng.h"

namespace gpusc::gpu {
namespace {

using namespace gpusc::sim_literals;

gfx::FrameScene
quadScene(int w = 256, int h = 256)
{
    gfx::FrameScene s;
    s.damage = gfx::Rect::ofSize(0, 0, w, h);
    s.add(s.damage, true, gfx::PrimTag::Background);
    return s;
}

class RenderEngineTest : public ::testing::Test
{
  protected:
    EventQueue eq_;
    RenderEngine engine_{eq_, adrenoModel(650), 1};
};

TEST_F(RenderEngineTest, StartsAtZero)
{
    for (std::size_t i = 0; i < kNumSelectedCounters; ++i)
        EXPECT_EQ(engine_.read(SelectedCounter(i)), 0u);
    EXPECT_FALSE(engine_.busyNow());
}

TEST_F(RenderEngineTest, CountersAccumulateAfterCompletion)
{
    const SimTime end = engine_.submit(quadScene());
    EXPECT_GT(end, eq_.now());
    eq_.runUntil(end + 1_ms);
    EXPECT_EQ(engine_.read(LRZ_VISIBLE_PIXEL_AFTER_LRZ),
              256u * 256u);
    EXPECT_EQ(engine_.read(VPC_PC_PRIMITIVES), 2u);
    EXPECT_EQ(engine_.framesRendered(), 1u);
}

TEST_F(RenderEngineTest, MidFrameReadSplitsButSumsExactly)
{
    const SimTime start = eq_.now();
    const SimTime end = engine_.submit(quadScene(1024, 1024));
    ASSERT_GT((end - start).ns(), 4); // long enough to bisect
    // Read halfway through the render.
    eq_.runUntil(start + (end - start) / 2);
    const CounterTotals mid = engine_.readAll();
    EXPECT_GT(mid[LRZ_VISIBLE_PIXEL_AFTER_LRZ], 0u);
    EXPECT_LT(mid[LRZ_VISIBLE_PIXEL_AFTER_LRZ], 1024u * 1024u);
    // After completion the pieces sum to the exact total.
    eq_.runUntil(end + 1_ms);
    EXPECT_EQ(engine_.read(LRZ_VISIBLE_PIXEL_AFTER_LRZ),
              1024u * 1024u);
}

TEST_F(RenderEngineTest, ReadsAreMonotonic)
{
    engine_.submit(quadScene());
    std::uint64_t prev = 0;
    for (int i = 0; i < 20; ++i) {
        eq_.runUntil(eq_.now() + SimTime::fromUs(100));
        const std::uint64_t v =
            engine_.read(RAS_SUPERTILE_ACTIVE_CYCLES);
        EXPECT_GE(v, prev);
        prev = v;
    }
}

TEST_F(RenderEngineTest, JobsSerializeOnTheGpu)
{
    const SimTime end1 = engine_.submit(quadScene());
    const SimTime end2 = engine_.submit(quadScene());
    EXPECT_GT(end2, end1); // second job queues behind the first
    EXPECT_TRUE(engine_.busyNow());
}

TEST_F(RenderEngineTest, EmptySceneIsIgnored)
{
    const SimTime end = engine_.submit(gfx::FrameScene{});
    EXPECT_EQ(end, eq_.now());
    EXPECT_EQ(engine_.framesRendered(), 0u);
}

TEST_F(RenderEngineTest, ComputeJobsOccupyTimeWithoutCounters)
{
    const SimTime end = engine_.submitCompute(5_ms);
    EXPECT_EQ(end, eq_.now() + 5_ms);
    EXPECT_TRUE(engine_.busyNow());
    eq_.runUntil(end + 1_ms);
    for (std::size_t i = 0; i < kNumSelectedCounters; ++i)
        EXPECT_EQ(engine_.read(SelectedCounter(i)), 0u);
    EXPECT_EQ(engine_.totalBusyTime(), 5_ms);
}

TEST_F(RenderEngineTest, BusyPercentReflectsLoad)
{
    eq_.runUntil(200_ms);
    EXPECT_NEAR(engine_.busyPercent(), 0.0, 1e-9);
    engine_.submitCompute(50_ms); // half of the 100ms window
    eq_.runUntil(eq_.now() + 100_ms);
    EXPECT_NEAR(engine_.busyPercent(), 50.0, 5.0);
}

TEST_F(RenderEngineTest, IdenticalScenesHitTheCache)
{
    // Same content twice: both render (counters double) even though
    // the pipeline work is memoised.
    const auto s = quadScene();
    const SimTime e1 = engine_.submit(s);
    eq_.runUntil(e1 + 1_ms);
    const SimTime e2 = engine_.submit(s);
    eq_.runUntil(e2 + 1_ms);
    EXPECT_EQ(engine_.read(LRZ_VISIBLE_PIXEL_AFTER_LRZ),
              2u * 256u * 256u);
}

TEST_F(RenderEngineTest, NoisePerturbsOnlyActiveCounters)
{
    engine_.setNoiseSigma(3.0);
    const SimTime end = engine_.submit(quadScene());
    eq_.runUntil(end + 1_ms);
    // Counters that were zero in the scene stay exactly zero.
    EXPECT_EQ(engine_.read(LRZ_FULL_8X8_TILES), 0u);
    // Active counters stay in a tight band around the true value.
    const auto pix = engine_.read(LRZ_VISIBLE_PIXEL_AFTER_LRZ);
    EXPECT_NEAR(double(pix), 256.0 * 256.0, 30.0);
}

TEST_F(RenderEngineTest, NoiseIsSeedDeterministic)
{
    EventQueue eqA, eqB;
    RenderEngine a(eqA, adrenoModel(650), 99);
    RenderEngine b(eqB, adrenoModel(650), 99);
    a.setNoiseSigma(2.0);
    b.setNoiseSigma(2.0);
    const SimTime ea = a.submit(quadScene());
    const SimTime eb = b.submit(quadScene());
    eqA.runUntil(ea + 1_ms);
    eqB.runUntil(eb + 1_ms);
    EXPECT_EQ(a.readAll(), b.readAll());
}

TEST_F(RenderEngineTest, LargerScenesTakeLonger)
{
    EventQueue eq2;
    RenderEngine e2(eq2, adrenoModel(650), 1);
    const SimTime small = e2.submit(quadScene(64, 64)) - eq2.now();
    eq2.runUntil(eq2.now() + 1_s);
    const SimTime big =
        e2.submit(quadScene(1024, 1024)) - eq2.now();
    EXPECT_GT(big, small);
}

/** A job as the reference sees it: its interval, deltas and owner. */
struct RefJob
{
    SimTime start;
    SimTime end;
    CounterVec deltas{};
    int pid = 0;
};

/** Counters of @p j observable at @p t: nothing before its start, all
 *  of it from its end on, a linear share in between. */
CounterVec
refAccrued(const RefJob &j, SimTime t)
{
    CounterVec out{};
    if (t <= j.start)
        return out;
    if (t >= j.end)
        return j.deltas;
    const double frac = double((t - j.start).ns()) /
                        double((j.end - j.start).ns());
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = std::int64_t(double(j.deltas[i]) * frac);
    return out;
}

/** Sum of refAccrued over every job ever submitted (by @p pid, or by
 *  anyone when @p pid is null). */
CounterTotals
refTotals(const std::vector<RefJob> &jobs, SimTime t, const int *pid)
{
    CounterTotals out{};
    for (const RefJob &j : jobs) {
        if (pid && j.pid != *pid)
            continue;
        const CounterVec acc = refAccrued(j, t);
        for (std::size_t i = 0; i < out.size(); ++i)
            out[i] += std::uint64_t(acc[i]);
    }
    return out;
}

double
refBusyPercent(const std::vector<RefJob> &jobs, SimTime now)
{
    const SimTime window = 100_ms;
    const SimTime winStart = now > window ? now - window : SimTime();
    std::int64_t busyNs = 0;
    for (const RefJob &j : jobs) {
        const SimTime s = std::max(j.start, winStart);
        const SimTime e = std::min(j.end, now);
        if (e > s)
            busyNs += (e - s).ns();
    }
    const std::int64_t winNs = (now - winStart).ns();
    return winNs <= 0 ? 0.0 : 100.0 * double(busyNs) / double(winNs);
}

class RenderEngineFoldTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RenderEngineFoldTest, ReadsMatchSumOverEveryJob)
{
    const GpuModel &model = adrenoModel(650);
    Rng rng(GetParam());

    // A small pool of scenes (the engine's content memo stays warm);
    // the reference renders each once on its own pipeline.
    std::vector<gfx::FrameScene> pool;
    Pipeline pipe(model);
    std::vector<CounterVec> poolDeltas;
    for (int k = 0; k < 6; ++k) {
        gfx::FrameScene s;
        s.damage = gfx::Rect::ofSize(0, 0, 64 + 96 * k, 48 + 64 * k);
        s.add(s.damage, true, gfx::PrimTag::Background);
        for (int p = 0; p < k; ++p)
            s.add(gfx::Rect::ofSize(8 * p, 5 * p, 40 + 30 * p, 24 + 9 * p),
                  p % 2 == 0, gfx::PrimTag::KeyCap);
        poolDeltas.push_back(pipe.render(s).deltas);
        pool.push_back(std::move(s));
    }

    EventQueue eq;
    RenderEngine engine(eq, model, 1);
    std::vector<RefJob> jobs;
    SimTime busyUntil;
    const std::array<int, 3> pids = {0, 7, 42};
    std::size_t midJobReads = 0;

    for (int step = 0; step < 1500; ++step) {
        const double u = rng.uniform();
        if (u < 0.30) {
            const std::size_t k =
                std::size_t(rng.uniformInt(0, std::int64_t(pool.size()) - 1));
            const int pid = rng.pick(pids);
            const SimTime start = std::max(eq.now(), busyUntil);
            const SimTime end = engine.submit(pool[k], pid);
            jobs.push_back({start, end, poolDeltas[k], pid});
            busyUntil = end;
        } else if (u < 0.40) {
            const SimTime dur =
                SimTime::fromUs(rng.uniformInt(0, 3000));
            const SimTime start = std::max(eq.now(), busyUntil);
            const SimTime end = engine.submitCompute(dur);
            if (dur.ns() > 0) {
                jobs.push_back({start, end, CounterVec{}, 0});
                busyUntil = end;
            } else {
                EXPECT_EQ(end, eq.now());
            }
        } else if (u < 0.43) {
            // Jump past the 500 ms retirement age.
            eq.runUntil(eq.now() + SimTime::fromMs(rng.uniformInt(400, 900)));
        } else {
            eq.runUntil(eq.now() + SimTime::fromUs(rng.uniformInt(0, 2500)));
        }

        const SimTime now = eq.now();
        for (const RefJob &j : jobs)
            if (now > j.start && now < j.end)
                ++midJobReads;
        switch (rng.uniformInt(0, 3)) {
          case 0:
            ASSERT_EQ(engine.readAll(), refTotals(jobs, now, nullptr))
                << "step " << step;
            break;
          case 1: {
            const int pid = rng.pick(pids);
            ASSERT_EQ(engine.readLocal(pid), refTotals(jobs, now, &pid))
                << "step " << step << " pid " << pid;
            break;
          }
          case 2:
            ASSERT_DOUBLE_EQ(engine.busyPercent(),
                             refBusyPercent(jobs, now))
                << "step " << step;
            break;
          default: {
            const auto c = SelectedCounter(
                rng.uniformInt(0, kNumSelectedCounters - 1));
            ASSERT_EQ(engine.read(c), refTotals(jobs, now, nullptr)[c])
                << "step " << step;
            break;
          }
        }
    }
    // The sequence exercised reads inside running jobs.
    EXPECT_GT(midJobReads, 50u);
    eq.runUntil(eq.now() + 1_s);
    EXPECT_EQ(engine.readAll(), refTotals(jobs, eq.now(), nullptr));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RenderEngineFoldTest,
                         ::testing::Values(1u, 2u, 3u, 4u));

} // namespace
} // namespace gpusc::gpu
