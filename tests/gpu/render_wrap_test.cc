/**
 * @file
 * Counts real calls to gpu::Pipeline::render. This binary is linked
 * with ld --wrap on render's mangled symbol (see tests/CMakeLists.txt),
 * so every call from another object file — the frame memo's, this
 * file's — lands in the counting wrapper below. It pins that a memo
 * miss through RenderEngine::submit reaches render exactly once and a
 * hit never does, and so also that render stays an out-of-line call a
 * link-time wrapper (perfbench's traced ledger) can see.
 *
 * A member function is called like a free function whose first
 * argument is the object pointer (Itanium C++ ABI), which is what the
 * declarations below rely on.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <memory>

#include "attack/model_store.h"
#include "eval/experiment.h"
#include "exec/parallel_runner.h"
#include "gpu/frame_memo.h"
#include "gpu/model.h"
#include "gpu/pipeline.h"
#include "gpu/render_engine.h"
#include "util/event_queue.h"

namespace {

std::atomic<long> renderCalls{0};

} // namespace

#define RENDER_SYM _ZN5gpusc3gpu8Pipeline6renderERKNS_3gfx10FrameSceneE
#define WRAP2(prefix, sym) prefix##sym
#define WRAP1(prefix, sym) WRAP2(prefix, sym)

extern "C" {

gpusc::gpu::FrameResult WRAP1(__real_, RENDER_SYM)(
    gpusc::gpu::Pipeline *, const gpusc::gfx::FrameScene &);

gpusc::gpu::FrameResult
WRAP1(__wrap_, RENDER_SYM)(gpusc::gpu::Pipeline *self,
                           const gpusc::gfx::FrameScene &scene)
{
    renderCalls.fetch_add(1, std::memory_order_relaxed);
    return WRAP1(__real_, RENDER_SYM)(self, scene);
}

} // extern "C"

namespace gpusc::gpu {
namespace {

gfx::FrameScene
scene(int w, int h)
{
    gfx::FrameScene s;
    s.damage = gfx::Rect::ofSize(0, 0, w, h);
    s.add(s.damage, true, gfx::PrimTag::Background);
    s.add(gfx::Rect::ofSize(8, 8, w / 2, h / 3), false,
          gfx::PrimTag::KeyCap);
    return s;
}

TEST(RenderWrapTest, WrapperSeesDirectCalls)
{
    Pipeline pipe(adrenoModel(650));
    const long before = renderCalls.load();
    pipe.render(scene(64, 64));
    EXPECT_EQ(renderCalls.load() - before, 1);
}

TEST(RenderWrapTest, SubmitRendersOnMissOnlyOnce)
{
    const GpuModel &model = adrenoModel(650);
    auto memo = std::make_shared<FrameMemo>(model);
    EventQueue eq;
    RenderEngine engine(eq, model, 1, memo);

    long before = renderCalls.load();
    eq.runUntil(engine.submit(scene(128, 96)));
    EXPECT_EQ(renderCalls.load() - before, 1) << "miss";

    before = renderCalls.load();
    for (int i = 0; i < 5; ++i)
        eq.runUntil(engine.submit(scene(128, 96)));
    EXPECT_EQ(renderCalls.load() - before, 0) << "hits";

    // Another engine on the same memo hits too; one with a private
    // memo misses once.
    EventQueue eq2, eq3;
    RenderEngine shared(eq2, model, 2, memo), own(eq3, model, 3);
    before = renderCalls.load();
    eq2.runUntil(shared.submit(scene(128, 96)));
    EXPECT_EQ(renderCalls.load() - before, 0) << "shared hit";
    eq3.runUntil(own.submit(scene(128, 96)));
    eq3.runUntil(own.submit(scene(128, 96)));
    EXPECT_EQ(renderCalls.load() - before, 1) << "private miss";
}

TEST(RenderWrapTest, CampaignAgainstWarmStoreNeverRenders)
{
    attack::ModelStore store;
    eval::ExperimentConfig cfg;
    cfg.seed = 9001;
    exec::ShardPlan plan;
    plan.shardSize = 2;

    exec::ParallelRunner cold(cfg, store, 2, plan);
    const long before = renderCalls.load();
    const exec::ParallelResult a = cold.runTrials(4, 6, 8);
    EXPECT_GT(renderCalls.load() - before, 0);
    const std::size_t entries = store.frameMemo(cfg.device)->entries();
    EXPECT_LT(entries, FrameMemo::kCapacity);

    // The same seeds replay the same frames: all memo hits.
    exec::ParallelRunner warm(cfg, store, 2, plan);
    const long mid = renderCalls.load();
    const exec::ParallelResult b = warm.runTrials(4, 6, 8);
    EXPECT_EQ(renderCalls.load() - mid, 0);
    EXPECT_EQ(store.frameMemo(cfg.device)->entries(), entries);
    ASSERT_EQ(a.trials.size(), b.trials.size());
    for (std::size_t i = 0; i < a.trials.size(); ++i)
        EXPECT_EQ(a.trials[i].inferred, b.trials[i].inferred) << i;
}

} // namespace
} // namespace gpusc::gpu
