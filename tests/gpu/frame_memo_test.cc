/**
 * @file
 * The shared rendered-frame memo: a hit returns exactly what a fresh
 * Pipeline::render returns, a hash collision never returns another
 * scene's counters, a full memo keeps rendering correctly without
 * growing, and concurrent lookups from several threads agree with a
 * serial reference (the ThreadSanitizer job runs this suite).
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <thread>
#include <vector>

#include "gpu/frame_memo.h"
#include "gpu/model.h"
#include "gpu/pipeline.h"
#include "gpu/render_engine.h"
#include "util/event_queue.h"
#include "util/rng.h"

namespace gpusc::gpu {
namespace {

gfx::FrameScene
randomScene(Rng &rng)
{
    gfx::FrameScene s;
    s.damage = gfx::Rect::ofSize(int(rng.uniformInt(-16, 16)),
                                 int(rng.uniformInt(-16, 16)),
                                 int(rng.uniformInt(64, 400)),
                                 int(rng.uniformInt(48, 300)));
    const int prims = int(rng.uniformInt(1, 12));
    for (int p = 0; p < prims; ++p)
        s.add(gfx::Rect::ofSize(int(rng.uniformInt(-40, 380)),
                                int(rng.uniformInt(-40, 280)),
                                int(rng.uniformInt(1, 200)),
                                int(rng.uniformInt(1, 150))),
              rng.uniform() < 0.6, gfx::PrimTag::KeyCap);
    return s;
}

std::vector<gfx::FrameScene>
scenePool(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<gfx::FrameScene> pool;
    while (pool.size() < n) {
        gfx::FrameScene s = randomScene(rng);
        if (!s.empty())
            pool.push_back(std::move(s));
    }
    return pool;
}

void
expectSame(const FrameResult &got, const FrameResult &want)
{
    EXPECT_EQ(got.deltas, want.deltas);
    EXPECT_EQ(got.rasterizedPixels, want.rasterizedPixels);
}

TEST(FrameMemoTest, HitEqualsFreshRender)
{
    const GpuModel &model = adrenoModel(650);
    FrameMemo memo(model);
    Pipeline pipe(model), ref(model);
    const std::vector<gfx::FrameScene> pool = scenePool(24, 11);
    for (int pass = 0; pass < 3; ++pass)
        for (const gfx::FrameScene &s : pool)
            expectSame(memo.lookupOrRender(s.contentHash(), s, pipe),
                       ref.render(s));
    EXPECT_EQ(memo.entries(), pool.size());
    EXPECT_GT(memo.bytes(), 0u);
}

TEST(FrameMemoTest, ForcedHashCollisionKeepsScenesApart)
{
    const GpuModel &model = adrenoModel(650);
    FrameMemo memo(model);
    Pipeline pipe(model), ref(model);
    const std::vector<gfx::FrameScene> pool = scenePool(2, 12);
    ASSERT_FALSE(pool[0] == pool[1]);
    const FrameResult want0 = ref.render(pool[0]);
    const FrameResult want1 = ref.render(pool[1]);
    ASSERT_NE(want0.deltas, want1.deltas);

    constexpr std::uint64_t kHash = 42;
    for (int pass = 0; pass < 2; ++pass) {
        expectSame(memo.lookupOrRender(kHash, pool[0], pipe), want0);
        expectSame(memo.lookupOrRender(kHash, pool[1], pipe), want1);
    }
    EXPECT_EQ(memo.entries(), 2u);
}

TEST(FrameMemoTest, FullMemoStillRendersAndDoesNotGrow)
{
    const GpuModel &model = adrenoModel(640);
    FrameMemo memo(model);
    Pipeline pipe(model), ref(model);
    const std::vector<gfx::FrameScene> pool =
        scenePool(FrameMemo::kCapacity + 8, 13);
    for (const gfx::FrameScene &s : pool)
        memo.lookupOrRender(s.contentHash(), s, pipe);
    ASSERT_EQ(memo.entries(), FrameMemo::kCapacity);
    const std::size_t bytes = memo.bytes();

    // Scenes that found no room render afresh on every lookup.
    for (int pass = 0; pass < 2; ++pass)
        for (const gfx::FrameScene &s : pool)
            expectSame(memo.lookupOrRender(s.contentHash(), s, pipe),
                       ref.render(s));
    EXPECT_EQ(memo.entries(), FrameMemo::kCapacity);
    EXPECT_EQ(memo.bytes(), bytes);
}

TEST(FrameMemoDeathTest, PipelineOfAnotherModelIsFatal)
{
    FrameMemo memo(adrenoModel(650));
    Pipeline pipe(adrenoModel(540));
    const gfx::FrameScene s = scenePool(1, 15)[0];
    EXPECT_DEATH(memo.lookupOrRender(s.contentHash(), s, pipe),
                 "FrameMemo: pipeline is for");
}

TEST(FrameMemoTest, FourThreadsAgreeWithSerialReference)
{
    const GpuModel &model = adrenoModel(650);
    // More scenes than the cap, so the threads race on the last free
    // slots as well as on lookups.
    const std::vector<gfx::FrameScene> pool =
        scenePool(FrameMemo::kCapacity + 16, 16);
    std::vector<FrameResult> want;
    Pipeline ref(model);
    for (const gfx::FrameScene &s : pool)
        want.push_back(ref.render(s));

    FrameMemo memo(model);
    constexpr int kThreads = 4;
    std::vector<int> mismatches(kThreads, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            Pipeline pipe(model);
            for (int pass = 0; pass < 2; ++pass)
                for (std::size_t i = 0; i < pool.size(); ++i) {
                    // Each thread walks the pool from its own offset.
                    const std::size_t k =
                        (i + std::size_t(t) * 521) % pool.size();
                    const FrameResult f = memo.lookupOrRender(
                        pool[k].contentHash(), pool[k], pipe);
                    if (f.deltas != want[k].deltas ||
                        f.rasterizedPixels != want[k].rasterizedPixels)
                        ++mismatches[std::size_t(t)];
                }
        });
    for (std::thread &th : threads)
        th.join();
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(mismatches[std::size_t(t)], 0) << "thread " << t;
    EXPECT_EQ(memo.entries(), FrameMemo::kCapacity);
}

TEST(FrameMemoTest, EnginesShareOneMemo)
{
    const GpuModel &model = adrenoModel(650);
    auto memo = std::make_shared<FrameMemo>(model);
    const std::vector<gfx::FrameScene> pool = scenePool(5, 17);
    EventQueue eqA, eqB;
    RenderEngine a(eqA, model, 1, memo), b(eqB, model, 2, memo);
    for (const gfx::FrameScene &s : pool)
        eqA.runUntil(a.submit(s));
    EXPECT_EQ(memo->entries(), pool.size());
    for (const gfx::FrameScene &s : pool)
        eqB.runUntil(b.submit(s));
    EXPECT_EQ(memo->entries(), pool.size());
    EXPECT_EQ(a.readAll(), b.readAll());
}

} // namespace
} // namespace gpusc::gpu
