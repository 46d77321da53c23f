/** @file Unit tests for the frame draw-list. */

#include <gtest/gtest.h>

#include <vector>

#include "gfx/scene.h"

namespace gpusc::gfx {
namespace {

TEST(SceneTest, AddClipsAgainstDamage)
{
    FrameScene s;
    s.damage = Rect::ofSize(0, 0, 100, 100);
    s.add(Rect::ofSize(50, 50, 100, 100), true, PrimTag::AppContent);
    ASSERT_EQ(s.prims.size(), 1u);
    EXPECT_EQ(s.prims[0].rect, (Rect{50, 50, 100, 100}));
}

TEST(SceneTest, AddDropsInvisiblePrims)
{
    FrameScene s;
    s.damage = Rect::ofSize(0, 0, 100, 100);
    s.add(Rect::ofSize(200, 200, 10, 10), true, PrimTag::AppContent);
    EXPECT_TRUE(s.prims.empty());
    EXPECT_TRUE(s.empty());
}

TEST(SceneTest, AppendMatchesAddPerPrim)
{
    const std::vector<Prim> src = {
        {Rect::ofSize(-20, -20, 50, 50), true, PrimTag::Background},
        {Rect::ofSize(200, 200, 10, 10), false, PrimTag::KeyCap},
        {Rect{30, 30, 30, 60}, true, PrimTag::KeyLabel},
        {Rect::ofSize(90, 10, 40, 5), false, PrimTag::Popup},
    };
    FrameScene viaAdd, viaAppend;
    viaAdd.damage = viaAppend.damage = Rect::ofSize(0, 0, 100, 100);
    for (const Prim &p : src)
        viaAdd.add(p.rect, p.opaque, p.tag);
    viaAppend.append(src);
    ASSERT_EQ(viaAppend.prims.size(), 2u);
    EXPECT_EQ(viaAppend.prims[0].rect, (Rect{0, 0, 30, 30}));
    EXPECT_EQ(viaAppend.prims[1].rect, (Rect{90, 10, 100, 15}));
    EXPECT_EQ(viaAppend.contentHash(), viaAdd.contentHash());
}

TEST(SceneTest, EmptyDetection)
{
    FrameScene s;
    EXPECT_TRUE(s.empty());
    s.damage = Rect::ofSize(0, 0, 10, 10);
    EXPECT_TRUE(s.empty()); // no prims yet
    s.add(s.damage, true, PrimTag::Background);
    EXPECT_FALSE(s.empty());
}

TEST(SceneTest, HashIsStable)
{
    auto build = [] {
        FrameScene s;
        s.damage = Rect::ofSize(0, 0, 64, 64);
        s.add(Rect::ofSize(1, 2, 3, 4), true, PrimTag::KeyCap);
        s.add(Rect::ofSize(5, 6, 7, 8), false, PrimTag::Popup);
        return s;
    };
    EXPECT_EQ(build().contentHash(), build().contentHash());
}

TEST(SceneTest, HashSensitivity)
{
    FrameScene base;
    base.damage = Rect::ofSize(0, 0, 64, 64);
    base.add(Rect::ofSize(1, 2, 3, 4), true, PrimTag::KeyCap);

    FrameScene moved = base;
    moved.prims[0].rect = Rect::ofSize(2, 2, 3, 4);
    EXPECT_NE(base.contentHash(), moved.contentHash());

    FrameScene translucent = base;
    translucent.prims[0].opaque = false;
    EXPECT_NE(base.contentHash(), translucent.contentHash());

    FrameScene otherDamage = base;
    otherDamage.damage = Rect::ofSize(0, 0, 32, 64);
    EXPECT_NE(base.contentHash(), otherDamage.contentHash());
}

TEST(SceneTest, HashOrderSensitive)
{
    // Back-to-front order matters for occlusion, so it must matter
    // for the cache key.
    FrameScene a, b;
    a.damage = b.damage = Rect::ofSize(0, 0, 64, 64);
    a.add(Rect::ofSize(0, 0, 10, 10), true, PrimTag::KeyCap);
    a.add(Rect::ofSize(5, 5, 10, 10), true, PrimTag::Popup);
    b.add(Rect::ofSize(5, 5, 10, 10), true, PrimTag::Popup);
    b.add(Rect::ofSize(0, 0, 10, 10), true, PrimTag::KeyCap);
    EXPECT_NE(a.contentHash(), b.contentHash());
}

} // namespace
} // namespace gpusc::gfx
