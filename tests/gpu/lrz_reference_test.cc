/**
 * @file
 * Pins Pipeline::render against the plainest per-pixel model of the
 * same hardware: one occlusion byte per pixel of the damage box and
 * 8x8 LRZ blocks at floor-divided absolute multiples of 8. All 11
 * counter deltas and rasterizedPixels must match bit for bit over
 * random scenes, every keyboard's key-press frames on every Adreno
 * generation, and the app-switch transition frames.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "android/keyboard.h"
#include "android/window_manager.h"
#include "gpu/model.h"
#include "gpu/pipeline.h"
#include "util/rng.h"

namespace gpusc::gpu {
namespace {

int
floorDiv(int a, int b)
{
    return a / b - ((a % b != 0) && (a < 0));
}

/** The pipeline, pixel by pixel. RAS reuses the gfx tile helpers,
 *  which geometry_test pins on their own. */
FrameResult
referenceRender(const GpuModel &m, const gfx::FrameScene &scene)
{
    FrameResult res;
    if (scene.empty())
        return res;
    const gfx::Rect dmg = scene.damage;
    std::vector<std::uint8_t> occluded(std::size_t(dmg.area()), 0);
    auto at = [&](int x, int y) -> std::uint8_t & {
        return occluded[std::size_t(y - dmg.y0) * dmg.width() +
                        std::size_t(x - dmg.x0)];
    };
    auto &d = res.deltas;
    for (auto it = scene.prims.rbegin(); it != scene.prims.rend(); ++it) {
        const gfx::Rect r = it->rect.intersect(dmg);
        if (r.empty())
            continue;
        d[VPC_PC_PRIMITIVES] += 2;
        d[VPC_LRZ_ASSIGN_PRIMITIVES] += 2;
        d[VPC_SP_COMPONENTS] += 4 * m.spComponentsPerVertex;
        d[RAS_8X4_TILES] += gfx::tilesTouched(r, m.rasTileW, m.rasTileH);
        d[RAS_FULLY_COVERED_8X4_TILES] +=
            gfx::tilesFullyCovered(r, m.rasTileW, m.rasTileH);
        d[RAS_SUPER_TILES] +=
            gfx::tilesTouched(r, m.superTileW, m.superTileH);
        d[RAS_SUPERTILE_ACTIVE_CYCLES] +=
            r.area() * m.rasCyclesPerKiloPixel / 1000;
        res.rasterizedPixels += r.area();

        std::int64_t visible = 0;
        for (int by = floorDiv(r.y0, 8); by <= floorDiv(r.y1 - 1, 8); ++by) {
            for (int bx = floorDiv(r.x0, 8); bx <= floorDiv(r.x1 - 1, 8);
                 ++bx) {
                int total = 0;
                int hidden = 0;
                for (int y = std::max(r.y0, 8 * by);
                     y < std::min(r.y1, 8 * by + 8); ++y) {
                    for (int x = std::max(r.x0, 8 * bx);
                         x < std::min(r.x1, 8 * bx + 8); ++x) {
                        ++total;
                        hidden += at(x, y);
                    }
                }
                visible += total - hidden;
                if (hidden == total)
                    ++d[LRZ_FULL_8X8_TILES];
                else if (hidden > 0)
                    ++d[LRZ_PARTIAL_8X8_TILES];
            }
        }
        if (it->opaque) {
            for (int y = r.y0; y < r.y1; ++y)
                for (int x = r.x0; x < r.x1; ++x)
                    at(x, y) = 1;
        }
        if (visible > 0) {
            d[LRZ_VISIBLE_PRIM_AFTER_LRZ] += 2;
            d[LRZ_VISIBLE_PIXEL_AFTER_LRZ] += visible;
        }
    }
    return res;
}

/** Expect @p pipe to match the reference on @p scene; @p what names
 *  the scene in a failure. */
void
expectMatchesReference(Pipeline &pipe, const gfx::FrameScene &scene,
                       const std::string &what)
{
    const FrameResult want = referenceRender(pipe.model(), scene);
    const FrameResult got = pipe.render(scene);
    for (std::size_t c = 0; c < kNumSelectedCounters; ++c)
        EXPECT_EQ(got.deltas[c], want.deltas[c])
            << what << ": " << counterName(SelectedCounter(c));
    EXPECT_EQ(got.rasterizedPixels, want.rasterizedPixels) << what;
}

/** A prim rect drawn from shapes that stress block edges: 1-px wide
 *  or tall slivers, rects spilling past any damage edge, the whole
 *  damage box, and rects anywhere near it. Pushed unclipped, so the
 *  pipeline does the clipping. */
gfx::Rect
randomPrimRect(Rng &rng, const gfx::Rect &dmg)
{
    const int x = dmg.x0 + int(rng.uniformInt(-12, dmg.width() + 4));
    const int y = dmg.y0 + int(rng.uniformInt(-12, dmg.height() + 4));
    switch (rng.uniformInt(0, 4)) {
      case 0:
        return gfx::Rect::ofSize(x, y, 1, 1 + int(rng.uniformInt(0, 40)));
      case 1:
        return gfx::Rect::ofSize(x, y, 1 + int(rng.uniformInt(0, 40)), 1);
      case 2:
        return dmg.inset(int(rng.uniformInt(-9, 3)));
      default:
        return gfx::Rect::ofSize(x, y, 1 + int(rng.uniformInt(0, 90)),
                                 1 + int(rng.uniformInt(0, 90)));
    }
}

gfx::FrameScene
randomScene(Rng &rng)
{
    gfx::FrameScene s;
    s.damage = gfx::Rect::ofSize(int(rng.uniformInt(-40, 40)),
                                 int(rng.uniformInt(-40, 40)),
                                 1 + int(rng.uniformInt(0, 150)),
                                 1 + int(rng.uniformInt(0, 150)));
    const int prims = 1 + int(rng.uniformInt(0, 30));
    for (int i = 0; i < prims; ++i) {
        const gfx::Rect r = randomPrimRect(rng, s.damage);
        if (rng.bernoulli(0.15)) {
            // A translucent stack: the same rect several times over.
            for (int k = int(rng.uniformInt(2, 4)); k > 0; --k)
                s.prims.push_back({r, false, gfx::PrimTag::Animation});
        } else {
            s.prims.push_back({r, rng.bernoulli(0.7),
                               gfx::PrimTag::AppContent});
        }
    }
    return s;
}

class LrzRandomSweep : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(LrzRandomSweep, MatchesPerPixelReference)
{
    Rng rng(GetParam());
    const auto &gens = supportedAdrenoGenerations();
    for (int round = 0; round < 400; ++round) {
        Pipeline pipe(adrenoModel(gens[std::size_t(round) % gens.size()]));
        const gfx::FrameScene scene = randomScene(rng);
        expectMatchesReference(pipe, scene,
                               "round " + std::to_string(round) +
                                   " damage " + scene.damage.toString());
        if (HasFailure())
            return;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LrzRandomSweep,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(LrzReferenceTest, NegativeOriginDamage)
{
    Pipeline pipe(adrenoModel(650));
    gfx::FrameScene s;
    s.damage = gfx::Rect::ofSize(-13, -21, 50, 40);
    // An opaque quad over a translucent one, both straddling x = 0 and
    // y = 0: each spans two block columns and rows (blocks -1 and 0),
    // so all four of the back quad's blocks are killed.
    const gfx::Rect quad = gfx::Rect::ofSize(-5, -3, 10, 8);
    s.add(quad, false, gfx::PrimTag::AppContent);
    s.add(quad, true, gfx::PrimTag::Popup);
    const FrameResult r = pipe.render(s);
    EXPECT_EQ(r.deltas[LRZ_FULL_8X8_TILES], 4);
    EXPECT_EQ(r.deltas[LRZ_PARTIAL_8X8_TILES], 0);
    EXPECT_EQ(r.deltas[LRZ_VISIBLE_PIXEL_AFTER_LRZ], quad.area());
    expectMatchesReference(pipe, s, "stacked quads");

    // Random prims over the whole negative-origin box.
    Rng rng(99);
    for (int round = 0; round < 50; ++round) {
        gfx::FrameScene scene;
        scene.damage = s.damage;
        for (int i = 0; i < 12; ++i)
            scene.prims.push_back({randomPrimRect(rng, scene.damage),
                                   rng.bernoulli(0.6),
                                   gfx::PrimTag::AppContent});
        expectMatchesReference(pipe, scene,
                               "negative round " + std::to_string(round));
    }
}

using KeyboardGen = std::tuple<std::string, int>;

class LrzKeyboardSweep : public ::testing::TestWithParam<KeyboardGen>
{
};

TEST_P(LrzKeyboardSweep, KeyPressFramesMatchReference)
{
    using namespace android;
    const auto &[name, gen] = GetParam();
    Pipeline pipe(adrenoModel(gen));
    for (const DisplayConfig &display : {displayFhdPlus(), displayQhdPlus()}) {
        const KeyboardLayout l(keyboardSpec(name), display);
        for (KbPage page : {KbPage::Lower, KbPage::Upper, KbPage::Symbols}) {
            for (const Key &k : l.keys(page)) {
                if (k.code != KeyCode::Char)
                    continue;
                const std::string what = display.name + " '" +
                    std::string(1, k.ch) + "'";
                // The popup-show frame: the whole IME with the popup.
                gfx::FrameScene ime;
                ime.damage = l.surfaceBounds();
                l.buildBase(ime, page);
                l.buildPopup(ime, k, 1.0);
                expectMatchesReference(pipe, ime, what + " ime");
                // The popup region alone, with and without the popup
                // (the dismiss frame): damage not 8-aligned.
                for (bool withPopup : {true, false}) {
                    gfx::FrameScene popup;
                    popup.damage = l.popupMaxRect(k);
                    l.buildBase(popup, page);
                    if (withPopup)
                        l.buildPopup(popup, k, 1.0);
                    expectMatchesReference(pipe, popup, what + " popup");
                }
                if (HasFailure())
                    return;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllKeyboardsAllGpus, LrzKeyboardSweep,
    ::testing::Combine(::testing::ValuesIn(android::keyboardNames()),
                       ::testing::ValuesIn(supportedAdrenoGenerations())));

TEST(LrzReferenceTest, TransitionFramesMatchReference)
{
    using namespace android;
    for (const DisplayConfig &display : {displayFhdPlus(), displayQhdPlus()}) {
        EventQueue eq;
        RenderEngine engine(eq, adrenoModel(650), 1);
        const WindowManager wm(eq, engine, display);
        for (int gen : supportedAdrenoGenerations()) {
            Pipeline pipe(adrenoModel(gen));
            for (int phase = 0; phase < 10; ++phase)
                expectMatchesReference(
                    pipe, wm.transitionScene(phase),
                    display.name + " phase " + std::to_string(phase));
        }
    }
}

} // namespace
} // namespace gpusc::gpu
