/** @file Unit tests for keyboard specs and layout geometry. */

#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "android/keyboard.h"
#include "gfx/font.h"
#include "util/rng.h"

namespace gpusc::android {
namespace {

TEST(KeyboardSpecTest, RegistryHasAllSixKeyboards)
{
    EXPECT_EQ(keyboardNames().size(), 6u);
    for (const auto &name : keyboardNames()) {
        const KeyboardSpec &spec = keyboardSpec(name);
        EXPECT_EQ(spec.name, name);
        EXPECT_GT(spec.heightDp, 100.0);
        EXPECT_GE(spec.duplicationProb, 0.0);
        EXPECT_LE(spec.duplicationProb, 1.0);
    }
}

TEST(KeyboardSpecTest, GboardHasRichestAnimation)
{
    for (const auto &name : keyboardNames()) {
        if (name != "gboard") {
            EXPECT_GT(keyboardSpec("gboard").duplicationProb,
                      keyboardSpec(name).duplicationProb);
        }
    }
}

TEST(KeyboardSpecDeathTest, UnknownNameIsFatal)
{
    EXPECT_DEATH((void)keyboardSpec("clippy"), "unknown keyboard");
}

TEST(KeyboardLayoutTest, PageForChar)
{
    EXPECT_EQ(KeyboardLayout::pageForChar('a'), KbPage::Lower);
    EXPECT_EQ(KeyboardLayout::pageForChar('Z'), KbPage::Upper);
    EXPECT_EQ(KeyboardLayout::pageForChar('7'), KbPage::Symbols);
    EXPECT_EQ(KeyboardLayout::pageForChar('@'), KbPage::Symbols);
    EXPECT_EQ(KeyboardLayout::pageForChar(','), KbPage::Lower);
    EXPECT_EQ(KeyboardLayout::pageForChar('.'), KbPage::Lower);
}

TEST(KeyboardLayoutTest, IsTypable)
{
    EXPECT_TRUE(KeyboardLayout::isTypable('a'));
    EXPECT_TRUE(KeyboardLayout::isTypable('Q'));
    EXPECT_TRUE(KeyboardLayout::isTypable('0'));
    EXPECT_TRUE(KeyboardLayout::isTypable('$'));
    EXPECT_TRUE(KeyboardLayout::isTypable(' '));
    EXPECT_FALSE(KeyboardLayout::isTypable('\t'));
    EXPECT_FALSE(KeyboardLayout::isTypable('~'));
}

class LayoutSweep : public ::testing::TestWithParam<std::string>
{
  protected:
    KeyboardLayout
    layout() const
    {
        return KeyboardLayout(keyboardSpec(GetParam()),
                              displayFhdPlus());
    }
};

TEST_P(LayoutSweep, KeysStayInsideKeyboardBounds)
{
    const KeyboardLayout l = layout();
    for (KbPage page :
         {KbPage::Lower, KbPage::Upper, KbPage::Symbols}) {
        for (const Key &k : l.keys(page)) {
            EXPECT_TRUE(l.bounds().contains(k.rect))
                << GetParam() << " key escapes: "
                << k.rect.toString();
        }
    }
}

TEST_P(LayoutSweep, KeysDoNotOverlap)
{
    const KeyboardLayout l = layout();
    for (KbPage page :
         {KbPage::Lower, KbPage::Upper, KbPage::Symbols}) {
        const auto &keys = l.keys(page);
        for (std::size_t i = 0; i < keys.size(); ++i)
            for (std::size_t j = i + 1; j < keys.size(); ++j)
                EXPECT_FALSE(keys[i].rect.intersects(keys[j].rect))
                    << GetParam() << " page " << int(page);
    }
}

TEST_P(LayoutSweep, EveryTypableCharHasAKey)
{
    const KeyboardLayout l = layout();
    const std::string all =
        "abcdefghijklmnopqrstuvwxyz"
        "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
        "1234567890,.@#$&-+()/*\"':;!?";
    for (char c : all) {
        const KbPage page = KeyboardLayout::pageForChar(c);
        EXPECT_NE(l.findChar(page, c), nullptr)
            << "'" << c << "' missing on " << GetParam();
    }
}

TEST_P(LayoutSweep, SpecialKeysPresent)
{
    const KeyboardLayout l = layout();
    EXPECT_NE(l.findSpecial(KbPage::Lower, KeyCode::Shift), nullptr);
    EXPECT_NE(l.findSpecial(KbPage::Lower, KeyCode::Sym), nullptr);
    EXPECT_NE(l.findSpecial(KbPage::Lower, KeyCode::Backspace),
              nullptr);
    EXPECT_NE(l.findSpecial(KbPage::Symbols, KeyCode::Abc), nullptr);
    EXPECT_NE(l.findSpecial(KbPage::Symbols, KeyCode::Backspace),
              nullptr);
    EXPECT_NE(l.findSpecial(KbPage::Lower, KeyCode::Space), nullptr);
}

TEST_P(LayoutSweep, PopupsStayInsideTheImeSurface)
{
    const KeyboardLayout l = layout();
    const gfx::Rect surface = l.surfaceBounds();
    for (KbPage page :
         {KbPage::Lower, KbPage::Upper, KbPage::Symbols}) {
        for (const Key &k : l.keys(page)) {
            if (k.code != KeyCode::Char)
                continue;
            EXPECT_TRUE(surface.contains(l.popupMaxRect(k)))
                << GetParam() << " popup for '" << k.ch
                << "' escapes";
        }
    }
}

TEST_P(LayoutSweep, PopupScenesAreDistinctPerKey)
{
    const KeyboardLayout l = layout();
    std::set<std::uint64_t> hashes;
    std::size_t charKeys = 0;
    for (const Key &k : l.keys(KbPage::Lower)) {
        if (k.code != KeyCode::Char)
            continue;
        gfx::FrameScene scene;
        scene.damage = l.surfaceBounds();
        l.buildBase(scene, KbPage::Lower);
        l.buildPopup(scene, k, 1.0);
        hashes.insert(scene.contentHash());
        ++charKeys;
    }
    // Every key's popup scene must be unique — the attack's premise.
    EXPECT_EQ(hashes.size(), charKeys);
}

TEST_P(LayoutSweep, BaseSceneHasKeycapAndLabelPrims)
{
    const KeyboardLayout l = layout();
    gfx::FrameScene scene;
    scene.damage = l.surfaceBounds();
    l.buildBase(scene, KbPage::Lower);
    // At least background + one cap per key + label runs.
    EXPECT_GT(scene.prims.size(),
              l.keys(KbPage::Lower).size() * 2);
}

TEST_P(LayoutSweep, PagesShareBottomRowGeometry)
{
    const KeyboardLayout l = layout();
    const Key *commaLower = l.findChar(KbPage::Lower, ',');
    const Key *commaUpper = l.findChar(KbPage::Upper, ',');
    const Key *commaSym = l.findChar(KbPage::Symbols, ',');
    ASSERT_NE(commaLower, nullptr);
    ASSERT_NE(commaUpper, nullptr);
    ASSERT_NE(commaSym, nullptr);
    EXPECT_EQ(commaLower->rect, commaUpper->rect);
    EXPECT_EQ(commaLower->rect, commaSym->rect);
}

/** Special-key icons, drawn the long way (reference for the memo). */
void
refKeyIcon(gfx::FrameScene &scene, const Key &key)
{
    const gfx::Rect box = key.rect.inset(key.rect.height() / 3);
    const int cx = box.center().x;
    const int cy = box.center().y;
    const int u = std::max(2, box.height() / 5);
    auto add = [&](const gfx::Rect &r) {
        scene.add(r, true, gfx::PrimTag::KeyLabel);
    };
    switch (key.code) {
      case KeyCode::Shift:
        add(gfx::Rect::ofSize(cx - u / 2, box.y0, u, 2 * u));
        add(gfx::Rect::ofSize(cx - u, box.y0 + u, 2 * u, u));
        add(gfx::Rect::ofSize(cx - u / 2, box.y0 + 2 * u, u, 2 * u));
        break;
      case KeyCode::Backspace:
        add(gfx::Rect::ofSize(box.x0, cy - u / 2, box.width(), u));
        add(gfx::Rect::ofSize(box.x0, cy - u, u, 2 * u));
        break;
      case KeyCode::Sym:
      case KeyCode::Abc:
        add(gfx::Rect::ofSize(box.x0, cy - u / 2, box.width(), u));
        add(gfx::Rect::ofSize(cx - u / 2, box.y0, u, box.height()));
        break;
      case KeyCode::Space:
        add(gfx::Rect::ofSize(box.x0, box.y1 - u, box.width(), u));
        break;
      case KeyCode::Enter:
        add(gfx::Rect::ofSize(box.x0, cy - u / 2, box.width() - u, u));
        add(gfx::Rect::ofSize(box.x1 - u, cy - 2 * u, u, 2 * u));
        break;
      case KeyCode::Char:
        break;
    }
}

/** A fresh draw of the keyboard base into @p scene (clipped by its
 *  damage as each prim is added): the reference buildBase must match
 *  prim for prim. */
void
refBase(const KeyboardLayout &l, gfx::FrameScene &scene, KbPage page)
{
    const DisplayConfig &display = l.display();
    const gfx::Rect &bounds = l.bounds();
    const gfx::Rect surface = l.surfaceBounds();
    if (surface.y0 < bounds.y0) {
        const gfx::Rect strip{surface.x0, surface.y0, surface.x1,
                              bounds.y0};
        scene.add(strip, true, gfx::PrimTag::Background);
        const int sh = strip.height();
        const int glyphH = std::max(6, sh / 3);
        const int glyphW = glyphH * gfx::kGlyphCols / gfx::kGlyphRows;
        const int y = strip.y0 + (sh - glyphH) / 2;
        const std::string phrase =
            "the quick brown fox jumps over a lazy dog and you can "
            "type some more words here right now because these are "
            "only suggestions";
        int x = strip.x0 + display.dp(4);
        const int pitch = glyphW + display.dp(1);
        for (char pc : phrase) {
            if (x + glyphW > strip.x1 - display.dp(4))
                break;
            if (pc != ' ') {
                for (const gfx::Rect &run : gfx::glyphRunRects(
                         pc, gfx::Rect::ofSize(x, y, glyphW, glyphH)))
                    scene.add(run, true, gfx::PrimTag::KeyLabel);
            }
            x += pitch;
        }
        for (int div = 1; div <= 2; ++div) {
            scene.add(gfx::Rect::ofSize(
                          strip.x0 + div * strip.width() / 3,
                          strip.y0 + sh / 4, display.dp(1), sh / 2),
                      true, gfx::PrimTag::KeyLabel);
        }
    }

    scene.add(bounds, true, gfx::PrimTag::Background);
    const int capInset = display.dp(l.spec().capInsetDp);
    const int labelH = display.dp(l.spec().labelDp);
    const int labelW = labelH * gfx::kGlyphCols / gfx::kGlyphRows;
    for (const Key &key : l.keys(page)) {
        scene.add(key.rect.inset(capInset), true, gfx::PrimTag::KeyCap);
        if (key.code == KeyCode::Char && key.ch != ' ') {
            const gfx::Point c = key.rect.center();
            const gfx::Rect labelBox =
                gfx::Rect::ofSize(c.x - labelW / 2, c.y - labelH / 2,
                                  labelW, labelH);
            for (const gfx::Rect &run :
                 gfx::glyphRunRects(key.ch, labelBox))
                scene.add(run, true, gfx::PrimTag::KeyLabel);
        } else {
            refKeyIcon(scene, key);
        }
    }
}

/** buildBase over @p damage equals the reference draw, prim by prim
 *  (prims already in the scene stay in front of the base). */
void
expectBaseMatchesFreshDraw(const KeyboardLayout &l, KbPage page,
                           const gfx::Rect &damage)
{
    const gfx::Prim pre{gfx::Rect::ofSize(1, 2, 3, 4), false,
                        gfx::PrimTag::AppContent};
    gfx::FrameScene got, want;
    got.damage = want.damage = damage;
    got.prims.push_back(pre);
    want.prims.push_back(pre);
    l.buildBase(got, page);
    refBase(l, want, page);
    ASSERT_EQ(got.prims.size(), want.prims.size())
        << "page " << int(page) << " damage " << damage.x0 << ","
        << damage.y0 << "," << damage.x1 << "," << damage.y1;
    for (std::size_t i = 0; i < got.prims.size(); ++i) {
        ASSERT_EQ(got.prims[i].rect, want.prims[i].rect) << "prim " << i;
        ASSERT_EQ(got.prims[i].opaque, want.prims[i].opaque)
            << "prim " << i;
        ASSERT_EQ(got.prims[i].tag, want.prims[i].tag) << "prim " << i;
    }
    EXPECT_EQ(got.contentHash(), want.contentHash());
}

/** Full surface, keyboard bounds, every key's popup region, random
 *  partial rects and rects reaching past the surface on any side. */
void
expectBaseMatchesForDamages(const KeyboardLayout &l, Rng &rng)
{
    const gfx::Rect surface = l.surfaceBounds();
    for (KbPage page : {KbPage::Lower, KbPage::Upper, KbPage::Symbols}) {
        expectBaseMatchesFreshDraw(l, page, surface);
        expectBaseMatchesFreshDraw(l, page, l.bounds());
        for (KbPage keyPage :
             {KbPage::Lower, KbPage::Upper, KbPage::Symbols})
            for (const Key &k : l.keys(keyPage))
                expectBaseMatchesFreshDraw(l, page, l.popupMaxRect(k));
        for (int i = 0; i < 40; ++i) {
            const int x0 = int(rng.uniformInt(surface.x0 - 200,
                                              surface.x1 + 50));
            const int y0 = int(rng.uniformInt(-300, surface.y1 + 50));
            const int w = int(rng.uniformInt(0, surface.width() + 400));
            const int h = int(rng.uniformInt(0, surface.height() + 400));
            expectBaseMatchesFreshDraw(l, page,
                                       gfx::Rect::ofSize(x0, y0, w, h));
        }
        expectBaseMatchesFreshDraw(
            l, page, gfx::Rect{-5000, -5000, 5000, 5000});
        expectBaseMatchesFreshDraw(l, page, gfx::Rect{-40, -40, -1, -1});
        expectBaseMatchesFreshDraw(
            l, page,
            gfx::Rect{surface.x1, surface.y1, surface.x1 + 80,
                      surface.y1 + 80});
        expectBaseMatchesFreshDraw(l, page, gfx::Rect{});
    }
}

TEST_P(LayoutSweep, BaseMatchesFreshDrawForEveryDamage)
{
    Rng rng(0xba5e);
    for (const DisplayConfig &display :
         {displayFhdPlus(), displayQhdPlus()}) {
        const KeyboardLayout l(keyboardSpec(GetParam()), display);
        expectBaseMatchesForDamages(l, rng);
    }
}

TEST_P(LayoutSweep, CopiedAndMovedLayoutsDrawTheirOwnBase)
{
    // Device hands its layout to Ime by value: the memo must travel.
    Rng rng(0xc0b7);
    KeyboardLayout original(keyboardSpec(GetParam()), displayQhdPlus());
    const KeyboardLayout copy = original;
    expectBaseMatchesForDamages(copy, rng);
    KeyboardLayout moved = std::move(original);
    expectBaseMatchesForDamages(moved, rng);
    KeyboardLayout assigned(keyboardSpec("go"), displayFhdPlus());
    assigned = moved;
    expectBaseMatchesForDamages(assigned, rng);
}

INSTANTIATE_TEST_SUITE_P(AllKeyboards, LayoutSweep,
                         ::testing::ValuesIn(keyboardNames()));

TEST(KeyboardLayoutTest, ResolutionScalesGeometry)
{
    const KeyboardLayout fhd(keyboardSpec("gboard"), displayFhdPlus());
    const KeyboardLayout qhd(keyboardSpec("gboard"), displayQhdPlus());
    const Key *a = fhd.findChar(KbPage::Lower, 'a');
    const Key *b = qhd.findChar(KbPage::Lower, 'a');
    EXPECT_GT(b->rect.width(), a->rect.width());
    EXPECT_GT(qhd.bounds().area(), fhd.bounds().area());
}

} // namespace
} // namespace gpusc::android
