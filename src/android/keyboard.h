/**
 * @file
 * On-screen keyboard geometry and rendering.
 *
 * A KeyboardSpec captures the UI parameters that differ between the
 * six keyboards evaluated in Fig. 20 (key/popup sizes, gaps, popup
 * shadow, animation richness). KeyboardLayout instantiates a spec on a
 * concrete display, producing per-key rectangles and the draw lists
 * for the keyboard base and the key-press popup. Because popups are
 * drawn *on top of* the keyboard, every popup occludes different keys
 * and carries a different glyph — the GPU-overdraw fingerprint the
 * whole attack rests on (paper Fig. 1).
 */

#ifndef GPUSC_ANDROID_KEYBOARD_H
#define GPUSC_ANDROID_KEYBOARD_H

#include <string>
#include <vector>

#include "android/display.h"
#include "gfx/scene.h"

namespace gpusc::android {

/** Keyboard page (Gboard-style three-page layout). */
enum class KbPage
{
    Lower = 0,
    Upper = 1,
    Symbols = 2,
};

/** What a key does when pressed. */
enum class KeyCode
{
    Char,      ///< commits its character
    Shift,     ///< toggles Lower/Upper
    Sym,       ///< switches to Symbols
    Abc,       ///< switches back to Lower
    Backspace, ///< deletes one character (no popup!)
    Space,     ///< commits ' ' (no popup)
    Enter,     ///< submit (no popup)
};

/** One key on one page. */
struct Key
{
    KeyCode code = KeyCode::Char;
    char ch = 0; ///< committed/displayed character (Char keys)
    KbPage page = KbPage::Lower;
    gfx::Rect rect;
};

/** Tunable UI parameters of a keyboard product (units: dp). */
struct KeyboardSpec
{
    std::string name;
    double heightDp = 220.0;
    double sideMarginDp = 2.0;
    double bottomMarginDp = 4.0;
    double keyGapDp = 3.0;
    double rowGapDp = 6.0;
    double capInsetDp = 2.0;  ///< keycap inset inside its cell
    double labelDp = 13.0;    ///< key label glyph box height
    double popupWDp = 38.0;
    double popupHDp = 44.0;
    double popupRaiseDp = 8.0; ///< popup bottom above key top
    double popupGlyphDp = 22.0;
    bool popupShadow = true;
    /**
     * Probability that the popup's rich animation re-renders an
     * identical frame — the *duplication* artefact (§5.1; Gboard is
     * the worst offender).
     */
    double duplicationProb = 0.05;
    /** Popup scale variants the animation can be captured at. The
     *  paper observes repeated presses yield identical counter
     *  changes, so production specs use a single scale; tests use
     *  multiple scales to stress multimodal classes. */
    std::vector<double> animScales = {1.0};
};

/** Look up one of the six evaluated keyboards by name. */
const KeyboardSpec &keyboardSpec(const std::string &name);
/** "swift", "gboard", "sogou", "pinyin", "go", "grammarly". */
const std::vector<std::string> &keyboardNames();

/** A spec instantiated on a display: concrete pixel geometry. */
class KeyboardLayout
{
  public:
    KeyboardLayout(KeyboardSpec spec, DisplayConfig display);

    const KeyboardSpec &spec() const { return spec_; }
    const DisplayConfig &display() const { return display_; }

    /** Keyboard area on screen (bottom of the display). */
    const gfx::Rect &bounds() const { return bounds_; }

    /**
     * The IME window's full extent: the keyboard area plus the strip
     * above it where key popups render (popups of top-row keys rise
     * above the keyboard itself).
     */
    gfx::Rect surfaceBounds() const;

    const std::vector<Key> &keys(KbPage page) const;

    /** @return the Char key for @p c on @p page, or nullptr. */
    const Key *findChar(KbPage page, char c) const;

    /** @return the first key with @p code on @p page, or nullptr. */
    const Key *findSpecial(KbPage page, KeyCode code) const;

    /** Page that carries character @p c ("," and "." live on all). */
    static KbPage pageForChar(char c);

    /** True if some page carries @p c. */
    static bool isTypable(char c);

    /**
     * Largest rect the popup (plus shadow) for @p key can cover —
     * the region invalidated when the popup is dismissed.
     */
    gfx::Rect popupMaxRect(const Key &key) const;

    /**
     * Draw the keyboard base (suggestion strip, background, keycaps,
     * labels). A page's base never changes, so its prims are drawn
     * once at construction; this appends them clipped to the scene's
     * damage.
     */
    void buildBase(gfx::FrameScene &scene, KbPage page) const;

    /** Draw the popup for @p key at animation scale @p scale. */
    void buildPopup(gfx::FrameScene &scene, const Key &key,
                    double scale) const;

  private:
    gfx::Rect popupRect(const Key &key, double scale) const;
    void buildKeyIcon(gfx::FrameScene &scene, const Key &key) const;
    void layoutPages();
    /** Draw @p page's base into @p scene (construction only). */
    void drawBase(gfx::FrameScene &scene, KbPage page) const;

    KeyboardSpec spec_;
    DisplayConfig display_;
    gfx::Rect bounds_;
    std::vector<Key> pages_[3];
    /** Unclipped base prims of each page, back to front. */
    std::vector<gfx::Prim> basePrims_[3];
};

} // namespace gpusc::android

#endif // GPUSC_ANDROID_KEYBOARD_H
