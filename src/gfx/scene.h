/**
 * @file
 * The draw-list representation consumed by the GPU simulator.
 *
 * A frame is a damage rectangle plus a back-to-front ordered list of
 * primitives. Each primitive is an axis-aligned quad (two triangles in
 * counter terms); glyphs are decomposed into per-row run quads before
 * reaching this level, mirroring how a real UI toolkit batches text as
 * textured quads.
 */

#ifndef GPUSC_GFX_SCENE_H
#define GPUSC_GFX_SCENE_H

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "gfx/geometry.h"

namespace gpusc::gfx {

/** What produced a primitive; used in tests and trace output only. */
enum class PrimTag : std::uint8_t
{
    Background,
    KeyCap,
    KeyLabel,
    Popup,
    PopupGlyph,
    TextField,
    TextEcho,
    Cursor,
    StatusBar,
    AppContent,
    Animation,
    Foreign, // background (non-UI) GPU workload
};

/** A single draw primitive: one opaque or translucent quad. */
struct Prim
{
    Rect rect;
    bool opaque = true;
    PrimTag tag = PrimTag::AppContent;

    bool operator==(const Prim &) const = default;
};

/** One frame's worth of GPU work. */
struct FrameScene
{
    /** Region invalidated this frame; prims are clipped against it. */
    Rect damage;
    /** Primitives in back-to-front submission order. */
    std::vector<Prim> prims;

    bool empty() const { return damage.empty() || prims.empty(); }

    /** Append a quad clipped to the damage region (if visible).
     *  Forced inline: scene builders call it once per prim on every
     *  submit, and GCC otherwise keeps an out-of-line copy. */
    [[gnu::always_inline]] void
    add(const Rect &r, bool opaque, PrimTag tag)
    {
        Rect clipped = r.intersect(damage);
        if (!clipped.empty())
            prims.push_back(Prim{clipped, opaque, tag});
    }

    /** add() each of @p src, in order (the same clip, spelled out
     *  so the loop stays inline). */
    void
    append(std::span<const Prim> src)
    {
        for (const Prim &p : src) {
            const Rect clipped = p.rect.intersect(damage);
            if (!clipped.empty())
                prims.push_back(Prim{clipped, p.opaque, p.tag});
        }
    }

    /**
     * Stable content hash over damage and primitive list; used by the
     * GPU frame memo to memoise counter deltas for identical frames.
     */
    std::uint64_t contentHash() const;

    /** Same damage and the same prims in the same order (what a frame
     *  memo hit must match, beyond its 64-bit hash). */
    bool operator==(const FrameScene &) const = default;
};

} // namespace gpusc::gfx

#endif // GPUSC_GFX_SCENE_H
