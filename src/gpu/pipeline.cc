#include "gpu/pipeline.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>

#include "util/logging.h"

namespace gpusc::gpu {

namespace {

constexpr std::uint8_t kOccluded = 1u << 0;

/** kOccluded in each byte of a 64-bit word: the LRZ pass tests and
 *  marks 8 mask bytes per load (little-endian byte order). Its lane
 *  sum counts occluded bytes, which needs kOccluded == 1. */
constexpr std::uint64_t kOccludedLanes = kOccluded * 0x0101010101010101ull;
static_assert(kOccluded == 1);
static_assert(std::endian::native == std::endian::little);

/** The mask is over-allocated by this much so an 8-byte load at the
 *  last pixel stays inside the buffer. */
constexpr std::size_t kMaskSlack = 7;

} // namespace

Pipeline::Pipeline(const GpuModel &model) : model_(model) {}

FrameResult
Pipeline::render(const gfx::FrameScene &scene)
{
    FrameResult res;
    if (scene.empty())
        return res;

    const gfx::Rect dmg = scene.damage;
    const int dw = dmg.width();
    const int dh = dmg.height();
    const std::size_t npix = std::size_t(dw) * std::size_t(dh);
    if (mask_.size() < npix + kMaskSlack)
        mask_.resize(npix + kMaskSlack);
    std::memset(mask_.data(), 0, npix);

    auto &d = res.deltas;

    // --- Front-end (VPC) and rasteriser (RAS): order independent, no
    // occlusion knowledge.
    for (const gfx::Prim &p : scene.prims) {
        const gfx::Rect r = p.rect.intersect(dmg);
        if (r.empty())
            continue;
        d[VPC_PC_PRIMITIVES] += 2;
        d[VPC_LRZ_ASSIGN_PRIMITIVES] += 2;
        d[VPC_SP_COMPONENTS] += 4 * model_.spComponentsPerVertex;

        d[RAS_8X4_TILES] +=
            gfx::tilesTouched(r, model_.rasTileW, model_.rasTileH);
        d[RAS_FULLY_COVERED_8X4_TILES] +=
            gfx::tilesFullyCovered(r, model_.rasTileW, model_.rasTileH);
        d[RAS_SUPER_TILES] +=
            gfx::tilesTouched(r, model_.superTileW, model_.superTileH);
        d[RAS_SUPERTILE_ACTIVE_CYCLES] +=
            r.area() * model_.rasCyclesPerKiloPixel / 1000;
        res.rasterizedPixels += r.area();
    }

    // --- LRZ pass: walk primitives front-to-back against the opaque
    // coverage accumulated from layers above. Per primitive, the LRZ
    // unit tests each 8x8 block of its footprint: fully occluded
    // blocks are killed (PERF_LRZ_FULL_8X8_TILES), partially occluded
    // blocks are trimmed (PERF_LRZ_PARTIAL_8X8_TILES); surviving
    // pixels/prims feed the VISIBLE counters. This is the stage where
    // GPU *overdraw* becomes measurable (paper §2.2).
    const int tw = model_.lrzTileW;
    const int th = model_.lrzTileH;
    for (auto it = scene.prims.rbegin(); it != scene.prims.rend(); ++it) {
        const gfx::Rect r = it->rect.intersect(dmg);
        if (r.empty())
            continue;
        std::int64_t visible = 0;
        const int ty0 = r.y0 / th;
        const int ty1 = (r.y1 - 1) / th;
        const int tx0 = r.x0 / tw;
        const int tx1 = (r.x1 - 1) / tw;
        for (int ty = ty0; ty <= ty1; ++ty) {
            for (int tx = tx0; tx <= tx1; ++tx) {
                const gfx::Rect block =
                    gfx::Rect::ofSize(tx * tw, ty * th, tw, th)
                        .intersect(r);
                int occluded = 0;
                int total = 0;
                for (int y = block.y0; y < block.y1; ++y) {
                    std::uint8_t *row = mask_.data() +
                        std::size_t(y - dmg.y0) * dw +
                        (block.x0 - dmg.x0);
                    const int w = block.width();
                    // Eight pixels per step, branch-free: a per-pixel
                    // branch made this loop's speed swing ~15 % with
                    // where the linker placed it. Bytes past the
                    // block are loaded but masked off and stored back
                    // unchanged.
                    for (int x = 0; x < w; x += 8) {
                        const std::uint64_t lanes =
                            kOccludedLanes >> (8 * (8 - std::min(8, w - x)));
                        std::uint64_t word;
                        std::memcpy(&word, row + x, sizeof word);
                        // Sum of the 0/1 lane bytes lands in the top byte.
                        occluded +=
                            int(((word & lanes) * kOccludedLanes) >> 56);
                        if (it->opaque) {
                            word |= lanes;
                            std::memcpy(row + x, &word, sizeof word);
                        }
                    }
                    total += w;
                }
                visible += total - occluded;
                if (occluded == total)
                    d[LRZ_FULL_8X8_TILES] += 1;
                else if (occluded > 0)
                    d[LRZ_PARTIAL_8X8_TILES] += 1;
            }
        }
        if (visible > 0) {
            d[LRZ_VISIBLE_PRIM_AFTER_LRZ] += 2;
            d[LRZ_VISIBLE_PIXEL_AFTER_LRZ] += visible;
        }
    }

    return res;
}

} // namespace gpusc::gpu
