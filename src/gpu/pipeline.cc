#include "gpu/pipeline.h"

#include <bit>
#include <cstdint>

namespace gpusc::gpu {

namespace {

/** LRZ block edge: one 64-bit occlusion word covers an 8x8 block,
 *  pixel (x, y) owning bit inBlock(y) * 8 + inBlock(x). Blocks sit at
 *  absolute multiples of 8. */
constexpr int kBlock = 8;

/** Block index of coordinate @p v, rounded down (negative v too). */
constexpr int
blockOf(int v)
{
    return v >> 3;
}

/** Offset of coordinate @p v inside its block, in [0, 8). */
constexpr int
inBlock(int v)
{
    return v & 7;
}

/** Bits of one block covering columns [x0, x1) and rows [y0, y1),
 *  all in [0, 8] with x0 < x1 and y0 < y1. Never shifts by 64. */
std::uint64_t
blockMask(int x0, int x1, int y0, int y1)
{
    const std::uint64_t cols = (0xFFu >> (kBlock - (x1 - x0))) << x0;
    const std::uint64_t rows =
        (~std::uint64_t{0} >> (64 - kBlock * (y1 - y0))) << (kBlock * y0);
    return cols * 0x0101010101010101ull & rows;
}

} // namespace

Pipeline::Pipeline(const GpuModel &model) : model_(model) {}

FrameResult
Pipeline::render(const gfx::FrameScene &scene)
{
    FrameResult res;
    if (scene.empty())
        return res;

    const gfx::Rect dmg = scene.damage;
    const int bx0 = blockOf(dmg.x0);
    const int by0 = blockOf(dmg.y0);
    const int nbx = blockOf(dmg.x1 - 1) - bx0 + 1;
    const int nby = blockOf(dmg.y1 - 1) - by0 + 1;
    blocks_.assign(std::size_t(nbx) * std::size_t(nby), 0);

    auto &d = res.deltas;
    std::int64_t full = 0;
    std::int64_t partial = 0;

    // Walk primitives front-to-back against the opaque coverage
    // accumulated from layers above. VPC and RAS run before depth
    // rejection and are order independent, so they count every prim
    // on the same walk. Per primitive, the LRZ unit tests each 8x8
    // block of its footprint: fully occluded blocks are killed
    // (PERF_LRZ_FULL_8X8_TILES), partially occluded blocks are
    // trimmed (PERF_LRZ_PARTIAL_8X8_TILES); surviving pixels/prims
    // feed the VISIBLE counters. This is the stage where GPU
    // *overdraw* becomes measurable (paper §2.2).
    for (auto it = scene.prims.rbegin(); it != scene.prims.rend(); ++it) {
        const gfx::Rect r = it->rect.intersect(dmg);
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

        std::int64_t visible = 0;
        const int tx0 = blockOf(r.x0);
        const int ty0 = blockOf(r.y0);
        const int last = blockOf(r.x1 - 1) - tx0;
        const int ty1 = blockOf(r.y1 - 1);
        const int xend = inBlock(r.x1 - 1) + 1; // in the last block column
        for (int ty = ty0; ty <= ty1; ++ty) {
            const int ylo = ty == ty0 ? inBlock(r.y0) : 0;
            const int yhi = ty == ty1 ? inBlock(r.y1 - 1) + 1 : kBlock;
            const std::uint64_t inner = blockMask(0, kBlock, ylo, yhi);
            std::uint64_t *row =
                blocks_.data() + std::size_t(ty - by0) * nbx + (tx0 - bx0);
            // Test and mark columns [x0, x1) of one block of this row.
            // popcount only for partially occluded blocks: without
            // -mpopcnt it is a libcall, and they are rare.
            const auto test = [&](std::uint64_t &w, int x0, int x1) {
                const std::uint64_t m =
                    x1 - x0 == kBlock ? inner : blockMask(x0, x1, ylo, yhi);
                const int n = (x1 - x0) * (yhi - ylo);
                const std::uint64_t o = w & m;
                if (o == 0) {
                    visible += n;
                } else if (o == m) {
                    ++full;
                } else {
                    ++partial;
                    visible += n - std::popcount(o);
                }
                if (it->opaque)
                    w |= m;
            };
            test(row[0], inBlock(r.x0), last == 0 ? xend : kBlock);
            for (int i = 1; i < last; ++i) // interior blocks share `inner`
                test(row[i], 0, kBlock);
            if (last > 0)
                test(row[last], 0, xend);
        }
        if (visible > 0) {
            d[LRZ_VISIBLE_PRIM_AFTER_LRZ] += 2;
            d[LRZ_VISIBLE_PIXEL_AFTER_LRZ] += visible;
        }
    }
    d[LRZ_FULL_8X8_TILES] += full;
    d[LRZ_PARTIAL_8X8_TILES] += partial;

    return res;
}

} // namespace gpusc::gpu
