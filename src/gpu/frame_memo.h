/**
 * @file
 * Shared, bounded memo of rendered frames on one GPU model.
 *
 * On a given Adreno model a frame's counter deltas and drawn-pixel
 * count are a pure function of its scene (damage rect + draw list),
 * so any number of RenderEngines on that model can share one table of
 * them. A lookup is keyed on the scene's 64-bit content hash and hits
 * only on full scene equality, so a hash collision renders instead of
 * returning another scene's counters. The table holds at most
 * kCapacity entries and never evicts: once full, a miss just renders.
 * Because the values are pure, neither the fill order nor the cap can
 * change any output — only how often Pipeline::render runs.
 *
 * Thread-safe: one mutex guards the table; rendering runs outside it
 * on the caller's own Pipeline.
 */

#ifndef GPUSC_GPU_FRAME_MEMO_H
#define GPUSC_GPU_FRAME_MEMO_H

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "gfx/scene.h"
#include "gpu/model.h"
#include "gpu/pipeline.h"

namespace gpusc::gpu {

/** Counter deltas + drawn pixels of frames on one GPU model. */
class FrameMemo
{
  public:
    /**
     * Entry cap. attack::ModelStore keeps one memo per device
     * configuration, and across the bench binaries a configuration
     * draws at most ~205 distinct frames (~0.9 MB). The exception is
     * the animated login ("pnc" app): its animation draws ~50 new
     * frames per trial for as long as it runs, and the cap is what
     * stops that memo. At full-keyboard frame sizes (~4.3 kB an
     * entry) a full memo holds ~9 MB.
     */
    static constexpr std::size_t kCapacity = 2048;

    explicit FrameMemo(const GpuModel &model) : model_(model) {}

    FrameMemo(const FrameMemo &) = delete;
    FrameMemo &operator=(const FrameMemo &) = delete;

    /**
     * The memoised frame for @p scene, rendering it on @p pipeline
     * (which must be built for the memo's GPU model) on a miss and
     * keeping it if the memo has room.
     * @param hash scene.contentHash(), computed by the caller.
     */
    FrameResult lookupOrRender(std::uint64_t hash,
                               const gfx::FrameScene &scene,
                               Pipeline &pipeline);

    /** Frames held. Depends on which scenes arrived first under
     *  concurrency, so keep it out of outputs that must be
     *  byte-identical across thread counts. */
    std::size_t entries() const;
    /** Approximate heap footprint of the held entries, bytes. */
    std::size_t bytes() const;

  private:
    struct Entry
    {
        gfx::FrameScene scene;
        FrameResult frame;
    };

    /** Entry equal to @p scene under @p hash, or null; mu_ held. */
    const Entry *findLocked(std::uint64_t hash,
                            const gfx::FrameScene &scene) const;

    const GpuModel &model_;
    mutable std::mutex mu_;
    std::unordered_multimap<std::uint64_t, Entry> table_;
    std::size_t bytes_ = 0;
};

} // namespace gpusc::gpu

#endif // GPUSC_GPU_FRAME_MEMO_H
