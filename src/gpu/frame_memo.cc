#include "gpu/frame_memo.h"

#include "util/logging.h"

namespace gpusc::gpu {

const FrameMemo::Entry *
FrameMemo::findLocked(std::uint64_t hash,
                      const gfx::FrameScene &scene) const
{
    const auto [first, last] = table_.equal_range(hash);
    for (auto it = first; it != last; ++it)
        if (it->second.scene == scene)
            return &it->second;
    return nullptr;
}

FrameResult
FrameMemo::lookupOrRender(std::uint64_t hash,
                          const gfx::FrameScene &scene,
                          Pipeline &pipeline)
{
    if (&pipeline.model() != &model_)
        fatal("FrameMemo: pipeline is for %s, memo for %s",
              pipeline.model().name.c_str(), model_.name.c_str());
    {
        const std::lock_guard<std::mutex> lock(mu_);
        if (const Entry *e = findLocked(hash, scene))
            return e->frame;
    }

    const FrameResult frame = pipeline.render(scene);

    const std::lock_guard<std::mutex> lock(mu_);
    // Another thread may have rendered the same scene meanwhile; its
    // entry holds the same values, so keep just the one.
    if (table_.size() < kCapacity && !findLocked(hash, scene)) {
        table_.emplace(hash, Entry{scene, frame});
        bytes_ += sizeof(Entry) + sizeof(std::uint64_t) +
                  scene.prims.size() * sizeof(gfx::Prim);
    }
    return frame;
}

std::size_t
FrameMemo::entries() const
{
    const std::lock_guard<std::mutex> lock(mu_);
    return table_.size();
}

std::size_t
FrameMemo::bytes() const
{
    const std::lock_guard<std::mutex> lock(mu_);
    return bytes_;
}

} // namespace gpusc::gpu
