#include "gpu/render_engine.h"

#include <algorithm>
#include <cmath>

namespace gpusc::gpu {

using namespace gpusc::sim_literals;

namespace {

/** Trailing window used for the busy-percentage node. */
constexpr SimTime kBusyWindow = 100_ms;

/** Jobs older than this can no longer affect reads or busy%. */
constexpr SimTime kRetireAge = 500_ms;

} // namespace

RenderEngine::RenderEngine(EventQueue &eq, const GpuModel &model,
                           std::uint64_t noiseSeed,
                           std::shared_ptr<FrameMemo> memo)
    : eq_(eq), pipeline_(model),
      memo_(memo ? std::move(memo) : std::make_shared<FrameMemo>(model)),
      rng_(noiseSeed)
{
}

SimTime
RenderEngine::submit(const gfx::FrameScene &scene, int ownerPid)
{
    if (scene.empty())
        return eq_.now();

    FrameResult frame =
        memo_->lookupOrRender(scene.contentHash(), scene, pipeline_);

    CounterVec &deltas = frame.deltas;
    if (noiseSigma_ > 0.0) {
        // Concurrent OS rendering (status-bar clock, blending/dither
        // variation) perturbs each active counter slightly.
        for (auto &d : deltas) {
            if (d == 0)
                continue;
            const auto jitter =
                std::int64_t(std::llround(rng_.normal(0.0, noiseSigma_)));
            d = std::max<std::int64_t>(0, d + jitter);
        }
    }

    const SimTime start = std::max(eq_.now(), busyUntil_);
    const double costUs =
        pipeline_.model().renderCostUs(frame.rasterizedPixels);
    const SimTime end =
        start + SimTime::fromNs(std::int64_t(costUs * 1e3 + 0.5));

    jobs_.push_back(Job{start, end, deltas, ownerPid});
    busyUntil_ = end;
    totalBusy_ += end - start;
    ++framesRendered_;
    retireJobs();
    return end;
}

SimTime
RenderEngine::submitCompute(SimTime duration)
{
    if (duration.ns() <= 0)
        return eq_.now();
    const SimTime start = std::max(eq_.now(), busyUntil_);
    const SimTime end = start + duration;
    jobs_.push_back(Job{start, end, CounterVec{}});
    busyUntil_ = end;
    totalBusy_ += duration;
    retireJobs();
    return end;
}

CounterVec
RenderEngine::accruedAt(const Job &job, SimTime t) const
{
    CounterVec out{};
    if (t <= job.start)
        return out;
    if (t >= job.end)
        return job.deltas;
    // Mid-job read: counters accrue (approximately) linearly with GPU
    // progress through the draw list.
    const double frac = double((t - job.start).ns()) /
                        double((job.end - job.start).ns());
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = std::int64_t(double(job.deltas[i]) * frac);
    return out;
}

void
RenderEngine::retireJobs()
{
    const SimTime now = eq_.now();
    while (!jobs_.empty() && jobs_.front().end + kRetireAge < now) {
        const Job &j = jobs_.front();
        CounterTotals &pid = settledPerPid_[j.ownerPid];
        const bool folded = folded_ > 0;
        for (std::size_t i = 0; i < j.deltas.size(); ++i) {
            if (!folded)
                settled_[i] += std::uint64_t(j.deltas[i]);
            pid[i] += std::uint64_t(j.deltas[i]);
        }
        if (folded)
            --folded_;
        jobs_.pop_front();
    }
}

std::uint64_t
RenderEngine::read(SelectedCounter c)
{
    return readAll()[c];
}

void
RenderEngine::foldFinished(SimTime now)
{
    // Jobs run back to back, so end times never decrease and the
    // finished jobs are a prefix of jobs_. A job is fully observable
    // once accruedAt returns all of its deltas (now past its start
    // and at or past its end).
    while (folded_ < jobs_.size()) {
        const Job &j = jobs_[folded_];
        if (now <= j.start || now < j.end)
            break;
        for (std::size_t i = 0; i < j.deltas.size(); ++i)
            settled_[i] += std::uint64_t(j.deltas[i]);
        ++folded_;
    }
}

CounterTotals
RenderEngine::readAll()
{
    retireJobs();
    const SimTime now = eq_.now();
    foldFinished(now);
    CounterTotals out = settled_;
    // The in-flight suffix: at most one job has started; the rest
    // start after it ends and accrue nothing yet.
    for (std::size_t k = folded_; k < jobs_.size(); ++k) {
        const Job &j = jobs_[k];
        if (now <= j.start)
            break;
        const CounterVec acc = accruedAt(j, now);
        for (std::size_t i = 0; i < acc.size(); ++i)
            out[i] += std::uint64_t(acc[i]);
    }
    return out;
}

CounterTotals
RenderEngine::readLocal(int pid)
{
    retireJobs();
    CounterTotals out{};
    auto it = settledPerPid_.find(pid);
    if (it != settledPerPid_.end())
        out = it->second;
    const SimTime now = eq_.now();
    for (const Job &j : jobs_) {
        if (j.ownerPid != pid)
            continue;
        const CounterVec acc = accruedAt(j, now);
        for (std::size_t i = 0; i < acc.size(); ++i)
            out[i] += std::uint64_t(acc[i]);
    }
    return out;
}

double
RenderEngine::busyPercent()
{
    retireJobs();
    const SimTime now = eq_.now();
    const SimTime winStart =
        now > kBusyWindow ? now - kBusyWindow : SimTime();
    std::int64_t busyNs = 0;
    for (const Job &j : jobs_) {
        const SimTime s = std::max(j.start, winStart);
        const SimTime e = std::min(j.end, now);
        if (e > s)
            busyNs += (e - s).ns();
    }
    const std::int64_t winNs = (now - winStart).ns();
    if (winNs <= 0)
        return 0.0;
    return 100.0 * double(busyNs) / double(winNs);
}

} // namespace gpusc::gpu
