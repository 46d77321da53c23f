/**
 * @file
 * The GPU as a timed, serially-shared resource.
 *
 * Render jobs (one per surface redraw) execute back-to-back in
 * submission order; each occupies the GPU for a duration derived from
 * the model's cost parameters. Counter reads are *time aware*: a read
 * landing inside a job observes the partially accumulated deltas, which
 * is precisely the physical mechanism behind the "split" artefact the
 * paper's Algorithm 1 repairs (two consecutive reads see two pieces
 * that sum to the true per-frame delta).
 *
 * Identical frames (same damage + draw list) are rendered once per
 * memo: the engine looks every scene up in a gpu::FrameMemo.
 * attack::ModelStore owns one memo per device configuration, next to
 * its signature model, and hands it to each victim Device built for
 * that configuration, so campaign shards and trials share it; an
 * engine built without one gets a private memo through the same path.
 * A hit needs full scene equality, not just the content hash, and the
 * memo stops inserting at its entry cap. Counter deltas are a pure
 * function of (model, scene), so neither the fill order nor the cap
 * can change anything the engine reports.
 */

#ifndef GPUSC_GPU_RENDER_ENGINE_H
#define GPUSC_GPU_RENDER_ENGINE_H

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>

#include "gfx/scene.h"
#include "gpu/counters.h"
#include "gpu/frame_memo.h"
#include "gpu/model.h"
#include "gpu/pipeline.h"
#include "util/event_queue.h"
#include "util/rng.h"

namespace gpusc::gpu {

/** Timed GPU front-end wrapping the counter pipeline. */
class RenderEngine
{
  public:
    /**
     * @param memo frame memo shared with other engines on @p model;
     *   null gives this engine a private one.
     */
    RenderEngine(EventQueue &eq, const GpuModel &model,
                 std::uint64_t noiseSeed = 1,
                 std::shared_ptr<FrameMemo> memo = nullptr);

    /**
     * Submit a surface redraw. The job starts when the GPU becomes
     * free and ends after the model's render cost for the scene.
     * @param ownerPid process the work is attributed to (0 = system).
     * @return the job's completion time.
     */
    SimTime submit(const gfx::FrameScene &scene, int ownerPid = 0);

    /**
     * Submit compute/blit-style work: occupies the GPU for
     * @p duration (delaying rendering and raising busy%), but does
     * not traverse the binning/LRZ/raster pipeline, so the selected
     * counters are unaffected — the §7.3 background-workload shape.
     * @return the job's completion time.
     */
    SimTime submitCompute(SimTime duration);

    /** Cumulative value of one selected counter observable *now*. */
    std::uint64_t read(SelectedCounter c);

    /** Cumulative values of all selected counters observable now. */
    CounterTotals readAll();

    /**
     * Cumulative counters attributable to @p pid only — what the
     * GL_AMD_performance_monitor extension exposes to an application
     * about *itself* (paper §3.3). An app that renders nothing reads
     * zeros here, which is exactly why the attack bypasses the GLES
     * API for the global device-file registers.
     */
    CounterTotals readLocal(int pid);

    /**
     * GPU utilisation over the trailing window (default 100 ms),
     * mirroring the kgsl sysfs gpu_busy_percentage node.
     */
    double busyPercent();

    /**
     * Std deviation of the additive measurement perturbation applied
     * to each non-zero counter delta (models concurrent OS rendering
     * variation). Zero disables it.
     */
    void setNoiseSigma(double sigma) { noiseSigma_ = sigma; }
    double noiseSigma() const { return noiseSigma_; }

    /** Time at which all submitted work completes. */
    SimTime busyUntil() const { return busyUntil_; }

    /** True if a job is executing at the current time. */
    bool busyNow() const { return eq_.now() < busyUntil_; }

    /** The simulation clock this engine runs on (telemetry stamps). */
    const EventQueue &clock() const { return eq_; }

    const GpuModel &model() const { return pipeline_.model(); }

    std::uint64_t framesRendered() const { return framesRendered_; }
    /** Total GPU-active time since construction (for the power model). */
    SimTime totalBusyTime() const { return totalBusy_; }

  private:
    struct Job
    {
        SimTime start;
        SimTime end;
        CounterVec deltas;
        int ownerPid = 0;
    };

    /** Counters accrued by @p job as observable at time @p t. */
    CounterVec accruedAt(const Job &job, SimTime t) const;

    /** Drop jobs too old to affect reads or busy%, folding them into
     *  the per-pid totals (and into settled_ if not yet there). */
    void retireJobs();

    /** Fold finished jobs into settled_, each exactly once. */
    void foldFinished(SimTime now);

    EventQueue &eq_;
    Pipeline pipeline_;
    std::shared_ptr<FrameMemo> memo_;
    Rng rng_;
    double noiseSigma_ = 0.0;

    /** Retired jobs plus jobs_[0, folded_): every job whose counters
     *  are fully observable. */
    CounterTotals settled_{};
    std::unordered_map<int, CounterTotals> settledPerPid_;
    /** Jobs in submission order; their end times never decrease. */
    std::deque<Job> jobs_;
    /** Length of the jobs_ prefix already added to settled_. */
    std::size_t folded_ = 0;
    SimTime busyUntil_;
    SimTime totalBusy_;
    std::uint64_t framesRendered_ = 0;
};

} // namespace gpusc::gpu

#endif // GPUSC_GPU_RENDER_ENGINE_H
