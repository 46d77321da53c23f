/**
 * @file
 * Deterministic parallel experiment evaluation.
 *
 * ParallelRunner shards a campaign of credential trials across a
 * work-stealing ThreadPool and guarantees that the trial results,
 * the accuracy statistics and the merged telemetry are **identical
 * for any worker count, including one**. Three rules make that hold:
 *
 *  - Shard composition depends only on (trial count, shard size),
 *    never on the thread count: shard k always owns trials
 *    [k*S, (k+1)*S).
 *  - All randomness is keyed on logical indices through
 *    gpusc::forkSeed: trial i's credential comes from streams forked
 *    on (seed, i); shard k's device/typist stream is forked on
 *    (seed, k | kShardStream). No stream ever depends on which
 *    thread ran the work.
 *  - Reduction is ordered: shard outputs land in an indexed slot
 *    array and are folded in shard order — stats re-accumulated in
 *    trial order, per-shard Telemetry merged in shard order.
 *
 * Each shard runs its own eval::ExperimentRunner (own simulated
 * device, own attack session), so shards share no mutable state but
 * the ModelStore — which the ParallelRunner pre-trains in its
 * constructor, making every worker-side access a read-only cache
 * hit — and the store's mutex-guarded gpu::FrameMemo, whose values
 * are pure functions of the scene, so its fill order is invisible.
 *
 * Note the parallel contract is self-consistency across thread
 * counts, not byte-equality with ExperimentRunner::runTrials: the
 * serial loop threads one RNG stream through all trials, which is
 * inherently order-dependent and cannot be sharded.
 */

#ifndef GPUSC_EXEC_PARALLEL_RUNNER_H
#define GPUSC_EXEC_PARALLEL_RUNNER_H

#include <cstddef>
#include <string>
#include <vector>

#include "attack/eavesdropper.h"
#include "attack/model_store.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "exec/thread_pool.h"
#include "kgsl/fault_injector.h"
#include "trace/trace_replayer.h"

namespace gpusc::exec {

/** How a campaign is split into per-worker tasks. */
struct ShardPlan
{
    /**
     * Trials per shard. Smaller shards steal better; larger shards
     * amortise the per-shard device boot. Must not vary between runs
     * that are expected to produce identical telemetry (shard
     * boundaries are visible in span/audit interleaving).
     */
    std::size_t shardSize = 8;
};

/** Aggregated outcome of a parallel campaign. */
struct ParallelResult
{
    /** Accuracy over all trials, accumulated in trial order. */
    eval::AccuracyStats stats;
    /** Every trial, in trial-index order. */
    std::vector<eval::TrialResult> trials;
    /** Pipeline recovery accounting summed over all shards. */
    attack::HealthStats health{};
    /** Injected-fault accounting summed over all shards. */
    kgsl::FaultInjector::Stats faults{};
    /** Defender-side cost summed over all shards (all-zero when the
     *  campaign ran undefended). */
    kgsl::DefenseOverhead defense{};
};

/** Runs experiment campaigns sharded across a thread pool. */
class ParallelRunner
{
  public:
    /**
     * @param cfg the base configuration every shard derives from.
     *   recordTracePath is serial-only and is disabled (with a
     *   warning) if set; cfg.telemetry, when non-null, receives the
     *   ordered merge of all shard telemetry.
     * @param store model cache, pre-trained here so worker threads
     *   only ever read it.
     */
    ParallelRunner(eval::ExperimentConfig cfg,
                   attack::ModelStore &store,
                   std::size_t threads = 1, ShardPlan plan = {});

    /**
     * Run @p n random trials with credential lengths in
     * [minLen, maxLen]. Deterministic in (cfg.seed, n, minLen,
     * maxLen, plan.shardSize) — the thread count never changes the
     * outcome.
     */
    ParallelResult runTrials(int n, std::size_t minLen,
                             std::size_t maxLen);

    /** The signature model the campaign attacks with. */
    const attack::SignatureModel &model() const { return *model_; }

    /**
     * Observe every finished trial with its sim timestamp (see
     * eval::ExperimentRunner::setTrialListener). Forwarded only when
     * the campaign runs inline (threads == 1): a listener firing
     * from pool workers would interleave scheduling-dependently,
     * which is exactly what this class exists to prevent. A
     * multi-thread campaign with a listener attached fails fast.
     */
    void
    setTrialListener(
        std::function<void(const eval::TrialResult &, SimTime)> fn)
    {
        trialListener_ = std::move(fn);
    }

    std::size_t threads() const { return pool_.size(); }
    const ShardPlan &plan() const { return plan_; }

    /** Stream index namespace for shard-level seeds (forkSeed's
     *  index is the shard number OR'd with this; trial-level seeds
     *  use the bare trial index, so the spaces never collide). */
    static constexpr std::uint64_t kShardStream =
        0x8000000000000000ULL;

  private:
    eval::ExperimentConfig cfg_;
    attack::ModelStore &store_;
    ShardPlan plan_;
    ThreadPool pool_;
    const attack::SignatureModel *model_;
    std::function<void(const eval::TrialResult &, SimTime)>
        trialListener_;
};

/** Outcome of replaying one trace file. */
struct ReplayOutcome
{
    std::string path;
    trace::TraceError error = trace::TraceError::None;
    std::vector<trace::TraceReplayer::Trial> trials;
    std::uint64_t readings = 0;
    std::uint64_t faults = 0;
};

/**
 * Replay many trace files across @p pool, one task per file, each
 * through its own TraceReplayer against the (read-only) @p store.
 * Outcomes land in input order; each file's replay is bit-identical
 * to a serial TraceReplayer::replayFile on the same store.
 */
std::vector<ReplayOutcome>
replayFiles(const attack::ModelStore &store,
            const std::vector<std::string> &paths, ThreadPool &pool,
            const attack::Eavesdropper::Params &params = {});

} // namespace gpusc::exec

#endif // GPUSC_EXEC_PARALLEL_RUNNER_H
