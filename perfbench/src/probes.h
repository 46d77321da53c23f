/**
 * @file
 * Unit costs of single layers, measured from outside by calling each
 * module's public functions on inputs the workloads also use. Every
 * traced run measures all of them the same way, so a per-layer number
 * means the same thing whichever workload printed it.
 */

#ifndef PERFBENCH_PROBES_H
#define PERFBENCH_PROBES_H

#include <cstdint>
#include <string>
#include <vector>

#include "attack/model_store.h"
#include "corpus.h"

namespace perfbench {

/** One reported number. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};
using Metrics = std::vector<Metric>;

/** gfx.scene_build_us, gpu.render_us.popup, gpu.render_us.ime,
 *  gpu.submit_hit_us. */
void probeScenes(Metrics &out);

/** kgsl.read_ns: one PERFCOUNTER_READ of the 11 Table-1 countables. */
void probeKgsl(Metrics &out);

/**
 * eval.trial_ms.cold/.warm, eval.trial_cold_over_warm,
 * exec.shard_boot_ms, gpu.frames_per_trial, kgsl.ioctl_per_trial and
 * gpu.render_share.warm_trial (the last from spans, so only when
 * @p traced).
 */
void probeTrials(gpusc::attack::ModelStore &store, std::uint64_t seed,
                 bool traced, Metrics &out);

/** trace.decode_ns, trace.bytes_per_reading, attack.feed_ns,
 *  attack.change_frac, simd.classify_ns over @p corpus. */
void probeCorpus(const gpusc::attack::SignatureModel &model,
                 const Corpus &corpus, Metrics &out);

/**
 * The stream layer closed-loop, shaped like the stream workload:
 * stream.session_create_us, stream.offer_ns, stream.pump_ms.p50/.p99,
 * exec.cpu_wall.pump, exec.pump_speedup, stream.bytes_per_session,
 * stream.template_updates.
 */
void probeStream(const gpusc::attack::SignatureModel &model,
                 const Timeline &timeline, std::uint64_t seed,
                 Metrics &out);

} // namespace perfbench

#endif // PERFBENCH_PROBES_H
