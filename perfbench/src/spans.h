/**
 * @file
 * In-memory span recorder for the traced binary. A span is one call
 * across a layer boundary: its layer, start, end, the enclosing span
 * on the same thread, and the id of the benchmark operation (round,
 * file) it served. Per-thread logs keep exact per-layer totals (calls,
 * inclusive time, self time = span minus its child spans) and the
 * first 100000 spans of the process verbatim, written out at the end.
 *
 * Recording is off unless setEnabled(true); a disabled Scope costs a
 * relaxed atomic load.
 */

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <array>
#include <cstdint>
#include <string>

namespace perfbench::spans {

/** Layer boundaries a span can sit on; names in layerName(). */
enum Layer : int
{
    kOp,             ///< one benchmark operation (the root)
    kEvalBoot,       ///< eval::ExperimentRunner construction
    kEvalTrial,      ///< eval::ExperimentRunner::runTrial
    kEventQueue,     ///< EventQueue::runUntil (the android simulation)
    kSceneBuild,     ///< android::KeyboardLayout::buildBase/buildPopup
    kGpuSubmit,      ///< gpu::RenderEngine::submit
    kGpuRender,      ///< gpu::Pipeline::render (scene-cache misses)
    kKgslIoctl,      ///< kgsl::KgslDevice::ioctl
    kAttackFeed,     ///< attack::Eavesdropper::feedReading(s)
    kAttackClassify, ///< attack::SignatureModel::classify(Batch)
    kTraceDecode,    ///< trace::TraceReader::next
    kStreamOffer,    ///< stream::IngestService::offer (one round's)
    kStreamPump,     ///< stream::IngestService::pump(pool)
    kStreamDrain,    ///< stream::Session::drain
    kNumLayers,
};

const char *layerName(int layer);

void setEnabled(bool on);
bool enabled();

/** Tag spans started from now on with benchmark operation @p id. */
void setOp(std::uint64_t id);

/** RAII span; records nothing while recording is disabled. */
class Scope
{
  public:
    explicit Scope(Layer layer);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    bool active_ = false;
};

/** Exact per-layer totals, summed over every thread. */
struct LayerTotals
{
    std::uint64_t calls = 0;
    double seconds = 0.0;     ///< inclusive
    double selfSeconds = 0.0; ///< minus child spans
};
std::array<LayerTotals, kNumLayers> totals();

/** Drop all totals and stored spans. Call with no span open. */
void reset();

/**
 * Write the stored spans as JSON (one object per span: layer, tid,
 * op, start_ns, end_ns, parent index within the thread or -1).
 * @return false on an IO error.
 */
bool writeJson(const std::string &path);

} // namespace perfbench::spans

#endif // PERFBENCH_SPANS_H
