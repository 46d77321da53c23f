/**
 * @file
 * Spans around calls into each layer's public entry points, for the
 * traced binary only. The link maps every reference to a symbol in
 * wrapped_symbols.txt onto __wrap_<symbol> (ld --wrap) and
 * __real_<symbol> back onto the definition, so a call from one gpusc
 * module into another lands here, opens a span and forwards. Calls
 * within one object file are not references and stay unwrapped.
 *
 * A member function is called like a free function whose first
 * argument is the object pointer (Itanium C++ ABI), which is what the
 * declarations below rely on.
 */

#include <span>
#include <string>

#include "android/keyboard.h"
#include "attack/eavesdropper.h"
#include "attack/signature.h"
#include "eval/experiment.h"
#include "gpu/pipeline.h"
#include "gpu/render_engine.h"
#include "kgsl/device.h"
#include "spans.h"
#include "stream/session.h"
#include "trace/trace_reader.h"
#include "util/event_queue.h"

using namespace gpusc;
using perfbench::spans::Scope;
namespace sp = perfbench::spans;

using Vec = gpu::CounterVec;
using Match = attack::SignatureModel::Match;

#define PB_WRAP(sym) __wrap_##sym
#define PB_REAL(sym) __real_##sym

extern "C" {

// eval::ExperimentRunner::ExperimentRunner(ExperimentConfig, ModelStore&)
void PB_REAL(_ZN5gpusc4eval16ExperimentRunnerC1ENS0_16ExperimentConfigERNS_6attack10ModelStoreE)(
    eval::ExperimentRunner *, eval::ExperimentConfig *,
    attack::ModelStore &);
void
PB_WRAP(_ZN5gpusc4eval16ExperimentRunnerC1ENS0_16ExperimentConfigERNS_6attack10ModelStoreE)(
    eval::ExperimentRunner *self, eval::ExperimentConfig *cfg,
    attack::ModelStore &store)
{
    Scope s(sp::kEvalBoot);
    PB_REAL(_ZN5gpusc4eval16ExperimentRunnerC1ENS0_16ExperimentConfigERNS_6attack10ModelStoreE)(
        self, cfg, store);
}

// eval::ExperimentRunner::runTrial(const std::string &)
eval::TrialResult PB_REAL(_ZN5gpusc4eval16ExperimentRunner8runTrialERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE)(
    eval::ExperimentRunner *, const std::string &);
eval::TrialResult
PB_WRAP(_ZN5gpusc4eval16ExperimentRunner8runTrialERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE)(
    eval::ExperimentRunner *self, const std::string &cred)
{
    Scope s(sp::kEvalTrial);
    return PB_REAL(_ZN5gpusc4eval16ExperimentRunner8runTrialERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE)(
        self, cred);
}

// EventQueue::runUntil(SimTime)
void PB_REAL(_ZN5gpusc10EventQueue8runUntilENS_7SimTimeE)(EventQueue *,
                                                         SimTime);
void
PB_WRAP(_ZN5gpusc10EventQueue8runUntilENS_7SimTimeE)(EventQueue *self,
                                                     SimTime horizon)
{
    Scope s(sp::kEventQueue);
    PB_REAL(_ZN5gpusc10EventQueue8runUntilENS_7SimTimeE)(self, horizon);
}

// android::KeyboardLayout::buildBase(FrameScene &, KbPage) const
void PB_REAL(_ZNK5gpusc7android14KeyboardLayout9buildBaseERNS_3gfx10FrameSceneENS0_6KbPageE)(
    const android::KeyboardLayout *, gfx::FrameScene &, android::KbPage);
void
PB_WRAP(_ZNK5gpusc7android14KeyboardLayout9buildBaseERNS_3gfx10FrameSceneENS0_6KbPageE)(
    const android::KeyboardLayout *self, gfx::FrameScene &scene,
    android::KbPage page)
{
    Scope s(sp::kSceneBuild);
    PB_REAL(_ZNK5gpusc7android14KeyboardLayout9buildBaseERNS_3gfx10FrameSceneENS0_6KbPageE)(
        self, scene, page);
}

// android::KeyboardLayout::buildPopup(FrameScene &, const Key &, double) const
void PB_REAL(_ZNK5gpusc7android14KeyboardLayout10buildPopupERNS_3gfx10FrameSceneERKNS0_3KeyEd)(
    const android::KeyboardLayout *, gfx::FrameScene &,
    const android::Key &, double);
void
PB_WRAP(_ZNK5gpusc7android14KeyboardLayout10buildPopupERNS_3gfx10FrameSceneERKNS0_3KeyEd)(
    const android::KeyboardLayout *self, gfx::FrameScene &scene,
    const android::Key &key, double scale)
{
    Scope s(sp::kSceneBuild);
    PB_REAL(_ZNK5gpusc7android14KeyboardLayout10buildPopupERNS_3gfx10FrameSceneERKNS0_3KeyEd)(
        self, scene, key, scale);
}

// gpu::RenderEngine::submit(const FrameScene &, int)
SimTime PB_REAL(_ZN5gpusc3gpu12RenderEngine6submitERKNS_3gfx10FrameSceneEi)(
    gpu::RenderEngine *, const gfx::FrameScene &, int);
SimTime
PB_WRAP(_ZN5gpusc3gpu12RenderEngine6submitERKNS_3gfx10FrameSceneEi)(
    gpu::RenderEngine *self, const gfx::FrameScene &scene, int pid)
{
    Scope s(sp::kGpuSubmit);
    return PB_REAL(_ZN5gpusc3gpu12RenderEngine6submitERKNS_3gfx10FrameSceneEi)(
        self, scene, pid);
}

// gpu::Pipeline::render(const FrameScene &)
gpu::FrameResult PB_REAL(_ZN5gpusc3gpu8Pipeline6renderERKNS_3gfx10FrameSceneE)(
    gpu::Pipeline *, const gfx::FrameScene &);
gpu::FrameResult
PB_WRAP(_ZN5gpusc3gpu8Pipeline6renderERKNS_3gfx10FrameSceneE)(
    gpu::Pipeline *self, const gfx::FrameScene &scene)
{
    Scope s(sp::kGpuRender);
    return PB_REAL(_ZN5gpusc3gpu8Pipeline6renderERKNS_3gfx10FrameSceneE)(
        self, scene);
}

// kgsl::KgslDevice::ioctl(int, unsigned long, void *)
int PB_REAL(_ZN5gpusc4kgsl10KgslDevice5ioctlEimPv)(kgsl::KgslDevice *,
                                                 int, unsigned long,
                                                 void *);
int
PB_WRAP(_ZN5gpusc4kgsl10KgslDevice5ioctlEimPv)(kgsl::KgslDevice *self,
                                             int fd,
                                             unsigned long request,
                                             void *arg)
{
    Scope s(sp::kKgslIoctl);
    return PB_REAL(_ZN5gpusc4kgsl10KgslDevice5ioctlEimPv)(self, fd,
                                                        request, arg);
}

// attack::Eavesdropper::feedReading(const Reading &)
void PB_REAL(_ZN5gpusc6attack12Eavesdropper11feedReadingERKNS0_7ReadingE)(
    attack::Eavesdropper *, const attack::Reading &);
void
PB_WRAP(_ZN5gpusc6attack12Eavesdropper11feedReadingERKNS0_7ReadingE)(
    attack::Eavesdropper *self, const attack::Reading &r)
{
    Scope s(sp::kAttackFeed);
    PB_REAL(_ZN5gpusc6attack12Eavesdropper11feedReadingERKNS0_7ReadingE)(
        self, r);
}

// attack::Eavesdropper::feedReadings(std::span<const Reading>)
void PB_REAL(_ZN5gpusc6attack12Eavesdropper12feedReadingsESt4spanIKNS0_7ReadingELm18446744073709551615EE)(
    attack::Eavesdropper *, std::span<const attack::Reading>);
void
PB_WRAP(_ZN5gpusc6attack12Eavesdropper12feedReadingsESt4spanIKNS0_7ReadingELm18446744073709551615EE)(
    attack::Eavesdropper *self, std::span<const attack::Reading> rs)
{
    Scope s(sp::kAttackFeed);
    PB_REAL(_ZN5gpusc6attack12Eavesdropper12feedReadingsESt4spanIKNS0_7ReadingELm18446744073709551615EE)(
        self, rs);
}

// attack::SignatureModel::classifyRobust(const CounterVec &, CounterVec *) const
Match PB_REAL(_ZNK5gpusc6attack14SignatureModel14classifyRobustERKSt5arrayIlLm11EEPS3_)(
    const attack::SignatureModel *, const Vec &, Vec *);
Match
PB_WRAP(_ZNK5gpusc6attack14SignatureModel14classifyRobustERKSt5arrayIlLm11EEPS3_)(
    const attack::SignatureModel *self, const Vec &delta, Vec *eff)
{
    Scope s(sp::kAttackClassify);
    return PB_REAL(_ZNK5gpusc6attack14SignatureModel14classifyRobustERKSt5arrayIlLm11EEPS3_)(
        self, delta, eff);
}

// attack::SignatureModel::classifyRobustBatch(span, span) const
void PB_REAL(_ZNK5gpusc6attack14SignatureModel19classifyRobustBatchESt4spanIKSt5arrayIlLm11EELm18446744073709551615EES2_INS1_5MatchELm18446744073709551615EE)(
    const attack::SignatureModel *, std::span<const Vec>,
    std::span<Match>);
void
PB_WRAP(_ZNK5gpusc6attack14SignatureModel19classifyRobustBatchESt4spanIKSt5arrayIlLm11EELm18446744073709551615EES2_INS1_5MatchELm18446744073709551615EE)(
    const attack::SignatureModel *self, std::span<const Vec> deltas,
    std::span<Match> out)
{
    Scope s(sp::kAttackClassify);
    PB_REAL(_ZNK5gpusc6attack14SignatureModel19classifyRobustBatchESt4spanIKSt5arrayIlLm11EELm18446744073709551615EES2_INS1_5MatchELm18446744073709551615EE)(
        self, deltas, out);
}

// attack::SignatureModel::classifyBatch(span, span) const
void PB_REAL(_ZNK5gpusc6attack14SignatureModel13classifyBatchESt4spanIKSt5arrayIlLm11EELm18446744073709551615EES2_INS1_5MatchELm18446744073709551615EE)(
    const attack::SignatureModel *, std::span<const Vec>,
    std::span<Match>);
void
PB_WRAP(_ZNK5gpusc6attack14SignatureModel13classifyBatchESt4spanIKSt5arrayIlLm11EELm18446744073709551615EES2_INS1_5MatchELm18446744073709551615EE)(
    const attack::SignatureModel *self, std::span<const Vec> deltas,
    std::span<Match> out)
{
    Scope s(sp::kAttackClassify);
    PB_REAL(_ZNK5gpusc6attack14SignatureModel13classifyBatchESt4spanIKSt5arrayIlLm11EELm18446744073709551615EES2_INS1_5MatchELm18446744073709551615EE)(
        self, deltas, out);
}

// trace::TraceReader::next(TraceRecord &, bool &)
trace::TraceError PB_REAL(_ZN5gpusc5trace11TraceReader4nextERNS0_11TraceRecordERb)(
    trace::TraceReader *, trace::TraceRecord &, bool &);
trace::TraceError
PB_WRAP(_ZN5gpusc5trace11TraceReader4nextERNS0_11TraceRecordERb)(
    trace::TraceReader *self, trace::TraceRecord &out, bool &eof)
{
    Scope s(sp::kTraceDecode);
    return PB_REAL(_ZN5gpusc5trace11TraceReader4nextERNS0_11TraceRecordERb)(
        self, out, eof);
}

// stream::Session::drain()
std::size_t PB_REAL(_ZN5gpusc6stream7Session5drainEv)(stream::Session *);
std::size_t
PB_WRAP(_ZN5gpusc6stream7Session5drainEv)(stream::Session *self)
{
    Scope s(sp::kStreamDrain);
    return PB_REAL(_ZN5gpusc6stream7Session5drainEv)(self);
}

} // extern "C"
