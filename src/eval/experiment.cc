#include "eval/experiment.h"

#include "util/logging.h"

namespace gpusc::eval {

using namespace gpusc::sim_literals;

ExperimentRunner::ExperimentRunner(ExperimentConfig cfg,
                                   attack::ModelStore &store)
    : cfg_(std::move(cfg)), creds_(cfg_.seed ^ 0xc0ffee, cfg_.charset),
      rng_(cfg_.seed)
{
    // Offline phase first (trains on a separate bot-controlled device
    // of the same configuration).
    const attack::OfflineTrainer trainer;
    model_ = &store.getOrTrain(cfg_.device, trainer);
    if (cfg_.modelTransform) {
        transformedModel_ = cfg_.modelTransform(*model_);
        model_ = &*transformedModel_;
    }

    // Victim device + session.
    android::DeviceConfig devCfg = cfg_.device;
    devCfg.seed = cfg_.seed ^ 0x76696374696dULL;
    device_ = std::make_unique<android::Device>(
        devCfg, store.frameMemo(cfg_.device));

    // Defense stack on the victim's driver (the lab device above
    // trained against a stock one). Installed before boot so the very
    // first open already meets the gate.
    if (cfg_.defense.any()) {
        defensePolicy_ =
            std::make_unique<kgsl::DefendedPolicy>(cfg_.defense);
        device_->setSecurityPolicy(*defensePolicy_);
    }

    // Telemetry flows to every instrumented layer from here: the
    // attack pipeline via its Params, the driver boundary directly.
    cfg_.attackParams.telemetry = cfg_.telemetry;
    device_->kgsl().setTelemetry(cfg_.telemetry);
    if (cfg_.telemetry) {
        trialTimer_ = obs::StageTimer(cfg_.telemetry, "eval.trial");
        trialsCtr_ = &cfg_.telemetry->metrics.counter("eval.trials");
    }

    // Driver hostility applies to the victim device only (the
    // trainer's lab device above stays pristine). Attach before the
    // sampler starts so even the first reservations arbitrate.
    if (cfg_.faultPlan.any()) {
        injector_ = std::make_unique<kgsl::FaultInjector>(
            device_->eq(), cfg_.faultPlan);
        device_->kgsl().setFaultInjector(injector_.get());
    }

    if (cfg_.useDeviceRecognition) {
        eavesdropper_ = std::make_unique<attack::Eavesdropper>(
            *device_, store, cfg_.attackParams);
    } else {
        eavesdropper_ = std::make_unique<attack::Eavesdropper>(
            *device_, *model_, cfg_.attackParams);
    }

    // Both kinds of contention delay the sampler's wakeups: CPU hogs
    // directly, a saturated GPU through the kgsl driver path (§7.3:
    // "unable to timely read GPU performance counters").
    const double readContention =
        std::max(cfg_.cpuLoad, 0.75 * cfg_.gpuLoad);
    if (readContention > 0.0) {
        cpuLoad_ = std::make_unique<workload::CpuLoadModel>(
            readContention, rng_.next());
        eavesdropper_->setWakeupJitter(
            [this] { return cpuLoad_->nextWakeupDelay(); });
    }

    workload::TypingModel typing =
        cfg_.volunteer >= 0
            ? workload::TypingModel::forVolunteer(
                  std::size_t(cfg_.volunteer), rng_.next())
            : workload::TypingModel::forSpeed(cfg_.speed, rng_.next());
    typist_ = std::make_unique<workload::Typist>(*device_, typing,
                                                 rng_.next());
    typist_->setTypoProb(cfg_.typoProb);

    // Record mode: tap the sampler and the ground-truth input
    // surfaces before any reading can flow.
    if (!cfg_.recordTracePath.empty()) {
        trace::TraceHeader header;
        header.deviceKey = device_->modelKey();
        header.device = devCfg;
        header.samplingInterval = cfg_.attackParams.samplingInterval;
        header.seed = cfg_.seed;
        recorder_ = std::make_unique<trace::TraceRecorder>();
        if (recorder_->open(cfg_.recordTracePath, header) !=
            trace::TraceError::None) {
            warn("ExperimentRunner: cannot record to '%s'",
                 cfg_.recordTracePath.c_str());
            recorder_.reset();
        } else {
            recorder_->attachEavesdropper(*eavesdropper_);
            typist_->setKeyListener(
                [this](const workload::Typist::KeyEvent &ev) {
                    using Kind = workload::Typist::KeyEvent::Kind;
                    switch (ev.kind) {
                      case Kind::Char:
                        recorder_->onKeyPress(ev.time, ev.ch);
                        break;
                      case Kind::Backspace:
                        recorder_->onBackspace(ev.time);
                        break;
                      case Kind::PageSwitch:
                        recorder_->onPageSwitch(ev.time, ev.page);
                        break;
                    }
                });
            device_->ime().setPopupListener([this](char ch,
                                                   SimTime t) {
                recorder_->onPopupShow(t, ch);
            });
            device_->setAppSwitchListener(
                [this](bool toTarget, SimTime t) {
                    recorder_->onAppSwitch(t, toTarget);
                });
            if (injector_)
                injector_->setFaultListener(
                    [this](const kgsl::FaultEvent &ev) {
                        recorder_->onFault(ev);
                    });
        }
    }

    device_->boot();
    if (!eavesdropper_->start())
        warn("ExperimentRunner: attack failed to start (errno %d)",
             eavesdropper_->lastErrno());
    device_->launchTargetApp();

    if (cfg_.gpuLoad > 0.0) {
        gpuLoad_ = std::make_unique<workload::GpuLoadGenerator>(
            *device_, cfg_.gpuLoad, rng_.next());
        gpuLoad_->start();
    }

    // Let launch redraws and the first notification-free second pass.
    device_->runFor(1200_ms);
}

ExperimentRunner::~ExperimentRunner()
{
    finishRecording();
}

trace::TraceError
ExperimentRunner::finishRecording()
{
    if (!recorder_ || !recorder_->recording())
        return trace::TraceError::None;
    const trace::TraceError err = recorder_->finish();
    if (err != trace::TraceError::None)
        warn("ExperimentRunner: trace recording failed (%s)",
             trace::traceErrorString(err));
    else
        inform("ExperimentRunner: recorded %llu readings to '%s'",
               (unsigned long long)recorder_->readingCount(),
               cfg_.recordTracePath.c_str());
    return err;
}

TrialResult
ExperimentRunner::runTrial(const std::string &credential)
{
    const obs::StageTimer::Scope trialSpan =
        trialTimer_.scoped(device_->eq().now());
    if (trialsCtr_)
        trialsCtr_->inc();

    device_->app().clearText();
    device_->runFor(300_ms);

    const SimTime start = device_->eq().now();
    if (recorder_)
        recorder_->trialBegin(start, credential);
    bool done = false;
    typist_->type(credential, 100_ms, [&done] { done = true; });
    // Advance until the typist finishes (generous bound: 3 s per key
    // covers even pathological sampling configurations).
    const SimTime deadline =
        start + SimTime::fromSeconds(3.0 * double(credential.size()) +
                                     10.0);
    while (!done && device_->eq().now() < deadline)
        device_->runFor(50_ms);
    if (!done)
        panic("ExperimentRunner: typist did not finish");
    device_->runFor(600_ms); // flush trailing echoes/dismissals
    const SimTime end = device_->eq().now();
    if (recorder_)
        recorder_->trialEnd(end);

    eavesdropper_->flushTelemetry();

    TrialResult r;
    r.truth = credential;
    r.inferred = eavesdropper_->inferredTextBetween(start, end);
    if (trialListener_)
        trialListener_(r, end);
    return r;
}

AccuracyStats
ExperimentRunner::runTrials(int n, std::size_t minLen,
                            std::size_t maxLen)
{
    return runTrials(n, minLen, maxLen, nullptr);
}

AccuracyStats
ExperimentRunner::runTrials(int n, std::size_t minLen,
                            std::size_t maxLen,
                            std::vector<TrialResult> *trials)
{
    AccuracyStats stats;
    for (int i = 0; i < n; ++i) {
        const auto len = std::size_t(rng_.uniformInt(
            std::int64_t(minLen), std::int64_t(maxLen)));
        const TrialResult r = runTrial(creds_.next(len));
        stats.add(r.truth, r.inferred);
        if (trials)
            trials->push_back(r);
    }
    return stats;
}

} // namespace gpusc::eval
