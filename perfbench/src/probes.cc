#include "probes.h"

#include <memory>

#include "android/device.h"
#include "attack/eavesdropper.h"
#include "eval/experiment.h"
#include "exec/thread_pool.h"
#include "gpu/pipeline.h"
#include "gpu/render_engine.h"
#include "kgsl/msm_kgsl.h"
#include "obs/telemetry.h"
#include "spans.h"
#include "stats.h"
#include "stream/ingest_service.h"
#include "trace/trace_reader.h"
#include "util/logging.h"
#include "util/rng.h"
#include "workload/credential.h"

namespace perfbench {

using namespace gpusc;

namespace {

/** Stream indices for probe seeds (workload streams use small ones). */
constexpr std::uint64_t kProbeTrials = 0x70726f6265000001ULL;
constexpr std::uint64_t kProbeStream = 0x70726f6265000002ULL;

std::vector<const android::Key *>
charKeys(const android::KeyboardLayout &layout)
{
    std::vector<const android::Key *> keys;
    for (const android::Key &k : layout.keys(android::KbPage::Lower))
        if (k.code == android::KeyCode::Char)
            keys.push_back(&k);
    return keys;
}

gfx::FrameScene
keyScene(const android::KeyboardLayout &layout, const android::Key &key,
         const gfx::Rect &damage)
{
    gfx::FrameScene s;
    s.damage = damage;
    layout.buildBase(s, android::KbPage::Lower);
    layout.buildPopup(s, key, 1.0);
    return s;
}

} // namespace

void
probeScenes(Metrics &out)
{
    android::Device dev(android::DeviceConfig{});
    const android::KeyboardLayout &layout = dev.ime().layout();
    const gpu::GpuModel &model = dev.engine().model();
    const std::vector<const android::Key *> keys = charKeys(layout);

    std::vector<double> build;
    std::vector<gfx::FrameScene> popup, ime;
    for (int rep = 0; rep < 20; ++rep)
        for (const android::Key *k : keys) {
            const double t0 = wallSeconds();
            gfx::FrameScene s = keyScene(layout, *k, layout.popupMaxRect(*k));
            build.push_back(wallSeconds() - t0);
            if (rep == 0) {
                popup.push_back(std::move(s));
                ime.push_back(keyScene(layout, *k, layout.bounds()));
            }
        }

    gpu::Pipeline pipe(model);
    auto renderUs = [&](const std::vector<gfx::FrameScene> &scenes,
                        int reps) {
        std::vector<double> us;
        for (int rep = 0; rep < reps; ++rep)
            for (const gfx::FrameScene &s : scenes) {
                const double t0 = wallSeconds();
                const gpu::FrameResult r = pipe.render(s);
                us.push_back((wallSeconds() - t0) * 1e6);
                if (r.rasterizedPixels < 0)
                    fatal("perfbench: negative raster count");
            }
        return median(us);
    };

    EventQueue eq;
    gpu::RenderEngine engine(eq, model);
    for (const gfx::FrameScene &s : popup) // fill the scene memo
        eq.runUntil(engine.submit(s));
    std::vector<double> hit;
    for (int rep = 0; rep < 20; ++rep)
        for (const gfx::FrameScene &s : popup) {
            const double t0 = wallSeconds();
            const SimTime end = engine.submit(s);
            hit.push_back((wallSeconds() - t0) * 1e6);
            eq.runUntil(end);
        }

    out.push_back({"gfx.scene_build_us", median(build) * 1e6, "us"});
    out.push_back({"gpu.render_us.popup", renderUs(popup, 20), "us"});
    out.push_back({"gpu.render_us.ime", renderUs(ime, 2), "us"});
    out.push_back({"gpu.submit_hit_us", median(hit), "us"});
}

void
probeKgsl(Metrics &out)
{
    android::Device dev(android::DeviceConfig{});
    dev.launchTargetApp();
    kgsl::KgslDevice &k = dev.kgsl();
    const int fd = k.open(dev.attackerContext());
    if (fd < 0)
        fatal("perfbench: kgsl open failed (%d)", fd);
    kgsl::kgsl_perfcounter_read_group entries[gpu::kNumSelectedCounters];
    for (std::size_t i = 0; i < gpu::kNumSelectedCounters; ++i) {
        const gpu::CounterId id = gpu::counterId(gpu::SelectedCounter(i));
        kgsl::kgsl_perfcounter_get get;
        get.groupid = id.group;
        get.countable = id.countable;
        if (k.ioctl(fd, kgsl::IOCTL_KGSL_PERFCOUNTER_GET, &get) != 0)
            fatal("perfbench: PERFCOUNTER_GET failed");
        entries[i].groupid = id.group;
        entries[i].countable = id.countable;
    }
    kgsl::kgsl_perfcounter_read req;
    req.reads = entries;
    req.count = gpu::kNumSelectedCounters;
    std::vector<double> ns;
    for (int rep = 0; rep < 15; ++rep) {
        constexpr int kReads = 2000;
        const double t0 = wallSeconds();
        for (int i = 0; i < kReads; ++i)
            if (k.ioctl(fd, kgsl::IOCTL_KGSL_PERFCOUNTER_READ, &req) != 0)
                fatal("perfbench: PERFCOUNTER_READ failed");
        ns.push_back((wallSeconds() - t0) * 1e9 / kReads);
        dev.runFor(SimTime::fromMs(8)); // let frames land between bursts
    }
    k.close(fd);
    out.push_back({"kgsl.read_ns", median(ns), "ns"});
}

void
probeTrials(attack::ModelStore &store, std::uint64_t seed, bool traced,
            Metrics &out)
{
    eval::ExperimentConfig cfg;
    cfg.seed = forkSeed(seed, kProbeTrials);
    Rng lenRng(forkSeed(cfg.seed, 1));
    workload::CredentialGenerator gen(forkSeed(cfg.seed, 2));
    auto nextCred = [&] {
        return gen.next(std::size_t(lenRng.uniformInt(kMinLen, kMaxLen)));
    };

    // A fresh runner per sample: its boot, then its first trial.
    std::vector<double> boot, cold;
    std::unique_ptr<eval::ExperimentRunner> runner;
    for (int i = 0; i < 5; ++i) {
        runner.reset();
        double t0 = wallSeconds();
        runner = std::make_unique<eval::ExperimentRunner>(cfg, store);
        boot.push_back((wallSeconds() - t0) * 1e3);
        t0 = wallSeconds();
        runner->runTrial(nextCred());
        cold.push_back((wallSeconds() - t0) * 1e3);
    }

    constexpr int kWarm = 24;
    const std::uint64_t frames0 = runner->device().engine().framesRendered();
    const std::uint64_t ioctls0 = runner->device().kgsl().ioctlCount();
    std::vector<double> warm;
    for (int i = 0; i < kWarm; ++i) {
        const double t0 = wallSeconds();
        runner->runTrial(nextCred());
        warm.push_back((wallSeconds() - t0) * 1e3);
    }
    const double frames =
        double(runner->device().engine().framesRendered() - frames0);
    const double ioctls =
        double(runner->device().kgsl().ioctlCount() - ioctls0);

    // Render share: the same kind of warm trials again, with spans on.
    double renderShare = 0.0;
    if (traced) {
        spans::reset();
        spans::setEnabled(true);
        for (int i = 0; i < kWarm; ++i)
            runner->runTrial(nextCred());
        spans::setEnabled(false);
        const auto t = spans::totals();
        if (t[spans::kEvalTrial].seconds > 0)
            renderShare = t[spans::kGpuRender].seconds /
                          t[spans::kEvalTrial].seconds;
        spans::reset();
    }

    const double coldMs = median(cold), warmMs = median(warm);
    out.push_back({"eval.trial_ms.cold", coldMs, "ms"});
    out.push_back({"eval.trial_ms.warm", warmMs, "ms"});
    out.push_back({"eval.trial_cold_over_warm", coldMs / warmMs, "ratio"});
    out.push_back({"exec.shard_boot_ms", median(boot), "ms"});
    out.push_back({"gpu.frames_per_trial", frames / kWarm, "count"});
    out.push_back({"kgsl.ioctl_per_trial", ioctls / kWarm, "count"});
    out.push_back({"gpu.render_share.warm_trial", renderShare, "ratio"});
}

void
probeCorpus(const attack::SignatureModel &model, const Corpus &corpus,
            Metrics &out)
{
    // Decode only: TraceReader::next over every file.
    std::vector<std::vector<attack::Reading>> readings(corpus.files.size());
    std::uint64_t records = 0, bytes = 0;
    std::vector<double> decodeNs;
    for (int rep = 0; rep < 5; ++rep) {
        records = 0;
        const double t0 = wallSeconds();
        for (std::size_t i = 0; i < corpus.files.size(); ++i) {
            trace::TraceReader reader;
            if (reader.open(corpus.files[i].path) != trace::TraceError::None)
                fatal("perfbench: cannot open corpus file");
            trace::TraceRecord rec;
            bool eof = false;
            while (reader.next(rec, eof) == trace::TraceError::None && !eof) {
                ++records;
                if (rep == 0 && rec.kind == trace::RecordKind::Reading)
                    readings[i].push_back(rec.reading);
            }
        }
        decodeNs.push_back((wallSeconds() - t0) * 1e9 / double(records));
    }
    std::uint64_t nReadings = 0;
    for (std::size_t i = 0; i < corpus.files.size(); ++i) {
        nReadings += readings[i].size();
        bytes += corpus.files[i].bytes;
    }

    // Inference only: pre-decoded readings through a detached
    // Eavesdropper, one per file as the replayer does.
    std::vector<double> feedNs;
    for (int rep = 0; rep < 3; ++rep) {
        const double t0 = wallSeconds();
        for (const std::vector<attack::Reading> &rs : readings) {
            attack::Eavesdropper e(model, attack::Eavesdropper::Params{});
            e.feedReadings(rs);
        }
        feedNs.push_back((wallSeconds() - t0) * 1e9 / double(nReadings));
    }
    obs::Telemetry tel;
    for (const std::vector<attack::Reading> &rs : readings) {
        attack::Eavesdropper::Params p;
        p.telemetry = &tel;
        attack::Eavesdropper e(model, p);
        e.feedReadings(rs);
        e.flushTelemetry();
    }
    const double changeFrac =
        double(tel.audit.changesAudited()) / double(nReadings);

    // Classify only: the corpus's non-idle reading deltas.
    std::vector<gpu::CounterVec> deltas;
    for (const std::vector<attack::Reading> &rs : readings)
        for (std::size_t i = 1; i < rs.size(); ++i) {
            gpu::CounterVec d{};
            bool idle = true;
            for (std::size_t c = 0; c < d.size(); ++c) {
                d[c] = std::int64_t(rs[i].totals[c] - rs[i - 1].totals[c]);
                idle = idle && d[c] == 0;
            }
            if (!idle)
                deltas.push_back(d);
        }
    std::vector<attack::SignatureModel::Match> matches(deltas.size());
    std::vector<double> classifyNs;
    for (int rep = 0; rep < 15 && !deltas.empty(); ++rep) {
        const double t0 = wallSeconds();
        model.classifyBatch(deltas, matches);
        classifyNs.push_back((wallSeconds() - t0) * 1e9 /
                             double(deltas.size()));
    }

    out.push_back({"trace.decode_ns", median(decodeNs), "ns"});
    out.push_back({"trace.bytes_per_reading",
                   double(bytes) / double(nReadings), "B"});
    out.push_back({"attack.feed_ns", median(feedNs), "ns"});
    out.push_back({"attack.change_frac", changeFrac, "ratio"});
    out.push_back({"simd.classify_ns", median(classifyNs), "ns"});
}

void
probeStream(const attack::SignatureModel &model, const Timeline &tl,
            std::uint64_t seed, Metrics &out)
{
    constexpr std::size_t kSessions = 1024;
    constexpr int kRounds = 1000; // 10 samples beyond p99
    stream::IngestService svc(model, stream::IngestService::Params{});
    Rng rng(forkSeed(seed, kProbeStream));
    std::vector<std::uint64_t> offset(kSessions);
    const auto last = std::int64_t(tl.readings.size()) - 1;
    for (std::uint64_t &o : offset)
        o = std::uint64_t(rng.uniformInt(0, last));

    // First offer per session creates it.
    double createS = 0.0;
    for (std::size_t s = 0; s < kSessions; ++s) {
        const attack::Reading r = tl.at(offset[s]);
        const double t0 = wallSeconds();
        svc.offer(s, r);
        createS += wallSeconds() - t0;
    }
    std::uint64_t g = 1;

    exec::ThreadPool pool4(4), pool1(1);
    std::vector<double> offerNs, pumpMs;
    double pumpCpu = 0.0, pumpWall = 0.0;
    auto rounds = [&](exec::ThreadPool &pool, bool record) {
        const double start = wallSeconds();
        for (int i = 0; i < kRounds; ++i, ++g) {
            const double t0 = wallSeconds();
            for (std::size_t s = 0; s < kSessions; ++s)
                svc.offer(s, tl.at(offset[s] + g));
            const double t1 = wallSeconds();
            const double c1 = processCpuSeconds();
            svc.pump(pool);
            const double t2 = wallSeconds();
            if (record) {
                offerNs.push_back((t1 - t0) * 1e9 / double(kSessions));
                pumpMs.push_back((t2 - t1) * 1e3);
                pumpCpu += processCpuSeconds() - c1;
                pumpWall += t2 - t1;
            }
        }
        return (wallSeconds() - start) / kRounds;
    };
    rounds(pool4, false); // warm-up: rings, model copies, pool threads
    const double round4 = rounds(pool4, true);
    const double round1 = rounds(pool1, false);

    std::uint64_t updates = 0;
    for (const auto &[id, session] : svc.sessions().all())
        updates += session->updater() ? session->updater()->updatesApplied()
                                      : 0;
    const double sessions = double(svc.sessions().size());

    out.push_back({"stream.session_create_us",
                   createS * 1e6 / double(kSessions), "us"});
    out.push_back({"stream.offer_ns", median(offerNs), "ns"});
    out.push_back({"stream.pump_ms.p50", median(pumpMs), "ms"});
    out.push_back({"stream.pump_ms.p99", tailPercentile(pumpMs).value, "ms"});
    out.push_back({"exec.cpu_wall.pump", cpuWall(pumpCpu, pumpWall), "ratio"});
    out.push_back({"exec.pump_speedup", round1 / round4, "ratio"});
    out.push_back({"stream.bytes_per_session",
                   double(svc.sessions().memoryUseBytes()) / sessions, "B"});
    out.push_back({"stream.template_updates", double(updates), "count"});
}

} // namespace perfbench
