#include "corpus.h"

#include <cstdio>
#include <filesystem>

#include "exec/thread_pool.h"
#include "stats.h"
#include "trace/trace_reader.h"
#include "util/logging.h"
#include "util/rng.h"

namespace perfbench {

using namespace gpusc;

double
trainDefault(attack::ModelStore &store)
{
    const double t0 = wallSeconds();
    store.getOrTrain(android::DeviceConfig{}, attack::OfflineTrainer{});
    return wallSeconds() - t0;
}

Corpus
recordCorpus(attack::ModelStore &store, const std::string &dir,
             std::uint64_t seed, int files, int trialsPerFile,
             std::size_t threads)
{
    Corpus corpus;
    corpus.files.resize(std::size_t(files));
    exec::ThreadPool pool(threads);
    pool.parallelFor(corpus.files.size(), [&](std::size_t i) {
        CorpusFile &f = corpus.files[i];
        f.path = dir + "/corpus-" + std::to_string(i) + ".gpct";
        eval::ExperimentConfig cfg;
        cfg.seed = forkSeed(seed, i);
        cfg.recordTracePath = f.path;
        eval::ExperimentRunner runner(cfg, store);
        runner.runTrials(trialsPerFile, kMinLen, kMaxLen, &f.live);
        if (runner.finishRecording() != trace::TraceError::None)
            fatal("perfbench: recording %s failed", f.path.c_str());
    });
    for (CorpusFile &f : corpus.files)
        f.bytes = std::filesystem::file_size(f.path);
    return corpus;
}

attack::Reading
Timeline::at(std::uint64_t g) const
{
    const std::uint64_t n = readings.size();
    const std::uint64_t lap = g / n;
    attack::Reading r = readings[g % n];
    r.time += lapTime * std::int64_t(lap);
    for (std::size_t c = 0; c < r.totals.size(); ++c)
        r.totals[c] += lapTotals[c] * lap;
    return r;
}

Timeline
decodeTimeline(const Corpus &corpus)
{
    Timeline tl;
    const SimTime interval = SimTime::fromMs(8);
    for (const CorpusFile &f : corpus.files) {
        trace::TraceReader reader;
        if (reader.open(f.path) != trace::TraceError::None)
            fatal("perfbench: cannot open %s", f.path.c_str());
        // Shift this file so its first reading continues the previous
        // file: one interval later, same counter totals (idle).
        bool first = true;
        SimTime dt{};
        gpu::CounterTotals dc{};
        Window open;
        bool inTrial = false;
        trace::TraceRecord rec;
        bool eof = false;
        for (;;) {
            const trace::TraceError err = reader.next(rec, eof);
            if (err != trace::TraceError::None)
                fatal("perfbench: %s: %s", f.path.c_str(),
                      trace::traceErrorString(err));
            if (eof)
                break;
            if (rec.kind == trace::RecordKind::Reading) {
                if (first) {
                    first = false;
                    if (!tl.readings.empty()) {
                        const attack::Reading &prev = tl.readings.back();
                        dt = prev.time + interval - rec.reading.time;
                        for (std::size_t c = 0; c < dc.size(); ++c)
                            dc[c] = prev.totals[c] - rec.reading.totals[c];
                    }
                }
                attack::Reading r = rec.reading;
                r.time += dt;
                for (std::size_t c = 0; c < dc.size(); ++c)
                    r.totals[c] += dc[c];
                tl.readings.push_back(r);
            } else if (rec.kind == trace::RecordKind::TrialBegin) {
                open = Window{rec.text, tl.readings.size(), 0,
                              rec.time + dt, rec.time + dt};
                inTrial = true;
            } else if (rec.kind == trace::RecordKind::TrialEnd &&
                       inTrial) {
                open.end = rec.time + dt;
                open.last = tl.readings.empty() ? 0
                                                : tl.readings.size() - 1;
                tl.trials.push_back(open);
                inTrial = false;
            }
        }
    }
    if (tl.readings.size() < 2)
        fatal("perfbench: corpus holds no readings");
    const attack::Reading &a = tl.readings.front();
    const attack::Reading &b = tl.readings.back();
    tl.lapTime = b.time - a.time + interval;
    for (std::size_t c = 0; c < tl.lapTotals.size(); ++c)
        tl.lapTotals[c] = b.totals[c] - a.totals[c];
    return tl;
}

} // namespace perfbench
