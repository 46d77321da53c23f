#include "workloads.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <thread>

#include <sys/prctl.h>
#include <unistd.h>

#include "attack/model_store.h"
#include "eval/metrics.h"
#include "exec/parallel_runner.h"
#include "exec/thread_pool.h"
#include "host.h"
#include "obs/telemetry.h"
#include "spans.h"
#include "stats.h"
#include "stream/ingest_service.h"
#include "trace/trace_replayer.h"
#include "util/logging.h"
#include "util/rng.h"

namespace perfbench {

using namespace gpusc;

namespace {

/** Busy threads in multi-worker regions (the reference host's nproc). */
constexpr std::size_t kWorkers = 4;
/** Set-ups per end-to-end run; setup_s is their median. */
constexpr int kSetups = 5;
/** Campaign trials per ParallelRunner call: one default shard (8
 *  trials) per worker. */
constexpr int kRoundTrials = 32;
/** Corpus shape for replay and stream (256 trials). */
constexpr int kCorpusFiles = 16;
constexpr int kCorpusTrialsPerFile = 16;
/** Stream: victim sessions and rates in multiples of real time (one
 *  reading per victim per 8 ms sampling interval). */
constexpr std::size_t kSessions = 1024;
constexpr double kInterval = 0.008;
constexpr int kRates[] = {1, 4, 8};
/** The rate whose latency is the end-to-end latency: live rate, where a
 *  round has no queue ahead of it. At 4x a round waits behind the one
 *  before it, and that wait magnifies a slower host several times over. */
constexpr int kLatencyRate = 1;
/** The rate whose generator lateness the traced run reports. */
constexpr int kLatenessRate = 4;
/** Latency limit: one sampling interval, else the service is behind
 *  live victims. */
constexpr double kLatencyLimit = kInterval;

/** forkSeed stream indices of the workloads' inputs. */
constexpr std::uint64_t kCorpusStream = 0x636f72707573ULL;
constexpr std::uint64_t kOffsetStream = 0x6f6666736574ULL;
constexpr std::uint64_t kRoundStream = 0x726f756e64ULL;

std::string
jnum(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jstr(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

/** {"k": v, ...} from already-encoded values. */
std::string
jobj(const std::vector<std::pair<std::string, std::string>> &fields)
{
    std::string out = "{";
    for (std::size_t i = 0; i < fields.size(); ++i)
        out += (i ? ", " : "") + jstr(fields[i].first) + ": " +
               fields[i].second;
    return out + "}";
}

/** A timed region: wall and process-CPU seconds. */
struct Region
{
    std::string name;
    double wall = 0.0;
    double cpu = 0.0;
    double ratio() const { return cpuWall(cpu, wall); }
    std::string json() const
    {
        return jobj({{"name", jstr(name)},
                     {"wall_s", jnum(wall)},
                     {"cpu_s", jnum(cpu)},
                     {"cpu_wall", jnum(ratio())}});
    }
};

/** Ops of a closed or open loop plus the region they ran in. */
struct OpLog
{
    std::vector<OpTiming> ops;
    Region region;
    /** Generator lateness to report, when not that of every op. */
    std::vector<double> genLatenessMs;

    double meanServiceS() const
    {
        double s = 0.0;
        for (const OpTiming &op : ops)
            s += op.end - op.start;
        return ops.empty() ? 0.0 : s / double(ops.size());
    }
    std::vector<double> latenciesMs() const
    {
        std::vector<double> v;
        for (const OpTiming &op : ops)
            v.push_back(op.latency() * 1e3);
        return v;
    }
    std::vector<double> latenessMs() const
    {
        std::vector<double> v;
        for (const OpTiming &op : ops)
            v.push_back(op.lateness() * 1e3);
        return v;
    }
};

/**
 * Closed loop: op(i) is due the moment op(i-1) completes; runs until
 * @p seconds have passed and at least @p minOps ops completed.
 */
OpLog
closedLoop(const std::string &name, double seconds, std::size_t minOps,
           const std::function<void(std::size_t)> &op)
{
    OpLog log;
    log.region.name = name;
    const double c0 = processCpuSeconds();
    const double t0 = wallSeconds();
    double due = t0;
    for (std::size_t i = 0;
         i < minOps || wallSeconds() - t0 < seconds; ++i) {
        OpTiming t;
        t.due = due;
        t.start = wallSeconds();
        spans::setOp(i);
        {
            spans::Scope s(spans::kOp);
            op(i);
        }
        t.end = wallSeconds();
        due = t.end;
        log.ops.push_back(t);
    }
    log.region.wall = wallSeconds() - t0;
    log.region.cpu = processCpuSeconds() - c0;
    return log;
}

void
sleepUntilSeconds(double t)
{
    std::this_thread::sleep_until(
        std::chrono::steady_clock::time_point(
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(t))));
}

/**
 * Spin kWorkers threads in 50 ms slices until their cpu/wall has
 * settled near kWorkers (two slices in a row within 10 % of each
 * other and above 85 % of ideal) or 4 s have passed. Some hosts run a
 * fresh process's extra threads on one vCPU for its first second or
 * two; without this the first multi-worker region measures that.
 */
Region
warmUp()
{
    Region r;
    r.name = "warm_up";
    exec::ThreadPool pool(kWorkers);
    const double t0 = wallSeconds();
    const double c0 = processCpuSeconds();
    double prev = 0.0;
    int settled = 0;
    std::vector<double> sink(kWorkers);
    while (wallSeconds() - t0 < 4.0 && settled < 2) {
        const double s0 = wallSeconds(), sc = processCpuSeconds();
        pool.parallelFor(kWorkers, [&](std::size_t k) {
            const double end = wallSeconds() + 0.05;
            double x = 1.0;
            while (wallSeconds() < end)
                for (int i = 0; i < 1000; ++i)
                    x = x * 1.0000001 + 1e-9;
            sink[k] = x;
        });
        const double ratio =
            cpuWall(processCpuSeconds() - sc, wallSeconds() - s0);
        const bool steady = ratio > 0.85 * double(kWorkers) &&
                            std::abs(ratio - prev) < 0.1 * ratio;
        settled = steady ? settled + 1 : 0;
        prev = ratio;
    }
    r.wall = wallSeconds() - t0;
    r.cpu = processCpuSeconds() - c0;
    return r;
}

std::unique_ptr<attack::ModelStore>
trainedStore(double &seconds)
{
    auto store = std::make_unique<attack::ModelStore>();
    seconds = trainDefault(*store);
    return store;
}

const attack::SignatureModel &
defaultModel(attack::ModelStore &store)
{
    return store.getOrTrain(android::DeviceConfig{},
                            attack::OfflineTrainer{});
}

/**
 * Set up kSetups times (once in a traced run), dropping the previous
 * set-up before the next starts, and keep the last. Appends each
 * set-up's seconds to @p seconds.
 */
template <typename T, typename Make>
T
repeatSetup(const Options &opt, std::vector<double> &seconds, Make &&make)
{
    T last{};
    for (int i = 0; i < (opt.trace ? 1 : kSetups); ++i) {
        last = T{};
        const double t0 = wallSeconds();
        last = make();
        seconds.push_back(wallSeconds() - t0);
    }
    return last;
}

/** Per-run scratch directory for corpus files. */
std::string
scratchDir(const Options &opt)
{
    const std::string dir = opt.outDir + "/tmp-" + opt.workload + "-" +
                            std::to_string(::getpid());
    std::filesystem::create_directories(dir);
    return dir;
}

/** Metrics every end-to-end run prints. */
void
e2eMetrics(Result &res, const std::vector<double> &setups,
           double throughput, const eval::AccuracyStats &acc,
           const std::vector<double> &latMs, const char *latWhat)
{
    const Tail tail = tailPercentile(latMs);
    res.metrics.push_back({"setup_s", median(setups), "s"});
    res.metrics.push_back({"peak_rss_mb", peakRssMb(), "MB"});
    res.metrics.push_back(
        {"ok_frac",
         res.attempted ? 1.0 - double(res.failed) / double(res.attempted)
                       : 0.0,
         "ratio"});
    res.metrics.push_back({"throughput_per_s", throughput, "1/s"});
    res.metrics.push_back({"key_acc", acc.charAccuracy(), "ratio"});
    res.metrics.push_back({"text_acc", acc.textAccuracy(), "ratio"});
    res.metrics.push_back({"lat_p50_ms", median(latMs), "ms"});

    std::string s = "[";
    for (std::size_t i = 0; i < setups.size(); ++i)
        s += (i ? ", " : "") + jnum(setups[i]);
    res.detail.push_back({"setup_s_samples", s + "]"});
    res.detail.push_back(
        {"latency", jobj({{"what", jstr(latWhat)},
                          {"samples", jnum(double(latMs.size()))},
                          {"p50_ms", jnum(median(latMs))},
                          {"tail_ms", jnum(tail.value)},
                          {"tail_q", jnum(tail.q)},
                          {"beyond_tail", jnum(double(tail.beyond))}})});
    res.detail.push_back({"trials_scored", jnum(double(acc.trials()))});
}

/**
 * The traced pass's ledger: per layer, self time as a share of the
 * region's CPU time and calls per operation; the unattributed share is
 * what no leaf layer explains (container spans' own time included).
 */
void
ledgerMetrics(const OpLog &traced, const OpLog &untraced, Metrics &out)
{
    const auto t = spans::totals();
    const double cpu = traced.region.cpu;
    const double ops = double(traced.ops.size());
    static const spans::Layer kLeaves[] = {
        spans::kSceneBuild,  spans::kGpuSubmit,     spans::kGpuRender,
        spans::kKgslIoctl,   spans::kAttackFeed,    spans::kAttackClassify,
        spans::kTraceDecode, spans::kStreamOffer,   spans::kStreamDrain,
    };
    std::vector<double> leafSelf;
    for (spans::Layer l : kLeaves)
        leafSelf.push_back(t[l].selfSeconds);
    for (int l = 1; l < spans::kNumLayers; ++l) {
        const std::string name = std::string("ledger.") + spans::layerName(l);
        out.push_back({name + ".self_frac",
                       cpu > 0 ? t[l].selfSeconds / cpu : 0.0, "ratio"});
        out.push_back({name + ".calls_per_op",
                       ops > 0 ? double(t[l].calls) / ops : 0.0, "count"});
    }
    out.push_back({"eval.unattributed_frac", ledgerResidual(cpu, leafSelf),
                   "ratio"});
    out.push_back({"trace.overhead_frac",
                   traced.meanServiceS() / untraced.meanServiceS() - 1.0,
                   "ratio"});
    // Render's share of the workload's own trials (cold shards
    // included); 0 where the workload runs no trials.
    out.push_back({"gpu.render_share.trial",
                   t[spans::kEvalTrial].seconds > 0
                       ? t[spans::kGpuRender].seconds /
                             t[spans::kEvalTrial].seconds
                       : 0.0,
                   "ratio"});
    out.push_back({"exec.cpu_wall", untraced.region.ratio(), "ratio"});
    out.push_back({"gen.lateness_ms",
                   tailPercentile(untraced.genLatenessMs.empty()
                                      ? untraced.latenessMs()
                                      : untraced.genLatenessMs)
                       .value,
                   "ms"});
}

/** Unit-cost probes every traced run ends with. */
void
allProbes(attack::ModelStore &store, const Corpus &corpus,
          const Timeline &tl, const Options &opt, double trainS,
          Metrics &out)
{
    out.push_back({"attack.train_s", trainS, "s"});
    probeScenes(out);
    probeKgsl(out);
    probeTrials(store, opt.seed, opt.wrapped, out);
    probeCorpus(defaultModel(store), corpus, out);
    probeStream(defaultModel(store), tl, opt.seed, out);
}

/** Runs a workload pass twice, untraced then traced, and writes the
 *  spans of the traced one. */
template <typename Pass>
void
tracedPasses(const Options &opt, Result &res, Pass &&pass)
{
    const OpLog untraced = pass();
    spans::reset();
    spans::setEnabled(true);
    const OpLog traced = pass();
    spans::setEnabled(false);
    ledgerMetrics(traced, untraced, res.metrics);
    const std::string path = opt.outDir + "/spans-" + opt.workload + "-" +
                             std::to_string(opt.seed) + ".json";
    if (!spans::writeJson(path))
        warn("perfbench: cannot write %s", path.c_str());
    res.detail.push_back({"spans_file", jstr(path)});
    res.detail.push_back({"regions", "[" + untraced.region.json() + ", " +
                                         traced.region.json() + "]"});
    spans::reset();
}

bool
sameTrials(const std::vector<eval::TrialResult> &a,
           const std::vector<eval::TrialResult> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i].truth != b[i].truth || a[i].inferred != b[i].inferred)
            return false;
    return true;
}

// ---------------------------------------------------------------- campaign

struct CampaignPass
{
    OpLog log;
    eval::AccuracyStats acc;
    std::vector<eval::TrialResult> round0;
    std::uint64_t trials = 0;
    std::uint64_t failedTrials = 0;
    std::uint64_t missedReads = 0;
};

eval::ExperimentConfig
roundConfig(std::uint64_t seed, std::size_t round)
{
    eval::ExperimentConfig cfg;
    cfg.seed = forkSeed(forkSeed(seed, kRoundStream), round);
    return cfg;
}

CampaignPass
campaignPass(attack::ModelStore &store, std::uint64_t seed,
             double seconds)
{
    CampaignPass p;
    p.log = closedLoop("campaign", seconds, 8, [&](std::size_t i) {
        exec::ParallelRunner runner(roundConfig(seed, i), store, kWorkers);
        exec::ParallelResult r =
            runner.runTrials(kRoundTrials, kMinLen, kMaxLen);
        for (const eval::TrialResult &t : r.trials)
            p.acc.add(t.truth, t.inferred);
        p.trials += r.trials.size();
        // A round whose sampler missed reads attacked degraded input.
        if (r.health.missedReads)
            p.failedTrials += r.trials.size();
        p.missedReads += r.health.missedReads;
        if (i == 0)
            p.round0 = std::move(r.trials);
    });
    return p;
}

/** Round 0 again on one worker with telemetry attached: thread count
 *  and telemetry must not change a single trial. */
void
checkCampaign(attack::ModelStore &store, const Options &opt,
              const CampaignPass &p, Result &res)
{
    obs::Telemetry tel;
    eval::ExperimentConfig cfg = roundConfig(opt.seed, 0);
    cfg.telemetry = &tel;
    exec::ParallelRunner one(cfg, store, 1);
    const exec::ParallelResult r =
        one.runTrials(kRoundTrials, kMinLen, kMaxLen);
    if (!sameTrials(r.trials, p.round0))
        res.violations.push_back(
            "campaign: 4-worker trials differ from the traced 1-worker run");
}

Result
runCampaign(const Options &opt)
{
    Result res;
    std::vector<double> setups;
    double trainS = 0.0;
    auto store = repeatSetup<std::unique_ptr<attack::ModelStore>>(
        opt, setups, [&] { return trainedStore(trainS); });
    const Region warm = warmUp();
    res.detail.push_back({"warm_up", warm.json()});

    if (!opt.trace) {
        const CampaignPass p = campaignPass(*store, opt.seed, opt.seconds);
        res.attempted = p.trials;
        res.failed = p.failedTrials;
        e2eMetrics(res, setups, double(p.trials) / p.log.region.wall, p.acc,
                   p.log.latenciesMs(),
                   "ParallelRunner::runTrials of 32 trials, closed loop");
        res.detail.push_back({"regions", "[" + p.log.region.json() + "]"});
        res.detail.push_back(
            {"trials_per_s", jnum(double(p.trials) / p.log.region.wall)});
        res.detail.push_back({"sampler_missed_reads",
                              jnum(double(p.missedReads))});
        const bool artefact = p.log.region.ratio() < 1.5;
        res.detail.push_back({"host_artefact", artefact ? "true" : "false"});
        if (artefact)
            warn("perfbench: 4-worker campaign ran at cpu/wall %.2f: the "
                 "host serialised the workers; trials_per_s measures the "
                 "host, not the engine",
                 p.log.region.ratio());
        checkCampaign(*store, opt, p, res);
        return res;
    }

    CampaignPass last;
    tracedPasses(opt, res, [&] {
        last = campaignPass(*store, opt.seed, opt.seconds);
        res.attempted += last.trials;
        res.failed += last.failedTrials;
        return last.log;
    });
    checkCampaign(*store, opt, last, res);
    // The probes need a corpus; the campaign workload has none.
    const Corpus corpus = recordCorpus(*store, scratchDir(opt),
                                       forkSeed(opt.seed, kCorpusStream), 4,
                                       4, kWorkers);
    allProbes(*store, corpus, decodeTimeline(corpus), opt, trainS,
              res.metrics);
    return res;
}

// ------------------------------------------------------------------ replay

struct ReplaySetup
{
    std::unique_ptr<attack::ModelStore> store;
    Corpus corpus;
};

ReplaySetup
replaySetup(const Options &opt, double &trainS)
{
    ReplaySetup s;
    s.store = trainedStore(trainS);
    s.corpus = recordCorpus(*s.store, scratchDir(opt),
                            forkSeed(opt.seed, kCorpusStream), kCorpusFiles,
                            kCorpusTrialsPerFile, kWorkers);
    return s;
}

struct ReplayPass
{
    OpLog log;
    eval::AccuracyStats acc; ///< first pass over the corpus
    std::uint64_t readings = 0;
    std::uint64_t files = 0;
    std::uint64_t failedFiles = 0;
    std::uint64_t mismatches = 0;
};

ReplayPass
replayPass(const ReplaySetup &s, double seconds)
{
    ReplayPass p;
    const std::size_t n = s.corpus.files.size();
    p.log = closedLoop("replay", seconds, n, [&](std::size_t i) {
        const CorpusFile &f = s.corpus.files[i % n];
        trace::TraceReplayer rep(*s.store);
        const trace::TraceError err = rep.replayFile(f.path);
        ++p.files;
        p.readings += rep.readingsReplayed();
        if (err != trace::TraceError::None) {
            ++p.failedFiles;
            return;
        }
        const auto &trials = rep.trials();
        bool same = trials.size() == f.live.size();
        for (std::size_t k = 0; same && k < trials.size(); ++k)
            same = trials[k].truth == f.live[k].truth &&
                   trials[k].inferred == f.live[k].inferred;
        p.mismatches += !same;
        if (i < n)
            for (const auto &t : trials)
                p.acc.add(t.truth, t.inferred);
    });
    return p;
}

void
checkReplay(const ReplayPass &p, Result &res)
{
    if (p.mismatches)
        res.violations.push_back(
            "replay: " + std::to_string(p.mismatches) +
            " file replays inferred other text than the recording run");
}

Result
runReplay(const Options &opt)
{
    Result res;
    std::vector<double> setups;
    double trainS = 0.0;
    const ReplaySetup s = repeatSetup<ReplaySetup>(
        opt, setups, [&] { return replaySetup(opt, trainS); });

    if (!opt.trace) {
        const ReplayPass p = replayPass(s, opt.seconds);
        res.attempted = p.files;
        res.failed = p.failedFiles;
        e2eMetrics(res, setups, double(p.readings) / p.log.region.wall, p.acc,
                   p.log.latenciesMs(),
                   "TraceReplayer::replayFile of one corpus file (16 "
                   "trials), closed loop");
        res.detail.push_back({"regions", "[" + p.log.region.json() + "]"});
        res.detail.push_back({"readings", jnum(double(p.readings))});
        res.detail.push_back(
            {"readings_per_s",
             jnum(double(p.readings) / p.log.region.wall)});
        checkReplay(p, res);
        return res;
    }

    tracedPasses(opt, res, [&] {
        const ReplayPass p = replayPass(s, opt.seconds);
        res.attempted += p.files;
        res.failed += p.failedFiles;
        checkReplay(p, res);
        return p.log;
    });
    allProbes(*s.store, s.corpus, decodeTimeline(s.corpus), opt, trainS,
              res.metrics);
    return res;
}

// ------------------------------------------------------------------ stream

struct StreamSetup
{
    std::unique_ptr<attack::ModelStore> store;
    Corpus corpus;
    Timeline tl;
    std::unique_ptr<stream::IngestService> svc;
    std::vector<std::uint64_t> offset;
    std::uint64_t round = 0; ///< next global round
};

StreamSetup
streamSetup(const Options &opt, double &trainS)
{
    StreamSetup s;
    s.store = trainedStore(trainS);
    s.corpus = recordCorpus(*s.store, scratchDir(opt),
                            forkSeed(opt.seed, kCorpusStream), kCorpusFiles,
                            kCorpusTrialsPerFile, kWorkers);
    s.tl = decodeTimeline(s.corpus);
    // Block backpressure and online adaptation: the defaults.
    s.svc = std::make_unique<stream::IngestService>(
        defaultModel(*s.store), stream::IngestService::Params{});
    Rng rng(forkSeed(opt.seed, kOffsetStream));
    s.offset.resize(kSessions);
    for (std::size_t id = 0; id < kSessions; ++id) {
        s.offset[id] = std::uint64_t(
            rng.uniformInt(0, std::int64_t(s.tl.readings.size()) - 1));
        s.svc->sessions().getOrCreate(id);
    }
    return s;
}

struct RatePass
{
    int rate = 1;
    OpLog log;
    Region pump; ///< inside the pump calls only
    bool grows = false;
};

/** Rounds at @p rate: its share of @p seconds of schedule, and at
 *  least enough for 10 samples beyond p99. */
std::size_t
roundsAt(int rate, double seconds)
{
    const double share = rate == 1 ? 0.55 : rate == 4 ? 0.3 : 0.15;
    return std::max<std::size_t>(
        1000, std::size_t(seconds * share * rate / kInterval));
}

std::vector<RatePass>
streamPass(StreamSetup &s, double seconds)
{
    // The generator sleeps to each due time; the default 50 us timer
    // slack would add its own jitter to every round's latency.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    std::vector<RatePass> out;
    exec::ThreadPool pool(kWorkers);
    for (int rate : kRates) {
        const std::size_t rounds = roundsAt(rate, seconds);
        RatePass rp;
        rp.rate = rate;
        rp.log.region.name = "stream." + std::to_string(rate) + "x";
        rp.pump.name = rp.log.region.name + ".pump";
        const double c0 = processCpuSeconds(), t0 = wallSeconds();
        rp.log.ops = runOpenLoop(
            rounds, kInterval / rate, wallSeconds, sleepUntilSeconds,
            [&](std::size_t) {
                const std::uint64_t g = s.round++;
                spans::setOp(g);
                spans::Scope op(spans::kOp);
                {
                    spans::Scope sp(spans::kStreamOffer);
                    for (std::size_t id = 0; id < kSessions; ++id)
                        s.svc->offer(id, s.tl.at(s.offset[id] + g));
                }
                const double pc = processCpuSeconds(), pt = wallSeconds();
                {
                    spans::Scope sp(spans::kStreamPump);
                    s.svc->pump(pool);
                }
                rp.pump.wall += wallSeconds() - pt;
                rp.pump.cpu += processCpuSeconds() - pc;
            });
        rp.log.region.wall = wallSeconds() - t0;
        rp.log.region.cpu = processCpuSeconds() - c0;
        rp.grows = latenessGrows(rp.log.ops, kLatencyLimit);
        out.push_back(std::move(rp));
    }
    return out;
}

/** Accuracy over every trial window a session consumed whole. */
eval::AccuracyStats
streamAccuracy(const StreamSetup &s)
{
    eval::AccuracyStats acc;
    const std::uint64_t n = s.tl.readings.size();
    for (std::size_t id = 0; id < kSessions; ++id) {
        const stream::Session *sess = s.svc->sessions().find(id);
        if (!sess)
            continue;
        const std::uint64_t lo = s.offset[id], hi = lo + s.round;
        for (std::uint64_t lap = lo / n; lap * n < hi; ++lap)
            for (const Window &w : s.tl.trials) {
                if (lap * n + w.first < lo || lap * n + w.last >= hi)
                    continue;
                const SimTime shift = s.tl.lapTime * std::int64_t(lap);
                acc.add(w.truth, sess->eavesdropper().inferredTextBetween(
                                     w.begin + shift, w.end + shift));
            }
    }
    return acc;
}

void
checkStream(StreamSetup &s, Result &res)
{
    const stream::IngestService &svc = *s.svc;
    if (svc.readingsShedOldest() || svc.readingsShedNewest())
        res.violations.push_back("stream: readings shed under Block");
    if (svc.sessions().sessionsEvicted())
        res.violations.push_back("stream: sessions evicted");
    obs::Telemetry agg;
    s.svc->aggregateTelemetry(agg);
    const obs::AuditTrail &a = agg.audit;
    const std::uint64_t parts = a.count(obs::Decision::AcceptedKey) +
                                a.count(obs::Decision::SplitRepaired) +
                                a.count(obs::Decision::DuplicationDrop) +
                                a.count(obs::Decision::NoiseRejected) +
                                a.count(obs::Decision::SuppressedAppSwitch);
    if (a.changesAudited() != parts)
        res.violations.push_back("stream: audit funnel does not partition "
                                 "the changes");
}

/** What the open loop showed across rates. */
struct RateSummary
{
    /** Highest offered rate whose tail latency stayed within the limit
     *  without a growing backlog, readings/s (0 when none did). */
    double maxRate = 0.0;
    /** Readings per second one round takes at the highest rate (where
     *  rounds run back to back), from the median round's service time. */
    double capacity = 0.0;
};

/** Summarise @p passes and record the per-rate table in @p res. */
RateSummary
rateSummary(const std::vector<RatePass> &passes, Result &res)
{
    RateSummary sum;
    std::string table = "[";
    for (const RatePass &rp : passes) {
        const std::vector<double> lat = rp.log.latenciesMs();
        std::vector<double> service;
        for (const OpTiming &op : rp.log.ops)
            service.push_back(op.end - op.start);
        const Tail tail = tailPercentile(lat);
        const bool ok = tail.value <= kLatencyLimit * 1e3 && !rp.grows;
        const double offered = double(kSessions) * rp.rate / kInterval;
        if (ok)
            sum.maxRate = std::max(sum.maxRate, offered);
        sum.capacity = double(kSessions) / median(service);
        const std::string x = "." + std::to_string(rp.rate) + "x";
        res.detail.push_back({"lat_p50_ms" + x, jnum(median(lat))});
        res.detail.push_back({"lat_tail_ms" + x, jnum(tail.value)});
        table += (table.size() > 1 ? ", " : "") +
                 jobj({{"rate", jnum(rp.rate)},
                       {"offered_readings_per_s", jnum(offered)},
                       {"rounds", jnum(double(lat.size()))},
                       {"lat_p50_ms", jnum(median(lat))},
                       {"lat_tail_ms", jnum(tail.value)},
                       {"tail_q", jnum(tail.q)},
                       {"service_p50_ms", jnum(median(service) * 1e3)},
                       {"lateness_tail_ms",
                        jnum(tailPercentile(rp.log.latenessMs()).value)},
                       {"lateness_grows", rp.grows ? "true" : "false"},
                       {"kept_up", ok ? "true" : "false"},
                       {"region", rp.log.region.json()},
                       {"pump_region", rp.pump.json()}});
    }
    res.detail.push_back({"rates", table + "]"});
    res.detail.push_back({"max_rate_readings_per_s", jnum(sum.maxRate)});
    return sum;
}

const RatePass &
passAt(const std::vector<RatePass> &passes, int rate)
{
    for (const RatePass &rp : passes)
        if (rp.rate == rate)
            return rp;
    return passes.front();
}

Result
runStream(const Options &opt)
{
    Result res;
    std::vector<double> setups;
    double trainS = 0.0;
    StreamSetup s = repeatSetup<StreamSetup>(
        opt, setups, [&] { return streamSetup(opt, trainS); });
    const Region warm = warmUp();
    res.detail.push_back({"warm_up", warm.json()});

    if (!opt.trace) {
        const std::vector<RatePass> passes = streamPass(s, opt.seconds);
        const RateSummary sum = rateSummary(passes, res);
        const double pumpRatio = passes.back().pump.ratio();
        const bool artefact = pumpRatio < 1.2;
        res.detail.push_back({"host_artefact", artefact ? "true" : "false"});
        if (artefact)
            warn("perfbench: 4-worker pumps ran at cpu/wall %.2f: the host "
                 "serialised the workers",
                 pumpRatio);
        res.attempted = s.svc->readingsOffered();
        res.failed = s.svc->readingsShedOldest() +
                     s.svc->readingsShedNewest();
        e2eMetrics(res, setups, sum.capacity, streamAccuracy(s),
                   passAt(passes, kLatencyRate).log.latenciesMs(),
                   "one offer+pump round of 1024 sessions at 1x real "
                   "time, open loop, from its due time");
        checkStream(s, res);
        return res;
    }

    tracedPasses(opt, res, [&] {
        const std::vector<RatePass> passes = streamPass(s, opt.seconds);
        OpLog whole;
        whole.region.name = "stream";
        for (const RatePass &rp : passes) {
            whole.ops.insert(whole.ops.end(), rp.log.ops.begin(),
                             rp.log.ops.end());
            whole.region.wall += rp.log.region.wall;
            whole.region.cpu += rp.log.region.cpu;
        }
        whole.genLatenessMs =
            passAt(passes, kLatenessRate).log.latenessMs();
        return whole;
    });
    res.attempted = s.svc->readingsOffered();
    res.failed = s.svc->readingsShedOldest() + s.svc->readingsShedNewest();
    checkStream(s, res);
    allProbes(*s.store, s.corpus, s.tl, opt, trainS, res.metrics);
    return res;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"campaign", "replay",
                                                   "stream"};
    return names;
}

Result
runWorkload(const Options &opt)
{
    Result res;
    if (opt.workload == "campaign")
        res = runCampaign(opt);
    else if (opt.workload == "replay")
        res = runReplay(opt);
    else
        res = runStream(opt);
    std::filesystem::remove_all(scratchDir(opt));
    for (Metric &m : res.metrics)
        if (!std::isfinite(m.value)) {
            res.violations.push_back(m.name + " is not a finite number");
            m.value = 0.0;
        }
    res.detail.insert(res.detail.begin(),
                      {{"workload", jstr(opt.workload)},
                       {"seed", std::to_string(opt.seed)},
                       {"seconds", jnum(opt.seconds)},
                       {"trace", opt.trace ? "true" : "false"},
                       {"host", "{" + hostJsonFields() + "}"}});
    res.detail.push_back(
        {"failed_frac",
         jnum(res.attempted ? double(res.failed) / double(res.attempted)
                            : 0.0)});
    res.detail.push_back(
        {"violations", [&] {
             std::string v = "[";
             for (std::size_t i = 0; i < res.violations.size(); ++i)
                 v += (i ? ", " : "") + jstr(res.violations[i]);
             return v + "]";
         }()});
    return res;
}

} // namespace perfbench
