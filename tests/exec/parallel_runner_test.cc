/**
 * @file
 * Determinism suite for the parallel evaluation engine: campaign
 * results, accuracy statistics, merged telemetry (counters, decision
 * funnel, audit trail) and fault-recovery accounting must be
 * byte-identical for any worker count, including one. Also checks
 * parallel trace replay against the serial TraceReplayer.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "attack/model_store.h"
#include "eval/experiment.h"
#include "exec/parallel_runner.h"
#include "kgsl/fault_injector.h"
#include "obs/telemetry.h"
#include "trace/trace_replayer.h"
#include "util/logging.h"

namespace gpusc::exec {
namespace {

attack::ModelStore &
store()
{
    static attack::ModelStore s;
    return s;
}

/** Everything a campaign produces that must be thread-count
 *  independent, in directly comparable form. */
struct CampaignOut
{
    std::vector<std::pair<std::string, std::string>> trials;
    std::size_t statTrials = 0;
    double textAcc = 0.0;
    double charAcc = 0.0;
    double avgErrors = 0.0;
    std::map<std::string, std::uint64_t> counters;
    std::string funnelJson;
    std::string auditJsonl;
    std::uint64_t healthSum = 0;
    std::uint64_t faultSum = 0;
};

CampaignOut
runCampaign(std::size_t threads, std::uint64_t seed,
            const kgsl::FaultPlan &faults = {},
            attack::ModelStore &models = store())
{
    obs::Telemetry telemetry;
    eval::ExperimentConfig cfg;
    cfg.seed = seed;
    cfg.telemetry = &telemetry;
    cfg.faultPlan = faults;
    ShardPlan plan;
    plan.shardSize = 2;
    ParallelRunner runner(cfg, models, threads, plan);
    const ParallelResult res = runner.runTrials(6, 8, 10);

    CampaignOut out;
    for (const eval::TrialResult &t : res.trials)
        out.trials.emplace_back(t.truth, t.inferred);
    out.statTrials = res.stats.trials();
    out.textAcc = res.stats.textAccuracy();
    out.charAcc = res.stats.charAccuracy();
    out.avgErrors = res.stats.avgErrorsPerText();
    for (const auto &[name, ctr] : telemetry.metrics.counters())
        out.counters[name] = ctr->value();
    out.funnelJson = telemetry.audit.funnelJson();
    out.auditJsonl = telemetry.audit.toJsonl();
    const attack::HealthStats &h = res.health;
    out.healthSum = h.transientRetries + h.busyRetries + h.reopens +
                    h.resetsSurvived + h.watchdogRecoveries +
                    h.missedReads + h.streamResets + h.wrapsRepaired +
                    h.countersHeld;
    out.faultSum = res.faults.transientErrors +
                   res.faults.busyDenials +
                   res.faults.powerCollapses +
                   res.faults.deviceResets;
    return out;
}

void
expectIdentical(const CampaignOut &a, const CampaignOut &b,
                const char *what)
{
    EXPECT_EQ(a.trials, b.trials) << what;
    EXPECT_EQ(a.statTrials, b.statTrials) << what;
    EXPECT_EQ(a.textAcc, b.textAcc) << what;
    EXPECT_EQ(a.charAcc, b.charAcc) << what;
    EXPECT_EQ(a.avgErrors, b.avgErrors) << what;
    EXPECT_EQ(a.counters, b.counters) << what;
    EXPECT_EQ(a.funnelJson, b.funnelJson) << what;
    EXPECT_EQ(a.auditJsonl, b.auditJsonl) << what;
    EXPECT_EQ(a.healthSum, b.healthSum) << what;
    EXPECT_EQ(a.faultSum, b.faultSum) << what;
}

TEST(ParallelRunnerTest, ResultsAreIdenticalForAnyThreadCount)
{
    setVerbose(false);
    const CampaignOut one = runCampaign(1, 7001);
    const CampaignOut two = runCampaign(2, 7001);
    const CampaignOut eight = runCampaign(8, 7001);

    ASSERT_EQ(one.trials.size(), 6u);
    expectIdentical(one, two, "threads 1 vs 2");
    expectIdentical(one, eight, "threads 1 vs 8");

    // And the campaign did real work: inference succeeded somewhere.
    EXPECT_GT(one.charAcc, 0.5);
    EXPECT_GT(one.counters.at("eval.trials"), 0u);
}

TEST(ParallelRunnerTest, FaultyCampaignAggregatesDeterministically)
{
    setVerbose(false);
    kgsl::FaultPlan plan;
    plan.transientErrorProb = 0.05;
    const CampaignOut one = runCampaign(1, 7002, plan);
    const CampaignOut four = runCampaign(4, 7002, plan);
    expectIdentical(one, four, "faulty campaign threads 1 vs 4");
    EXPECT_GT(one.faultSum, 0u) << "faults were actually injected";
    EXPECT_GT(one.healthSum, 0u) << "pipeline recovered from them";
}

/** A store holding store()'s trained models but no frame memo yet
 *  (its first getOrTrain creates an empty one). */
std::unique_ptr<attack::ModelStore>
coldCopyOfStore()
{
    store().getOrTrain(eval::ExperimentConfig{}.device,
                       attack::OfflineTrainer{});
    auto s = std::make_unique<attack::ModelStore>();
    for (const auto &[key, model] : store().all())
        s->put(model);
    return s;
}

TEST(ParallelRunnerTest, FrameMemoWarmthNeverChangesResults)
{
    setVerbose(false);
    const auto cold1 = coldCopyOfStore();
    const auto cold4 = coldCopyOfStore();
    const CampaignOut ref = runCampaign(1, 7006, {}, *cold1);
    expectIdentical(ref, runCampaign(4, 7006, {}, *cold4),
                    "cold store, threads 1 vs 4");

    // Pre-warm a store with another campaign, then rerun on it.
    const auto warm = coldCopyOfStore();
    runCampaign(4, 7007, {}, *warm);
    const eval::ExperimentConfig cfg;
    ASSERT_NE(warm->frameMemo(cfg.device), nullptr);
    EXPECT_GT(warm->frameMemo(cfg.device)->entries(), 0u);
    expectIdentical(ref, runCampaign(1, 7006, {}, *warm),
                    "cold vs pre-warmed store, threads 1");
    expectIdentical(ref, runCampaign(4, 7006, {}, *warm),
                    "cold vs pre-warmed store, threads 4");
}

TEST(ParallelRunnerTest, SeedChangesTheCampaign)
{
    setVerbose(false);
    const CampaignOut a = runCampaign(2, 7003);
    const CampaignOut b = runCampaign(2, 7004);
    EXPECT_NE(a.trials, b.trials);
}

TEST(ParallelRunnerTest, TelemetryCoversEveryTrial)
{
    setVerbose(false);
    const CampaignOut out = runCampaign(4, 7005);
    EXPECT_EQ(out.statTrials, 6u);
    EXPECT_EQ(out.counters.at("eval.trials"), 6u);
    EXPECT_GT(out.counters.at("pipeline.readings_in"), 0u);
}

TEST(ParallelRunnerTest, TraceRecordingIsDisabledInParallel)
{
    setVerbose(false);
    const std::string path =
        ::testing::TempDir() + "parallel_no_record.gpct";
    std::remove(path.c_str());

    eval::ExperimentConfig cfg;
    cfg.seed = 7006;
    cfg.recordTracePath = path;
    ParallelRunner runner(cfg, store(), 2);
    const ParallelResult res = runner.runTrials(2, 8, 8);
    EXPECT_EQ(res.trials.size(), 2u);

    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_EQ(f, nullptr) << "parallel run must not write a trace";
    if (f)
        std::fclose(f);
}

TEST(ParallelRunnerTest, ReplayFilesMatchesSerialReplayer)
{
    setVerbose(false);
    // Record two traces serially (recording is a serial concern).
    std::vector<std::string> paths;
    for (std::uint64_t seed : {7101u, 7102u}) {
        const std::string path = ::testing::TempDir() + "par_replay_" +
                                 std::to_string(seed) + ".gpct";
        eval::ExperimentConfig cfg;
        cfg.seed = seed;
        cfg.recordTracePath = path;
        eval::ExperimentRunner runner(cfg, store());
        runner.runTrials(2, 8, 8);
        ASSERT_EQ(runner.finishRecording(), trace::TraceError::None);
        paths.push_back(path);
    }

    ThreadPool pool(4);
    const std::vector<ReplayOutcome> parallel =
        replayFiles(store(), paths, pool);

    ASSERT_EQ(parallel.size(), paths.size());
    for (std::size_t i = 0; i < paths.size(); ++i) {
        trace::TraceReplayer serial(store());
        ASSERT_EQ(serial.replayFile(paths[i]),
                  trace::TraceError::None);
        EXPECT_EQ(parallel[i].path, paths[i]);
        EXPECT_EQ(parallel[i].error, trace::TraceError::None);
        EXPECT_EQ(parallel[i].readings, serial.readingsReplayed());
        ASSERT_EQ(parallel[i].trials.size(), serial.trials().size());
        for (std::size_t t = 0; t < serial.trials().size(); ++t) {
            EXPECT_EQ(parallel[i].trials[t].truth,
                      serial.trials()[t].truth);
            EXPECT_EQ(parallel[i].trials[t].inferred,
                      serial.trials()[t].inferred)
                << "file " << i << " trial " << t;
        }
    }
    for (const std::string &p : paths)
        std::remove(p.c_str());
}

} // namespace
} // namespace gpusc::exec
