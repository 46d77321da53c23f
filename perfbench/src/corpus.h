/**
 * @file
 * Set-up inputs shared by the workloads: the offline-trained model,
 * a .gpct corpus recorded live by eval::ExperimentRunner, and the
 * corpus decoded into one continuous reading timeline for streaming.
 * Everything is a function of the workload seed.
 */

#ifndef PERFBENCH_CORPUS_H
#define PERFBENCH_CORPUS_H

#include <cstdint>
#include <string>
#include <vector>

#include "attack/model_store.h"
#include "attack/sampler.h"
#include "eval/experiment.h"

namespace perfbench {

/** Credential lengths of every workload (Fig. 17's range). */
inline constexpr std::size_t kMinLen = 8;
inline constexpr std::size_t kMaxLen = 16;

/** Train the default DeviceConfig's model into @p store.
 *  @return seconds spent in ModelStore::getOrTrain. */
double trainDefault(gpusc::attack::ModelStore &store);

/** One recorded .gpct file and what the live attack inferred. */
struct CorpusFile
{
    std::string path;
    std::vector<gpusc::eval::TrialResult> live;
    std::uint64_t bytes = 0;
};

/** A recorded corpus. */
struct Corpus
{
    std::vector<CorpusFile> files;
};

/**
 * Record @p files files of @p trialsPerFile trials each, file i with
 * seed forkSeed(seed, i), on up to @p threads threads (one
 * ExperimentRunner in record mode per file). @p store must already
 * hold the default model.
 */
Corpus recordCorpus(gpusc::attack::ModelStore &store,
                    const std::string &dir, std::uint64_t seed,
                    int files, int trialsPerFile, std::size_t threads);

/** A trial's place in a Timeline. */
struct Window
{
    std::string truth;
    std::size_t first = 0; ///< first reading index inside the trial
    std::size_t last = 0;  ///< last reading index inside the trial
    gpusc::SimTime begin{};
    gpusc::SimTime end{};
};

/**
 * The corpus as one endless reading stream. Files are joined end to
 * end and the whole is repeated in laps; at each seam the counters
 * are shifted so the joining reading is idle and time keeps rising by
 * one sampling interval, so a session can start anywhere.
 */
struct Timeline
{
    std::vector<gpusc::attack::Reading> readings;
    std::vector<Window> trials;
    gpusc::SimTime lapTime{};
    gpusc::gpu::CounterTotals lapTotals{};

    /** Reading @p g of the endless stream. */
    gpusc::attack::Reading at(std::uint64_t g) const;
};

/** Decode every file of @p corpus. Exits on a decode error. */
Timeline decodeTimeline(const Corpus &corpus);

} // namespace perfbench

#endif // PERFBENCH_CORPUS_H
