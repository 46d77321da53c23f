#include "spans.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

namespace perfbench::spans {

namespace {

/** Spans kept verbatim across all threads (the first ones recorded);
 *  totals stay exact beyond it. */
constexpr std::size_t kMaxStored = 100000;

struct Stored
{
    std::int32_t layer = 0;
    std::int32_t parent = -1;
    std::uint64_t op = 0;
    std::int64_t start = 0;
    std::int64_t end = 0;
};

struct Open
{
    Layer layer = kOp;
    std::int64_t start = 0;
    std::int64_t childNs = 0;
    std::int32_t stored = -1; ///< index into spans, -1 when not kept
};

struct ThreadLog
{
    std::uint32_t tid = 0;
    std::vector<Open> stack;
    std::array<LayerTotals, kNumLayers> totals{};
    std::vector<Stored> spans;
};

std::atomic<bool> gEnabled{false};
std::atomic<std::uint64_t> gOp{0};
std::atomic<std::size_t> gStored{0};

/** Every thread's log; logs outlive their threads (pool workers of a
 *  finished round) so totals can be read afterwards. */
std::mutex gMutex;
std::vector<std::unique_ptr<ThreadLog>> gLogs;

ThreadLog &
threadLog()
{
    thread_local ThreadLog *log = nullptr;
    if (!log) {
        std::lock_guard<std::mutex> lock(gMutex);
        gLogs.push_back(std::make_unique<ThreadLog>());
        log = gLogs.back().get();
        log->tid = std::uint32_t(gLogs.size() - 1);
    }
    return *log;
}

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

const char *
layerName(int layer)
{
    static const char *const kNames[kNumLayers] = {
        "op",          "eval.boot",     "eval.trial",
        "util.event_queue", "gfx.scene_build", "gpu.submit",
        "gpu.render",  "kgsl.ioctl",    "attack.feed",
        "attack.classify", "trace.decode", "stream.offer",
        "stream.pump", "stream.drain",
    };
    return layer >= 0 && layer < kNumLayers ? kNames[layer] : "?";
}

void
setEnabled(bool on)
{
    gEnabled.store(on, std::memory_order_relaxed);
}

bool
enabled()
{
    return gEnabled.load(std::memory_order_relaxed);
}

void
setOp(std::uint64_t id)
{
    gOp.store(id, std::memory_order_relaxed);
}

Scope::Scope(Layer layer)
{
    if (!enabled())
        return;
    active_ = true;
    ThreadLog &log = threadLog();
    Open open;
    open.layer = layer;
    if (gStored.fetch_add(1, std::memory_order_relaxed) < kMaxStored) {
        Stored s;
        s.layer = layer;
        s.parent = log.stack.empty() ? -1 : log.stack.back().stored;
        s.op = gOp.load(std::memory_order_relaxed);
        open.stored = std::int32_t(log.spans.size());
        log.spans.push_back(s);
    }
    log.stack.push_back(open);
    log.stack.back().start = nowNs();
}

Scope::~Scope()
{
    if (!active_)
        return;
    const std::int64_t end = nowNs();
    ThreadLog &log = threadLog();
    const Open open = log.stack.back();
    log.stack.pop_back();
    const std::int64_t dur = end - open.start;
    LayerTotals &t = log.totals[open.layer];
    ++t.calls;
    t.seconds += double(dur) * 1e-9;
    t.selfSeconds += double(dur - open.childNs) * 1e-9;
    if (!log.stack.empty())
        log.stack.back().childNs += dur;
    if (open.stored >= 0) {
        log.spans[std::size_t(open.stored)].start = open.start;
        log.spans[std::size_t(open.stored)].end = end;
    }
}

std::array<LayerTotals, kNumLayers>
totals()
{
    std::array<LayerTotals, kNumLayers> out{};
    std::lock_guard<std::mutex> lock(gMutex);
    for (const auto &log : gLogs)
        for (int l = 0; l < kNumLayers; ++l) {
            out[l].calls += log->totals[l].calls;
            out[l].seconds += log->totals[l].seconds;
            out[l].selfSeconds += log->totals[l].selfSeconds;
        }
    return out;
}

void
reset()
{
    std::lock_guard<std::mutex> lock(gMutex);
    for (const auto &log : gLogs) {
        log->totals = {};
        log->spans.clear();
    }
    gStored.store(0, std::memory_order_relaxed);
}

bool
writeJson(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fputs("[", f);
    bool first = true;
    std::lock_guard<std::mutex> lock(gMutex);
    for (const auto &log : gLogs)
        for (const Stored &s : log->spans) {
            std::fprintf(f,
                         "%s\n{\"layer\":\"%s\",\"tid\":%u,\"op\":%llu,"
                         "\"start_ns\":%lld,\"end_ns\":%lld,"
                         "\"parent\":%d}",
                         first ? "" : ",", layerName(s.layer), log->tid,
                         (unsigned long long)s.op, (long long)s.start,
                         (long long)s.end, s.parent);
            first = false;
        }
    std::fputs("\n]\n", f);
    return std::fclose(f) == 0;
}

} // namespace perfbench::spans
