/**
 * @file
 * The Adreno performance counters targeted by the attack.
 *
 * Exactly the 11 countables of Table 1 in the paper, keyed by the KGSL
 * group ids from msm_kgsl.h (VPC = 0x5, RAS = 0x7, LRZ = 0x19). Each
 * counter is a cumulative 64-bit hardware register; the simulator keeps
 * them in a dense array indexed by SelectedCounter.
 */

#ifndef GPUSC_GPU_COUNTERS_H
#define GPUSC_GPU_COUNTERS_H

#include <array>
#include <cstdint>
#include <optional>
#include <string>

namespace gpusc::gpu {

/** KGSL performance-counter group ids (msm_kgsl.h values). The
 *  attack reads VPC, RAS and LRZ; CP and SP are implemented groups the
 *  GLES enumeration step of §3.3 also walks. */
enum class CounterGroup : std::uint32_t
{
    CP = 0x0,
    VPC = 0x5,
    RAS = 0x7,
    SP = 0xa,
    LRZ = 0x19,
};

/** (group, countable) pair as used on the ioctl interface. */
struct CounterId
{
    std::uint32_t group = 0;
    std::uint32_t countable = 0;

    bool operator==(const CounterId &) const = default;
};

/** Dense index over the counters selected for eavesdropping. */
enum SelectedCounter : std::size_t
{
    LRZ_VISIBLE_PRIM_AFTER_LRZ = 0, // LRZ countable 13
    LRZ_FULL_8X8_TILES,             // LRZ countable 14
    LRZ_PARTIAL_8X8_TILES,          // LRZ countable 15
    LRZ_VISIBLE_PIXEL_AFTER_LRZ,    // LRZ countable 18
    RAS_SUPERTILE_ACTIVE_CYCLES,    // RAS countable 1
    RAS_SUPER_TILES,                // RAS countable 4
    RAS_8X4_TILES,                  // RAS countable 5
    RAS_FULLY_COVERED_8X4_TILES,    // RAS countable 8
    VPC_PC_PRIMITIVES,              // VPC countable 9
    VPC_SP_COMPONENTS,              // VPC countable 10
    VPC_LRZ_ASSIGN_PRIMITIVES,      // VPC countable 12

    kNumSelectedCounters,
};

/** The KGSL (group, countable) pair of each selected counter, in
 *  SelectedCounter order. */
inline constexpr std::array<CounterId, kNumSelectedCounters>
    kSelectedCounterIds = {{
        {std::uint32_t(CounterGroup::LRZ), 13},
        {std::uint32_t(CounterGroup::LRZ), 14},
        {std::uint32_t(CounterGroup::LRZ), 15},
        {std::uint32_t(CounterGroup::LRZ), 18},
        {std::uint32_t(CounterGroup::RAS), 1},
        {std::uint32_t(CounterGroup::RAS), 4},
        {std::uint32_t(CounterGroup::RAS), 5},
        {std::uint32_t(CounterGroup::RAS), 8},
        {std::uint32_t(CounterGroup::VPC), 9},
        {std::uint32_t(CounterGroup::VPC), 10},
        {std::uint32_t(CounterGroup::VPC), 12},
    }};

/**
 * The countable space the simulated hardware implements: each group
 * exposes countables [0, countables). Real groups have a few dozen;
 * this plausible range gives the enumeration step of §3.3 something to
 * iterate over. Groups are in ascending id order, and every implemented
 * countable has a dense index (its group's base plus the countable).
 */
struct CountableSpan
{
    CounterGroup group;
    std::uint32_t countables;
    std::uint32_t base;
};

inline constexpr std::array<CountableSpan, 5> kCountableSpans = {{
    {CounterGroup::CP, 32, 0},
    {CounterGroup::VPC, 24, 32},
    {CounterGroup::RAS, 12, 56},
    {CounterGroup::SP, 32, 68},
    {CounterGroup::LRZ, 26, 100},
}};

/** Number of implemented countables (the dense index range). */
inline constexpr std::size_t kNumImplementedCountables =
    kCountableSpans.back().base + kCountableSpans.back().countables;

/** A (group, countable) pair resolved against the hardware. */
struct Countable
{
    static constexpr std::uint8_t kNotImplemented = 0xff;

    /** Dense index in [0, kNumImplementedCountables), or
     *  kNotImplemented. */
    std::uint8_t index = kNotImplemented;
    /** The Table-1 counter it feeds; kNumSelectedCounters for an
     *  implemented countable the simulator does not model. */
    SelectedCounter selected = kNumSelectedCounters;

    constexpr bool implemented() const { return index != kNotImplemented; }
    constexpr bool modelled() const
    {
        return selected != kNumSelectedCounters;
    }
};

namespace detail {

/** SelectedCounter of each dense countable index. */
inline constexpr auto kSelectedByIndex = [] {
    std::array<SelectedCounter, kNumImplementedCountables> t{};
    t.fill(kNumSelectedCounters);
    for (std::size_t i = 0; i < kNumSelectedCounters; ++i)
        for (const CountableSpan &s : kCountableSpans)
            if (std::uint32_t(s.group) == kSelectedCounterIds[i].group)
                t[s.base + kSelectedCounterIds[i].countable] =
                    SelectedCounter(i);
    return t;
}();

} // namespace detail

/** Resolve @p id against the implemented countable space. */
constexpr Countable
resolveCountable(CounterId id)
{
    for (const CountableSpan &s : kCountableSpans) {
        if (std::uint32_t(s.group) != id.group)
            continue;
        if (id.countable >= s.countables)
            return {};
        const std::size_t index = s.base + id.countable;
        return {std::uint8_t(index), detail::kSelectedByIndex[index]};
    }
    return {};
}

/** @return the (group, countable) pair of dense index @p index. */
constexpr CounterId
countableAt(std::size_t index)
{
    for (const CountableSpan &s : kCountableSpans)
        if (index >= s.base && index < s.base + s.countables)
            return {std::uint32_t(s.group), std::uint32_t(index - s.base)};
    return {~0u, ~0u};
}

/** Per-frame (or per-signature) counter deltas. */
using CounterVec = std::array<std::int64_t, kNumSelectedCounters>;

/** Cumulative counter values. */
using CounterTotals = std::array<std::uint64_t, kNumSelectedCounters>;

/** @return the KGSL (group, countable) pair of a selected counter. */
CounterId counterId(SelectedCounter c);

/** @return the vendor string identifier (Table 1), e.g.
 *  "PERF_LRZ_VISIBLE_PRIM_AFTER_LRZ". */
const std::string &counterName(SelectedCounter c);

/** Reverse lookup from (group, countable); nullopt if not selected. */
std::optional<SelectedCounter> selectedFromId(CounterId id);

/** Short group label ("LRZ"/"RAS"/"VPC") for table output. */
std::string groupLabel(CounterGroup g);

/** Element-wise helpers for delta vectors. */
CounterVec operator+(const CounterVec &a, const CounterVec &b);
CounterVec operator-(const CounterVec &a, const CounterVec &b);
/** Sum of absolute values (L1 magnitude of a change). */
std::int64_t l1Norm(const CounterVec &v);
/** Euclidean distance between two delta vectors. */
double l2Distance(const CounterVec &a, const CounterVec &b);
/** True if every element is zero. */
bool isZero(const CounterVec &v);

} // namespace gpusc::gpu

#endif // GPUSC_GPU_COUNTERS_H
