#include "gpu/counters.h"

#include <cmath>

#include "util/logging.h"

namespace gpusc::gpu {

namespace {

// The spans tile the dense index, and every selected counter lies
// inside its group's implemented range (the table round-trips).
constexpr bool
countableTableConsistent()
{
    std::uint32_t next = 0;
    for (const CountableSpan &s : kCountableSpans) {
        if (s.base != next)
            return false;
        next += s.countables;
    }
    for (std::size_t i = 0; i < kNumSelectedCounters; ++i)
        if (resolveCountable(kSelectedCounterIds[i]).selected !=
            SelectedCounter(i))
            return false;
    return true;
}
static_assert(countableTableConsistent());
static_assert(kNumImplementedCountables < Countable::kNotImplemented);

const std::array<std::string, kNumSelectedCounters> &
names()
{
    static const std::array<std::string, kNumSelectedCounters> table = {{
        "PERF_LRZ_VISIBLE_PRIM_AFTER_LRZ",
        "PERF_LRZ_FULL_8X8_TILES",
        "PERF_LRZ_PARTIAL_8X8_TILES",
        "PERF_LRZ_VISIBLE_PIXEL_AFTER_LRZ",
        "PERF_RAS_SUPERTILE_ACTIVE_CYCLES",
        "PERF_RAS_SUPER_TILES",
        "PERF_RAS_8X4_TILES",
        "PERF_RAS_FULLY_COVERED_8X4_TILES",
        "PERF_VPC_PC_PRIMITIVES",
        "PERF_VPC_SP_COMPONENTS",
        "PERF_VPC_LRZ_ASSIGN_PRIMITIVES",
    }};
    return table;
}

} // namespace

CounterId
counterId(SelectedCounter c)
{
    if (c >= kNumSelectedCounters)
        panic("counterId: bad selected counter %zu", std::size_t(c));
    return kSelectedCounterIds[c];
}

const std::string &
counterName(SelectedCounter c)
{
    if (c >= kNumSelectedCounters)
        panic("counterName: bad selected counter %zu", std::size_t(c));
    return names()[c];
}

std::optional<SelectedCounter>
selectedFromId(CounterId id)
{
    const Countable c = resolveCountable(id);
    if (!c.modelled())
        return std::nullopt;
    return c.selected;
}

std::string
groupLabel(CounterGroup g)
{
    switch (g) {
      case CounterGroup::VPC:
        return "VPC";
      case CounterGroup::RAS:
        return "RAS";
      case CounterGroup::LRZ:
        return "LRZ";
      case CounterGroup::CP:
        return "CP";
      case CounterGroup::SP:
        return "SP";
    }
    return "???";
}

CounterVec
operator+(const CounterVec &a, const CounterVec &b)
{
    CounterVec r;
    for (std::size_t i = 0; i < r.size(); ++i)
        r[i] = a[i] + b[i];
    return r;
}

CounterVec
operator-(const CounterVec &a, const CounterVec &b)
{
    CounterVec r;
    for (std::size_t i = 0; i < r.size(); ++i)
        r[i] = a[i] - b[i];
    return r;
}

std::int64_t
l1Norm(const CounterVec &v)
{
    std::int64_t s = 0;
    for (std::int64_t x : v)
        s += x < 0 ? -x : x;
    return s;
}

double
l2Distance(const CounterVec &a, const CounterVec &b)
{
    double s = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const double d = double(a[i] - b[i]);
        s += d * d;
    }
    return std::sqrt(s);
}

bool
isZero(const CounterVec &v)
{
    for (std::int64_t x : v)
        if (x != 0)
            return false;
    return true;
}

} // namespace gpusc::gpu
