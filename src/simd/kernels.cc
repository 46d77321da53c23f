#include "simd/kernels.h"

namespace gpusc::simd {

namespace {

/** One lane per panel row. The body below is written once over the
 *  vector type V: the AVX2 instantiation runs four lanes per vector,
 *  the baseline one two, which SSE2 and NEON hold in one register
 *  (a 4-lane vector on SSE2 is split and spilled, slower than the
 *  scalar loops). Vector values never cross a function boundary (the
 *  bodies are always_inline), so there is no AVX calling-convention
 *  question in the baseline instantiation. */
typedef double v2d __attribute__((vector_size(16)));
typedef double v4d __attribute__((vector_size(32)));

template <typename V>
constexpr std::size_t kLanes = sizeof(V) / sizeof(double);

/** Row-blocks interleaved per dimension step. One accumulator chain
 *  per block is bound by add latency, not throughput; four
 *  independent chains keep the adder busy. Within each lane the
 *  accumulation order is still strictly dimension order, so
 *  interleaving blocks cannot change a single bit. */
template <typename V>
constexpr std::size_t kGroup = 4 * kLanes<V>;

/**
 * Dims between all-lanes-pruned early-exit checks (check when
 * (d & mask) == mask, i.e. every other dimension). With realistic
 * classify traffic the bound gets tight after the first group, so
 * checking often prunes whole groups after 2 dims; checking every
 * dimension costs more in compares than the last dim it saves.
 */
constexpr std::size_t kExitCheckMask = 1;

/** Full groups stay inside the lane-padded stride (padded rows are
 *  +inf and are simply never stored / never win). */
template <typename V>
inline std::size_t
groupEnd(const Panel &panel)
{
    const std::size_t stride = panel.stride();
    return stride >= kGroup<V> ? stride - kGroup<V> + 1 : 0;
}

/** Copy a group's lane sums out; only the @p lanes real rows. */
template <typename V>
[[gnu::always_inline]] inline void
storeLanes(const V *acc, std::size_t vectors, std::size_t lanes,
           double *out)
{
    double sums[kGroup<V>];
    __builtin_memcpy(sums, acc, vectors * sizeof(V));
    for (std::size_t lane = 0; lane < lanes; ++lane)
        out[lane] = sums[lane];
}

/** One lane-per-row step: acc += ((q - col) [* w])^2, as the two
 *  separately rounded ops of the scalar reference. */
template <bool Weighted, typename V>
[[gnu::always_inline]] inline void
step(V &acc, const double *col, double q, double w)
{
    V c;
    __builtin_memcpy(&c, col, sizeof c);
    V diff = q - c;
    if constexpr (Weighted)
        diff = diff * w;
    acc = acc + diff * diff;
}

/** True when every lane of the compare mask @p ge is set. A 4-lane
 *  mask is folded onto its lower half first, leaving two lanes to
 *  extract instead of four (vector extensions have no movemask). */
template <typename Mask>
[[gnu::always_inline]] inline bool
allLanes(const Mask &ge)
{
    if constexpr (sizeof(Mask) == sizeof(v4d)) {
        const Mask folded =
            ge & __builtin_shufflevector(ge, ge, 2, 3, 0, 1);
        return (folded[0] & folded[1]) != 0;
    } else {
        return (ge[0] & ge[1]) != 0;
    }
}

template <typename V, bool Weighted>
[[gnu::always_inline]] inline void
toManyBody(const double *query, const double *weights,
           const Panel &panel, double *out)
{
    constexpr std::size_t lanes = kLanes<V>, group = kGroup<V>;
    const std::size_t rows = panel.rows();
    const std::size_t dims = panel.dims();
    std::size_t kb = 0;
    for (const std::size_t end = groupEnd<V>(panel); kb < end;
         kb += group) {
        // Named accumulators: GCC keeps these in registers where an
        // indexed array would spill to the stack per iteration.
        V a0 = {}, a1 = {}, a2 = {}, a3 = {};
        for (std::size_t d = 0; d < dims; ++d) {
            const double q = query[d];
            const double w = Weighted ? weights[d] : 1.0;
            const double *col = panel.col(d) + kb;
            step<Weighted>(a0, col, q, w);
            step<Weighted>(a1, col + lanes, q, w);
            step<Weighted>(a2, col + 2 * lanes, q, w);
            step<Weighted>(a3, col + 3 * lanes, q, w);
        }
        const V acc[4] = {a0, a1, a2, a3};
        storeLanes(acc, 4, rows - kb < group ? rows - kb : group,
                   out + kb);
    }
    for (; kb < rows; kb += lanes) {
        V a0 = {};
        for (std::size_t d = 0; d < dims; ++d) {
            const double q = query[d];
            const double w = Weighted ? weights[d] : 1.0;
            step<Weighted>(a0, panel.col(d) + kb, q, w);
        }
        storeLanes(&a0, 1, rows - kb < lanes ? rows - kb : lanes,
                   out + kb);
    }
}

/** Fold a group's finished lane sums into the running best: lanes in
 *  row order with strict <, the scalar first-wins tie-break. */
template <typename V>
[[gnu::always_inline]] inline void
scanLanes(const V *acc, std::size_t vectors, std::size_t lanes,
          std::size_t kb, Argmin &best)
{
    double sums[kGroup<V>];
    __builtin_memcpy(sums, acc, vectors * sizeof(V));
    for (std::size_t lane = 0; lane < lanes; ++lane) {
        if (sums[lane] < best.sq) {
            best.sq = sums[lane];
            best.index = kb + lane;
        }
    }
}

/**
 * Shared argmin body. Pruning only ever *skips* rows whose partial
 * sums already reached the current best (padded lanes sit at +inf
 * from dimension 0, so they prune themselves and can never win);
 * completed sums are bit-exact, and scanLanes reproduces the scalar
 * tie-break.
 */
template <typename V, bool Weighted>
[[gnu::always_inline]] inline Argmin
argminBody(const double *query, const double *weights,
           const Panel &panel)
{
    constexpr std::size_t lanes = kLanes<V>, group = kGroup<V>;
    Argmin best;
    const std::size_t rows = panel.rows();
    const std::size_t dims = panel.dims();
    std::size_t kb = 0;
    for (const std::size_t end = groupEnd<V>(panel); kb < end;
         kb += group) {
        V a0 = {}, a1 = {}, a2 = {}, a3 = {};
        const double bound = best.sq;
        std::size_t d = 0;
        for (; d < dims; ++d) {
            const double q = query[d];
            const double w = Weighted ? weights[d] : 1.0;
            const double *col = panel.col(d) + kb;
            step<Weighted>(a0, col, q, w);
            step<Weighted>(a1, col + lanes, q, w);
            step<Weighted>(a2, col + 2 * lanes, q, w);
            step<Weighted>(a3, col + 3 * lanes, q, w);
            if ((d & kExitCheckMask) == kExitCheckMask &&
                allLanes((a0 >= bound) & (a1 >= bound) &
                         (a2 >= bound) & (a3 >= bound)))
                break;
        }
        if (d < dims)
            continue; // every lane already past the current best
        const V acc[4] = {a0, a1, a2, a3};
        scanLanes(acc, 4, rows - kb < group ? rows - kb : group, kb,
                  best);
    }
    for (; kb < rows; kb += lanes) {
        V a0 = {};
        const double bound = best.sq;
        std::size_t d = 0;
        for (; d < dims; ++d) {
            const double q = query[d];
            const double w = Weighted ? weights[d] : 1.0;
            step<Weighted>(a0, panel.col(d) + kb, q, w);
            if ((d & kExitCheckMask) == kExitCheckMask &&
                allLanes(a0 >= bound))
                break;
        }
        if (d < dims)
            continue;
        scanLanes(&a0, 1, rows - kb < lanes ? rows - kb : lanes, kb,
                  best);
    }
    return best;
}

template <typename V>
[[gnu::always_inline]] inline void
tileBody(const double *queries, std::size_t m, std::size_t qStride,
         const Panel &panel, double *out, std::size_t outStride)
{
    for (std::size_t q = 0; q < m; ++q)
        toManyBody<V, false>(queries + q * qStride, nullptr, panel,
                             out + q * outStride);
}

/** Picked once per process; false on every non-x86-64 target. */
bool
cpuHasAvx2()
{
#if defined(__x86_64__)
    static const bool yes = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("avx2") != 0;
    }();
    return yes;
#else
    return false;
#endif
}

} // namespace

// The two instantiations: the same bodies, inlined into entry points
// compiled for the baseline ISA and for AVX2.
#define GPUSC_PANEL_KERNELS(ATTR, V)                               \
    ATTR void l2sqToMany(const double *query, const Panel &panel,     \
                         double *out)                                 \
    {                                                                 \
        toManyBody<V, false>(query, nullptr, panel, out);             \
    }                                                                 \
    ATTR void wl2sqToMany(const double *query, const double *weights, \
                          const Panel &panel, double *out)            \
    {                                                                 \
        toManyBody<V, true>(query, weights, panel, out);              \
    }                                                                 \
    ATTR Argmin argminL2(const double *query, const Panel &panel)     \
    {                                                                 \
        return argminBody<V, false>(query, nullptr, panel);           \
    }                                                                 \
    ATTR Argmin argminWL2(const double *query, const double *weights, \
                          const Panel &panel)                         \
    {                                                                 \
        return argminBody<V, true>(query, weights, panel);            \
    }                                                                 \
    ATTR void l2sqTile(const double *queries, std::size_t m,          \
                       std::size_t qStride, const Panel &panel,       \
                       double *out, std::size_t outStride)            \
    {                                                                 \
        tileBody<V>(queries, m, qStride, panel, out, outStride);      \
    }

namespace baseline {
GPUSC_PANEL_KERNELS(, v2d)
} // namespace baseline

#if defined(__x86_64__)
namespace avx2 {
GPUSC_PANEL_KERNELS([[gnu::target("avx2")]], v4d)
} // namespace avx2
#else
namespace avx2 = baseline; // cpuHasAvx2() is false off x86-64
#endif

#undef GPUSC_PANEL_KERNELS

namespace dispatch {

void
l2sqToMany(const double *query, const Panel &panel, double *out)
{
    if (cpuHasAvx2())
        return avx2::l2sqToMany(query, panel, out);
    baseline::l2sqToMany(query, panel, out);
}

void
wl2sqToMany(const double *query, const double *weights,
            const Panel &panel, double *out)
{
    if (cpuHasAvx2())
        return avx2::wl2sqToMany(query, weights, panel, out);
    baseline::wl2sqToMany(query, weights, panel, out);
}

Argmin
argminL2(const double *query, const Panel &panel)
{
    if (cpuHasAvx2())
        return avx2::argminL2(query, panel);
    return baseline::argminL2(query, panel);
}

Argmin
argminWL2(const double *query, const double *weights,
          const Panel &panel)
{
    if (cpuHasAvx2())
        return avx2::argminWL2(query, weights, panel);
    return baseline::argminWL2(query, weights, panel);
}

void
l2sqTile(const double *queries, std::size_t m, std::size_t qStride,
         const Panel &panel, double *out, std::size_t outStride)
{
    if (cpuHasAvx2())
        return avx2::l2sqTile(queries, m, qStride, panel, out,
                              outStride);
    baseline::l2sqTile(queries, m, qStride, panel, out, outStride);
}

} // namespace dispatch

Backend
activeBackend()
{
    return cpuHasAvx2() ? Backend::Avx2 : Backend::Baseline;
}

std::string
backendName(Backend b)
{
    return b == Backend::Avx2 ? "avx2" : "baseline";
}

} // namespace gpusc::simd
