/**
 * @file
 * Vector kernels for the classifier hot paths.
 *
 * The panel kernels below compute a query's squared-L2 distance to
 * every row of a Panel (one query x K rows, and M x K tiles) and the
 * nearest row with a first-wins tie-break. They vectorise *across
 * rows* — one lane per centroid, dimensions accumulated in order,
 * multiply and add kept as two rounded operations (no FMA
 * contraction) — so each lane performs the identical IEEE operation
 * sequence as the scalar reference loops in simd/kernels_ref.h, and
 * every result is bit-identical to them, not merely close (pinned by
 * tests/simd/kernel_conformance_test.cc).
 *
 * The kernel body is written once in GCC/Clang vector extensions and
 * compiled twice on x86-64: for the baseline ISA (SSE2, two lanes per
 * vector) and under target("avx2") (four lanes). The first call picks
 * the AVX2 instantiation when the CPU supports it; every other target
 * has the baseline one only.
 *
 * The per-pair reductions (l2sq, dot, the early-exit variants)
 * accumulate across *dimensions*, where any lane split would reorder
 * the floating-point sum; callers use the scalar loops in
 * kernels_ref.h for those directly.
 */

#ifndef GPUSC_SIMD_KERNELS_H
#define GPUSC_SIMD_KERNELS_H

#include <cstddef>
#include <limits>
#include <string>

#include "simd/panel.h"

namespace gpusc::simd {

/** Result of an argmin kernel. */
struct Argmin
{
    /** Winning row, or npos when the panel is empty. */
    std::size_t index = npos;
    /** The winner's full squared distance (+inf when empty). */
    double sq = std::numeric_limits<double>::infinity();

    static constexpr std::size_t npos = std::size_t(-1);
};

// The entry points that pick the instantiation for this CPU. They
// live in a nested namespace pulled in by a using-directive, so
// simd::argminL2(...) finds them but argument-dependent lookup on
// Panel does not: the unqualified l2sqToMany call inside
// kernels_ref.h keeps meaning ref::l2sqToMany.
namespace dispatch {
/** out[k] = l2sq(query, panel row k) for every row. */
void l2sqToMany(const double *query, const Panel &panel, double *out);
/** Weighted variant: out[k] = wl2sq(query, row k, weights). */
void wl2sqToMany(const double *query, const double *weights,
                 const Panel &panel, double *out);
/** Nearest row by squared L2; ties break to the lowest index
 *  (strict-< winner scan), with bound-pruned early exit. */
Argmin argminL2(const double *query, const Panel &panel);
/** Weighted nearest row (the SignatureModel classify kernel). */
Argmin argminWL2(const double *query, const double *weights,
                 const Panel &panel);
/**
 * M queries x K rows tile: out[m * outStride + k] = l2sq of query m
 * against row k. Queries are row-major with @p qStride doubles
 * between rows.
 */
void l2sqTile(const double *queries, std::size_t m, std::size_t qStride,
              const Panel &panel, double *out, std::size_t outStride);
} // namespace dispatch
using namespace dispatch;

/** The baseline-ISA instantiation (what the free functions run on a
 *  CPU without AVX2, and on every non-x86 target). */
namespace baseline {
void l2sqToMany(const double *query, const Panel &panel, double *out);
void wl2sqToMany(const double *query, const double *weights,
                 const Panel &panel, double *out);
Argmin argminL2(const double *query, const Panel &panel);
Argmin argminWL2(const double *query, const double *weights,
                 const Panel &panel);
void l2sqTile(const double *queries, std::size_t m, std::size_t qStride,
              const Panel &panel, double *out, std::size_t outStride);
} // namespace baseline

#if defined(__x86_64__)
/** The AVX2 instantiation. Only call it when activeBackend() is
 *  Backend::Avx2: on any other CPU it faults. */
namespace avx2 {
[[gnu::target("avx2")]] void l2sqToMany(const double *query,
                                        const Panel &panel, double *out);
[[gnu::target("avx2")]] void wl2sqToMany(const double *query,
                                         const double *weights,
                                         const Panel &panel,
                                         double *out);
[[gnu::target("avx2")]] Argmin argminL2(const double *query,
                                        const Panel &panel);
[[gnu::target("avx2")]] Argmin argminWL2(const double *query,
                                         const double *weights,
                                         const Panel &panel);
[[gnu::target("avx2")]] void l2sqTile(const double *queries,
                                      std::size_t m, std::size_t qStride,
                                      const Panel &panel, double *out,
                                      std::size_t outStride);
} // namespace avx2
#endif

/** Which instantiation the free functions run (a read-only report;
 *  fixed for the life of the process). */
enum class Backend
{
    Baseline,
    Avx2,
};

Backend activeBackend();

std::string backendName(Backend b);

} // namespace gpusc::simd

#endif // GPUSC_SIMD_KERNELS_H
