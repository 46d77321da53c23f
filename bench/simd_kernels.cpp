/**
 * @file
 * Micro-bench of the SIMD kernel layer itself (no pipeline on top):
 * per-call nanoseconds for the panel kernels on the shapes the
 * classifiers actually run — the 40-ish row signature panel at
 * gpu::kNumSelectedCounters dims, plus a larger KNN-style panel —
 * for the kernel this CPU runs and for the scalar reference loops
 * (kernels_ref.h) as the in-process control. Reports JSON on stdout
 * and mirrors it to BENCH_simd.json:
 *
 *   {"bench": "simd_kernels", "rows": ..., "dims": ...,
 *    "simd_backend": "avx2",
 *    "kernel": {"argmin_wl2_ns": ..., "argmin_l2_ns": ...,
 *               "l2sq_to_many_ns": ..., "l2sq_tile_ns_per_row": ...},
 *    "ref": {...same fields...}, "pair_l2sq_ns": ...,
 *    "conformant": true}
 *
 * "conformant" cross-checks the kernel's argmin winner and distances
 * against the reference over the benched query set (the exhaustive
 * shape sweep lives in tests/simd/kernel_conformance_test.cc; this is
 * the smoke-level repeat so a bench artefact is self-validating).
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "simd/kernels.h"
#include "simd/kernels_ref.h"
#include "util/logging.h"
#include "util/rng.h"

using namespace gpusc;

namespace {

constexpr std::uint64_t kSeed = 20260808;

/** The SignatureModel shape: ~40 keys/pages, 11 counters. */
constexpr std::size_t kSigRows = 40;
constexpr std::size_t kSigDims = 11;
/** A KNN-ish panel: hundreds of training points. */
constexpr std::size_t kKnnRows = 384;

std::vector<double>
randomBlock(Rng &rng, std::size_t n, double lo, double hi)
{
    std::vector<double> v(n);
    for (double &x : v)
        x = rng.uniform(lo, hi);
    return v;
}

double
nsPerCall(int iters, const auto &fn)
{
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i)
        fn(i);
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::nano>(t1 - t0).count() /
           double(iters);
}

struct PanelTimes
{
    double argminWl2Ns = 0.0;
    double argminL2Ns = 0.0;
    double toManyNs = 0.0;
    double tileNsPerRow = 0.0;
};

/** The panel kernels of one implementation, called through pointers
 *  so the dispatched kernel and the reference run the same harness. */
struct PanelKernels
{
    decltype(&simd::ref::argminWL2) argminWL2;
    decltype(&simd::ref::argminL2) argminL2;
    decltype(&simd::ref::l2sqToMany) l2sqToMany;
    decltype(&simd::ref::l2sqTile) l2sqTile;
};

constexpr PanelKernels kKernel = {&simd::argminWL2, &simd::argminL2,
                                  &simd::l2sqToMany, &simd::l2sqTile};
constexpr PanelKernels kReference = {
    &simd::ref::argminWL2, &simd::ref::argminL2,
    &simd::ref::l2sqToMany, &simd::ref::l2sqTile};

PanelTimes
timePanelKernels(const PanelKernels &k, const double *queries,
                 std::size_t nQueries, const double *weights,
                 const simd::Panel &sigPanel,
                 const simd::Panel &knnPanel)
{
    const auto query = [&](int i) {
        return queries + (std::size_t(i) % nQueries) * kSigDims;
    };
    PanelTimes t;
    double sink = 0.0;
    t.argminWl2Ns = nsPerCall(400000, [&](int i) {
        sink += double(k.argminWL2(query(i), weights, sigPanel).index);
    });
    t.argminL2Ns = nsPerCall(400000, [&](int i) {
        sink += double(k.argminL2(query(i), sigPanel).index);
    });
    std::vector<double> out(kKnnRows);
    t.toManyNs = nsPerCall(100000, [&](int i) {
        k.l2sqToMany(query(i), knnPanel, out.data());
        sink += out[0];
    });
    std::vector<double> tile(nQueries * kKnnRows);
    t.tileNsPerRow = nsPerCall(200, [&](int) {
                         k.l2sqTile(queries, nQueries, kSigDims,
                                    knnPanel, tile.data(), kKnnRows);
                         sink += tile[0];
                     }) /
                     double(nQueries);
    if (sink < 0.0) // defeat dead-code elimination
        std::printf("# %f\n", sink);
    return t;
}

std::string
timesJson(const PanelTimes &t)
{
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"argmin_wl2_ns\": %.1f, \"argmin_l2_ns\": %.1f, "
                  "\"l2sq_to_many_ns\": %.1f, "
                  "\"l2sq_tile_ns_per_row\": %.1f}",
                  t.argminWl2Ns, t.argminL2Ns, t.toManyNs,
                  t.tileNsPerRow);
    return buf;
}

} // namespace

int
main()
{
    setVerbose(false);
    Rng rng(kSeed);

    // Panels + query mixes. Queries near the centroids exercise the
    // early-exit pruning the way real classify traffic does.
    const std::vector<double> sigBlock =
        randomBlock(rng, kSigRows * kSigDims, 0.0, 400.0);
    simd::Panel sigPanel;
    sigPanel.packContiguous(sigBlock.data(), kSigRows, kSigDims,
                            kSigDims);
    const std::vector<double> knnBlock =
        randomBlock(rng, kKnnRows * kSigDims, 0.0, 400.0);
    simd::Panel knnPanel;
    knnPanel.packContiguous(knnBlock.data(), kKnnRows, kSigDims,
                            kSigDims);
    const std::vector<double> weights =
        randomBlock(rng, kSigDims, 0.001, 0.01);

    const std::size_t nQueries = 256;
    std::vector<double> queries(nQueries * kSigDims);
    for (std::size_t q = 0; q < nQueries; ++q) {
        const std::size_t row =
            std::size_t(rng.uniformInt(0, std::int64_t(kSigRows) - 1));
        for (std::size_t d = 0; d < kSigDims; ++d)
            queries[q * kSigDims + d] =
                sigBlock[row * kSigDims + d] + rng.uniform(-30.0, 30.0);
    }
    const PanelTimes kernel =
        timePanelKernels(kKernel, queries.data(), nQueries,
                         weights.data(), sigPanel, knnPanel);
    const PanelTimes reference =
        timePanelKernels(kReference, queries.data(), nQueries,
                         weights.data(), sigPanel, knnPanel);
    double sink = 0.0;
    const double pairL2Ns = nsPerCall(1000000, [&](int i) {
        sink += simd::ref::l2sq(
            queries.data() + (std::size_t(i) % nQueries) * kSigDims,
            sigBlock.data(), kSigDims);
    });
    if (sink < 0.0)
        std::printf("# %f\n", sink);

    // Smoke conformance against the scalar reference.
    bool conformant = true;
    for (std::size_t q = 0; q < nQueries; ++q) {
        const double *qp = queries.data() + q * kSigDims;
        const simd::Argmin got =
            simd::argminWL2(qp, weights.data(), sigPanel);
        const simd::Argmin want =
            simd::ref::argminWL2(qp, weights.data(), sigPanel);
        if (got.index != want.index ||
            std::memcmp(&got.sq, &want.sq, sizeof got.sq) != 0) {
            warn("simd_kernels: argminWL2 diverges from the scalar "
                 "reference at query %zu",
                 q);
            conformant = false;
        }
    }

    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "{\"bench\": \"simd_kernels\", \"rows\": %zu, "
                  "\"dims\": %zu, \"knn_rows\": %zu, "
                  "\"simd_backend\": \"%s\", ",
                  kSigRows, kSigDims, kKnnRows,
                  simd::backendName(simd::activeBackend()).c_str());
    std::string json = buf;
    json += "\"kernel\": " + timesJson(kernel) +
            ", \"ref\": " + timesJson(reference);
    std::snprintf(buf, sizeof buf,
                  ", \"pair_l2sq_ns\": %.1f, \"conformant\": %s}",
                  pairL2Ns, conformant ? "true" : "false");
    json += buf;

    std::printf("%s\n", json.c_str());
    bench::writeJsonMirror("BENCH_simd.json", json);
    if (!conformant)
        warn("simd_kernels: conformance smoke check failed");
    return conformant ? 0 : 1;
}
