/**
 * @file
 * Conformance of the vector kernels: each instantiation of the panel
 * kernels (baseline ISA everywhere, plus AVX2 on x86-64 CPUs that
 * have it) must reproduce the scalar reference loops
 * (simd/kernels_ref.h) bit for bit — same sums, same argmin winner,
 * same tie-breaks — across seeded random panels covering the shapes
 * that stress lane handling: odd dims, dims below the vector width,
 * empty panels, single rows, padded tail lanes, exact ties, and NaN
 * queries. "Close" is not good enough: the classifiers' replay==live
 * and worker-count-independence guarantees assume classify results
 * do not depend on which CPU ran them.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "simd/kernels.h"
#include "simd/kernels_ref.h"
#include "util/rng.h"

namespace gpusc::simd {
namespace {

/** One compiled instantiation of the panel kernels. */
struct Instantiation
{
    std::string name;
    decltype(&baseline::l2sqToMany) l2sqToMany;
    decltype(&baseline::wl2sqToMany) wl2sqToMany;
    decltype(&baseline::argminL2) argminL2;
    decltype(&baseline::argminWL2) argminWL2;
    decltype(&baseline::l2sqTile) l2sqTile;
};

/** Every instantiation this CPU can run (AVX2 is skipped where the
 *  CPU lacks it). */
std::vector<Instantiation>
instantiations()
{
    std::vector<Instantiation> v = {
        {"baseline", &baseline::l2sqToMany, &baseline::wl2sqToMany,
         &baseline::argminL2, &baseline::argminWL2,
         &baseline::l2sqTile}};
#if defined(__x86_64__)
    if (activeBackend() == Backend::Avx2)
        v.push_back({"avx2", &avx2::l2sqToMany, &avx2::wl2sqToMany,
                     &avx2::argminL2, &avx2::argminWL2,
                     &avx2::l2sqTile});
#endif
    return v;
}

std::vector<double>
randomBlock(Rng &rng, std::size_t n)
{
    std::vector<double> v(n);
    for (double &x : v)
        x = rng.uniform(-8.0, 8.0);
    return v;
}

/** Bitwise double equality (distinguishes -0.0/0.0, any NaN is
 *  compared by payload — exactly what "bit-identical" means). */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

constexpr std::size_t kRowCounts[] = {0, 1, 2, 3, 4, 5, 8, 13};
constexpr std::size_t kDimCounts[] = {1, 2, 3, 4, 7, 8, 11, 16, 17};

TEST(KernelConformanceTest, ActiveBackendMatchesTheCpu)
{
#if defined(__x86_64__)
    EXPECT_EQ(activeBackend() == Backend::Avx2,
              __builtin_cpu_supports("avx2") != 0);
#else
    EXPECT_EQ(activeBackend(), Backend::Baseline);
#endif
    EXPECT_EQ(backendName(Backend::Avx2), "avx2");
    EXPECT_EQ(backendName(Backend::Baseline), "baseline");
}

TEST(KernelConformanceTest, PanelKernelsMatchReferenceBitExact)
{
    Rng rng(777001);
    for (const std::size_t rows : kRowCounts) {
        for (const std::size_t dims : kDimCounts) {
            const std::vector<double> block =
                randomBlock(rng, rows * dims);
            Panel panel;
            panel.packContiguous(block.data(), rows, dims, dims);

            std::vector<std::vector<double>> queries;
            for (int q = 0; q < 6; ++q)
                queries.push_back(randomBlock(rng, dims));
            if (rows > 0) // zero-distance query: earliest early exit
                queries.push_back({block.begin(),
                                   block.begin() + std::ptrdiff_t(dims)});
            const std::vector<double> weights = randomBlock(rng, dims);

            for (const Instantiation &k : instantiations()) {
                for (const std::vector<double> &q : queries) {
                    std::vector<double> got(rows), want(rows);
                    k.l2sqToMany(q.data(), panel, got.data());
                    ref::l2sqToMany(q.data(), panel, want.data());
                    for (std::size_t r = 0; r < rows; ++r)
                        EXPECT_TRUE(sameBits(got[r], want[r]))
                            << k.name << " l2sqToMany rows=" << rows
                            << " dims=" << dims << " r=" << r;

                    k.wl2sqToMany(q.data(), weights.data(), panel,
                                  got.data());
                    ref::wl2sqToMany(q.data(), weights.data(), panel,
                                     want.data());
                    for (std::size_t r = 0; r < rows; ++r)
                        EXPECT_TRUE(sameBits(got[r], want[r]))
                            << k.name << " wl2sqToMany rows=" << rows
                            << " dims=" << dims << " r=" << r;

                    const Argmin ga = k.argminL2(q.data(), panel);
                    const Argmin wa = ref::argminL2(q.data(), panel);
                    EXPECT_EQ(ga.index, wa.index)
                        << k.name << " argminL2 rows=" << rows
                        << " dims=" << dims;
                    EXPECT_TRUE(sameBits(ga.sq, wa.sq))
                        << k.name << " argminL2 rows=" << rows
                        << " dims=" << dims;

                    const Argmin gw =
                        k.argminWL2(q.data(), weights.data(), panel);
                    const Argmin ww =
                        ref::argminWL2(q.data(), weights.data(), panel);
                    EXPECT_EQ(gw.index, ww.index)
                        << k.name << " argminWL2 rows=" << rows
                        << " dims=" << dims;
                    EXPECT_TRUE(sameBits(gw.sq, ww.sq))
                        << k.name << " argminWL2 rows=" << rows
                        << " dims=" << dims;
                }

                // M x K tile against the per-query reference.
                const std::size_t m = queries.size();
                std::vector<double> qblock(m * dims);
                for (std::size_t q = 0; q < m; ++q)
                    std::copy(queries[q].begin(), queries[q].end(),
                              qblock.begin() + std::ptrdiff_t(q * dims));
                std::vector<double> gotTile(m * rows),
                    wantTile(m * rows);
                if (rows > 0) {
                    k.l2sqTile(qblock.data(), m, dims, panel,
                               gotTile.data(), rows);
                    ref::l2sqTile(qblock.data(), m, dims, panel,
                                  wantTile.data(), rows);
                    for (std::size_t i = 0; i < m * rows; ++i)
                        EXPECT_TRUE(sameBits(gotTile[i], wantTile[i]))
                            << k.name << " l2sqTile rows=" << rows
                            << " dims=" << dims << " i=" << i;
                }
            }
        }
    }
}

TEST(KernelConformanceTest, PairKernelsMatchReferenceBitExact)
{
    // The per-pair reductions are the reference loops themselves;
    // pin that they agree with the panel kernels on a one-row panel
    // and that an early exit never alters a completed sum.
    Rng rng(777002);
    for (const std::size_t dims : kDimCounts) {
        const std::vector<double> a = randomBlock(rng, dims);
        const std::vector<double> b2 = randomBlock(rng, dims);
        const std::vector<double> w = randomBlock(rng, dims);
        const double full = ref::l2sq(a.data(), b2.data(), dims);
        const double weighted =
            ref::wl2sq(a.data(), b2.data(), w.data(), dims);
        Panel one;
        one.packContiguous(b2.data(), 1, dims, dims);

        for (const Instantiation &k : instantiations()) {
            double got = 0.0;
            k.l2sqToMany(a.data(), one, &got);
            EXPECT_TRUE(sameBits(got, full))
                << k.name << " dims=" << dims;
            k.wl2sqToMany(a.data(), w.data(), one, &got);
            EXPECT_TRUE(sameBits(got, weighted))
                << k.name << " dims=" << dims;
        }

        // Bounds: never-exits, exact-sum (Ge may exit on the last
        // dimension, Gt completes), and always-exits-immediately.
        const double inf = std::numeric_limits<double>::infinity();
        EXPECT_TRUE(sameBits(
            ref::l2sqEarlyExitGe(a.data(), b2.data(), dims, inf), full))
            << "dims=" << dims;
        EXPECT_TRUE(sameBits(
            ref::l2sqEarlyExitGt(a.data(), b2.data(), dims, inf), full))
            << "dims=" << dims;
        EXPECT_TRUE(sameBits(
            ref::l2sqEarlyExitGe(a.data(), b2.data(), dims, full), full))
            << "dims=" << dims;
        EXPECT_TRUE(sameBits(
            ref::l2sqEarlyExitGt(a.data(), b2.data(), dims, full), full))
            << "dims=" << dims;
        const double first = (a[0] - b2[0]) * (a[0] - b2[0]);
        EXPECT_TRUE(sameBits(
            ref::l2sqEarlyExitGe(a.data(), b2.data(), dims, 0.0), first))
            << "dims=" << dims;
        EXPECT_TRUE(sameBits(ref::sumSquares(a.data(), dims),
                             ref::dot(a.data(), a.data(), dims)))
            << "dims=" << dims;
    }
}

TEST(KernelConformanceTest, ArgminTiesBreakToLowestIndex)
{
    // Duplicate rows (including across lane-group boundaries) must
    // resolve to the first occurrence in every instantiation.
    const std::size_t dims = 3;
    std::vector<double> block;
    const std::vector<double> rowA = {1.0, 2.0, 3.0};
    const std::vector<double> rowB = {4.0, 5.0, 6.0};
    for (int i = 0; i < 9; ++i) {
        const std::vector<double> &r = i % 2 ? rowA : rowB;
        block.insert(block.end(), r.begin(), r.end());
    }
    Panel panel;
    panel.packContiguous(block.data(), 9, dims, dims);

    for (const Instantiation &k : instantiations()) {
        const Argmin got = k.argminL2(rowA.data(), panel);
        EXPECT_EQ(got.index, 1u) << k.name;
        EXPECT_EQ(got.sq, 0.0) << k.name;
    }

    // Flat-array argmin: first strict minimum wins.
    const std::vector<double> vals = {3.0, 1.0, 1.0, 2.0};
    EXPECT_EQ(ref::argmin(vals.data(), vals.size()), 1u);
    EXPECT_EQ(ref::argmin(vals.data(), 0), Argmin::npos);
}

TEST(KernelConformanceTest, EmptyPanelAndNanQueries)
{
    Rng rng(777003);
    const Panel empty;
    for (const Instantiation &k : instantiations()) {
        const double q[3] = {1.0, 2.0, 3.0};
        const Argmin a = k.argminL2(q, empty);
        EXPECT_EQ(a.index, Argmin::npos) << k.name;
        EXPECT_TRUE(std::isinf(a.sq)) << k.name;
    }

    // NaN queries: no row can win (every comparison is false) — and
    // every instantiation must agree on that.
    const std::size_t dims = 5;
    const std::vector<double> block = randomBlock(rng, 7 * dims);
    Panel panel;
    panel.packContiguous(block.data(), 7, dims, dims);
    std::vector<double> nanQuery(dims, 0.5);
    nanQuery[2] = std::numeric_limits<double>::quiet_NaN();
    const Argmin want = ref::argminL2(nanQuery.data(), panel);
    for (const Instantiation &k : instantiations()) {
        const Argmin got = k.argminL2(nanQuery.data(), panel);
        EXPECT_EQ(got.index, want.index) << k.name;
        EXPECT_TRUE(sameBits(got.sq, want.sq)) << k.name;
    }
}

} // namespace
} // namespace gpusc::simd
