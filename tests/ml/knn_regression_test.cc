/**
 * @file
 * Regression tests pinning the optimised classifier hot paths
 * (bounded-heap KNN with norm pruning, early-exit NearestCentroid,
 * flattened RandomForest, early-exit SignatureModel::classify) to
 * straightforward reference implementations of the code they
 * replaced. The optimisations only skip work that provably cannot
 * change the answer, so every prediction — including tie-breaks on
 * exactly equal distances — must match bit for bit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "attack/signature.h"
#include "ml/knn.h"
#include "ml/naive_bayes.h"
#include "ml/nearest_centroid.h"
#include "ml/random_forest.h"
#include "simd/kernels.h"
#include "simd/kernels_ref.h"
#include "util/rng.h"

namespace gpusc::ml {
namespace {

/** The old Knn::predict: materialise every distance, partial-sort,
 *  vote over an ordered map with strict-> tie-break. */
int
refKnnPredict(const Dataset &train, std::size_t k,
              std::span<const double> q)
{
    std::vector<std::pair<double, int>> dists;
    dists.reserve(train.size());
    for (std::size_t i = 0; i < train.size(); ++i) {
        double s = 0.0;
        for (std::size_t d = 0; d < q.size(); ++d) {
            const double diff = q[d] - train.x[i][d];
            s += diff * diff;
        }
        dists.emplace_back(std::sqrt(s), train.y[i]);
    }
    const std::size_t kk = std::min(k, dists.size());
    std::partial_sort(dists.begin(),
                      dists.begin() + std::ptrdiff_t(kk),
                      dists.end());
    std::map<int, std::size_t> votes;
    for (std::size_t i = 0; i < kk; ++i)
        ++votes[dists[i].second];
    int best = dists[0].second;
    std::size_t bestVotes = 0;
    for (std::size_t i = 0; i < kk; ++i) {
        const int label = dists[i].second;
        if (votes[label] > bestVotes) {
            bestVotes = votes[label];
            best = label;
        }
    }
    return best;
}

/** The old NearestCentroid::match: full sqrt distance per centroid,
 *  strict-< winner. */
NearestCentroid::Match
refCentroidMatch(const FeatureMatrix &centroids,
                 const std::vector<int> &labels,
                 std::span<const double> q)
{
    NearestCentroid::Match best;
    best.distance = std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < centroids.rows(); ++c) {
        double s = 0.0;
        for (std::size_t d = 0; d < q.size(); ++d) {
            const double diff = q[d] - centroids[c][d];
            s += diff * diff;
        }
        const double dist = std::sqrt(s);
        if (dist < best.distance) {
            best.distance = dist;
            best.label = labels[c];
        }
    }
    return best;
}

/** Vote over per-tree predictions the way the old ordered-map loop
 *  did (smallest label wins ties). */
int
refForestVote(const RandomForest &forest, const FeatureVec &q)
{
    std::map<int, std::size_t> votes;
    for (const auto &tree : forest.trees())
        ++votes[tree->predict(q)];
    int best = 0;
    std::size_t bestVotes = 0;
    for (const auto &[label, n] : votes) {
        if (n > bestVotes) {
            bestVotes = n;
            best = label;
        }
    }
    return best;
}

/** Continuous-feature dataset (generic position). */
Dataset
randomDataset(Rng &rng, std::size_t n, std::size_t dims, int classes)
{
    Dataset data;
    for (std::size_t i = 0; i < n; ++i) {
        FeatureVec v(dims);
        const int label = int(rng.uniformInt(0, classes - 1));
        for (double &x : v)
            x = rng.uniform(-4.0, 4.0) + label;
        data.add(std::move(v), label);
    }
    return data;
}

/** Small-integer features: duplicate points and exactly equal
 *  distances are common, stressing the tie-break paths. */
Dataset
integerDataset(Rng &rng, std::size_t n, std::size_t dims, int classes)
{
    Dataset data;
    for (std::size_t i = 0; i < n; ++i) {
        FeatureVec v(dims);
        for (double &x : v)
            x = double(rng.uniformInt(0, 2));
        data.add(std::move(v), int(rng.uniformInt(0, classes - 1)));
    }
    return data;
}

FeatureVec
randomQuery(Rng &rng, std::size_t dims, bool integer)
{
    FeatureVec q(dims);
    for (double &x : q)
        x = integer ? double(rng.uniformInt(0, 2))
                    : rng.uniform(-5.0, 5.0);
    return q;
}

TEST(KnnRegressionTest, MatchesFullSortReference)
{
    Rng rng(90210);
    for (const bool integer : {false, true}) {
        const Dataset data =
            integer ? integerDataset(rng, 60, 4, 4)
                    : randomDataset(rng, 60, 6, 5);
        for (const std::size_t k : {1u, 3u, 5u, 100u}) {
            Knn knn(k);
            knn.fit(data);
            for (int t = 0; t < 80; ++t) {
                const FeatureVec q =
                    randomQuery(rng, data.dims(), integer);
                EXPECT_EQ(knn.predict(q),
                          refKnnPredict(data, k, q))
                    << "k=" << k << " integer=" << integer
                    << " query " << t;
            }
        }
    }
}

TEST(KnnRegressionTest, HandlesTrainingPointsAsQueries)
{
    // Zero distances exercise the earliest possible early-exit.
    Rng rng(90211);
    const Dataset data = integerDataset(rng, 40, 3, 3);
    Knn knn(3);
    knn.fit(data);
    for (std::size_t i = 0; i < data.size(); ++i)
        EXPECT_EQ(knn.predict(data.x[i]),
                  refKnnPredict(data, 3, data.x[i]))
            << "training point " << i;
}

TEST(NearestCentroidRegressionTest, MatchesNaiveReference)
{
    Rng rng(90212);
    for (const bool integer : {false, true}) {
        const Dataset data =
            integer ? integerDataset(rng, 50, 4, 6)
                    : randomDataset(rng, 50, 6, 6);
        NearestCentroid nc;
        nc.fit(data);
        for (int t = 0; t < 100; ++t) {
            const FeatureVec q =
                randomQuery(rng, data.dims(), integer);
            const NearestCentroid::Match got = nc.match(q);
            const NearestCentroid::Match want =
                refCentroidMatch(nc.centroids(), nc.labels(), q);
            EXPECT_EQ(got.label, want.label) << "query " << t;
            EXPECT_EQ(got.distance, want.distance) << "query " << t;
        }
    }
}

TEST(NearestCentroidRegressionTest, LoadRebuildsThePrunedPath)
{
    Rng rng(90213);
    const Dataset data = randomDataset(rng, 30, 5, 4);
    NearestCentroid fitted;
    fitted.fit(data);

    NearestCentroid loaded;
    loaded.load(fitted.centroids(), fitted.labels());
    for (int t = 0; t < 50; ++t) {
        const FeatureVec q = randomQuery(rng, data.dims(), false);
        EXPECT_EQ(loaded.match(q).label, fitted.match(q).label);
        EXPECT_EQ(loaded.match(q).distance, fitted.match(q).distance);
    }
}

TEST(RandomForestRegressionTest, FlatWalkMatchesPerTreeVote)
{
    Rng rng(90214);
    const Dataset data = randomDataset(rng, 80, 5, 4);
    RandomForest forest;
    forest.fit(data);
    ASSERT_FALSE(forest.trees().empty());
    for (int t = 0; t < 100; ++t) {
        const FeatureVec q = randomQuery(rng, data.dims(), false);
        EXPECT_EQ(forest.predict(q), refForestVote(forest, q))
            << "query " << t;
    }
}

TEST(SignatureRegressionTest, ClassifyMatchesNaiveScan)
{
    using attack::LabelSignature;
    using attack::SignatureModel;

    Rng rng(90215);
    SignatureModel model;
    std::array<double, gpu::kNumSelectedCounters> scale{};
    for (double &s : scale)
        s = rng.uniform(0.001, 0.01);
    model.setScale(scale);
    for (int i = 0; i < 40; ++i) {
        LabelSignature sig;
        sig.label = std::string(1, char('a' + i % 26));
        for (std::int64_t &v : sig.centroid)
            v = rng.uniformInt(0, 400);
        model.addSignature(sig);
    }

    for (int t = 0; t < 200; ++t) {
        gpu::CounterVec delta{};
        for (std::int64_t &v : delta)
            v = rng.uniformInt(0, 400);

        // Naive scan: full scaled distance per signature, strict <.
        const LabelSignature *wantSig = nullptr;
        double wantDist = std::numeric_limits<double>::infinity();
        for (const LabelSignature &sig : model.signatures()) {
            double s = 0.0;
            for (std::size_t d = 0; d < delta.size(); ++d) {
                const double diff =
                    double(delta[d] - sig.centroid[d]) * scale[d];
                s += diff * diff;
            }
            if (std::sqrt(s) < wantDist) {
                wantDist = std::sqrt(s);
                wantSig = &sig;
            }
        }

        const SignatureModel::Match got = model.classify(delta);
        EXPECT_EQ(got.sig, wantSig) << "query " << t;
        EXPECT_EQ(got.distance, wantDist) << "query " << t;
    }
}

/** A seeded SignatureModel with blink variants (robust path live). */
attack::SignatureModel
randomSignatureModel(Rng &rng, int classes)
{
    attack::SignatureModel model;
    std::array<double, gpu::kNumSelectedCounters> scale{};
    for (double &s : scale)
        s = rng.uniform(0.001, 0.01);
    model.setScale(scale);
    model.setThreshold(1.5);
    for (int i = 0; i < classes; ++i) {
        attack::LabelSignature sig;
        sig.label = std::string(1, char('a' + i % 26));
        for (std::int64_t &v : sig.centroid)
            v = rng.uniformInt(0, 400);
        model.addSignature(sig);
    }
    std::vector<gpu::CounterVec> blinks(2);
    for (gpu::CounterVec &b : blinks)
        for (std::int64_t &v : b)
            v = rng.uniformInt(0, 40);
    model.setBlinkVariants(std::move(blinks));
    return model;
}

TEST(BatchConformanceTest, PredictBatchMatchesLoopedPredict)
{
    Rng rng(90216);
    const Dataset data = randomDataset(rng, 80, 5, 4);
    FeatureMatrix queries;
    for (int t = 0; t < 64; ++t)
        queries.addRow(randomQuery(rng, data.dims(), false));

    std::vector<std::unique_ptr<Classifier>> classifiers;
    classifiers.push_back(std::make_unique<Knn>(3));
    classifiers.push_back(std::make_unique<NearestCentroid>());
    classifiers.push_back(std::make_unique<RandomForest>());
    classifiers.push_back(std::make_unique<GaussianNaiveBayes>());
    for (const auto &c : classifiers) {
        c->fit(data);
        std::vector<int> batch(queries.rows());
        c->predictBatch(queries, batch);
        for (std::size_t i = 0; i < queries.rows(); ++i)
            EXPECT_EQ(batch[i], c->predict(queries[i]))
                << c->name() << " query " << i;

        // Degenerate batches: empty and single-row.
        const FeatureMatrix none;
        std::vector<int> noOut;
        c->predictBatch(none, noOut);
        EXPECT_TRUE(noOut.empty()) << c->name();

        FeatureMatrix one;
        one.addRow(queries[0]);
        std::vector<int> oneOut(1, -2);
        c->predictBatch(one, oneOut);
        EXPECT_EQ(oneOut[0], c->predict(queries[0])) << c->name();
    }
}

TEST(BatchConformanceTest, SignatureClassifyBatchMatchesSingle)
{
    Rng rng(90217);
    const attack::SignatureModel model = randomSignatureModel(rng, 40);

    std::vector<gpu::CounterVec> deltas(96);
    for (gpu::CounterVec &d : deltas)
        for (std::int64_t &v : d)
            v = rng.uniformInt(0, 400);

    std::vector<attack::SignatureModel::Match> batch(deltas.size());
    model.classifyBatch(deltas, batch);
    for (std::size_t i = 0; i < deltas.size(); ++i) {
        const attack::SignatureModel::Match one =
            model.classify(deltas[i]);
        EXPECT_EQ(batch[i].sig, one.sig) << "query " << i;
        EXPECT_EQ(batch[i].distance, one.distance) << "query " << i;
    }

    model.classifyRobustBatch(deltas, batch);
    for (std::size_t i = 0; i < deltas.size(); ++i) {
        const attack::SignatureModel::Match one =
            model.classifyRobust(deltas[i]);
        EXPECT_EQ(batch[i].sig, one.sig) << "robust query " << i;
        EXPECT_EQ(batch[i].distance, one.distance)
            << "robust query " << i;
    }

    // Empty batch is a no-op.
    model.classifyBatch({}, {});
    model.classifyRobustBatch({}, {});
}

/** The nearest-centroid scan as a plain loop over the scalar
 *  reference kernel: strict <, so the first of equal rows wins. */
NearestCentroid::Match
refCentroidMatch(const NearestCentroid &nc, const FeatureVec &q)
{
    double bestSq = std::numeric_limits<double>::infinity();
    NearestCentroid::Match best;
    for (std::size_t c = 0; c < nc.centroids().rows(); ++c) {
        const double s = simd::ref::l2sq(q.data(),
                                         nc.centroids()[c].data(),
                                         q.size());
        if (s < bestSq) {
            bestSq = s;
            best.label = nc.labels()[c];
        }
    }
    best.distance = std::sqrt(bestSq);
    return best;
}

TEST(BackendConformanceTest, CentroidMatchesIdenticalAcrossBackends)
{
    Rng rng(90218);
    // Odd dims and dims below the vector width stress the padded
    // panel lanes and the block-exit tails.
    for (const std::size_t dims : {1u, 2u, 3u, 5u, 7u, 11u, 16u}) {
        const Dataset data =
            randomDataset(rng, 30, dims, int(dims) + 2);
        NearestCentroid nc;
        nc.fit(data);
        for (int t = 0; t < 40; ++t) {
            const FeatureVec q = randomQuery(rng, dims, false);
            const NearestCentroid::Match want = refCentroidMatch(nc, q);
            const NearestCentroid::Match got = nc.match(q);
            EXPECT_EQ(got.label, want.label)
                << simd::backendName(simd::activeBackend())
                << " dims=" << dims << " query " << t;
            EXPECT_EQ(got.distance, want.distance)
                << simd::backendName(simd::activeBackend())
                << " dims=" << dims << " query " << t;
        }
    }
}

TEST(BackendConformanceTest, SignatureClassifyIdenticalAcrossBackends)
{
    Rng rng(90219);
    // Sweep class counts around the lane width so partially filled
    // panels (rows % lanes != 0) and single-row panels are covered.
    for (const int classes : {1, 3, 4, 5, 26, 40}) {
        const attack::SignatureModel model =
            randomSignatureModel(rng, classes);
        std::vector<gpu::CounterVec> deltas(64);
        for (gpu::CounterVec &d : deltas)
            for (std::int64_t &v : d)
                v = rng.uniformInt(0, 400);

        std::vector<attack::SignatureModel::Match> got(deltas.size());
        model.classifyBatch(deltas, got);
        for (std::size_t i = 0; i < deltas.size(); ++i) {
            // The weighted scan as a plain loop over the scalar
            // reference kernel on the widened counters.
            std::array<double, gpu::kNumSelectedCounters> q{};
            for (std::size_t d = 0; d < q.size(); ++d)
                q[d] = double(deltas[i][d]);
            const attack::LabelSignature *wantSig = nullptr;
            double bestSq = std::numeric_limits<double>::infinity();
            for (const attack::LabelSignature &sig :
                 model.signatures()) {
                std::array<double, gpu::kNumSelectedCounters> c{};
                for (std::size_t d = 0; d < c.size(); ++d)
                    c[d] = double(sig.centroid[d]);
                const double s = simd::ref::wl2sq(
                    q.data(), c.data(), model.scale().data(), q.size());
                if (s < bestSq) {
                    bestSq = s;
                    wantSig = &sig;
                }
            }
            EXPECT_EQ(got[i].sig, wantSig)
                << simd::backendName(simd::activeBackend())
                << " classes=" << classes << " query " << i;
            EXPECT_EQ(got[i].distance, std::sqrt(bestSq))
                << simd::backendName(simd::activeBackend())
                << " classes=" << classes << " query " << i;
        }
    }
}

} // namespace
} // namespace gpusc::ml
