#include "ml/knn.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "simd/kernels_ref.h"
#include "util/logging.h"

namespace gpusc::ml {

Knn::Knn(std::size_t k) : k_(k)
{
    if (k == 0)
        panic("Knn: k must be positive");
}

void
Knn::fit(const Dataset &data)
{
    train_ = data;
    norms_.resize(train_.size());
    for (std::size_t i = 0; i < train_.size(); ++i)
        norms_[i] = std::sqrt(simd::ref::sumSquares(
            train_.x[i].data(), train_.dims()));
}

int
Knn::predict(std::span<const double> features) const
{
    if (train_.size() == 0)
        panic("Knn: predict() before fit()");

    const std::size_t k = std::min(k_, train_.size());
    // Pruning is only sound when the query lives in the training
    // space (norms cover the same dimensions the distance sums).
    const bool prune = features.size() == train_.dims();
    const std::size_t nd =
        std::min(features.size(), train_.dims());
    double queryNorm = 0.0;
    if (prune)
        queryNorm = std::sqrt(
            simd::ref::sumSquares(features.data(), features.size()));

    // The k best (squared distance, label) pairs, kept sorted
    // ascending by pair order — the same total order the reference
    // full sort uses, so ties at equal distance resolve identically.
    std::vector<std::pair<double, int>> best;
    best.reserve(k);
    for (std::size_t i = 0; i < train_.size(); ++i) {
        const bool full = best.size() == k;
        const double worst =
            full ? best.back().first
                 : std::numeric_limits<double>::infinity();
        if (full && prune) {
            const double gap = queryNorm - norms_[i];
            if (gap * gap > worst)
                continue;
        }
        const double s = simd::ref::l2sqEarlyExitGt(
            features.data(), train_.x[i].data(), nd, worst);
        if (s > worst)
            continue; // partial sum already past the k-th best
        const std::pair<double, int> cand(s, train_.y[i]);
        if (full) {
            if (!(cand < best.back()))
                continue;
            best.pop_back();
        }
        best.insert(
            std::upper_bound(best.begin(), best.end(), cand), cand);
    }

    // Majority vote over the sorted k-buffer; the first label to
    // reach the winning count — i.e. the one with the nearest
    // representative — takes ties, exactly as the reference does.
    int bestLabel = best[0].second;
    std::size_t bestVotes = 0;
    for (std::size_t i = 0; i < best.size(); ++i) {
        const int label = best[i].second;
        std::size_t votes = 0;
        for (const auto &p : best)
            votes += std::size_t(p.second == label);
        if (votes > bestVotes) {
            bestVotes = votes;
            bestLabel = label;
        }
    }
    return bestLabel;
}

} // namespace gpusc::ml
