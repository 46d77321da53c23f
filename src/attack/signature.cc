#include "attack/signature.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <cstring>
#include <limits>

#include "simd/kernels.h"
#include "util/binary_io.h"
#include "util/logging.h"

namespace gpusc::attack {

namespace {

/**
 * Widen an int64 counter delta to doubles for the kernels. Counter
 * deltas are per-frame differences that sit far below 2^53, so the
 * conversion is exact and (a - b) computed in int64 equals
 * double(a) - double(b) bit-for-bit — which is what lets the panel
 * store pre-converted centroids without changing a single distance.
 */
void
widen(const gpu::CounterVec &v,
      double (&out)[gpu::kNumSelectedCounters])
{
    for (std::size_t d = 0; d < v.size(); ++d)
        out[d] = double(v[d]);
}

} // namespace

Label
pageLabel(int page)
{
    static const char *names[] = {"lower", "upper", "symbols"};
    if (page < 0 || page > 2)
        panic("pageLabel: bad page %d", page);
    return std::string("PAGE:") + names[page];
}

bool
isPageLabel(const Label &label)
{
    return label.rfind("PAGE:", 0) == 0;
}

void
SignatureModel::addSignature(LabelSignature sig)
{
    sigs_.push_back(std::move(sig));
    rebuildPanel();
}

void
SignatureModel::rebuildPanel()
{
    std::vector<double> rows(sigs_.size() *
                             gpu::kNumSelectedCounters);
    for (std::size_t i = 0; i < sigs_.size(); ++i)
        for (std::size_t d = 0; d < gpu::kNumSelectedCounters; ++d)
            rows[i * gpu::kNumSelectedCounters + d] =
                double(sigs_[i].centroid[d]);
    panel_.packContiguous(rows.data(), sigs_.size(),
                          gpu::kNumSelectedCounters,
                          gpu::kNumSelectedCounters);
}

SignatureModel::Match
SignatureModel::classify(const gpu::CounterVec &delta) const
{
    // Hot path (one call per sampled counter change): the weighted
    // argmin kernel compares squared distances, abandons losers via
    // bound-pruned early exit and takes one sqrt for the winner.
    // sqrt is monotone and partial sums of squares never decrease, so
    // the winner (and its tie-break on declaration order) is
    // identical to the naive scan.
    Match best;
    if (sigs_.empty()) {
        best.distance = std::numeric_limits<double>::infinity();
        return best;
    }
    double q[gpu::kNumSelectedCounters];
    widen(delta, q);
    const simd::Argmin a = simd::argminWL2(q, scale_.data(), panel_);
    best.sig = &sigs_[a.index];
    best.distance = std::sqrt(a.sq);
    return best;
}

void
SignatureModel::classifyBatch(std::span<const gpu::CounterVec> deltas,
                              std::span<Match> out) const
{
    if (out.size() < deltas.size())
        panic("classifyBatch: %zu outputs for %zu deltas", out.size(),
              deltas.size());
    for (std::size_t i = 0; i < deltas.size(); ++i)
        out[i] = classify(deltas[i]);
}

void
SignatureModel::classifyRobustBatch(
    std::span<const gpu::CounterVec> deltas, std::span<Match> out) const
{
    if (out.size() < deltas.size())
        panic("classifyRobustBatch: %zu outputs for %zu deltas",
              out.size(), deltas.size());
    for (std::size_t i = 0; i < deltas.size(); ++i)
        out[i] = classifyRobust(deltas[i]);
}

SignatureModel::Match
SignatureModel::classifyRobust(const gpu::CounterVec &delta,
                               gpu::CounterVec *effectiveOut) const
{
    Match best = classify(delta);
    if (effectiveOut)
        *effectiveOut = delta;
    gpu::CounterVec scratch{}; // reused across variants, stays on stack
    for (const gpu::CounterVec &blink : blinkVariants_) {
        for (std::size_t d = 0; d < delta.size(); ++d)
            scratch[d] = delta[d] - blink[d];
        const Match m = classify(scratch);
        if (m.distance < best.distance) {
            best = m;
            if (effectiveOut)
                *effectiveOut = scratch;
        }
    }
    return best;
}

bool
SignatureModel::updateSignature(const Label &label,
                                const gpu::CounterVec &delta,
                                double blend)
{
    if (!(blend > 0.0) || blend > 1.0)
        return false;
    for (std::size_t i = 0; i < sigs_.size(); ++i) {
        LabelSignature &sig = sigs_[i];
        if (sig.label != label)
            continue;
        for (std::size_t d = 0; d < sig.centroid.size(); ++d) {
            const double mixed =
                (1.0 - blend) * double(sig.centroid[d]) +
                blend * double(delta[d]);
            std::int64_t v = std::llround(mixed);
            // Serialisation stores centroids as i32; an adapted model
            // must stay storable byte-for-byte.
            v = std::clamp<std::int64_t>(v, INT32_MIN, INT32_MAX);
            sig.centroid[d] = v;
        }
        // Refresh just the adapted row of the packed panel.
        double row[gpu::kNumSelectedCounters];
        widen(sig.centroid, row);
        panel_.setRow(i, row);
        return true;
    }
    return false;
}

std::optional<Label>
SignatureModel::accept(const gpu::CounterVec &delta) const
{
    const Match m = classify(delta);
    if (m.accepted(threshold_))
        return m.sig->label;
    return std::nullopt;
}

double
SignatureModel::minInterClassDistance() const
{
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < sigs_.size(); ++i) {
        for (std::size_t j = i + 1; j < sigs_.size(); ++j) {
            double s = 0.0;
            for (std::size_t d = 0; d < gpu::kNumSelectedCounters;
                 ++d) {
                const double diff =
                    double(sigs_[i].centroid[d] - sigs_[j].centroid[d]) *
                    scale_[d];
                s += diff * diff;
            }
            best = std::min(best, std::sqrt(s));
        }
    }
    return best;
}

bool
SignatureModel::hasEchoModel() const
{
    return echoTol_ > 0.0 && !gpu::isZero(echoInc_);
}

std::optional<int>
SignatureModel::decodeEchoLength(const gpu::CounterVec &delta,
                                 double *residualOut) const
{
    if (!hasEchoModel())
        return std::nullopt;
    // Least-squares projection of (delta - base) onto the increment
    // direction in the model's normalised space.
    double num = 0.0;
    double den = 0.0;
    for (std::size_t d = 0; d < delta.size(); ++d) {
        const double inc = double(echoInc_[d]) * scale_[d];
        const double rel =
            double(delta[d] - echoBase_[d]) * scale_[d];
        num += rel * inc;
        den += inc * inc;
    }
    if (den <= 0.0)
        return std::nullopt;
    const int k = std::max(0, int(std::lround(num / den)));
    double res = 0.0;
    for (std::size_t d = 0; d < delta.size(); ++d) {
        const double fit =
            double(echoBase_[d] + k * echoInc_[d]) * scale_[d];
        const double diff = double(delta[d]) * scale_[d] - fit;
        res += diff * diff;
    }
    if (residualOut)
        *residualOut = std::sqrt(res);
    if (std::sqrt(res) > echoTol_)
        return std::nullopt;
    return k;
}

namespace {

constexpr std::uint32_t kMagic = 0x47535047; // "GPSG"

} // namespace

std::vector<std::uint8_t>
SignatureModel::serialize() const
{
    ByteWriter out;
    out.u32(kMagic);
    out.str16(modelKey_);
    out.f32(float(threshold_));
    out.f32(float(echoCutoff_));
    out.f32(float(echoTol_));
    for (std::int64_t v : echoBase_)
        out.i32(std::int32_t(v));
    for (std::int64_t v : echoInc_)
        out.i32(std::int32_t(v));
    for (double s : scale_)
        out.f32(float(s));
    out.u8(std::uint8_t(blinkVariants_.size()));
    for (const gpu::CounterVec &b : blinkVariants_)
        for (std::int64_t v : b)
            out.i32(std::int32_t(v));
    out.u16(std::uint16_t(sigs_.size()));
    for (const LabelSignature &sig : sigs_) {
        out.u8(std::uint8_t(sig.label.size()));
        out.raw(reinterpret_cast<const std::uint8_t *>(sig.label.data()),
                sig.label.size());
        // Centroids fit comfortably in 32 bits per counter.
        for (std::int64_t v : sig.centroid)
            out.i32(std::int32_t(v));
    }
    return out.take();
}

std::size_t
SignatureModel::byteSize() const
{
    return serialize().size();
}

SignatureModel
SignatureModel::deserialize(const std::uint8_t *data, std::size_t size)
{
    std::optional<SignatureModel> m = tryDeserialize(data, size);
    if (!m)
        fatal("SignatureModel::deserialize: truncated or corrupt "
              "model blob");
    return *std::move(m);
}

std::optional<SignatureModel>
SignatureModel::tryDeserialize(const std::uint8_t *data,
                               std::size_t size)
{
    ByteReader r(data, size);
    SignatureModel m;
    if (r.u32() != kMagic || !r.ok())
        return std::nullopt;
    {
        const std::uint16_t keyLen = r.u16();
        if (!r.ok() || keyLen > r.remaining())
            return std::nullopt;
        m.modelKey_.resize(keyLen);
        r.raw(reinterpret_cast<std::uint8_t *>(m.modelKey_.data()),
              keyLen);
    }
    m.threshold_ = r.f32();
    m.echoCutoff_ = r.f32();
    m.echoTol_ = r.f32();
    for (std::int64_t &v : m.echoBase_)
        v = r.i32();
    for (std::int64_t &v : m.echoInc_)
        v = r.i32();
    for (double &s : m.scale_)
        s = r.f32();
    const std::uint8_t nBlink = r.u8();
    for (std::uint8_t i = 0; r.ok() && i < nBlink; ++i) {
        gpu::CounterVec b{};
        for (std::int64_t &v : b)
            v = r.i32();
        m.blinkVariants_.push_back(b);
    }
    const std::uint16_t n = r.u16();
    for (std::uint16_t i = 0; r.ok() && i < n; ++i) {
        LabelSignature sig;
        const std::uint8_t len = r.u8();
        if (!r.ok() || len > r.remaining())
            return std::nullopt;
        sig.label.resize(len);
        r.raw(reinterpret_cast<std::uint8_t *>(sig.label.data()),
              len);
        for (std::int64_t &v : sig.centroid)
            v = r.i32();
        m.sigs_.push_back(std::move(sig));
    }
    // A short buffer or trailing garbage both mean the blob does not
    // frame a model of this version.
    if (!r.ok() || !r.atEnd())
        return std::nullopt;
    m.rebuildPanel();
    return m;
}

bool
SignatureModel::operator==(const SignatureModel &other) const
{
    if (modelKey_ != other.modelKey_ ||
        sigs_.size() != other.sigs_.size())
        return false;
    for (std::size_t i = 0; i < sigs_.size(); ++i)
        if (sigs_[i].label != other.sigs_[i].label ||
            sigs_[i].centroid != other.sigs_[i].centroid)
            return false;
    return true;
}

} // namespace gpusc::attack
