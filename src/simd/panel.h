/**
 * @file
 * Packed column-major centroid panel for the vector kernels.
 *
 * The batched distance kernels vectorise *across rows* (one SIMD lane
 * per centroid / training point), never across dimensions: each
 * lane's partial sum then accumulates in exactly the scalar dimension
 * order, which is what keeps every instantiation bit-identical to the
 * scalar reference. That lane layout wants the data transposed:
 * column d of the panel holds dimension d of every row,
 * contiguously, so a kernel loads kLanes rows' worth of one
 * dimension with a single aligned vector load.
 *
 * Rows are padded up to a multiple of kPanelLanes with +infinity so
 * a padded lane's running distance is +inf from the first dimension
 * on: it can never win an argmin and it always satisfies a
 * bound-exceeded early-exit check.
 */

#ifndef GPUSC_SIMD_PANEL_H
#define GPUSC_SIMD_PANEL_H

#include <cstddef>
#include <limits>
#include <vector>

namespace gpusc::simd {

/** Lane padding granularity (doubles): covers the 4-lane AVX2 and
 *  2-lane baseline kernels. */
inline constexpr std::size_t kPanelLanes = 4;

/** K rows x dims, stored column-major with lane-padded columns. */
class Panel
{
  public:
    Panel() = default;

    /** Repack from @p k row pointers of @p dims doubles each. */
    void
    pack(const double *const *rowPtrs, std::size_t k, std::size_t dims)
    {
        rows_ = k;
        dims_ = dims;
        stride_ = padded(k);
        data_.assign(stride_ * dims_,
                     std::numeric_limits<double>::infinity());
        for (std::size_t d = 0; d < dims_; ++d)
            for (std::size_t r = 0; r < rows_; ++r)
                data_[d * stride_ + r] = rowPtrs[r][d];
    }

    /** Repack from a contiguous row-major block (stride @p rowStride
     *  doubles between consecutive rows; rowStride >= dims). */
    void
    packContiguous(const double *rows, std::size_t k, std::size_t dims,
                   std::size_t rowStride)
    {
        rows_ = k;
        dims_ = dims;
        stride_ = padded(k);
        data_.assign(stride_ * dims_,
                     std::numeric_limits<double>::infinity());
        for (std::size_t d = 0; d < dims_; ++d)
            for (std::size_t r = 0; r < rows_; ++r)
                data_[d * stride_ + r] = rows[r * rowStride + d];
    }

    /** Overwrite one packed row in place (online template updates
     *  touch a single centroid; no full repack needed). */
    void
    setRow(std::size_t r, const double *values)
    {
        for (std::size_t d = 0; d < dims_; ++d)
            data_[d * stride_ + r] = values[d];
    }

    void
    clear()
    {
        rows_ = dims_ = stride_ = 0;
        data_.clear();
    }

    std::size_t rows() const { return rows_; }
    std::size_t dims() const { return dims_; }
    /** Padded lane count per column (multiple of kPanelLanes). */
    std::size_t stride() const { return stride_; }
    bool empty() const { return rows_ == 0; }

    /** Column d: dimension d of every row, stride() doubles long. */
    const double *
    col(std::size_t d) const
    {
        return data_.data() + d * stride_;
    }

    /** Row r unpacked into @p out (diagnostics / tests). */
    void
    unpackRow(std::size_t r, double *out) const
    {
        for (std::size_t d = 0; d < dims_; ++d)
            out[d] = data_[d * stride_ + r];
    }

  private:
    static std::size_t
    padded(std::size_t k)
    {
        return (k + kPanelLanes - 1) / kPanelLanes * kPanelLanes;
    }

    std::size_t rows_ = 0;
    std::size_t dims_ = 0;
    std::size_t stride_ = 0;
    std::vector<double> data_;
};

} // namespace gpusc::simd

#endif // GPUSC_SIMD_PANEL_H
