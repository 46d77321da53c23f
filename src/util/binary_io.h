/**
 * @file
 * Shared little-endian binary serialisation helpers + CRC-32.
 *
 * Every on-disk artefact of this project (signature-model stores,
 * recorded performance-counter traces) goes through these two
 * classes so framing, bounds checking and corruption detection are
 * implemented exactly once. ByteReader never reads out of bounds:
 * a short or malformed buffer flips a sticky failure flag and all
 * further reads return zero values, letting parsers finish cleanly
 * and report a typed error instead of crashing.
 */

#ifndef GPUSC_UTIL_BINARY_IO_H
#define GPUSC_UTIL_BINARY_IO_H

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace gpusc {

/** CRC-32 (IEEE 802.3, reflected) of @p data; chainable via @p seed. */
std::uint32_t crc32(const std::uint8_t *data, std::size_t size,
                    std::uint32_t seed = 0);
std::uint32_t crc32(const std::vector<std::uint8_t> &data,
                    std::uint32_t seed = 0);

/** Appends fixed-width little-endian values to a byte vector. */
class ByteWriter
{
  public:
    ByteWriter() = default;
    explicit ByteWriter(std::vector<std::uint8_t> &&initial)
        : buf_(std::move(initial))
    {
    }

    void u8(std::uint8_t v) { raw(&v, 1); }
    void u16(std::uint16_t v) { pod(v); }
    void u32(std::uint32_t v) { pod(v); }
    void u64(std::uint64_t v) { pod(v); }
    void i32(std::int32_t v) { pod(v); }
    void i64(std::int64_t v) { pod(v); }
    void f32(float v) { pod(v); }
    void f64(double v) { pod(v); }

    /** u16 length prefix + raw bytes (strings <= 64 kB). */
    void str16(const std::string &s)
    {
        u16(std::uint16_t(s.size()));
        raw(reinterpret_cast<const std::uint8_t *>(s.data()),
            s.size());
    }

    /** Resize + memcpy rather than vector::insert: GCC 12's
     *  -Wstringop-overflow misfires on the inlined insert at -O3. */
    void raw(const std::uint8_t *p, std::size_t n)
    {
        if (n == 0)
            return;
        const std::size_t at = buf_.size();
        buf_.resize(at + n);
        std::memcpy(buf_.data() + at, p, n);
    }

    const std::vector<std::uint8_t> &bytes() const { return buf_; }
    std::vector<std::uint8_t> take() { return std::move(buf_); }
    std::size_t size() const { return buf_.size(); }

  private:
    template <typename T>
    void
    pod(T v)
    {
        std::uint8_t tmp[sizeof(T)];
        std::memcpy(tmp, &v, sizeof(T));
        raw(tmp, sizeof(T));
    }

    std::vector<std::uint8_t> buf_;
};

/** Bounds-checked reader over a byte span; never crashes on short
 *  input — check ok() (or use the failure flag) after parsing. */
class ByteReader
{
  public:
    ByteReader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }
    explicit ByteReader(const std::vector<std::uint8_t> &buf)
        : ByteReader(buf.data(), buf.size())
    {
    }

    std::uint8_t u8() { return pod<std::uint8_t>(); }
    std::uint16_t u16() { return pod<std::uint16_t>(); }
    std::uint32_t u32() { return pod<std::uint32_t>(); }
    std::uint64_t u64() { return pod<std::uint64_t>(); }
    std::int32_t i32() { return pod<std::int32_t>(); }
    std::int64_t i64() { return pod<std::int64_t>(); }
    float f32() { return pod<float>(); }
    double f64() { return pod<double>(); }

    /** Counterpart of ByteWriter::str16. */
    std::string
    str16()
    {
        const std::uint16_t n = u16();
        if (!require(n))
            return {};
        std::string s(reinterpret_cast<const char *>(data_ + pos_),
                      n);
        pos_ += n;
        return s;
    }

    /** Copy @p n raw bytes out (zero-filled past the end). */
    void
    raw(std::uint8_t *out, std::size_t n)
    {
        if (!require(n)) {
            std::memset(out, 0, n);
            return;
        }
        std::memcpy(out, data_ + pos_, n);
        pos_ += n;
    }

    /** Skip @p n bytes. */
    void
    skip(std::size_t n)
    {
        if (require(n))
            pos_ += n;
    }

    bool ok() const { return ok_; }
    std::size_t pos() const { return pos_; }
    std::size_t remaining() const { return size_ - pos_; }
    bool atEnd() const { return pos_ == size_; }

  private:
    bool
    require(std::size_t n)
    {
        if (!ok_ || n > size_ - pos_) {
            ok_ = false;
            return false;
        }
        return true;
    }

    template <typename T>
    T
    pod()
    {
        if (!require(sizeof(T)))
            return T{};
        T v;
        std::memcpy(&v, data_ + pos_, sizeof(T));
        pos_ += sizeof(T);
        return v;
    }

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

} // namespace gpusc

#endif // GPUSC_UTIL_BINARY_IO_H
