#include "util/binary_io.h"

#include <array>

namespace gpusc {

namespace {

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

/**
 * Slicing-by-8 tables for the reflected IEEE polynomial. Row 0 is the
 * classic bytewise table; row k maps a byte to the CRC of that byte
 * followed by k zero bytes, so eight lookups XORed together advance
 * the CRC by eight input bytes at once.
 */
constexpr CrcTables
makeCrcTables()
{
    CrcTables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < t.size(); ++k)
        for (std::size_t i = 0; i < 256; ++i)
            t[k][i] = t[0][t[k - 1][i] & 0xffu] ^ (t[k - 1][i] >> 8);
    return t;
}

// Built at compile time: no static-init order question, no guard.
constexpr CrcTables kCrc = makeCrcTables();

/** Little-endian u32 from bytes, whatever the host's byte order. */
inline std::uint32_t
le32(const std::uint8_t *p)
{
    return std::uint32_t(p[0]) | std::uint32_t(p[1]) << 8 |
           std::uint32_t(p[2]) << 16 | std::uint32_t(p[3]) << 24;
}

} // namespace

std::uint32_t
crc32(const std::uint8_t *data, std::size_t size, std::uint32_t seed)
{
    std::uint32_t c = seed ^ 0xffffffffu;
    for (; size >= 8; data += 8, size -= 8) {
        const std::uint32_t lo = c ^ le32(data);
        const std::uint32_t hi = le32(data + 4);
        c = kCrc[7][lo & 0xffu] ^ kCrc[6][(lo >> 8) & 0xffu] ^
            kCrc[5][(lo >> 16) & 0xffu] ^ kCrc[4][lo >> 24] ^
            kCrc[3][hi & 0xffu] ^ kCrc[2][(hi >> 8) & 0xffu] ^
            kCrc[1][(hi >> 16) & 0xffu] ^ kCrc[0][hi >> 24];
    }
    for (; size > 0; ++data, --size)
        c = kCrc[0][(c ^ *data) & 0xffu] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

std::uint32_t
crc32(const std::vector<std::uint8_t> &data, std::uint32_t seed)
{
    return crc32(data.data(), data.size(), seed);
}

} // namespace gpusc
