/** @file CRC-32 tests: check value, bitwise reference, chaining. */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "util/binary_io.h"
#include "util/rng.h"

namespace gpusc {
namespace {

/** The textbook reflected CRC-32, one bit at a time: shares no table
 *  with the implementation under test. */
std::uint32_t
referenceCrc32(const std::uint8_t *data, std::size_t size,
               std::uint32_t seed)
{
    std::uint32_t c = seed ^ 0xffffffffu;
    for (std::size_t i = 0; i < size; ++i) {
        c ^= data[i];
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    return c ^ 0xffffffffu;
}

std::vector<std::uint8_t>
randomBytes(Rng &rng, std::size_t n)
{
    std::vector<std::uint8_t> v(n);
    for (std::uint8_t &b : v)
        b = std::uint8_t(rng.next());
    return v;
}

TEST(Crc32Test, IeeeCheckValue)
{
    const char *check = "123456789";
    EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t *>(check),
                    std::strlen(check)),
              0xcbf43926u);
    EXPECT_EQ(crc32(nullptr, 0), 0u);
    EXPECT_EQ(crc32(std::vector<std::uint8_t>{}, 0x12345678u),
              0x12345678u);
}

/** Every length through several 8-byte steps plus every tail, at
 *  every alignment of the start within 16 bytes. */
TEST(Crc32Test, MatchesBitwiseReferenceAtEveryLengthAndOffset)
{
    for (std::uint64_t dataSeed : {1ull, 0x5eedull}) {
        Rng rng(dataSeed);
        const std::vector<std::uint8_t> buf = randomBytes(rng, 616);
        const std::uint32_t seed = std::uint32_t(rng.next());
        int mismatches = 0;
        for (std::size_t off = 0; off < 16; ++off) {
            for (std::size_t len = 0; len <= 600; ++len) {
                const std::uint8_t *p = buf.data() + off;
                for (std::uint32_t s : {0u, seed})
                    mismatches +=
                        crc32(p, len, s) != referenceCrc32(p, len, s);
            }
        }
        EXPECT_EQ(mismatches, 0) << "data seed " << dataSeed;
    }
}

/** Record CRCs are computed as crc32(payload, crc32(frame)): the
 *  seed must continue the running CRC exactly. */
TEST(Crc32Test, ChainingEqualsConcatenation)
{
    Rng rng(7);
    const std::vector<std::uint8_t> buf = randomBytes(rng, 301);
    const std::uint32_t whole = crc32(buf);
    for (std::size_t split = 0; split <= buf.size(); ++split) {
        const std::uint32_t head = crc32(buf.data(), split);
        EXPECT_EQ(crc32(buf.data() + split, buf.size() - split, head),
                  whole)
            << "split at " << split;
    }
}

} // namespace
} // namespace gpusc
