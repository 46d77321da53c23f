/** @file Unit tests for the counter definitions and vector helpers. */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "gpu/counters.h"
#include "kgsl/device.h"

namespace gpusc::gpu {
namespace {

TEST(CountersTest, Table1Mapping)
{
    // The exact (group, countable) pairs of the paper's Table 1.
    EXPECT_EQ(counterId(LRZ_VISIBLE_PRIM_AFTER_LRZ).group, 0x19u);
    EXPECT_EQ(counterId(LRZ_VISIBLE_PRIM_AFTER_LRZ).countable, 13u);
    EXPECT_EQ(counterId(LRZ_FULL_8X8_TILES).countable, 14u);
    EXPECT_EQ(counterId(LRZ_PARTIAL_8X8_TILES).countable, 15u);
    EXPECT_EQ(counterId(LRZ_VISIBLE_PIXEL_AFTER_LRZ).countable, 18u);
    EXPECT_EQ(counterId(RAS_SUPERTILE_ACTIVE_CYCLES).group, 0x7u);
    EXPECT_EQ(counterId(RAS_SUPERTILE_ACTIVE_CYCLES).countable, 1u);
    EXPECT_EQ(counterId(RAS_SUPER_TILES).countable, 4u);
    EXPECT_EQ(counterId(RAS_8X4_TILES).countable, 5u);
    EXPECT_EQ(counterId(RAS_FULLY_COVERED_8X4_TILES).countable, 8u);
    EXPECT_EQ(counterId(VPC_PC_PRIMITIVES).group, 0x5u);
    EXPECT_EQ(counterId(VPC_PC_PRIMITIVES).countable, 9u);
    EXPECT_EQ(counterId(VPC_SP_COMPONENTS).countable, 10u);
    EXPECT_EQ(counterId(VPC_LRZ_ASSIGN_PRIMITIVES).countable, 12u);
}

TEST(CountersTest, VendorStringIdentifiers)
{
    EXPECT_EQ(counterName(LRZ_VISIBLE_PRIM_AFTER_LRZ),
              "PERF_LRZ_VISIBLE_PRIM_AFTER_LRZ");
    EXPECT_EQ(counterName(RAS_FULLY_COVERED_8X4_TILES),
              "PERF_RAS_FULLY_COVERED_8X4_TILES");
    EXPECT_EQ(counterName(VPC_SP_COMPONENTS),
              "PERF_VPC_SP_COMPONENTS");
}

TEST(CountersTest, ReverseLookupRoundTrips)
{
    for (std::size_t i = 0; i < kNumSelectedCounters; ++i) {
        const auto sel = SelectedCounter(i);
        const auto back = selectedFromId(counterId(sel));
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(*back, sel);
    }
}

TEST(CountersTest, ReverseLookupRejectsUnknown)
{
    EXPECT_FALSE(selectedFromId({0x19, 99}).has_value());
    EXPECT_FALSE(selectedFromId({0x42, 13}).has_value());
}

/** The reverse lookup as it was before the countable table: a linear
 *  scan over counterId(). */
std::optional<SelectedCounter>
linearSelectedFromId(CounterId id)
{
    for (std::size_t i = 0; i < kNumSelectedCounters; ++i)
        if (counterId(SelectedCounter(i)) == id)
            return SelectedCounter(i);
    return std::nullopt;
}

TEST(CountersTest, ReverseLookupMatchesLinearScanOverSweep)
{
    // Every group id 0..0x1f x countable 0..63, plus ids far outside.
    for (std::uint32_t g = 0; g < 0x20; ++g)
        for (std::uint32_t c = 0; c < 64; ++c)
            EXPECT_EQ(selectedFromId({g, c}), linearSelectedFromId({g, c}))
                << "group " << g << " countable " << c;
    for (const CounterId id : {CounterId{0x19, 13 + 26},
                               CounterId{0x19 + 0x20, 13},
                               CounterId{0xffffffffu, 13},
                               CounterId{0x19, 0xffffffffu}})
        EXPECT_FALSE(selectedFromId(id).has_value());
}

TEST(CountersTest, CountableTableCoversImplementedRanges)
{
    // Per-group implemented ranges (kgsl::hardwareImplementsCounter
    // answers from the same table): CP/SP < 32, VPC < 24, RAS < 12,
    // LRZ < 26; the dense index enumerates them without gaps.
    const std::pair<std::uint32_t, std::uint32_t> ranges[] = {
        {0x0, 32}, {0x5, 24}, {0x7, 12}, {0xa, 32}, {0x19, 26}};
    std::vector<bool> seen(kNumImplementedCountables, false);
    for (std::uint32_t g = 0; g < 0x20; ++g) {
        std::uint32_t limit = 0;
        for (const auto &[group, n] : ranges)
            if (group == g)
                limit = n;
        for (std::uint32_t c = 0; c < 64; ++c) {
            const Countable r = resolveCountable({g, c});
            ASSERT_EQ(r.implemented(), c < limit)
                << "group " << g << " countable " << c;
            EXPECT_EQ(kgsl::hardwareImplementsCounter(g, c), c < limit)
                << "group " << g << " countable " << c;
            if (!r.implemented()) {
                EXPECT_FALSE(r.modelled());
                continue;
            }
            ASSERT_LT(r.index, kNumImplementedCountables);
            EXPECT_FALSE(seen[r.index]) << "index " << int(r.index);
            seen[r.index] = true;
            EXPECT_EQ(countableAt(r.index), (CounterId{g, c}));
            EXPECT_EQ(r.modelled(), linearSelectedFromId({g, c}).has_value());
            if (r.modelled()) {
                EXPECT_EQ(r.selected, *linearSelectedFromId({g, c}));
            }
        }
    }
    for (std::size_t i = 0; i < kNumImplementedCountables; ++i)
        EXPECT_TRUE(seen[i]) << "index " << i;
}

TEST(CountersTest, GroupLabels)
{
    EXPECT_EQ(groupLabel(CounterGroup::LRZ), "LRZ");
    EXPECT_EQ(groupLabel(CounterGroup::RAS), "RAS");
    EXPECT_EQ(groupLabel(CounterGroup::VPC), "VPC");
    EXPECT_EQ(groupLabel(CounterGroup::CP), "CP");
    EXPECT_EQ(groupLabel(CounterGroup::SP), "SP");
}

TEST(CountersTest, VectorArithmetic)
{
    CounterVec a{}, b{};
    a[0] = 5;
    a[3] = -2;
    b[0] = 1;
    b[3] = 7;
    const CounterVec sum = a + b;
    EXPECT_EQ(sum[0], 6);
    EXPECT_EQ(sum[3], 5);
    const CounterVec diff = a - b;
    EXPECT_EQ(diff[0], 4);
    EXPECT_EQ(diff[3], -9);
}

TEST(CountersTest, Norms)
{
    CounterVec v{};
    v[0] = 3;
    v[1] = -4;
    EXPECT_EQ(l1Norm(v), 7);
    CounterVec z{};
    EXPECT_TRUE(isZero(z));
    EXPECT_FALSE(isZero(v));
    EXPECT_DOUBLE_EQ(l2Distance(v, z), 5.0);
}

} // namespace
} // namespace gpusc::gpu
