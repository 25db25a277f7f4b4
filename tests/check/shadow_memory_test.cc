/** Unit tests for the line-granular shadow memory. */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "check/shadow_memory.hh"

using namespace fp;
using check::ShadowByte;
using check::ShadowMemory;

TEST(ShadowMemoryTest, StartsEmpty)
{
    ShadowMemory shadow;
    EXPECT_TRUE(shadow.empty());
    EXPECT_EQ(shadow.population(), 0u);
    EXPECT_FALSE(shadow.contains(0x1000));
    EXPECT_FALSE(shadow.get(0x1000).present);
}

TEST(ShadowMemoryTest, WriteMakesBytesPresentWithValues)
{
    ShadowMemory shadow;
    std::uint8_t data[4] = {1, 2, 3, 4};
    shadow.write(0x1000, 4, data);

    EXPECT_EQ(shadow.population(), 4u);
    for (std::uint32_t i = 0; i < 4; ++i) {
        ShadowByte byte = shadow.get(0x1000 + i);
        EXPECT_TRUE(byte.present);
        EXPECT_TRUE(byte.has_value);
        EXPECT_EQ(byte.value, data[i]);
    }
    EXPECT_FALSE(shadow.contains(0x0fff));
    EXPECT_FALSE(shadow.contains(0x1004));
}

TEST(ShadowMemoryTest, LastWriterWins)
{
    ShadowMemory shadow;
    std::uint8_t first[2] = {0xaa, 0xbb};
    std::uint8_t second[1] = {0xcc};
    shadow.write(0x2000, 2, first);
    shadow.write(0x2001, 1, second);

    EXPECT_EQ(shadow.population(), 2u); // overwrite, not growth
    EXPECT_EQ(shadow.get(0x2000).value, 0xaa);
    EXPECT_EQ(shadow.get(0x2001).value, 0xcc);
}

TEST(ShadowMemoryTest, DataLessWriteInvalidatesValue)
{
    ShadowMemory shadow;
    std::uint8_t data[1] = {0x42};
    shadow.write(0x3000, 1, data);
    // A timing-only store is the new last writer with unknown content.
    shadow.write(0x3000, 1, nullptr);

    ShadowByte byte = shadow.get(0x3000);
    EXPECT_TRUE(byte.present);
    EXPECT_FALSE(byte.has_value);
}

TEST(ShadowMemoryTest, WritesSpanningLinesLandInBothBlocks)
{
    ShadowMemory shadow;
    shadow.write(128 - 2, 4, nullptr); // straddles the line boundary
    EXPECT_EQ(shadow.population(), 4u);
    EXPECT_TRUE(shadow.contains(126));
    EXPECT_TRUE(shadow.contains(127));
    EXPECT_TRUE(shadow.contains(128));
    EXPECT_TRUE(shadow.contains(129));
}

TEST(ShadowMemoryTest, EraseRemovesSingleBytes)
{
    ShadowMemory shadow;
    shadow.write(0x1000, 3, nullptr);
    EXPECT_TRUE(shadow.erase(0x1001));
    EXPECT_FALSE(shadow.erase(0x1001)); // already gone
    EXPECT_EQ(shadow.population(), 2u);
    EXPECT_TRUE(shadow.contains(0x1000));
    EXPECT_FALSE(shadow.contains(0x1001));
    EXPECT_TRUE(shadow.contains(0x1002));

    EXPECT_TRUE(shadow.erase(0x1000));
    EXPECT_TRUE(shadow.erase(0x1002));
    EXPECT_TRUE(shadow.empty());
}

TEST(ShadowMemoryTest, SampleResidentIsSortedAndBounded)
{
    ShadowMemory shadow;
    shadow.write(0x5000, 2, nullptr);
    shadow.write(0x1000, 2, nullptr);
    shadow.write(0x3000, 1, nullptr);

    auto all = shadow.sampleResident(10);
    ASSERT_EQ(all.size(), 5u);
    EXPECT_TRUE(std::is_sorted(all.begin(), all.end()));
    EXPECT_EQ(all.front(), 0x1000u);
    EXPECT_EQ(all.back(), 0x5001u);

    EXPECT_EQ(shadow.sampleResident(2).size(), 2u);
}

TEST(ShadowMemoryTest, ClearDropsEverything)
{
    ShadowMemory shadow;
    shadow.write(0x1000, 64, nullptr);
    shadow.clear();
    EXPECT_TRUE(shadow.empty());
    EXPECT_FALSE(shadow.contains(0x1000));
}

TEST(ShadowMemoryTest, LineMaskCoversBothEnableWords)
{
    EXPECT_EQ(check::lineMask(0, 1), (check::LineMask{1, 0}));
    EXPECT_EQ(check::lineMask(63, 2),
              (check::LineMask{std::uint64_t{1} << 63, 1}));
    EXPECT_EQ(check::lineMask(64, 64), (check::LineMask{0, ~0ull}));
    EXPECT_EQ(check::lineMask(0, 128), (check::LineMask{~0ull, ~0ull}));
    EXPECT_EQ(check::popcount(check::lineMask(60, 10)), 10u);
}

TEST(ShadowMemoryTest, LineRecordsHoldPresenceAndValueWords)
{
    ShadowMemory shadow;
    std::uint8_t data[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    shadow.write(0x1000 + 60, 8, data); // bytes 60-67: both words
    shadow.write(0x1000 + 66, 2, nullptr);

    const ShadowMemory::Line *line = shadow.find(0x1000);
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->present, check::lineMask(60, 8));
    EXPECT_EQ(line->has_value, check::lineMask(60, 6));
    EXPECT_EQ(line->value[64], 5);
    EXPECT_EQ(shadow.find(0x1080), nullptr);
    EXPECT_EQ(shadow.find(0x1000 + 60), nullptr); // tags are aligned

    // Erase the low word's bytes, then the rest: the line goes away.
    shadow.erase(*line, check::lineMask(60, 4));
    EXPECT_EQ(shadow.population(), 4u);
    EXPECT_FALSE(shadow.contains(0x1000 + 63));
    EXPECT_EQ(shadow.get(0x1000 + 65).value, 6);
    shadow.erase(*shadow.find(0x1000), check::lineMask(64, 4));
    EXPECT_TRUE(shadow.empty());
    EXPECT_EQ(shadow.find(0x1000), nullptr);
}

TEST(ShadowMemoryTest, WriteLineTakesValuesOnlyWhereValued)
{
    ShadowMemory shadow;
    std::uint8_t line_data[128] = {};
    for (std::uint32_t i = 0; i < 128; ++i)
        line_data[i] = static_cast<std::uint8_t>(i + 1);
    shadow.writeLine(0x2000, check::lineMask(0, 128),
                     check::lineMask(64, 64), line_data);
    EXPECT_EQ(shadow.population(), 128u);
    EXPECT_FALSE(shadow.get(0x2000 + 10).has_value);
    EXPECT_EQ(shadow.get(0x2000 + 10).value, 0);
    EXPECT_TRUE(shadow.get(0x2000 + 100).has_value);
    EXPECT_EQ(shadow.get(0x2000 + 100).value, 101);

    // An empty mask makes no line.
    shadow.writeLine(0x4000, {}, {}, nullptr);
    EXPECT_EQ(shadow.find(0x4000), nullptr);
}

TEST(ShadowMemoryTest, EmptiedSlotsAreReusedAcrossClear)
{
    ShadowMemory shadow;
    for (Addr line = 0; line < 64; ++line)
        shadow.write(line * 128 + 5, 3, nullptr);
    for (Addr line = 0; line < 64; line += 2)
        EXPECT_TRUE(shadow.erase(line * 128 + 6));
    EXPECT_EQ(shadow.population(), 64u * 3 - 32);
    auto sample = shadow.sampleResident(4);
    EXPECT_EQ(sample, (std::vector<Addr>{5, 7, 128 + 5, 128 + 6}));
    shadow.clear();
    EXPECT_TRUE(shadow.empty());
    EXPECT_TRUE(shadow.sampleResident(4).empty());
}
