/** Unit tests for the FinePack configuration (Tables II and III). */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "finepack/config.hh"

using namespace fp;
using namespace fp::finepack;

TEST(FinePackConfigTest, DefaultMatchesTableIII)
{
    FinePackConfig config = defaultConfig();
    EXPECT_EQ(config.subheader_bytes, 5u);
    EXPECT_EQ(config.offsetBits(), 30u);
    EXPECT_EQ(config.max_payload, 4096u);
    EXPECT_EQ(config.queue_entries, 64u);
    EXPECT_EQ(config.entry_bytes, 128u);
    EXPECT_EQ(config.length_bits, 10u);
}

TEST(FinePackConfigTest, TableIIAddressableRanges)
{
    // Table II: sub-header bytes -> addressable range.
    struct Row { std::uint32_t bytes; std::uint32_t addr_bits;
                 std::uint64_t range; };
    const Row rows[] = {
        {2, 6, 64},
        {3, 14, 16 * KiB},
        {4, 22, 4 * MiB},
        {5, 30, 1 * GiB},
        {6, 38, 256 * GiB},
    };
    for (const Row &row : rows) {
        FinePackConfig config = configWithSubheader(row.bytes);
        EXPECT_EQ(config.offsetBits(), row.addr_bits)
            << row.bytes << " byte sub-header";
        EXPECT_EQ(config.addressableRange(), row.range)
            << row.bytes << " byte sub-header";
    }
}

TEST(FinePackConfigTest, ValidationRejectsBadGeometry)
{
    FinePackConfig config = defaultConfig();
    config.subheader_bytes = 1;
    EXPECT_THROW(config.validate(), common::SimError);

    config = defaultConfig();
    config.length_bits = 40; // exceeds the sub-header
    EXPECT_THROW(config.validate(), common::SimError);

    config = defaultConfig();
    config.length_bits = 6; // cannot express a 128 B entry
    EXPECT_THROW(config.validate(), common::SimError);

    config = defaultConfig();
    config.max_payload = 4095; // not a DW multiple
    EXPECT_THROW(config.validate(), common::SimError);
}

TEST(FinePackConfigTest, TableIIIStorageFootprint)
{
    // 4-GPU system: 3 partitions x 64 entries x 128 B = 24 KiB data per
    // GPU... the paper quotes 48 KB for the system-level total of data
    // storage at 192 entries of 144 B (with byte enables); check the
    // entry count arithmetic.
    FinePackConfig config = defaultConfig();
    std::uint32_t partitions = 3; // 4 GPUs, one partition per peer
    EXPECT_EQ(partitions * config.queue_entries, 192u);
    // 144 B per entry = 128 data + 16 byte-enable bytes.
    EXPECT_EQ(config.entry_bytes + config.entry_bytes / 8, 144u);
}
