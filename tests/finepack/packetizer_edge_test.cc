/**
 * Packetizer edge cases the protocol oracle is designed to guard:
 * non-contiguous byte-enable runs splitting into sub-packets, stores at
 * the maximum encodable address offset, and empty / fully-overwritten
 * partitions.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "finepack/packetizer.hh"
#include "finepack/remote_write_queue.hh"
#include "../support/payload_bytes.hh"

using namespace fp;
using namespace fp::finepack;
using fp::icn::Store;

namespace {

Store
makeStore(Addr addr, std::uint32_t size,
          std::vector<std::uint8_t> data = {})
{
    Store store(addr, size, 0, 1);
    store.data = fp::testing::payload(std::move(data));
    return store;
}

/** Buffer @p store in @p partition; it must not flush anything. */
void
buffer(RwqPartition &partition, const Store &store)
{
    std::vector<FlushedPartition> sink;
    partition.push(store, sink);
    EXPECT_TRUE(sink.empty());
}

/** Release @p partition's only window, which must hold something. */
FlushedPartition
release(RwqPartition &partition)
{
    std::vector<FlushedPartition> sink;
    partition.flush(FlushReason::release, sink);
    EXPECT_EQ(sink.size(), 1u);
    return sink.empty() ? FlushedPartition{} : std::move(sink.front());
}

} // namespace

TEST(PacketizerEdgeTest, NonContiguousRunsSplitIntoSubPackets)
{
    // Five disjoint byte-enable runs inside one 128 B line: sub-headers
    // carry no byte enables, so each run must become its own sub-packet
    // with its own data slice.
    FinePackConfig config = defaultConfig();
    RwqPartition partition(1, config);
    std::vector<std::pair<Addr, std::uint32_t>> runs = {
        {0x1000, 2}, {0x1008, 1}, {0x1010, 4}, {0x1020, 8}, {0x107f, 1},
    };
    for (auto [addr, size] : runs) {
        std::vector<std::uint8_t> data(size);
        for (std::uint32_t i = 0; i < size; ++i)
            data[i] = static_cast<std::uint8_t>(addr + i);
        buffer(partition, makeStore(addr, size, std::move(data)));
    }
    FlushedPartition flushed = release(partition);
    ASSERT_EQ(flushed.entries.size(), 1u);

    Packetizer packetizer(0, config);
    FinePackTransaction txn = packetizer.packetize(flushed);
    ASSERT_EQ(txn.size(), runs.size());
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const SubPacket &sub = txn.subPackets()[i];
        EXPECT_EQ(txn.baseAddr() + sub.offset, runs[i].first);
        EXPECT_EQ(sub.length, runs[i].second);
        ASSERT_EQ(sub.data.size(), runs[i].second);
        for (std::uint32_t b = 0; b < sub.length; ++b)
            EXPECT_EQ(sub.data[b],
                      static_cast<std::uint8_t>(runs[i].first + b));
    }
}

TEST(PacketizerEdgeTest, AdjacentStoresMergeIntoOneRun)
{
    // The converse: runs that touch must NOT split.
    FinePackConfig config = defaultConfig();
    RwqPartition partition(1, config);
    buffer(partition, makeStore(0x1000, 4));
    buffer(partition, makeStore(0x1004, 4));
    FlushedPartition flushed = release(partition);

    Packetizer packetizer(0, config);
    FinePackTransaction txn = packetizer.packetize(flushed);
    ASSERT_EQ(txn.size(), 1u);
    EXPECT_EQ(txn.subPackets()[0].length, 8u);
}

TEST(PacketizerEdgeTest, StoreAtMaximumEncodableOffset)
{
    // The last line of the window: offsets up to 2^offsetBits - 1 must
    // round-trip through the sub-header encoding.
    FinePackConfig config = defaultConfig();
    const std::uint64_t range = config.addressableRange();
    const Addr base = 7 * range; // window-grid aligned, non-zero

    RwqPartition partition(1, config);
    buffer(partition, makeStore(base, 4)); // opens the window at its base
    buffer(partition, makeStore(base + range - 8, 8)); // last 8 bytes
    FlushedPartition flushed = release(partition);
    EXPECT_EQ(flushed.window_base, base);

    Packetizer packetizer(0, config);
    FinePackTransaction txn = packetizer.packetize(flushed);
    ASSERT_EQ(txn.size(), 2u);
    const SubPacket &last = txn.subPackets()[1];
    EXPECT_EQ(last.offset, range - 8);
    EXPECT_EQ(last.offset + last.length, range); // exactly at the edge

    auto stores = txn.unpack();
    EXPECT_EQ(stores[1].addr, base + range - 8);
    EXPECT_EQ(stores[1].end(), base + range);
}

TEST(PacketizerEdgeTest, OneByteAtVeryLastOffset)
{
    FinePackConfig config = defaultConfig();
    const std::uint64_t range = config.addressableRange();
    RwqPartition partition(1, config);
    buffer(partition, makeStore(range - 1, 1)); // offset 2^N - 1
    FlushedPartition flushed = release(partition);

    Packetizer packetizer(0, config);
    FinePackTransaction txn = packetizer.packetize(flushed);
    ASSERT_EQ(txn.size(), 1u);
    EXPECT_EQ(txn.subPackets()[0].offset, range - 1);
    EXPECT_EQ(txn.subPackets()[0].length, 1u);
}

TEST(PacketizerEdgeTest, EmptyPartitionFlushIsEmptyAndUnpacketizable)
{
    FinePackConfig config = defaultConfig();
    RwqPartition partition(1, config);
    std::vector<FlushedPartition> sink;
    partition.flush(FlushReason::release, sink);
    EXPECT_TRUE(sink.empty());
    FlushedPartition flushed;
    flushed.dst = 1;

    // Empty flushes never reach the packetizer; feeding one anyway is
    // a caller bug and panics.
    Packetizer packetizer(0, config);
    EXPECT_THROW(packetizer.packetize(flushed), common::SimError);
    EXPECT_EQ(packetizer.packetsEmitted(), 0u);
}

TEST(PacketizerEdgeTest, FullyOverwrittenEntryKeepsLastData)
{
    // Write a full line, then overwrite every byte: entry count stays
    // 1, the packed transaction carries exactly one line-sized
    // sub-packet holding only the second write's bytes.
    FinePackConfig config = defaultConfig();
    RwqPartition partition(1, config);

    std::vector<std::uint8_t> first(config.entry_bytes, 0x11);
    std::vector<std::uint8_t> second(config.entry_bytes, 0x22);
    buffer(partition, makeStore(0x2000, config.entry_bytes, first));
    EXPECT_EQ(partition.entryCount(), 1u);
    buffer(partition, makeStore(0x2000, config.entry_bytes, second));
    EXPECT_EQ(partition.entryCount(), 1u);
    EXPECT_EQ(partition.bytesElided(), config.entry_bytes);

    FlushedPartition flushed = release(partition);
    Packetizer packetizer(0, config);
    FinePackTransaction txn = packetizer.packetize(flushed);
    ASSERT_EQ(txn.size(), 1u);
    EXPECT_EQ(txn.subPackets()[0].length, config.entry_bytes);
    for (std::uint8_t byte : txn.subPackets()[0].data)
        EXPECT_EQ(byte, 0x22);
    // Two program stores folded into one wire transaction.
    EXPECT_EQ(flushed.packed_store_count, 2u);
}

TEST(PacketizerEdgeTest, SparseOverwriteReplacesOnlyWrittenBytes)
{
    FinePackConfig config = defaultConfig();
    RwqPartition partition(1, config);
    buffer(partition, makeStore(0x3000, 8,
                             {1, 2, 3, 4, 5, 6, 7, 8}));
    buffer(partition, makeStore(0x3002, 2, {0xaa, 0xbb}));

    FlushedPartition flushed = release(partition);
    Packetizer packetizer(0, config);
    FinePackTransaction txn = packetizer.packetize(flushed);
    ASSERT_EQ(txn.size(), 1u);
    EXPECT_EQ(txn.subPackets()[0].data,
              (std::vector<std::uint8_t>{1, 2, 0xaa, 0xbb, 5, 6, 7, 8}));
}
