/** Unit tests for the packetizer, de-packetizer, and transaction format. */

#include <gtest/gtest.h>

#include "common/bitutil.hh"
#include "common/logging.hh"
#include "common/random.hh"
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

TEST(TransactionTest, AppendTracksPayloadAndData)
{
    FinePackConfig config = defaultConfig();
    FinePackTransaction txn(0, 1, 0x1000, config);
    EXPECT_TRUE(txn.empty());
    txn.append(0x1000, 8);
    txn.append(0x1100, 16);
    EXPECT_EQ(txn.size(), 2u);
    EXPECT_EQ(txn.dataBytes(), 24u);
    EXPECT_EQ(txn.rawPayloadBytes(), 24u + 2 * config.subheader_bytes);
    // Wire payload pads to a DW boundary.
    EXPECT_EQ(txn.wirePayloadBytes(),
              (txn.rawPayloadBytes() + 3) / 4 * 4);
}

TEST(TransactionTest, OffsetsRelativeToBase)
{
    FinePackTransaction txn(0, 1, 0x1000, defaultConfig());
    txn.append(0x1040, 8);
    EXPECT_EQ(txn.subPackets()[0].offset, 0x40u);
    EXPECT_EQ(txn.subPackets()[0].length, 8u);
}

TEST(TransactionTest, RejectsOutOfRangeSubPackets)
{
    FinePackConfig config = configWithSubheader(2); // 64 B range
    FinePackTransaction txn(0, 1, 0x1000, config);
    txn.append(0x1000, 8);
    EXPECT_THROW(txn.append(0x1000 + 64, 8), common::SimError);
    EXPECT_THROW(txn.append(0x1000 + 60, 8), common::SimError);
    EXPECT_THROW(txn.append(0x0fff, 1), common::SimError); // below base
}

TEST(TransactionTest, RejectsOversizedLength)
{
    FinePackConfig config = defaultConfig(); // 10-bit length field
    FinePackTransaction txn(0, 1, 0, config);
    EXPECT_THROW(txn.append(0, 1024), common::SimError);
    EXPECT_NO_THROW(txn.append(0, 1023));
}

TEST(TransactionTest, UnpackReconstructsStores)
{
    FinePackTransaction txn(0, 1, 0x1000, defaultConfig());
    txn.append(0x1008, 4, {1, 2, 3, 4});
    txn.append(0x1100, 2, {5, 6});
    auto stores = txn.unpack();
    ASSERT_EQ(stores.size(), 2u);
    EXPECT_EQ(stores[0].addr, 0x1008u);
    EXPECT_EQ(stores[0].size, 4u);
    EXPECT_EQ(fp::testing::bytesOf(stores[0]),
              (std::vector<std::uint8_t>{1, 2, 3, 4}));
    EXPECT_EQ(stores[1].addr, 0x1100u);
    EXPECT_EQ(stores[1].src, 0u);
    EXPECT_EQ(stores[1].dst, 1u);
}

TEST(PacketizerTest, OneSubPacketPerContiguousRun)
{
    FinePackConfig config = defaultConfig();
    RwqPartition partition(1, config);
    // Two disjoint byte ranges in one line plus one other line.
    buffer(partition, makeStore(0x1000, 4));
    buffer(partition, makeStore(0x1010, 8));
    buffer(partition, makeStore(0x2000, 16));
    FlushedPartition flushed = release(partition);

    Packetizer packetizer(0, config);
    FinePackTransaction txn = packetizer.packetize(flushed);
    // Sub-headers carry no byte enables, so each run is a sub-packet.
    EXPECT_EQ(txn.size(), 3u);
    EXPECT_EQ(txn.dataBytes(), 28u);
    EXPECT_EQ(packetizer.subPacketsEmitted(), 3u);
    EXPECT_EQ(packetizer.storesPacked(), 3u);
}

TEST(PacketizerTest, PayloadAccountingMatchesQueueBudget)
{
    // Whatever the queue accepted must fit one outer transaction.
    FinePackConfig config = defaultConfig();
    RwqPartition partition(1, config);
    Packetizer packetizer(0, config);
    icn::PcieProtocol protocol(icn::PcieGen::gen4);

    common::Rng rng(1234);
    for (int i = 0; i < 5000; ++i) {
        Addr addr = rng.below(1 << 20);
        auto size = static_cast<std::uint32_t>(rng.range(1, 32));
        Addr line = addr & ~Addr{127};
        if (addr + size > line + 128)
            size = static_cast<std::uint32_t>(line + 128 - addr);
        std::vector<FlushedPartition> flushed;
        partition.push(makeStore(addr, size), flushed);
        for (const FlushedPartition &full : flushed) {
            auto msg = packetizer.toMessage(full, protocol);
            EXPECT_LE(msg->payload_bytes, config.max_payload);
        }
    }
    std::vector<FlushedPartition> rest;
    partition.flush(FlushReason::release, rest);
    for (const FlushedPartition &last : rest) {
        auto msg = packetizer.toMessage(last, protocol);
        EXPECT_LE(msg->payload_bytes, config.max_payload);
    }
}

TEST(PacketizerTest, MessageCarriesByteSplit)
{
    FinePackConfig config = defaultConfig();
    RwqPartition partition(1, config);
    buffer(partition, makeStore(0x1000, 8));
    buffer(partition, makeStore(0x3000, 8));
    FlushedPartition flushed = release(partition);

    Packetizer packetizer(0, config);
    icn::PcieProtocol protocol(icn::PcieGen::gen4);
    auto msg = packetizer.toMessage(flushed, protocol);

    EXPECT_EQ(msg->kind, icn::MessageKind::finepack_packet);
    EXPECT_EQ(msg->data_bytes, 16u);
    EXPECT_EQ(msg->header_bytes, protocol.tlpOverhead());
    EXPECT_EQ(msg->payload_bytes,
              common::alignUp(16 + 2 * config.subheader_bytes, 4));
    EXPECT_EQ(msg->packed_store_count, 2u);
    EXPECT_EQ(msg->delivered_stores, 2u);
}

TEST(PacketizerTest, AvgStoresPerPacketTracksFolding)
{
    FinePackConfig config = defaultConfig();
    RwqPartition partition(1, config);
    Packetizer packetizer(0, config);

    // 10 program stores coalesce into one line (one packet).
    for (int i = 0; i < 10; ++i)
        buffer(partition, makeStore(0x1000, 8));
    FlushedPartition flushed = release(partition);
    packetizer.packetize(flushed);
    EXPECT_DOUBLE_EQ(packetizer.avgStoresPerPacket(), 10.0);
    EXPECT_EQ(packetizer.packetsEmitted(), 1u);
}

TEST(PacketizerTest, EmptyFlushPanics)
{
    Packetizer packetizer(0, defaultConfig());
    FlushedPartition empty;
    EXPECT_THROW(packetizer.packetize(empty), common::SimError);
}

TEST(DePacketizerTest, RoundTripPreservesData)
{
    FinePackConfig config = defaultConfig();
    RwqPartition partition(1, config);
    buffer(partition, makeStore(0x1000, 4, {0xde, 0xad, 0xbe, 0xef}));
    buffer(partition, makeStore(0x1020, 2, {0xca, 0xfe}));
    FlushedPartition flushed = release(partition);

    Packetizer packetizer(0, config);
    FinePackTransaction txn = packetizer.packetize(flushed);

    // The receiver's de-packetizer step.
    auto stores = txn.unpack();
    ASSERT_EQ(stores.size(), 2u);
    EXPECT_EQ(stores[0].addr, 0x1000u);
    EXPECT_EQ(fp::testing::bytesOf(stores[0]),
              (std::vector<std::uint8_t>{0xde, 0xad, 0xbe, 0xef}));
    EXPECT_EQ(stores[1].addr, 0x1020u);
    EXPECT_EQ(fp::testing::bytesOf(stores[1]),
              (std::vector<std::uint8_t>{0xca, 0xfe}));
}
