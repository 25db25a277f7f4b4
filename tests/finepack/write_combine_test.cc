/** Unit tests for the cacheline write-combining baseline. */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "finepack/write_combine.hh"
#include "../support/payload_bytes.hh"

using namespace fp;
using namespace fp::finepack;
using fp::icn::Store;

namespace {

Store
makeStore(Addr addr, std::uint32_t size, GpuId dst = 1)
{
    return Store(addr, size, 0, dst);
}

} // namespace

TEST(WriteCombineTest, SameLineStoresMerge)
{
    WriteCombineBuffer wc(0, 1, 4);
    EXPECT_FALSE(wc.push(makeStore(0x1000, 8)).has_value());
    EXPECT_FALSE(wc.push(makeStore(0x1010, 8)).has_value());
    EXPECT_EQ(wc.lineCount(), 1u);
    auto lines = wc.flushAll();
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(lines[0].entry.validBytes(), 16u);
    EXPECT_EQ(lines[0].folded, 2u);
}

TEST(WriteCombineTest, SameAddressOverwriteCountsElided)
{
    WriteCombineBuffer wc(0, 1, 4);
    wc.push(makeStore(0x1000, 8));
    wc.push(makeStore(0x1000, 8));
    EXPECT_EQ(wc.bytesElided(), 8u);
    EXPECT_EQ(wc.storesPushed(), 2u);
}

TEST(WriteCombineTest, LruEvictionOnCapacity)
{
    WriteCombineBuffer wc(0, 1, 2);
    wc.push(makeStore(0x1000, 8)); // line A
    wc.push(makeStore(0x2000, 8)); // line B
    wc.push(makeStore(0x1040, 8)); // hit A -> A becomes MRU
    auto evicted = wc.push(makeStore(0x3000, 8)); // evicts B (LRU)
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->entry.line_addr, 0x2000u);
    EXPECT_EQ(wc.lineCount(), 2u);
}

TEST(WriteCombineTest, FlushAllSortedAndEmpties)
{
    WriteCombineBuffer wc(0, 1, 8);
    wc.push(makeStore(0x3000, 8));
    wc.push(makeStore(0x1000, 8));
    auto lines = wc.flushAll();
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_LT(lines[0].entry.line_addr, lines[1].entry.line_addr);
    EXPECT_EQ(wc.lineCount(), 0u);
}

TEST(WriteCombineTest, LineMessageTransfersWholeLine)
{
    WriteCombineBuffer wc(0, 1, 4);
    wc.push(makeStore(0x1000, 8));
    auto lines = wc.flushAll();
    icn::PcieProtocol protocol(icn::PcieGen::gen4);
    auto msg = wc.lineToMessage(lines[0], protocol);

    EXPECT_EQ(msg->kind, icn::MessageKind::write_combine_line);
    // The whole 128 B line travels even though only 8 B were written -
    // the intra-line waste GPS suffers (Section VI-B).
    EXPECT_EQ(msg->payload_bytes, 128u);
    EXPECT_EQ(msg->data_bytes, 8u);
    EXPECT_EQ(msg->header_bytes, protocol.tlpOverhead());
}

TEST(WriteCombineTest, LineMessageDeliversOnlyWrittenRuns)
{
    WriteCombineBuffer wc(0, 1, 4);
    Store a = makeStore(0x1000, 2);
    a.data = fp::testing::payload({1, 2});
    Store b = makeStore(0x1010, 2);
    b.data = fp::testing::payload({3, 4});
    wc.push(a);
    wc.push(b);
    auto lines = wc.flushAll();
    icn::PcieProtocol protocol(icn::PcieGen::gen4);
    auto msg = wc.lineToMessage(lines[0], protocol);
    ASSERT_EQ(msg->stores.size(), 2u);
    EXPECT_EQ(msg->stores[0].addr, 0x1000u);
    EXPECT_EQ(fp::testing::bytesOf(msg->stores[0]),
              (std::vector<std::uint8_t>{1, 2}));
    EXPECT_EQ(msg->stores[1].addr, 0x1010u);
    EXPECT_EQ(fp::testing::bytesOf(msg->stores[1]),
              (std::vector<std::uint8_t>{3, 4}));
}

TEST(WriteCombineTest, WrongDestinationPanics)
{
    WriteCombineBuffer wc(0, 1, 4);
    EXPECT_THROW(wc.push(makeStore(0x1000, 8, 2)), common::SimError);
}

TEST(WriteCombineTest, CrossLineStorePanics)
{
    WriteCombineBuffer wc(0, 1, 4);
    EXPECT_THROW(wc.push(makeStore(0x1078, 16)), common::SimError);
}
