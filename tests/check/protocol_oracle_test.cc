/**
 * Unit tests for the shadow-memory protocol oracle.
 *
 * The oracle's job is to catch packetization bugs that component tests
 * miss, so half of these tests are mutation tests: run a correct
 * RWQ-to-packetizer pipeline on stores that carry payload (so the
 * message carries its de-packetized stores), tamper with the emitted
 * message the way a buggy packetizer would (wrong offset, merged runs,
 * dropped or duplicated sub-packets, stale data, bad payload
 * accounting), and assert the oracle rejects each mutation.
 */

#include <gtest/gtest.h>

#include <numeric>

#include "check/protocol_oracle.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "finepack/packetizer.hh"
#include "finepack/remote_write_queue.hh"
#include "interconnect/protocol.hh"
#include "../support/payload_bytes.hh"

using namespace fp;
using namespace fp::finepack;
using check::ProtocolOracle;
using fp::icn::Store;

namespace {

constexpr GpuId src_gpu = 0;
constexpr GpuId dst_gpu = 1;

Store
makeStore(Addr addr, std::uint32_t size)
{
    Store store(addr, size, src_gpu, dst_gpu);
    std::vector<std::uint8_t> bytes(size);
    // Address-derived pattern so every byte is distinguishable.
    for (std::uint32_t i = 0; i < size; ++i)
        bytes[i] = static_cast<std::uint8_t>((addr + i) * 31 + 7);
    store.data = fp::testing::payload(std::move(bytes));
    return store;
}

/**
 * A partition wired to an oracle plus the packetizer behind it. The
 * packetizer is not observed, so a test can tamper with a message
 * before handing it to verifyMessage().
 */
struct Pipeline
{
    FinePackConfig config = defaultConfig();
    ProtocolOracle oracle{src_gpu, defaultConfig()};
    RwqPartition partition{dst_gpu, defaultConfig()};
    Packetizer packetizer{src_gpu, defaultConfig()};
    icn::PcieProtocol protocol{icn::PcieGen::gen4};

    Pipeline() { partition.addObserver(&oracle); }

    /** Push stores, then release-flush and return the wire message. */
    icn::WireMessagePtr
    flushToMessage(const std::vector<Store> &stores)
    {
        std::vector<FlushedPartition> sink;
        for (const Store &store : stores)
            partition.push(store, sink);
        partition.flush(FlushReason::release, sink);
        EXPECT_EQ(sink.size(), 1u);
        return packetizer.toMessage(sink.front(), protocol);
    }
};

} // namespace

TEST(ProtocolOracleTest, VerifiesCorrectPipeline)
{
    Pipeline pipe;
    auto msg = pipe.flushToMessage({
        makeStore(0x1000, 8),
        makeStore(0x1010, 4),
        makeStore(0x2040, 16),
    });
    pipe.oracle.verifyMessage(*msg, msg->stores);
    pipe.oracle.verifyDrained();

    EXPECT_EQ(pipe.oracle.storesRecorded(), 3u);
    EXPECT_EQ(pipe.oracle.transactionsVerified(), 1u);
    // 28 bytes checked at flush and again at packetization.
    EXPECT_EQ(pipe.oracle.bytesVerified(), 56u);
    EXPECT_EQ(pipe.oracle.valueBytesVerified(), 56u);
}

TEST(ProtocolOracleTest, VerifiesOverwriteInPlace)
{
    Pipeline pipe;
    Store first = makeStore(0x1000, 8);
    Store second = makeStore(0x1004, 8);
    std::vector<std::uint8_t> flipped = fp::testing::bytesOf(second);
    for (auto &byte : flipped)
        byte = static_cast<std::uint8_t>(byte ^ 0xff);
    second.data = fp::testing::payload(std::move(flipped));
    auto msg = pipe.flushToMessage({first, second});
    // One contiguous run [0x1000, 0x100c) with the overlap holding the
    // second store's bytes.
    ASSERT_EQ(msg->stores.size(), 1u);
    EXPECT_EQ(msg->stores[0].size, 12u);
    pipe.oracle.verifyMessage(*msg, msg->stores);
    pipe.oracle.verifyDrained();
}

TEST(ProtocolOracleTest, AcceptsDataLessStores)
{
    // Timing-only traces carry no payload bytes: coverage is still
    // verified, values are not. The timing message holds no store
    // records, so the oracle de-packetizes the transaction its
    // packetizer hook is handed.
    Pipeline pipe;
    pipe.packetizer.addObserver(&pipe.oracle);
    Store store(0x1000, 16, src_gpu, dst_gpu);
    auto msg = pipe.flushToMessage({store});
    EXPECT_TRUE(msg->stores.empty());
    EXPECT_EQ(msg->delivered_stores, 1u);
    EXPECT_EQ(pipe.oracle.transactionsVerified(), 1u);
    pipe.oracle.verifyDrained();
    EXPECT_EQ(pipe.oracle.bytesVerified(), 32u);
    EXPECT_EQ(pipe.oracle.valueBytesVerified(), 0u);
}

TEST(ProtocolOracleTest, VerifiesPacketsThroughThePacketizerHook)
{
    // On the packetizer's observer list the oracle verifies every
    // packet as it is emitted, with no explicit verifyMessage() call.
    Pipeline pipe;
    pipe.packetizer.addObserver(&pipe.oracle);
    pipe.flushToMessage({makeStore(0x1000, 8), makeStore(0x2040, 16)});
    EXPECT_EQ(pipe.oracle.transactionsVerified(), 1u);
    pipe.oracle.verifyDrained();

    // A packet whose window flush the oracle never saw fails at emit.
    RwqPartition unobserved{dst_gpu, defaultConfig()};
    std::vector<FlushedPartition> sink;
    unobserved.push(makeStore(0x3000, 8), sink);
    unobserved.flush(FlushReason::release, sink);
    ASSERT_EQ(sink.size(), 1u);
    EXPECT_THROW(pipe.packetizer.toMessage(sink.front(), pipe.protocol),
                 common::SimError);
}

TEST(ProtocolOracleTest, CatchesCorruptedData)
{
    Pipeline pipe;
    auto msg = pipe.flushToMessage({makeStore(0x1000, 8)});
    msg->store_bytes[3] ^= 0x01; // single flipped bit of stores[0]
    EXPECT_THROW(pipe.oracle.verifyMessage(*msg, msg->stores), common::SimError);
}

TEST(ProtocolOracleTest, CatchesOffsetEncodingBug)
{
    // A de-packetizer that mis-decodes a sub-header offset expands the
    // store at the wrong address.
    Pipeline pipe;
    auto msg = pipe.flushToMessage({makeStore(0x1000, 8)});
    msg->stores[0].addr += 4;
    EXPECT_THROW(pipe.oracle.verifyMessage(*msg, msg->stores), common::SimError);
}

TEST(ProtocolOracleTest, CatchesMergedRunsIgnoringByteEnables)
{
    // A broken packetizer that emits one sub-packet per *entry* (span
    // first..last) instead of one per contiguous run would transfer the
    // gap bytes too. The oracle must reject the phantom bytes.
    Pipeline pipe;
    std::vector<FlushedPartition> sink;
    pipe.partition.push(makeStore(0x1000, 4), sink);
    pipe.partition.push(makeStore(0x1010, 4), sink);
    pipe.partition.flush(FlushReason::release, sink);
    ASSERT_EQ(sink.size(), 1u);

    auto msg = pipe.packetizer.toMessage(sink.front(), pipe.protocol);
    ASSERT_EQ(msg->stores.size(), 2u);
    // Mutate: merge both runs into one span-covering sub-packet.
    Store merged(0x1000, 0x14, src_gpu, dst_gpu);
    merged.data = fp::testing::payload(std::vector<std::uint8_t>(0x14, 0));
    msg->stores = {merged};
    EXPECT_THROW(pipe.oracle.verifyMessage(*msg, msg->stores), common::SimError);
}

TEST(ProtocolOracleTest, CatchesDroppedSubPacket)
{
    Pipeline pipe;
    auto msg = pipe.flushToMessage({
        makeStore(0x1000, 8),
        makeStore(0x1100, 8),
    });
    ASSERT_EQ(msg->stores.size(), 2u);
    msg->stores.pop_back();
    EXPECT_THROW(pipe.oracle.verifyMessage(*msg, msg->stores), common::SimError);
}

TEST(ProtocolOracleTest, CatchesDuplicatedSubPacket)
{
    Pipeline pipe;
    auto msg = pipe.flushToMessage({makeStore(0x1000, 8)});
    msg->stores.push_back(msg->stores[0]);
    EXPECT_THROW(pipe.oracle.verifyMessage(*msg, msg->stores), common::SimError);
}

TEST(ProtocolOracleTest, CatchesSubPacketOutsideWindow)
{
    Pipeline pipe;
    auto msg = pipe.flushToMessage({makeStore(0x1000, 8)});
    // Push the store past the window's addressable range.
    msg->stores[0].addr += pipe.config.addressableRange();
    EXPECT_THROW(pipe.oracle.verifyMessage(*msg, msg->stores), common::SimError);
}

TEST(ProtocolOracleTest, CatchesPayloadMisaccounting)
{
    Pipeline pipe;
    auto msg = pipe.flushToMessage({makeStore(0x1000, 8)});
    msg->payload_bytes += 4; // sub-header geometry no longer adds up
    EXPECT_THROW(pipe.oracle.verifyMessage(*msg, msg->stores), common::SimError);
}

TEST(ProtocolOracleTest, CatchesPacketWithoutFlush)
{
    Pipeline pipe;
    auto msg = pipe.flushToMessage({makeStore(0x1000, 8)});
    pipe.oracle.verifyMessage(*msg, msg->stores);
    // Replaying the same packet again has no matching flush.
    EXPECT_THROW(pipe.oracle.verifyMessage(*msg, msg->stores), common::SimError);
}

TEST(ProtocolOracleTest, CatchesLostBytesAtDrain)
{
    Pipeline pipe;
    std::vector<FlushedPartition> sink;
    pipe.partition.push(makeStore(0x1000, 8), sink);
    EXPECT_TRUE(sink.empty());
    // The byte is still buffered: a drain check now must fail (a real
    // run issues the release fence first).
    EXPECT_THROW(pipe.oracle.verifyDrained(), common::SimError);
}

TEST(ProtocolOracleTest, CatchesFlushThatNeverPacketized)
{
    Pipeline pipe;
    std::vector<FlushedPartition> sink;
    pipe.partition.push(makeStore(0x1000, 8), sink);
    pipe.partition.flush(FlushReason::release, sink);
    // Flushed but the message was never emitted/verified.
    EXPECT_THROW(pipe.oracle.verifyDrained(), common::SimError);
}

TEST(ProtocolOracleTest, TracksCapacityFlushesInCausalOrder)
{
    // Fill a window until it flushes from capacity pressure, with
    // overlapping rewrites mixed in; every emitted message must verify.
    Pipeline pipe;
    common::Rng rng = common::Rng(99);
    std::uint64_t verified = 0;
    for (int i = 0; i < 20000; ++i) {
        Addr addr = 0x10000 + rng.below(1 << 16);
        auto size = static_cast<std::uint32_t>(rng.range(1, 16));
        Addr line = addr & ~Addr{127};
        if (addr + size > line + 128)
            size = static_cast<std::uint32_t>(line + 128 - addr);

        std::vector<FlushedPartition> sink;
        pipe.partition.push(makeStore(addr, size), sink);
        for (const FlushedPartition &flushed : sink) {
            auto msg = pipe.packetizer.toMessage(flushed, pipe.protocol);
            pipe.oracle.verifyMessage(*msg, msg->stores);
            ++verified;
        }
    }
    std::vector<FlushedPartition> sink;
    pipe.partition.flush(FlushReason::release, sink);
    for (const FlushedPartition &flushed : sink) {
        auto msg = pipe.packetizer.toMessage(flushed, pipe.protocol);
        pipe.oracle.verifyMessage(*msg, msg->stores);
        ++verified;
    }
    pipe.oracle.verifyDrained();
    EXPECT_GT(verified, 0u);
    EXPECT_EQ(pipe.oracle.transactionsVerified(), verified);
}
