/**
 * Unit tests for the multi-window remote write queue partition (the
 * Section IV-C alternative: multiple open outer transactions per
 * destination to avoid window thrashing).
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/random.hh"
#include "finepack/packetizer.hh"
#include "finepack/remote_write_queue.hh"
#include "gpu/functional_memory.hh"
#include "../support/payload_bytes.hh"

using namespace fp;
using namespace fp::finepack;
using fp::icn::Store;

namespace {

FinePackConfig
multiWindowConfig(std::uint32_t windows)
{
    FinePackConfig config = configWithSubheader(3); // 16 KiB windows
    config.windows_per_partition = windows;
    config.validate();
    return config;
}

Store
makeStore(Addr addr, std::uint32_t size = 8, GpuId dst = 1)
{
    return Store(addr, size, 0, dst);
}

} // namespace

TEST(MultiWindowTest, ConfigValidation)
{
    FinePackConfig config = defaultConfig();
    config.windows_per_partition = 0;
    EXPECT_THROW(config.validate(), common::SimError);
    config.windows_per_partition = 3; // 64 entries not divisible
    EXPECT_THROW(config.validate(), common::SimError);
    config.windows_per_partition = 4;
    EXPECT_NO_THROW(config.validate());
}

TEST(MultiWindowTest, AlternatingRegionsDoNotThrashWithTwoWindows)
{
    // Two interleaved streams 1 MiB apart: one window thrashes on
    // every store, two windows absorb both streams.
    RwqPartition one(1, multiWindowConfig(1));
    RwqPartition two(1, multiWindowConfig(2));

    std::vector<FlushedPartition> sink_one, sink_two;
    for (int i = 0; i < 32; ++i) {
        Addr addr = (i % 2 == 0 ? 0x0 : 0x100000) +
                    static_cast<Addr>(i) * 8;
        one.push(makeStore(addr), sink_one);
        two.push(makeStore(addr), sink_two);
    }
    // Single window: a flush on (nearly) every push.
    EXPECT_GE(sink_one.size(), 30u);
    // Two windows: no flush at all.
    EXPECT_TRUE(sink_two.empty());
    EXPECT_EQ(two.bufferedStores(), 32u);
    EXPECT_EQ(two.flushes(FlushReason::window_violation), 0u);
}

TEST(MultiWindowTest, LruWindowIsEvicted)
{
    RwqPartition partition(1, multiWindowConfig(2));
    std::vector<FlushedPartition> sink;
    partition.push(makeStore(0x0), sink);        // window A
    partition.push(makeStore(0x100000), sink);   // window B
    partition.push(makeStore(0x8), sink);        // hit A (A = MRU)
    ASSERT_TRUE(sink.empty());

    // A third region evicts B, the least recently used window.
    partition.push(makeStore(0x200000), sink);
    ASSERT_EQ(sink.size(), 1u);
    EXPECT_EQ(sink[0].window_base, 0x100000u);
    // A's contents are still buffered.
    EXPECT_EQ(partition.bufferedStores(), 3u);
}

TEST(MultiWindowTest, EntryBudgetIsSplitAcrossWindows)
{
    FinePackConfig config = multiWindowConfig(2); // 32 entries each
    RwqPartition partition(1, config);
    std::vector<FlushedPartition> sink;
    // 32 distinct lines fill one window's budget; the 33rd flushes it.
    for (std::uint32_t i = 0; i < 32; ++i)
        partition.push(makeStore(i * 128), sink);
    EXPECT_TRUE(sink.empty());
    partition.push(makeStore(32 * 128), sink);
    ASSERT_EQ(sink.size(), 1u);
    EXPECT_EQ(sink[0].entries.size(), 32u);
    EXPECT_EQ(partition.flushes(FlushReason::entries_full), 1u);
}

TEST(MultiWindowTest, ReleaseFlushesEveryWindow)
{
    RwqPartition partition(1, multiWindowConfig(4));
    std::vector<FlushedPartition> sink;
    for (int w = 0; w < 4; ++w)
        partition.push(makeStore(static_cast<Addr>(w) * 0x100000),
                       sink);
    ASSERT_TRUE(sink.empty());

    std::vector<FlushedPartition> flushed;
    partition.flush(FlushReason::release, flushed);
    EXPECT_EQ(flushed.size(), 4u);
    EXPECT_TRUE(partition.empty());
    EXPECT_EQ(partition.flushes(FlushReason::release), 4u);
}

TEST(MultiWindowTest, ConflictFlushesAllWindows)
{
    RwqPartition partition(1, multiWindowConfig(2));
    std::vector<FlushedPartition> sink;
    partition.push(makeStore(0x0), sink);
    partition.push(makeStore(0x100000), sink);

    std::vector<FlushedPartition> flushed;
    EXPECT_FALSE(partition.flushIfConflict(0x9999000, 8,
                                           FlushReason::load_conflict,
                                           flushed));
    EXPECT_TRUE(flushed.empty());
    EXPECT_TRUE(partition.flushIfConflict(0x100000, 8,
                                          FlushReason::load_conflict,
                                          flushed));
    EXPECT_EQ(flushed.size(), 2u);
    EXPECT_TRUE(partition.empty());
}

TEST(MultiWindowTest, WindowIndexIsBoundsChecked)
{
    RwqPartition partition(1, multiWindowConfig(2));
    EXPECT_NO_THROW(partition.window(0));
    EXPECT_NO_THROW(partition.window(1));
    EXPECT_THROW(partition.window(2), common::SimError);
    EXPECT_EQ(partition.windowCount(), 2u);
}

TEST(MultiWindowTest, FunctionalEquivalenceWithScatteredStream)
{
    // Multi-window delivery must still be semantically identical to
    // direct application.
    FinePackConfig config = multiWindowConfig(4);
    RwqPartition partition(1, config);
    Packetizer packetizer(0, config);
    common::Rng rng(99);

    gpu::FunctionalMemory direct, via_finepack;
    auto deliver = [&](const FlushedPartition &flushed) {
        if (flushed.empty())
            return;
        // The unpacked stores point into the transaction's bytes.
        const FinePackTransaction txn = packetizer.packetize(flushed);
        for (const Store &store : txn.unpack())
            via_finepack.apply(store);
    };

    std::vector<FlushedPartition> sink;
    for (int i = 0; i < 4000; ++i) {
        Addr addr = rng.below(8) * 0x400000 + rng.below(64 * KiB);
        // Keep the store line-contained, as the L1 coalescer would.
        Addr line_end = (addr & ~Addr{127}) + 128;
        auto size = static_cast<std::uint32_t>(
            std::min<Addr>(4, line_end - addr));
        Store store = makeStore(addr, size);
        std::vector<std::uint8_t> bytes(size);
        for (auto &byte : bytes)
            byte = static_cast<std::uint8_t>(rng.next());
        store.data = fp::testing::payload(std::move(bytes));
        direct.apply(store);
        sink.clear();
        partition.push(store, sink);
        for (const auto &flushed : sink)
            deliver(flushed);
    }
    std::vector<FlushedPartition> rest;
    partition.flush(FlushReason::release, rest);
    for (const auto &flushed : rest)
        deliver(flushed);

    EXPECT_TRUE(direct.sameContents(via_finepack));
}

TEST(MultiWindowTest, MoreWindowsNeverPackWorseOnRoundRobinStreams)
{
    // A CT-like round-robin scatter across K regions: stores per packet
    // should improve monotonically-ish as windows approach K.
    auto avg_packing = [](std::uint32_t windows) {
        FinePackConfig config = defaultConfig(); // 1 GiB windows
        config.windows_per_partition = windows;
        RwqPartition partition(1, config);
        Packetizer packetizer(0, config);
        std::vector<FlushedPartition> sink;
        for (int i = 0; i < 8192; ++i) {
            Addr region = static_cast<Addr>(i % 4) * 2 * GiB;
            Addr addr = region + static_cast<Addr>(i / 4) * 8;
            sink.clear();
            partition.push(makeStore(addr, 4), sink);
            for (const auto &flushed : sink)
                packetizer.packetize(flushed);
        }
        std::vector<FlushedPartition> rest;
        partition.flush(FlushReason::release, rest);
        for (const auto &flushed : rest)
            packetizer.packetize(flushed);
        return packetizer.avgStoresPerPacket();
    };

    double one = avg_packing(1);
    double four = avg_packing(4);
    EXPECT_LE(one, 1.1);   // thrash: one store per packet
    EXPECT_GT(four, 50.0); // four windows absorb all four regions
}
