/** Unit tests for the remote write queue (paper Section IV-B, Fig. 8). */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "finepack/remote_write_queue.hh"

using namespace fp;
using namespace fp::finepack;
using fp::icn::Store;

namespace {

Store
makeStore(Addr addr, std::uint32_t size, GpuId dst = 1)
{
    return Store(addr, size, 0, dst);
}

FinePackConfig
smallWindowConfig()
{
    // 3 B sub-header -> 14 offset bits -> 16 KiB window.
    return configWithSubheader(3);
}

/** Push @p store into @p partition; the flushes it caused. */
std::vector<FlushedPartition>
push(RwqPartition &partition, const Store &store)
{
    std::vector<FlushedPartition> sink;
    partition.push(store, sink);
    return sink;
}

/** Release every window of @p partition; the flushes it produced. */
std::vector<FlushedPartition>
release(RwqPartition &partition)
{
    std::vector<FlushedPartition> sink;
    partition.flush(FlushReason::release, sink);
    return sink;
}

} // namespace

TEST(RwqPartitionTest, InitialRegisterState)
{
    RwqPartition partition(1, defaultConfig());
    EXPECT_TRUE(partition.empty());
    // Paper: base address registers initialize to UINT64_MAX and the
    // available payload register to the maximum payload length.
    EXPECT_EQ(partition.window(0).baseAddrRegister(), invalid_addr);
    EXPECT_EQ(partition.window(0).availablePayload(), 4096u);
    EXPECT_EQ(partition.bufferedStores(), 0u);
}

TEST(RwqPartitionTest, FirstStoreSetsBaseRegister)
{
    FinePackConfig config = defaultConfig();
    RwqPartition partition(1, config);
    Addr addr = 0x40001238;
    push(partition, makeStore(addr, 8));
    // Base register = address right-shifted by the offset width.
    const RwqWindow &window = partition.window(0);
    EXPECT_EQ(window.baseAddrRegister(), addr >> config.offsetBits());
    EXPECT_EQ(window.windowLo(),
              (addr >> config.offsetBits()) << config.offsetBits());
    EXPECT_EQ(window.windowHi(),
              window.windowLo() + config.addressableRange());
}

TEST(RwqPartitionTest, PayloadRegisterDecrements)
{
    FinePackConfig config = defaultConfig();
    RwqPartition partition(1, config);
    push(partition, makeStore(0x1000, 8));
    // One 8 B run costs 8 + 5 sub-header bytes.
    EXPECT_EQ(partition.window(0).availablePayload(), 4096u - 13u);
    push(partition, makeStore(0x2000, 16));
    EXPECT_EQ(partition.window(0).availablePayload(), 4096u - 13u - 21u);
}

TEST(RwqPartitionTest, SameAddressOverwritesInPlace)
{
    RwqPartition partition(1, defaultConfig());
    Store first = makeStore(0x1000, 8);
    first.data = {1, 2, 3, 4, 5, 6, 7, 8};
    Store second = makeStore(0x1000, 8);
    second.data = {9, 9, 9, 9, 9, 9, 9, 9};

    EXPECT_TRUE(push(partition, first).empty());
    EXPECT_TRUE(push(partition, second).empty());
    EXPECT_EQ(partition.entryCount(), 1u);
    EXPECT_EQ(partition.bytesElided(), 8u);
    EXPECT_EQ(partition.queueHits(), 1u);
    // Exact accounting: the merged store costs nothing extra.
    EXPECT_EQ(partition.window(0).availablePayload(), 4096u - 13u);

    auto flushed = release(partition);
    ASSERT_EQ(flushed.size(), 1u);
    ASSERT_EQ(flushed[0].entries.size(), 1u);
    const QueueEntry &entry = flushed[0].entries[0];
    EXPECT_EQ(entry.line_addr, 0x1000u);
    EXPECT_EQ(entry.validBytes(), 8u);
    for (std::uint32_t i = 0; i < 8; ++i)
        EXPECT_EQ(entry.data[i], 9) << "byte " << i;
    EXPECT_EQ(flushed[0].packed_store_count, 2u);
}

TEST(RwqPartitionTest, ByteMasksOrTogether)
{
    RwqPartition partition(1, defaultConfig());
    push(partition, makeStore(0x1000, 4));
    push(partition, makeStore(0x1008, 4));
    EXPECT_EQ(partition.entryCount(), 1u); // same 128 B line
    auto flushed = release(partition);
    ASSERT_EQ(flushed.size(), 1u);
    const QueueEntry &entry = flushed[0].entries[0];
    EXPECT_TRUE(entry.enabled(0));
    EXPECT_TRUE(entry.enabled(3));
    EXPECT_FALSE(entry.enabled(4));
    EXPECT_TRUE(entry.enabled(8));
    EXPECT_EQ(entry.runCount(), 2u);
}

TEST(RwqPartitionTest, AdjacentStoresMergeRunsAndReclaimBudget)
{
    FinePackConfig config = defaultConfig();
    RwqPartition partition(1, config);
    push(partition, makeStore(0x1000, 4));
    push(partition, makeStore(0x1008, 4));
    std::uint64_t before = partition.window(0).availablePayload();
    // Fill the gap: two runs merge into one, so the entry's exact
    // packed cost changes by (+4 data - 1 sub-header) and the register
    // reclaims the difference.
    push(partition, makeStore(0x1004, 4));
    std::uint64_t after = partition.window(0).availablePayload();
    EXPECT_EQ(after, before + config.subheader_bytes - 4);

    auto flushed = release(partition);
    ASSERT_EQ(flushed.size(), 1u);
    EXPECT_EQ(flushed[0].entries[0].runCount(), 1u);
    EXPECT_EQ(flushed[0].entries[0].validBytes(), 12u);
}

TEST(RwqPartitionTest, WindowViolationFlushes)
{
    FinePackConfig config = smallWindowConfig(); // 16 KiB window
    RwqPartition partition(1, config);
    push(partition, makeStore(0x4000, 8));
    // An address outside [window_lo, window_hi) flushes.
    auto flushed = push(partition, makeStore(0x4000 + 64 * KiB, 8));
    ASSERT_EQ(flushed.size(), 1u);
    EXPECT_EQ(flushed[0].entries.size(), 1u);
    EXPECT_EQ(flushed[0].packed_store_count, 1u);
    EXPECT_EQ(partition.flushes(FlushReason::window_violation), 1u);
    // The incoming store seeded the new window.
    EXPECT_FALSE(partition.empty());
    EXPECT_EQ(partition.window(0).baseAddrRegister(),
              (0x4000 + 64 * KiB) >> config.offsetBits());
}

TEST(RwqPartitionTest, StoreStraddlingWindowGridSplits)
{
    // Only the 2-byte sub-header geometry (64 B window, smaller than a
    // cache line) lets a line-contained store cross a window boundary;
    // the queue must split it so each piece fits its window.
    FinePackConfig config = configWithSubheader(2);
    RwqPartition partition(1, config);
    std::vector<FlushedPartition> sink;
    partition.push(makeStore(60, 8), sink); // crosses byte 64
    // The head piece [60, 64) seeded window [0, 64) and was flushed by
    // the tail piece [64, 68) violating it.
    ASSERT_EQ(sink.size(), 1u);
    ASSERT_EQ(sink[0].entries.size(), 1u);
    EXPECT_EQ(sink[0].entries[0].validBytes(), 4u);
    EXPECT_TRUE(sink[0].entries[0].enabled(60));
    EXPECT_FALSE(sink[0].entries[0].enabled(64));
    // The tail piece is now buffered in window [64, 128).
    EXPECT_FALSE(partition.empty());
    EXPECT_EQ(partition.window(0).windowLo(), 64u);
    auto rest = release(partition);
    ASSERT_EQ(rest.size(), 1u);
    ASSERT_EQ(rest[0].entries.size(), 1u);
    EXPECT_EQ(rest[0].entries[0].validBytes(), 4u);
    EXPECT_TRUE(rest[0].entries[0].enabled(64));
}

TEST(RwqPartitionTest, SplitPreservesDataBytes)
{
    FinePackConfig config = configWithSubheader(2);
    RwqPartition partition(1, config);
    Store store = makeStore(62, 4);
    store.data = {10, 11, 12, 13};
    std::vector<FlushedPartition> sink;
    partition.push(store, sink);
    ASSERT_EQ(sink.size(), 1u);
    const QueueEntry &head = sink[0].entries[0];
    EXPECT_EQ(head.data[62], 10);
    EXPECT_EQ(head.data[63], 11);
    auto rest = release(partition);
    ASSERT_EQ(rest.size(), 1u);
    const QueueEntry &tail = rest[0].entries[0];
    EXPECT_EQ(tail.data[64], 12);
    EXPECT_EQ(tail.data[65], 13);
}

TEST(RwqPartitionTest, PayloadBudgetFlushes)
{
    FinePackConfig config = defaultConfig();
    config.queue_entries = 1024; // entry capacity never binds here
    RwqPartition partition(1, config);

    // Full-line stores cost 133 B each; 30 fit in 4096 (3990), the
    // 31st does not.
    std::uint32_t fits = 4096 / (128 + config.subheader_bytes);
    for (std::uint32_t i = 0; i < fits; ++i) {
        auto flushed = push(partition, makeStore(i * 128, 128));
        EXPECT_TRUE(flushed.empty()) << "store " << i;
    }
    auto flushed = push(partition, makeStore(fits * 128, 128));
    ASSERT_EQ(flushed.size(), 1u);
    EXPECT_EQ(flushed[0].entries.size(), fits);
    EXPECT_EQ(partition.flushes(FlushReason::payload_full), 1u);
}

TEST(RwqPartitionTest, EntryCapacityFlushes)
{
    FinePackConfig config = defaultConfig(); // 64 entries
    RwqPartition partition(1, config);
    // 64 distinct lines of small stores stay under the payload cap.
    for (std::uint32_t i = 0; i < 64; ++i)
        EXPECT_TRUE(push(partition, makeStore(i * 128, 8)).empty());
    EXPECT_EQ(partition.entryCount(), 64u);
    // A 65th line misses with no free entry.
    auto flushed = push(partition, makeStore(64 * 128, 8));
    ASSERT_EQ(flushed.size(), 1u);
    EXPECT_EQ(flushed[0].entries.size(), 64u);
    EXPECT_EQ(partition.flushes(FlushReason::entries_full), 1u);
    EXPECT_EQ(partition.entryCount(), 1u);
}

TEST(RwqPartitionTest, HitOnFullQueueDoesNotFlush)
{
    FinePackConfig config = defaultConfig();
    RwqPartition partition(1, config);
    for (std::uint32_t i = 0; i < 64; ++i)
        push(partition, makeStore(i * 128, 8));
    // A hit on an existing line needs no new entry.
    EXPECT_TRUE(push(partition, makeStore(0, 8)).empty());
    EXPECT_EQ(partition.entryCount(), 64u);
}

TEST(RwqPartitionTest, FlushResetsRegisters)
{
    RwqPartition partition(1, defaultConfig());
    push(partition, makeStore(0x1000, 8));
    release(partition);
    EXPECT_TRUE(partition.empty());
    EXPECT_EQ(partition.window(0).baseAddrRegister(), invalid_addr);
    EXPECT_EQ(partition.window(0).availablePayload(), 4096u);
    EXPECT_EQ(partition.bufferedStores(), 0u);
}

TEST(RwqPartitionTest, FlushEmptyIsEmptyResult)
{
    RwqPartition partition(1, defaultConfig());
    EXPECT_TRUE(release(partition).empty());
    EXPECT_EQ(partition.flushes(FlushReason::release), 0u);
}

TEST(RwqPartitionTest, FlushedEntriesSortedByAddress)
{
    RwqPartition partition(1, defaultConfig());
    push(partition, makeStore(0x3000, 8));
    push(partition, makeStore(0x1000, 8));
    push(partition, makeStore(0x2000, 8));
    auto flushed = release(partition);
    ASSERT_EQ(flushed.size(), 1u);
    const auto &entries = flushed[0].entries;
    ASSERT_EQ(entries.size(), 3u);
    EXPECT_LT(entries[0].line_addr, entries[1].line_addr);
    EXPECT_LT(entries[1].line_addr, entries[2].line_addr);
}

TEST(RwqPartitionTest, LoadConflictFlushes)
{
    RwqPartition partition(1, defaultConfig());
    push(partition, makeStore(0x1000, 8));
    push(partition, makeStore(0x2000, 8));
    // A load to an untouched address does not flush.
    std::vector<FlushedPartition> flushed;
    EXPECT_FALSE(partition.flushIfConflict(
        0x3000, 8, FlushReason::load_conflict, flushed));
    EXPECT_TRUE(flushed.empty());
    // A load overlapping a buffered store flushes the whole partition
    // (like a synchronization would).
    EXPECT_TRUE(partition.flushIfConflict(
        0x1004, 2, FlushReason::load_conflict, flushed));
    ASSERT_EQ(flushed.size(), 1u);
    EXPECT_EQ(flushed[0].entries.size(), 2u);
    EXPECT_TRUE(partition.empty());
}

TEST(RwqPartitionTest, LoadToSameLineButDisjointBytesNoFlush)
{
    RwqPartition partition(1, defaultConfig());
    push(partition, makeStore(0x1000, 8));
    // Same 128 B line, non-overlapping bytes: no ordering hazard.
    std::vector<FlushedPartition> flushed;
    EXPECT_FALSE(partition.flushIfConflict(
        0x1040, 8, FlushReason::load_conflict, flushed));
    EXPECT_TRUE(flushed.empty());
}

TEST(RwqPartitionTest, CrossLineStorePanics)
{
    RwqPartition partition(1, defaultConfig());
    EXPECT_THROW(push(partition, makeStore(0x1078, 16)),
                 common::SimError);
}

TEST(RwqPartitionTest, AtomicStorePanics)
{
    RwqPartition partition(1, defaultConfig());
    Store atomic = makeStore(0x1000, 8);
    atomic.is_atomic = true;
    EXPECT_THROW(push(partition, atomic), common::SimError);
}

TEST(RemoteWriteQueueTest, RoutesToPartitionByDestination)
{
    RemoteWriteQueue rwq(0, 4, defaultConfig());
    std::vector<FlushedPartition> sink;
    rwq.push(makeStore(0x1000, 8, 1), sink);
    rwq.push(makeStore(0x2000, 8, 2), sink);
    rwq.push(makeStore(0x3000, 8, 3), sink);
    EXPECT_TRUE(sink.empty());
    EXPECT_EQ(rwq.partition(1).entryCount(), 1u);
    EXPECT_EQ(rwq.partition(2).entryCount(), 1u);
    EXPECT_EQ(rwq.partition(3).entryCount(), 1u);
}

TEST(RemoteWriteQueueTest, PartitionsCoalesceIndependently)
{
    // The same address to two destinations must not interfere.
    RemoteWriteQueue rwq(0, 4, defaultConfig());
    std::vector<FlushedPartition> sink;
    rwq.push(makeStore(0x1000, 8, 1), sink);
    rwq.push(makeStore(0x1000, 8, 2), sink);
    EXPECT_EQ(rwq.partition(1).bufferedStores(), 1u);
    EXPECT_EQ(rwq.partition(2).bufferedStores(), 1u);
    EXPECT_EQ(rwq.partition(1).queueHits(), 0u);
}

TEST(RemoteWriteQueueTest, FlushAllReturnsNonEmptyPartitions)
{
    RemoteWriteQueue rwq(0, 4, defaultConfig());
    std::vector<FlushedPartition> sink;
    rwq.push(makeStore(0x1000, 8, 1), sink);
    rwq.push(makeStore(0x2000, 8, 3), sink);
    auto flushed = rwq.flushAll(FlushReason::release);
    EXPECT_EQ(flushed.size(), 2u);
    EXPECT_TRUE(rwq.partition(1).empty());
    EXPECT_TRUE(rwq.partition(3).empty());
}

TEST(RemoteWriteQueueTest, SelfPartitionRejected)
{
    RemoteWriteQueue rwq(0, 4, defaultConfig());
    std::vector<FlushedPartition> sink;
    EXPECT_THROW(rwq.push(makeStore(0x1000, 8, 0), sink), common::SimError);
    EXPECT_THROW(rwq.partition(0), common::SimError);
}

TEST(RemoteWriteQueueTest, SramFootprintMatchesTableIII)
{
    RemoteWriteQueue rwq(0, 4, defaultConfig());
    // 3 peers x 64 entries x 128 B = 24 KiB of line data per GPU.
    EXPECT_EQ(rwq.totalSramBytes(), 3u * 64 * 128);
}

TEST(QueueEntryTest, RunExtraction)
{
    QueueEntry entry;
    entry.line_addr = 0;
    // Bytes 0, 1, 5 and 127.
    entry.enables = {0b100011, std::uint64_t{1} << 63};
    std::vector<std::pair<std::uint32_t, std::uint32_t>> runs;
    entry.forEachRun([&runs](std::uint32_t start, std::uint32_t len) {
        runs.emplace_back(start, len);
    });
    EXPECT_EQ(entry.runCount(), 3u);
    ASSERT_EQ(runs.size(), 3u);
    EXPECT_EQ(runs[0], std::make_pair(0u, 2u));
    EXPECT_EQ(runs[1], std::make_pair(5u, 1u));
    EXPECT_EQ(runs[2], std::make_pair(127u, 1u));
}

TEST(QueueEntryTest, PackedCostCountsSubheaderPerRun)
{
    FinePackConfig config = defaultConfig();
    QueueEntry entry;
    for (int i = 0; i < 8; i += 2)
        entry.enables[0] |= std::uint64_t{1} << (i * 4); // 4 isolated bytes
    EXPECT_EQ(entry.packedCost(config), 4 * (config.subheader_bytes + 1));
}

TEST(QueueEntryTest, RunsJoinAcrossTheEnableWordBoundary)
{
    FinePackConfig config = defaultConfig();
    QueueEntry entry;
    // Bytes 60-67 straddle the two enable words.
    EXPECT_EQ(entry.merge(60, makeStore(60, 8)), 0u);
    EXPECT_EQ(entry.enables[0], std::uint64_t{0xf} << 60);
    EXPECT_EQ(entry.enables[1], std::uint64_t{0xf});
    EXPECT_EQ(entry.runCount(), 1u);
    EXPECT_EQ(entry.packedCost(config), 8u + config.subheader_bytes);
    EXPECT_EQ(entry.writtenSpan(), std::make_pair(60u, 68u));
    // Without byte 63 the run splits at the word boundary.
    entry.enables[0] &= ~(std::uint64_t{1} << 63);
    EXPECT_EQ(entry.runCount(), 2u);
    EXPECT_EQ(entry.packedCost(config), 7u + 2 * config.subheader_bytes);
}

TEST(QueueEntryTest, MergeCountsOverwritesAndSizesDataOnlyForPayload)
{
    QueueEntry entry;
    EXPECT_EQ(entry.merge(0, makeStore(0x1000, 8)), 0u);
    // A timing-only store enables its bytes but carries no data.
    EXPECT_FALSE(entry.hasData());
    Store payload = makeStore(0x1004, 8);
    payload.data = {1, 2, 3, 4, 5, 6, 7, 8};
    EXPECT_EQ(entry.merge(4, payload), 4u); // bytes 4-7 were enabled
    ASSERT_TRUE(entry.hasData());
    EXPECT_EQ(entry.data.size(), FinePackConfig::entry_bytes);
    EXPECT_EQ(entry.data[4], 1);
    EXPECT_EQ(entry.data[11], 8);
    EXPECT_EQ(entry.validBytes(), 12u);
    EXPECT_EQ(entry.enabledIn(0, 4), 4u);
    EXPECT_EQ(entry.enabledIn(12, 128), 0u);
}

TEST(QueueEntryTest, EmptyAndFullLines)
{
    QueueEntry entry;
    std::uint32_t runs = 0;
    entry.forEachRun([&runs](std::uint32_t, std::uint32_t) { ++runs; });
    EXPECT_EQ(runs, 0u);
    EXPECT_EQ(entry.runCount(), 0u);
    EXPECT_EQ(entry.writtenSpan(), std::make_pair(0u, 0u));

    entry.enables = {~std::uint64_t{0}, ~std::uint64_t{0}};
    entry.forEachRun([](std::uint32_t start, std::uint32_t len) {
        EXPECT_EQ(start, 0u);
        EXPECT_EQ(len, 128u);
    });
    EXPECT_EQ(entry.runCount(), 1u);
    EXPECT_EQ(entry.validBytes(), 128u);
    EXPECT_EQ(entry.writtenSpan(), std::make_pair(0u, 128u));
}

TEST(FlushReasonTest, ToStringCoversAll)
{
    EXPECT_STREQ(toString(FlushReason::window_violation),
                 "window-violation");
    EXPECT_STREQ(toString(FlushReason::payload_full), "payload-full");
    EXPECT_STREQ(toString(FlushReason::entries_full), "entries-full");
    EXPECT_STREQ(toString(FlushReason::release), "release");
    EXPECT_STREQ(toString(FlushReason::load_conflict), "load-conflict");
    EXPECT_STREQ(toString(FlushReason::atomic_conflict),
                 "atomic-conflict");
}
