/**
 * Property-based tests over the FinePack pipeline: for randomized store
 * streams, the coalesce -> packetize -> de-packetize -> apply path must
 * be semantically equivalent to applying the stores directly (the GPU
 * weak memory model only lets FinePack reorder/merge stores *between*
 * synchronization points, and same-address program order must hold).
 *
 * Parameterized over sub-header geometry (Table II) and stream shapes.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "common/random.hh"
#include "finepack/packetizer.hh"
#include "finepack/remote_write_queue.hh"
#include "finepack/write_combine.hh"
#include "gpu/functional_memory.hh"
#include "../support/payload_bytes.hh"

using namespace fp;
using namespace fp::finepack;
using fp::gpu::FunctionalMemory;
using fp::icn::Store;

namespace {

/** Release every window of @p partition; the flushes it produced. */
std::vector<FlushedPartition>
release(RwqPartition &partition)
{
    std::vector<FlushedPartition> sink;
    partition.flush(FlushReason::release, sink);
    return sink;
}

/** Shape of a random store stream. */
struct StreamShape
{
    const char *name;
    Addr region_size;      ///< addresses drawn from [base, base+size)
    std::uint32_t max_store; ///< store sizes in [1, max_store]
    bool sequential;       ///< ascending with jitter vs uniform random
};

const StreamShape stream_shapes[] = {
    {"dense_sequential", 64 * KiB, 16, true},
    {"sparse_random", 8 * MiB, 8, false},
    {"wide_random", 2 * GiB, 32, false},
    {"hot_set", 4 * KiB, 8, false},
};

class PipelineProperty
    : public ::testing::TestWithParam<
          std::tuple<std::uint32_t /*subheader*/, int /*shape*/,
                     std::uint64_t /*seed*/>>
{
  protected:
    FinePackConfig
    config() const
    {
        return configWithSubheader(std::get<0>(GetParam()));
    }

    const StreamShape &
    shape() const
    {
        return stream_shapes[std::get<1>(GetParam())];
    }

    std::uint64_t seed() const { return std::get<2>(GetParam()); }

    /** Generate one random, line-contained store with payload data. */
    Store
    randomStore(common::Rng &rng, Addr base)
    {
        const StreamShape &s = shape();
        Addr addr;
        if (s.sequential) {
            _cursor += rng.below(256);
            addr = base + (_cursor % s.region_size);
        } else {
            addr = base + rng.below(s.region_size);
        }
        auto size = static_cast<std::uint32_t>(
            rng.range(1, s.max_store));
        Addr line_end = (addr & ~Addr{127}) + 128;
        if (addr + size > line_end)
            size = static_cast<std::uint32_t>(line_end - addr);

        Store store(addr, size, 0, 1);
        std::vector<std::uint8_t> bytes(size);
        for (auto &byte : bytes)
            byte = static_cast<std::uint8_t>(rng.next());
        store.data = fp::testing::payload(std::move(bytes));
        return store;
    }

  private:
    Addr _cursor = 0;
};

} // namespace

TEST_P(PipelineProperty, FinePackDeliveryMatchesDirectDelivery)
{
    FinePackConfig cfg = config();
    common::Rng rng(seed());
    const Addr base = 0x40000000;

    RwqPartition partition(1, cfg);
    Packetizer packetizer(0, cfg);

    FunctionalMemory direct, via_finepack;

    auto deliver = [&](const FlushedPartition &flushed) {
        if (flushed.empty())
            return;
        FinePackTransaction txn = packetizer.packetize(flushed);
        for (const Store &store : txn.unpack())
            via_finepack.apply(store);
    };

    const int stores = 3000;
    std::vector<FlushedPartition> sink;
    for (int i = 0; i < stores; ++i) {
        Store store = randomStore(rng, base);
        direct.apply(store);
        sink.clear();
        partition.push(store, sink);
        for (const auto &flushed : sink)
            deliver(flushed);
        // Occasional synchronization points.
        if (rng.chance(0.01)) {
            for (const auto &flushed : release(partition))
                deliver(flushed);
        }
    }
    for (const auto &flushed : release(partition))
        deliver(flushed);

    EXPECT_TRUE(direct.sameContents(via_finepack))
        << "memory divergence for shape " << shape().name;
}

TEST_P(PipelineProperty, TransactionsRespectFormatLimits)
{
    FinePackConfig cfg = config();
    common::Rng rng(seed() ^ 0x1111);
    const Addr base = 0x40000000;

    RwqPartition partition(1, cfg);
    Packetizer packetizer(0, cfg);

    auto check = [&](const FlushedPartition &flushed) {
        if (flushed.empty())
            return;
        FinePackTransaction txn = packetizer.packetize(flushed);
        EXPECT_LE(txn.rawPayloadBytes(), cfg.max_payload);
        for (const SubPacket &sub : txn.subPackets()) {
            EXPECT_LT(sub.offset + sub.length, cfg.addressableRange() + 1);
            EXPECT_LT(sub.length, 1u << cfg.length_bits);
            EXPECT_GT(sub.length, 0u);
        }
    };

    std::vector<FlushedPartition> sink;
    for (int i = 0; i < 3000; ++i) {
        sink.clear();
        partition.push(randomStore(rng, base), sink);
        for (const auto &flushed : sink)
            check(flushed);
    }
    for (const auto &flushed : release(partition))
        check(flushed);
}

TEST_P(PipelineProperty, ByteConservation)
{
    // pushed bytes == delivered unique bytes + elided (overwritten).
    FinePackConfig cfg = config();
    common::Rng rng(seed() ^ 0x2222);
    const Addr base = 0x40000000;

    RwqPartition partition(1, cfg);
    std::uint64_t pushed = 0, delivered = 0;

    auto account = [&](const FlushedPartition &flushed) {
        for (const QueueEntry &entry : flushed.entries)
            delivered += entry.validBytes();
    };

    std::vector<FlushedPartition> sink;
    for (int i = 0; i < 2000; ++i) {
        Store store = randomStore(rng, base);
        pushed += store.size;
        sink.clear();
        partition.push(store, sink);
        for (const auto &flushed : sink)
            account(flushed);
    }
    for (const auto &flushed : release(partition))
        account(flushed);

    EXPECT_EQ(pushed, delivered + partition.bytesElided());
    EXPECT_EQ(pushed, partition.bytesPushed());
}

TEST_P(PipelineProperty, EntryAndPayloadInvariantsHoldThroughout)
{
    FinePackConfig cfg = config();
    common::Rng rng(seed() ^ 0x3333);
    const Addr base = 0x40000000;

    RwqPartition partition(1, cfg);
    std::vector<FlushedPartition> sink;
    for (int i = 0; i < 2000; ++i) {
        partition.push(randomStore(rng, base), sink);
        ASSERT_LE(partition.entryCount(), cfg.queue_entries);
        ASSERT_LE(partition.window(0).availablePayload(), cfg.max_payload);
        if (!partition.empty()) {
            // The available payload register is exactly max minus the
            // packed cost of everything buffered.
            std::uint64_t cost = 0;
            for (const FlushedPartition &snapshot : release(partition))
                for (const QueueEntry &entry : snapshot.entries)
                    cost += entry.packedCost(cfg);
            EXPECT_LE(cost, cfg.max_payload);
            // Re-push is unnecessary; one consistency probe per stream
            // position is enough.
            break;
        }
    }
}

TEST_P(PipelineProperty, WriteCombineDeliveryMatchesDirectDelivery)
{
    common::Rng rng(seed() ^ 0x4444);
    const Addr base = 0x40000000;

    WriteCombineBuffer wc(0, 1, 64);
    icn::PcieProtocol protocol(icn::PcieGen::gen4);
    FunctionalMemory direct, via_wc;

    auto deliver = [&](const WcLine &line) {
        auto msg = wc.lineToMessage(line, protocol);
        for (const Store &store : msg->stores)
            via_wc.apply(store);
    };

    for (int i = 0; i < 3000; ++i) {
        Store store = randomStore(rng, base);
        direct.apply(store);
        auto evicted = wc.push(store);
        if (evicted)
            deliver(*evicted);
    }
    for (const WcLine &line : wc.flushAll())
        deliver(line);

    EXPECT_TRUE(direct.sameContents(via_wc));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PipelineProperty,
    ::testing::Combine(::testing::Values(2u, 3u, 4u, 5u, 6u),
                       ::testing::Range(0, 4),
                       ::testing::Values(1ull, 42ull, 20260705ull)),
    [](const auto &info) {
        return "sub" + std::to_string(std::get<0>(info.param)) + "_" +
               stream_shapes[std::get<1>(info.param)].name + "_seed" +
               std::to_string(std::get<2>(info.param));
    });
