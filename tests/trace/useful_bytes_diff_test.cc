/**
 * @file
 * Differential tests for useful-byte accounting: trace::summarizeTrace
 * (and the totalUsefulBytes / totalUniqueBytes wrappers) must match the
 * per-destination std::sort reference model in
 * tests/support/reference_update_summary.hh on every generated workload
 * and on seeded random iterations built to hit each corner of the
 * one-pass version: unsorted, duplicate, overlapping and adjacent
 * stores, zero-size stores and consumed ranges, stores to destinations
 * past num_gpus, short consumed lists, and begin-address spreads wide
 * enough to run every radix digit. Dense buckets, counted on bitmaps
 * when their spread is at most 64 bytes per store span, get their own
 * cases: random dense traces, buckets just either side of that
 * threshold, spans and consumed ranges that end on a 64-bit word of
 * the bitmap, and consumed ranges that touch, straddle or miss the
 * bucket's spread. Addresses at the top of the 64-bit space, whose
 * spread or end overflows, must be counted without the bitmaps
 * reaching outside their bucket. IntervalSet, which shares the
 * normalisation routine, is checked against the reference set too.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.hh"
#include "trace/trace.hh"
#include "workloads/workload.hh"
#include "../support/reference_update_summary.hh"

using namespace fp;
using fp::testing::ReferenceIntervalSet;
using fp::testing::referenceSummarizeTrace;

namespace {

void
expectMatchesReference(const trace::WorkloadTrace &trace)
{
    trace::UpdateSummary expected = referenceSummarizeTrace(trace);
    trace::UpdateSummary actual = trace::summarizeTrace(trace);
    EXPECT_EQ(actual.unique_bytes, expected.unique_bytes);
    EXPECT_EQ(actual.useful_bytes, expected.useful_bytes);
    EXPECT_EQ(trace::totalUniqueBytes(trace), expected.unique_bytes);
    EXPECT_EQ(trace::totalUsefulBytes(trace), expected.useful_bytes);
}

/**
 * Random addresses for one iteration: a base and a spread of 2^bits,
 * with bit counts chosen so that some spreads need one radix digit,
 * some skip digits every key shares, and some run all eight.
 */
struct AddressSpace
{
    Addr base = 0;
    Addr spread = 1;

    Addr
    pick(common::Rng &rng) const
    {
        return base + rng.below(spread);
    }
};

AddressSpace
randomSpace(common::Rng &rng)
{
    static const unsigned bits[] = {0, 3, 8, 9, 16, 17, 24, 33, 47, 56, 62};
    AddressSpace space;
    space.spread = Addr{1} << bits[rng.below(std::size(bits))];
    space.base = rng.chance(0.5) ? 0 : rng.below(Addr{1} << 62);
    return space;
}

std::uint32_t
randomSize(common::Rng &rng, std::uint64_t max)
{
    // Zero-size entries are rare but present; small sizes dominate so
    // that adjacency and overlap happen often.
    if (rng.chance(0.05))
        return 0;
    if (rng.chance(0.7))
        return static_cast<std::uint32_t>(rng.range(1, 16));
    return static_cast<std::uint32_t>(rng.range(1, max));
}

std::vector<icn::Store>
randomStores(common::Rng &rng, const AddressSpace &space, GpuId src,
             std::uint32_t gpus)
{
    std::vector<icn::Store> stores;
    std::size_t count = rng.below(rng.chance(0.2) ? 2000 : 64);
    // Some sources emit in address order (the sorted fast path).
    bool ascending = rng.chance(0.25);
    Addr cursor = space.base;
    for (std::size_t i = 0; i < count; ++i) {
        // Destinations past num_gpus must be ignored.
        GpuId dst = static_cast<GpuId>(rng.below(gpus + 2));
        std::uint32_t size = randomSize(rng, 4096);
        Addr addr = space.pick(rng);
        if (!stores.empty()) {
            const icn::Store &prev = stores[rng.below(stores.size())];
            switch (rng.below(6)) {
              case 0: // duplicate
                addr = prev.addr;
                size = prev.size;
                dst = prev.dst;
                break;
              case 1: // adjacent
                addr = prev.addr + prev.size;
                dst = prev.dst;
                break;
              case 2: // overlapping
                addr = prev.addr + rng.below(prev.size + 1);
                dst = prev.dst;
                break;
              default:
                break;
            }
        }
        if (ascending) {
            cursor += rng.below(64);
            addr = cursor;
        }
        stores.emplace_back(addr, size, src, dst);
    }
    return stores;
}

std::vector<icn::AddrRange>
randomConsumed(common::Rng &rng, const AddressSpace &space)
{
    std::vector<icn::AddrRange> ranges;
    std::size_t count = rng.below(rng.chance(0.2) ? 400 : 24);
    bool ascending = rng.chance(0.4);
    Addr cursor = space.base;
    for (std::size_t i = 0; i < count; ++i) {
        icn::AddrRange range{space.pick(rng), randomSize(rng, 8192)};
        if (ascending) {
            cursor += rng.below(256);
            range.base = cursor;
        } else if (!ranges.empty() && rng.chance(0.2)) {
            range.base = ranges[rng.below(ranges.size())].base; // overlap
        }
        ranges.push_back(range);
    }
    return ranges;
}

trace::WorkloadTrace
randomTrace(std::uint64_t seed)
{
    common::Rng rng(seed);
    trace::WorkloadTrace trace;
    trace.num_gpus = static_cast<std::uint32_t>(rng.range(1, 6));
    std::size_t iterations = rng.range(1, 4);
    for (std::size_t it = 0; it < iterations; ++it) {
        AddressSpace space = randomSpace(rng);
        trace::IterationWork iter;
        iter.per_gpu.resize(trace.num_gpus);
        for (GpuId g = 0; g < trace.num_gpus; ++g)
            iter.per_gpu[g].remote_stores =
                randomStores(rng, space, g, trace.num_gpus);
        // Consumed lists may be shorter or longer than num_gpus.
        iter.consumed.resize(rng.below(trace.num_gpus + 2));
        for (auto &ranges : iter.consumed)
            ranges = randomConsumed(rng, space);
        trace.iterations.push_back(std::move(iter));
    }
    return trace;
}

/**
 * One iteration of @p gpus GPUs whose stores all go to GPU 1 and whose
 * consumed list for GPU 1 is @p consumed: a single bucket.
 */
trace::WorkloadTrace
oneBucket(const std::vector<icn::Store> &stores,
          const std::vector<icn::AddrRange> &consumed)
{
    trace::WorkloadTrace trace;
    trace.num_gpus = 2;
    trace::IterationWork iter;
    iter.per_gpu.resize(2);
    iter.per_gpu[0].remote_stores = stores;
    iter.consumed.resize(2);
    iter.consumed[1] = consumed;
    trace.iterations.push_back(std::move(iter));
    return trace;
}

/**
 * A dense random trace: each bucket's stores fall in a spread of
 * bytes_per_store bytes per store, most at or under the bitmap
 * threshold of 64, a few over it, with consumed ranges anywhere from
 * a quarter of the spread below it to a quarter above.
 */
trace::WorkloadTrace
denseTrace(std::uint64_t seed)
{
    static const std::uint64_t bytes_per_store[] = {1, 4, 16, 40,
                                                    63, 64, 65, 200};
    common::Rng rng(seed);
    trace::WorkloadTrace trace;
    trace.num_gpus = static_cast<std::uint32_t>(rng.range(2, 5));
    std::size_t iterations = rng.range(1, 3);
    for (std::size_t it = 0; it < iterations; ++it) {
        trace::IterationWork iter;
        iter.per_gpu.resize(trace.num_gpus);
        iter.consumed.resize(trace.num_gpus);
        for (GpuId dst = 0; dst < trace.num_gpus; ++dst) {
            const std::uint64_t count = rng.range(1, 3000);
            const Addr spread =
                count * bytes_per_store[rng.below(std::size(
                            bytes_per_store))];
            const Addr base = rng.chance(0.5) ? rng.below(Addr{1} << 40)
                                              : rng.below(64) * 64;
            for (std::uint64_t i = 0; i < count; ++i) {
                const auto size = static_cast<std::uint32_t>(
                    rng.chance(0.9) ? rng.range(1, 16) : rng.range(1, 300));
                const GpuId src =
                    static_cast<GpuId>(rng.below(trace.num_gpus));
                iter.per_gpu[src].remote_stores.emplace_back(
                    base + rng.below(spread), size, src, dst);
            }
            const std::uint64_t ranges = rng.below(count / 4 + 2);
            for (std::uint64_t i = 0; i < ranges; ++i) {
                const Addr begin = base + rng.below(spread + spread / 2);
                iter.consumed[dst].push_back(icn::AddrRange{
                    begin >= spread / 4 ? begin - spread / 4 : 0,
                    rng.range(0, 512)});
            }
        }
        trace.iterations.push_back(std::move(iter));
    }
    return trace;
}

/**
 * One bucket dense only at a granule of 4 or 8 bytes: stores whose
 * bounds are multiples of it, 100 to 400 bytes of spread per store
 * (too sparse for a bit per byte). Its consumed ranges keep to the
 * granule inside the spread, except where @p break_inside adds one
 * that does not; unaligned ranges outside the spread, or straddling
 * its ends with the unaligned bound outside, must not matter.
 */
trace::WorkloadTrace
granuleTrace(std::uint64_t seed, bool break_inside)
{
    static const std::uint64_t bytes_per_store[] = {100, 200, 400};
    common::Rng rng(seed);
    const Addr granule = rng.chance(0.5) ? 4 : 8;
    const std::uint64_t count = rng.range(2, 2000);
    const Addr spread =
        count * bytes_per_store[rng.below(std::size(bytes_per_store))];
    const Addr lo = granule * rng.below(Addr{1} << 30);
    std::vector<icn::Store> stores;
    // The first and last stores pin the spread [lo, lo + spread).
    stores.emplace_back(lo, static_cast<std::uint32_t>(granule), 0, 1);
    for (std::uint64_t i = 2; i < count; ++i)
        stores.emplace_back(
            lo + granule * rng.below(spread / granule - 4),
            static_cast<std::uint32_t>(granule * rng.range(1, 4)), 0, 1);
    stores.emplace_back(lo + spread - granule,
                        static_cast<std::uint32_t>(granule), 0, 1);

    std::vector<icn::AddrRange> consumed;
    for (std::uint64_t i = 0; i < count / 8 + 1; ++i)
        consumed.push_back(icn::AddrRange{
            lo + granule * rng.below(spread / granule),
            granule * rng.range(0, 32)});
    // Unaligned, but only outside the spread.
    consumed.push_back(icn::AddrRange{lo + spread + 1, 3});
    if (lo >= 64)
        consumed.push_back(icn::AddrRange{lo - 63, 60});
    consumed.push_back(icn::AddrRange{lo + spread - 2 * granule,
                                      2 * granule + 5});
    if (lo >= 3)
        consumed.push_back(icn::AddrRange{lo - 3, 3 + granule});
    if (break_inside)
        consumed.push_back(icn::AddrRange{
            lo + granule * rng.below(spread / granule) + granule / 2,
            rng.range(1, 3 * granule)});
    return oneBucket(stores, consumed);
}

} // namespace

class UsefulBytesGenerated
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint32_t>>
{};

TEST_P(UsefulBytesGenerated, MatchesReference)
{
    const auto &[name, gpus] = GetParam();
    workloads::WorkloadParams params;
    params.num_gpus = gpus;
    params.scale = 0.02;
    params.seed = 7;
    trace::WorkloadTrace trace =
        workloads::createWorkload(name)->generateTrace(params);
    ASSERT_GT(trace.totalRemoteStores(), 0u);
    expectMatchesReference(trace);
    EXPECT_GT(trace::totalUsefulBytes(trace), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, UsefulBytesGenerated,
    ::testing::Combine(
        ::testing::ValuesIn(workloads::allWorkloadNames()),
        ::testing::Values(2u, 4u, 16u)),
    [](const auto &info) {
        return std::get<0>(info.param) + "_" +
               std::to_string(std::get<1>(info.param)) + "gpus";
    });

TEST(UsefulBytesDiff, RandomIterationsMatchReference)
{
    for (std::uint64_t seed = 1; seed <= 400; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        expectMatchesReference(randomTrace(seed));
    }
}

TEST(UsefulBytesDiff, WideSpreadRunsEveryDigit)
{
    // 2^62-wide random begins to one destination: every 8-bit digit of
    // the key varies, so no radix pass is skipped.
    common::Rng rng(2024);
    trace::WorkloadTrace trace;
    trace.num_gpus = 2;
    trace::IterationWork iter;
    iter.per_gpu.resize(2);
    iter.consumed.resize(2);
    for (int i = 0; i < 5000; ++i) {
        Addr addr = rng.below(Addr{1} << 62);
        auto size = static_cast<std::uint32_t>(rng.range(1, 4096));
        iter.per_gpu[0].remote_stores.emplace_back(addr, size, 0, 1);
        if (i % 3 == 0)
            iter.consumed[1].push_back(
                icn::AddrRange{addr + size / 2, rng.range(0, 8192)});
    }
    trace.iterations.push_back(iter);
    expectMatchesReference(trace);
    EXPECT_GT(trace::totalUsefulBytes(trace), 0u);
}

TEST(UsefulBytesDiff, DenseRandomIterationsMatchReference)
{
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        expectMatchesReference(denseTrace(seed));
    }
}

TEST(UsefulBytesDiff, BucketsEitherSideOfTheBitmapThreshold)
{
    // n spans over 64 n bytes take the bitmaps; over 64 n + 1 bytes
    // (one word more than spans) they are sorted. Both must agree.
    common::Rng rng(64);
    for (std::uint64_t n : {1u, 2u, 3u, 64u, 1000u}) {
        for (Addr spread : {64 * n - 1, 64 * n, 64 * n + 1, 64 * n + 64}) {
            SCOPED_TRACE("n " + std::to_string(n) + ", spread " +
                         std::to_string(spread));
            const Addr base = 0x1000 + rng.below(64);
            std::vector<icn::Store> stores;
            // The first and last stores pin the spread exactly.
            stores.emplace_back(base, 1, 0, 1);
            for (std::uint64_t i = 2; i < n; ++i)
                stores.emplace_back(base + rng.below(spread), 1, 0, 1);
            if (n > 1)
                stores.emplace_back(base + spread - 1, 1, 0, 1);
            else
                stores[0].size = static_cast<std::uint32_t>(spread);
            std::vector<icn::AddrRange> consumed;
            for (int i = 0; i < 8; ++i)
                consumed.push_back(
                    icn::AddrRange{base + rng.below(spread), rng.range(1, 80)});
            expectMatchesReference(oneBucket(stores, consumed));
        }
    }
}

TEST(UsefulBytesDiff, BucketsDenseOnlyAtTheirGranule)
{
    // Counted on bitmaps of 4- or 8-byte granules, unless a consumed
    // bound inside the spread breaks the granule.
    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
        for (bool break_inside : {false, true}) {
            SCOPED_TRACE("seed " + std::to_string(seed) +
                         (break_inside ? ", granule broken" : ""));
            expectMatchesReference(granuleTrace(seed, break_inside));
        }
    }
}

TEST(UsefulBytesDiff, SpansEndingOnBitmapWordBoundaries)
{
    // Bit 0 of the bitmaps is the bucket's lowest byte, so spans ending
    // at base + 64 k end exactly on a word; each shape is counted alone
    // and with the rest, against the reference and by hand.
    const Addr base = 0x10000 + 24; // not 64-aligned in memory
    const std::vector<std::pair<Addr, std::uint32_t>> spans = {
        {0, 64},    // exactly word 0
        {100, 28},  // ends at 128, the end of word 1
        {128, 1},   // the first byte of word 2
        {191, 1},   // the last byte of word 2
        {192, 128}, // words 3 and 4 whole
        {330, 54},  // ends at 384, the end of word 5
        {447, 2},   // crosses from word 6 into word 7
    };
    std::uint64_t written = 0;
    std::vector<icn::Store> all;
    for (const auto &[offset, size] : spans) {
        SCOPED_TRACE("span at " + std::to_string(offset));
        icn::Store store(base + offset, size, 0, 1);
        const std::vector<icn::AddrRange> consumed = {
            icn::AddrRange{base + offset, size}};
        auto one = oneBucket({store}, consumed);
        expectMatchesReference(one);
        EXPECT_EQ(trace::summarizeTrace(one).unique_bytes, size);
        EXPECT_EQ(trace::summarizeTrace(one).useful_bytes, size);
        all.push_back(store);
        written += size;
    }
    // Consumed ranges that end on words: [0, 128) and [320, 384).
    const std::vector<icn::AddrRange> consumed = {
        icn::AddrRange{base, 128}, icn::AddrRange{base + 320, 64}};
    auto trace = oneBucket(all, consumed);
    expectMatchesReference(trace);
    EXPECT_EQ(trace::summarizeTrace(trace).unique_bytes, written);
    EXPECT_EQ(trace::summarizeTrace(trace).useful_bytes,
              64u + 28u + 54u);
}

TEST(UsefulBytesDiff, ConsumedRangesAgainstTheSpread)
{
    // A dense bucket over [base, base + 256) written in full; consumed
    // ranges overlap, touch, straddle its spread or miss it.
    const Addr base = 0x7000;
    std::vector<icn::Store> stores;
    for (Addr offset = 0; offset < 256; offset += 16)
        stores.emplace_back(base + offset, 16, 0, 1);
    struct Case
    {
        const char *name;
        std::vector<icn::AddrRange> consumed;
        std::uint64_t useful;
    };
    const Case cases[] = {
        {"wholly below", {{base - 100, 100}}, 0},
        {"wholly above", {{base + 256, 4096}}, 0},
        {"far above", {{base + (Addr{1} << 40), 64}}, 0},
        {"touching both ends", {{0, base}, {base + 256, 8}}, 0},
        {"straddling the low end", {{base - 10, 20}}, 10},
        {"straddling the high end", {{base + 250, 20}}, 6},
        {"covering the spread", {{base - 64, 512}}, 256},
        {"overlapping each other", {{base + 10, 30}, {base + 20, 30}}, 40},
        {"touching each other", {{base + 10, 30}, {base + 40, 30}}, 60},
        {"zero-size at the low end", {{base, 0}}, 0},
        {"every kind at once",
         {{base - 100, 100}, {base - 10, 20}, {base + 5, 10},
          {base + 250, 20}, {base + 300, 8}},
         10 + 5 + 6},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        auto trace = oneBucket(stores, c.consumed);
        expectMatchesReference(trace);
        EXPECT_EQ(trace::summarizeTrace(trace).unique_bytes, 256u);
        EXPECT_EQ(trace::summarizeTrace(trace).useful_bytes, c.useful);
    }
}

TEST(UsefulBytesDiff, AddressesAtTheTopOfTheAddressSpace)
{
    const Addr top = ~Addr{0}; // 2^64 - 1, one past the last span byte

    // Two bytes 2^64 apart: the spread's word count overflows, so the
    // bucket must be sorted, not put on bitmaps.
    {
        auto trace = oneBucket({icn::Store(0, 1, 0, 1),
                                icn::Store(top - 1, 1, 0, 1)},
                               {{0, 1}, {top - 1, 1}});
        expectMatchesReference(trace);
        EXPECT_EQ(trace::summarizeTrace(trace).unique_bytes, 2u);
        EXPECT_EQ(trace::summarizeTrace(trace).useful_bytes, 2u);
    }

    // A dense bucket ending one byte below 2^64 takes the bitmaps.
    {
        std::vector<icn::Store> stores;
        for (Addr offset = 256; offset > 16; offset -= 16)
            stores.emplace_back(top - offset, 16, 0, 1);
        stores.emplace_back(top - 16, 16, 0, 1);
        auto trace = oneBucket(stores, {{top - 100, 100}, {0, 64}});
        expectMatchesReference(trace);
        EXPECT_EQ(trace::summarizeTrace(trace).unique_bytes, 256u);
        EXPECT_EQ(trace::summarizeTrace(trace).useful_bytes, 100u);
    }

    // A store that wraps past 2^64 (no reader makes one) sends its
    // bucket to the sort; begins are distinct, so the sort's order, and
    // with it the count, is the reference's.
    {
        SCOPED_TRACE("store wraps");
        expectMatchesReference(oneBucket(
            {icn::Store(0, 8, 0, 1), icn::Store(top - 7, 16, 0, 1)},
            {{0, 4}}));
    }
    {
        SCOPED_TRACE("store ends at 2^64");
        expectMatchesReference(oneBucket(
            {icn::Store(0x100, 8, 0, 1), icn::Store(top - 7, 8, 0, 1)},
            {{0x100, 4}}));
    }

    // So does a consumed range that wraps, in a dense bucket and in its
    // sparse twin (one far store more, which nothing consumes) alike;
    // the wrapping range overlaps nothing, so each counts 16 B.
    std::vector<icn::Store> stores;
    for (Addr offset = 0; offset < 256; offset += 16)
        stores.emplace_back(0x1000 + offset, 16, 0, 1);
    const std::vector<icn::AddrRange> wrapping = {
        {0x1010, 16}, {0x1080, Addr{0} - 0x40}};
    auto dense = oneBucket(stores, wrapping);
    stores.emplace_back(Addr{1} << 50, 1, 0, 1);
    auto sparse = oneBucket(stores, wrapping);
    {
        SCOPED_TRACE("dense, consumed range wraps");
        expectMatchesReference(dense);
    }
    {
        SCOPED_TRACE("sparse, consumed range wraps");
        expectMatchesReference(sparse);
    }
    EXPECT_EQ(trace::summarizeTrace(sparse).useful_bytes, 16u);

    // The bucket that fell back leaves the bitmaps zeroed for the next:
    // two 16 B stores in the first word of the same spread.
    dense.iterations.push_back(
        oneBucket({icn::Store(0x1000, 16, 0, 1),
                   icn::Store(0x1030, 16, 0, 1)},
                  {{0x1000, 64}})
            .iterations[0]);
    EXPECT_EQ(trace::summarizeTrace(dense).unique_bytes, 256u + 32u);
    EXPECT_EQ(trace::summarizeTrace(dense).useful_bytes,
              trace::summarizeTrace(sparse).useful_bytes + 32);
}

TEST(UsefulBytesDiff, EmptyAndDegenerateTraces)
{
    trace::WorkloadTrace trace;
    expectMatchesReference(trace); // no GPUs, no iterations

    trace.num_gpus = 3;
    trace::IterationWork iter;
    iter.per_gpu.resize(3);
    expectMatchesReference(trace); // no iterations
    trace.iterations.push_back(iter);
    expectMatchesReference(trace); // no stores, no consumed lists

    // Only zero-size stores and stores past num_gpus: nothing counts.
    trace.iterations[0].per_gpu[0].remote_stores.emplace_back(0x40, 0, 0,
                                                              1);
    trace.iterations[0].per_gpu[1].remote_stores.emplace_back(0x40, 8, 1,
                                                              7);
    trace.iterations[0].consumed.resize(1);
    trace.iterations[0].consumed[0].push_back(icn::AddrRange{0x40, 0});
    expectMatchesReference(trace);
    EXPECT_EQ(trace::totalUniqueBytes(trace), 0u);
}

TEST(IntervalSetDiff, RandomSetsMatchReference)
{
    common::Rng rng(99);
    for (int round = 0; round < 300; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        AddressSpace space = randomSpace(rng);
        trace::IntervalSet a, b;
        ReferenceIntervalSet ref_a, ref_b;
        std::size_t count = rng.below(200);
        for (std::size_t i = 0; i < count; ++i) {
            Addr base = space.pick(rng);
            std::uint64_t size = randomSize(rng, 4096);
            a.add(base, size);
            ref_a.add(base, size);
            if (rng.chance(0.5)) {
                base = space.pick(rng);
                b.add(base, size);
                ref_b.add(base, size);
            }
            // Re-normalising after every few adds exercises the
            // dirty-flag path.
            if (rng.chance(0.05)) {
                EXPECT_EQ(a.totalBytes(), ref_a.totalBytes());
            }
        }
        EXPECT_EQ(a.intervals(), ref_a.intervals());
        EXPECT_EQ(b.intervals(), ref_b.intervals());
        EXPECT_EQ(a.intersectBytes(b), ref_a.intersectBytes(ref_b));
    }
}
