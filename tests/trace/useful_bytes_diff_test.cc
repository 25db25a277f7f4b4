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
 * enough to run every radix digit. IntervalSet, which shares the
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
