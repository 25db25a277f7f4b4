/**
 * @file
 * Differential tests of the line store: the remote write queue and the
 * write-combining buffer, held as tag-scanned slots with two 64-bit
 * byte-enable words, against the reference model of the bitset /
 * hash-map code they replaced (tests/support/reference_rwq.hh).
 *
 * Seeded random streams drive both versions side by side: dense and
 * scattered streams, stores around the enable-word boundary (bytes
 * 56-72 of a line), full 128 B lines, stores with and without payload,
 * 1 to 8 windows, 2 B sub-headers whose 64 B windows split stores at
 * the window grid, atomics and loads through flushIfConflict(), and a
 * write-combining buffer evicting at capacity. After every operation
 * the two must have handed downstream exactly the same flushes
 * (destination, window base, reason, store count, stamps, and each
 * entry's tag, enabled bytes and data) or evictions, and must agree on
 * every register and lifetime counter.
 */

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "common/random.hh"
#include "finepack/remote_write_queue.hh"
#include "finepack/write_combine.hh"
#include "../support/reference_rwq.hh"

using namespace fp;
using namespace fp::finepack;
using fp::icn::Store;
using fp::testing::ReferenceFlushedPartition;
using fp::testing::ReferenceQueueEntry;
using fp::testing::ReferenceRwqPartition;
using fp::testing::ReferenceWcLine;
using fp::testing::ReferenceWriteCombineBuffer;

namespace {

enum class Stream {
    dense,     ///< short stores walking a few KiB, with restarts
    scattered, ///< short stores anywhere in eight 4 MiB-apart regions
    boundary,  ///< stores touching bytes 56-72 of 64 hot lines
    full_line, ///< whole 128 B lines
};

const char *
streamName(Stream stream)
{
    switch (stream) {
      case Stream::dense: return "dense";
      case Stream::scattered: return "scattered";
      case Stream::boundary: return "boundary";
      case Stream::full_line: return "full_line";
    }
    return "?";
}

/** Random line-contained stores of one stream shape to GPU 1. */
class StoreStream
{
  public:
    StoreStream(Stream stream, std::uint64_t seed)
        : _stream(stream), _rng(seed)
    {}

    Store
    next()
    {
        Addr addr = 0;
        std::uint32_t size = 0;
        switch (_stream) {
          case Stream::dense:
            if (_rng.chance(0.02))
                _cursor = _rng.below(16) * 0x100000;
            addr = _cursor + _rng.below(64);
            size = static_cast<std::uint32_t>(_rng.range(1, 16));
            _cursor += _rng.below(24);
            break;
          case Stream::scattered:
            addr = _rng.below(8) * 0x400000 + _rng.below(64 * KiB);
            size = static_cast<std::uint32_t>(_rng.range(1, 32));
            break;
          case Stream::boundary:
            addr = _rng.below(64) * 128 + _rng.range(48, 72);
            size = static_cast<std::uint32_t>(_rng.range(1, 16));
            break;
          case Stream::full_line:
            addr = _rng.below(256) * 128;
            size = 128;
            break;
        }
        Addr line_end = (addr & ~Addr{127}) + 128;
        if (addr + size > line_end)
            size = static_cast<std::uint32_t>(line_end - addr);
        if (_stream == Stream::boundary && addr % 128 + size <= 56)
            size = static_cast<std::uint32_t>(56 - addr % 128 + 1);

        Store store(addr, size, 0, 1);
        if (_rng.chance(0.5)) {
            store.data.resize(size);
            for (auto &byte : store.data)
                byte = static_cast<std::uint8_t>(_rng.next());
        }
        if (_rng.chance(0.5))
            store.issue_tick = _rng.below(1'000'000);
        return store;
    }

    common::Rng &rng() { return _rng; }

  private:
    Stream _stream;
    common::Rng _rng;
    Addr _cursor = 0;
};

/** Does @p entry hold exactly what the reference entry holds? */
::testing::AssertionResult
sameEntry(const QueueEntry &entry, const ReferenceQueueEntry &ref)
{
    if (entry.line_addr != ref.line_addr) {
        return ::testing::AssertionFailure()
               << "tag " << entry.line_addr << " vs " << ref.line_addr;
    }
    for (std::uint32_t i = 0; i < FinePackConfig::entry_bytes; ++i) {
        if (entry.enabled(i) != ref.mask.test(i)) {
            return ::testing::AssertionFailure()
                   << "line " << entry.line_addr << " byte " << i
                   << " enabled " << entry.enabled(i) << " vs "
                   << ref.mask.test(i);
        }
    }
    if (entry.hasData() != ref.has_data) {
        return ::testing::AssertionFailure()
               << "line " << entry.line_addr << " has data "
               << entry.hasData() << " vs " << ref.has_data;
    }
    if (entry.hasData() && entry.data != ref.data) {
        return ::testing::AssertionFailure()
               << "line " << entry.line_addr << " data differs";
    }
    return ::testing::AssertionSuccess();
}

::testing::AssertionResult
sameFlushes(const std::vector<FlushedPartition> &got,
            const std::vector<ReferenceFlushedPartition> &ref)
{
    if (got.size() != ref.size()) {
        return ::testing::AssertionFailure()
               << got.size() << " flushes vs " << ref.size();
    }
    for (std::size_t f = 0; f < got.size(); ++f) {
        const FlushedPartition &a = got[f];
        const ReferenceFlushedPartition &b = ref[f];
        if (a.dst != b.dst || a.window_base != b.window_base ||
            a.reason != b.reason ||
            a.packed_store_count != b.packed_store_count ||
            a.entries.size() != b.entries.size() ||
            a.store_stamps.size() != b.store_stamps.size()) {
            return ::testing::AssertionFailure()
                   << "flush " << f << ": dst " << a.dst << "/" << b.dst
                   << ", base " << a.window_base << "/" << b.window_base
                   << ", reason " << toString(a.reason) << "/"
                   << toString(b.reason) << ", stores "
                   << a.packed_store_count << "/" << b.packed_store_count
                   << ", entries " << a.entries.size() << "/"
                   << b.entries.size() << ", stamps "
                   << a.store_stamps.size() << "/" << b.store_stamps.size();
        }
        for (std::size_t s = 0; s < a.store_stamps.size(); ++s) {
            if (a.store_stamps[s].issue != b.store_stamps[s].issue ||
                a.store_stamps[s].size != b.store_stamps[s].size) {
                return ::testing::AssertionFailure()
                       << "flush " << f << " stamp " << s << " differs";
            }
        }
        for (std::size_t e = 0; e < a.entries.size(); ++e) {
            auto same = sameEntry(a.entries[e], b.entries[e]);
            if (!same)
                return same << " (flush " << f << " entry " << e << ")";
        }
    }
    return ::testing::AssertionSuccess();
}

/** Registers and lifetime counters of the two partitions. */
::testing::AssertionResult
sameState(const RwqPartition &got, const ReferenceRwqPartition &ref)
{
    if (got.storesPushed() != ref.storesPushed() ||
        got.bytesPushed() != ref.bytesPushed() ||
        got.queueHits() != ref.queueHits() ||
        got.bytesElided() != ref.bytesElided()) {
        return ::testing::AssertionFailure()
               << "pushed " << got.storesPushed() << "/"
               << ref.storesPushed() << ", bytes " << got.bytesPushed()
               << "/" << ref.bytesPushed() << ", hits " << got.queueHits()
               << "/" << ref.queueHits() << ", elided "
               << got.bytesElided() << "/" << ref.bytesElided();
    }
    for (std::size_t r = 0; r < 6; ++r) {
        auto reason = static_cast<FlushReason>(r);
        if (got.flushes(reason) != ref.flushes(reason)) {
            return ::testing::AssertionFailure()
                   << toString(reason) << " flushes " << got.flushes(reason)
                   << " vs " << ref.flushes(reason);
        }
    }
    for (std::uint32_t w = 0; w < got.windowCount(); ++w) {
        const RwqWindow &a = got.window(w);
        const auto &b = ref.windows()[w];
        if (a.entryCount() != b.entryCount() ||
            a.bufferedStores() != b.bufferedStores() ||
            a.availablePayload() != b.availablePayload()) {
            return ::testing::AssertionFailure()
                   << "window " << w << ": entries " << a.entryCount()
                   << "/" << b.entryCount() << ", stores "
                   << a.bufferedStores() << "/" << b.bufferedStores()
                   << ", available payload " << a.availablePayload() << "/"
                   << b.availablePayload();
        }
    }
    return ::testing::AssertionSuccess();
}

struct RwqCase
{
    Stream stream;
    std::uint32_t subheader_bytes;
    std::uint32_t windows;
};

std::string
caseName(const RwqCase &c)
{
    return std::string(streamName(c.stream)) + "_sub" +
           std::to_string(c.subheader_bytes) + "_windows" +
           std::to_string(c.windows);
}

/** gtest names a case by its name, not by its bytes. */
void
PrintTo(const RwqCase &c, std::ostream *os)
{
    *os << caseName(c);
}

std::vector<RwqCase>
rwqCases()
{
    std::vector<RwqCase> cases;
    for (Stream stream : {Stream::dense, Stream::scattered, Stream::boundary,
                          Stream::full_line})
        for (std::uint32_t subheader : {2u, 5u})
            for (std::uint32_t windows : {1u, 2u, 4u, 8u})
                cases.push_back({stream, subheader, windows});
    return cases;
}

class RwqDifferential : public ::testing::TestWithParam<RwqCase>
{};

TEST_P(RwqDifferential, SameFlushesAndCountersAsTheReference)
{
    const RwqCase &c = GetParam();
    FinePackConfig config = configWithSubheader(c.subheader_bytes);
    config.windows_per_partition = c.windows;
    config.validate();

    RwqPartition partition(1, config);
    ReferenceRwqPartition reference(1, config);
    StoreStream stream(c.stream,
                       0x5eed0000 + static_cast<std::uint64_t>(c.stream) *
                                        1000 +
                           c.windows * 10 + c.subheader_bytes);

    std::vector<FlushedPartition> sink;
    std::vector<ReferenceFlushedPartition> ref_sink;
    for (int step = 0; step < 4000; ++step) {
        sink.clear();
        ref_sink.clear();
        Store store = stream.next();
        common::Rng &rng = stream.rng();
        if (rng.chance(0.03)) {
            // A remote load or atomic to (or near) the store's bytes:
            // flushes every window when it overlaps a buffered byte.
            auto reason = rng.chance(0.5) ? FlushReason::load_conflict
                                          : FlushReason::atomic_conflict;
            bool hit = partition.flushIfConflict(store.addr, store.size,
                                                 reason, sink);
            bool ref_hit = reference.flushIfConflict(
                store.addr, store.size, reason, ref_sink);
            ASSERT_EQ(hit, ref_hit) << "step " << step;
        } else if (rng.chance(0.005)) {
            partition.flush(FlushReason::release, sink);
            reference.flush(FlushReason::release, ref_sink);
        } else {
            partition.push(store, sink);
            reference.push(store, ref_sink);
        }
        ASSERT_TRUE(sameFlushes(sink, ref_sink)) << "step " << step;
        ASSERT_TRUE(sameState(partition, reference)) << "step " << step;
    }
    sink.clear();
    ref_sink.clear();
    partition.flush(FlushReason::release, sink);
    reference.flush(FlushReason::release, ref_sink);
    ASSERT_TRUE(sameFlushes(sink, ref_sink)) << "final release";
    ASSERT_TRUE(sameState(partition, reference)) << "final release";
}

INSTANTIATE_TEST_SUITE_P(
    Streams, RwqDifferential, ::testing::ValuesIn(rwqCases()),
    [](const ::testing::TestParamInfo<RwqCase> &info) {
        return caseName(info.param);
    });

::testing::AssertionResult
sameLine(const WcLine &line, const ReferenceWcLine &ref)
{
    if (line.folded != ref.folded) {
        return ::testing::AssertionFailure()
               << "folded " << line.folded << " vs " << ref.folded;
    }
    return sameEntry(line.entry, ref.entry);
}

struct WcCase
{
    Stream stream;
    std::uint32_t lines;
};

std::string
caseName(const WcCase &c)
{
    return std::string(streamName(c.stream)) + "_lines" +
           std::to_string(c.lines);
}

void
PrintTo(const WcCase &c, std::ostream *os)
{
    *os << caseName(c);
}

class WriteCombineDifferential : public ::testing::TestWithParam<WcCase>
{};

TEST_P(WriteCombineDifferential, SameEvictionsAndFlushesAsTheReference)
{
    const WcCase &c = GetParam();
    WriteCombineBuffer wc(0, 1, c.lines);
    ReferenceWriteCombineBuffer reference(c.lines);
    StoreStream stream(c.stream, 0x3c0000 + c.lines);

    std::uint64_t evictions = 0;
    for (int step = 0; step < 4000; ++step) {
        Store store = stream.next();
        auto evicted = wc.push(store);
        auto ref_evicted = reference.push(store);
        ASSERT_EQ(evicted.has_value(), ref_evicted.has_value())
            << "step " << step;
        if (evicted) {
            ++evictions;
            ASSERT_TRUE(sameLine(*evicted, *ref_evicted))
                << "eviction at step " << step;
        }
        if (stream.rng().chance(0.002) || step == 3999) {
            auto lines = wc.flushAll();
            auto ref_lines = reference.flushAll();
            ASSERT_EQ(lines.size(), ref_lines.size()) << "step " << step;
            for (std::size_t i = 0; i < lines.size(); ++i)
                ASSERT_TRUE(sameLine(lines[i], ref_lines[i]))
                    << "flushed line " << i << " at step " << step;
        }
        ASSERT_EQ(wc.lineCount(), reference.lineCount()) << "step " << step;
        ASSERT_EQ(wc.storesPushed(), reference.storesPushed());
        ASSERT_EQ(wc.bytesElided(), reference.bytesElided())
            << "step " << step;
    }
    EXPECT_GT(evictions, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Streams, WriteCombineDifferential,
    ::testing::Values(WcCase{Stream::dense, 4}, WcCase{Stream::dense, 64},
                      WcCase{Stream::scattered, 8},
                      WcCase{Stream::scattered, 64},
                      WcCase{Stream::boundary, 16},
                      WcCase{Stream::full_line, 64}),
    [](const ::testing::TestParamInfo<WcCase> &info) {
        return caseName(info.param);
    });

} // namespace
