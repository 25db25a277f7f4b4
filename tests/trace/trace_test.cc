/** Unit tests for trace structures, intervals, and serialization. */

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "gpu/warp_coalescer.hh"
#include "trace/store_stream.hh"
#include "trace/trace.hh"
#include "workloads/workload.hh"

using namespace fp;
using namespace fp::trace;

TEST(IntervalSetTest, MergesOverlapsAndAdjacency)
{
    IntervalSet set;
    set.add(0, 10);
    set.add(5, 10);  // overlap
    set.add(15, 5);  // adjacent
    set.add(100, 1); // disjoint
    EXPECT_EQ(set.totalBytes(), 21u);
    EXPECT_EQ(set.intervalCount(), 2u);
}

TEST(IntervalSetTest, ContainsQueries)
{
    IntervalSet set;
    set.add(10, 10);
    EXPECT_TRUE(set.contains(10));
    EXPECT_TRUE(set.contains(19));
    EXPECT_FALSE(set.contains(20));
    EXPECT_FALSE(set.contains(9));
    EXPECT_FALSE(set.contains(0));
}

TEST(IntervalSetTest, IntersectionBytes)
{
    IntervalSet a, b;
    a.add(0, 100);
    a.add(200, 50);
    b.add(50, 100); // overlaps [50,100) of the first span
    b.add(240, 100); // overlaps [240,250) of the second
    EXPECT_EQ(a.intersectBytes(b), 50u + 10u);
    // Symmetric.
    EXPECT_EQ(b.intersectBytes(a), 60u);
}

TEST(IntervalSetTest, EmptySetBehaviour)
{
    IntervalSet a, b;
    EXPECT_EQ(a.totalBytes(), 0u);
    EXPECT_EQ(a.intersectBytes(b), 0u);
    EXPECT_FALSE(a.contains(0));
    a.add(0, 0); // zero-size add is a no-op
    EXPECT_EQ(a.totalBytes(), 0u);
}

TEST(UpdateSummaryTest, UniqueAndUsefulBytes)
{
    WorkloadTrace trace;
    trace.num_gpus = 2;
    IterationWork iter;
    iter.per_gpu.resize(2);
    iter.consumed.resize(2);
    // GPU 0 stores to GPU 1: two overlapping 8 B stores + one far one.
    iter.per_gpu[0].remote_stores.emplace_back(0x1000, 8, 0, 1);
    iter.per_gpu[0].remote_stores.emplace_back(0x1004, 8, 0, 1);
    iter.per_gpu[0].remote_stores.emplace_back(0x9000, 8, 0, 1);
    // GPU 1 only reads the first region; GPU 0 reads what nobody
    // sends it, which adds nothing.
    iter.consumed[1].push_back(icn::AddrRange{0x1000, 64});
    iter.consumed[0].push_back(icn::AddrRange{0x1000, 64});
    trace.iterations.push_back(iter);

    UpdateSummary summary = summarizeTrace(trace);
    EXPECT_EQ(summary.unique_bytes, 12u + 8u);
    EXPECT_EQ(summary.useful_bytes, 12u);
    EXPECT_EQ(totalUniqueBytes(trace), 12u + 8u);
    EXPECT_EQ(totalUsefulBytes(trace), 12u);

    // Totals sum over iterations.
    trace.iterations.push_back(iter);
    EXPECT_EQ(totalUniqueBytes(trace), 2u * (12u + 8u));
    EXPECT_EQ(totalUsefulBytes(trace), 2u * 12u);
}

TEST(UpdateSummaryTest, MultipleSourcesAggregate)
{
    WorkloadTrace trace;
    trace.num_gpus = 3;
    IterationWork iter;
    iter.per_gpu.resize(3);
    iter.consumed.resize(3);
    iter.per_gpu[0].remote_stores.emplace_back(0x100, 8, 0, 2);
    iter.per_gpu[1].remote_stores.emplace_back(0x104, 8, 1, 2);
    iter.consumed[2].push_back(icn::AddrRange{0x100, 16});
    trace.iterations.push_back(iter);
    EXPECT_EQ(totalUniqueBytes(trace), 12u); // merged overlap
    EXPECT_EQ(totalUsefulBytes(trace), 12u);
}

TEST(StoreStreamTest, LaneWritesFormWarps)
{
    gpu::WarpCoalescer coalescer;
    std::vector<icn::Store> sink;
    {
        StoreStreamBuilder stream(0, sink, coalescer, 8);
        for (int i = 0; i < 8; ++i)
            stream.laneWrite(1, 0x1000 + i * 8, 8);
        // Warp filled (8 lanes) -> flushed automatically.
        EXPECT_EQ(sink.size(), 1u);
        EXPECT_EQ(sink[0].size, 64u);
    }
}

TEST(StoreStreamTest, DestinationChangeFlushesWarp)
{
    gpu::WarpCoalescer coalescer;
    std::vector<icn::Store> sink;
    StoreStreamBuilder stream(0, sink, coalescer, 32);
    stream.laneWrite(1, 0x1000, 8);
    stream.laneWrite(2, 0x2000, 8); // different destination
    stream.flushWarp();
    ASSERT_EQ(sink.size(), 2u);
    EXPECT_EQ(sink[0].dst, 1u);
    EXPECT_EQ(sink[1].dst, 2u);
}

TEST(StoreStreamTest, ScalarWritesNeverCoalesceTogether)
{
    gpu::WarpCoalescer coalescer;
    std::vector<icn::Store> sink;
    StoreStreamBuilder stream(0, sink, coalescer, 32);
    stream.scalarWrite(1, 0x1000, 8);
    stream.scalarWrite(1, 0x1008, 8); // adjacent, but separate op
    EXPECT_EQ(sink.size(), 2u);
    EXPECT_EQ(sink[0].size, 8u);
    EXPECT_EQ(sink[1].size, 8u);
}

TEST(StoreStreamTest, DestructorFlushesPending)
{
    gpu::WarpCoalescer coalescer;
    std::vector<icn::Store> sink;
    {
        StoreStreamBuilder stream(0, sink, coalescer, 32);
        stream.laneWrite(1, 0x1000, 8);
    }
    EXPECT_EQ(sink.size(), 1u);
}

TEST(TraceSerializationTest, RoundTrip)
{
    WorkloadTrace trace;
    trace.workload = "unit";
    trace.comm_pattern = "peer-to-peer";
    trace.num_gpus = 2;
    IterationWork iter;
    iter.per_gpu.resize(2);
    iter.per_gpu[0].flops = 123.5;
    iter.per_gpu[0].local_bytes = 9999;
    iter.per_gpu[0].dma_extra_local_bytes = 42;
    iter.per_gpu[0].remote_stores.emplace_back(0x1000, 16, 0, 1);
    iter.per_gpu[0].remote_stores.back().is_atomic = true;
    iter.per_gpu[0].dma_copies.push_back(
        DmaCopy{1, icn::AddrRange{0x2000, 64}});
    iter.consumed.resize(2);
    iter.consumed[1].push_back(icn::AddrRange{0x1000, 16});
    trace.iterations.push_back(iter);
    trace.single_gpu_work.emplace_back(246.0, 20000u);

    std::stringstream buffer;
    writeTrace(trace, buffer);
    WorkloadTrace copy = readTrace(buffer);

    EXPECT_EQ(copy.workload, "unit");
    EXPECT_EQ(copy.comm_pattern, "peer-to-peer");
    EXPECT_EQ(copy.num_gpus, 2u);
    ASSERT_EQ(copy.numIterations(), 1u);
    const auto &gpu0 = copy.iterations[0].per_gpu[0];
    EXPECT_DOUBLE_EQ(gpu0.flops, 123.5);
    EXPECT_EQ(gpu0.local_bytes, 9999u);
    EXPECT_EQ(gpu0.dma_extra_local_bytes, 42u);
    ASSERT_EQ(gpu0.remote_stores.size(), 1u);
    EXPECT_EQ(gpu0.remote_stores[0].addr, 0x1000u);
    EXPECT_TRUE(gpu0.remote_stores[0].is_atomic);
    ASSERT_EQ(gpu0.dma_copies.size(), 1u);
    EXPECT_EQ(gpu0.dma_copies[0].range.size, 64u);
    ASSERT_EQ(copy.iterations[0].consumed[1].size(), 1u);
    EXPECT_DOUBLE_EQ(copy.single_gpu_work[0].first, 246.0);
}

TEST(TraceSerializationTest, WriteReadWriteIsByteIdenticalForEveryWorkload)
{
    for (const std::string &app : workloads::allWorkloadNames()) {
        for (std::uint32_t gpus : {2u, 4u, 16u}) {
            SCOPED_TRACE(app + " at " + std::to_string(gpus) + " GPUs");
            workloads::WorkloadParams params;
            params.num_gpus = gpus;
            params.scale = 0.0025;
            const WorkloadTrace trace =
                workloads::createWorkload(app)->generateTrace(params);
            std::stringstream first;
            writeTrace(trace, first);
            const std::string bytes = first.str();
            const WorkloadTrace copy = readTrace(first);
            EXPECT_EQ(copy.totalRemoteStores(), trace.totalRemoteStores());
            std::stringstream second;
            writeTrace(copy, second);
            EXPECT_TRUE(second.str() == bytes);
        }
    }
}

TEST(TraceSerializationTest, BadMagicPanics)
{
    std::stringstream buffer;
    buffer << "not a trace at all";
    EXPECT_THROW(readTrace(buffer), common::SimError);
}

namespace {

/**
 * The corruption corpus's trace: jacobi at scale 0.01 on 2 GPUs, with a
 * consumed set and single-GPU work added so every section holds records.
 */
WorkloadTrace
corpusTrace()
{
    workloads::WorkloadParams params;
    params.num_gpus = 2;
    params.scale = 0.01;
    WorkloadTrace trace =
        workloads::createWorkload("jacobi")->generateTrace(params);
    trace.iterations[0].consumed.resize(2);
    trace.iterations[0].consumed[1].push_back(icn::AddrRange{0x1000, 16});
    trace.single_gpu_work.emplace_back(246.0, 20000u);
    return trace;
}

std::string
serialize(const WorkloadTrace &trace)
{
    std::stringstream buffer;
    writeTrace(trace, buffer);
    return buffer.str();
}

/** The offset and width of every record count in a v2 trace. */
struct CountField
{
    std::size_t offset;
    std::size_t width;
};

std::vector<CountField>
countFields(const WorkloadTrace &trace)
{
    std::vector<CountField> fields;
    std::size_t at = 24; // magic, version, byte-order mark, total length
    for (const std::string *s : {&trace.workload, &trace.comm_pattern}) {
        fields.push_back({at, 4});
        at += 4 + s->size();
    }
    at += 4; // GPU count of the system (not a record count)
    fields.push_back({at, 4});
    at += 4;
    for (const auto &iter : trace.iterations) {
        fields.push_back({at, 4});
        at += 4;
        for (const auto &gpu : iter.per_gpu) {
            at += 3 * 8;
            fields.push_back({at, 8});
            at += 8 + 32 * gpu.remote_stores.size();
            fields.push_back({at, 8});
            at += 8 + 24 * gpu.dma_copies.size();
        }
        fields.push_back({at, 4});
        at += 4;
        for (const auto &ranges : iter.consumed) {
            fields.push_back({at, 8});
            at += 8 + 16 * ranges.size();
        }
    }
    fields.push_back({at, 4});
    at += 4 + 16 * trace.single_gpu_work.size();
    at += 8; // trailer
    EXPECT_EQ(at, serialize(trace).size()) << "layout walk is off";
    return fields;
}

/** The byte offset of the first store record of @p trace. */
std::size_t
firstStoreRecord(const WorkloadTrace &trace)
{
    for (const CountField &field : countFields(trace))
        if (field.width == 8)
            return field.offset + 8;
    return 0;
}

/** Rewrite the trailer of @p bytes to match the bytes before it. */
void
reseal(std::string &bytes)
{
    const std::uint64_t sum =
        traceChecksum(bytes.data(), bytes.size() - 8);
    std::memcpy(bytes.data() + bytes.size() - 8, &sum, 8);
}

/** The fatal message readTrace() gives for @p bytes, or "" if none. */
std::string
fatalOf(const std::string &bytes)
{
    std::stringstream buffer(bytes);
    try {
        readTrace(buffer);
    } catch (const common::SimError &error) {
        EXPECT_EQ(error.kind(), common::SimError::Kind::Fatal)
            << error.what();
        return error.what();
    }
    return "";
}

void
setCount(std::string &bytes, const CountField &field, std::uint64_t value)
{
    std::memcpy(bytes.data() + field.offset, &value, field.width);
}

/** A stream buffer that cannot seek, like a pipe's. */
class PipeBuffer : public std::streambuf
{
  public:
    explicit PipeBuffer(std::string &bytes)
    {
        setg(bytes.data(), bytes.data(), bytes.data() + bytes.size());
    }
};

} // namespace

TEST(TraceCorruptionTest, BadMagicIsFatalAtByteZero)
{
    std::string bytes = serialize(corpusTrace());
    bytes[0] ^= 0x01;
    EXPECT_NE(fatalOf(bytes).find("bad magic at byte 0"), std::string::npos);
}

TEST(TraceCorruptionTest, EveryCutIsFatalWithItsOffset)
{
    // Every prefix, so every section boundary and every field is cut.
    const std::string bytes = serialize(corpusTrace());
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        std::string message = fatalOf(bytes.substr(0, cut));
        ASSERT_NE(message.find("at byte "), std::string::npos)
            << "cut at " << cut << ": '" << message << "'";
        ASSERT_EQ(message.rfind("fatal: trace ", 0), 0u) << message;
    }
    EXPECT_EQ(fatalOf(bytes), "");
}

TEST(TraceCorruptionTest, ImpossibleCountsAreFatalBeforeAnyAllocation)
{
    const WorkloadTrace trace = corpusTrace();
    const std::string bytes = serialize(trace);
    const std::vector<CountField> fields = countFields(trace);
    ASSERT_GT(fields.size(), 40u);
    for (const CountField &field : fields) {
        std::string bad = bytes;
        setCount(bad, field,
                 field.width == 8 ? std::uint64_t{1} << 40 : 0xffffffffu);
        const std::string at = "at byte " + std::to_string(field.offset);
        std::string message = fatalOf(bad);
        EXPECT_NE(message.find("count "), std::string::npos) << message;
        EXPECT_NE(message.find(at), std::string::npos)
            << message << " (expected " << at << ")";
    }
}

TEST(TraceCorruptionTest, EveryOffByOneCountIsRefused)
{
    // One record too many or too few reads the fields that follow as
    // records; the structure checks, the total length or the trailer
    // refuse every such file as bad input (fatalOf() checks the kind),
    // resealed or not.
    const WorkloadTrace trace = corpusTrace();
    const std::string bytes = serialize(trace);
    for (const CountField &field : countFields(trace)) {
        std::uint64_t count = 0;
        std::memcpy(&count, bytes.data() + field.offset, field.width);
        for (std::uint64_t changed : {count + 1, count - 1}) {
            if (changed == ~std::uint64_t{0})
                continue;
            std::string bad = bytes;
            setCount(bad, field, changed);
            EXPECT_NE(fatalOf(bad), "") << "count at byte " << field.offset;
            reseal(bad);
            EXPECT_NE(fatalOf(bad), "") << "count at byte " << field.offset;
        }
    }
}

TEST(TraceCorruptionTest, UnknownVersionIsFatal)
{
    std::string bytes = serialize(corpusTrace());
    bytes[8] = 3;
    EXPECT_NE(fatalOf(bytes).find("format version 3 at byte 8"),
              std::string::npos);
}

TEST(TraceCorruptionTest, VersionOneFilesAskForARegeneration)
{
    // A v1 trace began with this word; no v1 reader is kept.
    std::string bytes = serialize(corpusTrace());
    const std::uint64_t v1_magic = 0x46504b5452414345ull;
    std::memcpy(bytes.data(), &v1_magic, 8);
    EXPECT_NE(fatalOf(bytes).find(
                  "format v1: regenerate with `fptrace generate`"),
              std::string::npos);
}

TEST(TraceCorruptionTest, BadTrailerIsFatal)
{
    const WorkloadTrace trace = corpusTrace();
    const std::string bytes = serialize(trace);
    // A flipped trailer bit, and a flipped bit of GPU 0's flops, which
    // no structure check reads.
    for (std::size_t at : {bytes.size() - 1, countFields(trace)[3].offset + 4}) {
        std::string bad = bytes;
        bad[at] ^= 0x01;
        const std::string message = fatalOf(bad);
        EXPECT_NE(message.find("trace trailer: checksum "), std::string::npos)
            << message;
        EXPECT_NE(message.find("the trace is corrupt"), std::string::npos);
    }
}

TEST(TraceCorruptionTest, TrailingBytesAreFatal)
{
    const std::string bytes = serialize(corpusTrace());
    const std::string message = fatalOf(bytes + "x");
    EXPECT_NE(message.find("total length " + std::to_string(bytes.size()) +
                           " at byte 16 is not the " +
                           std::to_string(bytes.size() + 1)),
              std::string::npos)
        << message;
}

TEST(TraceCorruptionTest, AtomicFlagByteOtherThanZeroOrOneIsFatal)
{
    const WorkloadTrace trace = corpusTrace();
    std::string bytes = serialize(trace);
    const std::size_t record = firstStoreRecord(trace);
    ASSERT_EQ(bytes[record + 20], 0);
    bytes[record + 20] = 2;
    reseal(bytes);
    const std::string message = fatalOf(bytes);
    EXPECT_NE(message.find("the store at byte " + std::to_string(record) +
                           " has atomic flag byte 2"),
              std::string::npos)
        << message;
}

TEST(TraceCorruptionTest, PayloadPointerFieldsAreClearedNotFollowed)
{
    const WorkloadTrace trace = corpusTrace();
    const std::string bytes = serialize(trace);
    std::string bad = bytes;
    const std::size_t record = firstStoreRecord(trace);
    const std::uint64_t wild = 0xdeadbeefdeadbeefull;
    std::memcpy(bad.data() + record + 24, &wild, 8);
    bad[record + 21] = 0x7f; // a reserved byte
    reseal(bad);
    std::stringstream buffer(bad);
    const WorkloadTrace copy = readTrace(buffer);
    for (const auto &iter : copy.iterations)
        for (const auto &gpu : iter.per_gpu)
            for (const icn::Store &store : gpu.remote_stores)
                ASSERT_EQ(store.data, nullptr);
    EXPECT_EQ(serialize(copy), bytes);
}

namespace {

/** A 2-GPU trace with one store from GPU 0 and one DMA copy. */
WorkloadTrace
ruleTrace(icn::Store store, GpuId copy_dst)
{
    WorkloadTrace trace;
    trace.workload = "rules";
    trace.num_gpus = 2;
    IterationWork iter;
    iter.per_gpu.resize(2);
    iter.per_gpu[0].remote_stores.push_back(store);
    iter.per_gpu[0].dma_copies.push_back(
        DmaCopy{copy_dst, icn::AddrRange{0x2000, 64}});
    iter.consumed.resize(2);
    trace.iterations.push_back(iter);
    return trace;
}

} // namespace

TEST(TraceSerializationTest, PayloadPointersAreWrittenAsZero)
{
    WorkloadTrace trace = ruleTrace(icn::Store(0x1000, 4, 0, 1), 1);
    const std::string plain = serialize(trace);
    const std::uint8_t bytes[4] = {1, 2, 3, 4};
    trace.iterations[0].per_gpu[0].remote_stores[0].data = bytes;
    EXPECT_TRUE(serialize(trace) == plain);
}

TEST(TraceCorruptionTest, TraceWithoutAGpuIsFatal)
{
    WorkloadTrace trace = ruleTrace(icn::Store(0x1000, 8, 0, 1), 1);
    trace.num_gpus = 0;
    trace.iterations.clear();
    EXPECT_NE(fatalOf(serialize(trace)).find("GPU count 0 at byte 37"),
              std::string::npos);
}

TEST(TraceCorruptionTest, IterationsMustListEveryGpu)
{
    WorkloadTrace trace = ruleTrace(icn::Store(0x1000, 8, 0, 1), 1);
    trace.num_gpus = 3;
    const std::string message = fatalOf(serialize(trace));
    EXPECT_NE(message.find("trace GPU list of iteration 0: GPU count 2 at "
                           "byte 45 is not the trace's 3 GPUs"),
              std::string::npos)
        << message;
}

TEST(TraceCorruptionTest, EmptyStoresAreFatal)
{
    const WorkloadTrace trace = ruleTrace(icn::Store(0x1000, 0, 0, 1), 1);
    const std::string message = fatalOf(serialize(trace));
    EXPECT_NE(message.find("trace stores of iteration 0, GPU 0: the store "
                           "at byte " +
                           std::to_string(firstStoreRecord(trace)) +
                           " writes 0 bytes"),
              std::string::npos)
        << message;
}

TEST(TraceCorruptionTest, StoresToAMissingGpuAreFatal)
{
    const WorkloadTrace trace = ruleTrace(icn::Store(0x1000, 8, 0, 5), 1);
    EXPECT_NE(fatalOf(serialize(trace))
                  .find("goes to GPU 5, but the trace has 2 GPUs"),
              std::string::npos);
}

TEST(TraceCorruptionTest, StoresToTheirOwnGpuAreFatal)
{
    const WorkloadTrace trace = ruleTrace(icn::Store(0x1000, 8, 0, 0), 1);
    EXPECT_NE(fatalOf(serialize(trace)).find("goes to its own GPU 0"),
              std::string::npos);
}

TEST(TraceCorruptionTest, EmptyAndSelfDmaCopiesAreFatal)
{
    // The DMA engine asserts on both, so a replay would panic.
    const WorkloadTrace to_self = ruleTrace(icn::Store(0x1000, 8, 0, 1), 0);
    EXPECT_NE(fatalOf(serialize(to_self)).find("goes to its own GPU 0"),
              std::string::npos);
    WorkloadTrace empty = ruleTrace(icn::Store(0x1000, 8, 0, 1), 1);
    empty.iterations[0].per_gpu[0].dma_copies[0].range.size = 0;
    EXPECT_NE(fatalOf(serialize(empty)).find("copies 0 bytes"),
              std::string::npos);
}

TEST(TraceCorruptionTest, DmaCopiesToAMissingGpuAreFatal)
{
    const WorkloadTrace trace = ruleTrace(icn::Store(0x1000, 8, 0, 1), 5);
    const std::string message = fatalOf(serialize(trace));
    EXPECT_NE(message.find("trace DMA copies of iteration 0, GPU 0: the "
                           "DMA copy at byte"),
              std::string::npos)
        << message;
    EXPECT_NE(message.find("goes to GPU 5, but the trace has 2 GPUs"),
              std::string::npos);
}

TEST(TraceCorruptionTest, PipesAreReadThroughABuffer)
{
    const WorkloadTrace trace = corpusTrace();
    std::string bytes = serialize(trace);
    PipeBuffer pipe(bytes);
    std::istream in(&pipe);
    ASSERT_EQ(in.tellg(), std::istream::pos_type(-1));
    WorkloadTrace copy = readTrace(in);
    EXPECT_EQ(copy.totalRemoteStores(), trace.totalRemoteStores());
    EXPECT_EQ(serialize(copy), bytes);

    std::string cut = bytes.substr(0, 100);
    PipeBuffer short_pipe(cut);
    std::istream short_in(&short_pipe);
    EXPECT_THROW(readTrace(short_in), common::SimError);
}

TEST(TraceCorruptionTest, RangesPastTheTopOfTheAddressSpaceAreFatal)
{
    // Byte 2^64 - 2 is the last one a [begin, end) range can hold; a
    // range that ends later wraps its end to a low address.
    const Addr top = ~Addr{0};
    auto trace = [](icn::Store store, icn::AddrRange copy,
                    icn::AddrRange consumed) {
        WorkloadTrace t;
        t.workload = "edge";
        t.num_gpus = 2;
        IterationWork iter;
        iter.per_gpu.resize(2);
        iter.per_gpu[0].remote_stores.push_back(store);
        iter.per_gpu[0].remote_stores.emplace_back(0, 1, 0, 1);
        iter.per_gpu[0].dma_copies.push_back(DmaCopy{1, copy});
        iter.consumed.resize(2);
        iter.consumed[1].push_back(consumed);
        t.iterations.push_back(iter);
        return t;
    };
    const icn::Store store(0x1000, 16, 0, 1);
    const icn::AddrRange copy{0x2000, 64};
    const icn::AddrRange consumed{0x1000, 16};

    // Ranges ending at 2^64 - 1 read back, and their bytes count.
    {
        std::stringstream buffer(serialize(
            trace(icn::Store(top - 8, 8, 0, 1), {top - 64, 64},
                  {top - 4, 4})));
        UpdateSummary summary = summarizeTrace(readTrace(buffer));
        EXPECT_EQ(summary.unique_bytes, 9u);
        EXPECT_EQ(summary.useful_bytes, 4u);
    }

    // Each range that runs past the top is refused where it starts.
    struct Case
    {
        const char *name;
        WorkloadTrace trace;
        Addr base;
    };
    const Case cases[] = {
        {"store wraps", trace(icn::Store(top - 7, 16, 0, 1), copy, consumed),
         top - 7},
        {"store ends at 2^64", trace(icn::Store(top - 6, 7, 0, 1), copy,
                                     consumed),
         top - 6},
        {"DMA copy ends at 2^64", trace(store, {top, 1}, consumed), top},
        {"consumed range wraps", trace(store, copy, {top - 1, 3}),
         top - 1},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        const std::string bytes = serialize(c.trace);
        const std::size_t at = bytes.find(
            std::string(reinterpret_cast<const char *>(&c.base), 8));
        ASSERT_NE(at, std::string::npos);
        const std::string message = fatalOf(bytes);
        EXPECT_NE(message.find("range at byte " + std::to_string(at)),
                  std::string::npos)
            << message;
        EXPECT_NE(message.find("runs past the end of the 64-bit address"),
                  std::string::npos)
            << message;
    }
}

TEST(TraceTotalsTest, StoreCountsAndBytes)
{
    WorkloadTrace trace;
    trace.num_gpus = 2;
    IterationWork iter;
    iter.per_gpu.resize(2);
    iter.consumed.resize(2);
    iter.per_gpu[0].remote_stores.emplace_back(0x0, 8, 0, 1);
    iter.per_gpu[1].remote_stores.emplace_back(0x8, 24, 1, 0);
    trace.iterations.push_back(iter);
    trace.iterations.push_back(iter);
    EXPECT_EQ(trace.totalRemoteStores(), 4u);
    EXPECT_EQ(trace.totalRemoteStoreBytes(), 64u);
}
