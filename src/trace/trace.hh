/**
 * @file
 * Workload traces: the interface between algorithm execution and the
 * timing simulation.
 *
 * A workload run produces one IterationWork per program iteration: for
 * every GPU, a compute descriptor (flops + local memory traffic), the
 * ordered stream of remote stores the kernel emits (post L1 coalescing),
 * and the address ranges a bulk-DMA implementation of the same program
 * would copy. Per-destination consumption ranges provide the oracle for
 * classifying delivered bytes as useful or wasted (paper Figure 10).
 */

#ifndef FP_TRACE_TRACE_HH
#define FP_TRACE_TRACE_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.hh"
#include "interconnect/store.hh"

namespace fp::trace {

/** A DMA copy a memcpy-paradigm implementation would perform. */
struct DmaCopy
{
    GpuId dst = invalid_gpu;
    /** Always zero: it makes the record's padding explicit. */
    std::uint32_t reserved = 0;
    icn::AddrRange range;

    DmaCopy() = default;
    DmaCopy(GpuId to, icn::AddrRange copied) : dst(to), range(copied) {}
};

/** One GPU's work within one iteration. */
struct GpuIterationWork
{
    /** Arithmetic operations executed by the kernel. */
    double flops = 0.0;
    /** Local (HBM) memory traffic in bytes. */
    std::uint64_t local_bytes = 0;
    /** Remote stores in issue order (addresses are destination-local). */
    std::vector<icn::Store> remote_stores;
    /** What the bulk-DMA paradigm copies at the kernel boundary. */
    std::vector<DmaCopy> dma_copies;
    /**
     * Extra local memory traffic only the memcpy paradigm pays (halo
     * packing / unpacking kernels when the communicated data is strided
     * in memory). Charged by the bulk-DMA and infinite-bandwidth
     * paradigms, not by the store-based ones.
     */
    std::uint64_t dma_extra_local_bytes = 0;
};

/** One iteration across all GPUs. */
struct IterationWork
{
    std::vector<GpuIterationWork> per_gpu;
    /**
     * consumed[g]: destination-local address ranges GPU g actually reads
     * from its replicas before they are next overwritten.
     */
    std::vector<std::vector<icn::AddrRange>> consumed;

    std::uint32_t numGpus() const
    { return static_cast<std::uint32_t>(per_gpu.size()); }
};

/** A complete multi-iteration trace plus workload metadata. */
struct WorkloadTrace
{
    std::string workload;
    std::string comm_pattern;
    std::uint32_t num_gpus = 0;
    std::vector<IterationWork> iterations;
    /**
     * Reference single-GPU work per iteration (flops, local bytes);
     * used to compute the strong-scaling baseline.
     */
    std::vector<std::pair<double, std::uint64_t>> single_gpu_work;

    std::uint32_t numIterations() const
    { return static_cast<std::uint32_t>(iterations.size()); }

    /** Totals across all iterations/GPUs. */
    std::uint64_t totalRemoteStores() const;
    std::uint64_t totalRemoteStoreBytes() const;
};

/** Sorted, disjoint interval set over byte addresses. */
class IntervalSet
{
  public:
    /** Add [base, base+size). */
    void add(Addr base, std::uint64_t size);
    void add(const icn::AddrRange &range) { add(range.base, range.size); }

    /** Merge overlapping/touching intervals; idempotent. */
    void normalize();

    /** Total bytes covered (normalizes first). */
    std::uint64_t totalBytes();

    /** Bytes covered by both this and @p other. */
    std::uint64_t intersectBytes(IntervalSet &other);

    /** Number of disjoint intervals after normalization. */
    std::size_t intervalCount();

    bool contains(Addr addr);

    const std::vector<std::pair<Addr, Addr>> &intervals();

  private:
    std::vector<std::pair<Addr, Addr>> _spans; // [begin, end)
    bool _dirty = false;
};

/**
 * The information content of a trace's updates: per iteration and
 * destination GPU, the unique bytes the stores write and the consumed
 * (useful) subset of them, summed. Identical for every transfer
 * paradigm, which is what makes the Figure 10 byte classification
 * well-defined.
 */
struct UpdateSummary
{
    std::uint64_t unique_bytes = 0;
    std::uint64_t useful_bytes = 0;
};

/**
 * Both totals in one pass per iteration: stores are bucketed by
 * destination. A dense bucket, whose address spread is at most 64
 * bytes per store span, is counted on two bitmaps over that spread
 * (unique = written bits, useful = written and consumed bits). A
 * sparser bucket is retried at its granule, the largest power of two
 * dividing every store bound and every consumed bound inside the
 * spread: one bit per granule, at most 64 granules per store span.
 * Any other bucket is sorted and merged, and the merged spans are
 * walked once against the merged consumed ranges. Stores to a destination >=
 * num_gpus and zero-size spans count for nothing. A bucket holding a
 * store or consumed range that wraps past 2^64 (readTrace() refuses
 * those) is always sorted, so the bitmaps never index outside it.
 */
UpdateSummary summarizeTrace(const WorkloadTrace &trace);

/** Sum of useful bytes over all iterations and destinations. */
std::uint64_t totalUsefulBytes(const WorkloadTrace &trace);

/** Sum of unique updated bytes over all iterations and destinations. */
std::uint64_t totalUniqueBytes(const WorkloadTrace &trace);

/**
 * Binary trace serialization, format v2 (little-endian only): a
 * header (magic, format version, byte-order mark, total length), the
 * names, the GPU count and every iteration, then a trailer holding
 * traceChecksum() of every byte before it. Each (iteration, GPU) store
 * array, DMA-copy array and consumed-range array is a count followed by
 * its records in their in-memory layout, written at once; payload
 * pointers and reserved bytes are written as zero, so two writes of one
 * trace are byte-identical (data payloads are dropped).
 */
void writeTrace(const WorkloadTrace &trace, std::ostream &os);

/**
 * Read a trace writeTrace() wrote, one read per record array. Fatal
 * errors (exit 1 in a tool) whose message names the section and the
 * byte offset: bad magic, a v1 file ("regenerate with fptrace
 * generate"), an unknown version or byte order, a total length that
 * is not the stream's, a count the bytes left cannot hold, a short
 * read, a bad trailer, and a trace the simulator cannot replay: no
 * GPU, an iteration whose GPU list is not the trace's GPU count, a
 * store of size 0, to its own GPU or to a GPU the trace lacks, an
 * atomic flag byte other than 0 or 1, a DMA copy of 0 bytes, to its
 * own GPU or to a GPU the trace lacks, and a store, DMA copy or
 * consumed range that runs past the end of the 64-bit address space.
 * No count sizes anything before it is checked, and every payload
 * pointer read is cleared. A stream that cannot seek (a pipe) is read
 * into memory first.
 */
WorkloadTrace readTrace(std::istream &is);

/** The checksum a v2 trace's trailer holds over the bytes before it. */
std::uint64_t traceChecksum(const void *data, std::size_t size);

} // namespace fp::trace

#endif // FP_TRACE_TRACE_HH
