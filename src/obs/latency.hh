/**
 * @file
 * Message-lifecycle latency attribution.
 *
 * Every remote store carries a simulated-time milestone trail as it
 * moves through the pipeline: issue at the warp coalescer / egress
 * port, fabric injection (which for FinePack traffic is the partition
 * flush, tagged with the FlushReason), first-link serialization, and
 * finally ingress arrival + commit to functional memory. The stamps
 * ride the wire message as plain data (obs::MsgTimestamps +
 * obs::StoreStamp) so the producer layers (interconnect, finepack,
 * gpu) stay free of any sink dependency; the consumer is the
 * LatencyCollector, wired into gpu::IngressPort by the driver when
 * SimConfig::latency is set.
 *
 * Stage definitions (docs/latency.md):
 *   residency      created  - issue    per store; RWQ coalescing wait
 *   serialization  tx_end   - created  source queueing + wire TX
 *   propagation    arrival  - tx_end   switch hop + downlink + flight
 *   ingress_wait   commit   - arrival  ingress HBM drain queueing
 *   total          commit   - issue    per store, end to end
 */

#ifndef FP_OBS_LATENCY_HH
#define FP_OBS_LATENCY_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/sync.h"
#include "common/types.hh"

namespace fp::obs {

/** Sentinel for "milestone not stamped yet". */
inline constexpr Tick no_stamp = max_tick;

/** Sentinel flush reason: message did not come from an RWQ flush. */
inline constexpr std::uint8_t no_flush_reason = 0xff;

/** Number of finepack::FlushReason values (cross-checked by tests). */
inline constexpr std::size_t flush_reason_count = 6;

/**
 * Human-readable flush-reason label matching finepack::toString()
 * (duplicated here because obs cannot depend on finepack; a unit test
 * asserts the two tables agree).
 */
const char *flushReasonName(std::uint8_t reason);

/** Per-store issue stamp, carried through coalescing into the packet. */
struct StoreStamp
{
    Tick issue = no_stamp;      ///< store issued at the egress port
    std::uint32_t size = 0;     ///< store payload bytes
};

/**
 * Message-level milestones, stamped in simulated time as the wire
 * message moves source -> fabric -> destination. Plain data: cheap to
 * default-construct and dead weight when no collector is attached.
 */
struct MsgTimestamps
{
    Tick created = no_stamp;    ///< injected into the fabric
    Tick tx_start = no_stamp;   ///< first link starts serializing
    Tick tx_end = no_stamp;     ///< first link finished serializing
    std::uint64_t flow_id = 0;  ///< nonzero: trace flow event chain id
    std::uint8_t flush_reason = no_flush_reason;
};

/**
 * Aggregates per-message / per-store latency stages into StatGroup
 * histograms: a system-wide "latency" group (stage histograms plus
 * residency-by-flush-reason and total-by-size-class breakdowns) and
 * one "latency.dst<g>" group per destination GPU. All values are in
 * ticks (picoseconds); buckets are powers of two from 4 ns to ~68 ms.
 *
 * Thread safety: beginRun() and record() serialize on an internal
 * fp::Mutex, so a collector may be fed from concurrent ingress ports
 * (future parallel DES shards). The histogram accessors return
 * references without locking: read them only once the run has
 * quiesced (no record() in flight), which is when the driver and the
 * tests consult them.
 */
class LatencyCollector
{
  public:
    LatencyCollector();

    LatencyCollector(const LatencyCollector &) = delete;
    LatencyCollector &operator=(const LatencyCollector &) = delete;

    /** Reset and (re)build the per-destination groups for a run. */
    void beginRun(std::uint32_t num_gpus) FP_EXCLUDES(_mu);

    /**
     * Record one delivered message. @p stamps may be empty (DMA /
     * write-combine paths have no per-store issue stamps and only
     * contribute the message-level stages).
     */
    void record(GpuId dst, const MsgTimestamps &t, Tick arrival,
        Tick commit, const StoreStamp *stamps,
        std::size_t count) FP_EXCLUDES(_mu);

    std::uint64_t messages() const FP_EXCLUDES(_mu);
    std::uint64_t stores() const FP_EXCLUDES(_mu);
    /** Messages dropped for missing / non-monotonic milestones. */
    std::uint64_t violations() const FP_EXCLUDES(_mu);

    // Stage histograms: quiescent-read only (see class comment).
    const common::Histogram &residency() const { return _residency; }
    const common::Histogram &serialization() const { return _serialization; }
    const common::Histogram &propagation() const { return _propagation; }
    const common::Histogram &ingressWait() const { return _ingress_wait; }
    const common::Histogram &total() const { return _total; }

  private:
    /** Stage histograms for one destination GPU. */
    struct DstStats
    {
        std::unique_ptr<common::StatGroup> group;
        common::Histogram residency;
        common::Histogram serialization;
        common::Histogram propagation;
        common::Histogram ingress_wait;
        common::Histogram total;
    };

    void initHistogram(common::Histogram &hist);
    void rebuildLocked(std::uint32_t num_gpus) FP_REQUIRES(_mu);

    mutable fp::Mutex _mu;
    std::unique_ptr<common::StatGroup> _group;
    common::Scalar _messages FP_GUARDED_BY(_mu);
    common::Scalar _stores FP_GUARDED_BY(_mu);
    common::Scalar _violations FP_GUARDED_BY(_mu);
    // Histograms and per-destination groups are mutated only under
    // _mu (record/beginRun); the unlocked accessors above require the
    // run to have quiesced, so they stay unannotated by design.
    common::Histogram _residency;
    common::Histogram _serialization;
    common::Histogram _propagation;
    common::Histogram _ingress_wait;
    common::Histogram _total;
    /** Residency by FlushReason, indexed by the enum's value. */
    std::vector<common::Histogram> _residency_by_reason;
    /** Store end-to-end latency by size class (<=4 B .. <=128 B). */
    std::vector<common::Histogram> _total_by_size;
    std::vector<DstStats> _dst FP_GUARDED_BY(_mu);
    std::vector<double> _edges;
};

/** Size-class index for a store of @p size bytes: 0 => <=4 B ... */
std::size_t latencySizeClass(std::uint32_t size);

/** Number of store size classes. */
inline constexpr std::size_t latency_size_class_count = 6;

/** Label for size class @p i, e.g. "le8". */
const char *latencySizeClassName(std::size_t i);

} // namespace fp::obs

#endif // FP_OBS_LATENCY_HH
