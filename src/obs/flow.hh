/**
 * @file
 * Fabric flow observability: per-link utilization timelines, per-flow
 * (src GPU -> dst GPU) accounting, and contention attribution.
 *
 * The FlowCollector is a passive observer in the LatencyCollector
 * mold: the producer layers stay sink-free and the driver wires the
 * hooks only when SimConfig::flows is set, so the off path is one
 * pointer test per message. Three hook points feed it:
 *
 *   - SwitchedFabric::inject     per-flow injected bytes/messages
 *   - Link::transmit             per-link serialization spans, queue
 *                                wait, and who-delayed-whom
 *   - IngressPort::receive       per-flow committed bytes/messages
 *
 * Contention attribution: when a message starts serializing later than
 * it was enqueued (the link was busy or credit-stalled), the wait is
 * charged to the flow *occupying* the link - the most recently
 * transmitted message's (src, dst). That yields a per-link interference
 * ledger keyed by (delayer flow, delayed flow) and a fabric-wide
 * N x N GPU matrix (delayer source x delayed source) whose total
 * reconciles exactly with the sum of link wait ticks.
 *
 * Utilization timelines: every link accumulates busy/wait overlap into
 * fixed-width sample windows shared across the fabric. When a run
 * outgrows the window budget the width doubles and bins merge
 * pairwise, so memory is bounded and totals are conserved.
 *
 * Collection never perturbs the simulation (no StatGroups are
 * registered, so the default stats document is bit-identical with and
 * without a collector); tests/sim/fabric_digest_test.cc enforces this.
 * Schema: docs/observability.md; walkthrough:
 * docs/fabric_observability.md.
 */

#ifndef FP_OBS_FLOW_HH
#define FP_OBS_FLOW_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/sync.h"
#include "common/types.hh"

namespace fp::common {
class JsonWriter;
} // namespace fp::common

namespace fp::obs {

class TraceSink;

/**
 * Aggregates per-link telemetry and per-flow accounting for one
 * fabric. Thread safety follows LatencyCollector: beginRun() and the
 * record hooks serialize on an internal fp::Mutex (future parallel DES
 * shards), while the read accessors and dumpJson() are quiescent-read
 * only - call them once no record is in flight.
 */
class FlowCollector
{
  public:
    enum class LinkKind : std::uint8_t { uplink, downlink };

    /** One fixed-width sample window of a link's timeline. */
    struct Window
    {
        /** Ticks of serialization overlapping this window. */
        Tick busy_ticks = 0;
        /**
         * Message-ticks of queue wait overlapping this window; divided
         * by the window length it is the mean queue depth.
         */
        Tick wait_msg_ticks = 0;
        /** Transmissions that started in this window. */
        std::uint64_t msgs = 0;
        /** Wire bytes of those transmissions. */
        std::uint64_t wire_bytes = 0;
    };

    /** Lifetime accounting for one registered link. */
    struct LinkStats
    {
        std::string name;
        LinkKind kind = LinkKind::uplink;
        GpuId gpu = 0;
        std::uint64_t msgs = 0;
        std::uint64_t wire_bytes = 0;
        std::uint64_t payload_bytes = 0;
        std::uint64_t data_bytes = 0;
        Tick busy_ticks = 0;
        Tick wait_ticks = 0;
        std::vector<Window> windows;
        /**
         * Contention ledger: (delayer flow index, delayed flow index)
         * -> ticks, where flow index = src * num_gpus + dst. Values
         * sum to wait_ticks (ordered map: deterministic iteration).
         */
        std::map<std::pair<std::uint32_t, std::uint32_t>, Tick>
            interference;
    };

    /** Conservation ledger for one src -> dst flow. */
    struct FlowStats
    {
        std::uint64_t injected_msgs = 0;
        std::uint64_t injected_wire_bytes = 0;
        std::uint64_t injected_payload_bytes = 0;
        std::uint64_t injected_data_bytes = 0;
        std::uint64_t packed_stores = 0;
        std::uint64_t committed_msgs = 0;
        std::uint64_t committed_wire_bytes = 0;
        std::uint64_t committed_data_bytes = 0;
        Tick uplink_wait_ticks = 0;
        Tick downlink_wait_ticks = 0;
        /** Wait this flow inflicted on others (it occupied the link). */
        Tick delay_caused_ticks = 0;
        /** Wait this flow's messages spent behind an occupant. */
        Tick delay_suffered_ticks = 0;

        bool active() const { return injected_msgs || committed_msgs; }
    };

    /** One Link::transmit, reported by the link that serialized it. */
    struct LinkTransmit
    {
        std::uint32_t link = 0;     ///< registerLink() id
        GpuId src = 0;
        GpuId dst = 0;
        Tick enqueued = 0;          ///< send() tick (incl. credit stall)
        Tick start = 0;             ///< serialization start
        Tick tx_ticks = 0;          ///< serialization duration
        std::uint64_t wire_bytes = 0;
        std::uint64_t payload_bytes = 0;
        std::uint64_t data_bytes = 0;
        /** Valid occupant flow to charge any wait to? */
        bool have_occupant = false;
        GpuId occupant_src = 0;
        GpuId occupant_dst = 0;
    };

    /** @p window_ticks initial timeline sample width (doubles as needed). */
    explicit FlowCollector(Tick window_ticks = ticks_per_us);

    FlowCollector(const FlowCollector &) = delete;
    FlowCollector &operator=(const FlowCollector &) = delete;

    /** Reset all state and size the flow/matrix tables for a run. */
    void beginRun(std::uint32_t num_gpus) FP_EXCLUDES(_mu);

    /** Close the run; @p end_tick is the utilization denominator. */
    void endRun(Tick end_tick) FP_EXCLUDES(_mu);

    /** Add a link to the collector; returns its LinkTransmit::link id. */
    std::uint32_t registerLink(std::string name, LinkKind kind,
                               GpuId gpu) FP_EXCLUDES(_mu);

    /** One message injected into the fabric at its source uplink. */
    void recordInject(GpuId src, GpuId dst, std::uint64_t wire_bytes,
              std::uint64_t payload_bytes,
              std::uint64_t data_bytes,
              std::uint64_t packed_stores) FP_EXCLUDES(_mu);

    /** One serialization start on a registered link. */
    void recordTransmit(const LinkTransmit &tx) FP_EXCLUDES(_mu);

    /** One message committed at its destination ingress port. */
    void recordCommit(GpuId src, GpuId dst, std::uint64_t wire_bytes,
              std::uint64_t data_bytes) FP_EXCLUDES(_mu);

    // ---- Quiescent-read accessors (see class comment) -----------------
    std::uint32_t numGpus() const { return _num_gpus; }
    Tick windowTicks() const { return _window_ticks; }
    Tick endTick() const { return _end_tick; }

    const std::vector<LinkStats> &links() const { return _links; }
    const FlowStats &flow(GpuId src, GpuId dst) const;

    /** Fabric-wide matrix cell: ticks @p by's traffic delayed @p on's. */
    Tick interferenceTicks(GpuId by, GpuId on) const;

    Tick totalBusyTicks() const;
    Tick totalWaitTicks() const;
    std::uint64_t activeFlows() const;

    /** Lifetime busy fraction of @p link in [0, 1]. */
    double linkUtilization(const LinkStats &link) const;
    /** Injected data bytes / injected wire bytes over all flows. */
    double packingEfficiency() const;
    /** Ticks of the sample window starting at index @p w. */
    Tick windowLength(std::size_t w) const;

    /**
     * Indices into links() sorted hottest-first (utilization, then
     * name for determinism); at most @p k entries.
     */
    std::vector<std::uint32_t> hottestLinks(std::size_t k) const;

    /** "g<src>->g<dst>", the flow key used in reports and JSON. */
    static std::string flowName(GpuId src, GpuId dst);

    /**
     * The `fabric` stats-document section. All dynamically-keyed
     * objects (links, flows, interference) emit in lexicographically
     * sorted key order - deterministic by construction (ordered maps).
     */
    void dumpJson(common::JsonWriter &json) const;

    /** Utilization / queue-depth counter tracks, one pair per link. */
    void emitTrace(TraceSink &sink) const;

  private:
    std::uint32_t flowIndex(GpuId src, GpuId dst) const
    { return src * _num_gpus + dst; }

    /** Double the window width until @p last_tick fits the budget. */
    void reserveWindows(Tick last_tick) FP_REQUIRES(_mu);
    /** Accumulate [begin, end) overlap into a link's windows. */
    void chargeWindows(LinkStats &link, Tick begin, Tick end,
                       bool busy) FP_REQUIRES(_mu);

    mutable fp::Mutex _mu;
    const Tick _initial_window_ticks;
    // Mutated only under _mu (record/beginRun); read quiescently, so
    // unannotated by design, like LatencyCollector's histograms.
    std::uint32_t _num_gpus = 0;
    Tick _window_ticks;
    Tick _end_tick = 0;
    Tick _max_event_tick = 0;
    std::vector<LinkStats> _links;
    std::vector<FlowStats> _flows;  ///< num_gpus^2, index src*N+dst
    std::vector<Tick> _matrix;      ///< num_gpus^2, [by_src*N + on_src]
};

} // namespace fp::obs

#endif // FP_OBS_FLOW_HH
