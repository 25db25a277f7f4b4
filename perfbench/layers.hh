/**
 * @file
 * The layered replay behind the benchmark's per-layer numbers.
 *
 * replayLayered() simulates one trace the way
 * sim::SimulationDriver::runEventDriven does - same iteration model,
 * same store chunks, same event ticks and priorities - but assembles
 * the system from each layer's public entry points, so the benchmark
 * can put a span around every call into a layer:
 *
 *   finepack.rwq_push      RemoteWriteQueue::push, per store chunk
 *   finepack.rwq_release   RemoteWriteQueue::flushAll at kernel end
 *   finepack.packetize     Packetizer::toMessage, per flush
 *   interconnect.inject    SwitchedFabric::inject, per FinePack packet
 *   gpu.egress_raw         EgressPort::issueStores in raw_p2p mode
 *   gpu.dma_issue          DmaEngine::copy calls at kernel end
 *   gpu.ingress            IngressPort::receive (ingress handler)
 *   common.eventq_run      EventQueue::run; its self time is the queue
 *   event labels           every executed event (queue observer)
 *   trace.useful_bytes     trace::totalUsefulBytes, once per run
 *
 * It covers the p2p-stores, bulk-dma and finepack paradigms without
 * the protocol oracle. Its simulated statistics must equal the
 * driver's for the same trace; the benchmark checks that they do.
 */

#ifndef FP_PERFBENCH_LAYERS_HH
#define FP_PERFBENCH_LAYERS_HH

#include <array>
#include <cstdint>

#include "sim/driver.hh"
#include "spans.hh"

namespace fp::perfbench {

/** What one layered replay simulated and counted. */
struct LayeredStats
{
    Tick total_time = 0;
    std::uint64_t payload_bytes = 0;
    std::uint64_t header_bytes = 0;
    std::uint64_t data_bytes = 0;
    std::uint64_t messages = 0;
    std::uint64_t useful_bytes = 0;
    std::uint64_t finepack_packets = 0;
    /** Program stores in the trace (before line splitting). */
    std::uint64_t stores = 0;
    std::uint64_t events = 0;

    // FinePack layer counters (zero for the other paradigms).
    std::uint64_t rwq_pushes = 0; ///< line pieces pushed
    std::uint64_t rwq_hits = 0;
    /** RwqPartition::flushes, indexed by finepack::FlushReason. */
    std::array<std::uint64_t, 6> flushes{};
    std::uint64_t packed_stores = 0;

    LayeredStats &operator+=(const LayeredStats &other);
};

/**
 * Replay @p trace under @p paradigm with spans recorded into @p tracer.
 * Throws common::SimError on a simulator panic or fatal error.
 */
LayeredStats replayLayered(const trace::WorkloadTrace &trace,
                           sim::Paradigm paradigm,
                           const sim::SimConfig &config, Tracer &tracer);

} // namespace fp::perfbench

#endif // FP_PERFBENCH_LAYERS_HH
