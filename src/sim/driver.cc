#include "sim/driver.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <utility>
#include <vector>

#include "baselines/gps_model.hh"
#include "check/digest.hh"
#include "check/invariant.hh"
#include "check/protocol_oracle.hh"
#include "common/interrupt.hh"
#include "common/logging.hh"
#include "gpu/dma_engine.hh"
#include "gpu/egress_port.hh"
#include "gpu/ingress_port.hh"
#include "interconnect/topology.hh"
#include "obs/flight_recorder.hh"
#include "obs/flow.hh"
#include "obs/latency.hh"
#include "obs/metrics.hh"
#include "obs/probes.hh"
#include "obs/profiler.hh"
#include "obs/sampler.hh"
#include "obs/trace_event.hh"

namespace fp::sim {

namespace {

/** Cumulative DES events across all runs (see totalHostEventsProcessed). */
std::atomic<std::uint64_t> total_host_events{0};

} // namespace

std::uint64_t
totalHostEventsProcessed()
{
    return total_host_events.load(std::memory_order_relaxed);
}

const char *
toString(Paradigm paradigm)
{
    switch (paradigm) {
      case Paradigm::single_gpu: return "single-gpu";
      case Paradigm::bulk_dma: return "bulk-dma";
      case Paradigm::p2p_stores: return "p2p-stores";
      case Paradigm::finepack: return "finepack";
      case Paradigm::write_combine: return "write-combine";
      case Paradigm::gps: return "gps";
      case Paradigm::infinite_bw: return "infinite-bw";
    }
    return "?";
}

const std::vector<Paradigm> &
figure9Paradigms()
{
    static const std::vector<Paradigm> list = {
        Paradigm::p2p_stores,
        Paradigm::bulk_dma,
        Paradigm::finepack,
        Paradigm::infinite_bw,
    };
    return list;
}

SimConfig::SimConfig() : gpu(gpu::gv100Config()),
                         finepack(finepack::defaultConfig())
{}

SimulationDriver::SimulationDriver(SimConfig config)
    : _config(std::move(config))
{
    _config.finepack.validate();
}

RunResult
SimulationDriver::run(const trace::WorkloadTrace &trace, Paradigm paradigm)
{
    fp_assert(trace.num_gpus >= 1, "trace has no GPUs");
    if (paradigm == Paradigm::single_gpu ||
        paradigm == Paradigm::infinite_bw) {
        return runAnalytic(trace, paradigm);
    }
    return runEventDriven(trace, paradigm);
}

double
SimulationDriver::speedupOverSingleGpu(const trace::WorkloadTrace &trace,
                                       Paradigm paradigm)
{
    RunResult baseline = run(trace, Paradigm::single_gpu);
    RunResult result = run(trace, paradigm);
    fp_assert(result.total_time > 0, "zero runtime");
    return static_cast<double>(baseline.total_time) /
           static_cast<double>(result.total_time);
}

RunResult
SimulationDriver::runAnalytic(const trace::WorkloadTrace &trace,
                              Paradigm paradigm) const
{
    RunResult result;
    result.paradigm = paradigm;

    // Analytic paradigms never touch the event queue; attribute their
    // (tiny) host cost to one scope so profile reports stay complete.
    obs::Profiler::Scope profile_scope(_config.profiler,
                                       "driver.analytic");

    const gpu::GpuConfig &cfg = _config.gpu;
    Tick total = 0;

    if (paradigm == Paradigm::single_gpu) {
        // The whole problem on one device: per iteration, one kernel
        // executing the combined work with no communication.
        for (const auto &[flops, bytes] : trace.single_gpu_work) {
            total += cfg.kernel_launch_overhead;
            total += cfg.computeTime(flops, bytes,
                                     _config.compute_efficiency);
        }
    } else {
        // Infinite bandwidth: all transfer time, API overhead, and
        // packing work elided - only compute, launch, and the
        // iteration barrier remain. This is the paper's "maximum
        // achievable" opportunity bound, so no paradigm can beat it.
        for (const auto &iter : trace.iterations) {
            Tick slowest = 0;
            for (const auto &work : iter.per_gpu) {
                Tick t = cfg.computeTime(work.flops, work.local_bytes,
                                         _config.compute_efficiency);
                slowest = std::max(slowest, t);
            }
            total += cfg.kernel_launch_overhead + slowest +
                     cfg.barrier_overhead;
        }
    }

    result.total_time = total;
    return result;
}

namespace {

/** Everything alive during one event-driven run. */
struct SimSystem
{
    common::EventQueue queue;
    std::unique_ptr<icn::SwitchedFabric> fabric;
    std::vector<std::unique_ptr<gpu::EgressPort>> egress;
    std::vector<std::unique_ptr<gpu::IngressPort>> ingress;
    std::vector<std::unique_ptr<gpu::DmaEngine>> dma;
    /** Protocol oracles, one per GPU (SimConfig::check, finepack). */
    std::vector<std::unique_ptr<check::ProtocolOracle>> oracles;
};

/**
 * SimConfig::wedge_host_ms spin: burn host wall-clock while simulated
 * time stands still, so watchdog tests get a reproducible wedged
 * handler. Polls the cooperative interrupt flag so SIGINT unwinds at
 * the next queue step instead of after the full spin.
 */
void
spinHostMs(std::uint32_t ms)
{
    // fp-lint: allow(wall-clock) deliberate host-time spin (watchdog test aid)
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(ms);
    // fp-lint: allow(wall-clock) deliberate host-time spin (watchdog test aid)
    while (std::chrono::steady_clock::now() < deadline) {
        if (common::interrupt::pending())
            return;
    }
}

gpu::EgressMode
egressModeFor(Paradigm paradigm)
{
    switch (paradigm) {
      case Paradigm::p2p_stores: return gpu::EgressMode::raw_p2p;
      case Paradigm::finepack: return gpu::EgressMode::finepack;
      case Paradigm::write_combine:
      case Paradigm::gps: return gpu::EgressMode::write_combine;
      default: break;
    }
    fp_panic("paradigm has no egress mode: ", toString(paradigm));
}

} // namespace

RunResult
SimulationDriver::runEventDriven(const trace::WorkloadTrace &trace,
                                 Paradigm paradigm)
{
    RunResult result;
    result.paradigm = paradigm;

    const std::uint32_t gpus = trace.num_gpus;
    const gpu::GpuConfig &cfg = _config.gpu;
    const bool is_dma = paradigm == Paradigm::bulk_dma;
    const bool is_gps = paradigm == Paradigm::gps;
    icn::PcieProtocol protocol(_config.pcie_gen);

    SimSystem sys;
    // Determinism-analysis hooks must attach before the first event is
    // scheduled: the shuffle stamps tie-keys at schedule() time and the
    // observer must see every executed event.
    if (_config.tie_break_shuffle_seed != 0)
        sys.queue.enableTieBreakShuffle(_config.tie_break_shuffle_seed);
    if (_config.queue_observer)
        sys.queue.addObserver(_config.queue_observer);
    // The self-profiler rides the same observer hooks (wall-clock only,
    // no access recording): attach before the first event so its
    // counters cover the whole run.
    if (_config.profiler)
        _config.profiler->beginRun(&sys.queue);
    // The flight recorder rides the same hooks; it additionally gets
    // the queue pointer so beginEvent can publish progress counters
    // for the watchdog and the signal handler.
    if (obs::FlightRecorder *recorder = _config.recorder) {
        sys.queue.addObserver(recorder);
        recorder->beginRun(&sys.queue);
    }
    // Stamp warn()/inform() messages with simulated time for the
    // duration of the run.
    common::ScopedTickContext tick_context(
        [queue = &sys.queue]() { return queue->now(); });
    obs::TraceSink *tracer = _config.tracer;
    sys.fabric = std::make_unique<icn::SwitchedFabric>(
        "fabric", sys.queue, gpus,
        icn::FabricParams::forPcie(_config.pcie_gen));

    for (GpuId g = 0; g < gpus; ++g) {
        sys.ingress.push_back(std::make_unique<gpu::IngressPort>(
            "gpu" + std::to_string(g) + ".ingress", sys.queue, g, cfg));
        gpu::IngressPort *port = sys.ingress.back().get();
        sys.fabric->setIngressHandler(
            g, [port](const icn::WireMessagePtr &msg) {
                port->receive(msg);
            });

        if (is_dma) {
            sys.dma.push_back(std::make_unique<gpu::DmaEngine>(
                "gpu" + std::to_string(g) + ".dma", sys.queue, g, cfg,
                protocol, *sys.fabric));
        } else {
            sys.egress.push_back(std::make_unique<gpu::EgressPort>(
                "gpu" + std::to_string(g) + ".egress", sys.queue, g,
                gpus, egressModeFor(paradigm), _config.finepack,
                protocol, *sys.fabric,
                _config.finepack_flush_timeout));
            if (_config.check && paradigm == Paradigm::finepack) {
                sys.oracles.push_back(
                    std::make_unique<check::ProtocolOracle>(
                        g, _config.finepack));
                sys.egress.back()->attachOracle(*sys.oracles.back());
            }
        }
    }
    if (_config.check && paradigm != Paradigm::finepack) {
        fp_warn("the protocol oracle only checks the finepack paradigm; "
                "--check is a no-op under ", toString(paradigm));
    }

    if (tracer) {
        tracer->processName(obs::trace_pid_sim, "sim.driver");
        tracer->threadName(obs::trace_pid_sim, obs::lane_main,
                           toString(paradigm));
        static const std::pair<obs::TraceLane, const char *> lanes[] = {
            {obs::lane_main, "kernel"},
            {obs::lane_rwq, "rwq"},
            {obs::lane_packetizer, "packetizer"},
            {obs::lane_ingress, "ingress"},
            {obs::lane_uplink, "uplink"},
            {obs::lane_downlink, "downlink"},
        };
        for (GpuId g = 0; g < gpus; ++g) {
            tracer->processName(obs::tracePidGpu(g),
                                "gpu" + std::to_string(g));
            for (const auto &[lane, name] : lanes)
                tracer->threadName(obs::tracePidGpu(g), lane, name);
        }
    }

    // One probe bundle for the fabric and every port; each component
    // keeps the collectors it reports to.
    const obs::Probes probes{tracer, _config.latency, _config.flows,
                             _config.recorder, _config.profiler};
    if (probes.latency)
        probes.latency->beginRun(gpus);
    if (probes.flows)
        probes.flows->beginRun(gpus);
    sys.fabric->setProbes(probes);
    for (auto &port : sys.ingress)
        port->setProbes(probes);
    for (auto &port : sys.egress)
        port->setProbes(probes);

    obs::PeriodicSampler *sampler = _config.sampler;
    if (sampler) {
        sampler->beginRun();
        sampler->attachTraceSink(tracer);
        for (GpuId g = 0; g < gpus; ++g) {
            std::string prefix = "gpu" + std::to_string(g);
            if (paradigm == Paradigm::finepack) {
                // RWQ occupancy per destination partition.
                const auto &rwq = sys.egress[g]->writeQueue();
                for (GpuId dst = 0; dst < gpus; ++dst) {
                    if (dst == g)
                        continue;
                    const finepack::RwqPartition *part =
                        &rwq.partition(dst);
                    sampler->addTrack(
                        prefix + ".rwq.entries[" +
                            std::to_string(dst) + "]",
                        [part]() {
                            return static_cast<double>(
                                part->entryCount());
                        });
                }
            }
            const icn::Link *uplink = &sys.fabric->uplink(g);
            sampler->addTrack(prefix + ".uplink.queued", [uplink]() {
                return static_cast<double>(uplink->waitingMessages());
            });
        }
        // Messages injected into the fabric but not yet received.
        const icn::SwitchedFabric *fabric = sys.fabric.get();
        std::vector<const gpu::IngressPort *> sinks;
        for (const auto &port : sys.ingress)
            sinks.push_back(port.get());
        sampler->addTrack("sim.inflight_messages", [fabric, sinks]() {
            std::uint64_t sent = 0;
            for (GpuId g = 0; g < fabric->numGpus(); ++g)
                sent += fabric->uplink(g).messageCount();
            std::uint64_t received = 0;
            for (const auto *port : sinks)
                received += port->messagesReceived();
            return static_cast<double>(sent) -
                   static_cast<double>(received);
        });
    }

    baselines::GpsModel gps_model(_config.gps_page_bytes);

    if (_config.wedge_host_ms != 0) {
        std::uint32_t wedge_ms = _config.wedge_host_ms;
        sys.queue.schedule([wedge_ms]() { spinHostMs(wedge_ms); }, 0,
                           common::Event::prio_inject,
                           "driver.wedge_host");
    }

    Tick t = 0;
    std::size_t iteration_index = 0;
    try {
    for (const auto &iter : trace.iterations) {
        // Scope the whole iteration: in the hotspot report its self
        // time is driver/queue overhead not attributed to any handler.
        obs::Profiler::Scope iter_scope(_config.profiler,
                                        "driver.iteration");
        if (is_gps)
            gps_model.beginIteration(iter);

        Tick latest_compute_end = 0;
        for (GpuId g = 0; g < gpus; ++g) {
            const auto &work = iter.per_gpu[g];
            Tick kernel_start = t + cfg.kernel_launch_overhead;
            std::uint64_t local = work.local_bytes;
            if (is_dma)
                local += work.dma_extra_local_bytes;
            Tick compute =
                cfg.computeTime(work.flops, local,
                                _config.compute_efficiency);
            Tick compute_end = kernel_start + compute;
            latest_compute_end =
                std::max(latest_compute_end, compute_end);

            if (tracer && tracer->detail() != obs::TraceDetail::off) {
                tracer->complete(
                    obs::tracePidGpu(g), obs::lane_main, "kernel",
                    "phase", kernel_start, compute,
                    {"iteration",
                     static_cast<double>(iteration_index)},
                    {"remote_stores",
                     static_cast<double>(work.remote_stores.size())});
            }

            if (is_dma) {
                // Bulk-synchronous copies after the kernel completes.
                gpu::DmaEngine *engine = sys.dma[g].get();
                const auto *copies = &work.dma_copies;
                sys.queue.schedule(
                    [engine, copies]() {
                        for (const auto &copy : *copies)
                            engine->copy(copy.dst, copy.range);
                    },
                    compute_end, common::Event::prio_inject,
                    "driver.dma_copies");
                continue;
            }

            // Store paradigms: stores stream out across the compute
            // window in fixed-size chunks, then the kernel-end release
            // flushes all buffered state.
            gpu::EgressPort *port = sys.egress[g].get();
            const auto *stores = &work.remote_stores;
            std::size_t count = stores->size();
            std::uint32_t chunk = _config.store_chunk;
            std::size_t chunks = (count + chunk - 1) / chunk;
            for (std::size_t c = 0; c < chunks; ++c) {
                std::size_t begin = c * chunk;
                std::size_t end =
                    std::min<std::size_t>(begin + chunk, count);
                // Chunk c completes at the matching fraction of the
                // compute window.
                Tick when =
                    kernel_start +
                    static_cast<Tick>(
                        static_cast<double>(compute) *
                        (static_cast<double>(end) /
                         static_cast<double>(count)));
                if (!is_gps) {
                    sys.queue.schedule(
                        [port, stores, begin, end]() {
                            port->issueStores(*stores, begin, end);
                        },
                        when, common::Event::prio_inject,
                        "driver.issue_stores");
                } else {
                    baselines::GpsModel *model = &gps_model;
                    sys.queue.schedule(
                        [port, stores, begin, end, model]() {
                            std::vector<icn::Store> kept;
                            kept.reserve(end - begin);
                            for (std::size_t i = begin; i < end; ++i) {
                                const icn::Store &s = (*stores)[i];
                                if (model->subscribed(s.dst, s.addr))
                                    kept.push_back(s);
                                else
                                    model->countFiltered();
                            }
                            port->issueStores(kept, 0, kept.size());
                        },
                        when, common::Event::prio_inject,
                        "driver.gps_issue_stores");
                }
            }
            sys.queue.schedule(
                [port]() { port->releaseFence(); }, compute_end,
                common::Event::prio_sync, "driver.release_fence");
        }

        // Run until every message has drained into its destination.
        // The iteration ends when all kernels and deliveries complete;
        // bookkeeping events (e.g. disarmed inactivity timeouts) may
        // execute later without extending the iteration. The sampler,
        // when present, pumps the queue so time series accumulate.
        if (sampler)
            sampler->pump(sys.queue);
        else
            sys.queue.run();
        Tick busy = latest_compute_end;
        for (const auto &port : sys.ingress)
            busy = std::max(busy, port->drainedAt());
        FP_INVARIANT(busy >= latest_compute_end, "driver-drain-ordering",
                     "traffic drained at ", busy,
                     " before compute ended at ", latest_compute_end);
        Tick iteration_start = t;
        t = busy + cfg.barrier_overhead;
        // Never schedule the next iteration before already-executed
        // bookkeeping events (the queue cannot go back in time).
        t = std::max(t, sys.queue.now());
        FP_INVARIANT(t >= iteration_start, "driver-time-monotonic",
                     "iteration moved time backwards: ", iteration_start,
                     " -> ", t);

        if (tracer && tracer->detail() != obs::TraceDetail::off) {
            tracer->complete(obs::trace_pid_sim, obs::lane_main, "drain",
                             "phase", latest_compute_end,
                             busy - latest_compute_end,
                             {"iteration",
                              static_cast<double>(iteration_index)});
            tracer->complete(obs::trace_pid_sim, obs::lane_main,
                             "iteration", "phase", iteration_start,
                             t - iteration_start,
                             {"iteration",
                              static_cast<double>(iteration_index)});
        }
        ++iteration_index;
    }
    } catch (const common::SimInterrupted &) {
        // Cooperative interrupt (SIGINT): stop cleanly between events.
        // Everything below still runs -- counters, stats capture, and
        // traffic accounting describe the run up to this point -- but
        // end-of-run drain checks are skipped (work is still in
        // flight by construction) and the result is marked partial.
        result.interrupted = true;
        t = std::max(t, sys.queue.now());
    }

    result.total_time = t;
    result.events_processed = sys.queue.eventsProcessed();
    // Close the flow collector's run: total_time is the utilization
    // denominator (it bounds every link's serialization end).
    if (_config.flows)
        _config.flows->endRun(result.total_time);
    total_host_events.fetch_add(result.events_processed,
                                std::memory_order_relaxed);

    // Useful bytes depend only on the trace. Count them while the
    // profiler is still attached so their host cost is attributed.
    {
        obs::Profiler::Scope useful_scope(_config.profiler,
                                          "driver.useful_bytes");
        result.useful_bytes = trace::totalUsefulBytes(trace);
    }

    // Detach the profiler while the queue is alive; it folds this
    // run's wall time and queue counters into its aggregates.
    if (_config.profiler)
        _config.profiler->endRun();
    // Publish final queue counters into the recorder and detach it
    // from this run's queue before teardown.
    if (_config.recorder)
        _config.recorder->endRun();

    // Capture observability output while the component tree (and with
    // it every registered StatGroup) is still alive.
    if (sampler)
        sampler->endRun();
    if (_config.metrics)
        _config.metrics->captureNow();

    // Every buffered byte must have flushed and every flush must have
    // packetized by the end of the run (oracle end-of-run check).
    // Per-source digests fold in GPU-id order (the oracles vector is
    // built in that order), so the combined digest is well-defined.
    check::Digest run_digest;
    for (const auto &oracle : sys.oracles) {
        if (!result.interrupted)
            oracle->verifyDrained();
        result.oracle_transactions += oracle->transactionsVerified();
        result.oracle_stores += oracle->storesRecorded();
        result.oracle_bytes += oracle->bytesVerified();
        result.oracle_value_bytes += oracle->valueBytesVerified();
        run_digest.updateU64(oracle->digest());
    }
    if (!sys.oracles.empty())
        result.oracle_digest = run_digest.value();

    // ---- Traffic accounting (uplinks see each message once) -----------
    std::uint64_t fp_padding = 0; // raw/finepack non-data payload bytes
    for (GpuId g = 0; g < gpus; ++g) {
        const icn::Link &link = sys.fabric->uplink(g);
        result.payload_bytes += link.payloadBytes();
        result.header_bytes += link.headerBytes();
        result.data_bytes += link.dataBytes();
        result.messages += link.messageCount();
        for (auto kind : {icn::MessageKind::raw_store,
                          icn::MessageKind::finepack_packet,
                          icn::MessageKind::atomic_op}) {
            const auto &ks = link.kindStats(kind);
            fp_padding += ks.payload_bytes - ks.data_bytes;
        }
    }
    result.wire_bytes = result.payload_bytes + result.header_bytes;

    // Sub-headers, DW padding, and raw-store padding are protocol
    // overhead; unwritten write-combine line bytes and whole-range DMA
    // payloads count as transferred data.
    result.protocol_bytes = result.header_bytes + fp_padding;
    std::uint64_t transferred_data =
        result.payload_bytes - fp_padding;
    result.wasted_bytes =
        transferred_data > result.useful_bytes
            ? transferred_data - result.useful_bytes
            : 0;

    if (paradigm == Paradigm::finepack) {
        for (const auto &port : sys.egress) {
            const auto &packetizer = port->packetizer();
            result.finepack_packets += packetizer.packetsEmitted();
        }
        std::uint64_t packed = 0;
        for (const auto &port : sys.egress) {
            packed += port->packetizer().storesPacked();
            result.wc_alone_wire_bytes +=
                port->packetizer().wcAloneWireBytes();
            result.wc_line_wire_bytes +=
                port->packetizer().wcLineWireBytes();
            result.uncompressed_wire_bytes +=
                port->packetizer().uncompressedWireBytes();
        }
        result.avg_stores_per_packet =
            result.finepack_packets
                ? static_cast<double>(packed) /
                      static_cast<double>(result.finepack_packets)
                : 0.0;
    }

    return result;
}

} // namespace fp::sim
