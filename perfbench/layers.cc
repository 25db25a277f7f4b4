#include "layers.hh"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/bitutil.hh"
#include "common/event_queue.hh"
#include "finepack/packetizer.hh"
#include "finepack/remote_write_queue.hh"
#include "gpu/dma_engine.hh"
#include "gpu/egress_port.hh"
#include "gpu/ingress_port.hh"
#include "interconnect/topology.hh"

namespace fp::perfbench {

LayeredStats &
LayeredStats::operator+=(const LayeredStats &other)
{
    total_time += other.total_time;
    payload_bytes += other.payload_bytes;
    header_bytes += other.header_bytes;
    data_bytes += other.data_bytes;
    messages += other.messages;
    useful_bytes += other.useful_bytes;
    finepack_packets += other.finepack_packets;
    stores += other.stores;
    events += other.events;
    rwq_pushes += other.rwq_pushes;
    rwq_hits += other.rwq_hits;
    for (std::size_t i = 0; i < flushes.size(); ++i)
        flushes[i] += other.flushes[i];
    packed_stores += other.packed_stores;
    return *this;
}

namespace {

/** Span name ids, interned once per replay. */
struct Names
{
    explicit Names(Tracer &t)
        : rwq_push(t.intern("finepack.rwq_push")),
          rwq_release(t.intern("finepack.rwq_release")),
          packetize(t.intern("finepack.packetize")),
          inject(t.intern("interconnect.inject")),
          egress_raw(t.intern("gpu.egress_raw")),
          dma_issue(t.intern("gpu.dma_issue")),
          ingress(t.intern("gpu.ingress")),
          eventq_run(t.intern("common.eventq_run")),
          useful_bytes(t.intern("trace.useful_bytes"))
    {}

    std::uint16_t rwq_push, rwq_release, packetize, inject, egress_raw,
        dma_issue, ingress, eventq_run, useful_bytes;
};

/** One span per executed event, named by the event's label. */
class EventSpans : public common::EventQueueObserver
{
  public:
    explicit EventSpans(Tracer &tracer) : _tracer(tracer) {}

    void
    beginEvent(const common::Event &event) override
    {
        const char *label = event.description();
        // Few distinct labels: a pointer scan beats hashing.
        std::uint16_t id = 0;
        auto it = std::find_if(_ids.begin(), _ids.end(),
                               [label](const auto &e) {
                                   return e.first == label;
                               });
        if (it != _ids.end()) {
            id = it->second;
        } else {
            id = _tracer.intern(label);
            _ids.emplace_back(label, id);
        }
        _tracer.begin(id);
    }

    void endEvent(const common::Event &) override { _tracer.end(); }

  private:
    Tracer &_tracer;
    std::vector<std::pair<const char *, std::uint16_t>> _ids;
};

/**
 * The FinePack half of EgressPort, called layer by layer: the remote
 * write queue, then the packetizer, then the fabric.
 */
class FinePackEgress
{
  public:
    FinePackEgress(GpuId self, std::uint32_t gpus,
                   const finepack::FinePackConfig &config,
                   const icn::PcieProtocol &protocol,
                   icn::SwitchedFabric &fabric, Tracer &tracer,
                   const Names &names)
        : _rwq(self, gpus, config), _packetizer(self, config),
          _line(config.entry_bytes), _protocol(protocol), _fabric(fabric),
          _tracer(tracer), _names(names)
    {}

    void
    issue(const std::vector<icn::Store> &stores, std::size_t begin,
          std::size_t end)
    {
        _sink.clear();
        {
            Span span(&_tracer, _names.rwq_push);
            for (std::size_t i = begin; i < end; ++i)
                pushSplit(stores[i]);
        }
        send();
    }

    void
    release()
    {
        {
            Span span(&_tracer, _names.rwq_release);
            _sink = _rwq.flushAll(finepack::FlushReason::release);
        }
        send();
    }

    const finepack::RemoteWriteQueue &rwq() const { return _rwq; }
    const finepack::Packetizer &packetizer() const { return _packetizer; }

  private:
    /** EgressPort::issueStore: split at cache-line boundaries. */
    void
    pushSplit(const icn::Store &store)
    {
        if (store.is_atomic)
            fp_panic("the layered replay does not model remote atomics");
        Addr begin = store.begin();
        const Addr end = store.end();
        while (begin < end) {
            Addr piece_end =
                std::min<Addr>(end, common::alignDown(begin, _line) + _line);
            if (begin == store.begin() && piece_end == end) {
                _rwq.push(store, _sink);
                return;
            }
            icn::Store piece(begin,
                             static_cast<std::uint32_t>(piece_end - begin),
                             store.src, store.dst);
            _rwq.push(piece, _sink);
            begin = piece_end;
        }
    }

    void
    send()
    {
        for (const auto &flushed : _sink) {
            if (flushed.empty())
                continue;
            icn::WireMessagePtr msg;
            {
                Span span(&_tracer, _names.packetize);
                msg = _packetizer.toMessage(flushed, _protocol);
            }
            Span span(&_tracer, _names.inject);
            _fabric.inject(msg);
        }
        _sink.clear();
    }

    finepack::RemoteWriteQueue _rwq;
    finepack::Packetizer _packetizer;
    std::uint64_t _line;
    const icn::PcieProtocol &_protocol;
    icn::SwitchedFabric &_fabric;
    Tracer &_tracer;
    const Names &_names;
    std::vector<finepack::FlushedPartition> _sink;
};

} // namespace

LayeredStats
replayLayered(const trace::WorkloadTrace &trace, sim::Paradigm paradigm,
              const sim::SimConfig &config, Tracer &tracer)
{
    const bool is_dma = paradigm == sim::Paradigm::bulk_dma;
    const bool is_finepack = paradigm == sim::Paradigm::finepack;
    if (!is_dma && !is_finepack && paradigm != sim::Paradigm::p2p_stores)
        fp_panic("the layered replay does not model ",
                 sim::toString(paradigm));

    const Names names(tracer);
    const std::uint32_t gpus = trace.num_gpus;
    const gpu::GpuConfig &cfg = config.gpu;
    const icn::PcieProtocol protocol(config.pcie_gen);

    common::EventQueue queue;
    EventSpans event_spans(tracer);
    queue.addObserver(&event_spans);
    icn::SwitchedFabric fabric("fabric", queue, gpus,
                               icn::FabricParams::forPcie(config.pcie_gen));

    std::vector<std::unique_ptr<gpu::IngressPort>> ingress;
    std::vector<std::unique_ptr<gpu::EgressPort>> raw_egress;
    std::vector<std::unique_ptr<gpu::DmaEngine>> dma;
    std::vector<std::unique_ptr<FinePackEgress>> fp_egress;
    for (GpuId g = 0; g < gpus; ++g) {
        std::string prefix = "gpu" + std::to_string(g);
        ingress.push_back(std::make_unique<gpu::IngressPort>(
            prefix + ".ingress", queue, g, cfg));
        gpu::IngressPort *port = ingress.back().get();
        fabric.setIngressHandler(
            g, [port, &tracer, id = names.ingress](
                   const icn::WireMessagePtr &msg) {
                Span span(&tracer, id);
                port->receive(msg);
            });
        if (is_dma) {
            dma.push_back(std::make_unique<gpu::DmaEngine>(
                prefix + ".dma", queue, g, cfg, protocol, fabric));
        } else if (is_finepack) {
            fp_egress.push_back(std::make_unique<FinePackEgress>(
                g, gpus, config.finepack, protocol, fabric, tracer, names));
        } else {
            raw_egress.push_back(std::make_unique<gpu::EgressPort>(
                prefix + ".egress", queue, g, gpus, gpu::EgressMode::raw_p2p,
                config.finepack, protocol, fabric));
        }
    }

    // The iteration loop of SimulationDriver::runEventDriven.
    Tick t = 0;
    for (const auto &iter : trace.iterations) {
        Tick latest_compute_end = 0;
        for (GpuId g = 0; g < gpus; ++g) {
            const auto &work = iter.per_gpu[g];
            Tick kernel_start = t + cfg.kernel_launch_overhead;
            std::uint64_t local = work.local_bytes;
            if (is_dma)
                local += work.dma_extra_local_bytes;
            Tick compute = cfg.computeTime(work.flops, local,
                                           config.compute_efficiency);
            Tick compute_end = kernel_start + compute;
            latest_compute_end = std::max(latest_compute_end, compute_end);

            if (is_dma) {
                gpu::DmaEngine *engine = dma[g].get();
                const auto *copies = &work.dma_copies;
                queue.schedule(
                    [engine, copies, &tracer, id = names.dma_issue]() {
                        Span span(&tracer, id);
                        for (const auto &copy : *copies)
                            engine->copy(copy.dst, copy.range);
                    },
                    compute_end, common::Event::prio_inject,
                    "driver.dma_copies");
                continue;
            }

            const auto *stores = &work.remote_stores;
            std::size_t count = stores->size();
            std::uint32_t chunk = config.store_chunk;
            std::size_t chunks = (count + chunk - 1) / chunk;
            for (std::size_t c = 0; c < chunks; ++c) {
                std::size_t begin = c * chunk;
                std::size_t end = std::min<std::size_t>(begin + chunk, count);
                Tick when = kernel_start +
                            static_cast<Tick>(
                                static_cast<double>(compute) *
                                (static_cast<double>(end) /
                                 static_cast<double>(count)));
                if (is_finepack) {
                    FinePackEgress *port = fp_egress[g].get();
                    queue.schedule(
                        [port, stores, begin, end]() {
                            port->issue(*stores, begin, end);
                        },
                        when, common::Event::prio_inject,
                        "driver.issue_stores");
                } else {
                    gpu::EgressPort *port = raw_egress[g].get();
                    queue.schedule(
                        [port, stores, begin, end, &tracer,
                         id = names.egress_raw]() {
                            Span span(&tracer, id);
                            port->issueStores(*stores, begin, end);
                        },
                        when, common::Event::prio_inject,
                        "driver.issue_stores");
                }
            }
            if (is_finepack) {
                FinePackEgress *port = fp_egress[g].get();
                queue.schedule([port]() { port->release(); }, compute_end,
                               common::Event::prio_sync,
                               "driver.release_fence");
            } else {
                gpu::EgressPort *port = raw_egress[g].get();
                queue.schedule([port]() { port->releaseFence(); },
                               compute_end, common::Event::prio_sync,
                               "driver.release_fence");
            }
        }

        {
            Span span(&tracer, names.eventq_run);
            queue.run();
        }
        Tick busy = latest_compute_end;
        for (const auto &port : ingress)
            busy = std::max(busy, port->drainedAt());
        t = std::max(busy + cfg.barrier_overhead, queue.now());
    }

    LayeredStats stats;
    stats.total_time = t;
    stats.events = queue.eventsProcessed();
    stats.stores = trace.totalRemoteStores();
    for (GpuId g = 0; g < gpus; ++g) {
        const icn::Link &link = fabric.uplink(g);
        stats.payload_bytes += link.payloadBytes();
        stats.header_bytes += link.headerBytes();
        stats.data_bytes += link.dataBytes();
        stats.messages += link.messageCount();
    }
    {
        Span span(&tracer, names.useful_bytes);
        stats.useful_bytes = trace::totalUsefulBytes(trace);
    }
    for (const auto &port : fp_egress) {
        stats.finepack_packets += port->packetizer().packetsEmitted();
        stats.packed_stores += port->packetizer().storesPacked();
        for (GpuId dst = 0; dst < gpus; ++dst) {
            if (dst == port->rwq().self())
                continue;
            const finepack::RwqPartition &part = port->rwq().partition(dst);
            stats.rwq_pushes += part.storesPushed();
            stats.rwq_hits += part.queueHits();
            for (std::size_t r = 0; r < stats.flushes.size(); ++r)
                stats.flushes[r] +=
                    part.flushes(static_cast<finepack::FlushReason>(r));
        }
    }
    queue.removeObserver(&event_spans);
    return stats;
}

} // namespace fp::perfbench
