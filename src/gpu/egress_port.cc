#include "gpu/egress_port.hh"

#include <algorithm>

#include "check/invariant.hh"
#include "check/protocol_oracle.hh"
#include "common/bitutil.hh"
#include "obs/flight_recorder.hh"
#include "obs/trace_event.hh"

namespace fp::gpu {

/**
 * Adapts the egress stages' observer streams onto trace instants on
 * the owning GPU's rwq and packetizer lanes. Flush and packet events
 * always record (a flush with its trigger reason as the event name);
 * per-store enqueue and overwrite-in-place instants only fire at full
 * detail.
 */
class StageTracer : public finepack::RwqObserver,
                    public finepack::PacketizerObserver
{
  public:
    StageTracer(obs::TraceSink &sink, const common::EventQueue &queue,
                std::uint32_t pid)
        : _sink(sink), _queue(queue), _pid(pid)
    {}

    void
    storeBuffered(GpuId dst, const icn::Store &store) override
    {
        if (!_sink.full())
            return;
        _sink.instant(_pid, obs::lane_rwq, "enqueue", "rwq",
                      _queue.now(),
                      {"dst", static_cast<double>(dst)},
                      {"bytes", static_cast<double>(store.size)});
    }

    void
    storeCoalesced(GpuId dst, const icn::Store &store,
                   std::uint32_t overwritten_bytes) override
    {
        if (!_sink.full())
            return;
        _sink.instant(_pid, obs::lane_rwq, "overwrite_in_place", "rwq",
                      _queue.now(),
                      {"dst", static_cast<double>(dst)},
                      {"bytes", static_cast<double>(store.size)},
                      {"overwritten",
                       static_cast<double>(overwritten_bytes)});
    }

    void
    windowFlushed(const finepack::FlushedPartition &flushed,
                  finepack::FlushReason reason) override
    {
        if (_sink.detail() == obs::TraceDetail::off)
            return;
        _sink.instant(_pid, obs::lane_rwq, toString(reason), "rwq_flush",
                      _queue.now(),
                      {"dst", static_cast<double>(flushed.dst)},
                      {"entries",
                       static_cast<double>(flushed.entries.size())},
                      {"stores",
                       static_cast<double>(flushed.packed_store_count)});
    }

    void
    packetEmitted(const finepack::FinePackTransaction &txn,
                  const icn::WireMessage &msg) override
    {
        if (_sink.detail() == obs::TraceDetail::off)
            return;
        double payload = static_cast<double>(msg.payload_bytes);
        double efficiency =
            payload > 0.0 ? static_cast<double>(msg.data_bytes) / payload
                          : 0.0;
        _sink.instant(_pid, obs::lane_packetizer, "packet", "packetizer",
                      _queue.now(),
                      {"sub_packets", static_cast<double>(txn.size())},
                      {"stores",
                       static_cast<double>(msg.packed_store_count)},
                      {"payload_efficiency", efficiency});
    }

  private:
    obs::TraceSink &_sink;
    const common::EventQueue &_queue;
    std::uint32_t _pid;
};

const char *
toString(EgressMode mode)
{
    switch (mode) {
      case EgressMode::raw_p2p: return "raw-p2p";
      case EgressMode::finepack: return "finepack";
      case EgressMode::write_combine: return "write-combine";
    }
    return "?";
}

EgressPort::EgressPort(const std::string &name, common::EventQueue &queue,
                       GpuId self, std::uint32_t num_gpus, EgressMode mode,
                       const finepack::FinePackConfig &config,
                       const icn::PcieProtocol &protocol,
                       icn::SwitchedFabric &fabric, Tick flush_timeout)
    : SimObject(name, queue),
      _self(self),
      _num_gpus(num_gpus),
      _mode(mode),
      _config(config),
      _protocol(protocol),
      _fabric(fabric),
      _flush_timeout(flush_timeout),
      _last_push(num_gpus, 0),
      _timeout_armed(num_gpus, false)
{
    if (_mode == EgressMode::finepack) {
        _rwq = std::make_unique<finepack::RemoteWriteQueue>(self, num_gpus,
                                                            config);
        _packetizer = std::make_unique<finepack::Packetizer>(self, config);
        for (GpuId g = 0; g < num_gpus; ++g)
            _rwq_labels.push_back(name + ".rwq[" + std::to_string(g) +
                                  "]");
        _packetizer_label = name + ".packetizer";
    } else if (_mode == EgressMode::write_combine) {
        _wc.resize(num_gpus);
        for (GpuId g = 0; g < num_gpus; ++g) {
            if (g == self)
                continue;
            _wc[g] = std::make_unique<finepack::WriteCombineBuffer>(
                self, g, config.queue_entries);
        }
    }

    stats().registerScalar("stores_issued", &_stores_issued,
                           "remote stores issued by the SMs");
    stats().registerScalar("messages_sent", &_messages_sent,
                           "wire messages injected");
    stats().registerScalar("atomics_sent", &_atomics_sent,
                           "remote atomics injected (uncoalesced)");
    stats().registerScalar("stores_folded", &_stores_folded,
                           "program stores folded into sent messages");
    _store_sizes.init({1, 2, 4, 8, 16, 32, 64, 128});
    stats().registerHistogram("store_size_bytes", &_store_sizes,
                              "issued remote store sizes in bytes");
    _flush_entries.init(0.0, 64.0, 16);
    stats().registerDistribution("flush_entries", &_flush_entries,
                                 "buffered lines per flushed partition");
    stats().registerAverage("stores_per_message", &_stores_per_msg,
                            "program stores per injected wire message");
}

EgressPort::~EgressPort() = default;

void
EgressPort::issueStore(const icn::Store &store)
{
    fp_assert(store.dst < _num_gpus && store.dst != _self,
              "bad store destination ", store.dst);
    fp_assert(store.size > 0, "zero-size store");
    common::AccessRecorder(eventQueue()).write(this, name().c_str());

    // Split accesses that cross cache-line boundaries; the L1 coalescer
    // normally guarantees this, but the public API tolerates any store.
    Addr begin = store.begin();
    Addr end = store.end();
    const std::uint32_t line = _config.entry_bytes;
    while (begin < end) {
        Addr piece_end =
            std::min<Addr>(end, common::alignDown(begin, line) + line);
        icn::Store piece = store;
        piece.addr = begin;
        piece.size = static_cast<std::uint32_t>(piece_end - begin);
        if (_latency)
            piece.issue_tick = curTick();
        if (!store.data.empty()) {
            auto off = static_cast<std::size_t>(begin - store.begin());
            piece.data.assign(store.data.begin() + off,
                              store.data.begin() + off + piece.size);
        }
        if (piece.is_atomic)
            issueAtomic(piece);
        else
            issueAligned(piece);
        begin = piece_end;
    }
}

void
EgressPort::issueStores(const std::vector<icn::Store> &stores,
                        std::size_t begin, std::size_t end)
{
    fp_assert(begin <= end && end <= stores.size(), "bad batch bounds");
    common::AccessRecorder(eventQueue()).write(this, name().c_str());

    if (_mode != EgressMode::raw_p2p) {
        for (std::size_t i = begin; i < end; ++i)
            issueStore(stores[i]);
        return;
    }

    // Raw mode: group the batch by destination; each group's TLPs leave
    // back-to-back, so one aggregate message per destination carries
    // the exact sum of their wire bytes.
    for (GpuId dst = 0; dst < _num_gpus; ++dst) {
        if (dst == _self)
            continue;
        auto msg = icn::makeWireMessage();
        msg->kind = icn::MessageKind::raw_store;
        msg->src = _self;
        msg->dst = dst;
        for (std::size_t i = begin; i < end; ++i) {
            const icn::Store &store = stores[i];
            if (store.dst != dst)
                continue;
            if (store.is_atomic) {
                // Atomics keep their dedicated path.
                continue;
            }
            ++_stores_issued;
            _store_sizes.sample(store.size);
            msg->payload_bytes +=
                _protocol.payloadOnWire(store.addr, store.size);
            msg->header_bytes += _protocol.tlpOverhead();
            msg->data_bytes += store.size;
            ++msg->packed_store_count;
            msg->stores.push_back(store);
            if (_latency)
                msg->store_stamps.push_back({curTick(), store.size});
        }
        if (msg->stores.empty())
            continue;
        ++_messages_sent;
        _stores_folded += static_cast<double>(msg->packed_store_count);
        _stores_per_msg.sample(
            static_cast<double>(msg->packed_store_count));
        _fabric.inject(msg);
    }

    // Atomics issue individually, preserving their order semantics.
    for (std::size_t i = begin; i < end; ++i)
        if (stores[i].is_atomic)
            issueStore(stores[i]);
}

void
EgressPort::issueAligned(const icn::Store &store)
{
    ++_stores_issued;
    _store_sizes.sample(store.size);

    switch (_mode) {
      case EgressMode::raw_p2p:
        sendRaw(store, icn::MessageKind::raw_store);
        break;
      case EgressMode::finepack: {
        common::AccessRecorder(eventQueue())
            .write(&_rwq->partition(store.dst),
                   _rwq_labels[store.dst].c_str());
        _flush_scratch.clear();
        _rwq->push(store, _flush_scratch);
        for (const auto &flushed : _flush_scratch)
            if (!flushed.empty())
                sendFlushed(flushed);
        if (_flush_timeout > 0) {
            _last_push[store.dst] = curTick();
            armTimeout(store.dst);
        }
        break;
      }
      case EgressMode::write_combine: {
        auto evicted = _wc[store.dst]->push(store);
        if (evicted)
            sendWcLine(store.dst, *evicted);
        break;
      }
    }
}

void
EgressPort::issueAtomic(const icn::Store &store)
{
    ++_stores_issued;
    ++_atomics_sent;
    _store_sizes.sample(store.size);

    // Remote atomics are not coalesced: any previously-buffered store to
    // an overlapping address must flush first so same-address ordering
    // holds, then the atomic travels as its own transaction.
    if (_mode == EgressMode::finepack) {
        common::AccessRecorder(eventQueue())
            .write(&_rwq->partition(store.dst),
                   _rwq_labels[store.dst].c_str());
        _flush_scratch.clear();
        _rwq->flushIfConflict(store.dst, store.addr, store.size,
                              finepack::FlushReason::atomic_conflict,
                              _flush_scratch);
        for (const auto &flushed : _flush_scratch)
            if (!flushed.empty())
                sendFlushed(flushed);
    } else if (_mode == EgressMode::write_combine) {
        // The WC baseline conservatively flushes everything for this
        // destination.
        for (auto &line : _wc[store.dst]->flushAll())
            sendWcLine(store.dst, line);
    }
    sendRaw(store, icn::MessageKind::atomic_op);
}

void
EgressPort::releaseFence()
{
    common::AccessRecorder(eventQueue()).write(this, name().c_str());
    switch (_mode) {
      case EgressMode::raw_p2p:
        break; // nothing buffered
      case EgressMode::finepack:
        for (auto &flushed :
             _rwq->flushAll(finepack::FlushReason::release)) {
            sendFlushed(flushed);
        }
        break;
      case EgressMode::write_combine:
        for (GpuId g = 0; g < _num_gpus; ++g) {
            if (g == _self)
                continue;
            for (auto &line : _wc[g]->flushAll())
                sendWcLine(g, line);
        }
        break;
    }
}

void
EgressPort::notifyRemoteLoad(GpuId dst, Addr addr, std::uint32_t size)
{
    fp_assert(dst < _num_gpus && dst != _self, "bad load destination");
    common::AccessRecorder(eventQueue()).write(this, name().c_str());
    if (_mode == EgressMode::finepack) {
        common::AccessRecorder(eventQueue())
            .write(&_rwq->partition(dst), _rwq_labels[dst].c_str());
        _flush_scratch.clear();
        _rwq->flushIfConflict(dst, addr, size,
                              finepack::FlushReason::load_conflict,
                              _flush_scratch);
        for (const auto &flushed : _flush_scratch)
            if (!flushed.empty())
                sendFlushed(flushed);
    } else if (_mode == EgressMode::write_combine) {
        for (auto &line : _wc[dst]->flushAll())
            sendWcLine(dst, line);
    }
}

void
EgressPort::sendRaw(const icn::Store &store, icn::MessageKind kind)
{
    auto msg = icn::makeWireMessage();
    msg->kind = kind;
    msg->src = _self;
    msg->dst = store.dst;
    msg->payload_bytes = _protocol.payloadOnWire(store.addr, store.size);
    msg->header_bytes = _protocol.tlpOverhead();
    msg->data_bytes = store.size;
    msg->packed_store_count = 1;
    msg->stores.push_back(store);
    if (_latency)
        msg->store_stamps.push_back({curTick(), store.size});

    ++_messages_sent;
    _stores_folded += 1.0;
    _stores_per_msg.sample(1.0);
    _fabric.inject(msg);
}

void
EgressPort::attachOracle(check::ProtocolOracle &oracle)
{
    fp_assert(_mode == EgressMode::finepack,
              "the protocol oracle requires finepack mode, not ",
              toString(_mode));
    _rwq->addObserver(&oracle);
    _packetizer->addObserver(&oracle);
    oracle.setAccessRecorder(common::AccessRecorder(eventQueue()));
}

void
EgressPort::setProbes(const obs::Probes &probes)
{
    _latency = probes.latency;
    _recorder = probes.recorder;
    if (_mode != EgressMode::finepack)
        return;
    if (_stage_tracer) {
        _rwq->removeObserver(_stage_tracer.get());
        _packetizer->removeObserver(_stage_tracer.get());
        _stage_tracer.reset();
    }
    if (!probes.tracer)
        return;
    _stage_tracer = std::make_unique<StageTracer>(
        *probes.tracer, eventQueue(), obs::tracePidGpu(_self));
    _rwq->addObserver(_stage_tracer.get());
    _packetizer->addObserver(_stage_tracer.get());
}

void
EgressPort::sendFlushed(const finepack::FlushedPartition &flushed)
{
    common::AccessRecorder(eventQueue())
        .write(_packetizer.get(), _packetizer_label.c_str());
    icn::WireMessagePtr msg = _packetizer->toMessage(flushed, _protocol);
    ++_messages_sent;
    _stores_folded += static_cast<double>(flushed.packed_store_count);
    _stores_per_msg.sample(
        static_cast<double>(flushed.packed_store_count));
    _flush_entries.sample(static_cast<double>(flushed.entries.size()));
    if (_recorder)
        _recorder->record(obs::FlightKind::rwq_flush, curTick(),
                          finepack::toString(flushed.reason),
                          flushed.entries.size(), flushed.dst);
    _fabric.inject(msg);
}

void
EgressPort::sendWcLine(GpuId dst, const finepack::WcLine &line)
{
    icn::WireMessagePtr msg = _wc[dst]->lineToMessage(line, _protocol);
    ++_messages_sent;
    _stores_folded += static_cast<double>(line.folded);
    _stores_per_msg.sample(static_cast<double>(line.folded));
    _fabric.inject(msg);
}

void
EgressPort::armTimeout(GpuId dst)
{
    FP_INVARIANT(_flush_timeout > 0, "egress-timeout-exclusive",
                 "inactivity timeout armed while disabled");
    if (_timeout_armed[dst])
        return;
    _timeout_armed[dst] = true;
    scheduleIn([this, dst]() { timeoutFired(dst); }, _flush_timeout,
               common::Event::prio_sync, "egress.flush_timeout");
}

void
EgressPort::timeoutFired(GpuId dst)
{
    common::AccessRecorder(eventQueue()).write(this, name().c_str());
    common::AccessRecorder(eventQueue())
        .write(&_rwq->partition(dst), _rwq_labels[dst].c_str());
    _timeout_armed[dst] = false;
    if (_rwq->partition(dst).empty())
        return;

    Tick idle = curTick() - _last_push[dst];
    if (idle >= _flush_timeout) {
        _flush_scratch.clear();
        _rwq->partition(dst).flush(finepack::FlushReason::release,
                                   _flush_scratch);
        for (const auto &flushed : _flush_scratch) {
            if (!flushed.empty()) {
                ++_timeout_flushes;
                sendFlushed(flushed);
            }
        }
        return;
    }
    // Pushed again since arming: re-arm for the remaining idle window.
    _timeout_armed[dst] = true;
    scheduleIn([this, dst]() { timeoutFired(dst); },
               _flush_timeout - idle, common::Event::prio_sync,
               "egress.flush_timeout");
}

const finepack::RemoteWriteQueue &
EgressPort::writeQueue() const
{
    fp_assert(_rwq != nullptr, "no write queue in mode ", toString(_mode));
    return *_rwq;
}

const finepack::Packetizer &
EgressPort::packetizer() const
{
    fp_assert(_packetizer != nullptr, "no packetizer in mode ",
              toString(_mode));
    return *_packetizer;
}

double
EgressPort::avgStoresPerMessage() const
{
    double messages = _messages_sent.value();
    return messages > 0.0 ? _stores_folded.value() / messages : 0.0;
}

} // namespace fp::gpu
