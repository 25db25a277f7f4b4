#include "obs/health.hh"

#include <chrono>
#include <iostream>
#include <sstream>

#include "check/invariant.hh"
#include "obs/fatal.hh"
#include "obs/flight_recorder.hh"

namespace fp::obs {

namespace {

/**
 * Host wall-clock in nanoseconds. Like obs/profiler.cc, measuring host
 * time is this component's whole job: heartbeats, stall thresholds and
 * ETAs are about the machine, never about simulated ticks, and nothing
 * here feeds back into the DES.
 */
std::uint64_t
nowNs()
{
    // fp-lint: allow(wall-clock) host-time measurement is this file's job
    auto now = std::chrono::steady_clock::now().time_since_epoch();
    return static_cast<std::uint64_t>(
        // fp-lint: allow(wall-clock) host-time measurement is this file's job
        std::chrono::duration_cast<std::chrono::nanoseconds>(now)
            .count());
}

} // namespace

HealthMonitor::HealthMonitor() : HealthMonitor(Options()) {}

HealthMonitor::HealthMonitor(Options options)
    : _options(std::move(options))
{
    if (_options.heartbeat_ns == 0)
        _options.heartbeat_ns = 1'000'000'000ULL;
}

HealthMonitor::~HealthMonitor()
{
    stop();
}

void
HealthMonitor::attachRecorder(const FlightRecorder *recorder)
{
    _recorder.store(recorder, std::memory_order_release);
}

void
HealthMonitor::setSweepProgress(const std::atomic<std::uint64_t> *done,
                                const std::atomic<std::uint64_t> *total)
{
    _sweep_done.store(done, std::memory_order_release);
    _sweep_total.store(total, std::memory_order_release);
}

void
HealthMonitor::start()
{
    if (_running)
        return;
    if (!_options.heartbeat_path.empty()) {
        _out.open(_options.heartbeat_path,
                  std::ios::out | std::ios::trunc);
        if (!_out)
            std::cerr << "health: cannot open heartbeat sink '"
                      << _options.heartbeat_path << "'\n";
    }
    _start_ns = 0; // evaluate() re-arms on its first sample
    _last_progress_ns = 0;
    _last_signature = 0;
    _last_beat_ns = 0;
    _last_beat_events = 0;
    _in_stall = false;
    {
        fp::MutexLock lock(_mu);
        _stop = false;
    }
    _thread = fp::Thread([this] { threadMain(); });
    _running = true;
}

void
HealthMonitor::stop()
{
    if (!_running)
        return;
    {
        fp::MutexLock lock(_mu);
        _stop = true;
        _cv.notify_all();
    }
    _thread.join();
    _running = false;
    if (_out.is_open())
        _out.close();
}

std::uint64_t
HealthMonitor::heartbeats() const
{
    return _heartbeats.load(std::memory_order_relaxed);
}

std::uint64_t
HealthMonitor::stallsDetected() const
{
    return _stalls.load(std::memory_order_relaxed);
}

void
HealthMonitor::threadMain()
{
    for (;;) {
        {
            fp::MutexLock lock(_mu);
            if (_stop)
                return;
            _cv.waitFor(_mu, _options.heartbeat_ns);
            if (_stop)
                return;
        }
        evaluate(nowNs());
    }
}

/**
 * Everything the recorder and sweep publish that counts as forward
 * progress, folded into one monotonic number: if it changes, the run
 * moved; if it freezes while wall-clock advances, something is wrong.
 */
std::uint64_t
HealthMonitor::progressSignature() const
{
    std::uint64_t sig = 0;
    if (const FlightRecorder *recorder =
            _recorder.load(std::memory_order_acquire)) {
        sig += recorder->recordsWritten();
        sig += recorder->queueProcessed();
    }
    if (const auto *done = _sweep_done.load(std::memory_order_acquire))
        sig += done->load(std::memory_order_relaxed);
    return sig;
}

bool
HealthMonitor::evaluate(std::uint64_t now_ns)
{
    if (_start_ns == 0) {
        _start_ns = now_ns;
        _last_progress_ns = now_ns;
        _last_signature = progressSignature();
    }

    std::uint64_t signature = progressSignature();
    if (signature != _last_signature) {
        _last_signature = signature;
        _last_progress_ns = now_ns;
        _in_stall = false; // progress resumed; re-arm the episode
    }

    if (_last_beat_ns == 0 ||
        now_ns - _last_beat_ns >= _options.heartbeat_ns)
        emitHeartbeat(now_ns);

    std::uint64_t threshold = _options.stall_ns != 0
                                  ? _options.stall_ns
                                  : 10 * _options.heartbeat_ns;
    std::uint64_t stalled_ns = now_ns - _last_progress_ns;
    if (_in_stall || stalled_ns < threshold)
        return false;

    const FlightRecorder *recorder =
        _recorder.load(std::memory_order_acquire);
    if (!recorder)
        return false; // no progress source -- cannot diagnose

    const char *mode = nullptr;
    if (recorder->queueDepth() > 0) {
        // Wall-clock advanced, tick and events-executed froze, and the
        // queue still holds work: a handler (or the host around it) is
        // wedged.
        mode = "wedged";
    } else {
        const auto *done = _sweep_done.load(std::memory_order_acquire);
        const auto *total =
            _sweep_total.load(std::memory_order_acquire);
        if (done && total &&
            done->load(std::memory_order_relaxed) <
                total->load(std::memory_order_relaxed))
            mode = "quiescent"; // queue drained, shards outstanding
    }
    if (!mode)
        return false; // idle with nothing pending: legitimately done

    _in_stall = true;
    _stalls.fetch_add(1, std::memory_order_relaxed);
    emitStall(now_ns, mode, stalled_ns);
    return true;
}

void
HealthMonitor::emitHeartbeat(std::uint64_t now_ns)
{
    const FlightRecorder *recorder =
        _recorder.load(std::memory_order_acquire);

    std::uint64_t events =
        recorder ? recorder->eventsSeen() : 0;
    std::uint64_t events_per_sec = 0;
    if (_last_beat_ns != 0 && now_ns > _last_beat_ns &&
        events >= _last_beat_events) {
        std::uint64_t delta_ns = now_ns - _last_beat_ns;
        events_per_sec =
            (events - _last_beat_events) * 1'000'000'000ULL / delta_ns;
    }

    std::ostringstream line;
    line << "{\"kind\":\"heartbeat\",\"schema_version\":1"
         << ",\"uptime_ns\":" << (now_ns - _start_ns)
         << ",\"events\":" << events
         << ",\"events_per_sec\":" << events_per_sec;
    if (recorder) {
        line << ",\"tick\":" << recorder->lastTick()
             << ",\"queue\":{\"depth\":" << recorder->queueDepth()
             << ",\"peak\":" << recorder->queuePeakDepth()
             << ",\"scheduled\":" << recorder->queueScheduled()
             << ",\"processed\":" << recorder->queueProcessed() << "}"
             << ",\"rwq\":{\"flushes\":"
             << recorder->kindCount(FlightKind::rwq_flush)
             << ",\"entries\":" << recorder->rwqEntriesFlushed() << "}";
    }
    line << ",\"invariant_checks\":"
         << check::InvariantRegistry::instance().totalChecks()
         << ",\"rss_hwm_kb\":" << rssHighWaterKb();
    const auto *done = _sweep_done.load(std::memory_order_acquire);
    const auto *total = _sweep_total.load(std::memory_order_acquire);
    if (done && total) {
        std::uint64_t d = done->load(std::memory_order_relaxed);
        std::uint64_t t = total->load(std::memory_order_relaxed);
        std::uint64_t eta_ns = 0;
        if (d > 0 && t > d)
            eta_ns = (now_ns - _start_ns) / d * (t - d);
        line << ",\"sweep\":{\"done\":" << d << ",\"total\":" << t
             << ",\"eta_ns\":" << eta_ns << "}";
    }
    line << "}";

    std::string text = line.str();
    writeLine(text);
    fatal::setLastHeartbeat(text.c_str(), text.size());
    _heartbeats.fetch_add(1, std::memory_order_relaxed);
    _last_beat_ns = now_ns;
    _last_beat_events = events;
}

void
HealthMonitor::emitStall(std::uint64_t now_ns, const char *mode,
                         std::uint64_t stalled_ns)
{
    const FlightRecorder *recorder =
        _recorder.load(std::memory_order_acquire);

    std::ostringstream line;
    line << "{\"kind\":\"stall\",\"schema_version\":1,\"mode\":\""
         << mode << "\",\"stalled_ns\":" << stalled_ns
         << ",\"uptime_ns\":" << (now_ns - _start_ns);
    if (recorder) {
        line << ",\"tick\":" << recorder->lastTick()
             << ",\"events\":" << recorder->eventsSeen()
             << ",\"queue\":{\"depth\":" << recorder->queueDepth()
             << ",\"peak\":" << recorder->queuePeakDepth()
             << ",\"scheduled\":" << recorder->queueScheduled()
             << ",\"processed\":" << recorder->queueProcessed() << "}";
        if (const char *label = recorder->lastEventLabel())
            line << ",\"last_event\":\"" << label << "\"";
    }
    const auto *done = _sweep_done.load(std::memory_order_acquire);
    const auto *total = _sweep_total.load(std::memory_order_acquire);
    if (done && total)
        line << ",\"sweep\":{\"done\":"
             << done->load(std::memory_order_relaxed)
             << ",\"total\":" << total->load(std::memory_order_relaxed)
             << "}";
    line << "}";
    writeLine(line.str());
}

void
HealthMonitor::writeLine(const std::string &line)
{
    if (_out.is_open()) {
        _out << line << '\n';
        _out.flush();
    } else {
        std::cerr << line << '\n';
    }
}

std::uint64_t
HealthMonitor::rssHighWaterKb()
{
    std::ifstream status("/proc/self/status");
    std::string key;
    while (status >> key) {
        if (key == "VmHWM:") {
            std::uint64_t kb = 0;
            status >> kb;
            return kb;
        }
        status.ignore(4096, '\n');
    }
    return 0;
}

} // namespace fp::obs
