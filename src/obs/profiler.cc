#include "obs/profiler.hh"

#include <algorithm>
// fp-lint: allow(wall-clock) the self-profiler's whole purpose is
// measuring host wall time; it never feeds simulated state.
#include <chrono>
#include <map>

#include "common/json.hh"
#include "common/logging.hh"
#include "obs/trace_event.hh"

namespace fp::obs {

namespace {

/** Manual-scope slices retained for the trace timeline. */
constexpr std::size_t max_slices = 8192;

std::uint64_t
nowNs()
{
    // fp-lint: allow(wall-clock) host-time measurement is this file's job
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            // fp-lint: allow(wall-clock) see above
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

void
Profiler::beginRun(common::EventQueue *queue)
{
    fp_assert(queue != nullptr, "profiler needs a queue to observe");
    fp_assert(_queue == nullptr, "profiler already attached to a run");
    fp_assert(_stack.empty(), "profiler run started inside an open frame");
    _queue = queue;
    _queue->addObserver(this);
    _run_start_ns = nowNs();
    markOrigin(_run_start_ns);
}

void
Profiler::markOrigin(std::uint64_t now_ns)
{
    if (_origin_set)
        return;
    _origin_ns = now_ns;
    _origin_set = true;
}

void
Profiler::endRun()
{
    fp_assert(_queue != nullptr, "profiler not attached to a run");
    fp_assert(_stack.empty(), "profiler run ended inside an open frame");
    _wall_ns += nowNs() - _run_start_ns;
    _queue_pushes += _queue->eventsScheduled();
    _queue_pops += _queue->eventsProcessed();
    _queue_stale_drops += _queue->staleDrops();
    _queue_peak_depth = std::max(_queue_peak_depth, _queue->peakDepth());
    _queue->removeObserver(this);
    _queue = nullptr;
}

void
Profiler::beginEvent(const common::Event &event)
{
    pushFrame(event.description(), /*is_scope=*/false);
}

void
Profiler::endEvent(const common::Event &event)
{
    (void)event;
    ++_events;
    popFrame();
}

Profiler::Bucket *
Profiler::bucketFor(const char *label)
{
    // Hot-path cache: consecutive events usually share a label (store
    // bursts, link deliveries), so the hash lookup mostly short-circuits.
    if (label == _last_key)
        return _last_bucket;
    Bucket &bucket = _buckets[label];
    bucket.label = label;
    _last_key = label;
    _last_bucket = &bucket;
    return &bucket;
}

void
Profiler::pushFrame(const char *label, bool is_scope)
{
    // A frame above a timeline frame is itself one unless it is an
    // event, so no event is open below a timeline frame.
    const bool timeline =
        is_scope && (_stack.empty() || _stack.back().timeline);
    const std::uint64_t start = nowNs();
    if (timeline)
        markOrigin(start);
    _stack.push_back(Frame{bucketFor(label), start, /*child_ns=*/0, timeline});
}

void
Profiler::popFrame()
{
    fp_assert(!_stack.empty(), "profiler frame stack underflow");
    Frame frame = _stack.back();
    _stack.pop_back();
    std::uint64_t end = nowNs();
    std::uint64_t dur = end - frame.start_ns;
    std::uint64_t self = dur > frame.child_ns ? dur - frame.child_ns : 0;

    Bucket *bucket = frame.bucket;
    ++bucket->count;
    bucket->total_ns += dur;
    bucket->self_ns += self;
    bucket->max_ns = std::max(bucket->max_ns, dur);

    if (!_stack.empty())
        _stack.back().child_ns += dur;

    if (frame.timeline) {
        if (_slices.size() < max_slices) {
            _slices.push_back(Slice{bucket->label,
                                    frame.start_ns - _origin_ns, dur});
        } else {
            ++_dropped_slices;
        }
    }
}

double
Profiler::eventsPerSec() const
{
    if (_wall_ns == 0)
        return 0.0;
    return static_cast<double>(_events) /
           (static_cast<double>(_wall_ns) / 1e9);
}

std::vector<HostHotspot>
Profiler::hotspots(std::size_t top_n) const
{
    // Merge buckets by label text (an ordered map, so identical times
    // still report deterministically whatever the hash layout).
    std::map<std::string, HostHotspot> merged;
    // fp-lint: allow(unordered-iteration) order-insensitive aggregation
    for (const auto &[key, bucket] : _buckets) {
        HostHotspot &spot = merged[bucket.label];
        spot.label = bucket.label;
        spot.count += bucket.count;
        spot.total_ns += bucket.total_ns;
        spot.self_ns += bucket.self_ns;
        spot.max_ns = std::max(spot.max_ns, bucket.max_ns);
    }
    std::vector<HostHotspot> rows;
    rows.reserve(merged.size());
    for (const auto &[label, spot] : merged)
        rows.push_back(spot);
    std::sort(rows.begin(), rows.end(),
              [](const HostHotspot &a, const HostHotspot &b) {
                  if (a.self_ns != b.self_ns)
                      return a.self_ns > b.self_ns;
                  return a.label < b.label;
              });
    if (top_n != 0 && rows.size() > top_n)
        rows.resize(top_n);
    return rows;
}

void
Profiler::dumpJson(common::JsonWriter &json, std::size_t top_n) const
{
    json.beginObject();
    json.kv("wall_ns", _wall_ns);
    json.kv("events", _events);
    json.kv("events_per_sec", eventsPerSec());
    json.key("queue");
    json.beginObject();
    json.kv("pushes", _queue_pushes);
    json.kv("pops", _queue_pops);
    json.kv("stale_drops", _queue_stale_drops);
    json.kv("peak_depth",
            static_cast<std::uint64_t>(_queue_peak_depth));
    json.endObject();
    json.key("hotspots");
    json.beginArray();
    for (const HostHotspot &spot : hotspots(top_n)) {
        json.beginObject();
        json.kv("label", spot.label);
        json.kv("count", spot.count);
        json.kv("total_ns", spot.total_ns);
        json.kv("self_ns", spot.self_ns);
        json.kv("max_ns", spot.max_ns);
        json.endObject();
    }
    json.endArray();
    json.endObject();
}

void
Profiler::emitTrace(TraceSink &sink) const
{
    sink.processName(trace_pid_host, "host: self-profiler (wall clock)");
    sink.threadName(trace_pid_host, 0, "driver scopes");
    // Host ns -> trace ticks: ticks are ps and the sink renders
    // ts / 1e6 µs, so multiplying by 1000 makes 1 host ns = 1 trace ns.
    // The host timeline thus shares the view's µs axis while measuring
    // a different clock (wall time since the first run or scope).
    Tick last = 0;
    for (const Slice &slice : _slices) {
        sink.complete(trace_pid_host, 0, slice.label, "host",
                      static_cast<Tick>(slice.start_ns * 1000),
                      static_cast<Tick>(slice.dur_ns * 1000));
        last = std::max(last, static_cast<Tick>(
                                  (slice.start_ns + slice.dur_ns) * 1000));
    }
    sink.counter(trace_pid_host, "host.events_per_sec", last,
                 eventsPerSec());
}

void
Profiler::reset()
{
    fp_assert(_queue == nullptr, "cannot reset while attached to a run");
    fp_assert(_stack.empty(), "cannot reset inside an open frame");
    _buckets.clear();
    _last_key = nullptr;
    _last_bucket = nullptr;
    _slices.clear();
    _dropped_slices = 0;
    _events = 0;
    _wall_ns = 0;
    _queue_pushes = 0;
    _queue_pops = 0;
    _queue_stale_drops = 0;
    _queue_peak_depth = 0;
    _origin_ns = 0;
    _origin_set = false;
}

} // namespace fp::obs
