#include "spans.hh"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "alloc_count.hh"
#include "common/json.hh"
#include "common/logging.hh"

namespace fp::perfbench {

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::uint16_t
Tracer::intern(const char *name)
{
    for (std::size_t i = 0; i < _names.size(); ++i)
        if (_names[i] == name || std::strcmp(_names[i], name) == 0)
            return static_cast<std::uint16_t>(i);
    fp_assert(_names.size() < 0xffff, "too many span names");
    _names.push_back(name);
    _totals.emplace_back();
    return static_cast<std::uint16_t>(_names.size() - 1);
}

void
Tracer::begin(std::uint16_t name)
{
    _open.push_back({name, _next_id++, 0, allocationCount(), 0, 0});
    // Read the clock last so the bookkeeping above is not charged.
    _open.back().start_ns = nowNs();
}

void
Tracer::end()
{
    std::int64_t end_ns = nowNs();
    std::uint64_t allocs_now = allocationCount();
    fp_assert(!_open.empty(), "span end without begin");
    Open span = _open.back();
    _open.pop_back();

    std::int64_t duration = end_ns - span.start_ns;
    std::uint64_t allocs = allocs_now - span.allocs_at_start;
    SpanTotals &totals = _totals[span.name];
    ++totals.count;
    totals.total_ns += duration;
    totals.self_ns += duration - span.child_ns;
    totals.allocs += allocs;
    totals.self_allocs += allocs - span.child_allocs;

    std::uint32_t parent = no_parent;
    if (!_open.empty()) {
        _open.back().child_ns += duration;
        _open.back().child_allocs += allocs;
        parent = _open.back().id;
    }
    if (_records.size() < _record_cap)
        _records.push_back(
            {span.id, parent, _run, span.name, span.start_ns, end_ns});
    else
        ++_dropped;
}

SpanTotals
Tracer::totals(const char *name) const
{
    for (std::size_t i = 0; i < _names.size(); ++i)
        if (std::strcmp(_names[i], name) == 0)
            return _totals[i];
    return {};
}

std::vector<std::pair<std::string, SpanTotals>>
Tracer::allTotals() const
{
    std::vector<std::pair<std::string, SpanTotals>> out;
    for (std::size_t i = 0; i < _names.size(); ++i)
        out.emplace_back(_names[i], _totals[i]);
    return out;
}

void
Tracer::writeChromeTrace(std::ostream &os) const
{
    std::int64_t epoch = _records.empty() ? 0 : _records.front().start_ns;
    for (const Record &r : _records)
        epoch = std::min(epoch, r.start_ns);

    common::JsonWriter json(os);
    json.beginObject();
    json.key("traceEvents");
    json.beginArray();
    for (const Record &r : _records) {
        json.beginObject();
        json.kv("name", _names[r.name]);
        json.kv("ph", "X");
        json.kv("pid", r.run);
        json.kv("tid", 0);
        json.kv("ts", static_cast<double>(r.start_ns - epoch) / 1e3);
        json.kv("dur", static_cast<double>(r.end_ns - r.start_ns) / 1e3);
        json.key("args");
        json.beginObject();
        json.kv("id", r.id);
        if (r.parent != no_parent)
            json.kv("parent", r.parent);
        json.endObject();
        json.endObject();
    }
    json.endArray();
    json.kv("spans_dropped", _dropped);
    json.endObject();
    os << "\n";
}

} // namespace fp::perfbench
