/**
 * @file
 * In-memory spans for the benchmark's traced pass.
 *
 * A span is one timed call into a layer: its name, start, end, the span
 * that encloses it, and the run it belongs to. Spans nest strictly (the
 * benchmark is single-threaded), so a stack of open spans gives every
 * span its parent and lets each close charge its duration to the parent
 * as child time: self time = duration - time covered by children. The
 * same bookkeeping runs on the allocation counter, so every span also
 * knows how many heap allocations happened under it and in it alone.
 *
 * Per-name totals are exact for every span. Individual records are kept
 * up to a cap (the first spans of the pass), so a multi-million-span
 * pass stays bounded in memory; writeChromeTrace() writes them out when
 * the benchmark ends.
 */

#ifndef FP_PERFBENCH_SPANS_HH
#define FP_PERFBENCH_SPANS_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace fp::perfbench {

/** Monotonic nanoseconds (steady clock). */
std::int64_t nowNs();

/** Aggregate over every closed span of one name. */
struct SpanTotals
{
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
    std::uint64_t allocs = 0;
    std::uint64_t self_allocs = 0;
};

class Tracer
{
  public:
    static constexpr std::uint32_t no_parent = 0xffffffffu;

    explicit Tracer(std::size_t record_cap) : _record_cap(record_cap) {}

    /** Id of span name @p name; @p name must outlive the tracer. */
    std::uint16_t intern(const char *name);

    void begin(std::uint16_t name);
    void end();

    /** Spans opened from now on belong to run @p run. */
    void setRun(std::uint32_t run) { _run = run; }

    /** Totals for @p name (all zero when no such span closed). */
    SpanTotals totals(const char *name) const;

    /** Every span name seen, with its totals. */
    std::vector<std::pair<std::string, SpanTotals>> allTotals() const;

    /** Chrome trace-event JSON of the kept records (one pid per run). */
    void writeChromeTrace(std::ostream &os) const;

    std::uint64_t recordsDropped() const { return _dropped; }

  private:
    struct Record
    {
        std::uint32_t id;
        std::uint32_t parent;
        std::uint32_t run;
        std::uint16_t name;
        std::int64_t start_ns;
        std::int64_t end_ns;
    };

    struct Open
    {
        std::uint16_t name;
        std::uint32_t id;
        std::int64_t start_ns;
        std::uint64_t allocs_at_start;
        std::int64_t child_ns;
        std::uint64_t child_allocs;
    };

    std::size_t _record_cap;
    std::vector<const char *> _names;
    std::vector<SpanTotals> _totals;
    std::vector<Open> _open;
    std::vector<Record> _records;
    std::uint64_t _dropped = 0;
    std::uint32_t _next_id = 0;
    std::uint32_t _run = 0;
};

/** RAII span; a null tracer makes it a no-op. */
class Span
{
  public:
    Span(Tracer *tracer, std::uint16_t name) : _tracer(tracer)
    {
        if (_tracer)
            _tracer->begin(name);
    }
    ~Span()
    {
        if (_tracer)
            _tracer->end();
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer *_tracer;
};

} // namespace fp::perfbench

#endif // FP_PERFBENCH_SPANS_HH
