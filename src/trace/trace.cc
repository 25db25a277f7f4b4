#include "trace/trace.hh"

#include <algorithm>
#include <bit>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>

#include "common/logging.hh"

namespace fp::trace {

std::uint64_t
WorkloadTrace::totalRemoteStores() const
{
    std::uint64_t total = 0;
    for (const auto &iter : iterations)
        for (const auto &gpu : iter.per_gpu)
            total += gpu.remote_stores.size();
    return total;
}

std::uint64_t
WorkloadTrace::totalRemoteStoreBytes() const
{
    std::uint64_t total = 0;
    for (const auto &iter : iterations)
        for (const auto &gpu : iter.per_gpu)
            for (const auto &store : gpu.remote_stores)
                total += store.size;
    return total;
}

namespace {

using Span = std::pair<Addr, Addr>; // [begin, end)

constexpr unsigned digit_bits = 8;
constexpr std::size_t digit_values = std::size_t{1} << digit_bits;
constexpr Addr digit_mask = digit_values - 1;
constexpr unsigned max_digits = 64 / digit_bits;

/**
 * Stable LSD radix sort of @p n spans by begin address, keyed on
 * begin - @p lo. Only the digits @p spread (max begin - @p lo) needs
 * run, and a digit every key shares is skipped. Passes ping-pong
 * between @p spans and @p scratch; returns whichever holds the result.
 */
const Span *
radixSortByBegin(Span *spans, Span *scratch, std::size_t n, Addr lo,
                 Addr spread)
{
    const unsigned digits =
        (static_cast<unsigned>(std::bit_width(spread)) + digit_bits - 1) /
        digit_bits;
    // One read pass fills every digit's histogram; a permutation
    // leaves them valid for the later passes. Rows past `digits` are
    // never read, so only the used rows are cleared.
    std::size_t counts[max_digits][digit_values];
    for (unsigned d = 0; d < digits; ++d)
        std::fill(std::begin(counts[d]), std::end(counts[d]), 0);
    for (std::size_t i = 0; i < n; ++i) {
        Addr key = spans[i].first - lo;
        for (unsigned d = 0; d < digits; ++d)
            ++counts[d][(key >> (d * digit_bits)) & digit_mask];
    }

    Span *src = spans;
    Span *dst = scratch;
    for (unsigned d = 0; d < digits; ++d) {
        const unsigned shift = d * digit_bits;
        std::size_t *count = counts[d];
        if (count[((src[0].first - lo) >> shift) & digit_mask] == n)
            continue;
        std::size_t offset = 0;
        for (std::size_t v = 0; v < digit_values; ++v) {
            std::size_t c = count[v];
            count[v] = offset;
            offset += c;
        }
        for (std::size_t i = 0; i < n; ++i)
            dst[count[((src[i].first - lo) >> shift) & digit_mask]++] =
                src[i];
        std::swap(src, dst);
    }
    return src;
}

/** What one scan of a span list finds. */
struct SpanBounds
{
    Addr lo = 0;         ///< least begin
    Addr last_begin = 0; ///< greatest begin
    Addr hi = 0;         ///< greatest end
    bool sorted = true;  ///< begins never decrease
    bool wraps = false;  ///< some span runs past 2^64 (end <= begin)
};

SpanBounds
boundsOf(const std::vector<Span> &spans)
{
    SpanBounds bounds;
    if (spans.empty())
        return bounds;
    bounds.lo = bounds.last_begin = spans[0].first;
    Addr previous = bounds.lo;
    for (const auto &[begin, end] : spans) {
        bounds.sorted &= previous <= begin;
        bounds.wraps |= end <= begin;
        bounds.lo = std::min(bounds.lo, begin);
        bounds.last_begin = std::max(bounds.last_begin, begin);
        bounds.hi = std::max(bounds.hi, end);
        previous = begin;
    }
    return bounds;
}

/**
 * Sort @p spans by begin and merge overlapping or touching spans in
 * place, leaving them sorted and disjoint. @p bounds is boundsOf(spans);
 * input already sorted by begin skips the sort. @p scratch is the
 * sort's second buffer; it only grows, so one scratch serves many
 * calls without reallocating.
 */
void
normalizeSpans(std::vector<Span> &spans, std::vector<Span> &scratch,
               const SpanBounds &bounds)
{
    const std::size_t n = spans.size();
    if (n < 2)
        return;
    const Span *in = spans.data();
    if (!bounds.sorted) {
        if (scratch.size() < n)
            scratch.resize(n);
        in = radixSortByBegin(spans.data(), scratch.data(), n, bounds.lo,
                              bounds.last_begin - bounds.lo);
    }
    // When the sorted run is in spans itself, the write index never
    // passes the read index.
    std::size_t merged = 0;
    Span current = in[0];
    for (std::size_t i = 1; i < n; ++i) {
        if (in[i].first <= current.second) {
            current.second = std::max(current.second, in[i].second);
        } else {
            spans[merged++] = current;
            current = in[i];
        }
    }
    spans[merged++] = current;
    spans.resize(merged);
}

} // namespace

void
IntervalSet::add(Addr base, std::uint64_t size)
{
    if (size == 0)
        return;
    _spans.emplace_back(base, base + size);
    _dirty = true;
}

void
IntervalSet::normalize()
{
    if (!_dirty)
        return;
    std::vector<Span> scratch;
    normalizeSpans(_spans, scratch, boundsOf(_spans));
    _dirty = false;
}

std::uint64_t
IntervalSet::totalBytes()
{
    normalize();
    std::uint64_t total = 0;
    for (const auto &[begin, end] : _spans)
        total += end - begin;
    return total;
}

std::uint64_t
IntervalSet::intersectBytes(IntervalSet &other)
{
    normalize();
    other.normalize();
    std::uint64_t total = 0;
    std::size_t i = 0, j = 0;
    while (i < _spans.size() && j < other._spans.size()) {
        Addr lo = std::max(_spans[i].first, other._spans[j].first);
        Addr hi = std::min(_spans[i].second, other._spans[j].second);
        if (lo < hi)
            total += hi - lo;
        if (_spans[i].second < other._spans[j].second)
            ++i;
        else
            ++j;
    }
    return total;
}

std::size_t
IntervalSet::intervalCount()
{
    normalize();
    return _spans.size();
}

bool
IntervalSet::contains(Addr addr)
{
    normalize();
    auto it = std::upper_bound(
        _spans.begin(), _spans.end(), addr,
        [](Addr a, const std::pair<Addr, Addr> &span) {
            return a < span.first;
        });
    if (it == _spans.begin())
        return false;
    --it;
    return addr >= it->first && addr < it->second;
}

const std::vector<std::pair<Addr, Addr>> &
IntervalSet::intervals()
{
    normalize();
    return _spans;
}

namespace {

/** Set bits [begin, end) of @p bits; begin < end. */
void
setBits(std::uint64_t *bits, Addr begin, Addr end)
{
    const Addr first = begin / 64;
    const Addr last = (end - 1) / 64;
    const std::uint64_t head = ~std::uint64_t{0} << (begin % 64);
    const std::uint64_t tail = ~std::uint64_t{0} >> (63 - (end - 1) % 64);
    if (first == last) {
        bits[first] |= head & tail;
        return;
    }
    bits[first] |= head;
    std::fill(bits + first + 1, bits + last, ~std::uint64_t{0});
    bits[last] |= tail;
}

/**
 * Count one bucket on two bitmaps over its spread [@p lo, @p hi): bit
 * i of the first is byte lo + i written, of the second byte lo + i
 * consumed. No span of @p spans wraps past 2^64. @p bitmaps is all
 * zero and is left so; it grows to two maps of the spread's words.
 * @return false, counting nothing, when a consumed range wraps past
 * 2^64: the bucket is then left to the sort.
 */
bool
countOnBitmaps(const std::vector<Span> &spans,
               const std::vector<icn::AddrRange> *consumed, Addr lo,
               Addr hi, std::vector<std::uint64_t> &bitmaps,
               UpdateSummary &total)
{
    const Addr words = (hi - lo - 1) / 64 + 1;
    if (bitmaps.size() < 2 * words)
        bitmaps.resize(2 * words);
    std::uint64_t *written = bitmaps.data();
    std::uint64_t *read = written + words;
    for (const auto &[begin, end] : spans)
        setBits(written, begin - lo, end - lo);
    bool wraps = false;
    if (consumed) {
        // Only consumed bytes inside the spread can meet a store.
        for (const auto &range : *consumed) {
            wraps = wraps || range.end() < range.begin();
            const Addr begin = std::max(range.begin(), lo);
            const Addr end = std::min(range.end(), hi);
            if (begin < end)
                setBits(read, begin - lo, end - lo);
        }
    }
    if (wraps) {
        std::fill(written, read + words, 0);
        return false;
    }
    for (Addr w = 0; w < words; ++w) {
        total.unique_bytes += static_cast<std::uint64_t>(
            std::popcount(written[w]));
        total.useful_bytes += static_cast<std::uint64_t>(
            std::popcount(written[w] & read[w]));
        written[w] = 0;
        read[w] = 0;
    }
    return true;
}

} // namespace

UpdateSummary
summarizeTrace(const WorkloadTrace &trace)
{
    const std::uint32_t gpus = trace.num_gpus;
    // Scratch reused across iterations: each destination's updated
    // spans, one destination's consumed spans, the sort buffer and the
    // zeroed bitmaps.
    std::vector<std::vector<Span>> updated(gpus);
    std::vector<Span> consumed;
    std::vector<Span> scratch;
    std::vector<std::uint64_t> bitmaps;
    UpdateSummary total;
    for (const auto &iter : trace.iterations) {
        for (auto &spans : updated)
            spans.clear();
        for (const auto &gpu : iter.per_gpu)
            for (const auto &store : gpu.remote_stores)
                if (store.dst < gpus && store.size != 0)
                    updated[store.dst].emplace_back(store.begin(),
                                                    store.end());

        for (GpuId dst = 0; dst < gpus; ++dst) {
            std::vector<Span> &spans = updated[dst];
            if (spans.empty())
                continue;
            const std::vector<icn::AddrRange> *ranges =
                dst < iter.consumed.size() ? &iter.consumed[dst] : nullptr;

            // A dense bucket is counted on two bitmaps over its spread
            // when they take no more memory than its spans (two maps of
            // 8 B words against 16 B spans: at most one word per span,
            // tested as words - 1 < spans so that a spread near 2^64
            // cannot overflow): no sort. A span that wraps past 2^64
            // has no spread, so its bucket is sorted.
            const SpanBounds bounds = boundsOf(spans);
            if (!bounds.wraps &&
                (bounds.hi - bounds.lo - 1) / 64 < spans.size() &&
                countOnBitmaps(spans, ranges, bounds.lo, bounds.hi, bitmaps,
                               total))
                continue;

            normalizeSpans(spans, scratch, bounds);
            consumed.clear();
            if (ranges)
                for (const auto &range : *ranges)
                    if (range.size != 0)
                        consumed.emplace_back(range.begin(), range.end());
            normalizeSpans(consumed, scratch, boundsOf(consumed));

            // Both lists are sorted and disjoint: consumed spans that
            // end before one updated span also end before the next. A
            // consumed range that wraps past 2^64 ends below its begin
            // and overlaps nothing.
            std::size_t first = 0;
            for (const auto &[begin, end] : spans) {
                total.unique_bytes += end - begin;
                while (first < consumed.size() &&
                       consumed[first].second <= begin)
                    ++first;
                for (std::size_t c = first;
                     c < consumed.size() && consumed[c].first < end; ++c) {
                    const Addr lo = std::max(begin, consumed[c].first);
                    const Addr hi = std::min(end, consumed[c].second);
                    if (lo < hi)
                        total.useful_bytes += hi - lo;
                }
            }
        }
    }
    return total;
}

std::uint64_t
totalUsefulBytes(const WorkloadTrace &trace)
{
    return summarizeTrace(trace).useful_bytes;
}

std::uint64_t
totalUniqueBytes(const WorkloadTrace &trace)
{
    return summarizeTrace(trace).unique_bytes;
}

namespace {

constexpr std::uint64_t trace_magic = 0x46504b5452414345ull; // "FPKTRACE"

template <typename T>
void
writePod(std::ostream &os, const T &value)
{
    os.write(reinterpret_cast<const char *>(&value), sizeof(T));
}

/**
 * Reads a v1 trace field by field. It tracks the byte offset and the
 * section it is in, so every failure names both, and it refuses any
 * count whose records the bytes left in the stream cannot hold, so a
 * corrupted count never sizes a vector. Every failure is a fatal
 * error: the input is bad, the simulator is not.
 */
class TraceReader
{
  public:
    /** @p is must be seekable, so the bytes left are known. */
    explicit TraceReader(std::istream &is) : _is(is)
    {
        const std::istream::pos_type start = is.tellg();
        is.seekg(0, std::ios::end);
        const std::istream::pos_type end = is.tellg();
        is.seekg(start);
        fp_assert(start != std::istream::pos_type(-1) &&
                      end != std::istream::pos_type(-1) && end >= start &&
                      is.good(),
                  "trace stream is not seekable");
        _left = static_cast<std::uint64_t>(end - start);
    }

    /** Name the section the following fields belong to. */
    void
    enter(const char *section, std::int64_t iteration = -1,
          std::int64_t gpu = -1)
    {
        _section = section;
        _iteration = iteration;
        _gpu = gpu;
    }

    template <typename T>
    T
    read()
    {
        T value{};
        if (_left < sizeof(T) ||
            !_is.read(reinterpret_cast<char *>(&value), sizeof(T))) {
            fail("truncated at byte ", _offset, ": a ", sizeof(T),
                 "-byte field is cut short");
        }
        _offset += sizeof(T);
        _left -= sizeof(T);
        return value;
    }

    /**
     * Read a @p Count-wide record count whose records take at least
     * @p record_bytes each.
     */
    template <typename Count>
    std::uint64_t
    count(std::uint64_t record_bytes)
    {
        const std::uint64_t at = _offset;
        const std::uint64_t n = read<Count>();
        if (n > _left / record_bytes) {
            fail("count ", n, " at byte ", at, " needs at least ", n,
                 " x ", record_bytes, " bytes, but only ", _left,
                 " are left");
        }
        return n;
    }

    /**
     * Read an address and a @p Size-wide byte count, refusing a range
     * that runs past the top of the 64-bit address space: its end
     * would wrap to a low address.
     */
    template <typename Size>
    std::pair<Addr, Size>
    readRange()
    {
        const std::uint64_t at = _offset;
        const Addr base = read<Addr>();
        const Size size = read<Size>();
        if (size > ~base) {
            fail("the range at byte ", at, " (address ", base, ", ", size,
                 " bytes) runs past the end of the 64-bit address space");
        }
        return {base, size};
    }

    std::string
    readString()
    {
        std::string s(count<std::uint32_t>(1), '\0');
        if (!_is.read(s.data(), static_cast<std::streamsize>(s.size())))
            fail("truncated at byte ", _offset, ": a string is cut short");
        _offset += s.size();
        _left -= s.size();
        return s;
    }

    template <typename... Args>
    [[noreturn]] void
    fail(Args &&...args)
    {
        std::string where = _section;
        if (_iteration >= 0)
            where += " of iteration " + std::to_string(_iteration);
        if (_gpu >= 0)
            where += ", GPU " + std::to_string(_gpu);
        fp_fatal("trace ", where, ": ", std::forward<Args>(args)...);
    }

  private:
    std::istream &_is;
    std::uint64_t _offset = 0;
    std::uint64_t _left = 0;
    const char *_section = "header";
    std::int64_t _iteration = -1;
    std::int64_t _gpu = -1;
};

// The fewest bytes one record of each v1 section takes on disk.
constexpr std::uint64_t iteration_bytes = 4 + 4;  // GPU and set counts
constexpr std::uint64_t gpu_work_bytes = 3 * 8 + 8 + 8;
constexpr std::uint64_t store_bytes = 8 + 4 + 4 + 4 + 1;
constexpr std::uint64_t copy_bytes = 4 + 8 + 8;
constexpr std::uint64_t consumed_set_bytes = 8;
constexpr std::uint64_t range_bytes = 8 + 8;
constexpr std::uint64_t work_bytes = 8 + 8;

void
writeString(std::ostream &os, const std::string &s)
{
    writePod<std::uint32_t>(os, static_cast<std::uint32_t>(s.size()));
    os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

} // namespace

void
writeTrace(const WorkloadTrace &trace, std::ostream &os)
{
    writePod(os, trace_magic);
    writeString(os, trace.workload);
    writeString(os, trace.comm_pattern);
    writePod(os, trace.num_gpus);
    writePod<std::uint32_t>(os, trace.numIterations());

    for (const auto &iter : trace.iterations) {
        writePod<std::uint32_t>(os, iter.numGpus());
        for (const auto &gpu : iter.per_gpu) {
            writePod(os, gpu.flops);
            writePod(os, gpu.local_bytes);
            writePod(os, gpu.dma_extra_local_bytes);
            writePod<std::uint64_t>(os, gpu.remote_stores.size());
            for (const auto &store : gpu.remote_stores) {
                writePod(os, store.addr);
                writePod(os, store.size);
                writePod(os, store.src);
                writePod(os, store.dst);
                writePod<std::uint8_t>(os, store.is_atomic ? 1 : 0);
            }
            writePod<std::uint64_t>(os, gpu.dma_copies.size());
            for (const auto &copy : gpu.dma_copies) {
                writePod(os, copy.dst);
                writePod(os, copy.range.base);
                writePod(os, copy.range.size);
            }
        }
        writePod<std::uint32_t>(os,
                                static_cast<std::uint32_t>(
                                    iter.consumed.size()));
        for (const auto &ranges : iter.consumed) {
            writePod<std::uint64_t>(os, ranges.size());
            for (const auto &range : ranges) {
                writePod(os, range.base);
                writePod(os, range.size);
            }
        }
    }

    writePod<std::uint32_t>(os, static_cast<std::uint32_t>(
                                    trace.single_gpu_work.size()));
    for (const auto &[flops, bytes] : trace.single_gpu_work) {
        writePod(os, flops);
        writePod(os, bytes);
    }
}

namespace {

WorkloadTrace
readTrace(TraceReader &in)
{
    const auto magic = in.read<std::uint64_t>();
    if (magic != trace_magic)
        in.fail("bad magic at byte 0: not a FinePack trace");

    WorkloadTrace trace;
    trace.workload = in.readString();
    trace.comm_pattern = in.readString();
    trace.num_gpus = in.read<std::uint32_t>();
    trace.iterations.resize(in.count<std::uint32_t>(iteration_bytes));

    for (std::size_t i = 0; i < trace.iterations.size(); ++i) {
        auto &iter = trace.iterations[i];
        const auto it = static_cast<std::int64_t>(i);
        in.enter("GPU list", it);
        iter.per_gpu.resize(in.count<std::uint32_t>(gpu_work_bytes));
        for (std::size_t g = 0; g < iter.per_gpu.size(); ++g) {
            auto &gpu = iter.per_gpu[g];
            in.enter("GPU work", it, static_cast<std::int64_t>(g));
            gpu.flops = in.read<double>();
            gpu.local_bytes = in.read<std::uint64_t>();
            gpu.dma_extra_local_bytes = in.read<std::uint64_t>();
            in.enter("stores", it, static_cast<std::int64_t>(g));
            gpu.remote_stores.resize(in.count<std::uint64_t>(store_bytes));
            for (auto &store : gpu.remote_stores) {
                std::tie(store.addr, store.size) =
                    in.readRange<std::uint32_t>();
                store.src = in.read<GpuId>();
                store.dst = in.read<GpuId>();
                store.is_atomic = in.read<std::uint8_t>() != 0;
            }
            in.enter("DMA copies", it, static_cast<std::int64_t>(g));
            gpu.dma_copies.resize(in.count<std::uint64_t>(copy_bytes));
            for (auto &copy : gpu.dma_copies) {
                copy.dst = in.read<GpuId>();
                std::tie(copy.range.base, copy.range.size) =
                    in.readRange<std::uint64_t>();
            }
        }
        in.enter("consumed sets", it);
        iter.consumed.resize(in.count<std::uint32_t>(consumed_set_bytes));
        for (auto &ranges : iter.consumed) {
            ranges.resize(in.count<std::uint64_t>(range_bytes));
            for (auto &range : ranges) {
                std::tie(range.base, range.size) =
                    in.readRange<std::uint64_t>();
            }
        }
    }

    in.enter("single-GPU work");
    trace.single_gpu_work.resize(in.count<std::uint32_t>(work_bytes));
    for (auto &[flops, bytes] : trace.single_gpu_work) {
        flops = in.read<double>();
        bytes = in.read<std::uint64_t>();
    }
    return trace;
}

} // namespace

WorkloadTrace
readTrace(std::istream &is)
{
    if (is.tellg() != std::istream::pos_type(-1)) {
        TraceReader in(is);
        return readTrace(in);
    }
    // A pipe: buffer it, so every count can be checked against the
    // bytes that are really there.
    is.clear();
    std::stringstream buffered(std::ios::in | std::ios::out |
                               std::ios::binary);
    buffered << is.rdbuf();
    buffered.clear();
    TraceReader in(buffered);
    return readTrace(in);
}

} // namespace fp::trace
