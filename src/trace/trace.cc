#include "trace/trace.hh"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstring>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <type_traits>
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
    /** Every begin and end OR-ed: its lowest set bit divides them all. */
    Addr bound_bits = 0;
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
        bounds.bound_bits |= begin | end;
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
 * The log2 of a bucket's granule: the largest power of two dividing
 * every bound of its spans (@p bounds) and every bound of @p consumed
 * clipped to the spread [lo, hi). 0 when a consumed range wraps past
 * 2^64 (the bitmaps then defer to the sort anyway).
 */
unsigned
granuleShift(const SpanBounds &bounds,
             const std::vector<icn::AddrRange> *consumed)
{
    Addr bits = bounds.bound_bits;
    if (consumed) {
        for (const auto &range : *consumed) {
            if (range.end() < range.begin())
                return 0;
            const Addr begin = std::max(range.begin(), bounds.lo);
            const Addr end = std::min(range.end(), bounds.hi);
            if (begin < end)
                bits |= begin | end;
        }
    }
    return static_cast<unsigned>(std::countr_zero(bits));
}

/**
 * Count one bucket on two bitmaps over its spread [@p lo, @p hi), one
 * bit per granule of 2^@p shift bytes: bit i of the first is granule
 * lo + i 2^shift written, of the second that granule consumed. Every
 * span bound and every consumed bound inside the spread is a multiple
 * of the granule, and no span of @p spans wraps past 2^64. @p bitmaps
 * is all zero and is left so; it grows to two maps of the spread's
 * words. @return false, counting nothing, when a consumed range wraps
 * past 2^64: the bucket is then left to the sort.
 */
bool
countOnBitmaps(const std::vector<Span> &spans,
               const std::vector<icn::AddrRange> *consumed, Addr lo,
               Addr hi, unsigned shift, std::vector<std::uint64_t> &bitmaps,
               UpdateSummary &total)
{
    const Addr words = ((hi - lo - 1) >> shift) / 64 + 1;
    if (bitmaps.size() < 2 * words)
        bitmaps.resize(2 * words);
    std::uint64_t *written = bitmaps.data();
    std::uint64_t *read = written + words;
    for (const auto &[begin, end] : spans)
        setBits(written, (begin - lo) >> shift, (end - lo) >> shift);
    bool wraps = false;
    if (consumed) {
        // Only consumed bytes inside the spread can meet a store.
        for (const auto &range : *consumed) {
            wraps = wraps || range.end() < range.begin();
            const Addr begin = std::max(range.begin(), lo);
            const Addr end = std::min(range.end(), hi);
            if (begin < end)
                setBits(read, (begin - lo) >> shift, (end - lo) >> shift);
        }
    }
    if (wraps) {
        std::fill(written, read + words, 0);
        return false;
    }
    for (Addr w = 0; w < words; ++w) {
        total.unique_bytes +=
            static_cast<std::uint64_t>(std::popcount(written[w])) << shift;
        total.useful_bytes +=
            static_cast<std::uint64_t>(std::popcount(written[w] & read[w]))
            << shift;
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
            // cannot overflow): no sort. A bucket too sparse for a bit
            // per byte may still be dense at its granule (a bit per 4
            // or 8 bytes when every bound is a multiple of that). A
            // span that wraps past 2^64 has no spread, so its bucket is
            // sorted.
            const SpanBounds bounds = boundsOf(spans);
            if (!bounds.wraps) {
                const Addr last = bounds.hi - bounds.lo - 1;
                unsigned shift = 0;
                if (last / 64 >= spans.size())
                    shift = granuleShift(bounds, ranges);
                if ((last >> shift) / 64 < spans.size() &&
                    countOnBitmaps(spans, ranges, bounds.lo, bounds.hi,
                                   shift, bitmaps, total))
                    continue;
            }

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

static_assert(std::endian::native == std::endian::little,
              "the trace format is little-endian");

/** The first 8 bytes of a v2 trace. */
constexpr char trace_magic[8] = {'F', 'P', 'K', 'T', 'R', 'A', 'C', 'E'};
/** The first word of a v1 trace (its bytes read "ECARTKPF"). */
constexpr std::uint64_t v1_magic = 0x46504b5452414345ull;
constexpr std::uint32_t format_version = 2;
/** Reads back as itself only in the byte order it was written in. */
constexpr std::uint32_t byte_order_mark = 0x01020304;
/** Magic, version, byte-order mark and total length. */
constexpr std::uint64_t header_bytes = 8 + 4 + 4 + 8;
constexpr std::uint64_t trailer_bytes = 8;

// Records written as they lie in memory: no implicit padding, so
// zeroing the reserved bytes and the payload pointer makes them
// deterministic.
static_assert(sizeof(DmaCopy) == 24 &&
              std::has_unique_object_representations_v<DmaCopy>);
static_assert(std::has_unique_object_representations_v<icn::AddrRange>);

/** Zero what a record holds besides trace data: reserved bytes, payload. */
void
clear(icn::Store &store)
{
    store.data = nullptr;
    std::fill(std::begin(store.reserved), std::end(store.reserved), 0);
}

void clear(DmaCopy &copy) { copy.reserved = 0; }

void clear(icn::AddrRange &) {}

/**
 * Folds 8-byte words into four independent lanes, so the multiplies of
 * consecutive words overlap, then mixes the lanes with the length. A
 * checksum against corruption, not a cryptographic digest.
 */
class Checksum
{
  public:
    void
    update(const void *data, std::size_t size)
    {
        if (size == 0)
            return; // data may be null (an empty string or array)
        const auto *bytes = static_cast<const unsigned char *>(data);
        _length += size;
        if (_pending != 0) {
            const std::size_t take = std::min(size, block_bytes - _pending);
            std::memcpy(_block + _pending, bytes, take);
            _pending += take;
            bytes += take;
            size -= take;
            if (_pending < block_bytes)
                return;
            fold(_block);
            _pending = 0;
        }
        for (; size >= block_bytes; bytes += block_bytes, size -= block_bytes)
            fold(bytes);
        std::memcpy(_block, bytes, size);
        _pending = size;
    }

    std::uint64_t
    value() const
    {
        Checksum last = *this;
        if (last._pending != 0) {
            std::fill(last._block + last._pending, last._block + block_bytes,
                      0);
            last.fold(last._block);
        }
        std::uint64_t h = std::rotl(last._lanes[0], 1) +
                          std::rotl(last._lanes[1], 7) +
                          std::rotl(last._lanes[2], 12) +
                          std::rotl(last._lanes[3], 18);
        h ^= _length * prime1;
        h ^= h >> 33;
        h *= prime2;
        h ^= h >> 29;
        h *= prime3;
        h ^= h >> 32;
        return h;
    }

  private:
    static constexpr std::size_t lanes = 4;
    static constexpr std::size_t block_bytes = 8 * lanes;
    static constexpr std::uint64_t prime1 = 0x9e3779b185ebca87ull;
    static constexpr std::uint64_t prime2 = 0xc2b2ae3d27d4eb4full;
    static constexpr std::uint64_t prime3 = 0x165667b19e3779f9ull;

    void
    fold(const unsigned char *block)
    {
        for (std::size_t lane = 0; lane < lanes; ++lane) {
            std::uint64_t word;
            std::memcpy(&word, block + 8 * lane, 8);
            _lanes[lane] =
                std::rotl(_lanes[lane] + word * prime2, 31) * prime1;
        }
    }

    std::uint64_t _lanes[lanes] = {prime1 + prime2, prime2, 0, 0 - prime1};
    unsigned char _block[block_bytes] = {};
    std::size_t _pending = 0;
    std::uint64_t _length = 0;
};

/** Counts the bytes encode() hands it. */
struct LayoutSize
{
    std::uint64_t bytes = 0;

    template <typename T>
    void scalar(const T &) { bytes += sizeof(T); }

    template <typename T>
    void
    array(const std::vector<T> &records)
    {
        bytes += 8 + records.size() * sizeof(T);
    }

    void string(const std::string &s) { bytes += 4 + s.size(); }
};

/** Writes the bytes encode() hands it, folding them into a checksum. */
class TraceWriter
{
  public:
    explicit TraceWriter(std::ostream &os) : _os(os) {}

    void
    bytes(const void *data, std::size_t size)
    {
        _checksum.update(data, size);
        _os.write(static_cast<const char *>(data),
                  static_cast<std::streamsize>(size));
    }

    template <typename T>
    void scalar(const T &value) { bytes(&value, sizeof(T)); }

    /** A count, then the records in one write (cleared if need be). */
    template <typename T>
    void
    array(const std::vector<T> &records)
    {
        scalar<std::uint64_t>(records.size());
        const bool clean =
            std::all_of(records.begin(), records.end(), [](const T &r) {
                T c = r;
                clear(c);
                return std::memcmp(&c, &r, sizeof(T)) == 0;
            });
        if (clean) {
            bytes(records.data(), records.size() * sizeof(T));
            return;
        }
        std::vector<T> copy(records);
        for (T &record : copy)
            clear(record);
        bytes(copy.data(), copy.size() * sizeof(T));
    }

    void
    string(const std::string &s)
    {
        scalar<std::uint32_t>(static_cast<std::uint32_t>(s.size()));
        bytes(s.data(), s.size());
    }

    /** The trailer: the checksum of everything written before it. */
    void
    trailer()
    {
        const std::uint64_t sum = _checksum.value();
        _os.write(reinterpret_cast<const char *>(&sum), sizeof(sum));
    }

  private:
    std::ostream &_os;
    Checksum _checksum;
};

/** Hand every field after the header to @p out, in v2 order. */
template <typename Out>
void
encode(const WorkloadTrace &trace, Out &out)
{
    out.string(trace.workload);
    out.string(trace.comm_pattern);
    out.scalar(trace.num_gpus);
    out.scalar(trace.numIterations());
    for (const auto &iter : trace.iterations) {
        out.scalar(iter.numGpus());
        for (const auto &gpu : iter.per_gpu) {
            out.scalar(gpu.flops);
            out.scalar(gpu.local_bytes);
            out.scalar(gpu.dma_extra_local_bytes);
            out.array(gpu.remote_stores);
            out.array(gpu.dma_copies);
        }
        out.scalar(static_cast<std::uint32_t>(iter.consumed.size()));
        for (const auto &ranges : iter.consumed)
            out.array(ranges);
    }
    out.scalar(static_cast<std::uint32_t>(trace.single_gpu_work.size()));
    for (const auto &[flops, bytes] : trace.single_gpu_work) {
        out.scalar(flops);
        out.scalar(bytes);
    }
}

/**
 * Reads a v2 trace. It tracks the byte offset and the section it is
 * in, so every failure names both, and it refuses any count whose
 * records the bytes left in the stream cannot hold, so a corrupted
 * count never sizes a vector. Every failure is a fatal error: the
 * input is bad, the simulator is not.
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

    std::uint64_t offset() const { return _offset; }
    std::uint64_t left() const { return _left; }

    /** Name the section the following fields belong to. */
    void
    enter(const char *section, std::int64_t iteration = -1,
          std::int64_t gpu = -1)
    {
        _section = section;
        _iteration = iteration;
        _gpu = gpu;
    }

    /** Read @p size bytes into @p data, folding them into the checksum. */
    void
    bytes(void *data, std::uint64_t size, const char *what)
    {
        if (_left < size ||
            !_is.read(static_cast<char *>(data),
                      static_cast<std::streamsize>(size))) {
            fail("truncated at byte ", _offset, ": ", what,
                 " is cut short");
        }
        _checksum.update(data, size);
        _offset += size;
        _left -= size;
    }

    template <typename T>
    T
    read()
    {
        T value{};
        bytes(&value, sizeof(T), "a field");
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
     * Read a record count and that many records into @p records in one
     * read. @return the byte offset of the first record.
     */
    template <typename T>
    std::uint64_t
    array(std::vector<T> &records)
    {
        records.resize(count<std::uint64_t>(sizeof(T)));
        const std::uint64_t at = _offset;
        bytes(records.data(), records.size() * sizeof(T), "a record");
        return at;
    }

    std::string
    string()
    {
        std::string s(count<std::uint32_t>(1), '\0');
        bytes(s.data(), s.size(), "a string");
        return s;
    }

    /** Refuse a range at byte @p at that runs past 2^64. */
    void
    checkRange(std::uint64_t at, Addr base, std::uint64_t size)
    {
        if (size > ~base) {
            fail("the range at byte ", at, " (address ", base, ", ", size,
                 " bytes) runs past the end of the 64-bit address space");
        }
    }

    /** Read the trailer and check it against every byte before it. */
    void
    trailer()
    {
        enter("trailer");
        if (_left != trailer_bytes) {
            fail("the records end at byte ", _offset, ", but ", _left,
                 " bytes are left for the ", trailer_bytes,
                 "-byte trailer");
        }
        const std::uint64_t expected = _checksum.value();
        std::uint64_t stored = 0;
        if (!_is.read(reinterpret_cast<char *>(&stored), sizeof(stored)))
            fail("truncated at byte ", _offset, ": the trailer is cut short");
        if (stored != expected) {
            fail("checksum ", stored, " at byte ", _offset,
                 " does not match the ", expected,
                 " of the bytes before it: the trace is corrupt");
        }
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
    Checksum _checksum;
    std::uint64_t _offset = 0;
    std::uint64_t _left = 0;
    const char *_section = "header";
    std::int64_t _iteration = -1;
    std::int64_t _gpu = -1;
};

// The fewest bytes one record of each section takes on disk.
constexpr std::uint64_t iteration_bytes = 4 + 4;  // GPU and set counts
constexpr std::uint64_t gpu_work_bytes = 3 * 8 + 8 + 8;
constexpr std::uint64_t consumed_set_bytes = 8;
constexpr std::uint64_t work_bytes = 8 + 8;

/** The raw byte of @p store's atomic flag, read without a bool load. */
unsigned char
flagByte(const icn::Store &store)
{
    unsigned char flag;
    std::memcpy(&flag,
                reinterpret_cast<const unsigned char *>(&store) +
                    offsetof(icn::Store, is_atomic),
                1);
    return flag;
}

/**
 * Check the stores GPU @p self of a @p gpus-GPU trace issues, read at
 * byte @p at, in one scan, clearing what carries no trace data.
 */
void
checkStores(TraceReader &in, std::vector<icn::Store> &stores,
            std::uint64_t at, GpuId self, std::uint32_t gpus)
{
    for (icn::Store &store : stores) {
        const unsigned flag = flagByte(store);
        if (flag > 1) {
            in.fail("the store at byte ", at, " has atomic flag byte ",
                    flag, "; a flag is 0 or 1");
        }
        clear(store);
        if (store.size == 0)
            in.fail("the store at byte ", at, " writes 0 bytes");
        in.checkRange(at, store.addr, store.size);
        if (store.dst >= gpus) {
            in.fail("the store at byte ", at, " goes to GPU ", store.dst,
                    ", but the trace has ", gpus, " GPUs");
        }
        if (store.dst == self) {
            in.fail("the store at byte ", at, " goes to its own GPU ",
                    self);
        }
        at += sizeof(icn::Store);
    }
}

WorkloadTrace
readTrace(TraceReader &in)
{
    char magic[sizeof(trace_magic)];
    in.bytes(magic, sizeof(magic), "the magic");
    std::uint64_t word;
    std::memcpy(&word, magic, sizeof(word));
    if (word == v1_magic)
        in.fail("format v1: regenerate with `fptrace generate`");
    if (std::memcmp(magic, trace_magic, sizeof(magic)) != 0)
        in.fail("bad magic at byte 0: not a FinePack trace");
    const std::uint64_t version_at = in.offset();
    const auto version = in.read<std::uint32_t>();
    if (version != format_version) {
        in.fail("format version ", version, " at byte ", version_at,
                " is not ", format_version, ", the one this build reads");
    }
    const std::uint64_t mark_at = in.offset();
    if (in.read<std::uint32_t>() != byte_order_mark) {
        in.fail("the byte-order mark at byte ", mark_at,
                " does not read back: the trace is not little-endian");
    }
    const std::uint64_t length_at = in.offset();
    const auto length = in.read<std::uint64_t>();
    const std::uint64_t stream_bytes = in.offset() + in.left();
    if (length != stream_bytes) {
        in.fail("total length ", length, " at byte ", length_at,
                " is not the ", stream_bytes, " bytes of the stream");
    }

    WorkloadTrace trace;
    trace.workload = in.string();
    trace.comm_pattern = in.string();
    const std::uint64_t gpus_at = in.offset();
    const std::uint32_t gpus = trace.num_gpus = in.read<std::uint32_t>();
    if (gpus == 0)
        in.fail("GPU count 0 at byte ", gpus_at, ": a trace needs a GPU");
    trace.iterations.resize(in.count<std::uint32_t>(iteration_bytes));

    for (std::size_t i = 0; i < trace.iterations.size(); ++i) {
        auto &iter = trace.iterations[i];
        const auto it = static_cast<std::int64_t>(i);
        in.enter("GPU list", it);
        const std::uint64_t list_at = in.offset();
        iter.per_gpu.resize(in.count<std::uint32_t>(gpu_work_bytes));
        if (iter.per_gpu.size() != gpus) {
            in.fail("GPU count ", iter.per_gpu.size(), " at byte ", list_at,
                    " is not the trace's ", gpus, " GPUs");
        }
        for (GpuId g = 0; g < gpus; ++g) {
            auto &gpu = iter.per_gpu[g];
            in.enter("GPU work", it, g);
            gpu.flops = in.read<double>();
            gpu.local_bytes = in.read<std::uint64_t>();
            gpu.dma_extra_local_bytes = in.read<std::uint64_t>();
            in.enter("stores", it, g);
            const std::uint64_t stores_at = in.array(gpu.remote_stores);
            checkStores(in, gpu.remote_stores, stores_at, g, gpus);
            in.enter("DMA copies", it, g);
            std::uint64_t at = in.array(gpu.dma_copies);
            for (DmaCopy &copy : gpu.dma_copies) {
                clear(copy);
                in.checkRange(at + offsetof(DmaCopy, range),
                              copy.range.base, copy.range.size);
                if (copy.dst >= gpus) {
                    in.fail("the DMA copy at byte ", at, " goes to GPU ",
                            copy.dst, ", but the trace has ", gpus,
                            " GPUs");
                }
                if (copy.dst == g) {
                    in.fail("the DMA copy at byte ", at,
                            " goes to its own GPU ", g);
                }
                if (copy.range.size == 0)
                    in.fail("the DMA copy at byte ", at, " copies 0 bytes");
                at += sizeof(DmaCopy);
            }
        }
        in.enter("consumed sets", it);
        iter.consumed.resize(in.count<std::uint32_t>(consumed_set_bytes));
        for (auto &ranges : iter.consumed) {
            std::uint64_t at = in.array(ranges);
            for (const icn::AddrRange &range : ranges) {
                in.checkRange(at, range.base, range.size);
                at += sizeof(icn::AddrRange);
            }
        }
    }

    in.enter("single-GPU work");
    trace.single_gpu_work.resize(in.count<std::uint32_t>(work_bytes));
    for (auto &[flops, bytes] : trace.single_gpu_work) {
        flops = in.read<double>();
        bytes = in.read<std::uint64_t>();
    }
    in.trailer();
    return trace;
}

} // namespace

std::uint64_t
traceChecksum(const void *data, std::size_t size)
{
    Checksum checksum;
    checksum.update(data, size);
    return checksum.value();
}

void
writeTrace(const WorkloadTrace &trace, std::ostream &os)
{
    LayoutSize layout;
    encode(trace, layout);
    TraceWriter out(os);
    out.bytes(trace_magic, sizeof(trace_magic));
    out.scalar(format_version);
    out.scalar(byte_order_mark);
    out.scalar<std::uint64_t>(header_bytes + layout.bytes + trailer_bytes);
    encode(trace, out);
    out.trailer();
}

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
