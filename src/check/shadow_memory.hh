/**
 * @file
 * Line-granular shadow memory for protocol verification.
 *
 * A sparse reference image of "which bytes are live and what value was
 * last written to each" under last-writer-wins semantics - the legal
 * outcome of FinePack's overwrite-in-place coalescing under the GPU
 * weak memory model. The protocol oracle keeps one shadow per
 * destination to model the bytes currently buffered in the remote write
 * queue, and one per outstanding flush to model the byte image a
 * packetized transaction must reproduce exactly.
 *
 * Values are optional: timing-only simulations issue stores without
 * payload bytes, in which case the shadow tracks presence (coverage)
 * but not content.
 *
 * Storage is one record per aligned 128 B line actually touched, held
 * the way the remote write queue holds a line (finepack::QueueEntry):
 * a presence word pair and a has-value word pair, one bit per byte,
 * with the value bytes beside them. The records sit in a dense vector,
 * found through an open-addressed index of their tags, and a line whose
 * last byte is erased hands its slot to the last line, so a lookup
 * costs a hash and a probe or two, and a shadow allocates nothing once
 * it has grown.
 */

#ifndef FP_CHECK_SHADOW_MEMORY_HH
#define FP_CHECK_SHADOW_MEMORY_HH

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "finepack/config.hh"

namespace fp::check {

/** The shadow state of one byte. */
struct ShadowByte
{
    bool present = false;   ///< the byte is live in this shadow
    bool has_value = false; ///< a data-carrying store wrote it
    std::uint8_t value = 0; ///< last written value (when has_value)
};

/** One bit per byte of a 128 B line: bit i of word i / 64 is byte i. */
using LineMask = std::array<std::uint64_t, 2>;

/** The bits set in both @p a and @p b. */
inline LineMask
intersect(const LineMask &a, const LineMask &b)
{ return {a[0] & b[0], a[1] & b[1]}; }

/** The bits of @p a that are not set in @p b. */
inline LineMask
without(const LineMask &a, const LineMask &b)
{ return {a[0] & ~b[0], a[1] & ~b[1]}; }

/** The bits of line bytes [offset, offset + size); offset + size <= 128. */
inline LineMask
lineMask(std::uint32_t offset, std::uint32_t size)
{
    // Bits below byte b, for b in [0, 128], split across the words.
    auto below = [](std::uint32_t b) -> LineMask {
        if (b >= 64)
            return {~0ull, b == 128 ? ~0ull : (1ull << (b - 64)) - 1};
        return {(1ull << b) - 1, 0};
    };
    return without(below(offset + size), below(offset));
}

/** Is no bit of @p mask set? */
inline bool
none(const LineMask &mask)
{ return (mask[0] | mask[1]) == 0; }

/** Number of set bits. */
inline std::uint32_t
popcount(const LineMask &mask)
{
    return static_cast<std::uint32_t>(std::popcount(mask[0]) +
                                      std::popcount(mask[1]));
}

/** Call @p visit(byte) for every set bit of @p mask, ascending. */
template <typename Visit>
void
forEachByte(const LineMask &mask, Visit &&visit)
{
    for (std::uint32_t word = 0; word < 2; ++word) {
        for (std::uint64_t bits = mask[word]; bits; bits &= bits - 1)
            visit(word * 64 +
                  static_cast<std::uint32_t>(std::countr_zero(bits)));
    }
}

/** A sparse last-writer-wins memory image, one record per line. */
class ShadowMemory
{
  public:
    static constexpr std::uint32_t line_bytes = 128;
    static_assert(line_bytes == finepack::FinePackConfig::entry_bytes,
                  "a shadow line mirrors one remote write queue entry");

    /** One 128 B line; has_value is a subset of present. */
    struct Line
    {
        LineMask present{};
        LineMask has_value{};
        /** Value of byte i, meaningful where has_value is set. */
        std::array<std::uint8_t, line_bytes> value{};
    };

    static constexpr Addr lineOf(Addr addr)
    { return addr & ~Addr{line_bytes - 1}; }

    /**
     * Record a write of @p size bytes at @p addr. @p data may be null
     * (timing-only store): the bytes become present but valueless, and
     * any previously recorded value is invalidated (the unknown write
     * is the new last writer).
     */
    void write(Addr addr, std::uint32_t size, const std::uint8_t *data);

    /**
     * Record a write of the @p bytes of the line at @p line_addr: the
     * bytes in @p valued (a subset) take their value from
     * @p line_data[offset], the rest become valueless.
     */
    void writeLine(Addr line_addr, const LineMask &bytes,
                   const LineMask &valued, const std::uint8_t *line_data);

    /** The record of the line at @p line_addr, or null when absent. */
    const Line *
    find(Addr line_addr) const
    {
        const std::size_t slot = slotOf(line_addr);
        return slot < _lines.size() ? &_lines[slot] : nullptr;
    }

    /**
     * Remove the @p bytes of @p line (a record of this shadow; every
     * byte present). Drops the line when it empties, which invalidates
     * every Line pointer into this shadow.
     */
    void erase(const Line &line, const LineMask &bytes);

    /** Is @p addr live in this shadow? */
    bool contains(Addr addr) const { return get(addr).present; }

    /** Full shadow state of one byte (present=false when absent). */
    ShadowByte get(Addr addr) const;

    /** Remove one byte; returns false when it was not present. */
    bool erase(Addr addr);

    /** Number of live bytes. */
    std::uint64_t population() const { return _population; }
    bool empty() const { return _population == 0; }

    /** Drop everything, keeping the line storage. */
    void clear();

    /**
     * Up to @p max live byte addresses, in ascending order - failure
     * diagnostics use this to show what a buggy path left behind.
     */
    std::vector<Addr> sampleResident(std::size_t max) const;

  private:
    /** The index bucket a probe for @p line_addr starts at. */
    std::size_t
    home(Addr line_addr) const
    {
        return static_cast<std::size_t>(
            (line_addr / line_bytes * 0x9e3779b97f4a7c15ull) >> _shift);
    }

    /** The slot of @p line_addr, or _tags.size() when absent. */
    std::size_t
    slotOf(Addr line_addr) const
    {
        if (_index.empty())
            return _tags.size();
        const std::size_t mask = _index.size() - 1;
        for (std::size_t b = home(line_addr);; b = (b + 1) & mask) {
            const std::uint32_t entry = _index[b];
            if (entry == 0)
                return _tags.size();
            if (_tags[entry - 1] == line_addr)
                return entry - 1;
        }
    }

    /** The slot of @p line_addr, inserting an empty line when absent. */
    std::size_t slotFor(Addr line_addr);
    /** Remove @p bytes from the line in @p slot; drop it when empty. */
    void eraseInSlot(std::size_t slot, const LineMask &bytes);
    /** Enter @p slot in the first free bucket of its probe chain. */
    void place(std::size_t slot);
    /** The bucket holding @p slot. */
    std::size_t bucketOf(std::size_t slot) const;

    /** Line tags, parallel to _lines. */
    std::vector<Addr> _tags;
    std::vector<Line> _lines;
    /**
     * Linear-probing index of the tags: slot + 1 per used bucket, 0 per
     * free one; a power of two, at most half full.
     */
    std::vector<std::uint32_t> _index;
    unsigned _shift = 64;
    std::uint64_t _population = 0;
};

} // namespace fp::check

#endif // FP_CHECK_SHADOW_MEMORY_HH
