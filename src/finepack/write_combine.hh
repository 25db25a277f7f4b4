/**
 * @file
 * A cacheline-granularity write-combining buffer: the "write combining
 * alone" baseline of Section VI-A and the coalescing mechanism used by
 * GPS (Section VI-B). It merges same-line stores like the FinePack
 * remote write queue, but every flushed line is emitted as its own
 * ordinary memory-write TLP covering the full 128 B line, so unwritten
 * line bytes travel as wasted payload and every line pays full protocol
 * overhead.
 */

#ifndef FP_FINEPACK_WRITE_COMBINE_HH
#define FP_FINEPACK_WRITE_COMBINE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hh"
#include "finepack/remote_write_queue.hh"
#include "interconnect/message.hh"
#include "interconnect/protocol.hh"

namespace fp::finepack {

/** A line leaving the write-combining buffer. */
struct WcLine
{
    QueueEntry entry;
    /** Program stores folded into this line while buffered. */
    std::uint64_t folded = 0;
};

/**
 * One destination's write-combining buffer with LRU replacement: a
 * fixed set of line slots, found by a tag scan and stamped with the
 * order of their last write, so the victim is the line with the oldest
 * stamp. Flushing a line produces a full-cacheline write message.
 */
class WriteCombineBuffer
{
  public:
    /**
     * @param src       Issuing GPU.
     * @param dst       Destination GPU.
     * @param num_lines Buffer capacity in 128 B cache lines.
     */
    WriteCombineBuffer(GpuId src, GpuId dst, std::uint32_t num_lines = 64);

    /**
     * Buffer one store; returns the evicted line when the insertion
     * displaced the LRU line.
     */
    std::optional<WcLine> push(const icn::Store &store);

    /** Flush all buffered lines (synchronization), in address order. */
    std::vector<WcLine> flushAll();

    /** Wrap a flushed line into a full-line write message. */
    icn::WireMessagePtr lineToMessage(const WcLine &line,
                               const icn::PcieProtocol &protocol)
        const;

    std::size_t lineCount() const { return _slots.size(); }
    std::uint64_t storesPushed() const { return _stores_pushed; }
    std::uint64_t bytesElided() const { return _bytes_elided; }

  private:
    struct Slot
    {
        WcLine line;
        /** storesPushed() at the line's last write; larger is newer. */
        std::uint64_t stamp = 0;
    };

    GpuId _src;
    GpuId _dst;
    std::uint32_t _num_lines;

    /** The buffered lines, reserved once to the capacity. */
    std::vector<Slot> _slots;

    std::uint64_t _stores_pushed = 0;
    std::uint64_t _bytes_elided = 0;
};

} // namespace fp::finepack

#endif // FP_FINEPACK_WRITE_COMBINE_HH
