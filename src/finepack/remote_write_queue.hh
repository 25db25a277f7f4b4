/**
 * @file
 * The FinePack remote write queue (paper Section IV-B, Figure 8).
 *
 * One partition per destination GPU. Each partition holds one or more
 * base+offset *windows* (open outer transactions); the paper evaluates
 * one window per partition and discusses multiple windows as a remedy
 * for access streams that straddle alignment boundaries (Section IV-C).
 * Each window is a fully associative SRAM indexed by address at
 * cache-line (128 B) granularity; every entry holds an address tag, a
 * line of data, and per-byte enables. Stores to the same bytes
 * overwrite in place (legal under the GPU weak memory model); stores to
 * new addresses accumulate while they fit the window and the
 * outer-transaction payload budget.
 *
 * This class is purely functional (no timing); the GPU egress port
 * wraps it into the discrete-event simulation.
 */

#ifndef FP_FINEPACK_REMOTE_WRITE_QUEUE_HH
#define FP_FINEPACK_REMOTE_WRITE_QUEUE_HH

#include <array>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "finepack/config.hh"
#include "interconnect/store.hh"
#include "obs/latency.hh"

namespace fp::finepack {

/**
 * One 128 B line buffered in a remote write queue window or in the
 * write-combining buffer, held the way the SRAM holds it: a line tag,
 * one enable bit per byte in two 64-bit words, and the line data.
 * The data is sized to the line only once a merged store carries
 * payload, so a timing-only run buffers lines without allocating.
 */
struct QueueEntry
{
    static_assert(FinePackConfig::entry_bytes == 128,
                  "two 64-bit enable words cover one 128 B line");

    /** Line-aligned tag address (device-local, destination GPU). */
    Addr line_addr = 0;
    /** Per-byte write enables: bit i of enables[i / 64] is byte i. */
    std::array<std::uint64_t, 2> enables{};
    /** Line data, empty until a merged store carried payload. */
    std::vector<std::uint8_t> data;

    /** True when at least one merged store carried payload bytes. */
    bool hasData() const { return !data.empty(); }

    /** Is byte @p offset of the line enabled? */
    bool enabled(std::uint32_t offset) const
    { return (enables[offset / 64] >> (offset % 64)) & 1; }

    /** Number of enabled bytes in [begin, end) of the line. */
    std::uint32_t enabledIn(std::uint32_t begin, std::uint32_t end) const;

    /** Number of enabled bytes. */
    std::uint32_t validBytes() const
    { return static_cast<std::uint32_t>(std::popcount(enables[0]) +
                                        std::popcount(enables[1])); }

    /** Number of contiguous enabled-byte runs. */
    std::uint32_t runCount() const;

    /**
     * The packed cost of this entry in a FinePack payload: one
     * sub-header plus the run length for every contiguous enabled run.
     */
    std::uint64_t
    packedCost(const FinePackConfig &config) const
    {
        return validBytes() +
               std::uint64_t{config.subheader_bytes} * runCount();
    }

    /** [first enabled byte, one past the last); (0, 0) when none is. */
    std::pair<std::uint32_t, std::uint32_t> writtenSpan() const;

    /** Call @p visit(start, length) per enabled run, in byte order. */
    template <typename Visit>
    void
    forEachRun(Visit &&visit) const
    {
        std::uint32_t start = nextByte(0, true);
        while (start < FinePackConfig::entry_bytes) {
            std::uint32_t end = nextByte(start, false);
            visit(start, end - start);
            start = nextByte(end, true);
        }
    }

    /**
     * Merge @p store, which starts at byte @p offset: set its enables
     * and overwrite its payload bytes in place (last writer wins).
     * @return the bytes whose enable was already set.
     */
    std::uint32_t merge(std::uint32_t offset, const icn::Store &store);

  private:
    /** First byte >= @p from whose enable is @p set, or entry_bytes. */
    std::uint32_t nextByte(std::uint32_t from, bool set) const;
};

/** Why a window was flushed (for statistics / Figure analysis). */
enum class FlushReason : std::uint8_t {
    window_violation,   ///< incoming store outside every open window
    payload_full,       ///< payload budget could not fit the store
    entries_full,       ///< all SRAM entries in use, store missed
    release,            ///< system-scoped release (fence / kernel end)
    load_conflict,      ///< remote load matched a queued store
    atomic_conflict,    ///< remote atomic matched a queued store
};

const char *toString(FlushReason reason);

/** The contents of one flushed window, ready to packetize. */
struct FlushedPartition
{
    GpuId dst = invalid_gpu;
    /** Base address register value (already shifted left). */
    Addr window_base = 0;
    std::vector<QueueEntry> entries;
    /** Program stores that were folded into these entries. */
    std::uint64_t packed_store_count = 0;
    /** Why the window flushed (set by RwqPartition::captureWindow). */
    FlushReason reason = FlushReason::release;
    /**
     * Issue stamps of the folded stores, in buffering order (latency
     * attribution only; empty when stores carry no issue_tick).
     */
    std::vector<obs::StoreStamp> store_stamps;

    bool empty() const { return entries.empty(); }
};

/**
 * Causal-order observer of remote-write-queue state changes, used by
 * the correctness tooling (check::ProtocolOracle) and the egress
 * port's event tracer. The hooks fire in the exact order the hardware
 * would commit the corresponding actions: a window that must flush to
 * admit a store reports windowFlushed() *before* that store's
 * storeBuffered(), so an observer replaying the stream sees the same
 * byte images the packetizer will.
 */
class RwqObserver
{
  public:
    virtual ~RwqObserver() = default;

    /** A store (after line/window-grid splitting) merged into a window. */
    virtual void storeBuffered(GpuId dst,
                               const icn::Store &store) = 0;

    /** A window's contents were captured for packetization. */
    virtual void windowFlushed(const FlushedPartition &flushed,
                               FlushReason reason) = 0;

    /**
     * A store hit an already-buffered line and merged in place
     * (fires just before the matching storeBuffered()).
     * @p overwritten_bytes counts bytes whose enable was already set,
     * i.e. wire traffic elided by overwrite-in-place. Optional hook
     * used by the observability layer.
     */
    virtual void
    storeCoalesced(GpuId dst, const icn::Store &store,
                   std::uint32_t overwritten_bytes)
    {
        (void)dst;
        (void)store;
        (void)overwritten_bytes;
    }
};

/**
 * One base+offset window: the register state of Figure 8 (base address
 * register, available-payload-length register, store counter) plus its
 * share of the partition's SRAM entries.
 */
class RwqWindow
{
  public:
    RwqWindow(const FinePackConfig &config, std::uint32_t entry_budget);

    bool empty() const { return _entries.empty(); }
    std::size_t entryCount() const { return _entries.size(); }
    std::uint64_t bufferedStores() const { return _buffered_stores; }

    /** Base address register; invalid_addr when the window is empty. */
    Addr baseAddrRegister() const { return _base_register; }
    Addr windowLo() const;
    Addr windowHi() const;

    /** The available-payload-length register (paper Figure 8). */
    std::uint64_t availablePayload() const { return _available_payload; }

    /** Does @p store fall inside this (non-empty) window? */
    bool covers(const icn::Store &store) const;

    /**
     * Can @p store be accepted without flushing? Checks the paper's two
     * conditions - window containment (unless empty) and the
     * conservative payload budget - plus SRAM entry capacity.
     */
    bool accepts(const icn::Store &store) const;

    /** Would @p store be rejected by the payload budget alone? */
    bool payloadBound(const icn::Store &store) const;

    /** Would @p store be rejected by SRAM entry capacity alone? */
    bool entryBound(const icn::Store &store) const;

    /** The observable outcome of one insert (for hooks/statistics). */
    struct InsertOutcome
    {
        /** The store merged into an already-buffered line. */
        bool queue_hit = false;
        /** Bytes whose enable was already set (overwritten in place). */
        std::uint32_t overwritten_bytes = 0;
    };

    /** Insert a store; accepts(store) must be true. */
    InsertOutcome insert(const icn::Store &store);

    /** Does any buffered byte overlap [addr, addr+size)? */
    bool conflicts(Addr addr, std::uint32_t size) const;

    /** Remove and return everything buffered (entries sorted). */
    FlushedPartition take(GpuId dst);

  private:
    /** The slot holding @p line, or _entries.size() on a miss. */
    std::size_t findLine(Addr line) const;

    FinePackConfig _config;
    std::uint32_t _entry_budget;

    Addr _base_register = invalid_addr;
    std::uint64_t _available_payload;
    std::uint64_t _buffered_stores = 0;

    /** SRAM slots, reserved once to the budget; found by tag scan. */
    std::vector<QueueEntry> _entries;
    /** Issue stamps of buffered stores (latency attribution only). */
    std::vector<obs::StoreStamp> _stamps;
};

/**
 * One partition of the remote write queue: every state element that
 * coalesces stores toward a single destination GPU.
 */
class RwqPartition
{
  public:
    RwqPartition(GpuId dst, const FinePackConfig &config);

    /**
     * Buffer one store. Any windows that must flush to make room
     * (window violation with all windows busy, payload budget, or
     * entry capacity) are appended to @p sink; the store then seeds or
     * joins a window. A store crossing a window-grid boundary (only
     * possible when the addressable range is smaller than two cache
     * lines) is split at the boundary.
     *
     * The store must not cross a 128 B line boundary and must not be
     * an atomic (the egress port handles those cases).
     */
    void push(const icn::Store &store,
              std::vector<FlushedPartition> &sink);

    /**
     * Flush all windows (synchronization); empty windows contribute
     * nothing. Appends one FlushedPartition per non-empty window to
     * @p sink, least recently used first.
     */
    void flush(FlushReason reason,
               std::vector<FlushedPartition> &sink);

    /**
     * Flush only if @p addr..addr+size overlaps a buffered store (the
     * same-address load / atomic ordering rule). Per the paper, a
     * conflict triggers a full partition flush, like a synchronization
     * would. @return true when a conflict existed.
     */
    bool flushIfConflict(Addr addr, std::uint32_t size,
                         FlushReason reason,
                         std::vector<FlushedPartition> &sink);

    bool empty() const { return entryCount() == 0; }
    std::size_t entryCount() const { return sum(&RwqWindow::entryCount); }
    std::uint64_t bufferedStores() const
    { return sum(&RwqWindow::bufferedStores); }

    /** Number of configured windows. */
    std::uint32_t windowCount() const
    { return static_cast<std::uint32_t>(_windows.size()); }
    const RwqWindow &window(std::uint32_t i) const;

    /**
     * Attach a causal-order observer (the caller keeps ownership; at
     * most once per observer). Every observer sees the whole stream,
     * notified in attach order; with none attached each hook point
     * costs one compare.
     */
    void addObserver(RwqObserver *observer)
    { _observers.push_back(observer); }

    /** Detach a previously attached observer (no-op when absent). */
    void removeObserver(RwqObserver *observer)
    { std::erase(_observers, observer); }

    /** Lifetime statistics. */
    std::uint64_t storesPushed() const { return _stores_pushed; }
    std::uint64_t bytesPushed() const { return _bytes_pushed; }
    std::uint64_t bytesElided() const { return _bytes_elided; }
    std::uint64_t flushes(FlushReason reason) const
    { return _flush_counts[static_cast<std::size_t>(reason)]; }
    std::uint64_t queueHits() const { return _queue_hits; }

  private:
    /** @p stat summed over the windows. */
    template <typename Stat>
    std::uint64_t
    sum(Stat (RwqWindow::*stat)() const) const
    {
        std::uint64_t total = 0;
        for (const RwqWindow &window : _windows)
            total += (window.*stat)();
        return total;
    }

    void pushPiece(const icn::Store &store,
                   std::vector<FlushedPartition> &sink);
    /** Flush @p window into @p sink, notifying the observer in order. */
    void captureWindow(RwqWindow &window, FlushReason reason,
                       std::vector<FlushedPartition> &sink);
    /** Insert into @p window, notifying the observer in order. */
    void insertObserved(RwqWindow &window,
                        const icn::Store &store);
    /** Move @p index to the back of the LRU order (most recent). */
    void touch(std::uint32_t index);

    GpuId _dst;
    FinePackConfig _config;
    std::vector<RwqObserver *> _observers;

    std::vector<RwqWindow> _windows;
    /** LRU order of window indices; back = most recently used. */
    std::vector<std::uint32_t> _lru;

    std::uint64_t _stores_pushed = 0;
    std::uint64_t _bytes_pushed = 0;
    std::uint64_t _queue_hits = 0;
    std::uint64_t _bytes_elided = 0;
    std::uint64_t _flush_counts[6] = {};
};

/**
 * The complete remote write queue: one partition per peer GPU.
 */
class RemoteWriteQueue
{
  public:
    /**
     * @param self     The GPU this queue belongs to (owns no partition).
     * @param num_gpus Total GPUs in the system.
     */
    RemoteWriteQueue(GpuId self, std::uint32_t num_gpus,
                     const FinePackConfig &config);

    /** Buffer a store for its destination partition. */
    void push(const icn::Store &store,
              std::vector<FlushedPartition> &sink);

    /** Flush every partition (system-scoped release). */
    std::vector<FlushedPartition> flushAll(FlushReason reason);

    /** Same-address ordering check for loads/atomics. */
    bool flushIfConflict(GpuId dst, Addr addr, std::uint32_t size,
                         FlushReason reason,
                         std::vector<FlushedPartition> &sink);

    RwqPartition &partition(GpuId dst);
    const RwqPartition &partition(GpuId dst) const;

    /** Attach a causal-order observer to every partition. */
    void addObserver(RwqObserver *observer);

    /** Detach @p observer from every partition. */
    void removeObserver(RwqObserver *observer);

    GpuId self() const { return _self; }
    std::uint32_t numGpus() const { return _num_gpus; }
    const FinePackConfig &config() const { return _config; }

    /** Total SRAM data bytes across partitions (Table III: 192*128). */
    std::uint64_t totalSramBytes() const;

  private:
    GpuId _self;
    std::uint32_t _num_gpus;
    FinePackConfig _config;
    std::vector<RwqPartition> _partitions; // indexed by dst, self unused
};

} // namespace fp::finepack

#endif // FP_FINEPACK_REMOTE_WRITE_QUEUE_HH
