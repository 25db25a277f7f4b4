/**
 * @file
 * The shadow-memory protocol oracle (correctness tooling).
 *
 * FinePack's correctness claim (paper Section IV-B) is that the
 * de-packetizer reconstructs *exactly* the bytes the source GPU stored,
 * under weak-memory overwrite-in-place coalescing and sub-header
 * splitting. The oracle verifies this end-to-end against a byte-granular
 * reference model:
 *
 *  1. As an RwqObserver it replays, in causal order, every store the
 *     remote write queue buffers into a per-destination ShadowMemory
 *     (the last-writer-wins image of the bytes currently queued).
 *  2. When a window flushes, the captured entries are checked against
 *     that pending image byte-for-byte - a lost byte, a stale value
 *     (wrong-writer-wins), or a phantom byte fails immediately - and
 *     the flushed image is stashed as the expected outcome of the
 *     transaction about to be packetized.
 *  3. As a PacketizerObserver it gets every packetized transaction and
 *     its wire message through packetEmitted(). It de-packetizes the
 *     transaction itself (a timing message carries only a store
 *     count), and those stores must reproduce the stashed image
 *     exactly: full coverage, no byte twice, correct values, every
 *     sub-packet inside the
 *     window's offset range, and the payload accounting consistent
 *     with the sub-header geometry. This catches sub-packet splitting,
 *     offset-encoding, and byte-enable bugs that component tests miss.
 *  4. At end of run, verifyDrained() asserts nothing was left behind.
 *
 * Violations panic (SimError under tests). The oracle is runtime-
 * attached - it works in any build type and costs nothing when absent.
 *
 * Each store, flushed entry and de-packetized sub-packet costs one
 * line lookup plus word operations on the shadows' 128 B line records
 * (see ShadowMemory). A line that fails a check is walked byte by byte
 * instead, so the first failure is reported with the message, counters
 * and digest a byte-granular walk gives. Shadows, flushed images and
 * the de-packetized store buffer are reused from packet to packet, so
 * a run allocates for the oracle only while they grow.
 */

#ifndef FP_CHECK_PROTOCOL_ORACLE_HH
#define FP_CHECK_PROTOCOL_ORACLE_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "check/digest.hh"
#include "check/shadow_memory.hh"
#include "common/event_queue.hh"
#include "finepack/config.hh"
#include "finepack/packetizer.hh"
#include "finepack/remote_write_queue.hh"
#include "interconnect/message.hh"

namespace fp::check {

/** Byte-exact reference model for one source GPU's FinePack egress. */
class ProtocolOracle : public finepack::RwqObserver,
                       public finepack::PacketizerObserver
{
  public:
    ProtocolOracle(GpuId src, const finepack::FinePackConfig &config);

    // ---- RwqObserver hooks (causal order, driven by the queue) -------
    void storeBuffered(GpuId dst, const icn::Store &store) override;
    void windowFlushed(const finepack::FlushedPartition &flushed,
                       finepack::FlushReason reason) override;

    // ---- PacketizerObserver hook ---------------------------------------
    /** Verify every emitted packet, de-packetized (see verifyMessage). */
    void
    packetEmitted(const finepack::FinePackTransaction &txn,
                  const icn::WireMessage &msg) override
    {
        txn.unpackInto(_depacketized);
        verifyMessage(msg, _depacketized);
    }

    /**
     * Verify one emitted finepack_packet wire message, whose
     * de-packetized stores are @p stores, against the oldest
     * outstanding flush for its destination (flushes packetize in FIFO
     * order). Panics on any byte-level or structural mismatch.
     */
    void verifyMessage(const icn::WireMessage &msg,
                       const std::vector<icn::Store> &stores);

    /**
     * End-of-run check: every buffered byte must have flushed and every
     * flush must have packetized.
     */
    void verifyDrained() const;

    GpuId src() const { return _src; }

    /**
     * Declare the oracle's shadow-memory mutations to the determinism
     * tooling (see docs/determinism.md). The default-constructed
     * recorder is inert; gpu::EgressPort::attachOracle installs one
     * bound to the port's event queue, live when a race detector
     * observes the run.
     */
    void setAccessRecorder(common::AccessRecorder recorder)
    { _recorder = recorder; }

    // ---- Statistics ---------------------------------------------------
    /** Stores replayed into the reference model. */
    std::uint64_t storesRecorded() const { return _stores_recorded; }
    /** Wire messages verified end-to-end. */
    std::uint64_t transactionsVerified() const
    { return _transactions_verified; }
    /** Bytes whose coverage was verified (flush + packetize sides). */
    std::uint64_t bytesVerified() const { return _bytes_verified; }
    /** Subset of bytesVerified() with data present on both sides. */
    std::uint64_t valueBytesVerified() const
    { return _value_bytes_verified; }

    /**
     * Order-sensitive fingerprint of every verified transaction
     * (destination, window base, sub-packet geometry, and data bytes),
     * folded in emission order. Two runs of the same trace that
     * packetize the same transactions in the same order - the
     * schedule-independence `fptrace racecheck` proves - produce
     * identical digests.
     */
    std::uint64_t digest() const { return _digest.value(); }

  private:
    /** The byte image one flushed window must packetize into. */
    struct ExpectedImage
    {
        Addr window_base = 0;
        ShadowMemory image;
        std::uint64_t packed_store_count = 0;
    };

    /** Everything the oracle tracks toward one destination GPU. */
    struct Destination
    {
        /** Bytes currently buffered in the RWQ. */
        ShadowMemory pending;
        /**
         * Flushed-but-not-yet-packetized images: a ring holding
         * `outstanding` images from `head` on, oldest first. Slots keep
         * their line storage for later flushes.
         */
        std::vector<ExpectedImage> images;
        std::size_t head = 0;
        std::size_t outstanding = 0;
    };

    /** The state toward @p dst, created on first use. */
    Destination &
    destination(GpuId dst)
    {
        if (dst >= _destinations.size())
            _destinations.resize(std::size_t{dst} + 1);
        return _destinations[dst];
    }

    /** Check and move one flushed entry's bytes, byte by byte. */
    void flushBytes(const finepack::QueueEntry &entry, GpuId dst,
                    finepack::FlushReason reason, ShadowMemory &pending,
                    ShadowMemory &image);
    /** Check and retire one sub-packet's bytes, byte by byte. */
    void retireBytes(const icn::Store &store, ShadowMemory &image);

    GpuId _src;
    finepack::FinePackConfig _config;

    /** Indexed by destination GPU; elements never move once made. */
    std::deque<Destination> _destinations;
    /** packetEmitted()'s de-packetized stores, reused per packet. */
    std::vector<icn::Store> _depacketized;

    std::uint64_t _stores_recorded = 0;
    std::uint64_t _transactions_verified = 0;
    std::uint64_t _bytes_verified = 0;
    std::uint64_t _value_bytes_verified = 0;
    Digest _digest;
    common::AccessRecorder _recorder;
};

} // namespace fp::check

#endif // FP_CHECK_PROTOCOL_ORACLE_HH
