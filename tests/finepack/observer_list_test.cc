/**
 * Unit tests for the FinePack stages' observer lists: every observer
 * attached to an RWQ partition, the whole remote write queue or the
 * packetizer sees the whole stream, observers are notified in attach
 * order, and removing one stops only its delivery.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "finepack/packetizer.hh"
#include "finepack/remote_write_queue.hh"
#include "interconnect/protocol.hh"

using namespace fp;
using namespace fp::finepack;
using fp::icn::Store;

namespace {

/** One notification as one observer received it. */
struct Note
{
    char observer;
    std::string hook;
    GpuId dst;
    /** Store address, or window base for flushes and packets. */
    Addr addr;
    /** Store size, overwritten bytes, flushed entries or sub-packets. */
    std::uint64_t count;

    bool operator==(const Note &) const = default;
};

std::ostream &
operator<<(std::ostream &os, const Note &note)
{
    return os << note.observer << ":" << note.hook << "(dst=" << note.dst
              << " addr=" << note.addr << " count=" << note.count << ")";
}

/** Appends every hook it receives to a log shared between observers. */
class Recorder : public RwqObserver, public PacketizerObserver
{
  public:
    Recorder(char id, std::vector<Note> &log) : _id(id), _log(log) {}

    void
    storeBuffered(GpuId dst, const Store &store) override
    {
        _log.push_back({_id, "buffered", dst, store.addr, store.size});
    }

    void
    storeCoalesced(GpuId dst, const Store &store,
                   std::uint32_t overwritten_bytes) override
    {
        _log.push_back(
            {_id, "coalesced", dst, store.addr, overwritten_bytes});
    }

    void
    windowFlushed(const FlushedPartition &flushed,
                  FlushReason reason) override
    {
        _log.push_back({_id, toString(reason), flushed.dst,
                        flushed.window_base, flushed.entries.size()});
    }

    void
    packetEmitted(const FinePackTransaction &txn,
                  const icn::WireMessage &msg) override
    {
        _log.push_back({_id, "packet", msg.dst, txn.baseAddr(),
                        txn.size()});
    }

  private:
    char _id;
    std::vector<Note> &_log;
};

/** The notes observer @p id received, in order. */
std::vector<Note>
notesOf(const std::vector<Note> &log, char id)
{
    std::vector<Note> notes;
    for (const Note &note : log)
        if (note.observer == id)
            notes.push_back(note);
    return notes;
}

/** @p notes with the observer id rewritten to @p id. */
std::vector<Note>
relabel(std::vector<Note> notes, char id)
{
    for (Note &note : notes)
        note.observer = id;
    return notes;
}

Store
makeStore(Addr addr, std::uint32_t size, GpuId dst = 1)
{
    return Store(addr, size, 0, dst);
}

} // namespace

TEST(RwqObserverList, ObserversSeeIdenticalStreamsInAttachOrder)
{
    std::vector<Note> log;
    Recorder a('a', log);
    Recorder b('b', log);
    RwqPartition partition(1, defaultConfig());
    partition.addObserver(&a);
    partition.addObserver(&b);

    std::vector<FlushedPartition> sink;
    partition.push(makeStore(0x1000, 8), sink);
    partition.push(makeStore(0x1004, 8), sink); // 4 bytes in place
    partition.flush(FlushReason::release, sink);
    ASSERT_EQ(sink.size(), 1u);
    const Addr base = sink.front().window_base;

    // Each hook point notifies a, then b; a queue hit reports
    // storeCoalesced just before the matching storeBuffered.
    const std::vector<Note> expected = {
        {'a', "buffered", 1, 0x1000, 8},
        {'b', "buffered", 1, 0x1000, 8},
        {'a', "coalesced", 1, 0x1004, 4},
        {'a', "buffered", 1, 0x1004, 8},
        {'b', "coalesced", 1, 0x1004, 4},
        {'b', "buffered", 1, 0x1004, 8},
        {'a', "release", 1, base, 1},
        {'b', "release", 1, base, 1},
    };
    EXPECT_EQ(log, expected);
    EXPECT_EQ(relabel(notesOf(log, 'b'), 'a'), notesOf(log, 'a'));
}

TEST(RwqObserverList, CapacityFlushesReachEveryObserverBeforeTheStore)
{
    std::vector<Note> log;
    Recorder a('a', log);
    Recorder b('b', log);
    RwqPartition partition(1, configWithSubheader(3)); // 16 KiB window
    partition.addObserver(&a);
    partition.addObserver(&b);

    std::vector<FlushedPartition> sink;
    partition.push(makeStore(0x1000, 8), sink);
    partition.push(makeStore(0x100000, 8), sink); // outside the window
    ASSERT_EQ(sink.size(), 1u);

    const std::vector<Note> a_notes = notesOf(log, 'a');
    ASSERT_EQ(a_notes.size(), 3u);
    EXPECT_EQ(a_notes[1].hook, "window-violation");
    EXPECT_EQ(a_notes[2].addr, 0x100000u);
    EXPECT_EQ(relabel(notesOf(log, 'b'), 'a'), a_notes);
}

TEST(RwqObserverList, RemovingOneObserverStopsOnlyItsDelivery)
{
    std::vector<Note> log;
    Recorder a('a', log);
    Recorder b('b', log);
    RwqPartition partition(1, defaultConfig());
    partition.addObserver(&a);
    partition.addObserver(&b);

    std::vector<FlushedPartition> sink;
    partition.push(makeStore(0x1000, 8), sink);
    partition.removeObserver(&a);
    partition.removeObserver(&a); // absent: no-op
    partition.push(makeStore(0x2000, 8), sink);
    partition.flush(FlushReason::release, sink);

    EXPECT_EQ(notesOf(log, 'a').size(), 1u);
    const std::vector<Note> b_notes = notesOf(log, 'b');
    ASSERT_EQ(b_notes.size(), 3u);
    EXPECT_EQ(b_notes[1].addr, 0x2000u);
    EXPECT_EQ(b_notes[2].hook, "release");
}

TEST(RwqObserverList, QueueAttachesToEveryPartition)
{
    std::vector<Note> log;
    Recorder a('a', log);
    RemoteWriteQueue rwq(0, 3, defaultConfig());
    rwq.addObserver(&a);

    std::vector<FlushedPartition> sink;
    rwq.push(makeStore(0x1000, 8, 1), sink);
    rwq.push(makeStore(0x2000, 8, 2), sink);
    const std::vector<FlushedPartition> flushed =
        rwq.flushAll(FlushReason::release);
    ASSERT_EQ(flushed.size(), 2u);
    const std::vector<Note> expected = {
        {'a', "buffered", 1, 0x1000, 8},
        {'a', "buffered", 2, 0x2000, 8},
        {'a', "release", 1, flushed[0].window_base, 1},
        {'a', "release", 2, flushed[1].window_base, 1},
    };
    EXPECT_EQ(log, expected);

    rwq.removeObserver(&a);
    rwq.push(makeStore(0x3000, 8, 2), sink);
    EXPECT_EQ(log.size(), expected.size());
}

TEST(PacketizerObserverList, EveryObserverSeesEachPacketOnce)
{
    const FinePackConfig config = defaultConfig();
    const icn::PcieProtocol protocol(icn::PcieGen::gen4);
    RwqPartition partition(1, config);
    Packetizer packetizer(0, config);
    std::vector<Note> log;
    Recorder a('a', log);
    Recorder b('b', log);
    packetizer.addObserver(&a);
    packetizer.addObserver(&b);

    std::vector<FlushedPartition> sink;
    partition.push(makeStore(0x1000, 8), sink);
    partition.push(makeStore(0x1010, 8), sink);
    partition.flush(FlushReason::release, sink);
    partition.push(makeStore(0x9000, 8), sink);
    partition.flush(FlushReason::release, sink);
    ASSERT_EQ(sink.size(), 2u);
    for (const FlushedPartition &flushed : sink)
        packetizer.toMessage(flushed, protocol);

    const std::vector<Note> expected = {
        {'a', "packet", 1, sink[0].window_base, 2},
        {'b', "packet", 1, sink[0].window_base, 2},
        {'a', "packet", 1, sink[1].window_base, 1},
        {'b', "packet", 1, sink[1].window_base, 1},
    };
    EXPECT_EQ(log, expected);
    EXPECT_EQ(packetizer.packetsEmitted(), 2u);

    packetizer.removeObserver(&b);
    packetizer.toMessage(sink[0], protocol);
    EXPECT_EQ(notesOf(log, 'a').size(), 3u);
    EXPECT_EQ(notesOf(log, 'b').size(), 2u);
}
