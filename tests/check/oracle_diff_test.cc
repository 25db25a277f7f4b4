/**
 * @file
 * Differential tests of the protocol oracle: the oracle built on 128 B
 * line records against the reference model of the byte-granular code
 * it replaced (tests/support/reference_oracle.hh).
 *
 * Both oracles observe one remote write queue partition and one
 * packetizer through a forwarding observer that hands every hook to
 * both and keeps each one's verdict. Seeded streams drive them side by
 * side: dense and scattered, with, without and with some payload, 1, 2
 * and 4 windows, 2, 3 and 5 B sub-headers, stores that straddle byte 64
 * of a line, and release, capacity and conflict flushes. Now and then a
 * packet reaches both tampered, the way a broken packetizer would emit
 * it. Then both get the tampered messages of protocol_oracle_test.cc.
 * After every step the two must reach the same verdict (the same panic
 * message, or none), the same four counters and the same digest.
 */

#include <gtest/gtest.h>

#include <functional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "check/protocol_oracle.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "finepack/packetizer.hh"
#include "finepack/remote_write_queue.hh"
#include "interconnect/protocol.hh"
#include "../support/reference_oracle.hh"
#include "../support/payload_bytes.hh"

using namespace fp;
using namespace fp::finepack;
using check::ProtocolOracle;
using fp::icn::Store;
using fp::testing::ReferenceProtocolOracle;

namespace {

constexpr GpuId src_gpu = 0;
constexpr GpuId dst_gpu = 1;

/**
 * What one call to an oracle said: empty when it passed, else the
 * panic message without its source location (the two oracles panic
 * from different files).
 */
template <typename Call>
std::string
verdictOf(Call &&call)
{
    try {
        call();
        return "";
    } catch (const common::SimError &error) {
        std::string message = error.what();
        return message.substr(0, message.rfind(" @ "));
    }
}

/** A de-packetized packet mutated the way a broken packetizer would. */
using Tamper = std::function<void(icn::WireMessage &, std::vector<Store> &)>;

/**
 * Both oracles behind one observer: every hook goes to both, and each
 * pair of verdicts is kept for the test to compare.
 */
class BothOracles : public RwqObserver, public PacketizerObserver
{
  public:
    explicit BothOracles(const FinePackConfig &config)
        : oracle(src_gpu, config), reference(src_gpu, config)
    {}

    void
    storeBuffered(GpuId dst, const Store &store) override
    {
        record(verdictOf([&] { oracle.storeBuffered(dst, store); }),
               verdictOf([&] { reference.storeBuffered(dst, store); }));
    }

    void
    windowFlushed(const FlushedPartition &flushed,
                  FlushReason reason) override
    {
        record(verdictOf([&] { oracle.windowFlushed(flushed, reason); }),
               verdictOf([&] { reference.windowFlushed(flushed, reason); }));
    }

    /** Untampered packets go through each oracle's own hook. */
    void
    packetEmitted(const FinePackTransaction &txn,
                  const icn::WireMessage &msg) override
    {
        if (!tamper) {
            record(verdictOf([&] { oracle.packetEmitted(txn, msg); }),
                   verdictOf([&] { reference.packetEmitted(txn, msg); }));
            return;
        }
        icn::WireMessage bad = msg;
        std::vector<Store> stores = txn.unpack();
        tamper(bad, stores);
        tamper = nullptr;
        verifyMessage(bad, stores);
    }

    void
    verifyMessage(const icn::WireMessage &msg,
                  const std::vector<Store> &stores)
    {
        record(verdictOf([&] { oracle.verifyMessage(msg, stores); }),
               verdictOf([&] { reference.verifyMessage(msg, stores); }));
    }

    void
    verifyDrained()
    {
        record(verdictOf([&] { oracle.verifyDrained(); }),
               verdictOf([&] { reference.verifyDrained(); }));
    }

    ProtocolOracle oracle;
    ReferenceProtocolOracle reference;
    /** Applied to the next emitted packet, then cleared. */
    Tamper tamper;
    /** (oracle, reference) verdict of every call since the last check. */
    std::vector<std::pair<std::string, std::string>> verdicts;

  private:
    void
    record(std::string got, std::string ref)
    {
        verdicts.emplace_back(std::move(got), std::move(ref));
    }
};

/**
 * Same verdicts since the last call, same counters, same digest. The
 * verdicts are consumed; @p failures counts the panics among them.
 */
::testing::AssertionResult
agree(BothOracles &both, std::uint64_t *failures = nullptr)
{
    for (const auto &[got, ref] : both.verdicts) {
        if (got != ref) {
            return ::testing::AssertionFailure()
                   << "verdict '" << got << "' vs '" << ref << "'";
        }
        if (failures && !got.empty())
            ++*failures;
    }
    both.verdicts.clear();
    const ProtocolOracle &a = both.oracle;
    const ReferenceProtocolOracle &b = both.reference;
    if (a.storesRecorded() != b.storesRecorded() ||
        a.transactionsVerified() != b.transactionsVerified() ||
        a.bytesVerified() != b.bytesVerified() ||
        a.valueBytesVerified() != b.valueBytesVerified() ||
        a.digest() != b.digest()) {
        return ::testing::AssertionFailure()
               << "stores " << a.storesRecorded() << "/"
               << b.storesRecorded() << ", transactions "
               << a.transactionsVerified() << "/"
               << b.transactionsVerified() << ", bytes "
               << a.bytesVerified() << "/" << b.bytesVerified()
               << ", value bytes " << a.valueBytesVerified() << "/"
               << b.valueBytesVerified() << ", digest " << a.digest()
               << "/" << b.digest();
    }
    return ::testing::AssertionSuccess();
}

enum class Stream {
    dense,     ///< short stores walking a few KiB, with restarts
    scattered, ///< short stores anywhere in eight 4 MiB-apart regions
};

enum class Payload {
    none, ///< timing-only stores
    all,  ///< every store carries its bytes
    some, ///< half do: data-less stores invalidate known values
};

struct OracleCase
{
    Stream stream;
    Payload payload;
    std::uint32_t windows;
    std::uint32_t subheader_bytes;
};

std::string
caseName(const OracleCase &c)
{
    static const char *const payloads[] = {"timing", "payload", "mixed"};
    return std::string(c.stream == Stream::dense ? "dense" : "scattered") +
           "_" + payloads[static_cast<int>(c.payload)] + "_windows" +
           std::to_string(c.windows) + "_sub" +
           std::to_string(c.subheader_bytes);
}

/** gtest names a case by its name, not by its bytes. */
void
PrintTo(const OracleCase &c, std::ostream *os)
{
    *os << caseName(c);
}

std::vector<OracleCase>
oracleCases()
{
    std::vector<OracleCase> cases;
    for (Stream stream : {Stream::dense, Stream::scattered})
        for (Payload payload : {Payload::none, Payload::all, Payload::some})
            for (std::uint32_t windows : {1u, 2u, 4u})
                for (std::uint32_t subheader : {2u, 3u, 5u})
                    cases.push_back({stream, payload, windows, subheader});
    return cases;
}

/** The next line-contained store of @p c's stream shape to GPU 1. */
Store
nextStore(const OracleCase &c, common::Rng &rng, Addr &cursor)
{
    Addr addr = 0;
    std::uint32_t size = 0;
    if (rng.chance(0.2)) {
        // Straddle byte 64 of a recently used line: both enable words.
        addr = (cursor & ~Addr{127}) + rng.range(50, 63);
        size = static_cast<std::uint32_t>(rng.range(2, 20));
        if (addr % 128 + size <= 64)
            size = static_cast<std::uint32_t>(65 - addr % 128);
    } else if (c.stream == Stream::dense) {
        if (rng.chance(0.02))
            cursor = rng.below(16) * 0x100000;
        addr = cursor + rng.below(64);
        size = static_cast<std::uint32_t>(rng.range(1, 16));
        cursor += rng.below(24);
    } else {
        addr = rng.below(8) * 0x400000 + rng.below(64 * KiB);
        size = static_cast<std::uint32_t>(rng.range(1, 32));
        cursor = addr;
    }
    Addr line_end = (addr & ~Addr{127}) + 128;
    if (addr + size > line_end)
        size = static_cast<std::uint32_t>(line_end - addr);

    Store store(addr, size, src_gpu, dst_gpu);
    if (c.payload == Payload::all ||
        (c.payload == Payload::some && rng.chance(0.5))) {
        std::vector<std::uint8_t> bytes(size);
        for (auto &byte : bytes)
            byte = static_cast<std::uint8_t>(rng.next());
        store.data = fp::testing::payload(std::move(bytes));
    }
    return store;
}

/** One of the mutations a broken packetizer could make, at random. */
Tamper
randomTamper(common::Rng &rng, const FinePackConfig &config)
{
    switch (rng.below(7)) {
      case 0: // a flipped data bit (an address shift when data-less)
        return [](icn::WireMessage &, std::vector<Store> &stores) {
            if (!stores.back().data) {
                stores.back().addr += 1;
                return;
            }
            std::vector<std::uint8_t> bytes =
                fp::testing::bytesOf(stores.back());
            bytes.back() ^= 0x10;
            stores.back().data = fp::testing::payload(std::move(bytes));
        };
      case 1: // a mis-decoded sub-header offset
        return [](icn::WireMessage &, std::vector<Store> &stores) {
            stores.front().addr += 4;
        };
      case 2: // a dropped sub-packet
        return [](icn::WireMessage &, std::vector<Store> &stores) {
            stores.pop_back();
        };
      case 3: // a duplicated sub-packet
        return [](icn::WireMessage &, std::vector<Store> &stores) {
            stores.push_back(stores.front());
        };
      case 4: // a sub-packet outside the window
        return [range = config.addressableRange()](
                   icn::WireMessage &, std::vector<Store> &stores) {
            stores.back().addr += range;
        };
      case 5: // wrong payload accounting
        return [](icn::WireMessage &msg, std::vector<Store> &) {
            msg.payload_bytes += 4;
        };
      default: // a wrong folded-store count
        return [](icn::WireMessage &msg, std::vector<Store> &) {
            msg.packed_store_count += 1;
        };
    }
}

class OracleDifferential : public ::testing::TestWithParam<OracleCase>
{};

TEST_P(OracleDifferential, SameVerdictsCountersAndDigestAsTheReference)
{
    const OracleCase &c = GetParam();
    FinePackConfig config = configWithSubheader(c.subheader_bytes);
    config.windows_per_partition = c.windows;
    config.validate();

    BothOracles both(config);
    RwqPartition partition(dst_gpu, config);
    Packetizer packetizer(src_gpu, config);
    icn::PcieProtocol protocol{icn::PcieGen::gen4};
    partition.addObserver(&both);
    packetizer.addObserver(&both);

    common::Rng rng(0x0dac1e00 + c.windows * 100 + c.subheader_bytes * 10 +
                    static_cast<std::uint64_t>(c.payload) +
                    (c.stream == Stream::dense ? 0 : 1000));
    Addr cursor = 0;
    std::uint64_t failures = 0;
    std::vector<FlushedPartition> sink;
    auto packetize = [&] {
        for (FlushedPartition &flushed : sink) {
            if (rng.chance(0.05))
                both.tamper = randomTamper(rng, config);
            packetizer.toMessage(flushed, protocol);
            partition.recycle(flushed);
        }
        sink.clear();
    };

    for (int step = 0; step < 3000; ++step) {
        Store store = nextStore(c, rng, cursor);
        if (rng.chance(0.03)) {
            // A remote load or atomic to (or near) the store's bytes.
            auto reason = rng.chance(0.5) ? FlushReason::load_conflict
                                          : FlushReason::atomic_conflict;
            partition.flushIfConflict(store.addr, store.size, reason, sink);
        } else if (rng.chance(0.005)) {
            partition.flush(FlushReason::release, sink);
        } else {
            partition.push(store, sink);
        }
        packetize();
        if (rng.chance(0.002))
            both.verifyDrained();
        ASSERT_TRUE(agree(both, &failures)) << "step " << step;
    }
    partition.flush(FlushReason::release, sink);
    packetize();
    both.verifyDrained();
    ASSERT_TRUE(agree(both, &failures)) << "final release";
    EXPECT_GT(both.oracle.transactionsVerified(), 0u);
    // Some tampered packets, and some drain checks with bytes still
    // buffered, must have failed along the way.
    EXPECT_GT(failures, 0u);
    EXPECT_GT(partition.flushes(FlushReason::release), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Streams, OracleDifferential, ::testing::ValuesIn(oracleCases()),
    [](const ::testing::TestParamInfo<OracleCase> &info) {
        return caseName(info.param);
    });

/** Stores with distinguishable, address-derived bytes. */
Store
makeStore(Addr addr, std::uint32_t size)
{
    Store store(addr, size, src_gpu, dst_gpu);
    std::vector<std::uint8_t> bytes(size);
    for (std::uint32_t i = 0; i < size; ++i)
        bytes[i] = static_cast<std::uint8_t>((addr + i) * 31 + 7);
    store.data = fp::testing::payload(std::move(bytes));
    return store;
}

/**
 * The tampered-message pipeline of protocol_oracle_test.cc, with both
 * oracles on the partition and neither on the packetizer, so a test
 * can tamper with a message before handing it to both.
 */
struct Pipeline
{
    FinePackConfig config = defaultConfig();
    BothOracles both{defaultConfig()};
    RwqPartition partition{dst_gpu, defaultConfig()};
    Packetizer packetizer{src_gpu, defaultConfig()};
    icn::PcieProtocol protocol{icn::PcieGen::gen4};

    Pipeline() { partition.addObserver(&both); }

    icn::WireMessagePtr
    flushToMessage(const std::vector<Store> &stores)
    {
        std::vector<FlushedPartition> sink;
        for (const Store &store : stores)
            partition.push(store, sink);
        partition.flush(FlushReason::release, sink);
        EXPECT_EQ(sink.size(), 1u);
        return packetizer.toMessage(sink.front(), protocol);
    }

    /** Both oracles must reject @p msg, with the same verdict. */
    ::testing::AssertionResult
    bothReject(const icn::WireMessage &msg)
    {
        both.verifyMessage(msg, msg.stores);
        return check(true);
    }

    /** Agreement, and both failed (@p fails) or both passed. */
    ::testing::AssertionResult
    check(bool fails)
    {
        const bool failed =
            !both.verdicts.empty() && !both.verdicts.back().first.empty();
        auto same = agree(both);
        if (!same)
            return same;
        if (failed != fails) {
            return ::testing::AssertionFailure()
                   << (failed ? "failed" : "passed") << " unexpectedly";
        }
        return ::testing::AssertionSuccess();
    }
};

TEST(OracleDifferentialTamper, CorruptedData)
{
    Pipeline pipe;
    auto msg = pipe.flushToMessage({makeStore(0x1000, 8)});
    msg->store_bytes[3] ^= 0x01; // byte 3 of stores[0]
    EXPECT_TRUE(pipe.bothReject(*msg));
}

TEST(OracleDifferentialTamper, OffsetEncodingBug)
{
    Pipeline pipe;
    auto msg = pipe.flushToMessage({makeStore(0x1000, 8)});
    msg->stores[0].addr += 4;
    EXPECT_TRUE(pipe.bothReject(*msg));
}

TEST(OracleDifferentialTamper, MergedRunsIgnoringByteEnables)
{
    Pipeline pipe;
    auto msg = pipe.flushToMessage({makeStore(0x1000, 4),
                                    makeStore(0x1010, 4)});
    ASSERT_EQ(msg->stores.size(), 2u);
    Store merged(0x1000, 0x14, src_gpu, dst_gpu);
    merged.data = fp::testing::payload(std::vector<std::uint8_t>(0x14, 0));
    msg->stores = {merged};
    EXPECT_TRUE(pipe.bothReject(*msg));
}

TEST(OracleDifferentialTamper, DroppedSubPacket)
{
    Pipeline pipe;
    auto msg = pipe.flushToMessage({makeStore(0x1000, 8),
                                    makeStore(0x1100, 8)});
    ASSERT_EQ(msg->stores.size(), 2u);
    msg->stores.pop_back();
    EXPECT_TRUE(pipe.bothReject(*msg));
}

TEST(OracleDifferentialTamper, DuplicatedSubPacket)
{
    Pipeline pipe;
    auto msg = pipe.flushToMessage({makeStore(0x1000, 8)});
    msg->stores.push_back(msg->stores[0]);
    EXPECT_TRUE(pipe.bothReject(*msg));
}

TEST(OracleDifferentialTamper, SubPacketOutsideWindow)
{
    Pipeline pipe;
    auto msg = pipe.flushToMessage({makeStore(0x1000, 8)});
    msg->stores[0].addr += pipe.config.addressableRange();
    EXPECT_TRUE(pipe.bothReject(*msg));
}

TEST(OracleDifferentialTamper, PayloadMisaccounting)
{
    Pipeline pipe;
    auto msg = pipe.flushToMessage({makeStore(0x1000, 8)});
    msg->payload_bytes += 4;
    EXPECT_TRUE(pipe.bothReject(*msg));
}

TEST(OracleDifferentialTamper, PacketWithoutFlush)
{
    Pipeline pipe;
    auto msg = pipe.flushToMessage({makeStore(0x1000, 8)});
    pipe.both.verifyMessage(*msg, msg->stores);
    EXPECT_TRUE(pipe.check(false));
    EXPECT_TRUE(pipe.bothReject(*msg));
}

TEST(OracleDifferentialTamper, LostBytesAtDrain)
{
    Pipeline pipe;
    std::vector<FlushedPartition> sink;
    pipe.partition.push(makeStore(0x1000, 8), sink);
    pipe.both.verifyDrained();
    EXPECT_TRUE(pipe.check(true));
}

TEST(OracleDifferentialTamper, FlushThatNeverPacketized)
{
    Pipeline pipe;
    std::vector<FlushedPartition> sink;
    pipe.partition.push(makeStore(0x1000, 8), sink);
    pipe.partition.flush(FlushReason::release, sink);
    pipe.both.verifyDrained();
    EXPECT_TRUE(pipe.check(true));
}

TEST(OracleDifferentialTamper, FlushOfBytesNeverBuffered)
{
    // A flush the oracles never saw buffered (a lost storeBuffered()
    // hook) fails at the first enabled byte, in the high enable word.
    Pipeline pipe;
    RwqPartition unobserved{dst_gpu, defaultConfig()};
    std::vector<FlushedPartition> sink;
    unobserved.push(makeStore(0x1000 + 70, 8), sink);
    unobserved.flush(FlushReason::release, sink);
    ASSERT_EQ(sink.size(), 1u);
    pipe.both.windowFlushed(sink.front(), FlushReason::release);
    EXPECT_TRUE(pipe.check(true));
}

} // namespace
