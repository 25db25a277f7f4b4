/** Unit tests for the ingress port, DMA engine, and GPU config. */

#include <gtest/gtest.h>

#include "common/event_queue.hh"
#include "gpu/dma_engine.hh"
#include "gpu/functional_memory.hh"
#include "gpu/gpu_config.hh"
#include "gpu/ingress_port.hh"
#include "interconnect/topology.hh"
#include "../support/payload_bytes.hh"

using namespace fp;
using namespace fp::gpu;

TEST(GpuConfigTest, TableIIIParameters)
{
    GpuConfig config = gv100Config();
    EXPECT_EQ(config.cache_line, 128u);
    EXPECT_EQ(config.global_memory, 16 * GiB);
    EXPECT_EQ(config.num_sms, 80u);
    EXPECT_EQ(config.cores_per_sm, 64u);
    EXPECT_EQ(config.l2_size, 6 * MiB);
    EXPECT_EQ(config.warp_size, 32u);
    EXPECT_EQ(config.max_threads_per_sm, 2048u);
    EXPECT_EQ(config.max_threads_per_cta, 1024u);
}

TEST(GpuConfigTest, RooflineModel)
{
    GpuConfig config = gv100Config();
    // Memory-bound kernel: 1 MB at 900 GB/s x 0.75 efficiency.
    Tick mem_time = config.computeTime(0.0, 1 << 20, 0.75);
    double expect = (1 << 20) / (config.hbmBytesPerTick() * 0.75);
    EXPECT_NEAR(static_cast<double>(mem_time), expect, 2.0);

    // Compute-bound kernel dominates when flops are large.
    Tick flop_time = config.computeTime(1e9, 64, 0.75);
    EXPECT_GT(flop_time, mem_time);

    // Zero work still takes at least one tick.
    EXPECT_GE(config.computeTime(0.0, 0), 1u);
}

TEST(GpuConfigTest, PeakFlopsMatchesClockAndCores)
{
    GpuConfig config = gv100Config();
    EXPECT_NEAR(config.peakFlopsPerSec(),
                80.0 * 64 * 2 * 1.4e9, 1e6);
}

namespace {

struct IngressFixture
{
    common::EventQueue queue;
    GpuConfig config = gv100Config();
    IngressPort port{"ingress", queue, 1, config};

    icn::WireMessagePtr
    makeMessage(std::uint64_t data_bytes)
    {
        auto msg = std::make_shared<icn::WireMessage>();
        msg->dst = 1;
        msg->src = 0;
        msg->payload_bytes = data_bytes;
        msg->data_bytes = data_bytes;
        return msg;
    }
};

} // namespace

TEST(IngressPortTest, CountsDeliveries)
{
    IngressFixture f;
    auto msg = f.makeMessage(64);
    msg->delivered_stores = 1;
    f.port.receive(msg);
    f.queue.run();
    EXPECT_EQ(f.port.messagesReceived(), 1u);
    EXPECT_EQ(f.port.storesDelivered(), 1u);
    EXPECT_EQ(f.port.bytesDelivered(), 64u);
}

TEST(IngressPortTest, DrainSerializesAtHbmBandwidth)
{
    IngressFixture f;
    f.port.receive(f.makeMessage(9000));
    f.port.receive(f.makeMessage(9000));
    Tick expected = static_cast<Tick>(
        2.0 * 9000.0 / f.config.hbmBytesPerTick()) ;
    EXPECT_NEAR(static_cast<double>(f.port.drainedAt()),
                static_cast<double>(expected), 4.0);
}

TEST(IngressPortTest, AppliesDataToFunctionalMemory)
{
    IngressFixture f;
    FunctionalMemory memory;
    f.port.attachMemory(&memory);
    auto msg = f.makeMessage(4);
    icn::Store store(0x1000, 4, 0, 1);
    store.data = fp::testing::payload({1, 2, 3, 4});
    msg->delivered_stores = 1;
    msg->addStore(store);
    f.port.receive(msg);
    f.queue.run();
    EXPECT_EQ(memory.readByte(0x1000), 1);
    EXPECT_EQ(memory.readByte(0x1003), 4);
}

TEST(IngressPortTest, DeliveredCallbackFires)
{
    IngressFixture f;
    int called = 0;
    f.port.setDeliveredCallback(
        [&](const icn::WireMessagePtr &) { ++called; });
    f.port.receive(f.makeMessage(8));
    f.queue.run();
    EXPECT_EQ(called, 1);
}

TEST(IngressPortTest, WrongDestinationPanics)
{
    IngressFixture f;
    auto msg = f.makeMessage(8);
    msg->dst = 3;
    EXPECT_THROW(f.port.receive(msg), common::SimError);
}

namespace {

struct DmaFixture
{
    common::EventQueue queue;
    GpuConfig config = gv100Config();
    icn::FabricParams params;
    std::unique_ptr<icn::SwitchedFabric> fabric;
    std::unique_ptr<DmaEngine> engine;
    std::vector<icn::WireMessagePtr> arrived;

    DmaFixture()
    {
        params.bytes_per_tick = 1.0;
        params.link_latency = 0;
        params.switch_latency = 0;
        fabric = std::make_unique<icn::SwitchedFabric>("fab", queue, 4,
                                                       params);
        for (GpuId g = 0; g < 4; ++g)
            fabric->setIngressHandler(
                g, [this](const icn::WireMessagePtr &msg) {
                    arrived.push_back(msg);
                });
        engine = std::make_unique<DmaEngine>(
            "dma", queue, 0, config,
            icn::PcieProtocol(icn::PcieGen::gen4), *fabric);
    }
};

} // namespace

TEST(DmaEngineTest, CopySplitsIntoChunks)
{
    DmaFixture f;
    f.engine->copy(1, icn::AddrRange{0x1000, 200 * KiB});
    f.queue.run();
    // 64 KiB chunks: 200 KiB -> 4 messages (3 full + 1 partial).
    ASSERT_EQ(f.arrived.size(), 4u);
    std::uint64_t total = 0;
    for (const auto &msg : f.arrived) {
        EXPECT_EQ(msg->kind, icn::MessageKind::dma_chunk);
        total += msg->dma_range.size;
    }
    EXPECT_EQ(total, 200 * KiB);
    EXPECT_EQ(f.engine->bytesCopied(), 200 * KiB);
}

TEST(DmaEngineTest, HeaderCostPerMaxPayloadTlp)
{
    DmaFixture f;
    icn::PcieProtocol protocol(icn::PcieGen::gen4);
    f.engine->copy(1, icn::AddrRange{0, 64 * KiB});
    f.queue.run();
    ASSERT_EQ(f.arrived.size(), 1u);
    // 64 KiB / 4 KiB payloads = 16 TLPs worth of headers.
    EXPECT_EQ(f.arrived[0]->header_bytes, 16 * protocol.tlpOverhead());
    EXPECT_EQ(f.arrived[0]->payload_bytes, 64 * KiB);
}

TEST(DmaEngineTest, ApiOverheadDelaysData)
{
    DmaFixture f;
    f.engine->copy(1, icn::AddrRange{0, 4096});
    f.queue.run();
    // Nothing can arrive before the software call overhead elapsed.
    ASSERT_EQ(f.arrived.size(), 1u);
    EXPECT_GE(f.queue.now(), f.config.dma_call_overhead);
}

TEST(DmaEngineTest, ConsecutiveCopiesSerializeOnApiPath)
{
    DmaFixture f;
    f.engine->copy(1, icn::AddrRange{0, 4096});
    f.engine->copy(2, icn::AddrRange{0, 4096});
    f.queue.run();
    EXPECT_EQ(f.engine->copiesIssued(), 2u);
    // Two call overheads must have elapsed before the last arrival.
    EXPECT_GE(f.queue.now(), 2 * f.config.dma_call_overhead);
}

TEST(DmaEngineTest, EmptyCopyPanics)
{
    DmaFixture f;
    EXPECT_THROW(f.engine->copy(1, icn::AddrRange{0, 0}),
                 common::SimError);
    EXPECT_THROW(f.engine->copy(0, icn::AddrRange{0, 64}),
                 common::SimError);
}

TEST(FunctionalMemoryTest, ZeroFillAndReadback)
{
    FunctionalMemory memory;
    EXPECT_EQ(memory.readByte(0x1234), 0);
    std::uint8_t data[3] = {7, 8, 9};
    memory.write(0xfff, data, 3); // crosses a page boundary
    EXPECT_EQ(memory.readByte(0xfff), 7);
    EXPECT_EQ(memory.readByte(0x1000), 8);
    EXPECT_EQ(memory.readByte(0x1001), 9);
    EXPECT_EQ(memory.pageCount(), 2u);
}

TEST(FunctionalMemoryTest, SameContentsIgnoresZeroPages)
{
    FunctionalMemory a, b;
    std::uint8_t zero = 0;
    a.write(0x5000, &zero, 1); // allocates an all-zero page
    EXPECT_TRUE(a.sameContents(b));
    EXPECT_TRUE(b.sameContents(a));
    std::uint8_t one = 1;
    b.write(0x9000, &one, 1);
    EXPECT_FALSE(a.sameContents(b));
}

TEST(FunctionalMemoryTest, ApplyRequiresData)
{
    FunctionalMemory memory;
    icn::Store store(0x100, 8, 0, 1);
    EXPECT_THROW(memory.apply(store), common::SimError);
}
