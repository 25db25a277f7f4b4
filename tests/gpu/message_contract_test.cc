/**
 * The delivered-store contract of wire messages. Every message kind
 * says how many stores the receiver delivers to memory - sub-packets of
 * a FinePack packet, stores of a raw-P2P batch, byte-enable runs of a
 * write-combined line, none for a DMA chunk - and the ingress port
 * counts that number. A timing message (no payload bytes) holds no
 * per-store records; a message whose stores carry payload holds every
 * one of them, so a FunctionalMemory at ingress still gets every byte.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/event_queue.hh"
#include "finepack/packetizer.hh"
#include "gpu/dma_engine.hh"
#include "gpu/egress_port.hh"
#include "gpu/functional_memory.hh"
#include "gpu/ingress_port.hh"
#include "interconnect/topology.hh"
#include "../support/payload_bytes.hh"

using namespace fp;
using namespace fp::gpu;
using fp::icn::Store;

namespace {

constexpr std::uint32_t gpus = 4;

/** Egress on GPU 0, an ingress port on every GPU, one fabric. */
struct System
{
    common::EventQueue queue;
    std::unique_ptr<icn::SwitchedFabric> fabric;
    std::vector<std::unique_ptr<IngressPort>> ingress;
    std::unique_ptr<EgressPort> egress;
    std::unique_ptr<DmaEngine> dma;
    FunctionalMemory memory; // GPU 1's
    std::vector<icn::WireMessagePtr> arrived;

    explicit System(EgressMode mode)
    {
        icn::FabricParams params;
        params.bytes_per_tick = 1.0;
        params.link_latency = 1;
        params.switch_latency = 1;
        fabric = std::make_unique<icn::SwitchedFabric>("fab", queue, gpus,
                                                       params);
        for (GpuId g = 0; g < gpus; ++g) {
            ingress.push_back(std::make_unique<IngressPort>(
                "ingress" + std::to_string(g), queue, g, gv100Config()));
            IngressPort *port = ingress.back().get();
            fabric->setIngressHandler(
                g, [this, port](const icn::WireMessagePtr &msg) {
                    arrived.push_back(msg);
                    port->receive(msg);
                });
        }
        ingress[1]->attachMemory(&memory);
        const icn::PcieProtocol protocol(icn::PcieGen::gen4);
        egress = std::make_unique<EgressPort>(
            "egress", queue, 0, gpus, mode, finepack::defaultConfig(),
            protocol, *fabric);
        dma = std::make_unique<DmaEngine>("dma", queue, 0, gv100Config(),
                                          protocol, *fabric);
    }

    std::uint64_t
    storesDelivered() const
    {
        std::uint64_t total = 0;
        for (const auto &port : ingress)
            total += port->storesDelivered();
        return total;
    }
};

/** A store whose payload bytes derive from their address. */
Store
payloadStore(Addr addr, std::uint32_t size, GpuId dst = 1)
{
    Store store(addr, size, 0, dst);
    std::vector<std::uint8_t> bytes;
    for (std::uint32_t i = 0; i < size; ++i)
        bytes.push_back(static_cast<std::uint8_t>((addr + i) * 13 + 5));
    store.data = fp::testing::payload(std::move(bytes));
    return store;
}

/** Two runs in line 0x1000 (a gap at 0x1008) and one run in 0x1100. */
std::vector<Store>
splitRunStores(bool payload)
{
    std::vector<Store> stores = {payloadStore(0x1000, 8),
                                 payloadStore(0x1010, 8),
                                 payloadStore(0x1100, 16)};
    if (!payload) {
        for (Store &store : stores)
            store.data = nullptr;
    }
    return stores;
}

} // namespace

TEST(MessageContractTest, FinePackPacketCountsItsSubPackets)
{
    // The de-packetizer expands a packet into one store per sub-packet.
    finepack::RwqPartition partition(1, finepack::defaultConfig());
    std::vector<finepack::FlushedPartition> sink;
    for (const Store &store : splitRunStores(false))
        partition.push(store, sink);
    partition.flush(finepack::FlushReason::release, sink);
    ASSERT_EQ(sink.size(), 1u);
    finepack::Packetizer packetizer(0, finepack::defaultConfig());
    const std::size_t sub_packets =
        packetizer.packetize(sink.front()).unpack().size();
    EXPECT_EQ(sub_packets, 3u);

    System sys(EgressMode::finepack);
    for (const Store &store : splitRunStores(false))
        sys.egress->issueStore(store);
    sys.egress->releaseFence();
    sys.queue.run();
    ASSERT_EQ(sys.arrived.size(), 1u);
    EXPECT_EQ(sys.arrived[0]->delivered_stores, sub_packets);
    EXPECT_TRUE(sys.arrived[0]->stores.empty());
    EXPECT_EQ(sys.ingress[1]->storesDelivered(), sub_packets);
}

TEST(MessageContractTest, RawBatchCountsItsStores)
{
    System sys(EgressMode::raw_p2p);
    std::vector<Store> batch = {Store(0x1000, 8, 0, 1),
                                Store(0x2000, 4, 0, 2),
                                Store(0x1100, 8, 0, 1),
                                Store(0x1200, 16, 0, 1)};
    sys.egress->issueStores(batch, 0, batch.size());
    sys.queue.run();
    ASSERT_EQ(sys.arrived.size(), 2u);
    for (const auto &msg : sys.arrived) {
        EXPECT_EQ(msg->delivered_stores, msg->dst == 1 ? 3u : 1u);
        EXPECT_EQ(msg->delivered_stores, msg->packed_store_count);
        EXPECT_TRUE(msg->stores.empty());
    }
    EXPECT_EQ(sys.storesDelivered(), batch.size());
}

TEST(MessageContractTest, WriteCombineLineCountsItsRuns)
{
    System sys(EgressMode::write_combine);
    for (const Store &store : splitRunStores(false))
        sys.egress->issueStore(store);
    sys.egress->releaseFence();
    sys.queue.run();
    ASSERT_EQ(sys.arrived.size(), 2u);
    // Line 0x1000 holds two runs, line 0x1100 one.
    EXPECT_EQ(sys.arrived[0]->delivered_stores, 2u);
    EXPECT_EQ(sys.arrived[1]->delivered_stores, 1u);
    for (const auto &msg : sys.arrived)
        EXPECT_TRUE(msg->stores.empty());
    EXPECT_EQ(sys.storesDelivered(), 3u);
}

TEST(MessageContractTest, DmaChunkDeliversNoStores)
{
    System sys(EgressMode::raw_p2p);
    sys.dma->copy(1, icn::AddrRange{0x1000, 200 * KiB});
    sys.queue.run();
    ASSERT_EQ(sys.arrived.size(), 4u);
    for (const auto &msg : sys.arrived) {
        EXPECT_EQ(msg->kind, icn::MessageKind::dma_chunk);
        EXPECT_EQ(msg->delivered_stores, 0u);
        EXPECT_TRUE(msg->stores.empty());
    }
    EXPECT_EQ(sys.storesDelivered(), 0u);
}

TEST(MessageContractTest, PayloadMessagesCarryEveryStoreToMemory)
{
    for (EgressMode mode : {EgressMode::raw_p2p, EgressMode::finepack,
                            EgressMode::write_combine}) {
        SCOPED_TRACE(toString(mode));
        System sys(mode);
        const std::vector<Store> stores = splitRunStores(true);
        sys.egress->issueStores(stores, 0, stores.size());
        sys.egress->releaseFence();
        sys.queue.run();
        ASSERT_FALSE(sys.arrived.empty());
        for (const auto &msg : sys.arrived)
            EXPECT_EQ(msg->stores.size(), msg->delivered_stores);
        for (const Store &store : stores)
            EXPECT_EQ(sys.memory.read(store.addr, store.size),
                      fp::testing::bytesOf(store));
    }
}
