/** Unit tests for the paradigm-dependent GPU egress port. */

#include <gtest/gtest.h>

#include <vector>

#include "common/event_queue.hh"
#include "gpu/egress_port.hh"
#include "interconnect/topology.hh"

using namespace fp;
using namespace fp::gpu;
using fp::icn::Store;

namespace {

struct Fixture
{
    common::EventQueue queue;
    icn::FabricParams params;
    std::unique_ptr<icn::SwitchedFabric> fabric;
    std::unique_ptr<EgressPort> port;
    std::vector<icn::WireMessagePtr> arrived;

    explicit Fixture(EgressMode mode,
                     finepack::FinePackConfig config =
                         finepack::defaultConfig())
    {
        params.bytes_per_tick = 1.0;
        params.link_latency = 1;
        params.switch_latency = 1;
        fabric = std::make_unique<icn::SwitchedFabric>("fab", queue, 4,
                                                       params);
        for (GpuId g = 0; g < 4; ++g) {
            fabric->setIngressHandler(
                g, [this](const icn::WireMessagePtr &msg) {
                    arrived.push_back(msg);
                });
        }
        port = std::make_unique<EgressPort>(
            "egress", queue, 0, 4, mode, config,
            icn::PcieProtocol(icn::PcieGen::gen4), *fabric);
    }

    Store
    store(Addr addr, std::uint32_t size, GpuId dst = 1)
    {
        return Store(addr, size, 0, dst);
    }
};

} // namespace

TEST(EgressPortTest, RawModeOneMessagePerStore)
{
    Fixture f(EgressMode::raw_p2p);
    f.port->issueStore(f.store(0x1000, 8));
    f.port->issueStore(f.store(0x2000, 8, 2));
    f.queue.run();
    ASSERT_EQ(f.arrived.size(), 2u);
    EXPECT_EQ(f.arrived[0]->kind, icn::MessageKind::raw_store);
    EXPECT_EQ(f.port->storesIssued(), 2u);
    EXPECT_EQ(f.port->messagesSent(), 2u);
}

TEST(EgressPortTest, RawBatchGroupsByDestination)
{
    Fixture f(EgressMode::raw_p2p);
    std::vector<Store> stores = {
        f.store(0x1000, 8, 1), f.store(0x2000, 8, 2),
        f.store(0x1100, 8, 1), f.store(0x3000, 8, 3),
    };
    f.port->issueStores(stores, 0, stores.size());
    f.queue.run();
    // One aggregate message per destination present in the batch.
    ASSERT_EQ(f.arrived.size(), 3u);
    std::uint64_t total_stores = 0;
    for (const auto &msg : f.arrived)
        total_stores += msg->delivered_stores;
    EXPECT_EQ(total_stores, 4u);

    // Byte accounting matches the per-store sum exactly.
    icn::PcieProtocol protocol(icn::PcieGen::gen4);
    for (const auto &msg : f.arrived) {
        std::uint64_t expect_header =
            msg->delivered_stores * protocol.tlpOverhead();
        EXPECT_EQ(msg->header_bytes, expect_header);
    }
}

TEST(EgressPortTest, FinePackModeBuffersUntilFence)
{
    Fixture f(EgressMode::finepack);
    f.port->issueStore(f.store(0x1000, 8));
    f.port->issueStore(f.store(0x1100, 8));
    f.queue.run();
    EXPECT_TRUE(f.arrived.empty()); // still buffered

    f.port->releaseFence();
    f.queue.run();
    ASSERT_EQ(f.arrived.size(), 1u);
    EXPECT_EQ(f.arrived[0]->kind, icn::MessageKind::finepack_packet);
    EXPECT_EQ(f.arrived[0]->packed_store_count, 2u);
    EXPECT_DOUBLE_EQ(f.port->avgStoresPerMessage(), 2.0);
}

TEST(EgressPortTest, FinePackWindowViolationEmitsPacket)
{
    Fixture f(EgressMode::finepack);
    f.port->issueStore(f.store(0x1000, 8));
    // 5 B sub-header -> 1 GiB window; jump past it.
    f.port->issueStore(f.store(0x1000 + 2 * GiB, 8));
    f.queue.run();
    ASSERT_EQ(f.arrived.size(), 1u);
    EXPECT_EQ(f.arrived[0]->delivered_stores, 1u);
}

TEST(EgressPortTest, CrossLineStoreIsSplit)
{
    Fixture f(EgressMode::finepack);
    // 16 B store crossing a line boundary splits into two pieces.
    f.port->issueStore(f.store(0x1078, 16));
    f.port->releaseFence();
    f.queue.run();
    ASSERT_EQ(f.arrived.size(), 1u);
    EXPECT_EQ(f.arrived[0]->delivered_stores, 2u);
    EXPECT_EQ(f.arrived[0]->data_bytes, 16u);
    EXPECT_EQ(f.port->storesIssued(), 2u);
}

TEST(EgressPortTest, AtomicBypassesCoalescingAndFlushesConflict)
{
    Fixture f(EgressMode::finepack);
    f.port->issueStore(f.store(0x1000, 8));
    Store atomic = f.store(0x1004, 4);
    atomic.is_atomic = true;
    f.port->issueStore(atomic);
    f.queue.run();
    // The conflicting partition flushed, then the atomic went out.
    ASSERT_EQ(f.arrived.size(), 2u);
    EXPECT_EQ(f.arrived[0]->kind, icn::MessageKind::finepack_packet);
    EXPECT_EQ(f.arrived[1]->kind, icn::MessageKind::atomic_op);
    EXPECT_EQ(f.port->atomicsSent(), 1u);
}

TEST(EgressPortTest, AtomicWithoutConflictJustSends)
{
    Fixture f(EgressMode::finepack);
    f.port->issueStore(f.store(0x1000, 8));
    Store atomic = f.store(0x9000, 4);
    atomic.is_atomic = true;
    f.port->issueStore(atomic);
    f.queue.run();
    // No overlap: only the atomic leaves; the store stays buffered.
    ASSERT_EQ(f.arrived.size(), 1u);
    EXPECT_EQ(f.arrived[0]->kind, icn::MessageKind::atomic_op);
}

TEST(EgressPortTest, RemoteLoadFlushesSameAddress)
{
    Fixture f(EgressMode::finepack);
    f.port->issueStore(f.store(0x1000, 8));
    f.port->notifyRemoteLoad(1, 0x1004, 2);
    f.queue.run();
    ASSERT_EQ(f.arrived.size(), 1u);
    // Loads to other destinations or addresses leave the queue alone.
    f.arrived.clear();
    f.port->issueStore(f.store(0x1000, 8));
    f.port->notifyRemoteLoad(2, 0x1000, 8);
    f.port->notifyRemoteLoad(1, 0x8000, 8);
    f.queue.run();
    EXPECT_TRUE(f.arrived.empty());
}

TEST(EgressPortTest, WriteCombineModeEmitsFullLines)
{
    Fixture f(EgressMode::write_combine);
    f.port->issueStore(f.store(0x1000, 8));
    f.port->issueStore(f.store(0x1040, 8));
    f.port->releaseFence();
    f.queue.run();
    ASSERT_EQ(f.arrived.size(), 1u);
    EXPECT_EQ(f.arrived[0]->kind,
              icn::MessageKind::write_combine_line);
    EXPECT_EQ(f.arrived[0]->payload_bytes, 128u);
    EXPECT_EQ(f.arrived[0]->data_bytes, 16u);
}

TEST(EgressPortTest, FenceOnRawModeIsNoOp)
{
    Fixture f(EgressMode::raw_p2p);
    f.port->releaseFence();
    f.queue.run();
    EXPECT_TRUE(f.arrived.empty());
}

TEST(EgressPortTest, StatsAccessorsGuardedByMode)
{
    Fixture f(EgressMode::raw_p2p);
    EXPECT_THROW(f.port->writeQueue(), common::SimError);
    EXPECT_THROW(f.port->packetizer(), common::SimError);
}

TEST(EgressPortTest, TimeoutFlushDrainsIdlePartition)
{
    common::EventQueue queue;
    icn::FabricParams params;
    params.bytes_per_tick = 1.0;
    params.link_latency = 1;
    params.switch_latency = 1;
    icn::SwitchedFabric fabric("fab", queue, 4, params);
    std::vector<icn::WireMessagePtr> arrived;
    for (GpuId g = 0; g < 4; ++g)
        fabric.setIngressHandler(
            g, [&](const icn::WireMessagePtr &msg) {
                arrived.push_back(msg);
            });

    const Tick timeout = 1000;
    EgressPort port("egress", queue, 0, 4, EgressMode::finepack,
                    finepack::defaultConfig(),
                    icn::PcieProtocol(icn::PcieGen::gen4), fabric,
                    timeout);

    port.issueStore(icn::Store(0x1000, 8, 0, 1));
    // Nothing flushes before the timeout.
    queue.run(timeout - 1);
    EXPECT_TRUE(arrived.empty());
    // The idle partition flushes at the timeout.
    queue.run();
    ASSERT_EQ(arrived.size(), 1u);
    EXPECT_EQ(port.timeoutFlushes(), 1u);
}

TEST(EgressPortTest, TimeoutReArmsWhilePushesContinue)
{
    common::EventQueue queue;
    icn::FabricParams params;
    params.bytes_per_tick = 1.0;
    params.link_latency = 1;
    params.switch_latency = 1;
    icn::SwitchedFabric fabric("fab", queue, 4, params);
    std::vector<icn::WireMessagePtr> arrived;
    for (GpuId g = 0; g < 4; ++g)
        fabric.setIngressHandler(
            g, [&](const icn::WireMessagePtr &msg) {
                arrived.push_back(msg);
            });

    const Tick timeout = 1000;
    EgressPort port("egress", queue, 0, 4, EgressMode::finepack,
                    finepack::defaultConfig(),
                    icn::PcieProtocol(icn::PcieGen::gen4), fabric,
                    timeout);

    // Keep the partition warm: pushes every 400 ticks < timeout.
    for (int i = 0; i < 5; ++i) {
        queue.schedule(
            [&port, i]() {
                port.issueStore(
                    icn::Store(0x1000 + i * 8, 8, 0, 1));
            },
            static_cast<Tick>(i) * 400, common::Event::prio_default,
            "test.event");
    }
    queue.run(2000);
    EXPECT_TRUE(arrived.empty()); // never idle long enough
    queue.run();                  // idle period after the last push
    ASSERT_EQ(arrived.size(), 1u);
    EXPECT_EQ(arrived[0]->packed_store_count, 5u);
}

TEST(EgressPortTest, ZeroTimeoutDisablesFeature)
{
    common::EventQueue queue;
    icn::FabricParams params;
    params.bytes_per_tick = 1.0;
    icn::SwitchedFabric fabric("fab", queue, 4, params);
    std::vector<icn::WireMessagePtr> arrived;
    for (GpuId g = 0; g < 4; ++g)
        fabric.setIngressHandler(
            g, [&](const icn::WireMessagePtr &msg) {
                arrived.push_back(msg);
            });
    EgressPort port("egress", queue, 0, 4, EgressMode::finepack,
                    finepack::defaultConfig(),
                    icn::PcieProtocol(icn::PcieGen::gen4), fabric, 0);
    port.issueStore(icn::Store(0x1000, 8, 0, 1));
    queue.run();
    EXPECT_TRUE(arrived.empty());
    EXPECT_EQ(port.timeoutFlushes(), 0u);
}
