/** Unit tests for the bandwidth-limited link model. */

#include <gtest/gtest.h>

#include <vector>

#include "common/event_queue.hh"
#include "interconnect/link.hh"
#include "obs/flow.hh"

using namespace fp;
using namespace fp::icn;

namespace {

WireMessagePtr
makeMessage(std::uint64_t payload, std::uint64_t header,
            MessageKind kind = MessageKind::raw_store)
{
    auto msg = std::make_shared<WireMessage>();
    msg->kind = kind;
    msg->src = 0;
    msg->dst = 1;
    msg->payload_bytes = payload;
    msg->header_bytes = header;
    msg->data_bytes = payload;
    return msg;
}

} // namespace

TEST(LinkTest, SerializationTimeMatchesBandwidth)
{
    common::EventQueue queue;
    std::vector<Tick> arrivals;
    // 1 byte per tick, zero latency.
    Link link("l", queue, 1.0, 0,
              [&](const WireMessagePtr &) {
                  arrivals.push_back(queue.now());
              });

    link.send(makeMessage(100, 0));
    queue.run();
    ASSERT_EQ(arrivals.size(), 1u);
    EXPECT_EQ(arrivals[0], 100u);
}

TEST(LinkTest, LatencyAddsToDelivery)
{
    common::EventQueue queue;
    std::vector<Tick> arrivals;
    Link link("l", queue, 1.0, 50,
              [&](const WireMessagePtr &) {
                  arrivals.push_back(queue.now());
              });
    link.send(makeMessage(10, 0));
    queue.run();
    ASSERT_EQ(arrivals.size(), 1u);
    EXPECT_EQ(arrivals[0], 60u);
}

TEST(LinkTest, BackToBackMessagesSerialize)
{
    common::EventQueue queue;
    std::vector<Tick> arrivals;
    Link link("l", queue, 1.0, 0,
              [&](const WireMessagePtr &) {
                  arrivals.push_back(queue.now());
              });
    link.send(makeMessage(100, 0));
    link.send(makeMessage(100, 0));
    EXPECT_EQ(link.busyUntil(), 200u);
    queue.run();
    ASSERT_EQ(arrivals.size(), 2u);
    EXPECT_EQ(arrivals[0], 100u);
    EXPECT_EQ(arrivals[1], 200u); // queued behind the first
}

TEST(LinkTest, IdleGapsDoNotAccumulate)
{
    common::EventQueue queue;
    std::vector<Tick> arrivals;
    Link link("l", queue, 1.0, 0,
              [&](const WireMessagePtr &) {
                  arrivals.push_back(queue.now());
              });
    link.send(makeMessage(10, 0));
    queue.run();
    // Inject a second message later, after the link went idle.
    queue.schedule([&]() { link.send(makeMessage(10, 0)); }, 1000,
                   common::Event::prio_default, "test.event");
    queue.run();
    ASSERT_EQ(arrivals.size(), 2u);
    EXPECT_EQ(arrivals[1], 1010u);
}

TEST(LinkTest, HeaderBytesOccupyWireTime)
{
    common::EventQueue queue;
    std::vector<Tick> arrivals;
    Link link("l", queue, 1.0, 0,
              [&](const WireMessagePtr &) {
                  arrivals.push_back(queue.now());
              });
    link.send(makeMessage(50, 30));
    queue.run();
    EXPECT_EQ(arrivals[0], 80u);
}

TEST(LinkTest, FractionalBandwidthCeils)
{
    common::EventQueue queue;
    Link link("l", queue, 0.032, 0, nullptr); // PCIe 4.0 B/ps
    link.send(makeMessage(32, 0));
    // 32 / 0.032 = 1000 ticks exactly.
    EXPECT_EQ(link.busyUntil(), 1000u);
}

TEST(LinkTest, StatsAccumulate)
{
    common::EventQueue queue;
    Link link("l", queue, 1.0, 0, nullptr);
    link.send(makeMessage(100, 20));
    link.send(makeMessage(50, 10, MessageKind::finepack_packet));
    queue.run();
    EXPECT_EQ(link.payloadBytes(), 150u);
    EXPECT_EQ(link.headerBytes(), 30u);
    EXPECT_EQ(link.messageCount(), 2u);
    EXPECT_EQ(link.totalWireBytes(), 180u);
    EXPECT_EQ(link.busyTicks(), 180u);

    const auto &raw = link.kindStats(MessageKind::raw_store);
    EXPECT_EQ(raw.payload_bytes, 100u);
    EXPECT_EQ(raw.messages, 1u);
    const auto &fpk = link.kindStats(MessageKind::finepack_packet);
    EXPECT_EQ(fpk.payload_bytes, 50u);
    EXPECT_EQ(fpk.header_bytes, 10u);
}

TEST(LinkTest, ResetStatsClearsEverything)
{
    common::EventQueue queue;
    Link link("l", queue, 1.0, 0, nullptr);
    link.send(makeMessage(100, 20));
    queue.run();
    link.resetStats();
    EXPECT_EQ(link.totalWireBytes(), 0u);
    EXPECT_EQ(link.messageCount(), 0u);
    EXPECT_EQ(link.kindStats(MessageKind::raw_store).messages, 0u);
}

TEST(LinkTest, TxScalarsTrackWireTraffic)
{
    common::EventQueue queue;
    Link link("l", queue, 1.0, 0, nullptr);
    link.send(makeMessage(100, 20));
    link.send(makeMessage(50, 10)); // queued behind the first
    queue.run();
    EXPECT_EQ(link.bytesTx(), 180u);
    EXPECT_EQ(link.msgsTx(), 2u);
    // The second message enqueued at 0 but started at 120.
    EXPECT_EQ(link.queueWaitTicks(), 120u);
}

TEST(LinkTest, ResetStatsClearsTxScalars)
{
    common::EventQueue queue;
    Link link("l", queue, 1.0, 0, nullptr);
    link.send(makeMessage(100, 20));
    link.send(makeMessage(50, 10));
    queue.run();
    link.resetStats();
    EXPECT_EQ(link.bytesTx(), 0u);
    EXPECT_EQ(link.msgsTx(), 0u);
    EXPECT_EQ(link.queueWaitTicks(), 0u);
}

TEST(LinkTest, FlowCollectorSeesTransmitsAndOccupantWait)
{
    common::EventQueue queue;
    obs::FlowCollector flows(1000);
    flows.beginRun(2);
    Link link("l", queue, 1.0, 0, nullptr);
    std::uint32_t id = flows.registerLink(
        link.name(), obs::FlowCollector::LinkKind::uplink, 0);
    obs::Probes probes;
    probes.flows = &flows;
    link.setProbes(probes, obs::tracePidGpu(0), obs::lane_uplink, id);

    link.send(makeMessage(100, 0));
    link.send(makeMessage(50, 0)); // waits 100 ticks behind the first
    queue.run();
    flows.endRun(queue.now());

    const auto &stats = flows.links()[id];
    EXPECT_EQ(stats.msgs, 2u);
    EXPECT_EQ(stats.wire_bytes, 150u);
    EXPECT_EQ(stats.busy_ticks, 150u);
    EXPECT_EQ(stats.wait_ticks, 100u);
    // Both messages belong to flow g0->g1, so the wait self-attributes
    // through the occupant (the first message), not the fallback.
    EXPECT_EQ(flows.flow(0, 1).delay_caused_ticks, 100u);
    EXPECT_EQ(flows.flow(0, 1).delay_suffered_ticks, 100u);
    EXPECT_EQ(flows.interferenceTicks(0, 0), 100u);

    // Detaching stops the reporting.
    link.setProbes(obs::Probes{}, obs::tracePidGpu(0), obs::lane_uplink,
                   0);
    link.send(makeMessage(10, 0));
    queue.run();
    EXPECT_EQ(flows.links()[id].msgs, 2u);
}

TEST(LinkTest, DeliveryPreservesMessageContents)
{
    common::EventQueue queue;
    WireMessagePtr received;
    Link link("l", queue, 1.0, 0,
              [&](const WireMessagePtr &msg) { received = msg; });
    auto sent = makeMessage(64, 26);
    sent->stores.emplace_back(0x1000, 8, 0, 1);
    link.send(sent);
    queue.run();
    ASSERT_NE(received, nullptr);
    EXPECT_EQ(received.get(), sent.get());
    ASSERT_EQ(received->stores.size(), 1u);
    EXPECT_EQ(received->stores[0].addr, 0x1000u);
}
