/** Unit tests for credit-based link flow control. */

#include <gtest/gtest.h>

#include <vector>

#include "common/event_queue.hh"
#include "interconnect/link.hh"
#include "interconnect/topology.hh"

using namespace fp;
using namespace fp::icn;

namespace {

WireMessagePtr
makeMessage(std::uint64_t bytes, GpuId src = 0, GpuId dst = 1)
{
    auto msg = std::make_shared<WireMessage>();
    msg->src = src;
    msg->dst = dst;
    msg->payload_bytes = bytes;
    msg->data_bytes = bytes;
    return msg;
}

} // namespace

TEST(FlowControlTest, SendsFreelyWithinCredits)
{
    common::EventQueue queue;
    int delivered = 0;
    Link link("l", queue, 1.0, 0,
              [&](const WireMessagePtr &) { ++delivered; });
    link.setCreditLimit(300);
    link.send(makeMessage(100));
    link.send(makeMessage(100));
    EXPECT_EQ(link.creditsInUse(), 200u);
    EXPECT_EQ(link.waitingMessages(), 0u);
    queue.run();
    EXPECT_EQ(delivered, 2);
}

TEST(FlowControlTest, BlocksWhenCreditsExhausted)
{
    common::EventQueue queue;
    int delivered = 0;
    Link link("l", queue, 1.0, 0,
              [&](const WireMessagePtr &) { ++delivered; });
    link.setCreditLimit(150);
    link.send(makeMessage(100));
    link.send(makeMessage(100)); // does not fit: waits
    EXPECT_EQ(link.waitingMessages(), 1u);
    EXPECT_EQ(link.creditStalls(), 1u);
    queue.run();
    EXPECT_EQ(delivered, 1); // second message still stuck

    link.releaseCredits(100);
    EXPECT_EQ(link.waitingMessages(), 0u);
    queue.run();
    EXPECT_EQ(delivered, 2);
}

TEST(FlowControlTest, FifoOrderPreservedUnderStalls)
{
    common::EventQueue queue;
    std::vector<std::uint64_t> delivered;
    Link link("l", queue, 1.0, 0,
              [&](const WireMessagePtr &msg) {
                  delivered.push_back(msg->payload_bytes);
              });
    link.setCreditLimit(100);
    link.send(makeMessage(90)); // fits
    link.send(makeMessage(60)); // waits
    link.send(makeMessage(5));  // would fit, but must queue behind 60
    EXPECT_EQ(link.waitingMessages(), 2u);
    queue.run();
    link.releaseCredits(90);
    queue.run();
    link.releaseCredits(65);
    queue.run();
    EXPECT_EQ(delivered,
              (std::vector<std::uint64_t>{90, 60, 5}));
}

TEST(FlowControlTest, OversizedMessagePanics)
{
    common::EventQueue queue;
    Link link("l", queue, 1.0, 0, nullptr);
    link.setCreditLimit(50);
    EXPECT_THROW(link.send(makeMessage(100)), common::SimError);
}

TEST(FlowControlTest, ReleaseUnderflowPanics)
{
    common::EventQueue queue;
    Link link("l", queue, 1.0, 0, nullptr);
    link.setCreditLimit(100);
    EXPECT_THROW(link.releaseCredits(10), common::SimError);
}

TEST(FlowControlTest, ZeroLimitMeansUnlimited)
{
    common::EventQueue queue;
    int delivered = 0;
    Link link("l", queue, 1.0, 0,
              [&](const WireMessagePtr &) { ++delivered; });
    for (int i = 0; i < 64; ++i)
        link.send(makeMessage(1 << 20));
    EXPECT_EQ(link.waitingMessages(), 0u);
    queue.run();
    EXPECT_EQ(delivered, 64);
}

TEST(FlowControlTest, OnTransmitFiresWhenSerializationStarts)
{
    common::EventQueue queue;
    Link link("l", queue, 1.0, 0, nullptr);
    link.setCreditLimit(100);
    bool first_started = false, second_started = false;
    link.send(makeMessage(80), [&]() { first_started = true; });
    link.send(makeMessage(80), [&]() { second_started = true; });
    EXPECT_TRUE(first_started);
    EXPECT_FALSE(second_started);
    link.releaseCredits(80);
    EXPECT_TRUE(second_started);
}

TEST(FlowControlTest, SlowEndpointBackpressuresThroughSwitch)
{
    // Endpoint buffer of 2 messages; the endpoint consumes slowly.
    // The downlink stalls, the switch buffer fills, and the uplink
    // stalls in turn - classic credit back-pressure.
    common::EventQueue queue;
    FabricParams params;
    params.bytes_per_tick = 1.0;
    params.link_latency = 1;
    params.switch_latency = 1;
    params.switch_buffer_bytes = 200;  // two 100 B messages
    params.endpoint_buffer_bytes = 200;
    SwitchedFabric fabric("fab", queue, 2, params);

    std::vector<Tick> arrivals;
    fabric.setIngressHandler(1, [&](const WireMessagePtr &msg) {
        arrivals.push_back(queue.now());
        // Consume only after a long delay.
        queue.scheduleIn(
            [&fabric, msg]() {
                fabric.releaseEndpointCredits(1, msg->wireBytes());
            },
            10000, common::Event::prio_default, "test.event");
    });

    for (int i = 0; i < 6; ++i)
        fabric.inject(makeMessage(100, 0, 1));
    queue.run();

    ASSERT_EQ(arrivals.size(), 6u);
    // Without flow control all six would arrive within ~800 ticks;
    // with it, later arrivals are gated by the 10000-tick consumption.
    EXPECT_LT(arrivals[1], 2000u);
    EXPECT_GT(arrivals[3], 10000u);
    EXPECT_GT(arrivals[5], 20000u);
    EXPECT_GT(fabric.downlink(1).creditStalls(), 0u);
    EXPECT_GT(fabric.uplink(0).creditStalls(), 0u);
}
