/** Unit tests for the wire-message pool. */

#include <gtest/gtest.h>

#include <memory>

#include "interconnect/message.hh"

using namespace fp;
using fp::icn::MessagePool;
using fp::icn::WireMessagePtr;

TEST(MessagePoolTest, ReusesAReleasedBlock)
{
    MessagePool pool;
    WireMessagePtr first = pool.make();
    const icn::WireMessage *address = first.get();
    first.reset();
    WireMessagePtr second = pool.make();
    EXPECT_EQ(second.get(), address);
    // Two live messages never share a block.
    WireMessagePtr third = pool.make();
    EXPECT_NE(third.get(), second.get());
}

TEST(MessagePoolTest, EveryMessageStartsValueInitialized)
{
    MessagePool pool;
    {
        WireMessagePtr used = pool.make();
        used->kind = icn::MessageKind::finepack_packet;
        used->payload_bytes = 40;
        used->delivered_stores = 3;
        used->stores.emplace_back(0x1000, 8, 0, 1);
        used->timing.created = 7;
    }
    WireMessagePtr fresh = pool.make();
    EXPECT_EQ(fresh->kind, icn::MessageKind::raw_store);
    EXPECT_EQ(fresh->payload_bytes, 0u);
    EXPECT_EQ(fresh->delivered_stores, 0u);
    EXPECT_TRUE(fresh->stores.empty());
    EXPECT_EQ(fresh->timing.created, obs::no_stamp);
}

TEST(MessagePoolTest, MessagesMayOutliveTheirPool)
{
    // Components of an interrupted run are destroyed while deliveries
    // still hold their messages; the blocks must stay valid and be
    // freed with the last message (asan checks both).
    WireMessagePtr survivor;
    {
        MessagePool pool;
        WireMessagePtr released = pool.make();
        released.reset(); // a free block the pool holds
        survivor = pool.make();
        survivor->payload_bytes = 64;
    }
    EXPECT_EQ(survivor->payload_bytes, 64u);
    survivor.reset();
}

TEST(MessagePoolTest, PoolsAreIndependent)
{
    MessagePool a;
    MessagePool b;
    WireMessagePtr from_a = a.make();
    const icn::WireMessage *address = from_a.get();
    from_a.reset();
    // The block went back to a, not to b.
    WireMessagePtr from_b = b.make();
    EXPECT_NE(from_b.get(), address);
    EXPECT_EQ(a.make().get(), address);
}
