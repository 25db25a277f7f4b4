/** Unit tests for the GPS subscription model (Section VI-B). */

#include <gtest/gtest.h>

#include "baselines/gps_model.hh"

using namespace fp;
using namespace fp::baselines;

namespace {

trace::IterationWork
iterationWithConsumption()
{
    trace::IterationWork iter;
    iter.per_gpu.resize(4);
    iter.consumed.resize(4);
    // GPU 1 reads pages at 0x0000 and 0x3000..0x5000.
    iter.consumed[1].push_back(icn::AddrRange{0x100, 8});
    iter.consumed[1].push_back(icn::AddrRange{0x3ff0, 0x1020});
    // GPU 2 reads nothing.
    return iter;
}

} // namespace

TEST(GpsModelTest, SubscribesTouchedPages)
{
    GpsModel gps;
    gps.beginIteration(iterationWithConsumption());
    EXPECT_TRUE(gps.subscribed(1, 0x100));
    EXPECT_TRUE(gps.subscribed(1, 0xfff));  // same 4 KiB page
    EXPECT_FALSE(gps.subscribed(1, 0x1000)); // untouched page
    // The range straddling pages subscribes every covered page.
    EXPECT_TRUE(gps.subscribed(1, 0x3000));
    EXPECT_TRUE(gps.subscribed(1, 0x4000));
    EXPECT_TRUE(gps.subscribed(1, 0x5000));
    EXPECT_FALSE(gps.subscribed(1, 0x6000));
}

TEST(GpsModelTest, NonReadersUnsubscribed)
{
    GpsModel gps;
    gps.beginIteration(iterationWithConsumption());
    EXPECT_FALSE(gps.subscribed(2, 0x100));
    EXPECT_FALSE(gps.subscribed(3, 0x3000));
}

TEST(GpsModelTest, EmptyRangesSubscribeNothing)
{
    trace::IterationWork iter;
    iter.per_gpu.resize(2);
    iter.consumed.resize(2);
    iter.consumed[1].push_back(icn::AddrRange{5, 0});
    iter.consumed[1].push_back(icn::AddrRange{0, 0});
    GpsModel gps;
    gps.beginIteration(iter);
    EXPECT_FALSE(gps.subscribed(1, 0));
    EXPECT_FALSE(gps.subscribed(1, 5));
    EXPECT_FALSE(gps.subscribed(1, ~Addr{0}));
}

TEST(GpsModelTest, RangesEndingAtTheTopSubscribeTheLastPage)
{
    trace::IterationWork iter;
    iter.per_gpu.resize(2);
    iter.consumed.resize(2);
    iter.consumed[1].push_back(icn::AddrRange{~Addr{0} - 0x1800, 0x1800});
    GpsModel gps;
    gps.beginIteration(iter);
    EXPECT_TRUE(gps.subscribed(1, ~Addr{0} - 0x1000));
    EXPECT_TRUE(gps.subscribed(1, ~Addr{0} - 1));
    EXPECT_FALSE(gps.subscribed(1, 0));
}

TEST(GpsModelTest, NoDataMeansConservativeSend)
{
    GpsModel gps;
    EXPECT_TRUE(gps.subscribed(0, 0x1234));
    EXPECT_TRUE(gps.subscribed(9, 0x1234));
}

TEST(GpsModelTest, IterationRebuildReplacesSubscriptions)
{
    GpsModel gps;
    gps.beginIteration(iterationWithConsumption());
    ASSERT_TRUE(gps.subscribed(1, 0x100));

    trace::IterationWork other;
    other.per_gpu.resize(4);
    other.consumed.resize(4);
    other.consumed[1].push_back(icn::AddrRange{0x9000, 4});
    gps.beginIteration(other);
    EXPECT_FALSE(gps.subscribed(1, 0x100));
    EXPECT_TRUE(gps.subscribed(1, 0x9000));
}

TEST(GpsModelTest, FilterCounter)
{
    GpsModel gps;
    EXPECT_EQ(gps.storesFiltered(), 0u);
    gps.countFiltered();
    gps.countFiltered();
    EXPECT_EQ(gps.storesFiltered(), 2u);
}

TEST(GpsModelTest, CustomPageSize)
{
    GpsModel gps(256);
    trace::IterationWork iter;
    iter.per_gpu.resize(2);
    iter.consumed.resize(2);
    iter.consumed[0].push_back(icn::AddrRange{0x100, 4});
    gps.beginIteration(iter);
    EXPECT_TRUE(gps.subscribed(0, 0x1ff));
    EXPECT_FALSE(gps.subscribed(0, 0x200));
}
