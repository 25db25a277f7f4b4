/**
 * Integration tests for the simulation driver: paradigm orderings, byte
 * accounting consistency, and bandwidth sensitivity on small-scale
 * workload traces (the full-scale results live in bench/).
 */

#include <gtest/gtest.h>

#include <iterator>

#include "obs/profiler.hh"
#include "sim/driver.hh"
#include "sim/trace_cache.hh"
#include "workloads/workload.hh"

using namespace fp;
using namespace fp::sim;

namespace {

const trace::WorkloadTrace &
smallTrace(const std::string &name, double scale = 0.05)
{
    workloads::WorkloadParams params;
    params.num_gpus = 4;
    params.scale = scale;
    params.seed = 42;
    return TraceCache::instance().get(name, params);
}

} // namespace

TEST(DriverTest, SingleGpuHasNoTraffic)
{
    SimulationDriver driver;
    RunResult result = driver.run(smallTrace("pagerank"),
                                  Paradigm::single_gpu);
    EXPECT_GT(result.total_time, 0u);
    EXPECT_EQ(result.wire_bytes, 0u);
    EXPECT_EQ(result.messages, 0u);
}

TEST(DriverTest, InfiniteBandwidthIsFastestParadigm)
{
    SimulationDriver driver;
    const auto &trace = smallTrace("sssp");
    Tick inf = driver.run(trace, Paradigm::infinite_bw).total_time;
    for (auto paradigm : {Paradigm::bulk_dma, Paradigm::p2p_stores,
                          Paradigm::finepack, Paradigm::write_combine,
                          Paradigm::gps}) {
        EXPECT_GE(driver.run(trace, paradigm).total_time, inf)
            << toString(paradigm);
    }
}

TEST(DriverTest, FinePackBeatsRawStoresOnIrregularApps)
{
    SimulationDriver driver;
    for (const char *name : {"sssp", "eqwp", "pagerank"}) {
        const auto &trace = smallTrace(name);
        Tick fp_time = driver.run(trace, Paradigm::finepack).total_time;
        Tick p2p_time =
            driver.run(trace, Paradigm::p2p_stores).total_time;
        EXPECT_LT(fp_time, p2p_time) << name;
    }
}

TEST(DriverTest, FinePackTransfersFewerBytesThanRawStores)
{
    SimulationDriver driver;
    for (const char *name : {"sssp", "pagerank", "eqwp", "hit"}) {
        const auto &trace = smallTrace(name);
        auto fp_run = driver.run(trace, Paradigm::finepack);
        auto p2p_run = driver.run(trace, Paradigm::p2p_stores);
        EXPECT_LT(fp_run.wire_bytes, p2p_run.wire_bytes) << name;
        // And far fewer link-level transactions than program stores
        // (raw messages are batch-accounted, so compare against the
        // store count).
        EXPECT_LT(fp_run.finepack_packets,
                  trace.totalRemoteStores() / 2)
            << name;
    }
}

TEST(DriverTest, ByteClassificationIsConsistent)
{
    SimulationDriver driver;
    for (auto paradigm : {Paradigm::p2p_stores, Paradigm::bulk_dma,
                          Paradigm::finepack, Paradigm::write_combine}) {
        RunResult r = driver.run(smallTrace("sssp"), paradigm);
        // useful + wasted + protocol covers the whole wire.
        EXPECT_EQ(r.useful_bytes + r.wasted_bytes + r.protocol_bytes,
                  r.wire_bytes)
            << toString(paradigm);
        EXPECT_EQ(r.wire_bytes, r.payload_bytes + r.header_bytes);
        EXPECT_LE(r.data_bytes, r.payload_bytes);
    }
}

TEST(DriverTest, UsefulBytesAreParadigmIndependent)
{
    SimulationDriver driver;
    const auto &trace = smallTrace("pagerank");
    std::uint64_t useful =
        driver.run(trace, Paradigm::finepack).useful_bytes;
    EXPECT_EQ(driver.run(trace, Paradigm::p2p_stores).useful_bytes,
              useful);
    EXPECT_EQ(driver.run(trace, Paradigm::bulk_dma).useful_bytes,
              useful);
    EXPECT_GT(useful, 0u);
}

TEST(DriverTest, UsefulBytesHaveOneProfilerScopePerEventDrivenRun)
{
    // Counted before the profiler detaches, so `fptrace profile` and
    // the benches' host.* numbers include the accounting; analytic
    // paradigms have no useful bytes to count.
    const auto &trace = smallTrace("sssp");
    obs::Profiler profiler;
    SimConfig config;
    config.profiler = &profiler;
    SimulationDriver driver(config);
    const Paradigm event_driven[] = {Paradigm::finepack, Paradigm::finepack,
                                     Paradigm::p2p_stores,
                                     Paradigm::bulk_dma};
    for (Paradigm paradigm : event_driven)
        driver.run(trace, paradigm);
    driver.run(trace, Paradigm::infinite_bw);

    std::size_t useful_frames = 0, iteration_frames = 0;
    std::size_t analytic_frames = 0;
    for (const obs::HostHotspot &row : profiler.hotspots()) {
        if (row.label == "driver.useful_bytes")
            useful_frames = row.count;
        else if (row.label == "driver.iteration")
            iteration_frames = row.count;
        else if (row.label == "driver.analytic")
            analytic_frames = row.count;
    }
    EXPECT_EQ(useful_frames, std::size(event_driven));
    EXPECT_EQ(iteration_frames,
              std::size(event_driven) * trace.numIterations());
    EXPECT_EQ(analytic_frames, 1u);
}

TEST(DriverTest, DmaOverTransfersOnSparseUpdates)
{
    // SSSP's memcpy twin copies whole distance blocks; almost all of it
    // is wasted (Figure 10's bulk-DMA bar).
    SimulationDriver driver;
    RunResult r = driver.run(smallTrace("sssp"), Paradigm::bulk_dma);
    EXPECT_GT(r.wasted_bytes, r.useful_bytes);
}

TEST(DriverTest, FinePackPacksMultipleStoresPerPacket)
{
    SimulationDriver driver;
    RunResult r = driver.run(smallTrace("pagerank"), Paradigm::finepack);
    EXPECT_GT(r.avg_stores_per_packet, 2.0);
    EXPECT_GT(r.finepack_packets, 0u);
}

TEST(DriverTest, HigherBandwidthNeverHurts)
{
    const auto &trace = smallTrace("eqwp");
    SimConfig gen4;
    gen4.pcie_gen = icn::PcieGen::gen4;
    SimConfig gen6;
    gen6.pcie_gen = icn::PcieGen::gen6;
    for (auto paradigm : {Paradigm::p2p_stores, Paradigm::bulk_dma,
                          Paradigm::finepack}) {
        Tick slow =
            SimulationDriver(gen4).run(trace, paradigm).total_time;
        Tick fast =
            SimulationDriver(gen6).run(trace, paradigm).total_time;
        EXPECT_LE(fast, slow) << toString(paradigm);
    }
}

TEST(DriverTest, GpsFiltersUnconsumedTraffic)
{
    // On a workload with unconsumed pushes (ALS), subscription filtering
    // must reduce the bytes on the wire relative to plain WC.
    SimulationDriver driver;
    const auto &trace = smallTrace("als");
    auto wc = driver.run(trace, Paradigm::write_combine);
    auto gps = driver.run(trace, Paradigm::gps);
    EXPECT_LE(gps.wire_bytes, wc.wire_bytes);
    EXPECT_LE(gps.total_time, wc.total_time);
}

TEST(DriverTest, SpeedupHelperMatchesManualRatio)
{
    SimulationDriver driver;
    const auto &trace = smallTrace("diffusion");
    double helper =
        driver.speedupOverSingleGpu(trace, Paradigm::finepack);
    Tick single = driver.run(trace, Paradigm::single_gpu).total_time;
    Tick fp_time = driver.run(trace, Paradigm::finepack).total_time;
    EXPECT_NEAR(helper,
                static_cast<double>(single) /
                    static_cast<double>(fp_time),
                1e-9);
}

TEST(DriverTest, SubheaderSweepChangesTraffic)
{
    // Figure 12's mechanism: the sub-header geometry affects FinePack
    // wire bytes (bigger offsets pack more, but cost more per store).
    const auto &trace = smallTrace("ct", 0.2);
    std::uint64_t bytes2, bytes5;
    {
        SimConfig config;
        config.finepack = finepack::configWithSubheader(2);
        bytes2 = SimulationDriver(config)
                     .run(trace, Paradigm::finepack)
                     .wire_bytes;
    }
    {
        SimConfig config;
        config.finepack = finepack::configWithSubheader(5);
        bytes5 = SimulationDriver(config)
                     .run(trace, Paradigm::finepack)
                     .wire_bytes;
    }
    // CT scatters over gigabytes: 64 B windows thrash far worse than
    // 1 GiB windows.
    EXPECT_GT(bytes2, bytes5);
}

TEST(DriverTest, ResultsAreReproducible)
{
    SimulationDriver driver;
    const auto &trace = smallTrace("hit");
    auto a = driver.run(trace, Paradigm::finepack);
    auto b = driver.run(trace, Paradigm::finepack);
    EXPECT_EQ(a.total_time, b.total_time);
    EXPECT_EQ(a.wire_bytes, b.wire_bytes);
    EXPECT_EQ(a.messages, b.messages);
}

TEST(DriverTest, TwoGpuSystemWorks)
{
    workloads::WorkloadParams params;
    params.num_gpus = 2;
    params.scale = 0.05;
    auto trace = workloads::createWorkload("jacobi")
                     ->generateTrace(params);
    SimulationDriver driver;
    for (auto paradigm : {Paradigm::p2p_stores, Paradigm::bulk_dma,
                          Paradigm::finepack, Paradigm::infinite_bw}) {
        RunResult r = driver.run(trace, paradigm);
        EXPECT_GT(r.total_time, 0u) << toString(paradigm);
    }
}

TEST(TraceCacheTest, ReturnsSameObjectForSameKey)
{
    workloads::WorkloadParams params;
    params.scale = 0.05;
    const auto &a = TraceCache::instance().get("jacobi", params);
    const auto &b = TraceCache::instance().get("jacobi", params);
    EXPECT_EQ(&a, &b);
    params.seed = 43;
    const auto &c = TraceCache::instance().get("jacobi", params);
    EXPECT_NE(&a, &c);
}
