/**
 * @file
 * The self-profiler must be a pure observer: attaching it to a checked
 * finepack run may change nothing the simulation produces - not the
 * oracle digest, not the stats document, not any RunResult field. This
 * is the acceptance gate for the host-profiling layer (see
 * src/obs/profiler.hh's cost-model note).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "obs/metrics.hh"
#include "obs/profiler.hh"
#include "obs/sampler.hh"
#include "sim/driver.hh"
#include "sim/trace_cache.hh"
#include "workloads/workload.hh"
#include "../support/mini_json.hh"

using namespace fp;
using namespace fp::sim;
using fp::testing::parseJson;

namespace {

const trace::WorkloadTrace &
smallTrace(const std::string &name)
{
    workloads::WorkloadParams params;
    params.num_gpus = 4;
    params.scale = 0.05;
    params.seed = 42;
    return TraceCache::instance().get(name, params);
}

/** One checked, fully instrumented run; profiler optional. */
struct CheckedRun
{
    obs::PeriodicSampler sampler{10 * ticks_per_us};
    obs::MetricsCapture metrics;
    RunResult result;

    explicit CheckedRun(const trace::WorkloadTrace &trace,
                        obs::Profiler *profiler = nullptr)
    {
        SimConfig config;
        config.check = true;
        config.sampler = &sampler;
        config.metrics = &metrics;
        config.profiler = profiler;
        result = SimulationDriver(config).run(trace, Paradigm::finepack);
    }

    /** The stats document, serialized WITHOUT a host section. */
    std::string
    document()
    {
        std::ostringstream os;
        metrics.writeDocument(os, &sampler);
        return os.str();
    }
};

} // namespace

TEST(ProfilerDigest, ProfiledRunIsBitIdenticalToPlainRun)
{
    const auto &trace = smallTrace("jacobi");
    CheckedRun plain(trace);
    obs::Profiler profiler;
    CheckedRun profiled(trace, &profiler);

    // The oracle verified real work in both runs...
    ASSERT_GT(plain.result.oracle_transactions, 0u);
    ASSERT_NE(plain.result.oracle_digest, 0u);
    // ... and the profiler actually observed the run it rode on.
    ASSERT_GT(profiler.events(), 0u);
    EXPECT_EQ(profiler.events(), profiled.result.events_processed);

    EXPECT_EQ(profiled.result.oracle_digest, plain.result.oracle_digest);
    EXPECT_EQ(profiled.result.oracle_transactions,
              plain.result.oracle_transactions);
    EXPECT_EQ(profiled.result.oracle_stores, plain.result.oracle_stores);
    EXPECT_EQ(profiled.result.oracle_bytes, plain.result.oracle_bytes);
    EXPECT_EQ(profiled.result.total_time, plain.result.total_time);
    EXPECT_EQ(profiled.result.wire_bytes, plain.result.wire_bytes);
    EXPECT_EQ(profiled.result.payload_bytes, plain.result.payload_bytes);
    EXPECT_EQ(profiled.result.header_bytes, plain.result.header_bytes);
    EXPECT_EQ(profiled.result.data_bytes, plain.result.data_bytes);
    EXPECT_EQ(profiled.result.messages, plain.result.messages);
    EXPECT_EQ(profiled.result.useful_bytes, plain.result.useful_bytes);
    EXPECT_EQ(profiled.result.protocol_bytes,
              plain.result.protocol_bytes);
    EXPECT_EQ(profiled.result.wasted_bytes, plain.result.wasted_bytes);
    EXPECT_EQ(profiled.result.finepack_packets,
              plain.result.finepack_packets);
    EXPECT_EQ(profiled.result.events_processed,
              plain.result.events_processed);

    // The serialized stats document (groups + timeseries + provenance)
    // is byte-identical: host profiling adds nothing unless the caller
    // passes the profiler to writeDocument explicitly.
    EXPECT_EQ(profiled.document(), plain.document());
}

TEST(ProfilerDigest, HostSectionAppearsOnlyWhenRequested)
{
    const auto &trace = smallTrace("jacobi");
    obs::Profiler profiler;
    CheckedRun run(trace, &profiler);

    auto without = parseJson(run.document());
    EXPECT_FALSE(without.has("host"));
    EXPECT_TRUE(without.has("provenance"));

    std::ostringstream os;
    run.metrics.writeDocument(os, &run.sampler, &profiler);
    auto with = parseJson(os.str());
    ASSERT_TRUE(with.has("host"));
    EXPECT_GT(with.at("host").at("events").number, 0.0);
    EXPECT_GT(with.at("host").at("queue").at("pushes").number, 0.0);
    // Opting in must not disturb the simulated sections.
    std::ostringstream plain_os;
    run.metrics.writeDocument(plain_os, &run.sampler);
    auto plain = parseJson(plain_os.str());
    // Groups compare as serialized substrings: carve them out by
    // re-serializing the parsed values' key sets instead - simplest
    // robust check is count equality plus digest-bearing metrics above.
    EXPECT_EQ(with.at("groups").array.size(),
              plain.at("groups").array.size());
}

TEST(ProfilerDigest, ProfilerIsReusableAcrossParadigmsAndReps)
{
    const auto &trace = smallTrace("sssp");
    obs::Profiler profiler;
    RunResult first, second;
    {
        SimConfig config;
        config.profiler = &profiler;
        SimulationDriver driver(config);
        first = driver.run(trace, Paradigm::finepack);
        second = driver.run(trace, Paradigm::finepack);
    }
    // Two reps fold into one aggregate...
    EXPECT_EQ(profiler.events(),
              first.events_processed + second.events_processed);
    // ... and both reps simulated identically.
    EXPECT_EQ(first.total_time, second.total_time);
    EXPECT_EQ(first.wire_bytes, second.wire_bytes);
}

TEST(ProfilerDigest, SendFlushedScopeCountsEveryPacket)
{
    // Below driver.issue_stores, one egress.send_flushed scope covers
    // each flush's packetize + inject.
    const auto &trace = smallTrace("pagerank");
    obs::Profiler profiler;
    SimConfig config;
    config.profiler = &profiler;
    RunResult result = SimulationDriver(config).run(trace, Paradigm::finepack);
    ASSERT_GT(result.finepack_packets, 0u);
    std::uint64_t scopes = 0;
    for (const obs::HostHotspot &spot : profiler.hotspots()) {
        if (spot.label == "egress.send_flushed")
            scopes = spot.count;
    }
    EXPECT_EQ(scopes, result.finepack_packets);
    // Per-flush scopes aggregate only: the host timeline keeps one
    // slice per driver scope (an iteration each, plus useful bytes).
    EXPECT_EQ(profiler.sliceCount(), trace.numIterations() + 1);
}
