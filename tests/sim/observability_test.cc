/**
 * End-to-end tests for the observability layer wired through the
 * simulation driver: one event-driven run with a tracer, sampler, and
 * metrics capture attached must produce a valid trace, populated time
 * series, and a stats document containing the pipeline's stat groups -
 * and attaching the instrumentation must not change simulated results.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "check/digest.hh"
#include "common/build_info.hh"
#include "common/json.hh"
#include "obs/metrics.hh"
#include "obs/sampler.hh"
#include "obs/trace_event.hh"
#include "sim/driver.hh"
#include "sim/trace_cache.hh"
#include "workloads/workload.hh"
#include "../support/mini_json.hh"

using namespace fp;
using namespace fp::sim;
using fp::testing::JsonValue;
using fp::testing::parseJson;

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

struct Instruments
{
    obs::TraceSink tracer;
    obs::PeriodicSampler sampler{10 * ticks_per_us};
    obs::MetricsCapture metrics;

    explicit Instruments(
        obs::TraceDetail detail = obs::TraceDetail::full)
        : tracer(detail)
    {}

    SimConfig
    config() const
    {
        SimConfig c;
        c.tracer = const_cast<obs::TraceSink *>(&tracer);
        c.sampler = const_cast<obs::PeriodicSampler *>(&sampler);
        c.metrics = const_cast<obs::MetricsCapture *>(&metrics);
        return c;
    }
};

} // namespace

TEST(ObservabilityTest, InstrumentedRunMatchesPlainRun)
{
    const auto &trace = smallTrace("pagerank");
    RunResult plain =
        SimulationDriver().run(trace, Paradigm::finepack);

    Instruments inst;
    RunResult instrumented =
        SimulationDriver(inst.config()).run(trace, Paradigm::finepack);

    EXPECT_EQ(instrumented.total_time, plain.total_time);
    EXPECT_EQ(instrumented.wire_bytes, plain.wire_bytes);
    EXPECT_EQ(instrumented.messages, plain.messages);
    EXPECT_EQ(instrumented.finepack_packets, plain.finepack_packets);
}

TEST(ObservabilityTest, TraceCoversThePipeline)
{
    Instruments inst;
    SimulationDriver(inst.config())
        .run(smallTrace("pagerank"), Paradigm::finepack);
    ASSERT_GT(inst.tracer.eventCount(), 0u);

    std::ostringstream os;
    inst.tracer.write(os);
    auto events = parseJson(os.str()).at("traceEvents");

    bool saw_kernel = false, saw_flush = false, saw_packet = false,
         saw_link = false, saw_ingress = false, saw_meta = false;
    for (const auto &e : events.array) {
        const std::string &ph = e.at("ph").string;
        if (ph == "M") {
            saw_meta = true;
            continue;
        }
        if (!e.has("cat"))
            continue;
        const std::string &cat = e.at("cat").string;
        saw_kernel |= e.at("name").string == "kernel";
        saw_flush |= cat == "rwq_flush";
        saw_packet |= cat == "packetizer";
        saw_link |= cat == "link";
        saw_ingress |= cat == "ingress";
    }
    EXPECT_TRUE(saw_meta);
    EXPECT_TRUE(saw_kernel);
    EXPECT_TRUE(saw_flush);
    EXPECT_TRUE(saw_packet);
    EXPECT_TRUE(saw_link);
    EXPECT_TRUE(saw_ingress);
}

TEST(ObservabilityTest, FlushDetailOmitsPerStoreEvents)
{
    Instruments full(obs::TraceDetail::full);
    Instruments flush(obs::TraceDetail::flush);
    const auto &trace = smallTrace("jacobi");
    SimulationDriver(full.config()).run(trace, Paradigm::finepack);
    SimulationDriver(flush.config()).run(trace, Paradigm::finepack);
    EXPECT_LT(flush.tracer.eventCount(), full.tracer.eventCount());

    std::ostringstream os;
    flush.tracer.write(os);
    auto events = parseJson(os.str()).at("traceEvents");
    for (const auto &e : events.array) {
        if (!e.has("cat"))
            continue;
        // Per-store enqueue instants are full-detail only.
        EXPECT_NE(e.at("cat").string, "rwq");
        EXPECT_NE(e.at("cat").string, "ingress");
    }
}

TEST(ObservabilityTest, SamplerRecordsRwqOccupancySeries)
{
    Instruments inst;
    // pagerank scatters enough stores per iteration for the remote
    // write queue to stay occupied across sample boundaries.
    SimulationDriver(inst.config())
        .run(smallTrace("pagerank", 0.3), Paradigm::finepack);

    bool saw_rwq_track = false, saw_nonzero = false;
    std::size_t points = 0;
    for (const auto &series : inst.sampler.series()) {
        points = std::max(points, series.ticks.size());
        if (series.name.find(".rwq.entries[") == std::string::npos)
            continue;
        saw_rwq_track = true;
        for (double v : series.values)
            saw_nonzero |= v > 0.0;
    }
    EXPECT_TRUE(saw_rwq_track);
    EXPECT_TRUE(saw_nonzero);
    EXPECT_GE(points, 2u);
}

TEST(ObservabilityTest, MetricsDocumentContainsPipelineGroups)
{
    Instruments inst;
    SimulationDriver(inst.config())
        .run(smallTrace("pagerank"), Paradigm::finepack);
    ASSERT_TRUE(inst.metrics.captured());

    std::ostringstream os;
    inst.metrics.writeDocument(os, &inst.sampler);
    auto doc = parseJson(os.str());
    EXPECT_DOUBLE_EQ(doc.at("schema_version").number, 1.0);

    bool saw_egress_histogram = false, saw_uplink = false;
    for (const auto &group : doc.at("groups").array) {
        const std::string &name = group.at("name").string;
        if (name.find("egress") != std::string::npos &&
            group.at("histograms").has("store_size_bytes")) {
            const JsonValue &hist =
                group.at("histograms").at("store_size_bytes");
            saw_egress_histogram = hist.at("total").number > 0.0;
        }
        saw_uplink |= name.find("fabric.up") != std::string::npos;
    }
    EXPECT_TRUE(saw_egress_histogram);
    EXPECT_TRUE(saw_uplink);

    // Time series ride along in the same document.
    const JsonValue &timeseries = doc.at("timeseries");
    EXPECT_GT(timeseries.at("tracks").object.size(), 0u);
}

TEST(ObservabilityTest, StatsDigestLeavesOutProvenance)
{
    Instruments inst;
    SimulationDriver(inst.config())
        .run(smallTrace("pagerank"), Paradigm::finepack);
    ASSERT_TRUE(inst.metrics.captured());

    // The document names the build; the digest must not, or builds of
    // two commits with the same statistics would disagree.
    std::ostringstream doc;
    inst.metrics.writeDocument(doc, &inst.sampler);
    EXPECT_NE(doc.str().find(common::buildInfo().git_sha),
              std::string::npos);
    const std::string &groups = inst.metrics.groupsJson();
    EXPECT_EQ(groups.find("provenance"), std::string::npos);
    EXPECT_EQ(groups.find(common::buildInfo().git_sha), std::string::npos);

    check::Digest expected;
    expected.update(groups);
    EXPECT_EQ(inst.metrics.digest(), expected.value());

    // With the sampler, its time series follows the groups.
    std::ostringstream series;
    {
        common::JsonWriter json(series);
        inst.sampler.dumpJson(json);
    }
    expected.update(series.str());
    EXPECT_EQ(inst.metrics.digest(&inst.sampler), expected.value());
    EXPECT_NE(inst.metrics.digest(&inst.sampler), inst.metrics.digest());
}

TEST(ObservabilityTest, InstrumentedRunsAreDeterministic)
{
    const auto &trace = smallTrace("sssp");
    auto run = [&](Instruments &inst) {
        SimulationDriver(inst.config()).run(trace, Paradigm::finepack);
    };
    Instruments a, b;
    run(a);
    run(b);
    EXPECT_EQ(a.tracer.eventCount(), b.tracer.eventCount());
    ASSERT_EQ(a.sampler.series().size(), b.sampler.series().size());
    for (std::size_t i = 0; i < a.sampler.series().size(); ++i) {
        EXPECT_EQ(a.sampler.series()[i].ticks,
                  b.sampler.series()[i].ticks);
        EXPECT_EQ(a.sampler.series()[i].values,
                  b.sampler.series()[i].values);
    }
}

TEST(ObservabilityTest, InstrumentsAreReusableAcrossRuns)
{
    Instruments inst;
    SimulationDriver driver(inst.config());
    driver.run(smallTrace("jacobi"), Paradigm::finepack);
    auto first_events = inst.tracer.eventCount();
    // A second run reuses the same sampler; beginRun() must reset it.
    driver.run(smallTrace("jacobi"), Paradigm::finepack);
    EXPECT_GT(inst.tracer.eventCount(), first_events);
    for (const auto &series : inst.sampler.series()) {
        // Series from the second run only: ticks restart near zero.
        ASSERT_FALSE(series.ticks.empty());
        EXPECT_EQ(series.ticks.front(), 0u);
    }
}
