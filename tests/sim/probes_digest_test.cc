/**
 * @file
 * Every probe at once must still be a pure observer. A checked
 * finepack run with the whole obs::Probes bundle attached -- tracer at
 * full detail, latency and flow collectors, flight recorder -- plus a
 * check::RaceDetector on the event queue must produce the same
 * RunResult, oracle digest and stats document as the checked run with
 * no probe. It is also the run that puts the protocol
 * oracle and the tracer on the same RWQ and packetizer observer lists,
 * so both must see every packet.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "check/race_detector.hh"
#include "obs/flight_recorder.hh"
#include "obs/flow.hh"
#include "obs/latency.hh"
#include "obs/metrics.hh"
#include "obs/sampler.hh"
#include "obs/trace_event.hh"
#include "sim/driver.hh"
#include "sim/trace_cache.hh"
#include "workloads/workload.hh"

using namespace fp;
using namespace fp::sim;

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

/**
 * Every collector the driver hands to components as obs::Probes, plus
 * the one queue observer that turns on the components' access
 * declarations.
 */
struct AllProbes
{
    obs::TraceSink tracer{obs::TraceDetail::full};
    obs::LatencyCollector latency;
    obs::FlowCollector flows;
    obs::FlightRecorder recorder;
    check::RaceDetector race;
};

/** One checked run; @p probes null runs with none attached. */
struct CheckedRun
{
    obs::PeriodicSampler sampler{10 * ticks_per_us};
    obs::MetricsCapture metrics;
    RunResult result;

    CheckedRun(const trace::WorkloadTrace &trace, AllProbes *probes)
    {
        SimConfig config;
        config.check = true;
        config.sampler = &sampler;
        config.metrics = &metrics;
        if (probes) {
            config.tracer = &probes->tracer;
            config.latency = &probes->latency;
            config.flows = &probes->flows;
            config.recorder = &probes->recorder;
            config.queue_observer = &probes->race;
        }
        result = SimulationDriver(config).run(trace, Paradigm::finepack);
    }

    /**
     * The stats document without a fabric section and without the
     * latency collector's own stat groups, which exist only while a
     * collector rides the run.
     */
    std::string
    document()
    {
        std::ostringstream os;
        metrics.writeDocument(os, &sampler);
        std::string doc = os.str();
        const std::string open = "{\"name\":\"latency";
        for (auto at = doc.find(open); at != std::string::npos;
             at = doc.find(open, at)) {
            std::size_t end = at;
            int depth = 0;
            bool in_string = false;
            do {
                char c = doc[end++];
                if (in_string && c == '\\')
                    ++end;
                else if (c == '"')
                    in_string = !in_string;
                else if (!in_string && c == '{')
                    ++depth;
                else if (!in_string && c == '}')
                    --depth;
            } while (depth > 0);
            if (doc[end] == ',')
                ++end; // not the last group
            else if (doc[at - 1] == ',')
                --at; // the last group
            doc.erase(at, end - at);
        }
        return doc;
    }
};

/**
 * Trace events named @p name in category @p cat. A substring count:
 * a full-detail trace has far too many events to parse as a tree.
 */
std::size_t
countEvents(const obs::TraceSink &tracer, const std::string &cat,
            const std::string &name)
{
    std::ostringstream os;
    tracer.write(os);
    const std::string text = os.str();
    const std::string key =
        "\"name\":\"" + name + "\",\"cat\":\"" + cat + "\"";
    std::size_t count = 0;
    for (auto at = text.find(key); at != std::string::npos;
         at = text.find(key, at + key.size()))
        ++count;
    return count;
}

} // namespace

TEST(ProbesDigest, FullyProbedCheckedRunIsBitIdenticalToPlainRun)
{
    const auto &trace = smallTrace("pagerank");
    CheckedRun plain(trace, nullptr);
    AllProbes probes;
    CheckedRun probed(trace, &probes);

    // The oracle verified real work in both runs ...
    ASSERT_GT(plain.result.oracle_transactions, 0u);
    ASSERT_NE(plain.result.oracle_digest, 0u);
    // ... and every probe reported from the run it rode on.
    EXPECT_GT(probes.latency.messages(), 0u);
    EXPECT_GT(probes.flows.activeFlows(), 0u);
    EXPECT_GT(probes.recorder.kindCount(obs::FlightKind::rwq_flush), 0u);
    EXPECT_GT(probes.recorder.kindCount(obs::FlightKind::fabric_inject),
              0u);
    probes.race.finish();
    EXPECT_EQ(probes.race.eventsObserved(), plain.result.events_processed);
    EXPECT_GT(probes.race.accessesRecorded(), 0u);
    // The oracle and the tracer share the packetizer's observer list:
    // each saw every packet.
    EXPECT_EQ(probed.result.oracle_transactions,
              probed.result.finepack_packets);
    EXPECT_EQ(countEvents(probes.tracer, "packetizer", "packet"),
              probed.result.finepack_packets);
    EXPECT_GT(countEvents(probes.tracer, "rwq", "enqueue"), 0u);

    const RunResult &a = probed.result;
    const RunResult &b = plain.result;
    EXPECT_EQ(a.oracle_digest, b.oracle_digest);
    EXPECT_EQ(a.oracle_transactions, b.oracle_transactions);
    EXPECT_EQ(a.oracle_stores, b.oracle_stores);
    EXPECT_EQ(a.oracle_bytes, b.oracle_bytes);
    EXPECT_EQ(a.total_time, b.total_time);
    EXPECT_EQ(a.wire_bytes, b.wire_bytes);
    EXPECT_EQ(a.payload_bytes, b.payload_bytes);
    EXPECT_EQ(a.header_bytes, b.header_bytes);
    EXPECT_EQ(a.data_bytes, b.data_bytes);
    EXPECT_EQ(a.messages, b.messages);
    EXPECT_EQ(a.useful_bytes, b.useful_bytes);
    EXPECT_EQ(a.protocol_bytes, b.protocol_bytes);
    EXPECT_EQ(a.wasted_bytes, b.wasted_bytes);
    EXPECT_EQ(a.finepack_packets, b.finepack_packets);
    EXPECT_EQ(a.events_processed, b.events_processed);
    EXPECT_EQ(a.interrupted, b.interrupted);
    EXPECT_EQ(probed.document(), plain.document());
}
