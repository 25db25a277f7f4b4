/**
 * @file
 * fptrace - workload trace generation, inspection, and replay CLI.
 *
 * Subcommands:
 *   generate <workload> <out.fpt> [--scale S] [--gpus N] [--seed X]
 *       Execute the workload and serialize its trace to a file.
 *       S must lie in [1e-6, 1000], N in [1, 1024] and X in
 *       [0, 2^64-1], each written as one whole number; anything else
 *       exits 2 with usage text.
 *   info <trace.fpt>
 *       Print structural statistics of a serialized trace.
 *   replay <trace.fpt> [--paradigm P] [--pcie GEN] [--check]
 *          [--stats-json FILE] [--trace-out FILE]
 *          [--trace-detail full|flush|off] [--sample-ns N]
 *          [--no-latency] [--fabric-report] [--json FILE]
 *          [--fabric-window-ns N]
 *       Simulate a serialized trace under one paradigm. With --check,
 *       the shadow-memory protocol oracle verifies every FinePack
 *       transaction byte-for-byte against the issued store stream.
 *       --stats-json exports every registered stat group plus sampled
 *       time series; --trace-out writes a Chrome trace-event /
 *       Perfetto-compatible event trace of the pipeline. Latency
 *       attribution (docs/latency.md) is on by default: its stage
 *       histograms land in the stats JSON, a one-line p50/p99 summary
 *       prints otherwise, and at --trace-detail full each message gets
 *       a flow-event chain; --no-latency disables the stamping.
 *       --fabric-report attaches the obs::FlowCollector
 *       (docs/fabric_observability.md) and prints per-link
 *       utilization, the per-flow accounting table, and the N x N
 *       contention-attribution matrix; it also adds per-link
 *       utilization / queue-depth counter tracks to --trace-out, a
 *       `fabric` section to --stats-json, and (with --json FILE) a
 *       machine-readable fabric report document.
 *   profile <trace.fpt> [--paradigm P] [--pcie GEN] [--reps N]
 *           [--top N] [--json FILE]
 *       Host-side self-profiling (docs/profiling.md): replay the trace
 *       N times with obs::Profiler attached and report where the
 *       *simulator's* wall-clock time goes - top-N event-label
 *       hotspots, events/sec throughput, and event-queue operation
 *       counters. --json writes the machine-readable profile document
 *       (provenance + host section).
 *   racecheck <trace.fpt> [--paradigm P] [--pcie GEN] [--seeds N]
 *             [--report FILE] [--waive GLOB] [--no-default-waivers]
 *       Determinism analysis (docs/determinism.md). Statically: replay
 *       under the same-tick race detector and report conflicting
 *       accesses between events at the same (tick, priority).
 *       Dynamically: re-run under N-1 shuffled tie-break seeds and
 *       diff the protocol-oracle digest, the stats JSON, and the run
 *       result against the insertion-order baseline. Exit 1 on any
 *       unwaived conflict or digest mismatch.
 *   list
 *       List the available workloads.
 *
 * Every numeric flag takes one whole number in the range usage() prints,
 * and a flag that takes a value cannot be the last word; anything else
 * exits 2 with usage text.
 */

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "check/digest.hh"
#include "check/invariant.hh"
#include "check/race_detector.hh"
#include "common/build_info.hh"
#include "common/interrupt.hh"
#include "common/json.hh"
#include "common/parse.hh"
#include "common/table.hh"
#include "obs/fatal.hh"
#include "obs/flight_recorder.hh"
#include "obs/flow.hh"
#include "obs/health.hh"
#include "obs/latency.hh"
#include "obs/metrics.hh"
#include "obs/profiler.hh"
#include "obs/sampler.hh"
#include "obs/trace_event.hh"
#include "sim/driver.hh"
#include "trace/trace.hh"
#include "workloads/workload.hh"

namespace {

using namespace fp;

int
usage()
{
    std::cerr
        << "usage:\n"
           "  fptrace generate <workload> <out.fpt> [--scale S]"
           " [--gpus N] [--seed X]\n"
           "                 (S in [1e-6, 1000], N in [1, 1024],"
           " X in [0, 2^64-1])\n"
           "  fptrace info <trace.fpt>\n"
           "  fptrace replay <trace.fpt> [--paradigm P] [--pcie 3|4|5|6]"
           " [--check]\n"
           "                 [--stats-json FILE] [--trace-out FILE]\n"
           "                 [--trace-detail full|flush|off]"
           " [--sample-ns N]\n"
           "                 [--no-latency] [--profile]\n"
           "                 [--fabric-report] [--json FILE]"
           " [--fabric-window-ns N]\n"
           "  fptrace profile <trace.fpt> [--paradigm P]"
           " [--pcie 3|4|5|6]\n"
           "                 [--reps N] [--top N] [--json FILE]\n"
           "  fptrace racecheck <trace.fpt> [--paradigm P]"
           " [--pcie 3|4|5|6]\n"
           "                 [--seeds N] [--report FILE] [--waive GLOB]\n"
           "                 [--no-default-waivers]\n"
           "  fptrace list\n"
           "  fptrace --version\n"
           "run health (replay / profile / racecheck; "
           "docs/run_health.md):\n"
           "  [--flight-recorder[=N]] [--heartbeat-ns N]"
           " [--heartbeat-out FILE]\n"
           "  [--stall-ns N] [--postmortem-out FILE] [--wedge-ms N]\n"
           "numeric flags take one whole number (ns and ms up to one"
           " day):\n"
           "  --sample-ns, --fabric-window-ns >= 1; --heartbeat-ns,"
           " --stall-ns,\n"
           "  --wedge-ms >= 0; --reps, --seeds in [1, 10^6];"
           " --top in [0, 10^6];\n"
           "  --flight-recorder=N in [1, 2^20]\n"
           "a flag given without its value exits 2\n"
           "exit codes: 0 ok, 1 fatal, 2 usage, 3 panic, 86 invariant,\n"
           "            130 interrupted (SIGINT), 143 terminated"
           " (SIGTERM)\n";
    return 2;
}

const char *
argValue(int argc, char **argv, const char *flag, const char *fallback)
{
    for (int i = 0; i + 1 < argc; ++i)
        if (std::strcmp(argv[i], flag) == 0)
            return argv[i + 1];
    return fallback;
}

/** Upper bound of the nanosecond flags: one day. */
constexpr std::uint64_t max_flag_ns = 86'400'000'000'000;
/** Upper bound of --wedge-ms: one day. */
constexpr std::uint32_t max_flag_ms = 86'400'000;
/** Upper bound of --reps, --seeds and --top. */
constexpr int max_flag_count = 1'000'000;
/** Upper bound of the --flight-recorder=N ring: 2^20 slots. */
constexpr std::size_t max_flight_ring = std::size_t{1} << 20;

/**
 * True when the last word is a flag that takes a value (and so has
 * none); prints why so the caller exits with usage().
 */
bool
missingValue(int argc, char **argv)
{
    static const char *const value_flags[] = {
        "--scale", "--gpus", "--seed", "--paradigm", "--pcie",
        "--stats-json", "--trace-out", "--trace-detail", "--sample-ns",
        "--json", "--fabric-window-ns", "--reps", "--top", "--seeds",
        "--report", "--waive", "--heartbeat-ns", "--heartbeat-out",
        "--stall-ns", "--postmortem-out", "--wedge-ms",
    };
    for (const char *flag : value_flags) {
        if (std::strcmp(argv[argc - 1], flag) == 0) {
            std::cerr << "fptrace: " << flag << " needs a value\n";
            return true;
        }
    }
    return false;
}

bool
hasFlag(int argc, char **argv, const char *flag)
{
    for (int i = 0; i < argc; ++i)
        if (std::strcmp(argv[i], flag) == 0)
            return true;
    return false;
}

/**
 * The numeric flag @p flag (default @p fallback), parsed by
 * common::parseNumber as one whole T in [lo, hi]. Anything else prints
 * why and returns false so the caller exits with usage().
 */
template <typename T>
bool
parseNumber(int argc, char **argv, const char *flag, const char *fallback,
            T lo, T hi, T &value)
{
    const char *text = argValue(argc, argv, flag, fallback);
    if (common::parseNumber(std::string_view(text), lo, hi, value))
        return true;
    std::cerr << "fptrace: " << flag << " must be a number in [" << lo
              << ", " << hi << "], not '" << text << "'\n";
    return false;
}

/**
 * Run-health wiring shared by replay / profile / racecheck
 * (docs/run_health.md): parse() reads --flight-recorder[=N],
 * --heartbeat-ns, --heartbeat-out, --stall-ns, --postmortem-out and
 * --wedge-ms; start() installs the fatal signal handlers plus the
 * logging failure hook (panic / FP_INVARIANT trip / oracle mismatch
 * all flush the same `kind:"postmortem"` document). The object owns
 * the flight recorder and stall watchdog for the duration of the
 * command.
 */
struct RunHealth
{
    std::unique_ptr<obs::FlightRecorder> recorder;
    std::unique_ptr<obs::HealthMonitor> monitor;
    std::size_t ring = 0;
    std::uint64_t heartbeat_ns = 0;
    const char *heartbeat_out = "";
    std::uint64_t stall_ns = 0;
    const char *postmortem_out = "";
    std::uint32_t wedge_ms = 0;

    /**
     * Read the run-health flags. A bad number prints why and returns
     * false so the caller exits with usage() before any work starts.
     */
    bool
    parse(int argc, char **argv)
    {
        for (int i = 0; i < argc; ++i) {
            if (std::strcmp(argv[i], "--flight-recorder") == 0) {
                ring = obs::FlightRecorder::default_capacity;
            } else if (std::strncmp(argv[i], "--flight-recorder=",
                                    18) == 0) {
                const char *text = argv[i] + 18;
                if (!common::parseNumber(std::string_view(text),
                                         std::size_t{1}, max_flight_ring,
                                         ring)) {
                    std::cerr << "fptrace: --flight-recorder=N needs N in"
                                 " [1, "
                              << max_flight_ring << "], not '" << text
                              << "'\n";
                    return false;
                }
            }
        }
        heartbeat_out = argValue(argc, argv, "--heartbeat-out", "");
        postmortem_out = argValue(argc, argv, "--postmortem-out", "");
        return parseNumber(argc, argv, "--heartbeat-ns", "0",
                           std::uint64_t{0}, max_flag_ns, heartbeat_ns) &&
               parseNumber(argc, argv, "--stall-ns", "0", std::uint64_t{0},
                           max_flag_ns, stall_ns) &&
               parseNumber(argc, argv, "--wedge-ms", "0", std::uint32_t{0},
                           max_flag_ms, wedge_ms);
    }

    /** Arm the handlers, the recorder and the watchdog parse() asked for. */
    void
    start()
    {
        // A fresh CLI invocation re-arms the cooperative flag (it
        // deliberately survives across the runs inside one command).
        common::interrupt::clear();

        // The watchdog needs a progress source, so asking for
        // heartbeats implies a (default-sized) recorder.
        bool want_monitor = heartbeat_ns > 0 ||
                            *heartbeat_out != '\0' || stall_ns > 0;
        if (ring != 0 || want_monitor)
            recorder = std::make_unique<obs::FlightRecorder>(
                ring != 0 ? ring
                          : obs::FlightRecorder::default_capacity);

        // Signal handlers and the failure hook are always armed: a
        // SIGINT'd replay flushes partial stats, and every panic or
        // invariant trip produces a postmortem, recorder or not.
        std::ostringstream provenance;
        {
            common::JsonWriter json(provenance);
            common::dumpBuildInfoJson(json);
        }
        std::string provenance_str = provenance.str();
        obs::fatal::Config fatal_config;
        fatal_config.recorder = recorder.get();
        fatal_config.postmortem_path =
            *postmortem_out != '\0' ? postmortem_out : nullptr;
        fatal_config.provenance_json = provenance_str.c_str();
        obs::fatal::install(fatal_config);
        common::setFailureHook(
            [](void *, const char *message) {
                obs::fatal::writePostmortem(message);
            },
            nullptr);

        if (recorder)
            recorder->installInvariantHooks();
        if (want_monitor) {
            obs::HealthMonitor::Options options;
            options.heartbeat_ns = heartbeat_ns; // 0 -> 1 s default
            options.stall_ns = stall_ns;
            options.heartbeat_path = heartbeat_out;
            monitor = std::make_unique<obs::HealthMonitor>(options);
            monitor->attachRecorder(recorder.get());
            monitor->start();
        }
    }

    ~RunHealth()
    {
        if (monitor)
            monitor->stop();
        common::setFailureHook(nullptr, nullptr);
    }

    /** Point one run's @p config at the recorder / wedge aid. */
    void
    configure(sim::SimConfig &config) const
    {
        config.recorder = recorder.get();
        config.wedge_host_ms = wedge_ms;
    }
};

/**
 * The --pcie flag (default 4). Accepts exactly 3, 4, 5 or 6; anything
 * else prints why and returns false so the caller exits with usage().
 */
bool
parsePcie(int argc, char **argv, icn::PcieGen &gen)
{
    static const std::pair<const char *, icn::PcieGen> gens[] = {
        {"3", icn::PcieGen::gen3},
        {"4", icn::PcieGen::gen4},
        {"5", icn::PcieGen::gen5},
        {"6", icn::PcieGen::gen6},
    };
    const std::string value = argValue(argc, argv, "--pcie", "4");
    for (const auto &[name, parsed] : gens) {
        if (value == name) {
            gen = parsed;
            return true;
        }
    }
    std::cerr << "fptrace: --pcie must be 3, 4, 5 or 6, not '" << value
              << "'\n";
    return false;
}

sim::Paradigm
parseParadigm(const std::string &name)
{
    if (name == "p2p-stores")
        return sim::Paradigm::p2p_stores;
    if (name == "bulk-dma")
        return sim::Paradigm::bulk_dma;
    if (name == "finepack")
        return sim::Paradigm::finepack;
    if (name == "write-combine")
        return sim::Paradigm::write_combine;
    if (name == "gps")
        return sim::Paradigm::gps;
    if (name == "infinite-bw")
        return sim::Paradigm::infinite_bw;
    if (name == "single-gpu")
        return sim::Paradigm::single_gpu;
    fp_fatal("unknown paradigm: ", name);
}

int
cmdGenerate(int argc, char **argv)
{
    workloads::WorkloadParams params;
    if (argc < 4 ||
        !parseNumber(argc, argv, "--scale", "1.0", 1e-6, 1e3,
                     params.scale) ||
        !parseNumber(argc, argv, "--gpus", "4", std::uint32_t{1},
                     std::uint32_t{1024}, params.num_gpus) ||
        !parseNumber(argc, argv, "--seed", "42", std::uint64_t{0},
                     std::numeric_limits<std::uint64_t>::max(),
                     params.seed))
        return usage();

    auto workload = workloads::createWorkload(argv[2]);
    std::cout << "generating " << argv[2] << " (scale=" << params.scale
              << ", gpus=" << params.num_gpus << ")...\n";
    trace::WorkloadTrace trace = workload->generateTrace(params);

    std::ofstream out(argv[3], std::ios::binary);
    if (!out) {
        std::cerr << "cannot open " << argv[3] << " for writing\n";
        return 1;
    }
    trace::writeTrace(trace, out);
    std::cout << "wrote " << trace.totalRemoteStores()
              << " remote stores across " << trace.numIterations()
              << " iterations to " << argv[3] << "\n";
    return 0;
}

trace::WorkloadTrace
loadTrace(const char *path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fp_fatal("cannot open trace file: ", path);
    return trace::readTrace(in);
}

int
cmdInfo(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    trace::WorkloadTrace trace = loadTrace(argv[2]);
    trace::UpdateSummary updates = trace::summarizeTrace(trace);

    std::cout << "workload:      " << trace.workload << "\n"
              << "comm pattern:  " << trace.comm_pattern << "\n"
              << "gpus:          " << trace.num_gpus << "\n"
              << "iterations:    " << trace.numIterations() << "\n"
              << "remote stores: " << trace.totalRemoteStores() << "\n"
              << "store bytes:   " << trace.totalRemoteStoreBytes()
              << "\n"
              << "unique bytes:  " << updates.unique_bytes << "\n"
              << "useful bytes:  " << updates.useful_bytes << "\n";

    common::Table table("per-iteration profile");
    table.setHeader({"iter", "stores", "store KiB", "dma KiB",
                     "flops (M)"});
    for (std::uint32_t i = 0; i < trace.numIterations(); ++i) {
        const auto &iter = trace.iterations[i];
        std::uint64_t stores = 0, bytes = 0, dma = 0;
        double flops = 0.0;
        for (const auto &gpu : iter.per_gpu) {
            stores += gpu.remote_stores.size();
            for (const auto &store : gpu.remote_stores)
                bytes += store.size;
            for (const auto &copy : gpu.dma_copies)
                dma += copy.range.size;
            flops += gpu.flops;
        }
        table.addRow({std::to_string(i), std::to_string(stores),
                      std::to_string(bytes / 1024),
                      std::to_string(dma / 1024),
                      common::Table::num(flops / 1e6, 1)});
    }
    table.print(std::cout);
    return 0;
}

/** Ticks (ps) rendered as microseconds with one decimal. */
std::string
usStr(Tick ticks)
{
    return common::Table::num(
        static_cast<double>(ticks) / static_cast<double>(ticks_per_us),
        1);
}

/**
 * The human-readable --fabric-report: a one-line summary, the top-k
 * hot links, the per-flow accounting table, and the fabric-wide
 * contention-attribution matrix (full data: --json / --stats-json).
 */
void
printFabricReport(const obs::FlowCollector &flows)
{
    const auto &links = flows.links();
    std::cout << "fabric:     " << links.size() << " links, "
              << flows.activeFlows() << " active flows, busy "
              << usStr(flows.totalBusyTicks()) << " us, queue wait "
              << usStr(flows.totalWaitTicks()) << " us, packing "
              << common::Table::num(flows.packingEfficiency() * 100.0, 1)
              << "% of wire bytes\n";

    common::Table hot("hottest links (lifetime utilization)");
    hot.setHeader(
        {"link", "util %", "msgs", "wire KiB", "busy us", "wait us"});
    for (std::uint32_t i : flows.hottestLinks(8)) {
        const auto &link = links[i];
        hot.addRow({link.name,
                    common::Table::num(
                        flows.linkUtilization(link) * 100.0, 1),
                    std::to_string(link.msgs),
                    std::to_string(link.wire_bytes / KiB),
                    usStr(link.busy_ticks), usStr(link.wait_ticks)});
    }
    hot.print(std::cout);

    struct FlowRow
    {
        GpuId src = 0;
        GpuId dst = 0;
        const obs::FlowCollector::FlowStats *flow = nullptr;
    };
    std::vector<FlowRow> rows;
    for (GpuId src = 0; src < flows.numGpus(); ++src)
        for (GpuId dst = 0; dst < flows.numGpus(); ++dst)
            if (src != dst && flows.flow(src, dst).active())
                rows.push_back({src, dst, &flows.flow(src, dst)});
    std::sort(rows.begin(), rows.end(),
              [](const FlowRow &a, const FlowRow &b) {
                  if (a.flow->injected_wire_bytes !=
                      b.flow->injected_wire_bytes)
                      return a.flow->injected_wire_bytes >
                             b.flow->injected_wire_bytes;
                  if (a.src != b.src)
                      return a.src < b.src;
                  return a.dst < b.dst;
              });
    constexpr std::size_t max_flow_rows = 16;
    bool truncated = rows.size() > max_flow_rows;
    if (truncated)
        rows.resize(max_flow_rows);

    common::Table per_flow(
        truncated ? "per-flow accounting (top 16 by wire bytes; "
                    "--json for all)"
                  : "per-flow accounting");
    per_flow.setHeader({"flow", "msgs", "wire KiB", "packing %",
                        "up wait us", "down wait us", "caused us",
                        "suffered us"});
    for (const FlowRow &row : rows) {
        const auto &flow = *row.flow;
        per_flow.addRow(
            {obs::FlowCollector::flowName(row.src, row.dst),
             std::to_string(flow.injected_msgs),
             std::to_string(flow.injected_wire_bytes / KiB),
             common::Table::num(
                 flow.injected_wire_bytes
                     ? 100.0 *
                           static_cast<double>(flow.injected_data_bytes) /
                           static_cast<double>(flow.injected_wire_bytes)
                     : 0.0,
                 1),
             usStr(flow.uplink_wait_ticks),
             usStr(flow.downlink_wait_ticks),
             usStr(flow.delay_caused_ticks),
             usStr(flow.delay_suffered_ticks)});
    }
    per_flow.print(std::cout);

    common::Table matrix(
        "contention attribution (us; row delayed column's traffic)");
    std::vector<std::string> header = {"delayer"};
    for (GpuId on = 0; on < flows.numGpus(); ++on)
        header.push_back("g" + std::to_string(on));
    matrix.setHeader(header);
    for (GpuId by = 0; by < flows.numGpus(); ++by) {
        std::vector<std::string> cells = {"g" + std::to_string(by)};
        for (GpuId on = 0; on < flows.numGpus(); ++on)
            cells.push_back(usStr(flows.interferenceTicks(by, on)));
        matrix.addRow(cells);
    }
    matrix.print(std::cout);
}

/** The machine-readable fabric report document (--fabric-report --json). */
void
writeFabricJson(const char *path, const char *trace_path,
                const trace::WorkloadTrace &trace,
                sim::Paradigm paradigm, icn::PcieGen pcie,
                const obs::FlowCollector &flows)
{
    std::ofstream out(path);
    if (!out)
        fp_fatal("cannot open ", path, " for writing");
    common::JsonWriter json(out);
    json.beginObject();
    json.kv("schema_version", 1);
    json.kv("kind", "fabric");
    json.key("provenance");
    common::dumpBuildInfoJson(json);
    json.kv("trace", trace_path);
    json.kv("workload", trace.workload);
    json.kv("paradigm", toString(paradigm));
    json.kv("pcie", toString(pcie));
    json.kv("gpus", trace.num_gpus);
    json.key("fabric");
    flows.dumpJson(json);
    json.endObject();
    out << "\n";
}

int
cmdReplay(int argc, char **argv)
{
    sim::SimConfig config;
    Tick sample_ns = 0;
    Tick fabric_window_ns = 0;
    RunHealth health;
    if (argc < 3 || !parsePcie(argc, argv, config.pcie_gen) ||
        !parseNumber(argc, argv, "--sample-ns", "1000", Tick{1},
                     max_flag_ns, sample_ns) ||
        !parseNumber(argc, argv, "--fabric-window-ns", "1000", Tick{1},
                     max_flag_ns, fabric_window_ns) ||
        !health.parse(argc, argv))
        return usage();
    trace::WorkloadTrace trace = loadTrace(argv[2]);

    sim::Paradigm paradigm =
        parseParadigm(argValue(argc, argv, "--paradigm", "finepack"));
    config.check = hasFlag(argc, argv, "--check");

    // ---- Observability wiring ----------------------------------------
    const char *stats_path = argValue(argc, argv, "--stats-json", "");
    const char *trace_path = argValue(argc, argv, "--trace-out", "");
    std::string detail_name =
        argValue(argc, argv, "--trace-detail", "flush");
    obs::TraceDetail detail = detail_name == "full" ? obs::TraceDetail::full
                              : detail_name == "off"
                                  ? obs::TraceDetail::off
                                  : obs::TraceDetail::flush;
    const char *fabric_json = argValue(argc, argv, "--json", "");

    obs::TraceSink tracer(detail);
    obs::PeriodicSampler sampler(sample_ns * ticks_per_ns);
    obs::MetricsCapture metrics;
    obs::LatencyCollector latency;
    obs::Profiler profiler;
    obs::FlowCollector flows(fabric_window_ns * ticks_per_ns);
    if (*trace_path != '\0' && detail != obs::TraceDetail::off)
        config.tracer = &tracer;
    if (*stats_path != '\0') {
        config.sampler = &sampler;
        config.metrics = &metrics;
    }
    // Latency attribution is on by default (its stats groups land in
    // the stats JSON); --no-latency restores the zero-stamp fast path.
    bool want_latency = !hasFlag(argc, argv, "--no-latency");
    if (want_latency)
        config.latency = &latency;
    bool want_profile = hasFlag(argc, argv, "--profile");
    if (want_profile)
        config.profiler = &profiler;
    bool fabric_report = hasFlag(argc, argv, "--fabric-report");
    if (fabric_report)
        config.flows = &flows;

    health.start();
    health.configure(config);

    sim::SimulationDriver driver(config);
    sim::RunResult baseline =
        driver.run(trace, sim::Paradigm::single_gpu);
    sim::RunResult result = driver.run(trace, paradigm);
    // SIGINT lands here as a cleanly interrupted run: everything below
    // still executes so the operator gets partial stats (marked
    // `"partial": true`), and the exit code says the run was cut short.
    bool partial = baseline.interrupted || result.interrupted;

    if (*stats_path != '\0') {
        std::ofstream out(stats_path);
        if (!out)
            fp_fatal("cannot open ", stats_path, " for writing");
        metrics.writeDocument(out, &sampler,
                              want_profile ? &profiler : nullptr,
                              fabric_report ? &flows : nullptr,
                              partial);
        std::cout << "stats json: " << stats_path
                  << (partial ? " (partial)" : "") << "\n";
    }
    if (config.tracer) {
        std::ofstream out(trace_path);
        if (!out)
            fp_fatal("cannot open ", trace_path, " for writing");
        // The host timeline renders alongside the simulated one as a
        // second clock domain (docs/profiling.md).
        if (want_profile)
            profiler.emitTrace(tracer);
        // Per-link utilization / queue-depth counter tracks.
        if (fabric_report)
            flows.emitTrace(tracer);
        tracer.write(out);
        std::cout << "trace:      " << trace_path << " ("
                  << tracer.eventCount() << " events, detail "
                  << toString(detail) << ")\n";
    }

    std::cout << "paradigm:   " << toString(paradigm) << " on "
              << toString(config.pcie_gen) << "\n"
              << "time:       "
              << common::Table::num(result.totalSeconds() * 1e6, 1)
              << " us  (1 GPU: "
              << common::Table::num(baseline.totalSeconds() * 1e6, 1)
              << " us, speedup "
              << common::Table::num(
                     static_cast<double>(baseline.total_time) /
                         static_cast<double>(result.total_time),
                     2)
              << "x)\n"
              << "wire bytes: " << result.wire_bytes << " (useful "
              << result.useful_bytes << ", protocol "
              << result.protocol_bytes << ", wasted "
              << result.wasted_bytes << ")\n";
    if (result.avg_stores_per_packet > 0.0)
        std::cout << "packing:    "
                  << common::Table::num(result.avg_stores_per_packet, 1)
                  << " stores/packet over " << result.finepack_packets
                  << " packets\n";
    if (want_latency && *stats_path == '\0' && latency.messages() > 0) {
        // Per-stage p50/p99 in ns; full breakdowns need --stats-json.
        auto ns = [](const common::Histogram &h, double p) {
            return common::Table::num(
                h.percentile(p) / static_cast<double>(ticks_per_ns), 1);
        };
        auto stage = [&](const common::Histogram &h) {
            return ns(h, 0.50) + "/" + ns(h, 0.99);
        };
        std::cout << "latency:    p50/p99 ns - residency "
                  << stage(latency.residency()) << ", serialize "
                  << stage(latency.serialization()) << ", propagate "
                  << stage(latency.propagation()) << ", ingress "
                  << stage(latency.ingressWait()) << ", total "
                  << stage(latency.total()) << " (" << latency.messages()
                  << " msgs)\n";
    }
    if (config.check && paradigm == sim::Paradigm::finepack)
        std::cout << "oracle:     verified " << result.oracle_transactions
                  << " transactions / " << result.oracle_bytes
                  << " bytes (" << result.oracle_value_bytes
                  << " value-compared) across " << result.oracle_stores
                  << " buffered stores\n";
    if (want_profile)
        std::cout << "host:       " << profiler.events() << " events in "
                  << common::Table::num(
                         static_cast<double>(profiler.wallNs()) / 1e6, 2)
                  << " ms ("
                  << common::Table::num(profiler.eventsPerSec() / 1e6, 2)
                  << " M events/s); details via `fptrace profile` or "
                     "--stats-json\n";
    if (fabric_report) {
        printFabricReport(flows);
        if (*fabric_json != '\0') {
            writeFabricJson(fabric_json, argv[2], trace, paradigm,
                            config.pcie_gen, flows);
            std::cout << "fabric json: " << fabric_json << "\n";
        }
    }
    if (partial) {
        std::cout << "interrupted: results above are partial\n";
        return common::exit_code::interrupted;
    }
    return 0;
}

/**
 * Print the hotspot table plus throughput/counter summary; shared by
 * the human-readable half of cmdProfile.
 */
void
printProfileReport(const obs::Profiler &profiler, std::size_t top_n)
{
    std::cout << "build:      " << common::buildInfoLine() << "\n"
              << "host time:  "
              << common::Table::num(
                     static_cast<double>(profiler.wallNs()) / 1e6, 2)
              << " ms wall, " << profiler.events() << " events, "
              << common::Table::num(profiler.eventsPerSec() / 1e6, 3)
              << " M events/s\n"
              << "queue:      " << profiler.queuePushes() << " pushes, "
              << profiler.queuePops() << " pops, "
              << profiler.queueStaleDrops() << " stale drops, peak depth "
              << profiler.queuePeakDepth() << "\n";

    common::Table table("top host-time consumers (self time)");
    table.setHeader({"label", "count", "self ms", "self %", "total ms",
                     "max us"});
    double wall = static_cast<double>(profiler.wallNs());
    for (const auto &spot : profiler.hotspots(top_n)) {
        table.addRow(
            {spot.label, std::to_string(spot.count),
             common::Table::num(static_cast<double>(spot.self_ns) / 1e6,
                                3),
             common::Table::num(
                 wall > 0.0
                     ? 100.0 * static_cast<double>(spot.self_ns) / wall
                     : 0.0,
                 1),
             common::Table::num(static_cast<double>(spot.total_ns) / 1e6,
                                3),
             common::Table::num(static_cast<double>(spot.max_ns) / 1e3,
                                1)});
    }
    table.print(std::cout);
}

int
cmdProfile(int argc, char **argv)
{
    sim::SimConfig config;
    int reps = 0;
    std::size_t top_n = 0;
    RunHealth health;
    if (argc < 3 || !parsePcie(argc, argv, config.pcie_gen) ||
        !parseNumber(argc, argv, "--reps", "3", 1, max_flag_count, reps) ||
        !parseNumber(argc, argv, "--top", "10", std::size_t{0},
                     std::size_t{max_flag_count}, top_n) ||
        !health.parse(argc, argv))
        return usage();
    trace::WorkloadTrace trace = loadTrace(argv[2]);

    sim::Paradigm paradigm =
        parseParadigm(argValue(argc, argv, "--paradigm", "finepack"));
    const char *json_path = argValue(argc, argv, "--json", "");

    health.start();
    health.configure(config);

    obs::Profiler profiler;
    config.profiler = &profiler;
    sim::SimulationDriver driver(config);
    bool partial = false;
    for (int r = 0; r < reps && !partial; ++r)
        partial = driver.run(trace, paradigm).interrupted;

    std::cout << "profile:    " << trace.workload << " under "
              << toString(paradigm) << " on "
              << toString(config.pcie_gen) << ", " << trace.num_gpus
              << " GPUs, " << reps << " rep(s)\n";
    printProfileReport(profiler, top_n);

    if (*json_path != '\0') {
        std::ofstream out(json_path);
        if (!out)
            fp_fatal("cannot open ", json_path, " for writing");
        common::JsonWriter json(out);
        json.beginObject();
        json.kv("schema_version", 1);
        json.kv("kind", "profile");
        json.key("provenance");
        common::dumpBuildInfoJson(json);
        json.kv("trace", argv[2]);
        json.kv("workload", trace.workload);
        json.kv("paradigm", toString(paradigm));
        json.kv("pcie", toString(config.pcie_gen));
        json.kv("gpus", trace.num_gpus);
        json.kv("reps", reps);
        json.key("host");
        profiler.dumpJson(json, top_n);
        json.endObject();
        out << "\n";
        std::cout << "json:       " << json_path << "\n";
    }
    if (partial) {
        std::cout << "interrupted: profile above is partial\n";
        return common::exit_code::interrupted;
    }
    return 0;
}

/** One racecheck run's comparable outcome. */
struct SeedOutcome
{
    std::uint64_t seed = 0; ///< 0 = insertion-order baseline
    std::uint64_t oracle_digest = 0;
    std::uint64_t stats_digest = 0;
    std::uint64_t result_digest = 0;
    Tick total_time = 0;
    bool interrupted = false; ///< SIGINT cut this run short

    bool
    matches(const SeedOutcome &other) const
    {
        return oracle_digest == other.oracle_digest &&
               stats_digest == other.stats_digest &&
               result_digest == other.result_digest;
    }
};

/**
 * Replay @p trace once under one tie-break seed, with @p detector (may
 * be null) observing the event queue, and fingerprint everything the
 * run produced: the oracle digest, the full stats JSON document
 * (StatGroups + sampled time series), and the RunResult fields.
 */
SeedOutcome
racecheckRun(const trace::WorkloadTrace &trace, sim::Paradigm paradigm,
             icn::PcieGen pcie, std::uint64_t seed,
             check::RaceDetector *detector, const RunHealth &health)
{
    sim::SimConfig config;
    config.pcie_gen = pcie;
    config.check = paradigm == sim::Paradigm::finepack;
    config.tie_break_shuffle_seed = seed;
    config.queue_observer = detector;
    health.configure(config);

    obs::PeriodicSampler sampler(1000 * ticks_per_ns);
    obs::MetricsCapture metrics;
    config.sampler = &sampler;
    config.metrics = &metrics;

    sim::SimulationDriver driver(config);
    sim::RunResult result = driver.run(trace, paradigm);
    if (detector)
        detector->finish();

    SeedOutcome outcome;
    outcome.seed = seed;
    outcome.total_time = result.total_time;
    outcome.oracle_digest = result.oracle_digest;
    outcome.interrupted = result.interrupted;

    check::Digest stats;
    std::ostringstream doc;
    metrics.writeDocument(doc, &sampler);
    stats.update(doc.str());
    outcome.stats_digest = stats.value();

    check::Digest summary;
    summary.updateU64(result.total_time);
    summary.updateU64(result.wire_bytes);
    summary.updateU64(result.payload_bytes);
    summary.updateU64(result.header_bytes);
    summary.updateU64(result.data_bytes);
    summary.updateU64(result.messages);
    summary.updateU64(result.useful_bytes);
    summary.updateU64(result.protocol_bytes);
    summary.updateU64(result.wasted_bytes);
    summary.updateU64(result.finepack_packets);
    summary.updateU64(result.oracle_transactions);
    summary.updateU64(result.oracle_stores);
    summary.updateU64(result.oracle_bytes);
    outcome.result_digest = summary.value();
    return outcome;
}

int
cmdRacecheck(int argc, char **argv)
{
    icn::PcieGen pcie = icn::PcieGen::gen4;
    int seeds = 0;
    RunHealth health;
    if (argc < 3 || !parsePcie(argc, argv, pcie) ||
        !parseNumber(argc, argv, "--seeds", "4", 1, max_flag_count,
                     seeds) ||
        !health.parse(argc, argv))
        return usage();
    trace::WorkloadTrace trace = loadTrace(argv[2]);

    sim::Paradigm paradigm =
        parseParadigm(argValue(argc, argv, "--paradigm", "finepack"));
    const char *report_path = argValue(argc, argv, "--report", "");

    health.start();

    check::RaceDetector detector;
    if (!hasFlag(argc, argv, "--no-default-waivers")) {
        // The switch's downlink FIFO arbitrates same-tick arrivals from
        // independent uplinks. The winner only shifts serialization
        // order within one tick; every aggregate outcome is
        // order-insensitive, which the perturbation pass verifies
        // dynamically on every racecheck run.
        detector.waive("fabric.down*");
    }
    for (int i = 2; i + 1 < argc; ++i)
        if (std::strcmp(argv[i], "--waive") == 0)
            detector.waive(argv[i + 1]);

    // Every run (baseline and shuffled) executes under the detector, so
    // a conflict only reachable in a permuted order is still caught.
    std::vector<SeedOutcome> outcomes;
    bool interrupted = false;
    for (int s = 0; s < seeds && !interrupted; ++s) {
        outcomes.push_back(racecheckRun(
            trace, paradigm, pcie, static_cast<std::uint64_t>(s),
            &detector, health));
        interrupted = outcomes.back().interrupted;
    }

    bool schedule_independent = true;
    for (const SeedOutcome &outcome : outcomes)
        if (!outcome.matches(outcomes.front()))
            schedule_independent = false;

    const auto &conflicts = detector.conflicts();
    bool clean = conflicts.empty() && detector.droppedConflicts() == 0;

    std::cout << "racecheck:  " << trace.workload << " under "
              << toString(paradigm) << ", " << seeds << " seed(s)\n"
              << "events:     " << detector.eventsObserved()
              << " observed, " << detector.accessesRecorded()
              << " accesses, " << detector.contendedBatches()
              << " contended same-(tick, priority) groups\n"
              << "conflicts:  " << conflicts.size() << " unwaived ("
              << detector.waivedConflicts() << " waived, "
              << detector.droppedConflicts() << " dropped)\n";
    for (const auto &conflict : conflicts) {
        std::cout << "  [" << conflict.kind() << "] tick "
                  << conflict.tick << " prio " << conflict.priority
                  << " on " << conflict.label << ": '"
                  << conflict.first_event << "' (seq "
                  << conflict.first_sequence << ") vs '"
                  << conflict.second_event << "' (seq "
                  << conflict.second_sequence << ")\n";
    }
    std::cout << "perturb:    ";
    if (seeds < 2) {
        std::cout << "skipped (need --seeds >= 2)\n";
    } else if (schedule_independent) {
        std::cout << "all " << seeds
                  << " seeds bit-identical (oracle digest "
                  << outcomes.front().oracle_digest << ", stats digest "
                  << outcomes.front().stats_digest << ")\n";
    } else {
        std::cout << "DIGEST MISMATCH - outcomes depend on same-tick "
                     "scheduling order:\n";
        for (const SeedOutcome &outcome : outcomes) {
            std::cout << "  seed " << outcome.seed << ": oracle "
                      << outcome.oracle_digest << ", stats "
                      << outcome.stats_digest << ", result "
                      << outcome.result_digest << ", time "
                      << outcome.total_time << "\n";
        }
    }

    if (*report_path != '\0') {
        std::ofstream out(report_path);
        if (!out)
            fp_fatal("cannot open ", report_path, " for writing");
        // The detector serializes itself as one JSON object; compose
        // the surrounding report by hand around it.
        out << "{\n\"trace\": "
            << common::JsonWriter::quoted(argv[2]) << ",\n\"workload\": "
            << common::JsonWriter::quoted(trace.workload)
            << ",\n\"paradigm\": "
            << common::JsonWriter::quoted(toString(paradigm))
            << ",\n\"seeds\": [";
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            const SeedOutcome &outcome = outcomes[i];
            out << (i ? "," : "") << "\n  {\"seed\": " << outcome.seed
                << ", \"oracle_digest\": " << outcome.oracle_digest
                << ", \"stats_digest\": " << outcome.stats_digest
                << ", \"result_digest\": " << outcome.result_digest
                << ", \"total_time\": " << outcome.total_time << "}";
        }
        out << "\n],\n\"schedule_independent\": "
            << (schedule_independent ? "true" : "false")
            << ",\n\"detector\": ";
        detector.writeReport(out);
        out << "\n}\n";
        std::cout << "report:     " << report_path << "\n";
    }

    if (interrupted) {
        std::cout << "racecheck: INTERRUPTED (partial)\n";
        return common::exit_code::interrupted;
    }
    if (!clean || !schedule_independent) {
        std::cout << "racecheck: FAIL\n";
        return 1;
    }
    std::cout << "racecheck: OK\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2 || missingValue(argc, argv))
        return usage();
    std::string command = argv[1];
    // Failures unwind here so the exit code is diagnostic
    // (docs/run_health.md): 86 = invariant violation (the postmortem
    // was already flushed by the failure hook), 3 = panic, 1 = fatal.
    try {
        if (command == "generate")
            return cmdGenerate(argc, argv);
        if (command == "info")
            return cmdInfo(argc, argv);
        if (command == "replay")
            return cmdReplay(argc, argv);
        if (command == "profile")
            return cmdProfile(argc, argv);
        if (command == "racecheck")
            return cmdRacecheck(argc, argv);
    } catch (const fp::check::InvariantViolation &err) {
        std::cerr << err.what() << "\n";
        return fp::common::exit_code::invariant;
    } catch (const fp::common::SimError &err) {
        std::cerr << err.what() << "\n";
        return err.kind() == fp::common::SimError::Kind::Fatal
                   ? fp::common::exit_code::fatal
                   : fp::common::exit_code::panic;
    }
    if (command == "--version" || command == "version") {
        std::cout << "fptrace " << fp::common::buildInfoLine() << "\n";
        return 0;
    }
    if (command == "list") {
        for (const auto &name : fp::workloads::allWorkloadNames())
            std::cout << name << "\n";
        return 0;
    }
    return usage();
}
