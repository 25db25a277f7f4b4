/**
 * @file
 * Shared support for the figure/table reproduction harnesses: workload
 * set, trace access, geometric means, and uniform output formatting.
 *
 * Every bench binary regenerates one table or figure of the paper's
 * evaluation; absolute values depend on this simulator, but the
 * qualitative shape (who wins, by what factor, where crossovers fall)
 * is the reproduction target recorded in EXPERIMENTS.md.
 */

#ifndef FP_BENCH_BENCH_COMMON_HH
#define FP_BENCH_BENCH_COMMON_HH

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/parse.hh"
#include "common/table.hh"
#include "obs/flow.hh"
#include "sim/driver.hh"
#include "sim/sweep.hh"
#include "sim/trace_cache.hh"
#include "workloads/workload.hh"

namespace fp::bench {

/** The eight evaluation applications, in the paper's order. */
inline const std::vector<std::string> &
apps()
{
    return workloads::allWorkloadNames();
}

/**
 * Problem-size multiplier: FINEPACK_BENCH_SCALE, a number in
 * [1e-6, 1000], overrides @p fallback. Every trace-driven bench calls
 * this first, so it also checks FINEPACK_BENCH_JOBS and
 * FINEPACK_BENCH_HEARTBEAT_NS: a bad value of any of the three exits 1
 * with a message naming the variable and its range, before any
 * simulation starts.
 */
inline double
benchScale(double fallback = 1.0)
{
    try {
        sim::SweepRunner::defaultJobs();
        sim::HealthHeartbeatGuard::intervalNs();
        return common::envNumber("FINEPACK_BENCH_SCALE", fallback, 1e-6,
                                 1e3);
    } catch (const common::SimError &error) {
        std::cerr << error.what() << '\n';
        std::exit(1);
    }
}

inline workloads::WorkloadParams
benchParams(double scale, std::uint32_t num_gpus = 4)
{
    workloads::WorkloadParams params;
    params.num_gpus = num_gpus;
    params.scale = scale;
    params.seed = 42;
    return params;
}

inline const trace::WorkloadTrace &
benchTrace(const std::string &app, double scale,
           std::uint32_t num_gpus = 4)
{
    return sim::TraceCache::instance().get(app,
                                           benchParams(scale, num_gpus));
}

inline double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values) {
        // A geometric mean is only defined over positive values; a
        // zero or negative sample would otherwise poison the whole
        // result with -inf / NaN.
        if (v <= 0.0)
            return 0.0;
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

inline double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

/**
 * Machine-readable bench output: when the binary was invoked with
 * `--json FILE`, every metric added through add() is written to FILE as
 * one flat JSON document
 *
 *     {"bench": ..., "schema_version": 1, "scale": ...,
 *      "metrics": {name: value, ...}}
 *
 * alongside the human-readable tables on stdout. Without the flag the
 * reporter is inert. Metric names are sorted in the output, so two
 * runs of the same bench are diffable.
 *
 * Every enabled reporter also emits simulator-throughput metrics under
 * the reserved `host.` prefix (host.wall_ns, host.events,
 * host.events_per_sec), measured from construction to write() via
 * sim::totalHostEventsProcessed(). They track ROADMAP item 1's "make
 * the simulator fast" progress over time but are machine-dependent, so
 * fp_bench_compare.py excludes them from regression checks by default
 * (--include-host opts in) and the CI serial-vs-parallel comparison
 * strips them.
 */
class JsonReporter
{
  public:
    JsonReporter(const std::string &bench, int argc, char **argv,
                 double scale)
        : _bench(bench), _scale(scale),
          // Wall-clock is fine here: bench binaries are not simulation
          // code (fp_lint covers src/ only) and host.* metrics are
          // machine-dependent by design.
          _start(std::chrono::steady_clock::now()),
          _events_base(sim::totalHostEventsProcessed())
    {
        for (int i = 0; i + 1 < argc; ++i)
            if (std::strcmp(argv[i], "--json") == 0)
                _path = argv[i + 1];
    }

    bool enabled() const { return !_path.empty(); }

    /** Record one metric; later add()s with the same name overwrite. */
    void add(const std::string &name, double value)
    { _metrics[name] = value; }

    /** Write the document; no-op (returning true) when disabled. */
    bool
    write() const
    {
        if (!enabled())
            return true;
        std::ofstream out(_path);
        if (!out) {
            std::cerr << "cannot open " << _path << " for writing\n";
            return false;
        }
        auto wall_ns = static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - _start)
                .count());
        auto events = static_cast<double>(
            sim::totalHostEventsProcessed() - _events_base);
        std::map<std::string, double> metrics = _metrics;
        metrics["host.wall_ns"] = wall_ns;
        metrics["host.events"] = events;
        metrics["host.events_per_sec"] =
            wall_ns > 0.0 ? events / (wall_ns / 1e9) : 0.0;
        common::JsonWriter json(out);
        json.beginObject();
        json.kv("bench", _bench);
        json.key("schema_version");
        json.value(1);
        json.kv("scale", _scale);
        json.key("metrics");
        json.beginObject();
        for (const auto &[name, value] : metrics)
            json.kv(name, value);
        json.endObject();
        json.endObject();
        out << "\n";
        std::cout << "json: " << _path << "\n";
        return true;
    }

  private:
    std::string _bench;
    std::string _path;
    double _scale;
    std::chrono::steady_clock::time_point _start;
    std::uint64_t _events_base;
    std::map<std::string, double> _metrics;
};

/**
 * Record the fabric flow-observability summary for one (app, config,
 * paradigm) point under `fabric.<app>.*`: hottest-link utilization,
 * fabric-wide busy/wait ticks, cross-GPU attributed delay (the
 * off-diagonal of the contention matrix), packing efficiency, and the
 * active-flow count. Runs one dedicated, serial instrumented
 * simulation - FlowCollector hooks must not be shared across parallel
 * sweep lanes - so it is skipped entirely when the reporter is
 * disabled. Schema: docs/fabric_observability.md.
 */
inline void
addFabricMetrics(JsonReporter &reporter, const std::string &app,
                 double scale, std::uint32_t gpus,
                 const sim::SimConfig &base_config,
                 sim::Paradigm paradigm = sim::Paradigm::finepack)
{
    if (!reporter.enabled())
        return;
    obs::FlowCollector flows;
    sim::SimConfig config = base_config;
    config.flows = &flows;
    sim::SimulationDriver driver(config);
    driver.run(benchTrace(app, scale, gpus), paradigm);

    double hot_util = 0.0;
    auto hottest = flows.hottestLinks(1);
    if (!hottest.empty())
        hot_util = flows.linkUtilization(flows.links()[hottest[0]]);
    Tick cross_delay = 0;
    for (GpuId by = 0; by < flows.numGpus(); ++by)
        for (GpuId on = 0; on < flows.numGpus(); ++on)
            if (by != on)
                cross_delay += flows.interferenceTicks(by, on);

    const std::string prefix = "fabric." + app + ".";
    reporter.add(prefix + "hot_link_utilization", hot_util);
    reporter.add(prefix + "total_busy_ticks",
                 static_cast<double>(flows.totalBusyTicks()));
    reporter.add(prefix + "total_wait_ticks",
                 static_cast<double>(flows.totalWaitTicks()));
    reporter.add(prefix + "cross_gpu_delay_ticks",
                 static_cast<double>(cross_delay));
    reporter.add(prefix + "packing_efficiency",
                 flows.packingEfficiency());
    reporter.add(prefix + "active_flows",
                 static_cast<double>(flows.activeFlows()));
}

/** One app's speedups over the 1-GPU baseline for a set of paradigms. */
inline std::map<sim::Paradigm, double>
speedups(sim::SimulationDriver &driver, const trace::WorkloadTrace &trace,
         const std::vector<sim::Paradigm> &paradigms)
{
    std::map<sim::Paradigm, double> result;
    Tick single =
        driver.run(trace, sim::Paradigm::single_gpu).total_time;
    for (sim::Paradigm paradigm : paradigms) {
        Tick t = driver.run(trace, paradigm).total_time;
        result[paradigm] = static_cast<double>(single) /
                           static_cast<double>(t);
    }
    return result;
}

/**
 * Sweep lane count: FINEPACK_BENCH_JOBS (exported by the
 * record_baselines.sh -j flag) overrides; the default of 1 keeps
 * plain bench invocations serial, which is also the reference order
 * the parallel path must reproduce byte-for-byte.
 */
inline unsigned
benchJobs()
{
    return sim::SweepRunner::defaultJobs();
}

/**
 * Run a batch of independent simulations on the shared bench sweep
 * runner (one pool per process, sized by benchJobs()); result i
 * corresponds to jobs[i] no matter how the batch was scheduled.
 */
inline std::vector<sim::RunResult>
runSweep(const std::vector<sim::SweepJob> &jobs)
{
    // fp-lint: allow(global-state) internally synchronized: ThreadPool
    // guards its queue with an fp::Mutex; construction is C++ magic-
    // static thread safe.
    static sim::SweepRunner runner(benchJobs());
    // Opt-in run-health heartbeat for long figure sweeps: with
    // FINEPACK_BENCH_HEARTBEAT_NS=N set, a watchdog thread reports
    // sweep progress (jobs done/total, ETA) every N nanoseconds as
    // line-delimited JSON on stderr (docs/run_health.md). Gated on an
    // environment variable so bench output and digests are untouched
    // by default.
    // fp-lint: allow(global-state) internally synchronized: the monitor
    // only reads the runner's progress atomics; magic-static init.
    static sim::HealthHeartbeatGuard heartbeat(runner);
    return runner.run(jobs);
}

/**
 * Per-app speedups over the 1-GPU baseline for a set of paradigms,
 * computed as one sweep batch: jobs are laid out app-major as
 * [single_gpu, paradigms...] and aggregated by index, so the numbers
 * are identical to calling speedups() per app in order.
 */
inline std::map<std::string, std::map<sim::Paradigm, double>>
sweepSpeedups(double scale, const std::vector<sim::Paradigm> &paradigms,
              const sim::SimConfig &config = sim::SimConfig(),
              std::uint32_t num_gpus = 4)
{
    std::vector<sim::SweepJob> jobs;
    for (const std::string &app : apps()) {
        sim::SweepJob job;
        job.workload = app;
        job.params = benchParams(scale, num_gpus);
        job.config = config;
        job.paradigm = sim::Paradigm::single_gpu;
        jobs.push_back(job);
        for (sim::Paradigm paradigm : paradigms) {
            job.paradigm = paradigm;
            jobs.push_back(job);
        }
    }
    std::vector<sim::RunResult> results = runSweep(jobs);

    std::map<std::string, std::map<sim::Paradigm, double>> out;
    std::size_t i = 0;
    for (const std::string &app : apps()) {
        Tick single = results[i++].total_time;
        for (sim::Paradigm paradigm : paradigms) {
            Tick t = results[i++].total_time;
            out[app][paradigm] = static_cast<double>(single) /
                                 static_cast<double>(t);
        }
    }
    return out;
}

} // namespace fp::bench

#endif // FP_BENCH_BENCH_COMMON_HH
