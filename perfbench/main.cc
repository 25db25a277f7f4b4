/**
 * @file
 * perfbench: the simulator's benchmark (README.md in this directory).
 *
 * For each named workload it generates traces from the command-line
 * seed, writes each with trace::writeTrace and reads it back with
 * trace::readTrace, then replays the read-back traces through
 * sim::SimulationDriver::run in a closed loop (one client, one run at a
 * time) and checks every run's simulated statistics. With --trace 0 it
 * reports the end-to-end metrics; with --trace 1 it alternates untraced
 * driver passes with a traced layered replay (layers.hh) and reports
 * the per-layer metrics. The last line of standard output is one JSON
 * object: {"correct", "attempted", "failed", "metrics"}.
 */

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "alloc_count.hh"
#include "check/digest.hh"
#include "common/build_info.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "finepack/remote_write_queue.hh"
#include "layers.hh"
#include "sim/driver.hh"
#include "spans.hh"
#include "workloads/workload.hh"

namespace fp::perfbench {
namespace {

constexpr int exit_fatal = common::exit_code::fatal;
constexpr int exit_usage = common::exit_code::usage;

// ---- Workloads --------------------------------------------------------

struct TraceSpec
{
    std::string app;
    std::uint32_t gpus;
    double scale;
};

/** One (trace, paradigm) run of a workload. */
struct RunSpec
{
    std::size_t trace;
    sim::Paradigm paradigm;
    /** FinePack sub-header bytes; 0 keeps the Table III default. */
    std::uint32_t subheader_bytes;
    /** SimConfig::check (the protocol oracle). */
    bool check;
    /**
     * The oracle-free twin of a checked run: replayed only by the
     * traced pass, to price the oracle and to pair with the layered
     * replay. It does not count toward stores_per_s.
     */
    bool reference;
    std::string key;
};

struct WorkloadSpec
{
    std::string name;
    icn::PcieGen pcie;
    std::vector<TraceSpec> traces;
    std::vector<RunSpec> runs;
};

const std::vector<WorkloadSpec> &
workloadSpecs()
{
    static const std::vector<WorkloadSpec> specs = [] {
        using sim::Paradigm;
        std::vector<WorkloadSpec> out;

        out.push_back({"finepack-pr16",
                       icn::PcieGen::gen6,
                       {{"pagerank", 16, 0.1}},
                       {{0, Paradigm::finepack, 0, false, false,
                         "pagerank16.finepack"}}});

        WorkloadSpec baselines{"baselines-8app", icn::PcieGen::gen4, {}, {}};
        for (const std::string &app : workloads::allWorkloadNames()) {
            std::size_t index = baselines.traces.size();
            baselines.traces.push_back({app, 4, 0.1});
            baselines.runs.push_back({index, Paradigm::p2p_stores, 0, false,
                                      false, app + ".p2p-stores"});
            baselines.runs.push_back({index, Paradigm::bulk_dma, 0, false,
                                      false, app + ".bulk-dma"});
        }
        out.push_back(baselines);

        out.push_back({"finepack-smallwin",
                       icn::PcieGen::gen4,
                       {{"hit", 4, 0.25}, {"pagerank", 4, 0.1}},
                       {{0, Paradigm::finepack, 2, false, false,
                         "hit.finepack-sub2"},
                        {1, Paradigm::finepack, 3, false, false,
                         "pagerank.finepack-sub3"}}});

        out.push_back({"finepack-checked",
                       icn::PcieGen::gen4,
                       {{"pagerank", 4, 0.1}},
                       {{0, Paradigm::finepack, 0, true, false,
                         "pagerank.finepack-checked"},
                        {0, Paradigm::finepack, 0, false, true,
                         "pagerank.finepack-unchecked"}}});
        return out;
    }();
    return specs;
}

const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const WorkloadSpec &spec : workloadSpecs())
        if (spec.name == name)
            return &spec;
    return nullptr;
}

sim::SimConfig
configFor(const WorkloadSpec &workload, const RunSpec &run)
{
    sim::SimConfig config;
    config.pcie_gen = workload.pcie;
    if (run.subheader_bytes != 0)
        config.finepack = finepack::configWithSubheader(run.subheader_bytes);
    config.check = run.check;
    return config;
}

// ---- Command line -----------------------------------------------------

/** Shortest round-trip decimal form of @p v. */
std::string
number(double v)
{
    char buf[64];
    auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
    return ec == std::errc() ? std::string(buf, ptr) : "0";
}

struct Options
{
    std::vector<const WorkloadSpec *> workloads;
    std::uint64_t seed = 1;
    std::uint64_t seconds = 10;
    bool trace = false;
    /** Overrides every trace's problem scale when positive. */
    double scale = 0.0;
    std::string out_dir = ".bench_build/perfbench-out";
    std::string record_digests;
    bool corrupt_digests = false;
};

[[noreturn]] void
usage(const std::string &error)
{
    std::cerr << "perfbench: " << error << "\n"
              << "usage: perfbench --workload NAME[,NAME...] [--seed N]\n"
                 "                 [--seconds 1..3600] [--trace 0|1]"
                 " [--scale 0.001..4]\n"
                 "                 [--out DIR] [--record-digests FILE]"
                 " [--corrupt-digests]\n"
                 "workloads:";
    for (const WorkloadSpec &spec : workloadSpecs())
        std::cerr << " " << spec.name;
    std::cerr << " all\n";
    std::exit(exit_usage);
}

/** Parse a whole token as a number in [lo, hi]. */
double
parseDouble(const std::string &flag, const std::string &token, double lo,
            double hi)
{
    double value = 0.0;
    const char *begin = token.data();
    const char *end = begin + token.size();
    auto [ptr, ec] = std::from_chars(begin, end, value);
    if (token.empty() || ec != std::errc() || ptr != end)
        usage(flag + " wants a number, got '" + token + "'");
    if (!(value >= lo && value <= hi))
        usage(flag + " must be in [" + number(lo) + ", " + number(hi) +
              "], got " + token);
    return value;
}

/** Parse a whole token as an unsigned integer in [lo, hi]. */
std::uint64_t
parseUint(const std::string &flag, const std::string &token,
          std::uint64_t lo, std::uint64_t hi)
{
    std::uint64_t value = 0;
    const char *begin = token.data();
    const char *end = begin + token.size();
    auto [ptr, ec] = std::from_chars(begin, end, value);
    if (token.empty() || ec != std::errc() || ptr != end)
        usage(flag + " wants a whole number, got '" + token + "'");
    if (value < lo || value > hi)
        usage(flag + " must be in [" + std::to_string(lo) + ", " +
              std::to_string(hi) + "], got " + token);
    return value;
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--corrupt-digests") {
            opt.corrupt_digests = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value after " + flag);
        std::string value = argv[++i];
        if (flag == "--workload") {
            have_workload = true;
            std::stringstream list(value);
            std::string name;
            while (std::getline(list, name, ',')) {
                if (name == "all") {
                    for (const WorkloadSpec &spec : workloadSpecs())
                        opt.workloads.push_back(&spec);
                } else if (const WorkloadSpec *spec = findWorkload(name)) {
                    opt.workloads.push_back(spec);
                } else {
                    usage("unknown workload '" + name + "'");
                }
            }
            if (opt.workloads.empty())
                usage("--workload names no workload");
        } else if (flag == "--seed") {
            opt.seed = parseUint(flag, value, 0, UINT64_MAX);
        } else if (flag == "--seconds") {
            opt.seconds = parseUint(flag, value, 1, 3600);
        } else if (flag == "--trace") {
            opt.trace = parseUint(flag, value, 0, 1) == 1;
        } else if (flag == "--scale") {
            opt.scale = parseDouble(flag, value, 0.001, 4.0);
        } else if (flag == "--out") {
            opt.out_dir = value;
        } else if (flag == "--record-digests") {
            opt.record_digests = value;
        } else {
            usage("unknown flag '" + flag + "'");
        }
    }
    if (!have_workload)
        usage("--workload is required");
    return opt;
}

/** Why this binary must not be timed, or "" when it may be. */
std::string
refusalReason(const common::BuildInfo &build)
{
    std::string type = build.build_type;
    if (type.empty() || type == "Debug")
        return "build type '" + type +
               "' is unoptimised; configure with "
               "-DCMAKE_BUILD_TYPE=Release";
    if (std::strcmp(build.sanitizer, "none") != 0)
        return std::string("the build is instrumented with sanitizer=") +
               build.sanitizer;
    if (build.fp_check)
        return "FP_CHECK invariants are compiled in";
    return "";
}

// ---- Correctness gate -------------------------------------------------

/** Expected run digests of the recorded seeds: "workload key" -> digest. */
using DigestTable = std::map<std::string, std::uint64_t>;

/**
 * The recorded digests of @p opt's seed. Empty, so only the invariants
 * are checked, when the seed is not recorded, when --scale changes the
 * traces the digests describe, or when --record-digests is writing new
 * ones.
 */
DigestTable
loadDigests(const Options &opt)
{
    DigestTable table;
    if (opt.scale > 0.0 || !opt.record_digests.empty())
        return table;
    std::ifstream in(PERFBENCH_DIGESTS);
    if (!in) {
        std::cerr << "perfbench: cannot read digests file "
                  << PERFBENCH_DIGESTS << "\n";
        std::exit(exit_fatal);
    }
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string seed, workload, key, hex;
        std::uint64_t digest = 0;
        bool parsed = static_cast<bool>(fields >> seed >> workload >> key >>
                                        hex);
        if (parsed) {
            auto [ptr, ec] = std::from_chars(hex.data(),
                                             hex.data() + hex.size(), digest,
                                             16);
            parsed = ec == std::errc() && ptr == hex.data() + hex.size();
        }
        if (!parsed) {
            std::cerr << "perfbench: malformed digests line: " << line
                      << "\n";
            std::exit(exit_fatal);
        }
        if (seed != std::to_string(opt.seed))
            continue;
        if (opt.corrupt_digests)
            digest ^= 1;
        table[workload + " " + key] = digest;
    }
    return table;
}

/** Digest of a run's simulated statistics. */
std::uint64_t
runDigest(const sim::RunResult &r)
{
    check::Digest d;
    for (std::uint64_t v :
         {static_cast<std::uint64_t>(r.total_time), r.wire_bytes,
          r.payload_bytes, r.header_bytes, r.data_bytes, r.useful_bytes,
          r.messages, r.finepack_packets, r.oracle_digest})
        d.updateU64(v);
    return d.value();
}

/** Check one driver run; returns "" when it passes. */
std::string
checkRun(const sim::RunResult &r, const RunSpec &run, std::uint64_t stores,
         std::uint64_t store_bytes, const std::string &workload,
         const DigestTable &expected)
{
    if (r.interrupted)
        return "run was interrupted";
    if (r.total_time == 0)
        return "zero simulated time";
    // Raw P2P carries every store byte once; FinePack may only drop
    // bytes that a later store in the same window overwrote.
    if (run.paradigm == sim::Paradigm::p2p_stores &&
        r.data_bytes != store_bytes)
        return "data bytes != the trace's store bytes";
    if (run.paradigm == sim::Paradigm::finepack &&
        (r.data_bytes > store_bytes || (stores > 0 && r.data_bytes == 0)))
        return "data bytes out of range of the trace's store bytes";
    // Holds only when the transferred data covers the useful bytes.
    if (r.useful_bytes + r.protocol_bytes + r.wasted_bytes != r.wire_bytes)
        return "useful + protocol + wasted bytes != wire bytes";
    if (stores > 0 && run.paradigm != sim::Paradigm::bulk_dma &&
        r.messages == 0)
        return "stores but no messages";
    if (run.paradigm == sim::Paradigm::finepack &&
        (r.finepack_packets > r.messages ||
         (stores > 0 && r.finepack_packets == 0)))
        return "finepack packet count out of range";
    if (run.check && (r.oracle_transactions != r.finepack_packets ||
                      r.oracle_digest == 0))
        return "the oracle did not verify every packet";
    if (!expected.empty()) {
        auto it = expected.find(workload + " " + run.key);
        if (it == expected.end())
            return "no recorded digest for this seed";
        if (it->second != runDigest(r))
            return "digest mismatch against the recorded seed";
    }
    return "";
}

/** The layered replay must simulate exactly what the driver did. */
std::string
compareLayered(const LayeredStats &l, const sim::RunResult &r)
{
    if (l.total_time != r.total_time || l.payload_bytes != r.payload_bytes ||
        l.header_bytes != r.header_bytes || l.data_bytes != r.data_bytes ||
        l.messages != r.messages || l.useful_bytes != r.useful_bytes ||
        l.finepack_packets != r.finepack_packets)
        return "layered replay disagrees with SimulationDriver::run";
    return "";
}

// ---- Measurement ------------------------------------------------------

/** Timed passes per untraced invocation, one per slot of the budget. */
constexpr std::int64_t pass_samples = 20;

/** Timed set-ups per untraced invocation, one every other slot. */
constexpr std::int64_t setup_samples = 10;

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    std::size_t n = values.size();
    return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** Reset VmHWM to the current RSS, so a workload's peak is its own. */
bool
resetPeakRss()
{
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5" << std::flush;
    return static_cast<bool>(clear);
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    return 0.0;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Everything one workload's measurement accumulates. */
class Bench
{
  public:
    Bench(const WorkloadSpec &spec, const Options &opt)
        : _spec(spec), _opt(opt), _expected(loadDigests(opt)),
          _tracer(opt.trace ? 50000 : 0)
    {}

    std::vector<Metric> run();

    std::uint64_t attempted() const { return _attempted; }
    std::uint64_t failed() const { return _failed; }
    const Tracer &tracer() const { return _tracer; }
    const std::map<std::string, sim::RunResult> &results() const
    { return _results; }

  private:
    struct PassTotals
    {
        double seconds = 0.0;
        std::uint64_t stores = 0;
        std::uint64_t allocs = 0;
        /** Runs without the oracle (what the layered replay mirrors). */
        double plain_seconds = 0.0;
        std::uint64_t plain_stores = 0;
        /** Checked runs and their oracle-free twins. */
        double checked_seconds = 0.0;
        double reference_seconds = 0.0;
        std::uint64_t checked_stores = 0;
    };

    std::vector<double> setUp(bool traced);
    void countAllocations(const PassTotals &pass);
    PassTotals driverPass(bool traced);
    PassTotals layeredPass();
    void fail(const std::string &what, const std::string &why);

    std::vector<Metric> endToEnd();
    std::vector<Metric> perLayer();

    const WorkloadSpec &_spec;
    const Options &_opt;
    DigestTable _expected;
    Tracer _tracer;

    std::vector<trace::WorkloadTrace> _traces;
    std::vector<std::uint64_t> _stores;      // per trace
    std::vector<std::uint64_t> _store_bytes; // per trace
    std::uint64_t _setup_stores = 0;
    std::map<std::string, sim::RunResult> _results;
    std::map<std::string, std::vector<double>> _run_ms;
    LayeredStats _fp_layers;  // finepack layered replays
    LayeredStats _raw_layers; // p2p-stores layered replays
    LayeredStats _all_layers;
    std::uint32_t _run_id = 0;
    std::uint64_t _attempted = 0;
    std::uint64_t _failed = 0;

    // End-to-end results (untraced runs).
    double _setup_s = 0.0;
    double _stores_per_s = 0.0;
    double _peak_rss_mb = 0.0;
    std::vector<double> _allocs_per_store; // one per timed pass
    // Traced-run samples, one per pass pair.
    std::vector<double> _untraced_rate;
    std::vector<double> _traced_rate;
    double _oracle_ns = 0.0;
    std::uint64_t _oracle_stores = 0;
};

void
Bench::countAllocations(const PassTotals &pass)
{
    _allocs_per_store.push_back(ratio(static_cast<double>(pass.allocs),
                                      static_cast<double>(pass.stores)));
}

void
Bench::fail(const std::string &what, const std::string &why)
{
    ++_failed;
    std::cerr << "perfbench: " << _spec.name << " " << what
              << " failed: " << why << "\n";
}

/**
 * Generate, serialise and reload every trace of the workload; returns
 * the seconds each trace took. Traced set-ups record one span per layer
 * call and check the round trip byte for byte.
 */
std::vector<double>
Bench::setUp(bool traced)
{
    Tracer *tracer = traced ? &_tracer : nullptr;
    std::uint16_t gen = _tracer.intern("workloads.generate");
    std::uint16_t write = _tracer.intern("trace.write");
    std::uint16_t read = _tracer.intern("trace.read");

    _traces.clear();
    _stores.clear();
    _store_bytes.clear();
    _setup_stores = 0;
    std::vector<double> seconds;
    for (const TraceSpec &ts : _spec.traces) {
        std::int64_t start = nowNs();
        workloads::WorkloadParams params;
        params.num_gpus = ts.gpus;
        params.scale = _opt.scale > 0.0 ? _opt.scale : ts.scale;
        params.seed = _opt.seed;
        trace::WorkloadTrace generated;
        {
            Span span(tracer, gen);
            generated = workloads::createWorkload(ts.app)->generateTrace(
                params);
        }
        std::stringstream bytes(std::ios::in | std::ios::out |
                                std::ios::binary);
        {
            Span span(tracer, write);
            trace::writeTrace(generated, bytes);
        }
        {
            Span span(tracer, read);
            _traces.push_back(trace::readTrace(bytes));
        }
        seconds.push_back(static_cast<double>(nowNs() - start) / 1e9);
        _stores.push_back(_traces.back().totalRemoteStores());
        _store_bytes.push_back(_traces.back().totalRemoteStoreBytes());
        _setup_stores += _stores.back();
        if (traced) {
            ++_attempted;
            std::ostringstream again(std::ios::binary);
            trace::writeTrace(_traces.back(), again);
            if (again.str() != bytes.str() ||
                _stores.back() != generated.totalRemoteStores())
                fail(ts.app + " trace", "write/read round trip differs");
        }
    }
    return seconds;
}

Bench::PassTotals
Bench::driverPass(bool traced)
{
    std::uint16_t sim_run = _tracer.intern("sim.run");
    PassTotals pass;
    for (const RunSpec &run : _spec.runs) {
        if (run.reference && !traced)
            continue;
        const sim::SimConfig config = configFor(_spec, run);
        sim::SimulationDriver driver(config);
        const trace::WorkloadTrace &trace = _traces[run.trace];
        const std::uint64_t stores = _stores[run.trace];
        ++_attempted;
        _tracer.setRun(++_run_id);

        sim::RunResult result;
        std::string error;
        std::int64_t t0 = nowNs();
        std::uint64_t a0 = allocationCount();
        try {
            Span span(traced ? &_tracer : nullptr, sim_run);
            result = driver.run(trace, run.paradigm);
        } catch (const common::SimError &e) {
            error = e.what();
        }
        std::uint64_t a1 = allocationCount();
        std::int64_t t1 = nowNs();
        double seconds = static_cast<double>(t1 - t0) / 1e9;

        if (error.empty())
            error = checkRun(result, run, stores, _store_bytes[run.trace],
                             _spec.name, _expected);
        if (!error.empty())
            fail(run.key, error);
        _results[run.key] = result;
        _run_ms[run.key].push_back(seconds * 1e3);

        if (!run.reference) {
            pass.stores += stores;
            pass.allocs += a1 - a0;
        }
        if (run.check) {
            pass.checked_seconds += seconds;
            pass.checked_stores += stores;
        } else {
            pass.plain_seconds += seconds;
            pass.plain_stores += stores;
            if (run.reference)
                pass.reference_seconds += seconds;
        }
    }
    return pass;
}

/** Layered replay of every oracle-free run (tracing on). */
Bench::PassTotals
Bench::layeredPass()
{
    PassTotals pass;
    for (const RunSpec &run : _spec.runs) {
        if (run.check)
            continue; // its oracle-free twin stands in for it
        ++_attempted;
        _tracer.setRun(++_run_id);
        const trace::WorkloadTrace &trace = _traces[run.trace];
        std::int64_t t0 = nowNs();
        try {
            LayeredStats stats = replayLayered(
                trace, run.paradigm, configFor(_spec, run), _tracer);
            std::int64_t t1 = nowNs();
            pass.seconds += static_cast<double>(t1 - t0) / 1e9;
            pass.stores += stats.stores;
            std::string error = compareLayered(stats, _results.at(run.key));
            if (!error.empty())
                fail(run.key + " (layered)", error);
            _all_layers += stats;
            if (run.paradigm == sim::Paradigm::finepack)
                _fp_layers += stats;
            else if (run.paradigm == sim::Paradigm::p2p_stores)
                _raw_layers += stats;
        } catch (const common::SimError &e) {
            fail(run.key + " (layered)", e.what());
        }
    }
    return pass;
}

std::vector<Metric>
Bench::run()
{
    const std::int64_t budget_ns =
        static_cast<std::int64_t>(_opt.seconds) * 1000000000;

    if (!_opt.trace) {
        setUp(false);      // untimed: the first touch of fresh memory
        driverPass(false); // warm-up, checked like every pass
        // Read the high-water mark at this fixed point: heap
        // fragmentation makes it creep with the number of timed passes,
        // which depends on host speed.
        _peak_rss_mb = peakRssMb();

        // Other work on the host only ever adds time, and its slow
        // phases last seconds. So the budget is cut into pass_samples
        // equal slots; each slot starts with one timed pass (every other
        // slot with one timed set-up before it), and the rest of the
        // slot replays untimed, counted for allocations only. While the
        // work of a slot outlasts it, the run outlasts the budget.
        // setup_s sums each trace's fastest set-up; stores_per_s times
        // each (trace, paradigm) run at its fastest sampled pass. Every
        // minimum is over the same number of samples, spread over the
        // whole budget, on every commit: a faster program gets more
        // filler passes, not more samples.
        std::vector<double> setup(_spec.traces.size(), 1e300);
        std::map<std::string, double> run_ms;
        const std::int64_t start = nowNs();
        for (std::int64_t slot = 0; slot < pass_samples; ++slot) {
            while ((nowNs() - start) * pass_samples < slot * budget_ns)
                countAllocations(driverPass(false));
            if (slot % (pass_samples / setup_samples) == 0) {
                std::vector<double> seconds = setUp(false);
                for (std::size_t t = 0; t < seconds.size(); ++t)
                    setup[t] = std::min(setup[t], seconds[t]);
            }
            _run_ms.clear();
            countAllocations(driverPass(false));
            for (const auto &[key, ms] : _run_ms) {
                double &best = run_ms.try_emplace(key, 1e300).first->second;
                best = std::min(best, ms.back());
            }
        }
        for (double seconds : setup)
            _setup_s += seconds;
        double seconds = 0.0;
        std::uint64_t stores = 0;
        for (const RunSpec &run : _spec.runs) {
            if (run.reference)
                continue;
            seconds += run_ms.at(run.key) / 1e3;
            stores += _stores[run.trace];
        }
        _stores_per_s = ratio(static_cast<double>(stores), seconds);
        return endToEnd();
    }

    setUp(true);
    std::int64_t start = nowNs();
    do {
        PassTotals plain = driverPass(true);
        PassTotals traced = layeredPass();
        _untraced_rate.push_back(ratio(
            static_cast<double>(plain.plain_stores), plain.plain_seconds));
        _traced_rate.push_back(
            ratio(static_cast<double>(traced.stores), traced.seconds));
        _oracle_ns += (plain.checked_seconds - plain.reference_seconds) * 1e9;
        _oracle_stores += plain.checked_stores;
    } while (nowNs() - start < budget_ns);
    return perLayer();
}

std::vector<Metric>
Bench::endToEnd()
{
    return {
        {"stores_per_s", _stores_per_s, "1/s"},
        {"setup_s", _setup_s, "s"},
        {"allocs_per_store", median(_allocs_per_store), "count"},
        {"peak_rss_mb", _peak_rss_mb, "MB"},
    };
}

std::vector<Metric>
Bench::perLayer()
{
    auto ns = [this](const char *name) {
        return static_cast<double>(_tracer.totals(name).total_ns);
    };
    auto count = [this](const char *name) {
        return static_cast<double>(_tracer.totals(name).count);
    };
    const double setup_stores = static_cast<double>(_setup_stores);
    const double fp_stores = static_cast<double>(_fp_layers.stores);
    const double all_stores = static_cast<double>(_all_layers.stores);
    const SpanTotals packetize = _tracer.totals("finepack.packetize");
    double flushes = 0.0;
    for (std::uint64_t f : _fp_layers.flushes)
        flushes += static_cast<double>(f);
    auto per_kstore = [&](std::uint64_t n, double stores) {
        return ratio(static_cast<double>(n) * 1e3, stores);
    };
    auto flush = [&](finepack::FlushReason reason) {
        return per_kstore(
            _fp_layers.flushes[static_cast<std::size_t>(reason)], fp_stores);
    };

    std::vector<Metric> m = {
        {"workloads.generate_ns_per_store",
         ratio(ns("workloads.generate"), setup_stores), "ns"},
        {"trace.write_ns_per_store", ratio(ns("trace.write"), setup_stores),
         "ns"},
        {"trace.read_ns_per_store", ratio(ns("trace.read"), setup_stores),
         "ns"},
        {"trace.read_allocs_per_store",
         ratio(static_cast<double>(_tracer.totals("trace.read").allocs),
               setup_stores),
         "count"},
        {"trace.useful_bytes_ms",
         ratio(ns("trace.useful_bytes"), count("trace.useful_bytes")) / 1e6,
         "ms"},
        {"finepack.rwq_push_ns_per_store",
         ratio(ns("finepack.rwq_push"), fp_stores), "ns"},
        {"finepack.rwq_allocs_per_store",
         ratio(static_cast<double>(_tracer.totals("finepack.rwq_push").allocs),
               fp_stores),
         "count"},
        {"finepack.rwq_hit_ratio",
         ratio(static_cast<double>(_fp_layers.rwq_hits),
               static_cast<double>(_fp_layers.rwq_pushes)),
         "ratio"},
        {"finepack.flushes_per_kstore", ratio(flushes * 1e3, fp_stores),
         "count"},
        {"finepack.flush.window_violation",
         flush(finepack::FlushReason::window_violation), "count"},
        {"finepack.flush.payload_full",
         flush(finepack::FlushReason::payload_full), "count"},
        {"finepack.flush.entries_full",
         flush(finepack::FlushReason::entries_full), "count"},
        {"finepack.flush.release", flush(finepack::FlushReason::release),
         "count"},
        {"finepack.packetize_us_per_flush",
         ratio(static_cast<double>(packetize.total_ns),
               static_cast<double>(packetize.count)) / 1e3,
         "us"},
        {"finepack.packetize_allocs_per_flush",
         ratio(static_cast<double>(packetize.allocs),
               static_cast<double>(packetize.count)),
         "count"},
        {"finepack.stores_per_packet",
         ratio(static_cast<double>(_fp_layers.packed_stores),
               static_cast<double>(_fp_layers.finepack_packets)),
         "count"},
        {"interconnect.inject_ns_per_msg",
         ratio(ns("interconnect.inject"), count("interconnect.inject")),
         "ns"},
        {"interconnect.msgs_per_kstore",
         per_kstore(_all_layers.messages, all_stores), "count"},
        {"interconnect.link_ns_per_hop",
         ratio(static_cast<double>(_tracer.totals("link.deliver").self_ns),
               count("link.deliver")),
         "ns"},
        {"common.eventq_ns_per_event",
         ratio(static_cast<double>(
                   _tracer.totals("common.eventq_run").self_ns),
               static_cast<double>(_all_layers.events)),
         "ns"},
        {"common.events_per_kstore", per_kstore(_all_layers.events, all_stores),
         "count"},
        {"gpu.ingress_ns_per_msg",
         ratio(ns("gpu.ingress"), count("gpu.ingress")), "ns"},
        {"gpu.egress_raw_ns_per_store",
         ratio(ns("gpu.egress_raw"), static_cast<double>(_raw_layers.stores)),
         "ns"},
        {"check.oracle_ns_per_store",
         ratio(_oracle_ns, static_cast<double>(_oracle_stores)), "ns"},
        {"bench.tracing_overhead_ratio",
         ratio(median(_traced_rate), median(_untraced_rate)), "ratio"},
    };
    // One p50 per (trace, paradigm) of every workload, so each workload
    // prints the same metric set; runs of other workloads read 0.
    for (const WorkloadSpec &spec : workloadSpecs()) {
        for (const RunSpec &run : spec.runs) {
            auto it = _run_ms.find(run.key);
            m.push_back({"sim.run_ms_p50." + run.key,
                         it == _run_ms.end() ? 0.0 : median(it->second),
                         "ms"});
        }
    }
    return m;
}

// ---- Output -----------------------------------------------------------

void
writeProvenance(common::JsonWriter &json)
{
    const common::BuildInfo &build = common::buildInfo();
    json.key("provenance");
    json.beginObject();
    json.kv("git_sha", build.git_sha);
    json.kv("compiler", build.compiler);
    json.kv("build_type", build.build_type);
    json.kv("sanitizer", build.sanitizer);
    json.kv("fp_check", build.fp_check);
    json.kv("nproc", static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
    json.endObject();
}

void
writeResultFile(const Options &opt, const WorkloadSpec &spec,
                const Bench &bench, const std::vector<Metric> &metrics)
{
    std::filesystem::create_directories(opt.out_dir);
    std::string stem = opt.out_dir + "/" + spec.name + "-seed" +
                       std::to_string(opt.seed) + "-trace" +
                       (opt.trace ? "1" : "0");
    std::ofstream out(stem + ".json");
    common::JsonWriter json(out);
    json.beginObject();
    json.kv("workload", spec.name);
    json.kv("seed", opt.seed);
    json.kv("seconds", opt.seconds);
    json.kv("trace", opt.trace);
    writeProvenance(json);
    json.kv("attempted", bench.attempted());
    json.kv("failed", bench.failed());
    json.key("metrics");
    json.beginObject();
    for (const Metric &m : metrics) {
        json.key(m.name);
        json.beginObject();
        json.kv("value", m.value);
        json.kv("unit", m.unit);
        json.endObject();
    }
    json.endObject();
    json.key("runs");
    json.beginObject();
    for (const auto &[key, r] : bench.results()) {
        json.key(key);
        json.beginObject();
        json.kv("total_time", static_cast<std::uint64_t>(r.total_time));
        json.kv("wire_bytes", r.wire_bytes);
        json.kv("messages", r.messages);
        json.kv("finepack_packets", r.finepack_packets);
        json.kv("events", r.events_processed);
        json.kv("digest", runDigest(r));
        json.endObject();
    }
    json.endObject();
    if (opt.trace) {
        json.key("spans");
        json.beginObject();
        for (const auto &[name, t] : bench.tracer().allTotals()) {
            json.key(name);
            json.beginObject();
            json.kv("count", t.count);
            json.kv("total_ns", static_cast<std::int64_t>(t.total_ns));
            json.kv("self_ns", static_cast<std::int64_t>(t.self_ns));
            json.kv("allocs", t.allocs);
            json.kv("self_allocs", t.self_allocs);
            json.endObject();
        }
        json.endObject();
        json.kv("spans_dropped", bench.tracer().recordsDropped());
    }
    json.endObject();
    out << "\n";

    if (opt.trace) {
        std::ofstream spans(stem + ".spans.json");
        bench.tracer().writeChromeTrace(spans);
    }
}

void
recordDigests(const Options &opt, const WorkloadSpec &spec,
              const Bench &bench)
{
    std::ofstream out(opt.record_digests, std::ios::app);
    for (const RunSpec &run : spec.runs) {
        auto it = bench.results().find(run.key);
        if (it == bench.results().end())
            continue;
        char hex[17];
        std::snprintf(hex, sizeof hex, "%016llx",
                      static_cast<unsigned long long>(runDigest(it->second)));
        out << opt.seed << " " << spec.name << " " << run.key << " " << hex
            << "\n";
    }
}

int
benchMain(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);

    std::string refusal = refusalReason(common::buildInfo());
    if (!refusal.empty()) {
        std::cerr << "perfbench: refusing to time this binary: " << refusal
                  << " (" << common::buildInfoLine()
                  << "); such a build measures a different program\n";
        return exit_fatal;
    }
    common::setExceptionsEnabled(true);

    for (const WorkloadSpec *spec : opt.workloads) {
        if (!resetPeakRss() && spec != opt.workloads.front()) {
            std::cerr << "perfbench: cannot reset the peak RSS mark, so "
                         "peak_rss_mb would include earlier workloads; "
                         "time one workload per process\n";
            return exit_fatal;
        }
        Bench bench(*spec, opt);
        std::vector<Metric> metrics = bench.run();
        writeResultFile(opt, *spec, bench, metrics);
        if (!opt.record_digests.empty())
            recordDigests(opt, *spec, bench);

        std::cout << "# " << spec->name << " seed " << opt.seed
                  << (opt.trace ? " (traced)" : "") << ": "
                  << common::buildInfoLine() << ", nproc "
                  << sysconf(_SC_NPROCESSORS_ONLN) << "\n";
        for (const Metric &m : metrics)
            std::cout << "#   " << m.name << " = " << number(m.value) << " "
                      << m.unit << "\n";
        std::cout << "{\"correct\": "
                  << (bench.failed() == 0 ? "true" : "false")
                  << ", \"attempted\": " << bench.attempted()
                  << ", \"failed\": " << bench.failed()
                  << ", \"metrics\": {";
        for (std::size_t i = 0; i < metrics.size(); ++i) {
            std::cout << (i ? ", " : "") << "\"" << metrics[i].name
                      << "\": {\"value\": " << number(metrics[i].value)
                      << ", \"unit\": \"" << metrics[i].unit << "\"}";
        }
        std::cout << "}}" << std::endl;
    }
    return 0;
}

} // namespace
} // namespace fp::perfbench

int
main(int argc, char **argv)
{
    // Freeze glibc's mmap threshold at its initial 128 KiB. Left
    // dynamic, it rises the first time a large block is freed, and
    // whether later trace buffers land on the heap or in fresh mappings
    // then depends on the order of frees: the same workload's peak RSS
    // jumped between two levels ~15% apart from seed to seed.
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    try {
        return fp::perfbench::benchMain(argc, argv);
    } catch (const fp::common::SimError &e) {
        // Runs catch their own errors; this is a set-up failure.
        std::cerr << "perfbench: " << e.what() << "\n";
        return fp::common::exit_code::fatal;
    }
}
