/**
 * @file
 * Golden-output gate: a fixed matrix of small runs must reproduce the
 * committed table in tests/sim/golden_output.txt exactly.
 *
 * Each row pins the RunResult fields perfbench's run digest hashes
 * (total time, wire / payload / header / data / useful bytes, messages,
 * FinePack packets, oracle digest) plus a digest of the captured stats
 * groups, which carry no build provenance. A refactor that claims
 * "same simulated output" keeps this table byte-identical; a change
 * that moves any pinned value fails here and names the run and the
 * first field that differs. The matrix is sharded by application, one
 * test per shard, so ctest runs the shards in parallel.
 *
 * An intentional modeling change rewrites the table with
 *
 *     FP_GOLDEN_REWRITE=1 build/tests/sim_golden_output_test
 *
 * and says why in CHANGES.md. Nothing else writes it.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "check/digest.hh"
#include "finepack/config.hh"
#include "obs/metrics.hh"
#include "sim/driver.hh"
#include "workloads/workload.hh"

using namespace fp;

namespace {

/** One run of the matrix. */
struct GoldenRun
{
    std::string name;
    std::string app;
    std::uint32_t gpus;
    sim::Paradigm paradigm;
    sim::SimConfig config;
};

/** The 4-GPU traces' scale; the 16-GPU ones run at a quarter of it. */
constexpr double scale_4gpu = 0.01;
constexpr double scale_16gpu = 0.0025;

std::vector<GoldenRun>
matrix()
{
    std::vector<GoldenRun> runs;
    const sim::Paradigm paradigms[] = {
        sim::Paradigm::p2p_stores, sim::Paradigm::bulk_dma,
        sim::Paradigm::finepack, sim::Paradigm::write_combine,
        sim::Paradigm::gps,
    };
    for (const std::string &app : workloads::allWorkloadNames())
        for (sim::Paradigm paradigm : paradigms)
            runs.push_back({app + "/" + sim::toString(paradigm) + "/4gpu",
                            app, 4, paradigm, sim::SimConfig()});
    for (const char *app : {"pagerank", "hit"})
        runs.push_back({std::string(app) + "/finepack/16gpu", app, 16,
                        sim::Paradigm::finepack, sim::SimConfig()});

    auto variant = [&runs](const char *app, const char *label,
                           sim::SimConfig config) {
        runs.push_back({std::string(app) + "/finepack-" + label + "/4gpu",
                        app, 4, sim::Paradigm::finepack, config});
    };
    sim::SimConfig config;
    config.finepack = finepack::configWithSubheader(2);
    variant("hit", "sub2", config);
    config.finepack = finepack::configWithSubheader(3);
    variant("pagerank", "sub3", config);
    config = sim::SimConfig();
    config.check = true;
    variant("pagerank", "checked", config);
    config = sim::SimConfig();
    config.finepack_flush_timeout = 200 * ticks_per_ns;
    variant("als", "timeout200ns", config);
    for (std::uint32_t windows : {2u, 4u}) {
        config = sim::SimConfig();
        config.finepack.windows_per_partition = windows;
        variant("ct", ("windows" + std::to_string(windows)).c_str(),
                config);
    }
    return runs;
}

/** The pinned values of one run, in table column order. */
using Row = std::vector<std::uint64_t>;

const char *const columns[] = {
    "total_time", "wire_bytes", "payload_bytes", "header_bytes",
    "data_bytes", "useful_bytes", "messages", "finepack_packets",
    "oracle_digest", "stats_digest",
};
constexpr std::size_t column_count = std::size(columns);

Row
replay(const GoldenRun &run, const trace::WorkloadTrace &trace)
{
    obs::MetricsCapture metrics;
    sim::SimConfig config = run.config;
    config.metrics = &metrics;
    sim::RunResult r = sim::SimulationDriver(config).run(trace, run.paradigm);
    check::Digest stats;
    stats.update(metrics.groupsJson());
    return {static_cast<std::uint64_t>(r.total_time),
            r.wire_bytes,
            r.payload_bytes,
            r.header_bytes,
            r.data_bytes,
            r.useful_bytes,
            r.messages,
            r.finepack_packets,
            r.oracle_digest,
            stats.value()};
}

std::string
formatRow(const std::string &name, const Row &row)
{
    std::ostringstream os;
    os << name;
    for (std::uint64_t value : row)
        os << ' ' << value;
    return os.str();
}

/** The committed table: run name -> pinned values. */
std::map<std::string, Row>
readTable(const char *path)
{
    std::map<std::string, Row> table;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string name;
        fields >> name;
        Row row;
        std::uint64_t value = 0;
        while (fields >> value)
            row.push_back(value);
        table[name] = row;
    }
    return table;
}

void
writeTable(const char *path, const std::vector<GoldenRun> &runs,
           const std::vector<Row> &rows)
{
    std::ofstream out(path);
    out << "# Golden simulated output of tests/sim/golden_output_test.cc:"
           " one run per line.\n"
           "# Rewrite only for an intentional modeling change"
           " (FP_GOLDEN_REWRITE=1), and say why in CHANGES.md.\n"
           "# run";
    for (const char *column : columns)
        out << ' ' << column;
    out << '\n';
    for (std::size_t i = 0; i < runs.size(); ++i)
        out << formatRow(runs[i].name, rows[i]) << '\n';
}

bool
rewriting()
{
    const char *rewrite = std::getenv("FP_GOLDEN_REWRITE");
    return rewrite && std::string(rewrite) == "1";
}

/** Rows computed in this process, by run name (for the rewrite). */
std::map<std::string, Row> &
computedRows()
{
    static std::map<std::string, Row> rows;
    return rows;
}

/**
 * With FP_GOLDEN_REWRITE=1, writes the table once every shard has run;
 * a filtered run leaves the table alone.
 */
class TableRewriter : public ::testing::Environment
{
  public:
    void
    TearDown() override
    {
        if (!rewriting())
            return;
        const std::vector<GoldenRun> runs = matrix();
        std::vector<Row> rows;
        for (const GoldenRun &run : runs) {
            auto it = computedRows().find(run.name);
            if (it == computedRows().end()) {
                ADD_FAILURE() << "FP_GOLDEN_REWRITE=1 needs the whole "
                                 "matrix; "
                              << run.name << " did not run";
                return;
            }
            rows.push_back(it->second);
        }
        writeTable(FP_GOLDEN_TABLE, runs, rows);
        std::printf("rewrote %s (%zu runs)\n", FP_GOLDEN_TABLE,
                    runs.size());
    }
};

[[maybe_unused]] const auto *const table_rewriter =
    ::testing::AddGlobalTestEnvironment(new TableRewriter);

/** The matrix is sharded by application, so ctest runs shards in parallel. */
class GoldenOutput : public ::testing::TestWithParam<std::string>
{};

TEST_P(GoldenOutput, RunsMatchTheCommittedTable)
{
    const std::string &app = GetParam();
    std::map<std::uint32_t, trace::WorkloadTrace> traces;
    std::vector<GoldenRun> runs;
    std::vector<Row> rows;
    for (const GoldenRun &run : matrix()) {
        if (run.app != app)
            continue;
        auto it = traces.find(run.gpus);
        if (it == traces.end()) {
            workloads::WorkloadParams params;
            params.num_gpus = run.gpus;
            params.scale = run.gpus == 4 ? scale_4gpu : scale_16gpu;
            params.seed = 7;
            it = traces
                     .emplace(run.gpus, workloads::createWorkload(app)
                                            ->generateTrace(params))
                     .first;
            ASSERT_GT(it->second.totalRemoteStores(), 0u)
                << app << " at " << run.gpus << " GPUs";
        }
        runs.push_back(run);
        rows.push_back(replay(run, it->second));
        computedRows()[run.name] = rows.back();
    }
    ASSERT_FALSE(runs.empty());
    if (rewriting())
        return;

    const std::map<std::string, Row> table = readTable(FP_GOLDEN_TABLE);
    ASSERT_FALSE(table.empty()) << "no golden table at " << FP_GOLDEN_TABLE;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        auto it = table.find(runs[i].name);
        if (it == table.end()) {
            ADD_FAILURE() << runs[i].name << ": no committed row";
            continue;
        }
        const Row &expected = it->second;
        if (expected.size() != column_count) {
            ADD_FAILURE() << runs[i].name << ": committed row has "
                          << expected.size() << " values, expected "
                          << column_count;
            continue;
        }
        for (std::size_t c = 0; c < column_count; ++c) {
            if (rows[i][c] != expected[c]) {
                ADD_FAILURE() << runs[i].name << ": " << columns[c]
                              << " is " << rows[i][c] << ", the table has "
                              << expected[c];
                break;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Matrix, GoldenOutput,
                         ::testing::ValuesIn(workloads::allWorkloadNames()),
                         [](const ::testing::TestParamInfo<std::string> &info) {
                             return info.param;
                         });

TEST(GoldenOutputTable, ListsExactlyTheMatrix)
{
    const std::map<std::string, Row> table = readTable(FP_GOLDEN_TABLE);
    std::map<std::string, Row> expected;
    for (const GoldenRun &run : matrix())
        expected[run.name] = {};
    for (const auto &[name, row] : table)
        EXPECT_TRUE(expected.count(name)) << name << ": not in the matrix";
    EXPECT_EQ(table.size(), expected.size());
}

} // namespace
