/**
 * Tests for the parallel sweep runner and the digest-keyed trace
 * cache: parallel execution must produce RunResults byte-identical to
 * the serial reference (including the protocol-oracle digest), results
 * must land at their job's index, and concurrent TraceCache lookups of
 * one configuration must generate the trace exactly once.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "common/logging.hh"
#include "common/sync.h"
#include "sim/sweep.hh"
#include "sim/trace_cache.hh"
#include "workloads/workload.hh"

using namespace fp;
using namespace fp::sim;

namespace {

workloads::WorkloadParams
smallParams(std::uint32_t num_gpus = 4, double scale = 0.05)
{
    workloads::WorkloadParams params;
    params.num_gpus = num_gpus;
    params.scale = scale;
    params.seed = 42;
    return params;
}

/** A mixed batch: several apps x paradigms, one config-swept job. */
std::vector<SweepJob>
mixedBatch()
{
    std::vector<SweepJob> jobs;
    const std::vector<Paradigm> paradigms = {
        Paradigm::single_gpu, Paradigm::p2p_stores, Paradigm::bulk_dma,
        Paradigm::finepack};
    for (const char *app : {"pagerank", "jacobi"}) {
        for (Paradigm paradigm : paradigms) {
            SweepJob job;
            job.workload = app;
            job.params = smallParams();
            job.paradigm = paradigm;
            jobs.push_back(job);
        }
    }
    // One oracle-checked FinePack run: the digest is the strongest
    // equality witness (order-sensitive over all transactions).
    SweepJob checked;
    checked.workload = "sssp";
    checked.params = smallParams();
    checked.paradigm = Paradigm::finepack;
    checked.config.check = true;
    jobs.push_back(checked);
    return jobs;
}

void
expectIdentical(const RunResult &a, const RunResult &b, std::size_t i)
{
    EXPECT_EQ(a.paradigm, b.paradigm) << "job " << i;
    EXPECT_EQ(a.total_time, b.total_time) << "job " << i;
    EXPECT_EQ(a.wire_bytes, b.wire_bytes) << "job " << i;
    EXPECT_EQ(a.payload_bytes, b.payload_bytes) << "job " << i;
    EXPECT_EQ(a.header_bytes, b.header_bytes) << "job " << i;
    EXPECT_EQ(a.data_bytes, b.data_bytes) << "job " << i;
    EXPECT_EQ(a.messages, b.messages) << "job " << i;
    EXPECT_EQ(a.useful_bytes, b.useful_bytes) << "job " << i;
    EXPECT_EQ(a.protocol_bytes, b.protocol_bytes) << "job " << i;
    EXPECT_EQ(a.wasted_bytes, b.wasted_bytes) << "job " << i;
    EXPECT_EQ(a.avg_stores_per_packet, b.avg_stores_per_packet)
        << "job " << i;
    EXPECT_EQ(a.finepack_packets, b.finepack_packets) << "job " << i;
    EXPECT_EQ(a.wc_alone_wire_bytes, b.wc_alone_wire_bytes)
        << "job " << i;
    EXPECT_EQ(a.wc_line_wire_bytes, b.wc_line_wire_bytes)
        << "job " << i;
    EXPECT_EQ(a.uncompressed_wire_bytes, b.uncompressed_wire_bytes)
        << "job " << i;
    EXPECT_EQ(a.oracle_transactions, b.oracle_transactions)
        << "job " << i;
    EXPECT_EQ(a.oracle_stores, b.oracle_stores) << "job " << i;
    EXPECT_EQ(a.oracle_bytes, b.oracle_bytes) << "job " << i;
    EXPECT_EQ(a.oracle_value_bytes, b.oracle_value_bytes)
        << "job " << i;
    EXPECT_EQ(a.oracle_digest, b.oracle_digest) << "job " << i;
}

} // namespace

TEST(TraceCacheTest, DigestSeparatesEveryParameter)
{
    auto params = smallParams();
    auto base = TraceCache::digest("pagerank", params);
    EXPECT_EQ(TraceCache::digest("pagerank", params), base);
    EXPECT_NE(TraceCache::digest("jacobi", params), base);

    auto gpus = params;
    gpus.num_gpus = 8;
    EXPECT_NE(TraceCache::digest("pagerank", gpus), base);

    auto scaled = params;
    scaled.scale = 0.1;
    EXPECT_NE(TraceCache::digest("pagerank", scaled), base);

    auto seeded = params;
    seeded.seed = 43;
    EXPECT_NE(TraceCache::digest("pagerank", seeded), base);
}

TEST(TraceCacheTest, SameConfigurationReturnsSameInstance)
{
    auto &cache = TraceCache::instance();
    const auto &first = cache.get("pagerank", smallParams());
    const auto &second = cache.get("pagerank", smallParams());
    EXPECT_EQ(&first, &second);
}

TEST(TraceCacheTest, ConcurrentGetsGenerateOnce)
{
    // A configuration no other test uses, so this lookup is the first.
    auto params = smallParams(2, 0.03);
    params.seed = 977;

    auto &cache = TraceCache::instance();
    constexpr std::size_t lookups = 16;
    std::vector<const trace::WorkloadTrace *> seen(lookups, nullptr);
    ThreadPool pool(4);
    pool.parallelFor(lookups, [&](std::size_t i) {
        seen[i] = &cache.get("diffusion", params);
    });
    for (std::size_t i = 1; i < lookups; ++i)
        EXPECT_EQ(seen[i], seen[0]) << "lookup " << i;
}

TEST(SweepRunnerTest, DefaultJobsComesFromEnvironment)
{
    unsetenv("FINEPACK_BENCH_JOBS");
    EXPECT_EQ(SweepRunner::defaultJobs(), 1u);
    setenv("FINEPACK_BENCH_JOBS", "6", 1);
    EXPECT_EQ(SweepRunner::defaultJobs(), 6u);
    // Anything but a whole lane count in [1, max_jobs] is fatal.
    setenv("FINEPACK_BENCH_JOBS", "garbage", 1);
    EXPECT_THROW(SweepRunner::defaultJobs(), common::SimError);
    unsetenv("FINEPACK_BENCH_JOBS");
}

TEST(SweepRunnerTest, ResultsLandAtTheirJobIndex)
{
    auto jobs = mixedBatch();
    SweepRunner runner(4);
    auto results = runner.run(jobs);
    ASSERT_EQ(results.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(results[i].paradigm, jobs[i].paradigm)
            << "job " << i;
    // Paradigm orderings survive the fan-out: single-GPU is slowest,
    // FinePack beats plain P2P stores on these traces.
    EXPECT_GT(results[0].total_time, results[3].total_time);
}

TEST(SweepRunnerTest, ParallelMatchesSerialByteForByte)
{
    auto jobs = mixedBatch();

    SweepRunner serial(1);
    ASSERT_EQ(serial.jobs(), 1u);
    auto reference = serial.run(jobs);

    SweepRunner parallel(4);
    ASSERT_EQ(parallel.jobs(), 4u);
    auto results = parallel.run(jobs);

    ASSERT_EQ(reference.size(), results.size());
    for (std::size_t i = 0; i < reference.size(); ++i)
        expectIdentical(reference[i], results[i], i);

    // The checked job really exercised the oracle.
    EXPECT_GT(reference.back().oracle_transactions, 0u);
    EXPECT_NE(reference.back().oracle_digest, 0u);
}

TEST(SweepRunnerTest, RepeatedParallelRunsAreStable)
{
    auto jobs = mixedBatch();
    SweepRunner runner(4);
    auto first = runner.run(jobs);
    auto second = runner.run(jobs);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i)
        expectIdentical(first[i], second[i], i);
}

TEST(SweepRunnerTest, UnknownWorkloadThrowsAndRunnerSurvives)
{
    SweepJob bad;
    bad.workload = "no-such-workload";
    bad.params = smallParams();

    SweepRunner runner(2);
    EXPECT_ANY_THROW(runner.run({bad}));

    // The failed generation released its cache claim; good jobs run.
    SweepJob good;
    good.workload = "pagerank";
    good.params = smallParams();
    good.paradigm = Paradigm::p2p_stores;
    auto results = runner.run({good});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_GT(results[0].total_time, 0u);
}
