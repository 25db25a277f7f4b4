/**
 * @file
 * Per-shard profilers under the parallel sweep runner: each SweepJob
 * carries its own obs::Profiler (observability sinks are per-job by
 * contract), so host profiling must neither perturb parallel results
 * nor tangle attribution across lanes. Runs under TSan via the
 * threadsafe ctest label; profilers share no state across lanes.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "obs/profiler.hh"
#include "sim/driver.hh"
#include "sim/sweep.hh"
#include "workloads/workload.hh"

using namespace fp;
using namespace fp::sim;

namespace {

std::vector<SweepJob>
smallBatch()
{
    const char *workloads[] = {"jacobi", "pagerank", "sssp", "jacobi"};
    const Paradigm paradigms[] = {Paradigm::finepack, Paradigm::finepack,
                                  Paradigm::bulk_dma, Paradigm::gps};
    std::vector<SweepJob> batch;
    for (int i = 0; i < 4; ++i) {
        SweepJob job;
        job.workload = workloads[i];
        job.params.num_gpus = 4;
        job.params.scale = 0.05;
        job.params.seed = 42;
        job.paradigm = paradigms[i];
        batch.push_back(job);
    }
    return batch;
}

void
expectSameResult(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.total_time, b.total_time);
    EXPECT_EQ(a.wire_bytes, b.wire_bytes);
    EXPECT_EQ(a.messages, b.messages);
    EXPECT_EQ(a.finepack_packets, b.finepack_packets);
    EXPECT_EQ(a.events_processed, b.events_processed);
}

} // namespace

TEST(ProfilerThread, PerShardProfilersUnderParallelSweep)
{
    // Reference: the same batch, serial, unprofiled.
    SweepRunner serial(1);
    auto expected = serial.run(smallBatch());

    auto batch = smallBatch();
    std::vector<std::unique_ptr<obs::Profiler>> profilers;
    for (auto &job : batch) {
        profilers.push_back(std::make_unique<obs::Profiler>());
        job.config.profiler = profilers.back().get();
    }
    SweepRunner parallel(4);
    ASSERT_GE(parallel.jobs(), 1u);
    auto results = parallel.run(batch);

    ASSERT_EQ(results.size(), expected.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        SCOPED_TRACE(batch[i].workload);
        expectSameResult(results[i], expected[i]);
        // Each shard's profiler observed exactly its own queue: the
        // event count matches the result's even when lanes overlap.
        EXPECT_EQ(profilers[i]->events(), results[i].events_processed);
        if (results[i].events_processed > 0) {
            EXPECT_FALSE(profilers[i]->hotspots().empty());
        }
    }
}

TEST(ProfilerThread, SharedBatchRepeatsDeterministically)
{
    // Two parallel profiled runs agree with each other (the profiler
    // adds no schedule-dependent behavior on top of the sweep).
    auto run_once = [](std::vector<RunResult> &out,
                       std::vector<std::uint64_t> &events) {
        auto batch = smallBatch();
        std::vector<std::unique_ptr<obs::Profiler>> profilers;
        for (auto &job : batch) {
            profilers.push_back(std::make_unique<obs::Profiler>());
            job.config.profiler = profilers.back().get();
        }
        SweepRunner runner(4);
        out = runner.run(batch);
        for (const auto &profiler : profilers)
            events.push_back(profiler->events());
    };
    std::vector<RunResult> a, b;
    std::vector<std::uint64_t> ea, eb;
    run_once(a, ea);
    run_once(b, eb);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        expectSameResult(a[i], b[i]);
    EXPECT_EQ(ea, eb);
}
