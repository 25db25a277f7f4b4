#include "sim/sweep.hh"

#include "common/parse.hh"
#include "obs/health.hh"
#include "sim/trace_cache.hh"

namespace fp::sim {

unsigned
SweepRunner::defaultJobs()
{
    return common::envNumber("FINEPACK_BENCH_JOBS", 1u, 1u, max_jobs);
}

SweepRunner::SweepRunner(unsigned jobs) : _pool(jobs) {}

std::vector<RunResult>
SweepRunner::run(const std::vector<SweepJob> &batch)
{
    std::vector<RunResult> results(batch.size());
    _jobs_total.fetch_add(batch.size(), std::memory_order_relaxed);
    _pool.parallelFor(batch.size(), [&](std::size_t i) {
        const SweepJob &job = batch[i];
        const trace::WorkloadTrace &trace =
            TraceCache::instance().get(job.workload, job.params);
        SimulationDriver driver(job.config);
        results[i] = driver.run(trace, job.paradigm);
        _jobs_done.fetch_add(1, std::memory_order_relaxed);
    });
    return results;
}

void
SweepRunner::attachHealth(obs::HealthMonitor *health)
{
    if (health)
        health->setSweepProgress(&_jobs_done, &_jobs_total);
}

std::uint64_t
HealthHeartbeatGuard::intervalNs()
{
    return common::envNumber("FINEPACK_BENCH_HEARTBEAT_NS", std::uint64_t{0},
                             std::uint64_t{0}, max_interval_ns);
}

HealthHeartbeatGuard::HealthHeartbeatGuard(SweepRunner &runner)
{
    const std::uint64_t interval = intervalNs();
    if (interval == 0)
        return;
    obs::HealthMonitor::Options options;
    options.heartbeat_ns = interval;
    _monitor = std::make_unique<obs::HealthMonitor>(options);
    runner.attachHealth(_monitor.get());
    _monitor->start();
}

HealthHeartbeatGuard::~HealthHeartbeatGuard() = default;

} // namespace fp::sim
