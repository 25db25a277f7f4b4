/**
 * @file
 * In-process parallel sweep runner (ROADMAP item 5). The figure
 * benches are sweeps of independent simulations: (workload, paradigm,
 * configuration) tuples whose RunResults are pure functions of their
 * inputs. The SweepRunner fans those simulations across an
 * fp::ThreadPool while keeping the aggregate deterministic:
 *
 *   - every job is addressed by its index in the submitted vector and
 *     writes its RunResult into that slot, so the output order is the
 *     submission order regardless of which worker finishes first;
 *   - traces are resolved through the process-wide TraceCache, so each
 *     (workload, params) trace is generated exactly once no matter how
 *     many jobs share it or which worker gets there first;
 *   - with jobs() <= 1 the pool runs every simulation inline on the
 *     calling thread in index order -- the exact serial loop the
 *     benches used before, which is how the bench baselines certify
 *     that parallel output is byte-identical to serial output.
 *
 * Each worker constructs its own SimulationDriver, so no simulation
 * state is shared; the only cross-thread state is the TraceCache, the
 * MetricsRegistry membership list, and the InvariantRegistry counters,
 * all internally synchronized (common/sync.h).
 */

#ifndef FP_SIM_SWEEP_HH
#define FP_SIM_SWEEP_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/sync.h"
#include "sim/driver.hh"
#include "sim/paradigm.hh"
#include "workloads/workload.hh"

namespace fp::obs {
class HealthMonitor;
} // namespace fp::obs

namespace fp::sim {

/**
 * One independent simulation in a sweep. The SimConfig is copied per
 * job; its observability pointers (tracer, sampler, profiler, ...) are
 * owned by the caller and must not be shared between jobs when the
 * sweep runs with more than one lane -- the sinks are not
 * synchronized. Host self-profiling under a parallel sweep therefore
 * means one obs::Profiler per job (tests/sim/profiler_thread_test.cc
 * exercises this under TSan).
 */
struct SweepJob
{
    std::string workload;               ///< TraceCache workload name
    workloads::WorkloadParams params;   ///< trace-generation parameters
    Paradigm paradigm = Paradigm::single_gpu;
    SimConfig config;
};

/**
 * Runs batches of SweepJobs, possibly in parallel. Reusable: one
 * runner (and its thread pool) can serve many run() batches, but
 * run() itself is not reentrant.
 */
class SweepRunner
{
  public:
    /** @p jobs lanes; <= 1 means serial in-order execution. */
    explicit SweepRunner(unsigned jobs = defaultJobs());

    /**
     * Lane count from the FINEPACK_BENCH_JOBS environment variable
     * (the record_baselines.sh -j flag exports it); defaults to 1 so
     * plain bench invocations stay serial.
     */
    static unsigned defaultJobs();

    /** Lanes actually available (>= 1). */
    unsigned jobs() const { return _pool.size(); }

    /**
     * Simulate every job; result i corresponds to batch[i]. Traces
     * resolve through TraceCache::instance(). If any job throws, the
     * batch still drains and the first captured exception is rethrown.
     */
    std::vector<RunResult> run(const std::vector<SweepJob> &batch);

    /**
     * Cumulative sweep progress over this runner's lifetime, published
     * as relaxed atomics: run() adds the batch size to the submitted
     * count up front and bumps the completed count once per finished
     * job (on whichever worker ran it). The run-health heartbeat reads
     * these to report per-shard progress and an ETA, and the watchdog
     * uses submitted > completed to distinguish "queue drained but
     * shards outstanding" (a quiescent stall) from a finished run.
     */
    std::uint64_t jobsCompleted() const
    { return _jobs_done.load(std::memory_order_relaxed); }
    std::uint64_t jobsSubmitted() const
    { return _jobs_total.load(std::memory_order_relaxed); }

    /**
     * Point @p health (nullable) at this runner's progress cells via
     * HealthMonitor::setSweepProgress. The runner must outlive the
     * monitor's watchdog thread (or a later attachHealth(nullptr) --
     * on a different monitor -- must detach it first).
     */
    void attachHealth(obs::HealthMonitor *health);

  private:
    fp::ThreadPool _pool;
    std::atomic<std::uint64_t> _jobs_done{0};
    std::atomic<std::uint64_t> _jobs_total{0};
};

/**
 * Environment-gated sweep heartbeat (the bench harness's run-health
 * hook): when FINEPACK_BENCH_HEARTBEAT_NS is set to a positive
 * nanosecond interval, constructing the guard starts an
 * obs::HealthMonitor attached to @p runner's progress cells, emitting
 * `kind:"heartbeat"` JSON lines (jobs done/total, ETA, RSS) on stderr
 * until destruction. Without the variable the guard is inert -- bench
 * output and digests are untouched by default. See docs/run_health.md.
 */
class HealthHeartbeatGuard
{
  public:
    explicit HealthHeartbeatGuard(SweepRunner &runner);
    ~HealthHeartbeatGuard();

    HealthHeartbeatGuard(const HealthHeartbeatGuard &) = delete;
    HealthHeartbeatGuard &operator=(const HealthHeartbeatGuard &) =
        delete;

    bool active() const { return _monitor != nullptr; }

  private:
    std::unique_ptr<obs::HealthMonitor> _monitor;
};

} // namespace fp::sim

#endif // FP_SIM_SWEEP_HH
