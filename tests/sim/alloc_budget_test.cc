/**
 * @file
 * Heap-allocation budget of the simulator's store path.
 *
 * This executable replaces the global operator new / delete family
 * with counting versions, so every C++ heap allocation the simulator
 * makes is seen: container growth, hash-map nodes, std::function
 * captures, queue-owned events, wire messages. Each case replays a
 * trace generated in-test with a fixed seed and asserts that one run
 * allocates no more than its committed ceiling. The ceilings are the
 * counts the code makes today, so a change that adds heap traffic to
 * the store path fails here, and a change that removes some lowers the
 * ceiling in the same commit.
 *
 * Every case first replays a small trace under the same configuration,
 * so process-wide state that fills lazily (function-local statics, the
 * invariant registry's names in FP_CHECK builds) is in place and the
 * count is the steady-state cost of one run. The same table then holds
 * in the default, debug, asan and ubsan presets.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <ostream>
#include <string>

#include "finepack/config.hh"
#include "obs/flight_recorder.hh"
#include "sim/driver.hh"
#include "workloads/workload.hh"

namespace {

std::atomic<std::uint64_t> heap_allocations{0};

void *
countedAlloc(std::size_t size, std::size_t align = 0)
{
    if (size == 0)
        size = 1;
    void *p = nullptr;
    if (align <= alignof(std::max_align_t)) {
        p = std::malloc(size);
    } else {
        // aligned_alloc wants a size that is a multiple of the alignment.
        p = std::aligned_alloc(align, (size + align - 1) / align * align);
    }
    if (!p)
        throw std::bad_alloc();
    heap_allocations.fetch_add(1, std::memory_order_relaxed);
    return p;
}

void *
countedAllocNoThrow(std::size_t size) noexcept
{
    try {
        return countedAlloc(size);
    } catch (const std::bad_alloc &) {
        return nullptr;
    }
}

} // namespace

void *operator new(std::size_t size) { return countedAlloc(size); }
void *operator new[](std::size_t size) { return countedAlloc(size); }

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAllocNoThrow(size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAllocNoThrow(size);
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlloc(size, static_cast<std::size_t>(align));
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlloc(size, static_cast<std::size_t>(align));
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace {

using namespace fp;

/** One budgeted run: a trace, a configuration and its ceiling. */
struct Budget
{
    const char *name;
    const char *app;
    double scale;
    sim::Paradigm paradigm;
    /** FinePack sub-header bytes; 0 keeps the Table III default. */
    std::uint32_t subheader_bytes;
    /** SimConfig::check (the protocol oracle). */
    bool check;
    /** Remote stores in the generated trace; pins the trace itself. */
    std::uint64_t stores;
    /** Heap allocations one run may make. */
    std::uint64_t ceiling;
};

/** gtest names a budget by its name, not by its bytes. */
void
PrintTo(const Budget &budget, std::ostream *os)
{
    *os << budget.name;
}

// All traces: 4 GPUs, seed 1, PCIe 4.0.
const Budget budgets[] = {
    {"pagerank_finepack", "pagerank", 0.02, sim::Paradigm::finepack, 0,
     false, 75'939, 5'358},
    {"pagerank_finepack_checked", "pagerank", 0.02,
     sim::Paradigm::finepack, 0, true, 75'939, 89'123},
    {"pagerank_p2p_stores", "pagerank", 0.02, sim::Paradigm::p2p_stores,
     0, false, 75'939, 7'700},
    {"hit_finepack_sub2", "hit", 0.02, sim::Paradigm::finepack, 2, false,
     147'456, 1'476'420},
};

trace::WorkloadTrace
generate(const char *app, double scale)
{
    workloads::WorkloadParams params;
    params.num_gpus = 4;
    params.scale = scale;
    params.seed = 1;
    return workloads::createWorkload(app)->generateTrace(params);
}

/**
 * Replay a small trace under @p config, so that lazily filled
 * process-wide state does not land in the counted run.
 */
void
warmUp(const sim::SimConfig &config, sim::Paradigm paradigm)
{
    static const trace::WorkloadTrace trace = generate("pagerank", 0.002);
    sim::SimulationDriver(config).run(trace, paradigm);
}

sim::SimConfig
configFor(const Budget &budget)
{
    sim::SimConfig config;
    if (budget.subheader_bytes != 0) {
        config.finepack =
            finepack::configWithSubheader(budget.subheader_bytes);
    }
    config.check = budget.check;
    return config;
}

/** Heap allocations of one SimulationDriver::run() under @p config. */
std::uint64_t
countRun(const sim::SimConfig &config, const trace::WorkloadTrace &trace,
         sim::Paradigm paradigm, sim::RunResult *result = nullptr)
{
    sim::SimulationDriver driver(config);
    std::uint64_t before = heap_allocations.load(std::memory_order_relaxed);
    sim::RunResult run = driver.run(trace, paradigm);
    std::uint64_t after = heap_allocations.load(std::memory_order_relaxed);
    if (result)
        *result = run;
    return after - before;
}

std::string
perStore(std::uint64_t allocations, std::uint64_t stores)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.4f",
                  static_cast<double>(allocations) /
                      static_cast<double>(stores));
    return buf;
}

class AllocBudget : public ::testing::TestWithParam<Budget>
{};

TEST_P(AllocBudget, RunStaysWithinItsCeiling)
{
    const Budget &budget = GetParam();
    const trace::WorkloadTrace trace = generate(budget.app, budget.scale);
    ASSERT_EQ(trace.totalRemoteStores(), budget.stores);
    const sim::SimConfig config = configFor(budget);

    warmUp(config, budget.paradigm);
    sim::RunResult result;
    std::uint64_t allocations =
        countRun(config, trace, budget.paradigm, &result);
    if (budget.check) {
        ASSERT_EQ(result.oracle_transactions, result.finepack_packets);
    }

    std::printf("%s: %llu heap allocations, %s per store (ceiling %llu)\n",
                budget.name, static_cast<unsigned long long>(allocations),
                perStore(allocations, budget.stores).c_str(),
                static_cast<unsigned long long>(budget.ceiling));
    EXPECT_LE(allocations, budget.ceiling)
        << budget.name << " allocated " << perStore(allocations,
                                                    budget.stores)
        << " per store, over its ceiling of "
        << perStore(budget.ceiling, budget.stores);
}

INSTANTIATE_TEST_SUITE_P(
    StorePath, AllocBudget, ::testing::ValuesIn(budgets),
    [](const ::testing::TestParamInfo<Budget> &info) {
        return std::string(info.param.name);
    });

/**
 * The flight recorder's ring is sized at construction, and record()
 * allocates nothing. Attaching one therefore adds a fixed number of
 * allocations to a run, the same at two trace scales, and never a
 * per-event cost.
 */
TEST(AllocBudget, FlightRecorderAddsAConstantNotAPerEventCost)
{
    constexpr std::uint64_t ceiling = 1;
    const sim::SimConfig plain;
    std::uint64_t added[2] = {};
    std::uint64_t events[2] = {};
    const double scales[2] = {0.01, 0.02};
    warmUp(plain, sim::Paradigm::finepack);
    for (int i = 0; i < 2; ++i) {
        const trace::WorkloadTrace trace = generate("pagerank", scales[i]);
        std::uint64_t bare = countRun(plain, trace, sim::Paradigm::finepack);

        obs::FlightRecorder recorder;
        sim::SimConfig recorded = plain;
        recorded.recorder = &recorder;
        sim::RunResult result;
        std::uint64_t with = countRun(recorded, trace,
                                      sim::Paradigm::finepack, &result);
        ASSERT_GE(with, bare);
        added[i] = with - bare;
        events[i] = result.events_processed;
        EXPECT_EQ(recorder.kindCount(obs::FlightKind::event), events[i]);
    }
    ASSERT_LT(events[0], events[1]);
    EXPECT_EQ(added[0], added[1]);
    EXPECT_LE(added[0], ceiling);
}

} // namespace
