/**
 * Cross-workload tests: every evaluation application must produce a
 * well-formed trace with its paper-documented communication pattern,
 * and traces must be deterministic. Runs at a small scale.
 */

#include <gtest/gtest.h>

#include <set>

#include "workloads/workload.hh"

using namespace fp;
using namespace fp::workloads;

namespace {

WorkloadParams
smallParams()
{
    WorkloadParams params;
    params.num_gpus = 4;
    params.scale = 0.05;
    params.seed = 42;
    return params;
}

} // namespace

class AllWorkloads : public ::testing::TestWithParam<std::string>
{};

TEST_P(AllWorkloads, ProducesWellFormedTrace)
{
    auto workload = createWorkload(GetParam());
    trace::WorkloadTrace trace = workload->generateTrace(smallParams());

    EXPECT_EQ(trace.workload, GetParam());
    EXPECT_EQ(trace.num_gpus, 4u);
    EXPECT_GT(trace.numIterations(), 0u);
    EXPECT_EQ(trace.single_gpu_work.size(), trace.iterations.size());
    EXPECT_GT(trace.totalRemoteStores(), 0u);

    for (const auto &iter : trace.iterations) {
        ASSERT_EQ(iter.per_gpu.size(), 4u);
        ASSERT_EQ(iter.consumed.size(), 4u);
        for (GpuId g = 0; g < 4; ++g) {
            const auto &work = iter.per_gpu[g];
            EXPECT_GE(work.flops, 0.0);
            for (const auto &store : work.remote_stores) {
                EXPECT_EQ(store.src, g);
                EXPECT_NE(store.dst, g);
                EXPECT_LT(store.dst, 4u);
                EXPECT_GT(store.size, 0u);
                EXPECT_LE(store.size, 128u);
                // L1-coalesced accesses never cross a cache line.
                EXPECT_EQ((store.addr & ~Addr{127}),
                          ((store.addr + store.size - 1) & ~Addr{127}));
            }
            for (const auto &copy : work.dma_copies) {
                EXPECT_NE(copy.dst, g);
                EXPECT_GT(copy.range.size, 0u);
            }
        }
    }
}

TEST_P(AllWorkloads, TraceIsDeterministic)
{
    auto a = createWorkload(GetParam())->generateTrace(smallParams());
    auto b = createWorkload(GetParam())->generateTrace(smallParams());
    ASSERT_EQ(a.numIterations(), b.numIterations());
    EXPECT_EQ(a.totalRemoteStores(), b.totalRemoteStores());
    for (std::uint32_t i = 0; i < a.numIterations(); ++i) {
        for (GpuId g = 0; g < 4; ++g) {
            const auto &sa = a.iterations[i].per_gpu[g].remote_stores;
            const auto &sb = b.iterations[i].per_gpu[g].remote_stores;
            ASSERT_EQ(sa.size(), sb.size());
            for (std::size_t k = 0; k < sa.size(); ++k) {
                EXPECT_EQ(sa[k].addr, sb[k].addr);
                EXPECT_EQ(sa[k].size, sb[k].size);
                EXPECT_EQ(sa[k].dst, sb[k].dst);
            }
        }
    }
}

TEST_P(AllWorkloads, SomeUpdatesAreConsumed)
{
    auto trace = createWorkload(GetParam())->generateTrace(smallParams());
    EXPECT_GT(trace::totalUsefulBytes(trace), 0u);
    EXPECT_GE(trace::totalUniqueBytes(trace),
              trace::totalUsefulBytes(trace));
}

TEST_P(AllWorkloads, CommPatternMatchesPaper)
{
    auto workload = createWorkload(GetParam());
    std::string pattern = workload->commPattern();
    std::string name = GetParam();
    if (name == "jacobi" || name == "pagerank" || name == "eqwp" ||
        name == "diffusion") {
        EXPECT_EQ(pattern, "peer-to-peer");
    } else if (name == "sssp") {
        EXPECT_EQ(pattern, "many-to-many");
    } else {
        EXPECT_EQ(pattern, "all-to-all");
    }
}

TEST_P(AllWorkloads, DestinationSpreadMatchesPattern)
{
    auto workload = createWorkload(GetParam());
    auto trace = workload->generateTrace(smallParams());
    std::string pattern = workload->commPattern();

    // Which (src, dst) pairs actually communicate?
    std::set<std::pair<GpuId, GpuId>> pairs;
    for (const auto &iter : trace.iterations)
        for (GpuId g = 0; g < 4; ++g)
            for (const auto &store : iter.per_gpu[g].remote_stores)
                pairs.insert({g, store.dst});

    if (pattern == "peer-to-peer") {
        // Neighbours only: no pair with |src - dst| > 1.
        for (const auto &[src, dst] : pairs)
            EXPECT_LE(src > dst ? src - dst : dst - src, 1u)
                << "pair " << src << "->" << dst;
    } else {
        // Many-to-many / all-to-all reach non-neighbours too.
        bool has_far = false;
        for (const auto &[src, dst] : pairs)
            if ((src > dst ? src - dst : dst - src) > 1)
                has_far = true;
        EXPECT_TRUE(has_far);
    }
}

INSTANTIATE_TEST_SUITE_P(Paper, AllWorkloads,
                         ::testing::ValuesIn(allWorkloadNames()),
                         [](const auto &info) { return info.param; });

TEST(WorkloadFactoryTest, AllNamesCreate)
{
    EXPECT_EQ(allWorkloadNames().size(), 8u);
    for (const auto &name : allWorkloadNames()) {
        auto workload = createWorkload(name);
        EXPECT_STREQ(workload->name(), name.c_str());
    }
}

TEST(WorkloadFactoryTest, UnknownNameFatal)
{
    EXPECT_THROW(createWorkload("nonesuch"), common::SimError);
}

TEST(WorkloadPartitionTest, BlockPartitionCoversExactly)
{
    for (std::uint64_t n : {100ull, 101ull, 4096ull}) {
        std::uint64_t covered = 0;
        std::uint64_t prev_end = 0;
        for (std::uint32_t p = 0; p < 4; ++p) {
            auto [begin, end] = Workload::blockPartition(n, 4, p);
            EXPECT_EQ(begin, prev_end);
            covered += end - begin;
            prev_end = end;
        }
        EXPECT_EQ(covered, n);
        EXPECT_EQ(prev_end, n);
    }
}

TEST(WorkloadPartitionTest, OwnerOfInvertsPartition)
{
    const std::uint64_t n = 1003;
    for (std::uint32_t p = 0; p < 4; ++p) {
        auto [begin, end] = Workload::blockPartition(n, 4, p);
        for (std::uint64_t i = begin; i < end; i += 97)
            EXPECT_EQ(Workload::ownerOf(i, n, 4), p);
        EXPECT_EQ(Workload::ownerOf(end - 1, n, 4), p);
    }
}

TEST(WorkloadSizeTest, JacobiNamesTheSmallestScaleForItsGpuCount)
{
    auto jacobi = createWorkload("jacobi");
    // Up to 256 GPUs the 4096-row floor gives every GPU a line.
    EXPECT_EQ(jacobi->minScale(256), 0.0);
    EXPECT_EQ(jacobi->minScale(1024), 0.0625);

    WorkloadParams params;
    params.num_gpus = 1024;
    params.scale = 0.0625;
    EXPECT_EQ(jacobi->sizeError(params), "");
    params.scale = 1e-6;
    EXPECT_EQ(jacobi->sizeError(params),
              "jacobi is too small for 1024 GPUs at scale 1e-06; the "
              "smallest scale that works is 0.0625");
    // A user error, not a program bug: generating it is fatal.
    try {
        jacobi->generateTrace(params);
        FAIL() << "a too-small problem generated a trace";
    } catch (const common::SimError &e) {
        EXPECT_EQ(e.kind(), common::SimError::Kind::Fatal);
    }
}

TEST(WorkloadSizeTest, CtNamesTheLargestGpuCountWithinTheStoreBudget)
{
    auto ct = createWorkload("ct");
    WorkloadParams params;
    params.scale = 1e-6; // 16 rays per GPU, the floor
    params.num_gpus = 4;
    // 3 iterations x 4 GPUs x 16 rays x 384 steps x 3 peers; the trace
    // generated at this size holds 174,036.
    EXPECT_EQ(ct->storeBound(params), 221'184u);

    // The boundary, checked without generating either trace.
    params.num_gpus = 60;
    EXPECT_LE(ct->storeBound(params), Workload::max_trace_stores);
    EXPECT_EQ(ct->sizeError(params), "");
    params.num_gpus = 61;
    EXPECT_GT(ct->storeBound(params), Workload::max_trace_stores);
    EXPECT_EQ(ct->sizeError(params),
              "ct is too big for 61 GPUs at scale 1e-06: up to 67461120 "
              "stores, over the budget of 67108864; the largest GPU "
              "count that fits is 60");

    params.num_gpus = 1024;
    EXPECT_EQ(ct->sizeError(params),
              "ct is too big for 1024 GPUs at scale 1e-06: up to "
              "19308478464 stores, over the budget of 67108864; the "
              "largest GPU count that fits is 60");
    // More rays per GPU leave room for fewer GPUs.
    params.scale = 1.0;
    params.num_gpus = 26;
    EXPECT_NE(ct->sizeError(params).find("the largest GPU count that "
                                         "fits is 25"),
              std::string::npos);
    // The bench and test sizes fit: 16 GPUs at scale 1.
    params.num_gpus = 16;
    EXPECT_EQ(ct->sizeError(params), "");

    // Refused before anything is generated.
    params.num_gpus = 1024;
    params.scale = 1e-6;
    try {
        ct->generateTrace(params);
        FAIL() << "an over-budget ct trace was generated";
    } catch (const common::SimError &e) {
        EXPECT_EQ(e.kind(), common::SimError::Kind::Fatal);
    }
    // Workloads without a bound are never refused for size.
    auto pagerank = createWorkload("pagerank");
    EXPECT_EQ(pagerank->storeBound(params), 0u);
}
