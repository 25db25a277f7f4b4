#include "workloads/workload.hh"

#include <sstream>

#include "common/logging.hh"
#include "workloads/als.hh"
#include "workloads/ct.hh"
#include "workloads/diffusion.hh"
#include "workloads/eqwp.hh"
#include "workloads/hit.hh"
#include "workloads/jacobi.hh"
#include "workloads/pagerank.hh"
#include "workloads/sssp.hh"

namespace fp::workloads {

std::string
Workload::sizeError(const WorkloadParams &params) const
{
    std::ostringstream os;
    const double min_scale = minScale(params.num_gpus);
    if (params.scale < min_scale) {
        os << name() << " is too small for " << params.num_gpus
           << " GPUs at scale " << params.scale
           << "; the smallest scale that works is " << min_scale;
        return os.str();
    }
    const std::uint64_t stores = storeBound(params);
    if (stores <= max_trace_stores)
        return {};
    // The bound grows with the GPU count: find the last count under it.
    WorkloadParams fewer = params;
    std::uint32_t fits = 0;
    for (fewer.num_gpus = 1; fewer.num_gpus < params.num_gpus &&
                             storeBound(fewer) <= max_trace_stores;
         ++fewer.num_gpus)
        fits = fewer.num_gpus;
    // One GPU has no peers, so no remote stores: it always fits.
    fp_assert(fits > 0, name(), ": store bound over budget on one GPU");
    os << name() << " is too big for " << params.num_gpus
       << " GPUs at scale " << params.scale << ": up to " << stores
       << " stores, over the budget of " << max_trace_stores
       << "; the largest GPU count that fits is " << fits;
    return os.str();
}

trace::WorkloadTrace
Workload::generateTrace(const WorkloadParams &params)
{
    if (std::string error = sizeError(params); !error.empty())
        fp_fatal(error);
    setup(params);

    trace::WorkloadTrace trace;
    trace.workload = name();
    trace.comm_pattern = commPattern();
    trace.num_gpus = params.num_gpus;

    std::uint32_t iters = numIterations();
    trace.iterations.reserve(iters);
    trace.single_gpu_work.reserve(iters);
    for (std::uint32_t it = 0; it < iters; ++it) {
        trace::IterationWork iter = runIteration(it);
        fp_assert(iter.per_gpu.size() == params.num_gpus,
                  name(), ": iteration has wrong GPU count");

        // Single-GPU reference: the same total work without
        // communication (perfect locality, one device).
        double flops = 0.0;
        std::uint64_t bytes = 0;
        for (const auto &gpu : iter.per_gpu) {
            flops += gpu.flops;
            bytes += gpu.local_bytes;
        }
        trace.single_gpu_work.emplace_back(flops, bytes);
        trace.iterations.push_back(std::move(iter));
    }
    return trace;
}

std::pair<std::uint64_t, std::uint64_t>
Workload::blockPartition(std::uint64_t n, std::uint32_t parts,
                         std::uint32_t index)
{
    fp_assert(parts > 0 && index < parts, "bad partition request");
    std::uint64_t base = n / parts;
    std::uint64_t extra = n % parts;
    std::uint64_t begin =
        index * base + std::min<std::uint64_t>(index, extra);
    std::uint64_t size = base + (index < extra ? 1 : 0);
    return {begin, begin + size};
}

GpuId
Workload::ownerOf(std::uint64_t i, std::uint64_t n, std::uint32_t parts)
{
    fp_assert(i < n, "element out of range");
    // Invert blockPartition.
    std::uint64_t base = n / parts;
    std::uint64_t extra = n % parts;
    std::uint64_t big = (base + 1) * extra; // elements in oversized parts
    if (i < big)
        return static_cast<GpuId>(i / (base + 1));
    return static_cast<GpuId>(extra + (i - big) / base);
}

std::unique_ptr<Workload>
createWorkload(const std::string &name)
{
    if (name == "jacobi")
        return std::make_unique<JacobiWorkload>();
    if (name == "pagerank")
        return std::make_unique<PagerankWorkload>();
    if (name == "sssp")
        return std::make_unique<SsspWorkload>();
    if (name == "als")
        return std::make_unique<AlsWorkload>();
    if (name == "ct")
        return std::make_unique<CtWorkload>();
    if (name == "eqwp")
        return std::make_unique<EqwpWorkload>();
    if (name == "diffusion")
        return std::make_unique<DiffusionWorkload>();
    if (name == "hit")
        return std::make_unique<HitWorkload>();
    fp_fatal("unknown workload: ", name);
}

const std::vector<std::string> &
allWorkloadNames()
{
    static const std::vector<std::string> names = {
        "jacobi", "pagerank", "sssp", "als",
        "ct",     "eqwp",     "diffusion", "hit",
    };
    return names;
}

} // namespace fp::workloads
