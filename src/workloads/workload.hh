/**
 * @file
 * Workload base class and factory.
 *
 * Each workload implements one of the paper's eight evaluation
 * applications (Section V) as an actual algorithm execution on a
 * synthetic dataset: running an iteration advances real algorithm state
 * and emits the remote-store stream a peer-to-peer-store implementation
 * of that program would issue, along with the DMA ranges its memcpy
 * twin would copy and the consumption oracle for byte classification.
 */

#ifndef FP_WORKLOADS_WORKLOAD_HH
#define FP_WORKLOADS_WORKLOAD_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.hh"
#include "gpu/warp_coalescer.hh"
#include "trace/trace.hh"

namespace fp::workloads {

/** Parameters shared by all workloads. */
struct WorkloadParams
{
    std::uint32_t num_gpus = 4;
    /** Problem-size multiplier (1.0 = the default evaluation size). */
    double scale = 1.0;
    std::uint64_t seed = 42;
};

/** Base class for the eight evaluation applications. */
class Workload
{
  public:
    virtual ~Workload() = default;

    virtual const char *name() const = 0;
    /** The paper's Section V communication-pattern label. */
    virtual const char *commPattern() const = 0;

    /** (Re-)initialize datasets and algorithm state. Deterministic. */
    virtual void setup(const WorkloadParams &params) = 0;

    /**
     * The smallest scale at which setup() can share the problem among
     * @p num_gpus GPUs (0 when every scale works).
     */
    virtual double
    minScale(std::uint32_t num_gpus) const
    {
        (void)num_gpus;
        return 0.0;
    }

    /**
     * The most remote stores a trace of @p params can hold, for a
     * workload whose trace can outgrow memory (0: no bound needed).
     */
    virtual std::uint64_t
    storeBound(const WorkloadParams &params) const
    {
        (void)params;
        return 0;
    }

    /**
     * The most stores storeBound() may allow: 2^26 (67 M), or
     * 2^26 x sizeof(icn::Store) bytes (2 GiB of 32 B records) in memory
     * before a replay starts. The largest trace any bench or test
     * builds, ct on 16 GPUs at scale 1, is bounded by 26.5 M.
     */
    static constexpr std::uint64_t max_trace_stores = std::uint64_t{1}
                                                      << 26;
    static_assert(max_trace_stores * sizeof(icn::Store) ==
                      std::uint64_t{2} << 30,
                  "the store budget is 2 GiB of store records");

    /**
     * Why @p params cannot be generated: a problem too small for its
     * GPU count (naming the smallest scale that works) or a trace over
     * the store budget (naming the largest GPU count that fits); empty
     * when it can. generateTrace() fails with this message.
     */
    std::string sizeError(const WorkloadParams &params) const;

    virtual std::uint32_t numIterations() const = 0;

    /**
     * Execute iteration @p it of the algorithm (must be called in
     * order), returning every GPU's compute/communication work.
     */
    virtual trace::IterationWork runIteration(std::uint32_t it) = 0;

    /** Run setup + all iterations into a reusable trace. */
    trace::WorkloadTrace generateTrace(const WorkloadParams &params);

    /** The coalescer accumulating the Figure 4 size histogram. */
    gpu::WarpCoalescer &coalescer() { return _coalescer; }
    const gpu::WarpCoalescer &coalescer() const { return _coalescer; }

    const WorkloadParams &params() const { return _params; }

    /** Contiguous block partition of [0, n) into @p parts pieces. */
    static std::pair<std::uint64_t, std::uint64_t>
    blockPartition(std::uint64_t n, std::uint32_t parts,
                   std::uint32_t index);

    /** The GPU owning element @p i under blockPartition. */
    static GpuId ownerOf(std::uint64_t i, std::uint64_t n,
                         std::uint32_t parts);

  protected:
    WorkloadParams _params;
    gpu::WarpCoalescer _coalescer;
    common::Rng _rng;
};

/** Instantiate a workload by name; fp_fatal on unknown names. */
std::unique_ptr<Workload> createWorkload(const std::string &name);

/** The eight evaluation workloads, in the paper's order. */
const std::vector<std::string> &allWorkloadNames();

} // namespace fp::workloads

#endif // FP_WORKLOADS_WORKLOAD_HH
