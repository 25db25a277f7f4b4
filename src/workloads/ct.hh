/**
 * @file
 * CT (paper Section V): model-based iterative reconstruction (MBIR).
 * Each GPU back-projects corrections along its share of the projection
 * rays; voxel updates scatter across a large (4 GB address space)
 * replicated volume and are pushed to every peer (all-to-all pattern).
 *
 * Ray-voxel traversal uses Siddon stepping on the full-resolution
 * 1024^3 grid, so the remote store address stream is the real
 * back-projection scatter pattern; many rays progress concurrently
 * (one warp each), so consecutive egress stores belong to different
 * rays in distant volume regions - the minimal spatial locality the
 * paper reports for CT, which makes FinePack's coalescing window
 * thrash and keeps its packets small (Figure 11).
 *
 * Substitution note: correction values are procedural (synthetic
 * sinogram model) rather than accumulated into a materialized 4 GB
 * volume; the traversal geometry, and therefore the traffic, is real.
 */

#ifndef FP_WORKLOADS_CT_HH
#define FP_WORKLOADS_CT_HH

#include <vector>

#include "workloads/workload.hh"

namespace fp::workloads {

class CtWorkload : public Workload
{
  public:
    const char *name() const override { return "ct"; }
    const char *commPattern() const override { return "all-to-all"; }

    void setup(const WorkloadParams &params) override;
    std::uint32_t numIterations() const override { return iterations; }
    trace::IterationWork runIteration(std::uint32_t it) override;

    /**
     * Every step of every ray may write one voxel to every peer:
     * iterations x GPUs x rays per GPU x max_steps x peers. Stores grow
     * as GPUs squared, and a smaller scale never gives a GPU fewer
     * than 16 rays.
     */
    std::uint64_t storeBound(const WorkloadParams &params) const override;

    /** Voxel grid side length (addresses span side^3 * 4 bytes). */
    std::uint64_t side() const { return _side; }

    /** Device-local base of the replicated volume. */
    static constexpr Addr volume_base = 0x100000000ull;
    /** Device-local base of the DMA update-list staging buffers. */
    static constexpr Addr staging_base = 0x40000000;

  private:
    struct Ray
    {
        double origin[3];
        double dir[3];
    };

    /** Siddon-stepped voxel visit list for one ray (voxel indices). */
    std::vector<std::uint64_t> traverse(const Ray &ray,
                                        std::uint32_t max_steps) const;

    Ray makeRay(std::uint32_t iteration, GpuId gpu,
                std::uint32_t ray_idx) const;

    /** Rays each GPU back-projects at @p scale. */
    static std::uint32_t raysPerGpu(double scale);

    static constexpr std::uint32_t iterations = 3;
    /** Siddon steps per ray. */
    static constexpr std::uint32_t max_steps = 384;

    std::uint64_t _side = 1024;
    std::uint32_t _rays_per_gpu = 96;
    std::uint32_t _concurrent_rays = 64;
};

} // namespace fp::workloads

#endif // FP_WORKLOADS_CT_HH
