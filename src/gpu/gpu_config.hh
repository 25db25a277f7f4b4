/**
 * @file
 * GPU hardware parameters (paper Table III, NVIDIA GV100-based) plus the
 * first-order performance-model constants the timing simulation uses.
 */

#ifndef FP_GPU_GPU_CONFIG_HH
#define FP_GPU_GPU_CONFIG_HH

#include <cstdint>

#include "common/types.hh"

namespace fp::gpu {

/** Static configuration of one simulated GPU. */
struct GpuConfig
{
    // ---- Table III: GPU parameters -------------------------------------
    /** Cache block size in bytes. */
    std::uint32_t cache_line = 128;
    /** Global (HBM) memory capacity. */
    std::uint64_t global_memory = 16 * GiB;
    /** Streaming multiprocessors. */
    std::uint32_t num_sms = 80;
    /** CUDA cores per SM. */
    std::uint32_t cores_per_sm = 64;
    /** L2 cache capacity. */
    std::uint64_t l2_size = 6 * MiB;
    /** Threads per warp. */
    std::uint32_t warp_size = 32;
    /** Maximum resident threads per SM. */
    std::uint32_t max_threads_per_sm = 2048;
    /** Maximum threads per CTA. */
    std::uint32_t max_threads_per_cta = 1024;

    // ---- Performance-model constants -----------------------------------
    /** Core clock in GHz (GV100 boost). */
    double clock_ghz = 1.4;
    /** Sustained local memory bandwidth, bytes/sec (GV100 HBM2). */
    std::uint64_t hbm_bytes_per_sec = 900ull * 1000 * 1000 * 1000;
    /** Kernel launch overhead. */
    Tick kernel_launch_overhead = 5 * ticks_per_us;
    /** System-wide barrier / synchronization cost per iteration. */
    Tick barrier_overhead = 5 * ticks_per_us;
    /** Software overhead per DMA (async memcpy API) call. */
    Tick dma_call_overhead = 4 * ticks_per_us;

    /** Peak FP32 throughput in flops/sec (2 flops/core/cycle FMA). */
    double
    peakFlopsPerSec() const
    {
        return static_cast<double>(num_sms) * cores_per_sm * 2.0 *
               clock_ghz * 1e9;
    }

    /** Peak flops per tick. */
    double
    flopsPerTick() const
    {
        return peakFlopsPerSec() / static_cast<double>(ticks_per_sec);
    }

    /** HBM bandwidth in bytes per tick. */
    double
    hbmBytesPerTick() const
    {
        return static_cast<double>(hbm_bytes_per_sec) /
               static_cast<double>(ticks_per_sec);
    }

    /**
     * Roofline kernel-duration model: a kernel that executes @p flops
     * arithmetic operations and moves @p mem_bytes through local memory
     * runs for the larger of its compute and memory times, at the given
     * sustained efficiency.
     */
    Tick computeTime(double flops, std::uint64_t mem_bytes,
                     double efficiency = 0.75) const;
};

/** The paper's GV100 configuration. */
GpuConfig gv100Config();

} // namespace fp::gpu

#endif // FP_GPU_GPU_CONFIG_HH
