#include "workloads/ct.hh"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/logging.hh"
#include "trace/store_stream.hh"

namespace fp::workloads {

std::uint32_t
CtWorkload::raysPerGpu(double scale)
{
    return std::max<std::uint32_t>(static_cast<std::uint32_t>(96 * scale),
                                   16);
}

std::uint64_t
CtWorkload::storeBound(const WorkloadParams &params) const
{
    const std::uint64_t gpus = params.num_gpus;
    return iterations * gpus * raysPerGpu(params.scale) * max_steps *
           (gpus - 1);
}

void
CtWorkload::setup(const WorkloadParams &params)
{
    _params = params;
    _rng = common::Rng(params.seed);
    _side = 1024;
    _rays_per_gpu = raysPerGpu(params.scale);
    _concurrent_rays = 64;
}

CtWorkload::Ray
CtWorkload::makeRay(std::uint32_t iteration, GpuId gpu,
                    std::uint32_t ray_idx) const
{
    // Projection geometry: a rotating source angle per iteration, with
    // each GPU owning an angular wedge; detector offset per ray.
    double n = static_cast<double>(_side);
    double angle =
        2.0 * M_PI *
        (static_cast<double>(iteration) * 0.37 +
         static_cast<double>(gpu) / 4.0 +
         static_cast<double>(ray_idx) * 0.0021);
    double detector =
        (static_cast<double>(ray_idx % 97) / 97.0 - 0.5) * 0.9;
    double height =
        (static_cast<double>((ray_idx * 31) % 89) / 89.0) * 0.9 + 0.05;

    Ray ray;
    ray.origin[0] = n / 2.0 + std::cos(angle) * n * 0.49 +
                    std::sin(angle) * detector * n;
    ray.origin[1] = n / 2.0 + std::sin(angle) * n * 0.49 -
                    std::cos(angle) * detector * n;
    ray.origin[2] = height * n;
    ray.dir[0] = -std::cos(angle);
    ray.dir[1] = -std::sin(angle);
    ray.dir[2] = (static_cast<double>((ray_idx * 13) % 41) / 41.0 - 0.5) *
                 0.2;
    double len = std::sqrt(ray.dir[0] * ray.dir[0] +
                           ray.dir[1] * ray.dir[1] +
                           ray.dir[2] * ray.dir[2]);
    for (double &d : ray.dir)
        d /= len;
    return ray;
}

std::vector<std::uint64_t>
CtWorkload::traverse(const Ray &ray, std::uint32_t max_steps) const
{
    // Siddon-style incremental traversal: track the parametric distance
    // to the next x/y/z voxel boundary and always cross the nearest.
    std::vector<std::uint64_t> voxels;
    voxels.reserve(max_steps);

    auto n = static_cast<std::int64_t>(_side);
    std::int64_t pos[3];
    double t_next[3], dt[3];
    std::int64_t step[3];

    for (int a = 0; a < 3; ++a) {
        pos[a] = static_cast<std::int64_t>(std::floor(ray.origin[a]));
        if (std::abs(ray.dir[a]) < 1e-12) {
            step[a] = 0;
            dt[a] = 1e30;
            t_next[a] = 1e30;
            continue;
        }
        step[a] = ray.dir[a] > 0 ? 1 : -1;
        dt[a] = std::abs(1.0 / ray.dir[a]);
        double boundary = ray.dir[a] > 0
                              ? std::floor(ray.origin[a]) + 1.0
                              : std::floor(ray.origin[a]);
        t_next[a] = (boundary - ray.origin[a]) / ray.dir[a];
    }

    for (std::uint32_t s = 0; s < max_steps; ++s) {
        if (pos[0] >= 0 && pos[0] < n && pos[1] >= 0 && pos[1] < n &&
            pos[2] >= 0 && pos[2] < n) {
            voxels.push_back(static_cast<std::uint64_t>(
                pos[0] + n * (pos[1] + n * pos[2])));
        }
        int axis = 0;
        if (t_next[1] < t_next[axis])
            axis = 1;
        if (t_next[2] < t_next[axis])
            axis = 2;
        pos[axis] += step[axis];
        t_next[axis] += dt[axis];
        // Stop once the ray has left the volume for good.
        if ((pos[axis] < -1 || pos[axis] > n) && !voxels.empty())
            break;
    }
    return voxels;
}

trace::IterationWork
CtWorkload::runIteration(std::uint32_t it)
{
    const std::uint32_t gpus = _params.num_gpus;

    trace::IterationWork iter;
    iter.per_gpu.resize(gpus);
    iter.consumed.resize(gpus);

    for (GpuId g = 0; g < gpus; ++g) {
        auto &work = iter.per_gpu[g];
        trace::StoreStreamBuilder stream(g, work.remote_stores,
                                         _coalescer);

        // Traverse this GPU's rays, then interleave the voxel streams of
        // _concurrent_rays rays round-robin: each ray is processed by
        // its own warp, so egress order mixes distant volume regions.
        std::vector<std::vector<std::uint64_t>> ray_voxels;
        ray_voxels.reserve(_rays_per_gpu);
        std::uint64_t total_steps = 0;
        for (std::uint32_t r = 0; r < _rays_per_gpu; ++r) {
            ray_voxels.push_back(traverse(makeRay(it, g, r), max_steps));
            total_steps += ray_voxels.back().size();
        }

        // Each ray belongs to one warp; warps advance in bursts of
        // segment_steps voxels before the SM scheduler switches to
        // another ray, so the egress stream interleaves short coherent
        // runs from rays in distant volume regions.
        constexpr std::uint32_t segment_steps = 8;
        std::unordered_set<std::uint64_t> unique_voxels;
        for (std::size_t group = 0; group < ray_voxels.size();
             group += _concurrent_rays) {
            std::size_t group_end = std::min(
                group + _concurrent_rays, ray_voxels.size());
            bool any = true;
            for (std::size_t seg = 0; any; ++seg) {
                any = false;
                std::size_t lo = seg * segment_steps;
                for (std::size_t r = group; r < group_end; ++r) {
                    std::size_t hi = std::min<std::size_t>(
                        lo + segment_steps, ray_voxels[r].size());
                    if (lo >= hi)
                        continue;
                    any = true;
                    for (std::size_t depth = lo; depth < hi; ++depth) {
                        std::uint64_t voxel = ray_voxels[r][depth];
                        unique_voxels.insert(voxel);
                        Addr addr = volume_base + voxel * 4;
                        for (GpuId dst = 0; dst < gpus; ++dst) {
                            if (dst == g)
                                continue;
                            stream.scalarWrite(dst, addr, 4);
                        }
                    }
                }
            }
        }

        // MBIR is compute-heavy: forward model, comparison against the
        // sinogram, and regularized update per visited voxel.
        work.flops = static_cast<double>(total_steps) * 8000.0;
        work.local_bytes = total_steps * 4000;

        // The reconstruction reads every updated voxel in the next
        // forward projection: all unique updates are consumed by all
        // peers.
        std::vector<std::uint64_t> voxels(unique_voxels.begin(),
                                          unique_voxels.end());
        std::sort(voxels.begin(), voxels.end());
        std::vector<icn::AddrRange> ranges;
        ranges.reserve(voxels.size());
        for (std::uint64_t voxel : voxels)
            ranges.push_back(icn::AddrRange{volume_base + voxel * 4, 4});
        for (GpuId dst = 0; dst < gpus; ++dst) {
            if (dst == g)
                continue;
            iter.consumed[dst].insert(iter.consumed[dst].end(),
                                      ranges.begin(), ranges.end());
        }

        // The memcpy twin exchanges packed (index, value) update lists:
        // efficient on the wire but requiring pack/unpack kernels.
        std::uint64_t list_bytes = unique_voxels.size() * 8;
        if (list_bytes > 0) {
            for (GpuId dst = 0; dst < gpus; ++dst) {
                if (dst == g)
                    continue;
                Addr staging =
                    staging_base + static_cast<Addr>(g) * 0x1000000;
                work.dma_copies.push_back(trace::DmaCopy{
                    dst, icn::AddrRange{staging, list_bytes}});
            }
            work.dma_extra_local_bytes += list_bytes * 4;
        }
    }

    return iter;
}

} // namespace fp::workloads
