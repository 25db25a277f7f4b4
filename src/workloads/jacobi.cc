#include "workloads/jacobi.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "trace/store_stream.hh"

namespace fp::workloads {

namespace {

/** Rows at scale 1, and the fewest rows at any scale. */
constexpr double rows_at_scale_1 = 262144;
constexpr std::uint64_t min_rows = 4096;
/** Every GPU's rows are a whole number of lines (16 doubles). */
constexpr std::uint64_t line_rows = 16;

} // namespace

void
JacobiWorkload::setup(const WorkloadParams &params)
{
    _params = params;
    auto n = static_cast<std::uint64_t>(rows_at_scale_1 * params.scale);
    n = std::max<std::uint64_t>(n, min_rows);
    // Keep partition boundaries cache-line aligned (16 doubles), as a
    // real allocator/partitioner would; halo pushes then coalesce into
    // full 128 B lines.
    n = n / (line_rows * params.num_gpus) * (line_rows * params.num_gpus);
    std::uint64_t half_band = 128;

    _system = makeBandedSystem(n, half_band, params.seed);
    _x.assign(n, 0.0);
    _x_next.assign(n, 0.0);
}

double
JacobiWorkload::minScale(std::uint32_t num_gpus) const
{
    // Rounding the rows down to whole lines per GPU leaves none unless
    // every GPU gets at least one line.
    const std::uint64_t needed = line_rows * num_gpus;
    return needed > min_rows ? static_cast<double>(needed) / rows_at_scale_1
                             : 0.0;
}

trace::IterationWork
JacobiWorkload::runIteration(std::uint32_t)
{
    const std::uint64_t n = _system.n;
    const std::uint64_t hb = _system.half_band;
    const std::uint32_t gpus = _params.num_gpus;

    trace::IterationWork iter;
    iter.per_gpu.resize(gpus);
    iter.consumed.resize(gpus);

    // --- Execute the real Jacobi sweep, partitioned by GPU ------------
    for (GpuId g = 0; g < gpus; ++g) {
        auto [begin, end] = blockPartition(n, gpus, g);
        auto &work = iter.per_gpu[g];

        for (std::uint64_t i = begin; i < end; ++i) {
            double sum = 0.0;
            std::int64_t lo = -static_cast<std::int64_t>(
                std::min<std::uint64_t>(i, hb));
            std::int64_t hi = static_cast<std::int64_t>(
                std::min<std::uint64_t>(n - 1 - i, hb));
            for (std::int64_t k = lo; k <= hi; ++k) {
                if (k == 0)
                    continue;
                sum += _system.coeff(i, k) *
                       _x[i + static_cast<std::uint64_t>(k)];
            }
            _x_next[i] = (_system.rhs(i) - sum) / _system.coeff(i, 0);
        }

        // Roofline inputs: one band row read + x reads + one write.
        double rows = static_cast<double>(end - begin);
        work.flops = rows * 2.0 * static_cast<double>(2 * hb + 1);
        work.local_bytes = static_cast<std::uint64_t>(
            rows * ((2.0 * hb + 1) * 8.0 * 2.0 + 16.0));
    }
    std::swap(_x, _x_next);

    // --- Emit the halo exchange ---------------------------------------
    for (GpuId g = 0; g < gpus; ++g) {
        auto [begin, end] = blockPartition(n, gpus, g);
        auto &work = iter.per_gpu[g];
        trace::StoreStreamBuilder stream(g, work.remote_stores,
                                         _coalescer);

        auto push_range = [&](GpuId dst, std::uint64_t lo,
                              std::uint64_t hi) {
            // Thread-per-element halo store: consecutive lanes write
            // consecutive doubles, coalescing to 128 B accesses.
            for (std::uint64_t i = lo; i < hi; ++i)
                stream.laneWrite(dst, x_base + i * 8, 8);
            stream.flushWarp();

            icn::AddrRange range{x_base + lo * 8, (hi - lo) * 8};
            work.dma_copies.push_back(trace::DmaCopy{dst, range});
            iter.consumed[dst].push_back(range);
        };

        if (g > 0) {
            // Left neighbour reads our first half_band values.
            push_range(g - 1, begin,
                       std::min(end, begin + hb));
        }
        if (g + 1 < gpus) {
            // Right neighbour reads our last half_band values.
            push_range(g + 1, end > hb ? std::max(begin, end - hb) : begin,
                       end);
        }
    }

    return iter;
}

double
JacobiWorkload::residual() const
{
    const std::uint64_t n = _system.n;
    const std::uint64_t hb = _system.half_band;
    double worst = 0.0;
    for (std::uint64_t i = 0; i < n; ++i) {
        double sum = 0.0;
        std::int64_t lo =
            -static_cast<std::int64_t>(std::min<std::uint64_t>(i, hb));
        std::int64_t hi = static_cast<std::int64_t>(
            std::min<std::uint64_t>(n - 1 - i, hb));
        for (std::int64_t k = lo; k <= hi; ++k)
            sum += _system.coeff(i, k) *
                   _x[i + static_cast<std::uint64_t>(k)];
        worst = std::max(worst, std::abs(sum - _system.rhs(i)));
    }
    return worst;
}

} // namespace fp::workloads
