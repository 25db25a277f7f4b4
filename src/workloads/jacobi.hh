/**
 * @file
 * Jacobi iterative solver on a banded, strictly diagonally dominant
 * linear system (paper Section V): the regular workload whose halo
 * stores coalesce into full 128 B cache lines.
 *
 * Rows are block-partitioned; each GPU owns a contiguous slice of x.
 * After computing its slice each iteration, a GPU pushes the half_band
 * boundary values adjacent to each neighbour (peer-to-peer pattern).
 */

#ifndef FP_WORKLOADS_JACOBI_HH
#define FP_WORKLOADS_JACOBI_HH

#include "workloads/datasets.hh"
#include "workloads/workload.hh"

namespace fp::workloads {

class JacobiWorkload : public Workload
{
  public:
    const char *name() const override { return "jacobi"; }
    const char *commPattern() const override { return "peer-to-peer"; }

    void setup(const WorkloadParams &params) override;
    double minScale(std::uint32_t num_gpus) const override;
    std::uint32_t numIterations() const override { return 8; }
    trace::IterationWork runIteration(std::uint32_t it) override;

    /** Residual ||Ax - b||_inf of the current solution estimate. */
    double residual() const;

    /** Device-local base address of the replicated x vector. */
    static constexpr Addr x_base = 0x40000000;

  private:
    BandedSystem _system;
    std::vector<double> _x;
    std::vector<double> _x_next;
};

} // namespace fp::workloads

#endif // FP_WORKLOADS_JACOBI_HH
