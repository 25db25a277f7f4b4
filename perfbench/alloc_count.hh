/**
 * @file
 * Heap-allocation counting for the benchmark binary.
 *
 * alloc_count.cc replaces the global operator new / delete family, so
 * every C++ heap allocation the simulator makes in this process is
 * counted where it happens - vector growth, hash-map nodes and
 * std::function captures included. The counter is process-wide and
 * monotonic; callers take differences around the work they measure.
 */

#ifndef FP_PERFBENCH_ALLOC_COUNT_HH
#define FP_PERFBENCH_ALLOC_COUNT_HH

#include <cstdint>

namespace fp::perfbench {

/** Successful operator new calls since process start. */
std::uint64_t allocationCount();

} // namespace fp::perfbench

#endif // FP_PERFBENCH_ALLOC_COUNT_HH
