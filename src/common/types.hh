/**
 * @file
 * Fundamental scalar types shared across the FinePack simulator.
 */

#ifndef FP_COMMON_TYPES_HH
#define FP_COMMON_TYPES_HH

#include <cstdint>
#include <limits>

namespace fp {

/** Simulation time in picoseconds. */
using Tick = std::uint64_t;

/** A physical (per-GPU) or global byte address. */
using Addr = std::uint64_t;

/** Identifies one GPU in the multi-GPU system. */
using GpuId = std::uint32_t;

/** Sentinel for "no GPU" / broadcast contexts. */
inline constexpr GpuId invalid_gpu = std::numeric_limits<GpuId>::max();

/** Sentinel address, matches the paper's UINT64_MAX base-register reset. */
inline constexpr Addr invalid_addr = std::numeric_limits<Addr>::max();

inline constexpr Tick max_tick = std::numeric_limits<Tick>::max();

/** Ticks per common time unit (1 tick == 1 ps). */
inline constexpr Tick ticks_per_ns = 1000;
inline constexpr Tick ticks_per_us = 1000 * ticks_per_ns;
inline constexpr Tick ticks_per_ms = 1000 * ticks_per_us;
inline constexpr Tick ticks_per_sec = 1000 * ticks_per_ms;

/** Byte-size literals. */
inline constexpr std::uint64_t KiB = 1024;
inline constexpr std::uint64_t MiB = 1024 * KiB;
inline constexpr std::uint64_t GiB = 1024 * MiB;

} // namespace fp

#endif // FP_COMMON_TYPES_HH
