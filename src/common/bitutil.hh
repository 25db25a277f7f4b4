/**
 * @file
 * Small bit-manipulation and alignment helpers used throughout the
 * interconnect and FinePack models.
 */

#ifndef FP_COMMON_BITUTIL_HH
#define FP_COMMON_BITUTIL_HH

#include <bit>
#include <cstdint>

#include "common/logging.hh"
#include "common/types.hh"

namespace fp::common {

/** True iff @p value is a power of two (zero is not). */
constexpr bool
isPowerOfTwo(std::uint64_t value)
{
    return value != 0 && (value & (value - 1)) == 0;
}

/** Round @p value down to a multiple of @p align (power of two). */
constexpr std::uint64_t
alignDown(std::uint64_t value, std::uint64_t align)
{
    return value & ~(align - 1);
}

/** Round @p value up to a multiple of @p align (power of two). */
constexpr std::uint64_t
alignUp(std::uint64_t value, std::uint64_t align)
{
    return (value + align - 1) & ~(align - 1);
}

/** Round @p value up to a multiple of arbitrary (non-zero) @p unit. */
constexpr std::uint64_t
roundUpTo(std::uint64_t value, std::uint64_t unit)
{
    return ((value + unit - 1) / unit) * unit;
}

/** Ceiling division. */
constexpr std::uint64_t
divCeil(std::uint64_t a, std::uint64_t b)
{
    return (a + b - 1) / b;
}

/** Number of bits needed to represent values in [0, n). */
constexpr unsigned
bitsFor(std::uint64_t n)
{
    if (n <= 1)
        return 0;
    return 64u - static_cast<unsigned>(std::countl_zero(n - 1));
}

/** Extract bits [lo, hi] (inclusive) of @p value. */
constexpr std::uint64_t
bits(std::uint64_t value, unsigned hi, unsigned lo)
{
    std::uint64_t mask = hi >= 63 ? ~0ull : ((1ull << (hi + 1)) - 1);
    return (value & mask) >> lo;
}

/** A mask with the low @p n bits set. */
constexpr std::uint64_t
mask(unsigned n)
{
    return n >= 64 ? ~0ull : (1ull << n) - 1;
}

} // namespace fp::common

#endif // FP_COMMON_BITUTIL_HH
