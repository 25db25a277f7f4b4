/**
 * @file
 * FinePack configuration: the sub-transaction header geometry of Table II
 * and the structure sizes of Table III.
 */

#ifndef FP_FINEPACK_CONFIG_HH
#define FP_FINEPACK_CONFIG_HH

#include <cstdint>

#include "common/types.hh"

namespace fp::finepack {

/**
 * Parameters of one FinePack deployment.
 *
 * The sub-transaction header always reserves 10 bits for the payload
 * length (mirroring PCIe); the remaining sub-header bits form the address
 * offset, so the addressable range per outer transaction is
 * 2^(8*subheader_bytes - 10) bytes (paper Table II).
 */
struct FinePackConfig
{
    /** Sub-transaction header size in bytes (paper sweeps 2..6). */
    std::uint32_t subheader_bytes = 5;
    /** Bits of the sub-header reserved for the payload length. */
    std::uint32_t length_bits = 10;
    /** Maximum outer-transaction payload (PCIe max payload size). */
    std::uint32_t max_payload = 4096;
    /** Remote write queue entries per destination partition. */
    std::uint32_t queue_entries = 64;
    /**
     * Data bytes per remote write queue entry: one 128 B cache line,
     * whose byte enables are two 64-bit words (fixed by the hardware).
     */
    static constexpr std::uint32_t entry_bytes = 128;
    /**
     * Concurrently open outer transactions (base+offset windows) per
     * destination partition. The paper evaluates 1 and discusses
     * multiple windows as a way to avoid thrashing when access
     * streams straddle alignment boundaries (Section IV-C); the SRAM
     * entry budget is split evenly among windows.
     */
    std::uint32_t windows_per_partition = 1;

    /** Bits of the sub-header available as the address offset. */
    std::uint32_t
    offsetBits() const
    {
        return subheader_bytes * 8 - length_bits;
    }

    /** Addressable range per outer transaction, 2^offsetBits() bytes. */
    std::uint64_t
    addressableRange() const
    {
        return 1ull << offsetBits();
    }

    /** Sanity-check the configuration; fp_fatal on user error. */
    void validate() const;
};

/** The paper's Table III FinePack configuration (GV100, 4 GPUs). */
FinePackConfig defaultConfig();

/** A configuration with @p subheader_bytes (Figure 12 sweep points). */
FinePackConfig configWithSubheader(std::uint32_t subheader_bytes);

} // namespace fp::finepack

#endif // FP_FINEPACK_CONFIG_HH
