#include "finepack/config.hh"

#include "common/logging.hh"

namespace fp::finepack {

void
FinePackConfig::validate() const
{
    if (subheader_bytes < 2 || subheader_bytes > 8)
        fp_fatal("sub-header must be 2..8 bytes, got ", subheader_bytes);
    if (length_bits == 0 || length_bits >= subheader_bytes * 8)
        fp_fatal("length bits must leave room for an address offset");
    if ((1u << length_bits) <= entry_bytes)
        fp_fatal("length field too narrow for a full queue entry");
    if (max_payload == 0 || max_payload % 4 != 0)
        fp_fatal("max payload must be a non-zero DW multiple");
    if (windows_per_partition == 0)
        fp_fatal("at least one window per partition is required");
    if (queue_entries % windows_per_partition != 0)
        fp_fatal("windows must split the entry budget evenly: ",
                 queue_entries, " entries across ",
                 windows_per_partition, " windows");
}

FinePackConfig
defaultConfig()
{
    FinePackConfig config;
    config.subheader_bytes = 5; // 30-bit offset => 1 GiB window
    config.length_bits = 10;
    config.max_payload = 4096;
    config.validate();
    return config;
}

FinePackConfig
configWithSubheader(std::uint32_t subheader_bytes)
{
    FinePackConfig config = defaultConfig();
    config.subheader_bytes = subheader_bytes;
    config.validate();
    return config;
}

} // namespace fp::finepack
