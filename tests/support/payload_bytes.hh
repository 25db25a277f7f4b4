/**
 * @file
 * Payload bytes for the stores a test builds. An icn::Store only points
 * at its payload, so whoever builds a store with bytes keeps them alive
 * for as long as the store is used; these helpers keep them for the
 * rest of the test program.
 */

#ifndef FP_TESTS_SUPPORT_PAYLOAD_BYTES_HH
#define FP_TESTS_SUPPORT_PAYLOAD_BYTES_HH

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "interconnect/store.hh"

namespace fp::testing {

/**
 * Keep @p bytes until the test program exits. @return where they lie,
 * or null for no bytes (a store without payload).
 */
inline const std::uint8_t *
payload(std::vector<std::uint8_t> bytes)
{
    static std::deque<std::vector<std::uint8_t>> kept;
    if (bytes.empty())
        return nullptr;
    return kept.emplace_back(std::move(bytes)).data();
}

/** A copy of @p store's payload bytes; empty when it carries none. */
inline std::vector<std::uint8_t>
bytesOf(const icn::Store &store)
{
    if (!store.data)
        return {};
    return {store.data, store.data + store.size};
}

} // namespace fp::testing

#endif // FP_TESTS_SUPPORT_PAYLOAD_BYTES_HH
