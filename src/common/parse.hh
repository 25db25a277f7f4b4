/**
 * @file
 * Whole-token number parsing, shared by fptrace's flags and the bench
 * environment variables so a bad value never becomes a silent default.
 */

#ifndef FP_COMMON_PARSE_HH
#define FP_COMMON_PARSE_HH

#include <charconv>
#include <cstdlib>
#include <string_view>
#include <system_error>

#include "common/logging.hh"

namespace fp::common {

/**
 * Parse @p text as one whole T in [lo, hi] (no sign on an unsigned T,
 * no stray characters, no nan or inf); false leaves @p value alone.
 */
template <typename T>
bool
parseNumber(std::string_view text, T lo, T hi, T &value)
{
    const char *end = text.data() + text.size();
    T parsed{};
    auto [stop, error] = std::from_chars(text.data(), end, parsed);
    const bool ok = error == std::errc() && stop == end && parsed >= lo &&
                    parsed <= hi;
    if (ok)
        value = parsed;
    return ok;
}

/**
 * The environment variable @p name as a T in [lo, hi], or @p fallback
 * when it is unset. Any other value is a fatal error whose message
 * names the variable and its range.
 */
template <typename T>
T
envNumber(const char *name, T fallback, T lo, T hi)
{
    T value = fallback;
    const char *text = std::getenv(name);
    if (text && !parseNumber(std::string_view(text), lo, hi, value)) {
        fp_fatal(name, " must be a number in [", lo, ", ", hi, "], not '",
                 text, "'");
    }
    return value;
}

} // namespace fp::common

#endif // FP_COMMON_PARSE_HH
