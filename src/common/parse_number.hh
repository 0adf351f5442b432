/**
 * @file
 * Whole-token decimal parsing for command-line values: the one
 * number reader behind pri_sim's flags, the bench harness flags and
 * the numbers of the --inject-fault grammar, so "1s", "abc", "-1"
 * or an out-of-range value is an error everywhere instead of a
 * silently different number.
 */

#ifndef PRI_COMMON_PARSE_NUMBER_HH
#define PRI_COMMON_PARSE_NUMBER_HH

#include <charconv>
#include <optional>
#include <string_view>
#include <system_error>
#include <type_traits>

#include "common/logging.hh"

namespace pri
{

/** All of @p s as an unsigned decimal @p T (no sign, no whitespace,
 *  no trailing text, no overflow), or nullopt. */
template <typename T>
std::optional<T>
parseDecimal(std::string_view s)
{
    static_assert(std::is_unsigned_v<T>);
    T v{};
    const char *end = s.data() + s.size();
    const auto [ptr, ec] = std::from_chars(s.data(), end, v);
    if (ec != std::errc() || ptr != end)
        return std::nullopt;
    return v;
}

/** parseDecimal() of the value @p s given to @p flag, or a fatal
 *  naming both. */
template <typename T>
T
parseFlagValue(std::string_view flag, std::string_view s)
{
    const auto v = parseDecimal<T>(s);
    if (!v)
        fatal("invalid value '{}' for {}", s, flag);
    return *v;
}

} // namespace pri

#endif // PRI_COMMON_PARSE_NUMBER_HH
