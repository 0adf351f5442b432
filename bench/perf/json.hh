/**
 * @file
 * The little JSON pri_perf needs: reading BENCHMARK.json and its own
 * result files (--compare, --smoke), and quoting strings it writes.
 */

#ifndef PRI_PERF_JSON_HH
#define PRI_PERF_JSON_HH

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pri::perf
{

struct Json
{
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<Json> array;
    std::vector<std::pair<std::string, Json>> object;

    /** Member @p key of an object, or nullptr. */
    const Json *find(std::string_view key) const;
};

/** Parse a whole document; false with @p err on malformed input. */
bool parseJson(std::string_view text, Json &out, std::string &err);

/** Read and parse @p path. */
bool readJsonFile(const std::string &path, Json &out, std::string &err);

/** @p s as a JSON string literal. */
std::string jsonQuote(std::string_view s);

} // namespace pri::perf

#endif // PRI_PERF_JSON_HH
