#include "result_codec.hh"

#include <array>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <iterator>
#include <limits>

namespace pri::sim::codec
{

namespace
{

constexpr size_t kFirstCount = 5;
constexpr size_t kFirstRate = kFirstCount + std::size(kResultCounts);
constexpr size_t kArchSig = kFirstRate + std::size(kResultRates);
constexpr size_t kReport = kArchSig + 1;

using Fields = std::array<std::string_view, kResultFields>;

/** Escape tabs/newlines/backslashes so a report is one field. */
std::string
escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default: out += c;
        }
    }
    return out;
}

/** Split @p line on tabs into exactly kResultFields raw views (no
 *  unescaping). Tolerates one trailing newline so a line straight
 *  from formatResultLine() parses like a stripped journal line. */
bool
splitFields(std::string_view line, Fields &f)
{
    if (!line.empty() && line.back() == '\n')
        line.remove_suffix(1);
    for (size_t i = 0; i + 1 < kResultFields; ++i) {
        const size_t tab = line.find('\t');
        if (tab == std::string_view::npos)
            return false;
        f[i] = line.substr(0, tab);
        line.remove_prefix(tab + 1);
    }
    // A 26th field leaves a tab in the last view, which then fails
    // the sentinel check.
    f[kResultFields - 1] = line;
    return true;
}

/** True when from_chars consumed all of @p s without error. */
bool
whole(std::string_view s, std::from_chars_result res)
{
    return res.ec == std::errc() && res.ptr == s.data() + s.size();
}

/** A %llu field: digits only, no leading zero, in range. */
bool
parseU64(std::string_view s, uint64_t &out)
{
    if (s.size() > 1 && s[0] == '0')
        return false;
    return whole(s, std::from_chars(s.data(), s.data() + s.size(), out));
}

/** A %016llx field: exactly 16 lowercase hex digits. */
bool
parseHex64(std::string_view s, uint64_t &out)
{
    if (s.size() != 16)
        return false;
    for (const char c : s) {
        if ((c < '0' || c > '9') && (c < 'a' || c > 'f'))
            return false;
    }
    return whole(s,
                 std::from_chars(s.data(), s.data() + s.size(), out, 16));
}

/**
 * A %a field: [-]0x<hexfloat>, [-]inf or [-]nan. from_chars takes
 * the hexfloat without its "0x" and would take a sign after it, so
 * the sign and prefix are checked here. Hexfloats are exact, so the
 * bits round-trip and resumed reports stay identical.
 */
bool
parseF64(std::string_view s, double &out)
{
    const bool neg = !s.empty() && s[0] == '-';
    if (neg)
        s.remove_prefix(1);
    if (s == "inf") {
        out = std::numeric_limits<double>::infinity();
    } else if (s == "nan") {
        out = std::numeric_limits<double>::quiet_NaN();
    } else {
        if (s.size() < 3 || s[0] != '0' || s[1] != 'x' ||
            !std::isxdigit(static_cast<unsigned char>(s[2]))) {
            return false;
        }
        s.remove_prefix(2);
        if (!whole(s, std::from_chars(s.data(), s.data() + s.size(), out,
                                      std::chars_format::hex))) {
            return false;
        }
    }
    if (neg)
        out = -out;
    return true;
}

/** Every field but the strings and the report, validated. */
bool
parseNumbers(const Fields &f, uint64_t &key, RunResult &r)
{
    uint64_t width = 0;
    if (f[0] != kResultTag || f[kResultFields - 1] != "." ||
        !parseHex64(f[1], key) || !parseU64(f[4], width) ||
        width > std::numeric_limits<unsigned>::max()) {
        return false;
    }
    r.width = static_cast<unsigned>(width);
    for (size_t i = 0; i < std::size(kResultCounts); ++i) {
        if (!parseU64(f[kFirstCount + i], r.*kResultCounts[i].member))
            return false;
    }
    for (size_t i = 0; i < std::size(kResultRates); ++i) {
        if (!parseF64(f[kFirstRate + i], r.*kResultRates[i].member))
            return false;
    }
    return parseHex64(f[kArchSig], r.archSig);
}

/** Tab-separated line builder with the shared number formats. */
class LineBuilder
{
  public:
    explicit LineBuilder(const char *tag) : line(tag) {}

    void
    add(const std::string &s)
    {
        line += '\t';
        line += s;
    }

    void
    addU64(uint64_t v)
    {
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(v));
        add(buf);
    }

    void
    addF64(double v)
    {
        std::snprintf(buf, sizeof(buf), "%a", v);
        add(buf);
    }

    void
    addHex64(uint64_t v)
    {
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(v));
        add(buf);
    }

    std::string
    finish()
    {
        add(".");
        line += '\n';
        return std::move(line);
    }

  private:
    std::string line;
    char buf[64];
};

} // namespace

std::string
formatResultLine(uint64_t key, const RunResult &r)
{
    LineBuilder b(kResultTag);
    b.addHex64(key);
    b.add(r.benchmark);
    b.add(r.scheme);
    b.addU64(r.width);
    for (const auto &field : kResultCounts)
        b.addU64(r.*field.member);
    for (const auto &field : kResultRates)
        b.addF64(r.*field.member);
    b.addHex64(r.archSig);
    b.add(escape(r.report));
    return b.finish();
}

bool
parseResultFields(std::string_view line, uint64_t &key, RunResult &r,
                  std::string_view &escapedReport)
{
    Fields f;
    if (!splitFields(line, f) || !parseNumbers(f, key, r))
        return false;
    r.benchmark = f[2];
    r.scheme = f[3];
    escapedReport = f[kReport];
    return true;
}

/** Inverse of escape(), in one allocation: the runs between
 *  backslashes are copied whole. */
std::string
unescapeReport(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    while (true) {
        const size_t bs = s.find('\\');
        if (bs == std::string_view::npos || bs + 1 == s.size()) {
            out += s;
            return out;
        }
        out += s.substr(0, bs);
        switch (s[bs + 1]) {
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          default: out += s[bs + 1];
        }
        s.remove_prefix(bs + 2);
    }
}

bool
parseResultLine(std::string_view line, uint64_t &key, RunResult &r)
{
    std::string_view report;
    if (!parseResultFields(line, key, r, report))
        return false;
    r.report = unescapeReport(report);
    return true;
}

} // namespace pri::sim::codec
