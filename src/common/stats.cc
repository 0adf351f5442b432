#include "stats.hh"

#include <cstdio>

namespace pri
{

double
StatGroup::scalarValue(const std::string &name) const
{
    auto it = scalars.find(name);
    return it == scalars.end() ? 0.0 : it->second.value();
}

std::string
StatGroup::report(const std::string &prefix) const
{
    std::string out;
    char line[256];
    for (const auto &[name, s] : scalars) {
        std::snprintf(line, sizeof(line), "%s%-44s %16.4f\n",
                      prefix.c_str(), name.c_str(), s.value());
        out += line;
    }
    for (const auto &[name, a] : avgs) {
        std::snprintf(line, sizeof(line),
                      "%s%-44s mean %12.4f  n %10llu  min %.2f  "
                      "max %.2f\n",
                      prefix.c_str(), name.c_str(), a.mean(),
                      static_cast<unsigned long long>(a.count()),
                      a.min(), a.max());
        out += line;
    }
    return out;
}

} // namespace pri
