/**
 * @file
 * A small statistics package in the spirit of gem5's: named scalar
 * counters and averages, grouped in a registry that can render a
 * human-readable report, plus a fixed-bucket distribution for
 * harnesses that histogram values themselves. Simulation objects
 * register their stats against a StatGroup; benches and examples
 * query them by name.
 */

#ifndef PRI_COMMON_STATS_HH
#define PRI_COMMON_STATS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pri
{

/** A named monotonically updated scalar statistic. */
class StatScalar
{
  public:
    StatScalar() = default;

    StatScalar &operator++() { val += 1.0; return *this; }
    StatScalar &operator+=(double x) { val += x; return *this; }
    StatScalar &operator-=(double x) { val -= x; return *this; }
    void set(double x) { val = x; }
    double value() const { return val; }

  private:
    double val = 0.0;
};

/** Accumulates samples; reports count / sum / mean / min / max. */
class StatAverage
{
  public:
    /** Record one sample. */
    void
    sample(double x)
    {
        cnt += 1;
        sum += x;
        if (cnt == 1 || x < mn)
            mn = x;
        if (cnt == 1 || x > mx)
            mx = x;
    }

    uint64_t count() const { return cnt; }
    double total() const { return sum; }
    double mean() const { return cnt ? sum / cnt : 0.0; }
    double min() const { return mn; }
    double max() const { return mx; }

  private:
    uint64_t cnt = 0;
    double sum = 0.0;
    double mn = 0.0;
    double mx = 0.0;
};

/**
 * Histogram over integer buckets [0, size); samples beyond the last
 * bucket are clamped into it. Used for operand-significance CDFs and
 * lifetime distributions.
 */
class StatDistribution
{
  public:
    explicit StatDistribution(size_t size = 0) : buckets(size, 0) {}

    /** Record a sample at integer position @p x (clamped). */
    void
    sample(uint64_t x)
    {
        if (buckets.empty())
            return;
        const size_t i =
            x >= buckets.size() ? buckets.size() - 1
                                : static_cast<size_t>(x);
        ++buckets[i];
        ++samples;
    }

    uint64_t count() const { return samples; }
    size_t size() const { return buckets.size(); }
    uint64_t bucket(size_t i) const { return buckets.at(i); }

    /** Fraction of samples at positions <= i (cumulative). */
    double
    cdfAt(size_t i) const
    {
        if (samples == 0)
            return 0.0;
        uint64_t acc = 0;
        for (size_t k = 0; k <= i && k < buckets.size(); ++k)
            acc += buckets[k];
        return static_cast<double>(acc) / samples;
    }

    /** Mean bucket position of all samples. */
    double
    mean() const
    {
        if (samples == 0)
            return 0.0;
        double acc = 0.0;
        for (size_t k = 0; k < buckets.size(); ++k)
            acc += static_cast<double>(k) * buckets[k];
        return acc / samples;
    }

  private:
    std::vector<uint64_t> buckets;
    uint64_t samples = 0;
};

/**
 * A registry of named stats owned by one simulated component.
 * Names are dotted paths ("core.commit.insts").
 */
class StatGroup
{
  public:
    /**
     * Create or fetch a scalar stat. Components intern their
     * hot-path counters through this at construction and keep the
     * reference, so an update costs one add: references stay valid
     * for the group's lifetime (node-based map).
     */
    StatScalar &scalar(const std::string &name) { return scalars[name]; }
    /** Create or fetch an average stat (same reference guarantee). */
    StatAverage &average(const std::string &name) { return avgs[name]; }

    /** Read-only lookup; returns 0 for unknown names. */
    double scalarValue(const std::string &name) const;

    /** Render a sorted "name value" report. */
    std::string report(const std::string &prefix = "") const;

  private:
    std::map<std::string, StatScalar> scalars;
    std::map<std::string, StatAverage> avgs;
};

} // namespace pri

#endif // PRI_COMMON_STATS_HH
