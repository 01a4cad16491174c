/**
 * @file
 * Lightweight statistics package.
 *
 * Components own their counters (plain std::uint64_t members) and
 * bind them once, at construction, into the system's Registry under
 * dotted paths; histograms are owned by the registry and shared by
 * path. Names are resolved only at report time (value(), dump(),
 * latency harvesting), never on the per-event path.
 */

#ifndef FUSION_SIM_STATS_HH
#define FUSION_SIM_STATS_HH

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "sim/logging.hh"

namespace fusion::stats
{

/** A fixed-bucket histogram over a linear range with overflow bins. */
class Histogram
{
  public:
    Histogram() : Histogram(0.0, 1.0, 1) {}

    /** Buckets span [lo, hi) in @p buckets equal steps. */
    Histogram(double lo, double hi, std::size_t buckets)
        : _lo(lo), _hi(hi),
          _bucketScale(static_cast<double>(buckets) / (hi - lo)),
          _counts(buckets, 0)
    {
        fusion_assert(hi > lo && buckets > 0, "bad histogram range");
    }

    /** Record one sample. */
    void
    sample(double v)
    {
        ++_samples;
        _sum += v;
        _min = _samples == 1 ? v : std::min(_min, v);
        _max = _samples == 1 ? v : std::max(_max, v);
        if (v < _lo) {
            ++_underflow;
        } else if (v >= _hi) {
            ++_overflow;
        } else {
            // One multiply by the precomputed buckets/(hi-lo) scale
            // instead of a subtract + divide per sample.
            auto idx =
                static_cast<std::size_t>((v - _lo) * _bucketScale);
            ++_counts[std::min(idx, _counts.size() - 1)];
        }
    }

    /**
     * Estimate the value at percentile @p p (0..100) by linear
     * interpolation. Mass inside a bucket interpolates across the
     * bucket's bounds; underflow mass interpolates over
     * [minValue, lo) and overflow mass over [hi, maxValue], so the
     * estimate is defined (and bounded by the observed extremes)
     * even when samples fell outside the bucketed range.
     */
    double
    percentile(double p) const
    {
        if (_samples == 0)
            return 0.0;
        p = std::min(std::max(p, 0.0), 100.0);
        // Continuous rank: p==0 -> min, p==100 -> max.
        double rank = p / 100.0 * static_cast<double>(_samples);
        double seen = 0.0;

        auto interp = [&](double count, double lo, double hi) {
            // Fraction of this bin's mass below the target rank.
            double f = count > 0 ? (rank - seen) / count : 0.0;
            f = std::min(std::max(f, 0.0), 1.0);
            return lo + f * (hi - lo);
        };

        if (_underflow && rank <= seen + _underflow)
            return interp(static_cast<double>(_underflow), _min,
                          std::min(_lo, _max));
        seen += static_cast<double>(_underflow);

        double width = (_hi - _lo) / static_cast<double>(_counts.size());
        for (std::size_t b = 0; b < _counts.size(); ++b) {
            double count = static_cast<double>(_counts[b]);
            if (count > 0 && rank <= seen + count) {
                double blo = _lo + width * static_cast<double>(b);
                // Clamp to observed extremes so a single-sample
                // bucket reports the sample, not the bucket edge.
                return std::min(std::max(interp(count, blo, blo + width),
                                         _min),
                                _max);
            }
            seen += count;
        }

        if (_overflow)
            return interp(static_cast<double>(_overflow),
                          std::max(_hi, _min), _max);
        return _max;
    }

    std::uint64_t samples() const { return _samples; }
    double sum() const { return _sum; }
    double mean() const { return _samples ? _sum / _samples : 0.0; }
    double minValue() const { return _samples ? _min : 0.0; }
    double maxValue() const { return _samples ? _max : 0.0; }
    std::uint64_t underflow() const { return _underflow; }
    std::uint64_t overflow() const { return _overflow; }
    const std::vector<std::uint64_t> &buckets() const { return _counts; }
    double bucketLow() const { return _lo; }
    double bucketHigh() const { return _hi; }

  private:
    double _lo;
    double _hi;
    double _bucketScale; ///< buckets / (hi - lo), precomputed
    std::uint64_t _samples = 0;
    double _sum = 0.0;
    double _min = 0.0;
    double _max = 0.0;
    std::uint64_t _underflow = 0;
    std::uint64_t _overflow = 0;
    std::vector<std::uint64_t> _counts;
};

/**
 * The flat stats registry of one simulated system.
 *
 * Counters live in the components that count them, as plain
 * std::uint64_t members incremented once per event; the registry
 * only records where each one lives, bound once at construction
 * under a dotted path ("axc0.l0x.evictions"). Several entries may
 * share a path — AUTO builds FUSION and FUSION-Dx, both naming their
 * L1X "l1x", and the LLC binds each agent's forward count under
 * "llc.fwds" — and every report-time reader sees their sum, while
 * each component's own accessors keep reading its own member. Nothing is created on a bump, so the path set is fixed
 * once construction ends.
 *
 * Entries point into their components: read the registry only while
 * the components that bound into it are alive.
 */
class Registry
{
  public:
    /** One member to bind under a group prefix (see counters()). */
    struct CounterRef
    {
        const char *name;
        const std::uint64_t &value;
    };

    /** Bind @p value under @p path. */
    void
    counter(const std::string &path, const std::uint64_t &value)
    {
        _counters[path].push_back(&value);
    }

    /** Bind each of @p refs under "<group>.<name>". */
    void
    counters(const std::string &group,
             std::initializer_list<CounterRef> refs)
    {
        for (const CounterRef &r : refs)
            counter(group + "." + r.name, r.value);
    }

    /**
     * The histogram at @p path: created with this shape on the first
     * request and shared by every later one (AUTO merges FUSION's and
     * FUSION-Dx's samples).
     */
    Histogram &
    histogram(const std::string &path, double lo, double hi,
              std::size_t buckets)
    {
        auto it = _histograms.find(path);
        if (it == _histograms.end())
            it = _histograms.emplace(path, Histogram(lo, hi, buckets))
                     .first;
        return it->second;
    }

    /** True when a counter is bound at @p path. */
    bool has(const std::string &path) const
    {
        return _counters.count(path) != 0;
    }

    /** Sum of the counters bound at @p path; panics if none is. */
    std::uint64_t value(const std::string &path) const;

    /** Histograms by path, name-sorted (latency harvesting). */
    const std::map<std::string, Histogram> &histograms() const
    {
        return _histograms;
    }

    /** Every bound counter and histogram path, sorted. */
    std::vector<std::string> paths() const;

    /**
     * Render one "sim.<path> value" line per counter path and four
     * per histogram (samples, mean, min, max) in tree order: at each
     * dotted level a group's counters, then its histograms, then its
     * subgroups, each by name. Leaves @p os at precision 12.
     */
    void dump(std::ostream &os) const;

  private:
    std::map<std::string, std::vector<const std::uint64_t *>>
        _counters;
    std::map<std::string, Histogram> _histograms;
};

} // namespace fusion::stats

#endif // FUSION_SIM_STATS_HH
