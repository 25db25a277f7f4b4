/**
 * @file
 * Lightweight statistics package, loosely modeled on gem5's stats.
 *
 * A StatGroup owns named statistics; components register Scalar, Average,
 * Distribution, and Histogram stats and the group can render them all or
 * expose them programmatically to the metrics collector / benches.
 */

#ifndef FP_COMMON_STATS_HH
#define FP_COMMON_STATS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/sync.h"
#include "common/types.hh"

namespace fp::common {

/** A monotonically accumulated counter / gauge. */
class Scalar
{
  public:
    Scalar &operator+=(double v) { _value += v; return *this; }
    Scalar &operator-=(double v) { _value -= v; return *this; }
    Scalar &operator++() { _value += 1.0; return *this; }
    void set(double v) { _value = v; }
    void reset() { _value = 0.0; }
    double value() const { return _value; }

  private:
    double _value = 0.0;
};

/** Mean of a stream of samples. */
class Average
{
  public:
    void
    sample(double v)
    {
        _sum += v;
        ++_count;
    }

    void reset() { _sum = 0.0; _count = 0; }
    double mean() const { return _count ? _sum / _count : 0.0; }
    double sum() const { return _sum; }
    std::uint64_t count() const { return _count; }

  private:
    double _sum = 0.0;
    std::uint64_t _count = 0;
};

/**
 * A bucketed distribution over a fixed [min, max) range with uniform
 * bucket width, plus underflow/overflow and moment tracking.
 */
class Distribution
{
  public:
    Distribution() = default;

    /** Configure as @p n_buckets uniform buckets over [lo, hi). */
    void
    init(double lo, double hi, std::size_t n_buckets)
    {
        fp_assert(hi > lo && n_buckets > 0, "bad distribution bounds");
        _lo = lo;
        _hi = hi;
        _buckets.assign(n_buckets, 0);
        _bucket_width = (hi - lo) / static_cast<double>(n_buckets);
        reset();
    }

    void sample(double v, std::uint64_t weight = 1);
    void reset();

    std::uint64_t count() const { return _count; }
    double mean() const { return _count ? _sum / _count : 0.0; }
    double variance() const;
    double min() const { return _min; }
    double max() const { return _max; }
    std::uint64_t underflow() const { return _underflow; }
    std::uint64_t overflow() const { return _overflow; }
    const std::vector<std::uint64_t> &buckets() const { return _buckets; }
    double bucketLow(std::size_t i) const { return _lo + i * _bucket_width; }

  private:
    double _lo = 0.0, _hi = 1.0, _bucket_width = 1.0;
    std::vector<std::uint64_t> _buckets{1, 0};
    std::uint64_t _underflow = 0, _overflow = 0, _count = 0;
    double _sum = 0.0, _sum_sq = 0.0;
    double _min = 0.0, _max = 0.0;
};

/** A histogram over explicit, caller-supplied bucket edge values. */
class Histogram
{
  public:
    /** Bucket i covers [edges[i], edges[i+1]); last bucket is unbounded. */
    void
    init(std::vector<double> edges)
    {
        fp_assert(!edges.empty(), "histogram needs at least one edge");
        for (std::size_t i = 1; i < edges.size(); ++i)
            fp_assert(edges[i] > edges[i - 1], "edges must increase");
        _edges = std::move(edges);
        _counts.assign(_edges.size(), 0);
        _total = 0;
        _min = _max = 0.0;
    }

    void sample(double v, std::uint64_t weight = 1);
    void reset();

    std::uint64_t total() const { return _total; }
    const std::vector<double> &edges() const { return _edges; }
    const std::vector<std::uint64_t> &counts() const { return _counts; }
    double min() const { return _min; }
    double max() const { return _max; }

    /**
     * Approximate quantile @p p in [0, 1], linearly interpolated within
     * the containing bucket and clamped to the observed [min, max]
     * (exact at the extremes; the unbounded last bucket interpolates
     * toward the observed max). Returns 0 for an empty histogram.
     */
    double percentile(double p) const;

    /** Fraction of samples landing in bucket @p i. */
    double
    fraction(std::size_t i) const
    {
        fp_assert(i < _counts.size(), "histogram bucket out of range");
        return _total ? static_cast<double>(_counts[i]) / _total : 0.0;
    }

  private:
    std::vector<double> _edges;
    std::vector<std::uint64_t> _counts;
    std::uint64_t _total = 0;
    double _min = 0.0;
    double _max = 0.0;
};

class JsonWriter;

/**
 * A named collection of statistics. Non-owning: stats live in their
 * components; the group records (name, description, accessor) tuples
 * for reporting. Every group registers itself with the process-wide
 * MetricsRegistry for its lifetime, so the metrics exporter can walk
 * all live groups without explicit wiring.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name);
    ~StatGroup();

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    void registerScalar(const std::string &name, const Scalar *stat,
                        const std::string &desc = "");
    void registerAverage(const std::string &name, const Average *stat,
                         const std::string &desc = "");
    void registerDistribution(const std::string &name,
                              const Distribution *stat,
                              const std::string &desc = "");
    void registerHistogram(const std::string &name, const Histogram *stat,
                           const std::string &desc = "");

    const std::string &name() const { return _name; }

    /** Look up a registered scalar by name; panics if absent. */
    double scalarValue(const std::string &name) const;
    /** Look up a registered average by name; panics if absent. */
    double averageValue(const std::string &name) const;

    bool hasScalar(const std::string &name) const;

    /** Render all registered stats, one per line, gem5-dump style. */
    void dump(std::ostream &os) const;

    /**
     * Serialize every registered stat as one JSON object (the schema
     * documented in docs/observability.md): name plus one sub-object
     * per stat kind, each member keyed by stat name.
     */
    void dumpJson(JsonWriter &json) const;

  private:
    struct Named
    {
        std::string desc;
        const void *stat;
    };

    std::string _name;
    std::map<std::string, Named> _scalars;
    std::map<std::string, Named> _averages;
    std::map<std::string, Named> _distributions;
    std::map<std::string, Named> _histograms;
};

/**
 * Process-wide registry of all live StatGroups, in registration order.
 * StatGroup's constructor/destructor maintain membership; the metrics
 * exporter serializes the registry while the simulated system is still
 * alive (components own their groups, so a torn-down system leaves the
 * registry automatically).
 *
 * Thread safety: membership is guarded by an internal fp::Mutex, so
 * concurrent simulations (the parallel sweep runner) may construct and
 * destroy StatGroups freely. The groups themselves are NOT locked: a
 * StatGroup and its stats stay confined to the simulation that owns
 * them, so dumpJson() must only run while no other thread is mutating
 * live groups (e.g. after a sweep batch has drained).
 */
class MetricsRegistry
{
  public:
    static MetricsRegistry &instance();

    /** Snapshot of the live groups, in registration order. */
    std::vector<const StatGroup *> groups() const FP_EXCLUDES(_mu);

    /** Serialize all live groups as one JSON array of group objects. */
    void dumpJson(JsonWriter &json) const FP_EXCLUDES(_mu);

  private:
    friend class StatGroup;

    void add(const StatGroup *group) FP_EXCLUDES(_mu);
    void remove(const StatGroup *group) FP_EXCLUDES(_mu);

    mutable fp::Mutex _mu;
    std::vector<const StatGroup *> _groups FP_GUARDED_BY(_mu);
};

} // namespace fp::common

#endif // FP_COMMON_STATS_HH
