/**
 * @file
 * Metrics export: snapshotting every registered StatGroup to JSON.
 *
 * Simulated components own their StatGroups, and a run's component
 * tree is torn down when the driver returns - so the exporter must
 * capture while the system is alive. The driver calls
 * MetricsCapture::captureNow() just before teardown; the CLI then
 * composes the captured groups with the sampler's time series into the
 * final stats document (schema in docs/observability.md).
 */

#ifndef FP_OBS_METRICS_HH
#define FP_OBS_METRICS_HH

#include <cstdint>
#include <ostream>
#include <string>

#include "obs/sampler.hh"

namespace fp::obs {

class FlowCollector;
class Profiler;

class MetricsCapture
{
  public:
    /**
     * Serialize every StatGroup currently in the process-wide
     * MetricsRegistry into the stored snapshot (a JSON array of group
     * objects), replacing any previous snapshot.
     */
    void captureNow();

    bool captured() const { return !_groups_json.empty(); }

    /** The captured groups array; "[]" when nothing was captured. */
    const std::string &groupsJson() const;

    /**
     * FNV-1a digest of groupsJson() followed, when @p sampler is
     * non-null, by its time series. It leaves out the build
     * provenance, so builds of two commits with the same statistics
     * give the same digest.
     */
    std::uint64_t digest(const PeriodicSampler *sampler = nullptr) const;

    /**
     * Write the complete stats document: schema version, build
     * provenance, the captured groups, (when @p sampler is non-null)
     * its time series, (when @p profiler is non-null) the host-side
     * self-profiling section, and (when @p flows is non-null) the
     * fabric flow-observability section. Provenance is constant per
     * binary and the `host` / `fabric` keys only appear when
     * explicitly requested, so digesting the default-argument document
     * stays stable across instrumented and plain runs.
     *
     * @p partial marks a document captured from an interrupted run
     * (SIGINT): the frame gains `"partial":true` right after the
     * schema version so downstream tooling never mistakes a truncated
     * run for a complete one. Complete documents omit the key, keeping
     * historical digests stable.
     */
    void writeDocument(std::ostream &os,
                       const PeriodicSampler *sampler = nullptr,
                       const Profiler *profiler = nullptr,
                       const FlowCollector *flows = nullptr,
                       bool partial = false) const;

  private:
    std::string _groups_json;
};

} // namespace fp::obs

#endif // FP_OBS_METRICS_HH
