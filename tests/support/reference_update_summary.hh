/**
 * @file
 * Reference model of useful-byte accounting: the per-destination
 * implementation trace::summarizeTrace replaced, unchanged apart from
 * names, so the differential tests can compare the one-pass version
 * against it.
 *
 * For every (iteration, destination) it rescans all stores, collects
 * the ones to that destination in an interval set normalised by
 * std::sort, and intersects it with the consumed ranges: O(G * N log N)
 * per trace, which is why it lives here and not in src/.
 */

#ifndef FP_TESTS_SUPPORT_REFERENCE_UPDATE_SUMMARY_HH
#define FP_TESTS_SUPPORT_REFERENCE_UPDATE_SUMMARY_HH

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "trace/trace.hh"

namespace fp::testing {

/** Sorted, disjoint interval set normalised by std::sort. */
class ReferenceIntervalSet
{
  public:
    void
    add(Addr base, std::uint64_t size)
    {
        if (size == 0)
            return;
        _spans.emplace_back(base, base + size);
        _dirty = true;
    }

    void add(const icn::AddrRange &range) { add(range.base, range.size); }

    void
    normalize()
    {
        if (!_dirty)
            return;
        std::sort(_spans.begin(), _spans.end());
        std::vector<std::pair<Addr, Addr>> merged;
        for (const auto &span : _spans) {
            if (!merged.empty() && span.first <= merged.back().second) {
                merged.back().second =
                    std::max(merged.back().second, span.second);
            } else {
                merged.push_back(span);
            }
        }
        _spans = std::move(merged);
        _dirty = false;
    }

    std::uint64_t
    totalBytes()
    {
        normalize();
        std::uint64_t total = 0;
        for (const auto &[begin, end] : _spans)
            total += end - begin;
        return total;
    }

    std::uint64_t
    intersectBytes(ReferenceIntervalSet &other)
    {
        normalize();
        other.normalize();
        std::uint64_t total = 0;
        std::size_t i = 0, j = 0;
        while (i < _spans.size() && j < other._spans.size()) {
            Addr lo = std::max(_spans[i].first, other._spans[j].first);
            Addr hi = std::min(_spans[i].second, other._spans[j].second);
            if (lo < hi)
                total += hi - lo;
            if (_spans[i].second < other._spans[j].second)
                ++i;
            else
                ++j;
        }
        return total;
    }

    const std::vector<std::pair<Addr, Addr>> &
    intervals()
    {
        normalize();
        return _spans;
    }

  private:
    std::vector<std::pair<Addr, Addr>> _spans; // [begin, end)
    bool _dirty = false;
};

/** One iteration's unique and useful bytes written to @p dst. */
inline trace::UpdateSummary
referenceSummarizeUpdates(const trace::IterationWork &iter, GpuId dst)
{
    ReferenceIntervalSet updated;
    for (const auto &gpu : iter.per_gpu)
        for (const auto &store : gpu.remote_stores)
            if (store.dst == dst)
                updated.add(store.addr, store.size);

    ReferenceIntervalSet consumed;
    if (dst < iter.consumed.size())
        for (const auto &range : iter.consumed[dst])
            consumed.add(range);

    trace::UpdateSummary summary;
    summary.unique_bytes = updated.totalBytes();
    summary.useful_bytes = updated.intersectBytes(consumed);
    return summary;
}

/** The per-destination loop the old totalUsefulBytes/UniqueBytes ran. */
inline trace::UpdateSummary
referenceSummarizeTrace(const trace::WorkloadTrace &trace)
{
    trace::UpdateSummary total;
    for (const auto &iter : trace.iterations) {
        for (GpuId g = 0; g < trace.num_gpus; ++g) {
            trace::UpdateSummary one = referenceSummarizeUpdates(iter, g);
            total.unique_bytes += one.unique_bytes;
            total.useful_bytes += one.useful_bytes;
        }
    }
    return total;
}

} // namespace fp::testing

#endif // FP_TESTS_SUPPORT_REFERENCE_UPDATE_SUMMARY_HH
