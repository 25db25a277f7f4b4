#include "baselines/gps_model.hh"

#include "common/bitutil.hh"
#include "common/logging.hh"

namespace fp::baselines {

GpsModel::GpsModel(std::uint64_t page_bytes) : _page_bytes(page_bytes)
{
    fp_assert(common::isPowerOfTwo(page_bytes),
              "page size must be a power of two");
}

void
GpsModel::beginIteration(const trace::IterationWork &iter)
{
    _pages.assign(iter.consumed.size(), {});
    for (GpuId g = 0; g < iter.consumed.size(); ++g) {
        for (const auto &range : iter.consumed[g]) {
            // An empty range reads nothing, so it subscribes no page.
            if (range.size == 0)
                continue;
            Addr first = common::alignDown(range.base, _page_bytes);
            Addr last =
                common::alignDown(range.base + range.size - 1, _page_bytes);
            // Stop at the last page itself: a range that ends at the top
            // of the address space has no page past it.
            for (Addr page = first;; page += _page_bytes) {
                _pages[g].insert(page);
                if (page == last)
                    break;
            }
        }
    }
}

bool
GpsModel::subscribed(GpuId dst, Addr addr) const
{
    if (dst >= _pages.size())
        return true; // no subscription data: conservatively send
    return _pages[dst].count(common::alignDown(addr, _page_bytes)) > 0;
}

} // namespace fp::baselines
