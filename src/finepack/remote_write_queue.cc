#include "finepack/remote_write_queue.hh"

#include <algorithm>
#include <iterator>

#include "check/invariant.hh"
#include "common/bitutil.hh"
#include "common/logging.hh"

namespace fp::finepack {

const char *
toString(FlushReason reason)
{
    switch (reason) {
      case FlushReason::window_violation: return "window-violation";
      case FlushReason::payload_full: return "payload-full";
      case FlushReason::entries_full: return "entries-full";
      case FlushReason::release: return "release";
      case FlushReason::load_conflict: return "load-conflict";
      case FlushReason::atomic_conflict: return "atomic-conflict";
    }
    return "?";
}

namespace {

/** The bits of enable word @p word that cover line bytes [begin, end). */
std::uint64_t
wordBits(std::uint32_t word, std::uint32_t begin, std::uint32_t end)
{
    const std::uint32_t base = word * 64;
    const std::uint32_t lo = std::clamp(begin, base, base + 64) - base;
    const std::uint32_t hi = std::clamp(end, base, base + 64) - base;
    return common::mask(hi) & ~common::mask(lo);
}

} // namespace

std::uint32_t
QueueEntry::enabledIn(std::uint32_t begin, std::uint32_t end) const
{
    return static_cast<std::uint32_t>(
        std::popcount(enables[0] & wordBits(0, begin, end)) +
        std::popcount(enables[1] & wordBits(1, begin, end)));
}

std::uint32_t
QueueEntry::runCount() const
{
    // A run starts at every enabled byte whose predecessor is not
    // enabled; byte 64's predecessor is bit 63 of the low word.
    const std::uint64_t lo = enables[0];
    const std::uint64_t hi = enables[1];
    return static_cast<std::uint32_t>(
        std::popcount(lo & ~(lo << 1)) +
        std::popcount(hi & ~((hi << 1) | (lo >> 63))));
}

std::pair<std::uint32_t, std::uint32_t>
QueueEntry::writtenSpan() const
{
    const std::uint64_t lo = enables[0];
    const std::uint64_t hi = enables[1];
    if (!lo && !hi)
        return {0, 0};
    const auto first = static_cast<std::uint32_t>(
        lo ? std::countr_zero(lo) : 64 + std::countr_zero(hi));
    const auto last = static_cast<std::uint32_t>(
        hi ? 128 - std::countl_zero(hi) : 64 - std::countl_zero(lo));
    return {first, last};
}

std::uint32_t
QueueEntry::nextByte(std::uint32_t from, bool set) const
{
    for (std::uint32_t word = from / 64; word < 2; ++word) {
        std::uint64_t bits = set ? enables[word] : ~enables[word];
        bits &= wordBits(word, from, FinePackConfig::entry_bytes);
        if (bits)
            return word * 64 +
                   static_cast<std::uint32_t>(std::countr_zero(bits));
    }
    return FinePackConfig::entry_bytes;
}

std::uint32_t
QueueEntry::merge(std::uint32_t offset, const icn::Store &store)
{
    const std::uint32_t end = offset + store.size;
    fp_assert(end <= FinePackConfig::entry_bytes, "store escapes its line");
    const std::uint32_t overwritten = enabledIn(offset, end);
    enables[0] |= wordBits(0, offset, end);
    enables[1] |= wordBits(1, offset, end);
    if (!store.data.empty()) {
        if (data.empty())
            data.assign(FinePackConfig::entry_bytes, 0);
        std::copy_n(store.data.begin(), store.size, data.begin() + offset);
    }
    return overwritten;
}

// ---------------------------------------------------------------------
// RwqWindow
// ---------------------------------------------------------------------

RwqWindow::RwqWindow(const FinePackConfig &config,
                     std::uint32_t entry_budget)
    : _config(config),
      _entry_budget(entry_budget),
      _available_payload(config.max_payload)
{
    fp_assert(entry_budget > 0, "window needs at least one entry");
    _entries.reserve(entry_budget);
}

std::size_t
RwqWindow::findLine(Addr line) const
{
    std::size_t slot = 0;
    while (slot < _entries.size() && _entries[slot].line_addr != line)
        ++slot;
    return slot;
}

Addr
RwqWindow::windowLo() const
{
    fp_assert(_base_register != invalid_addr, "window is empty");
    return _base_register << _config.offsetBits();
}

Addr
RwqWindow::windowHi() const
{
    return windowLo() + _config.addressableRange();
}

bool
RwqWindow::covers(const icn::Store &store) const
{
    if (_base_register == invalid_addr)
        return false;
    return store.begin() >= windowLo() && store.end() <= windowHi();
}

bool
RwqWindow::accepts(const icn::Store &store) const
{
    if (empty())
        return true;
    // Condition (1): the store must fall inside the base+offset window.
    if (!covers(store))
        return false;
    return !payloadBound(store) && !entryBound(store);
}

bool
RwqWindow::payloadBound(const icn::Store &store) const
{
    // The store plus one sub-header must fit the remaining payload
    // budget (conservative estimate).
    return store.size + _config.subheader_bytes > _available_payload;
}

bool
RwqWindow::entryBound(const icn::Store &store) const
{
    // SRAM capacity: a miss needs a free entry.
    Addr line = common::alignDown(store.addr, _config.entry_bytes);
    return _entries.size() >= _entry_budget &&
           findLine(line) == _entries.size();
}

RwqWindow::InsertOutcome
RwqWindow::insert(const icn::Store &store)
{
    InsertOutcome outcome;
    // Exact payload accounting: the packed cost of all entries plus the
    // available-payload register always reconstructs the full budget,
    // so whatever the queue accepted is guaranteed to packetize into
    // one outer transaction (checking builds walk every entry).
    auto payload_accounted = [this]() {
        std::uint64_t cost = 0;
        for (const QueueEntry &entry : _entries)
            cost += entry.packedCost(_config);
        return cost + _available_payload == _config.max_payload;
    };
    const std::size_t entries_before = _entries.size();

    if (_entries.empty()) {
        // First store of a fresh window: the base address register
        // takes the store's address right-shifted by the offset width.
        _base_register = store.addr >> _config.offsetBits();
        fp_assert(_available_payload == _config.max_payload,
                  "payload register not reset on empty window");
    }

    Addr line = common::alignDown(store.addr, _config.entry_bytes);
    auto offset_in_line = static_cast<std::uint32_t>(store.addr - line);

    const std::size_t slot = findLine(line);
    const bool was_hit = slot < _entries.size();
    if (was_hit) {
        // Queue hit: OR the byte enables and overwrite the data in place.
        outcome.queue_hit = true;
        QueueEntry &entry = _entries[slot];
        std::uint64_t cost_before = entry.packedCost(_config);
        outcome.overwritten_bytes = entry.merge(offset_in_line, store);

        std::uint64_t cost_after = entry.packedCost(_config);
        // Merging can only keep or reduce the packed cost relative to
        // the conservative (len + sub-header) estimate already checked.
        if (cost_after >= cost_before) {
            std::uint64_t delta = cost_after - cost_before;
            fp_assert(delta <= _available_payload,
                      "exact packed cost exceeded the checked budget");
            _available_payload -= delta;
        } else {
            _available_payload += cost_before - cost_after;
        }
    } else {
        // Miss: fill the next free slot.
        fp_assert(_entries.size() < _entry_budget,
                  "entry allocation without free space");
        QueueEntry &entry = _entries.emplace_back();
        entry.line_addr = line;
        entry.merge(offset_in_line, store);
        std::uint64_t cost = entry.packedCost(_config);
        fp_assert(cost <= _available_payload,
                  "new entry cost exceeded the checked budget");
        _available_payload -= cost;
    }
    if (store.issue_tick != max_tick)
        _stamps.push_back({store.issue_tick, store.size});
    ++_buffered_stores;

    FP_INVARIANT(payload_accounted(), "rwq-payload-accounting",
                 "entries no longer fit one outer transaction after "
                 "inserting addr=", store.addr, " size=", store.size);
    FP_INVARIANT(store.begin() >= windowLo() && store.end() <= windowHi(),
                 "rwq-offset-in-window",
                 "store addr=", store.addr, " size=", store.size,
                 " escapes the ", _config.offsetBits(),
                 "-bit offset window [", windowLo(), ", ", windowHi(), ")");
    FP_INVARIANT(!was_hit || _entries.size() == entries_before,
                 "rwq-overwrite-in-place",
                 "a queue hit grew the entry count from ", entries_before,
                 " to ", _entries.size());
    FP_INVARIANT(_entries.size() <= _entry_budget, "rwq-entry-budget",
                 "entry count ", _entries.size(), " exceeds the budget ",
                 _entry_budget);
    return outcome;
}

bool
RwqWindow::conflicts(Addr addr, std::uint32_t size) const
{
    // Compare the access with every buffered line, as the SRAM would.
    for (const QueueEntry &entry : _entries) {
        const Addr line = entry.line_addr;
        if (line >= addr + size || line + _config.entry_bytes <= addr)
            continue;
        std::uint32_t lo =
            addr > line ? static_cast<std::uint32_t>(addr - line) : 0;
        std::uint32_t hi = static_cast<std::uint32_t>(
            std::min<Addr>(addr + size - line, _config.entry_bytes));
        if (entry.enabledIn(lo, hi) > 0)
            return true;
    }
    return false;
}

FlushedPartition
RwqWindow::take(GpuId dst)
{
    FlushedPartition result;
    result.dst = dst;
    result.window_base =
        _base_register == invalid_addr
            ? 0
            : (_base_register << _config.offsetBits());
    // Move the lines out but keep the slots: the window's storage is
    // reserved once, and the flush owns an exactly sized copy.
    result.entries.assign(std::make_move_iterator(_entries.begin()),
                          std::make_move_iterator(_entries.end()));
    result.packed_store_count = _buffered_stores;
    result.store_stamps = std::move(_stamps);

    // Sort entries by address so the packetized sub-packets appear in
    // ascending offset order (deterministic output).
    std::sort(result.entries.begin(), result.entries.end(),
              [](const QueueEntry &a, const QueueEntry &b) {
                  return a.line_addr < b.line_addr;
              });

    _entries.clear();
    _stamps.clear();
    _base_register = invalid_addr;
    _available_payload = _config.max_payload;
    _buffered_stores = 0;
    return result;
}

// ---------------------------------------------------------------------
// RwqPartition
// ---------------------------------------------------------------------

RwqPartition::RwqPartition(GpuId dst, const FinePackConfig &config)
    : _dst(dst), _config(config)
{
    _config.validate();
    std::uint32_t budget =
        config.queue_entries / config.windows_per_partition;
    _windows.reserve(config.windows_per_partition);
    for (std::uint32_t w = 0; w < config.windows_per_partition; ++w) {
        _windows.emplace_back(_config, budget);
        _lru.push_back(w);
    }
}

void
RwqPartition::touch(std::uint32_t index)
{
    auto it = std::find(_lru.begin(), _lru.end(), index);
    fp_assert(it != _lru.end(), "window missing from LRU order");
    _lru.erase(it);
    _lru.push_back(index);
}

void
RwqPartition::push(const icn::Store &store,
                   std::vector<FlushedPartition> &sink)
{
    fp_assert(store.dst == _dst, "store routed to wrong partition");
    fp_assert(!store.is_atomic, "atomics do not enter the write queue");
    fp_assert(store.size > 0 && store.size <= _config.entry_bytes,
              "store size out of range: ", store.size);
    fp_assert(common::alignDown(store.begin(), _config.entry_bytes) ==
                  common::alignDown(store.end() - 1, _config.entry_bytes),
              "store crosses a line boundary: addr=", store.addr,
              " size=", store.size);

    // A store spanning a window-grid boundary cannot live in one
    // base+offset window: split it at the boundary (at most two pieces,
    // since stores are line-contained and the range is >= 64 B).
    const std::uint64_t range = _config.addressableRange();
    if (common::alignDown(store.begin(), range) !=
        common::alignDown(store.end() - 1, range)) {
        Addr split = common::alignDown(store.end() - 1, range);
        icn::Store head = store;
        head.size = static_cast<std::uint32_t>(split - store.begin());
        icn::Store tail = store;
        tail.addr = split;
        tail.size = static_cast<std::uint32_t>(store.end() - split);
        if (!store.data.empty()) {
            head.data.assign(store.data.begin(),
                             store.data.begin() + head.size);
            tail.data.assign(store.data.begin() + head.size,
                             store.data.end());
        }
        pushPiece(head, sink);
        pushPiece(tail, sink);
        return;
    }
    pushPiece(store, sink);
}

void
RwqPartition::pushPiece(const icn::Store &store,
                        std::vector<FlushedPartition> &sink)
{
    ++_stores_pushed;
    _bytes_pushed += store.size;

    // 1. A window already covering the store's address range?
    for (std::uint32_t w = 0; w < _windows.size(); ++w) {
        RwqWindow &window = _windows[w];
        if (!window.covers(store))
            continue;
        if (window.accepts(store)) {
            insertObserved(window, store);
        } else {
            // Payload or entry capacity: flush this window, the store
            // seeds its replacement. Exactly these two triggers can
            // reject a covered store - anything else means accepts()
            // and the flush classification have drifted apart.
            bool payload_bound = window.payloadBound(store);
            FP_INVARIANT(payload_bound || window.entryBound(store),
                         "rwq-flush-trigger-exclusive",
                         "window rejected covered store addr=", store.addr,
                         " size=", store.size,
                         " without a capacity reason");
            captureWindow(window,
                          payload_bound ? FlushReason::payload_full
                                        : FlushReason::entries_full,
                          sink);
            insertObserved(window, store);
        }
        touch(w);
        return;
    }

    // 2. An empty window to open?
    for (std::uint32_t w = 0; w < _windows.size(); ++w) {
        if (_windows[w].empty()) {
            insertObserved(_windows[w], store);
            touch(w);
            return;
        }
    }

    // 3. All windows open elsewhere: flush the least recently used one
    //    and seed it with the incoming store.
    std::uint32_t victim = _lru.front();
    captureWindow(_windows[victim], FlushReason::window_violation, sink);
    insertObserved(_windows[victim], store);
    touch(victim);
}

void
RwqPartition::captureWindow(RwqWindow &window, FlushReason reason,
                            std::vector<FlushedPartition> &sink)
{
    FP_INVARIANT(!window.empty(), "rwq-flush-nonempty",
                 "capturing an empty window (reason ", toString(reason),
                 ")");
    ++_flush_counts[static_cast<std::size_t>(reason)];
    sink.push_back(window.take(_dst));
    sink.back().reason = reason;
    for (RwqObserver *observer : _observers)
        observer->windowFlushed(sink.back(), reason);
}

void
RwqPartition::insertObserved(RwqWindow &window, const icn::Store &store)
{
    RwqWindow::InsertOutcome outcome = window.insert(store);
    _queue_hits += outcome.queue_hit;
    _bytes_elided += outcome.overwritten_bytes;
    for (RwqObserver *observer : _observers) {
        if (outcome.queue_hit)
            observer->storeCoalesced(_dst, store,
                                     outcome.overwritten_bytes);
        observer->storeBuffered(_dst, store);
    }
}

void
RwqPartition::flush(FlushReason reason,
                    std::vector<FlushedPartition> &sink)
{
    for (std::uint32_t w : _lru) {
        if (_windows[w].empty())
            continue;
        captureWindow(_windows[w], reason, sink);
    }
}

bool
RwqPartition::flushIfConflict(Addr addr, std::uint32_t size,
                              FlushReason reason,
                              std::vector<FlushedPartition> &sink)
{
    bool conflict = false;
    for (const RwqWindow &window : _windows)
        conflict = conflict || window.conflicts(addr, size);
    if (!conflict)
        return false;
    flush(reason, sink);
    return true;
}

const RwqWindow &
RwqPartition::window(std::uint32_t i) const
{
    fp_assert(i < _windows.size(), "window index out of range");
    return _windows[i];
}

// ---------------------------------------------------------------------
// RemoteWriteQueue
// ---------------------------------------------------------------------

RemoteWriteQueue::RemoteWriteQueue(GpuId self, std::uint32_t num_gpus,
                                   const FinePackConfig &config)
    : _self(self), _num_gpus(num_gpus), _config(config)
{
    fp_assert(self < num_gpus, "bad self GPU id");
    _partitions.reserve(num_gpus);
    for (GpuId g = 0; g < num_gpus; ++g)
        _partitions.emplace_back(g, config);
}

void
RemoteWriteQueue::push(const icn::Store &store,
                       std::vector<FlushedPartition> &sink)
{
    fp_assert(store.dst != _self, "store to self reached the write queue");
    partition(store.dst).push(store, sink);
}

std::vector<FlushedPartition>
RemoteWriteQueue::flushAll(FlushReason reason)
{
    std::vector<FlushedPartition> result;
    for (GpuId g = 0; g < _num_gpus; ++g) {
        if (g == _self)
            continue;
        _partitions[g].flush(reason, result);
    }
    return result;
}

bool
RemoteWriteQueue::flushIfConflict(GpuId dst, Addr addr,
                                  std::uint32_t size, FlushReason reason,
                                  std::vector<FlushedPartition> &sink)
{
    return partition(dst).flushIfConflict(addr, size, reason, sink);
}

void
RemoteWriteQueue::addObserver(RwqObserver *observer)
{
    for (RwqPartition &part : _partitions)
        part.addObserver(observer);
}

void
RemoteWriteQueue::removeObserver(RwqObserver *observer)
{
    for (RwqPartition &part : _partitions)
        part.removeObserver(observer);
}

RwqPartition &
RemoteWriteQueue::partition(GpuId dst)
{
    fp_assert(dst < _num_gpus, "bad destination GPU ", dst);
    fp_assert(dst != _self, "no partition for self");
    return _partitions[dst];
}

const RwqPartition &
RemoteWriteQueue::partition(GpuId dst) const
{
    fp_assert(dst < _num_gpus, "bad destination GPU ", dst);
    fp_assert(dst != _self, "no partition for self");
    return _partitions[dst];
}

std::uint64_t
RemoteWriteQueue::totalSramBytes() const
{
    // One partition per peer GPU, each queue_entries lines of
    // entry_bytes (split across its windows).
    return static_cast<std::uint64_t>(_num_gpus - 1) *
           _config.queue_entries * _config.entry_bytes;
}

} // namespace fp::finepack
