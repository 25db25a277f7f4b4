/**
 * @file
 * Reference model of the remote write queue and the write-combining
 * buffer as they stood before the line store was rebuilt around two
 * 64-bit byte-enable words: a std::bitset<128> mask per entry, an
 * unordered_map tag lookup per window, a 128 B data vector per miss,
 * and a std::list + unordered_map LRU for the write-combining buffer.
 * The logic is unchanged apart from names; the observer hooks, the
 * invariant checks and the single-result convenience overloads are
 * left out, because the differential tests compare only what the
 * queue hands downstream and its lifetime counters.
 */

#ifndef FP_TESTS_SUPPORT_REFERENCE_RWQ_HH
#define FP_TESTS_SUPPORT_REFERENCE_RWQ_HH

#include <algorithm>
#include <bitset>
#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/bitutil.hh"
#include "common/types.hh"
#include "finepack/config.hh"
#include "finepack/remote_write_queue.hh"
#include "interconnect/store.hh"
#include "obs/latency.hh"

namespace fp::testing {

/** One 128 B line: a tag, a full data vector and a bitset mask. */
struct ReferenceQueueEntry
{
    Addr line_addr = 0;
    std::vector<std::uint8_t> data;
    std::bitset<128> mask;
    bool has_data = false;

    std::uint64_t
    packedCost(const finepack::FinePackConfig &config) const
    {
        std::uint64_t cost = 0;
        std::uint32_t i = 0;
        const auto line = static_cast<std::uint32_t>(mask.size());
        while (i < line) {
            if (!mask.test(i)) {
                ++i;
                continue;
            }
            std::uint32_t start = i;
            while (i < line && mask.test(i))
                ++i;
            cost += config.subheader_bytes + (i - start);
        }
        return cost;
    }
};

struct ReferenceFlushedPartition
{
    GpuId dst = invalid_gpu;
    Addr window_base = 0;
    std::vector<ReferenceQueueEntry> entries;
    std::uint64_t packed_store_count = 0;
    finepack::FlushReason reason = finepack::FlushReason::release;
    std::vector<obs::StoreStamp> store_stamps;
};

class ReferenceRwqWindow
{
  public:
    ReferenceRwqWindow(const finepack::FinePackConfig &config,
                       std::uint32_t entry_budget)
        : _config(config), _entry_budget(entry_budget),
          _available_payload(config.max_payload)
    {}

    bool empty() const { return _entries.empty(); }
    std::size_t entryCount() const { return _entries.size(); }
    std::uint64_t bufferedStores() const { return _buffered_stores; }
    std::uint64_t availablePayload() const { return _available_payload; }
    std::uint64_t queueHits() const { return _queue_hits; }
    std::uint64_t bytesElided() const { return _bytes_elided; }

    Addr
    windowLo() const
    {
        return _base_register << _config.offsetBits();
    }

    Addr
    windowHi() const
    {
        return windowLo() + _config.addressableRange();
    }

    bool
    covers(const icn::Store &store) const
    {
        if (_base_register == invalid_addr)
            return false;
        return store.begin() >= windowLo() && store.end() <= windowHi();
    }

    bool
    accepts(const icn::Store &store) const
    {
        if (empty())
            return true;
        if (!covers(store))
            return false;
        return !payloadBound(store) && !entryBound(store);
    }

    bool
    payloadBound(const icn::Store &store) const
    {
        return store.size + _config.subheader_bytes > _available_payload;
    }

    bool
    entryBound(const icn::Store &store) const
    {
        Addr line = common::alignDown(store.addr, _config.entry_bytes);
        return !_lookup.count(line) && _entries.size() >= _entry_budget;
    }

    void
    insert(const icn::Store &store, Tick issue_tick)
    {
        if (_entries.empty())
            _base_register = store.addr >> _config.offsetBits();

        Addr line = common::alignDown(store.addr, _config.entry_bytes);
        auto offset_in_line = static_cast<std::uint32_t>(store.addr - line);

        auto it = _lookup.find(line);
        if (it != _lookup.end()) {
            ++_queue_hits;
            ReferenceQueueEntry &entry = _entries[it->second];
            std::uint64_t cost_before = entry.packedCost(_config);
            for (std::uint32_t i = 0; i < store.size; ++i) {
                if (entry.mask.test(offset_in_line + i))
                    ++_bytes_elided;
                entry.mask.set(offset_in_line + i);
                if (store.data)
                    entry.data[offset_in_line + i] = store.data[i];
            }
            entry.has_data |= store.data != nullptr;
            std::uint64_t cost_after = entry.packedCost(_config);
            if (cost_after >= cost_before)
                _available_payload -= cost_after - cost_before;
            else
                _available_payload += cost_before - cost_after;
        } else {
            ReferenceQueueEntry entry;
            entry.line_addr = line;
            entry.data.assign(_config.entry_bytes, 0);
            entry.has_data = store.data != nullptr;
            for (std::uint32_t i = 0; i < store.size; ++i) {
                entry.mask.set(offset_in_line + i);
                if (store.data)
                    entry.data[offset_in_line + i] = store.data[i];
            }
            _available_payload -= entry.packedCost(_config);
            _lookup[line] = _entries.size();
            _entries.push_back(std::move(entry));
        }
        if (issue_tick != max_tick)
            _stamps.push_back({issue_tick, store.size});
        ++_buffered_stores;
    }

    bool
    conflicts(Addr addr, std::uint32_t size) const
    {
        if (_entries.empty())
            return false;
        Addr line_lo = common::alignDown(addr, _config.entry_bytes);
        Addr line_hi =
            common::alignDown(addr + size - 1, _config.entry_bytes);
        for (Addr line = line_lo; line <= line_hi;
             line += _config.entry_bytes) {
            auto it = _lookup.find(line);
            if (it == _lookup.end())
                continue;
            const ReferenceQueueEntry &entry = _entries[it->second];
            std::uint32_t lo =
                addr > line ? static_cast<std::uint32_t>(addr - line) : 0;
            std::uint32_t hi = static_cast<std::uint32_t>(
                std::min<Addr>(addr + size - line, _config.entry_bytes));
            for (std::uint32_t i = lo; i < hi; ++i)
                if (entry.mask.test(i))
                    return true;
        }
        return false;
    }

    ReferenceFlushedPartition
    take(GpuId dst)
    {
        ReferenceFlushedPartition result;
        result.dst = dst;
        result.window_base =
            _base_register == invalid_addr
                ? 0
                : (_base_register << _config.offsetBits());
        result.entries = std::move(_entries);
        result.packed_store_count = _buffered_stores;
        result.store_stamps = std::move(_stamps);
        std::sort(result.entries.begin(), result.entries.end(),
                  [](const ReferenceQueueEntry &a,
                     const ReferenceQueueEntry &b) {
                      return a.line_addr < b.line_addr;
                  });
        _entries.clear();
        _lookup.clear();
        _stamps.clear();
        _base_register = invalid_addr;
        _available_payload = _config.max_payload;
        _buffered_stores = 0;
        return result;
    }

  private:
    finepack::FinePackConfig _config;
    std::uint32_t _entry_budget;
    Addr _base_register = invalid_addr;
    std::uint64_t _available_payload;
    std::uint64_t _buffered_stores = 0;
    std::vector<ReferenceQueueEntry> _entries;
    std::unordered_map<Addr, std::size_t> _lookup;
    std::vector<obs::StoreStamp> _stamps;
    std::uint64_t _queue_hits = 0;
    std::uint64_t _bytes_elided = 0;
};

class ReferenceRwqPartition
{
  public:
    ReferenceRwqPartition(GpuId dst, const finepack::FinePackConfig &config)
        : _dst(dst), _config(config)
    {
        std::uint32_t budget =
            config.queue_entries / config.windows_per_partition;
        for (std::uint32_t w = 0; w < config.windows_per_partition; ++w) {
            _windows.emplace_back(_config, budget);
            _lru.push_back(w);
        }
    }

    void
    push(const icn::Store &store,
         std::vector<ReferenceFlushedPartition> &sink,
         Tick issue_tick = max_tick)
    {
        const std::uint64_t range = _config.addressableRange();
        if (common::alignDown(store.begin(), range) !=
            common::alignDown(store.end() - 1, range)) {
            Addr split = common::alignDown(store.end() - 1, range);
            icn::Store head = store;
            head.size = static_cast<std::uint32_t>(split - store.begin());
            icn::Store tail = store;
            tail.addr = split;
            tail.size = static_cast<std::uint32_t>(store.end() - split);
            if (store.data)
                tail.data = store.data + head.size;
            pushPiece(head, sink, issue_tick);
            pushPiece(tail, sink, issue_tick);
            return;
        }
        pushPiece(store, sink, issue_tick);
    }

    void
    flush(finepack::FlushReason reason,
          std::vector<ReferenceFlushedPartition> &sink)
    {
        for (std::uint32_t w : _lru) {
            if (_windows[w].empty())
                continue;
            captureWindow(_windows[w], reason, sink);
        }
    }

    bool
    flushIfConflict(Addr addr, std::uint32_t size,
                    finepack::FlushReason reason,
                    std::vector<ReferenceFlushedPartition> &sink)
    {
        bool conflict = false;
        for (const ReferenceRwqWindow &window : _windows)
            conflict = conflict || window.conflicts(addr, size);
        if (!conflict)
            return false;
        flush(reason, sink);
        return true;
    }

    const std::vector<ReferenceRwqWindow> &windows() const
    { return _windows; }
    std::uint64_t storesPushed() const { return _stores_pushed; }
    std::uint64_t bytesPushed() const { return _bytes_pushed; }

    std::uint64_t
    flushes(finepack::FlushReason reason) const
    {
        return _flush_counts[static_cast<std::size_t>(reason)];
    }

    std::uint64_t
    queueHits() const
    {
        std::uint64_t total = 0;
        for (const ReferenceRwqWindow &window : _windows)
            total += window.queueHits();
        return total;
    }

    std::uint64_t
    bytesElided() const
    {
        std::uint64_t total = 0;
        for (const ReferenceRwqWindow &window : _windows)
            total += window.bytesElided();
        return total;
    }

  private:
    void
    pushPiece(const icn::Store &store,
              std::vector<ReferenceFlushedPartition> &sink, Tick issue_tick)
    {
        ++_stores_pushed;
        _bytes_pushed += store.size;

        for (std::uint32_t w = 0; w < _windows.size(); ++w) {
            ReferenceRwqWindow &window = _windows[w];
            if (!window.covers(store))
                continue;
            if (window.accepts(store)) {
                window.insert(store, issue_tick);
            } else {
                captureWindow(window,
                              window.payloadBound(store)
                                  ? finepack::FlushReason::payload_full
                                  : finepack::FlushReason::entries_full,
                              sink);
                window.insert(store, issue_tick);
            }
            touch(w);
            return;
        }
        for (std::uint32_t w = 0; w < _windows.size(); ++w) {
            if (_windows[w].empty()) {
                _windows[w].insert(store, issue_tick);
                touch(w);
                return;
            }
        }
        std::uint32_t victim = _lru.front();
        captureWindow(_windows[victim],
                      finepack::FlushReason::window_violation, sink);
        _windows[victim].insert(store, issue_tick);
        touch(victim);
    }

    void
    captureWindow(ReferenceRwqWindow &window, finepack::FlushReason reason,
                  std::vector<ReferenceFlushedPartition> &sink)
    {
        ++_flush_counts[static_cast<std::size_t>(reason)];
        sink.push_back(window.take(_dst));
        sink.back().reason = reason;
    }

    void
    touch(std::uint32_t index)
    {
        auto it = std::find(_lru.begin(), _lru.end(), index);
        _lru.erase(it);
        _lru.push_back(index);
    }

    GpuId _dst;
    finepack::FinePackConfig _config;
    std::vector<ReferenceRwqWindow> _windows;
    std::vector<std::uint32_t> _lru;
    std::uint64_t _stores_pushed = 0;
    std::uint64_t _bytes_pushed = 0;
    std::uint64_t _flush_counts[6] = {};
};

/** A line leaving the reference write-combining buffer. */
struct ReferenceWcLine
{
    ReferenceQueueEntry entry;
    std::uint64_t folded = 0;
};

class ReferenceWriteCombineBuffer
{
  public:
    explicit ReferenceWriteCombineBuffer(std::uint32_t num_lines)
        : _num_lines(num_lines)
    {}

    std::optional<ReferenceWcLine>
    push(const icn::Store &store)
    {
        ++_stores_pushed;
        Addr line_addr = common::alignDown(store.addr, _line_bytes);
        auto offset = static_cast<std::uint32_t>(store.addr - line_addr);

        std::optional<ReferenceWcLine> evicted;
        auto it = _lines.find(line_addr);
        if (it == _lines.end()) {
            if (_lines.size() >= _num_lines) {
                Addr victim = _lru.back();
                _lru.pop_back();
                auto vit = _lines.find(victim);
                evicted = std::move(vit->second.line);
                _lines.erase(vit);
            }
            ReferenceWcLine line;
            line.entry.line_addr = line_addr;
            line.entry.data.assign(_line_bytes, 0);
            _lru.push_front(line_addr);
            it = _lines
                     .emplace(line_addr,
                              Slot{std::move(line), _lru.begin()})
                     .first;
        } else {
            _lru.erase(it->second.lru_it);
            _lru.push_front(line_addr);
            it->second.lru_it = _lru.begin();
        }

        Slot &slot = it->second;
        ReferenceQueueEntry &entry = slot.line.entry;
        for (std::uint32_t i = 0; i < store.size; ++i) {
            if (entry.mask.test(offset + i))
                ++_bytes_elided;
            entry.mask.set(offset + i);
            if (store.data)
                entry.data[offset + i] = store.data[i];
        }
        entry.has_data |= store.data != nullptr;
        ++slot.line.folded;
        return evicted;
    }

    std::vector<ReferenceWcLine>
    flushAll()
    {
        std::vector<ReferenceWcLine> lines;
        // fp-lint: allow(unordered-iteration) lines are sorted below
        for (auto &[addr, slot] : _lines) {
            (void)addr;
            lines.push_back(std::move(slot.line));
        }
        _lines.clear();
        _lru.clear();
        std::sort(lines.begin(), lines.end(),
                  [](const ReferenceWcLine &a, const ReferenceWcLine &b) {
                      return a.entry.line_addr < b.entry.line_addr;
                  });
        return lines;
    }

    std::size_t lineCount() const { return _lru.size(); }
    std::uint64_t storesPushed() const { return _stores_pushed; }
    std::uint64_t bytesElided() const { return _bytes_elided; }

  private:
    struct Slot
    {
        ReferenceWcLine line;
        std::list<Addr>::iterator lru_it;
    };

    std::uint32_t _num_lines;
    std::uint32_t _line_bytes = 128;
    std::list<Addr> _lru;
    std::unordered_map<Addr, Slot> _lines;
    std::uint64_t _stores_pushed = 0;
    std::uint64_t _bytes_elided = 0;
};

} // namespace fp::testing

#endif // FP_TESTS_SUPPORT_REFERENCE_RWQ_HH
