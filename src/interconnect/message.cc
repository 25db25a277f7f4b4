#include "interconnect/message.hh"

#include <algorithm>
#include <cstddef>
#include <new>
#include <utility>

#include "common/logging.hh"

namespace fp::icn {

namespace {

/** Blocks in the first slab; each later slab doubles, up to the cap. */
constexpr std::size_t first_slab_blocks = 8;
constexpr std::size_t max_slab_blocks = 512;

} // namespace

void
WireMessage::addStore(const Store &store)
{
    Store &added = stores.emplace_back(store);
    if (!store.data)
        return;
    const std::uint8_t *before = store_bytes.data();
    store_bytes.insert(store_bytes.end(), store.data,
                       store.data + store.size);
    if (store_bytes.data() == before) {
        added.data = store_bytes.data() + store_bytes.size() - store.size;
        return;
    }
    // The bytes moved: point every store with payload at its new place
    // (their bytes lie in store order).
    std::size_t offset = 0;
    for (Store &held : stores) {
        if (!held.data)
            continue;
        held.data = store_bytes.data() + offset;
        offset += held.size;
    }
}

class MessagePool::FreeList
{
  public:
    void *
    take(std::size_t bytes)
    {
        if (_bytes == 0)
            _bytes = bytes;
        fp_assert(bytes == _bytes && bytes >= sizeof(Block),
                  "message pool asked for ", bytes,
                  " bytes, its blocks hold ", _bytes);
        if (!_head)
            grow();
        Block *block = _head;
        _head = block->next;
        return block;
    }

    void give(void *block) noexcept { _head = ::new (block) Block{_head}; }

  private:
    struct Block
    {
        Block *next;
    };

    /** Carve one more slab into free blocks. */
    void
    grow()
    {
        // Slab storage is aligned for any fundamental type, and the
        // block size, a sizeof, is a multiple of its type's alignment.
        const std::size_t blocks = std::min(
            first_slab_blocks << std::min<std::size_t>(_slabs.size(), 16),
            max_slab_blocks);
        _slabs.push_back(
            std::make_unique_for_overwrite<std::byte[]>(blocks * _bytes));
        std::byte *slab = _slabs.back().get();
        for (std::size_t i = blocks; i-- > 0;)
            give(slab + i * _bytes);
    }

    Block *_head = nullptr;
    std::size_t _bytes = 0;
    std::vector<std::unique_ptr<std::byte[]>> _slabs;
};

template <typename T>
struct MessagePool::Allocator
{
    using value_type = T;

    explicit Allocator(std::shared_ptr<FreeList> list)
        : free_list(std::move(list))
    {}

    template <typename U>
    Allocator(const Allocator<U> &other) noexcept
        : free_list(other.free_list)
    {}

    T *
    allocate(std::size_t n)
    {
        static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
        return static_cast<T *>(free_list->take(n * sizeof(T)));
    }

    void deallocate(T *p, std::size_t) noexcept { free_list->give(p); }

    template <typename U>
    bool
    operator==(const Allocator<U> &other) const
    {
        return free_list == other.free_list;
    }

    std::shared_ptr<FreeList> free_list;
};

MessagePool::MessagePool() : _free(std::make_shared<FreeList>()) {}

WireMessagePtr
MessagePool::make()
{
    return std::allocate_shared<WireMessage>(Allocator<WireMessage>(_free));
}

} // namespace fp::icn
