#include "alloc_count.hh"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::uint64_t> allocations{0};

void *
allocate(std::size_t size)
{
    if (size == 0)
        size = 1;
    void *p = std::malloc(size);
    if (!p)
        throw std::bad_alloc();
    allocations.fetch_add(1, std::memory_order_relaxed);
    return p;
}

void *
allocateAligned(std::size_t size, std::align_val_t align)
{
    auto alignment = static_cast<std::size_t>(align);
    if (alignment < sizeof(void *))
        alignment = sizeof(void *);
    // aligned_alloc wants a size that is a multiple of the alignment.
    std::size_t rounded = (size + alignment - 1) / alignment * alignment;
    void *p = std::aligned_alloc(alignment, rounded ? rounded : alignment);
    if (!p)
        throw std::bad_alloc();
    allocations.fetch_add(1, std::memory_order_relaxed);
    return p;
}

} // namespace

namespace fp::perfbench {

std::uint64_t
allocationCount()
{
    return allocations.load(std::memory_order_relaxed);
}

} // namespace fp::perfbench

void *operator new(std::size_t size) { return allocate(size); }
void *operator new[](std::size_t size) { return allocate(size); }

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    try {
        return allocate(size);
    } catch (const std::bad_alloc &) {
        return nullptr;
    }
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    try {
        return allocate(size);
    } catch (const std::bad_alloc &) {
        return nullptr;
    }
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    return allocateAligned(size, align);
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return allocateAligned(size, align);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
