#include "alloc_count.hh"

#include <cstdlib>
#include <new>

namespace
{

bool gCounting = false;
fusionbench::AllocTally gTally;

void *
countedAlloc(std::size_t n, std::size_t align = 0)
{
    if (gCounting) {
        ++gTally.allocs;
        gTally.bytes += n;
    }
    void *p = align ? std::aligned_alloc(align,
                                         (n + align - 1) / align * align)
                    : std::malloc(n ? n : 1);
    if (!p)
        throw std::bad_alloc();
    return p;
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *
operator new(std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}
void *
operator new[](std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
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

namespace fusionbench
{

AllocScope::AllocScope() : _start(gTally) { gCounting = true; }

AllocScope::~AllocScope() { gCounting = false; }

AllocTally
AllocScope::tally() const
{
    return {gTally.allocs - _start.allocs, gTally.bytes - _start.bytes};
}

} // namespace fusionbench
