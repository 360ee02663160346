// Counting replacements for the global allocation functions, for tests
// that pin the heap cost of an operation. Include this header in exactly
// one source file of a test executable (it defines the replacements), then
// read deltas of g_alloc_count / g_alloc_bytes around the code measured.
// The replacements are kept out of line so the compiler pairs neither an
// inlined malloc() with a delete nor an inlined free() with a new (GCC
// warns -Wmismatched-new-delete when it sees either).
#pragma once

#include <cstdlib>
#include <new>

namespace {
unsigned long long g_alloc_count = 0;  // allocations
unsigned long long g_alloc_bytes = 0;  // bytes requested
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
  ++g_alloc_count;
  g_alloc_bytes += size;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
[[gnu::noinline]] void* operator new(std::size_t size,
                                     std::align_val_t align) {
  ++g_alloc_count;
  g_alloc_bytes += size;
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded ? rounded : a)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t,
                                       std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t,
                                         std::align_val_t) noexcept {
  std::free(p);
}
