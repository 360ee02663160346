// Heap profiler, loaded into a program with LD_PRELOAD; see
// scripts/sprof.py --heap, which builds it, runs a program under it and
// symbolizes the result.
//
//   cc -O2 -fPIC -shared -fno-omit-frame-pointer -o heap.so sprof_heap.c
//   SPROF_OUT=heap.txt LD_PRELOAD=./heap.so PROGRAM ...
//
// It wraps malloc, calloc, realloc, free, aligned_alloc, posix_memalign,
// memalign, valloc and pvalloc, passing each call on to glibc's __libc_*
// entry point. For every live block it records the requested size and the
// allocating call stack: up to kDepth return addresses found by walking
// frame pointers from the wrapper (build the program with
// -fno-omit-frame-pointer), read only between the wrapper's frame and the
// top of the main thread's stack. Live bytes and blocks are summed per
// distinct stack, and the sums as they stood when the process's live heap
// (the bytes requested and not yet freed) was at its peak are kept: each
// new peak starts a new epoch, and a stack's peak sums are saved lazily,
// just before its first change in a later epoch. Its tables live in
// mmap'd memory, so it never calls the allocator it wraps. At exit it
// writes the peak, /proc/self/maps and one line per stack that held
// memory at the peak (bytes, blocks, hex return addresses) to SPROF_OUT.
// Blocks allocated before it starts are passed through and not counted.
// Linux x86-64; calls are serialized with a spin lock.
#define _GNU_SOURCE
#include <errno.h>
#include <pthread.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>

extern void* __libc_malloc(size_t size);
extern void* __libc_calloc(size_t n, size_t size);
extern void* __libc_realloc(void* p, size_t size);
extern void __libc_free(void* p);
extern void* __libc_memalign(size_t align, size_t size);
extern void* __libc_valloc(size_t size);
extern void* __libc_pvalloc(size_t size);

enum { kDepth = 16 };

typedef struct {
  uintptr_t frames[kDepth];
  uint32_t depth;
  uint64_t hash;
  uint64_t live_bytes, live_blocks;
  // The sums at the latest peak, saved at the first change after it.
  uint64_t peak_bytes, peak_blocks;
  uint64_t seen_epoch;  // the epoch of the stack's last change
} Stack;

typedef struct {
  uintptr_t ptr;  // 0 = empty
  uint64_t size;
  uint32_t stack;
} Block;

static int enabled;
static int lock;
static uintptr_t stack_top;

static Block* blocks;
static size_t block_cap, block_count;
static Stack* stacks;
static size_t stack_cap, stack_count;
static uint32_t* stack_index;  // open addressing: stack number + 1, 0 empty
static size_t index_cap;

static uint64_t live_total, live_blocks, peak_total, peak_blocks, epoch;

static void* map(size_t bytes) {
  void* p = mmap(NULL, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  return p == MAP_FAILED ? NULL : p;
}

static uint64_t mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return x;
}

// --- live blocks: linear probing with backward-shift deletion -------------

static size_t block_slot(uintptr_t ptr) {
  size_t i = mix(ptr) & (block_cap - 1);
  while (blocks[i].ptr != 0 && blocks[i].ptr != ptr) {
    i = (i + 1) & (block_cap - 1);
  }
  return i;
}

static int grow_blocks(void) {
  Block* old = blocks;
  const size_t old_cap = block_cap;
  const size_t cap = old_cap ? 2 * old_cap : (size_t)1 << 16;
  Block* fresh = map(cap * sizeof(Block));
  if (fresh == NULL) return 0;
  blocks = fresh;
  block_cap = cap;
  for (size_t i = 0; i < old_cap; ++i) {
    if (old[i].ptr != 0) blocks[block_slot(old[i].ptr)] = old[i];
  }
  if (old != NULL) munmap(old, old_cap * sizeof(Block));
  return 1;
}

static void erase_block(size_t i) {
  size_t hole = i;
  for (size_t j = (i + 1) & (block_cap - 1); blocks[j].ptr != 0;
       j = (j + 1) & (block_cap - 1)) {
    const size_t home = mix(blocks[j].ptr) & (block_cap - 1);
    // Move j into the hole unless its home lies cyclically in (hole, j].
    const int stays = hole <= j ? (hole < home && home <= j)
                                : (hole < home || home <= j);
    if (!stays) {
      blocks[hole] = blocks[j];
      hole = j;
    }
  }
  blocks[hole].ptr = 0;
  --block_count;
}

// --- distinct stacks ------------------------------------------------------

static int grow_index(void) {
  const size_t cap = index_cap ? 2 * index_cap : (size_t)1 << 14;
  uint32_t* fresh = map(cap * sizeof(uint32_t));
  if (fresh == NULL) return 0;
  if (stack_index != NULL) munmap(stack_index, index_cap * sizeof(uint32_t));
  stack_index = fresh;
  index_cap = cap;
  for (size_t s = 0; s < stack_count; ++s) {
    size_t i = stacks[s].hash & (cap - 1);
    while (stack_index[i] != 0) i = (i + 1) & (cap - 1);
    stack_index[i] = (uint32_t)(s + 1);
  }
  return 1;
}

// The number of the stack with these frames, added if new; -1 when out of
// memory.
static long intern_stack(const uintptr_t* frames, uint32_t depth) {
  uint64_t hash = depth;
  for (uint32_t k = 0; k < depth; ++k) hash = mix(hash ^ frames[k]);
  if (2 * (stack_count + 1) > index_cap && !grow_index()) return -1;
  size_t i = hash & (index_cap - 1);
  for (; stack_index[i] != 0; i = (i + 1) & (index_cap - 1)) {
    const Stack* s = &stacks[stack_index[i] - 1];
    if (s->hash == hash && s->depth == depth &&
        memcmp(s->frames, frames, depth * sizeof(uintptr_t)) == 0) {
      return stack_index[i] - 1;
    }
  }
  if (stack_count == stack_cap) {
    const size_t cap = stack_cap ? 2 * stack_cap : 4096;
    Stack* fresh = stacks == NULL
                       ? map(cap * sizeof(Stack))
                       : mremap(stacks, stack_cap * sizeof(Stack),
                                cap * sizeof(Stack), MREMAP_MAYMOVE);
    if (fresh == NULL || fresh == MAP_FAILED) return -1;
    stacks = fresh;
    stack_cap = cap;
  }
  Stack* s = &stacks[stack_count];
  memset(s, 0, sizeof *s);
  memcpy(s->frames, frames, depth * sizeof(uintptr_t));
  s->depth = depth;
  s->hash = hash;
  s->seen_epoch = epoch;  // it held nothing at every earlier peak
  stack_index[i] = (uint32_t)(stack_count + 1);
  return (long)stack_count++;
}

// Applies a change to a stack's live sums, first saving the sums it had at
// the latest peak if this is its first change since then.
static void change(Stack* s, int64_t bytes, int64_t count) {
  if (s->seen_epoch != epoch) {
    s->peak_bytes = s->live_bytes;
    s->peak_blocks = s->live_blocks;
    s->seen_epoch = epoch;
  }
  s->live_bytes += (uint64_t)bytes;
  s->live_blocks += (uint64_t)count;
  live_total += (uint64_t)bytes;
  live_blocks += (uint64_t)count;
  if (live_total > peak_total) {
    peak_total = live_total;
    peak_blocks = live_blocks;
    ++epoch;
  }
}

// --- hooks ----------------------------------------------------------------

static void acquire_lock(void) {
  while (__atomic_exchange_n(&lock, 1, __ATOMIC_ACQUIRE)) {
  }
}

static void release_lock(void) { __atomic_store_n(&lock, 0, __ATOMIC_RELEASE); }

// Records a new block. `fp` is the wrapper's frame pointer: its saved
// {caller's frame pointer, return address} pair starts the walk.
__attribute__((noinline)) static void note_alloc(void* p, size_t size,
                                                 uintptr_t fp) {
  if (p == NULL || !__atomic_load_n(&enabled, __ATOMIC_RELAXED)) return;
  uintptr_t frames[kDepth];
  uint32_t depth = 0;
  const uintptr_t low = (uintptr_t)__builtin_frame_address(0);
  while (depth < kDepth && fp >= low && fp % 8 == 0 && fp <= stack_top - 16) {
    const uintptr_t* frame = (const uintptr_t*)fp;
    if (frame[1] == 0) break;
    frames[depth++] = frame[1];
    if (frame[0] <= fp) break;
    fp = frame[0];
  }
  acquire_lock();
  if (2 * (block_count + 1) > block_cap && !grow_blocks()) {
    release_lock();
    return;
  }
  const long stack = intern_stack(frames, depth);
  if (stack >= 0) {
    const size_t i = block_slot((uintptr_t)p);
    if (blocks[i].ptr == 0) ++block_count;
    else change(&stacks[blocks[i].stack], -(int64_t)blocks[i].size, -1);
    blocks[i].ptr = (uintptr_t)p;
    blocks[i].size = size;
    blocks[i].stack = (uint32_t)stack;
    change(&stacks[stack], (int64_t)size, 1);
  }
  release_lock();
}

static void note_free(void* p) {
  if (p == NULL || !__atomic_load_n(&enabled, __ATOMIC_RELAXED)) return;
  acquire_lock();
  if (block_cap != 0) {
    const size_t i = block_slot((uintptr_t)p);
    if (blocks[i].ptr != 0) {
      change(&stacks[blocks[i].stack], -(int64_t)blocks[i].size, -1);
      erase_block(i);
    }
  }
  release_lock();
}

#define CALLER_FP ((uintptr_t)__builtin_frame_address(0))

void* malloc(size_t size) {
  void* p = __libc_malloc(size);
  note_alloc(p, size, CALLER_FP);
  return p;
}

void* calloc(size_t n, size_t size) {
  void* p = __libc_calloc(n, size);
  note_alloc(p, n * size, CALLER_FP);
  return p;
}

void* realloc(void* old, size_t size) {
  note_free(old);
  void* p = __libc_realloc(old, size);
  note_alloc(p, size, CALLER_FP);
  return p;
}

void free(void* p) {
  note_free(p);
  __libc_free(p);
}

void* memalign(size_t align, size_t size) {
  void* p = __libc_memalign(align, size);
  note_alloc(p, size, CALLER_FP);
  return p;
}

void* aligned_alloc(size_t align, size_t size) {
  if (align == 0 || (align & (align - 1)) != 0) {
    errno = EINVAL;
    return NULL;
  }
  void* p = __libc_memalign(align, size);
  note_alloc(p, size, CALLER_FP);
  return p;
}

int posix_memalign(void** out, size_t align, size_t size) {
  if (align % sizeof(void*) != 0 || (align & (align - 1)) != 0) {
    return EINVAL;
  }
  void* p = __libc_memalign(align, size);
  if (p == NULL) return ENOMEM;
  note_alloc(p, size, CALLER_FP);
  *out = p;
  return 0;
}

void* valloc(size_t size) {
  void* p = __libc_valloc(size);
  note_alloc(p, size, CALLER_FP);
  return p;
}

void* pvalloc(size_t size) {
  void* p = __libc_pvalloc(size);
  note_alloc(p, size, CALLER_FP);
  return p;
}

// --- start and report -----------------------------------------------------

__attribute__((constructor)) static void sprof_heap_start(void) {
  if (getenv("SPROF_OUT") == NULL) return;
  pthread_attr_t attr;
  void* base;
  size_t size;
  if (pthread_getattr_np(pthread_self(), &attr) != 0) return;
  pthread_attr_getstack(&attr, &base, &size);
  pthread_attr_destroy(&attr);
  stack_top = (uintptr_t)base + size;
  __atomic_store_n(&enabled, 1, __ATOMIC_RELAXED);
}

__attribute__((destructor)) static void sprof_heap_stop(void) {
  const char* path = getenv("SPROF_OUT");
  if (path == NULL || !enabled) return;
  acquire_lock();
  __atomic_store_n(&enabled, 0, __ATOMIC_RELAXED);  // stdio below allocates
  release_lock();
  FILE* out = fopen(path, "w");
  FILE* maps = fopen("/proc/self/maps", "r");
  if (out == NULL || maps == NULL) return;
  fprintf(out, "sprof-heap peak_bytes=%llu peak_blocks=%llu stacks=%zu\n",
          (unsigned long long)peak_total, (unsigned long long)peak_blocks,
          stack_count);
  fputs("maps\n", out);
  char line[4096];
  while (fgets(line, sizeof line, maps) != NULL) fputs(line, out);
  fclose(maps);
  fputs("stacks\n", out);
  for (size_t s = 0; s < stack_count; ++s) {
    const Stack* st = &stacks[s];
    // A stack unchanged since the peak still holds its peak sums.
    const uint64_t bytes = st->seen_epoch == epoch ? st->peak_bytes
                                                   : st->live_bytes;
    const uint64_t count = st->seen_epoch == epoch ? st->peak_blocks
                                                   : st->live_blocks;
    if (bytes == 0) continue;
    fprintf(out, "%llu %llu", (unsigned long long)bytes,
            (unsigned long long)count);
    for (uint32_t k = 0; k < st->depth; ++k) {
      fprintf(out, " %lx", (unsigned long)st->frames[k]);
    }
    fputc('\n', out);
  }
  fclose(out);
}
