// Sampling CPU profiler, loaded into a program with LD_PRELOAD; see
// scripts/sprof.py, which builds it, runs a program under it and
// symbolizes the result.
//
//   cc -O2 -fPIC -shared -o sprof.so scripts/sprof.c
//   SPROF_OUT=samples.txt LD_PRELOAD=./sprof.so PROGRAM ...
//
// Before main, it arms setitimer(ITIMER_PROF), which sends SIGPROF as the
// process uses CPU time. The kernel checks CPU timers only at its
// scheduler tick (4 ms at 250 Hz, 1 ms at 1000 Hz), so the 1 ms period,
// at or below any tick, yields one sample per tick. The handler stores
// the interrupted instruction pointer and up to 24 return addresses found
// by walking frame pointers (build the program with
// -fno-omit-frame-pointer) in a static buffer; it allocates nothing and
// reads only stack memory between the interrupted stack pointer and the
// top of the main thread's stack. At exit it writes the process's CPU
// time, /proc/self/maps and one line of hex addresses per sample to
// SPROF_OUT. Linux x86-64, one sampled thread.
#define _GNU_SOURCE
#include <pthread.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <time.h>
#include <ucontext.h>

enum { kDepth = 25, kMaxSamples = 1 << 17 };  // ip + 24 return addresses

static uintptr_t samples[kMaxSamples][kDepth];
static unsigned char depths[kMaxSamples];
static volatile sig_atomic_t count, dropped;
static uintptr_t stack_top;

static void on_sigprof(int sig, siginfo_t* info, void* context) {
  (void)sig;
  (void)info;
  if (count >= kMaxSamples) {
    ++dropped;
    return;
  }
  const ucontext_t* uc = context;
  uintptr_t* frames = samples[count];
  const uintptr_t sp = (uintptr_t)uc->uc_mcontext.gregs[REG_RSP];
  uintptr_t fp = (uintptr_t)uc->uc_mcontext.gregs[REG_RBP];
  int n = 0;
  frames[n++] = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
  // Each frame holds {caller's frame pointer, return address}; frames lie
  // at rising addresses towards the stack's top.
  while (n < kDepth && fp >= sp && fp % 8 == 0 && fp <= stack_top - 16) {
    const uintptr_t* frame = (const uintptr_t*)fp;
    if (frame[1] == 0) break;
    frames[n++] = frame[1];
    if (frame[0] <= fp) break;
    fp = frame[0];
  }
  depths[count] = (unsigned char)n;
  ++count;
}

__attribute__((constructor)) static void sprof_start(void) {
  if (getenv("SPROF_OUT") == NULL) return;
  pthread_attr_t attr;
  void* base;
  size_t size;
  if (pthread_getattr_np(pthread_self(), &attr) != 0) return;
  pthread_attr_getstack(&attr, &base, &size);
  pthread_attr_destroy(&attr);
  stack_top = (uintptr_t)base + size;
  struct sigaction action;
  memset(&action, 0, sizeof action);
  action.sa_sigaction = on_sigprof;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  sigaction(SIGPROF, &action, NULL);
  const struct timeval every = {0, 1000};  // 1 ms
  const struct itimerval timer = {every, every};
  setitimer(ITIMER_PROF, &timer, NULL);
}

__attribute__((destructor)) static void sprof_stop(void) {
  const char* path = getenv("SPROF_OUT");
  if (path == NULL || stack_top == 0) return;
  const struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, NULL);
  struct timespec cpu;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &cpu);
  FILE* out = fopen(path, "w");
  FILE* maps = fopen("/proc/self/maps", "r");
  if (out == NULL || maps == NULL) return;
  fprintf(out, "sprof cpu_s=%.3f samples=%d dropped=%d\n",
          cpu.tv_sec + cpu.tv_nsec * 1e-9, (int)count, (int)dropped);
  fputs("maps\n", out);
  char line[4096];
  while (fgets(line, sizeof line, maps) != NULL) fputs(line, out);
  fclose(maps);
  fputs("samples\n", out);
  for (int i = 0; i < count; ++i) {
    for (int j = 0; j < depths[i]; ++j) {
      fprintf(out, j ? " %lx" : "%lx", (unsigned long)samples[i][j]);
    }
    fputc('\n', out);
  }
  fclose(out);
}
