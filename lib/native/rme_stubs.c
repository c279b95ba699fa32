/* Native-substrate C stubs: the cache-line-padded cell allocator, the
   monotonic clock for the per-passage latency histograms, and
   best-effort thread-to-core pinning. Apart from the allocator all are
   [@@noalloc]-safe: no OCaml allocation, no callbacks, no blocking. */

#define _GNU_SOURCE

#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <stdint.h>
#include <time.h>

/* One cache line per padded cell, header included (the x86-64 line). */
#define RME_CACHE_LINE_BSIZE 64

/* A padded [int Atomic.t], as OCaml 5.2's [caml_atomic_make_contended]
   builds it: a block of one cache line (7 fields + header on 64-bit)
   allocated straight into the major heap. Field 0 is the atomic's value
   ([Atomic] ops only ever touch field 0); the rest is [Val_unit]
   padding. The major heap's size-class pools hand out such blocks in
   64-byte slots, so field 0 of any two padded cells lies on different
   lines. The block is never promoted, and compaction (OCaml >= 5.2)
   only moves it to another slot of the same size class, so no
   collection can pack the cells together again. [init] is an
   immediate, so the plain store needs no write barrier. */
CAMLprim value rme_make_padded(value init)
{
  const mlsize_t wosize = Wosize_bhsize(RME_CACHE_LINE_BSIZE);
  value cell = caml_alloc_shr(wosize, 0);
  Field(cell, 0) = init;
  for (mlsize_t i = 1; i < wosize; i++) Field(cell, i) = Val_unit;
  return cell;
}

/* Monotonic wall clock in nanoseconds, as a tagged int. 62 bits of
   nanoseconds overflow after ~73 years of uptime, so Val_long is safe. */
CAMLprim value rme_monotonic_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((int64_t)ts.tv_sec * 1000000000 + (int64_t)ts.tv_nsec);
}

/* Pin the calling thread (hence the calling domain: OCaml 5 domains are
   one systhread at a time on the domain's backbone thread) to one core.
   Linux-only; everywhere else a clean no-op that reports failure so the
   harness can record "pinning unavailable" instead of pretending. */
#if defined(__linux__)

#include <pthread.h>
#include <sched.h>

CAMLprim value rme_pin_current_thread(value core)
{
  cpu_set_t set;
  long c = Long_val(core);
  if (c < 0 || c >= CPU_SETSIZE) return Val_false;
  CPU_ZERO(&set);
  CPU_SET((int)c, &set);
  return Val_bool(pthread_setaffinity_np(pthread_self(), sizeof(cpu_set_t),
                                         &set) == 0);
}

CAMLprim value rme_pin_supported(value unit)
{
  (void)unit;
  return Val_true;
}

#else

CAMLprim value rme_pin_current_thread(value core)
{
  (void)core;
  return Val_false;
}

CAMLprim value rme_pin_supported(value unit)
{
  (void)unit;
  return Val_false;
}

#endif
