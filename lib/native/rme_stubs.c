/* Native-substrate C stubs: the monotonic clock for the per-passage
   latency histograms, and best-effort thread-to-core pinning. All are
   [@@noalloc]-safe: no OCaml allocation, no callbacks, no blocking. */

#define _GNU_SOURCE

#include <caml/mlvalues.h>
#include <stdint.h>
#include <time.h>

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
