/* Monotonic nanosecond clock for the benchmark's own spans.
   Unix.gettimeofday has microsecond resolution, too coarse for
   sub-microsecond layers such as an LRU lookup. */

#include <time.h>
#include <caml/mlvalues.h>

value bench_mono_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + (long)ts.tv_nsec);
}

/* CPU time of the calling thread: it leaves out time spent waiting for
   a CPU, but not time spent on a CPU that runs slower. */
value bench_thread_cpu_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + (long)ts.tv_nsec);
}
