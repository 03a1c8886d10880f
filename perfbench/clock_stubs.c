/* Monotonic nanosecond clock for the benchmark's per-call timing.
   Returns a tagged OCaml int, so the OCaml side neither allocates
   nor boxes. */
#include <time.h>
#include <caml/mlvalues.h>

value perfbench_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec);
}
