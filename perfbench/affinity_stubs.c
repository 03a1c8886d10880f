/* CPU affinity of the calling thread, for placing the serve daemon and
   the load generator on CPUs of their own.  A child process inherits
   the affinity of the thread that spawns it. */
#define _GNU_SOURCE
#include <sched.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>

/* The CPUs the calling thread may run on, in increasing order. */
value perfbench_allowed_cpus(value unit)
{
  CAMLparam1(unit);
  CAMLlocal2(list, cell);
  cpu_set_t set;
  int cpu;
  list = Val_emptylist;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (cpu = CPU_SETSIZE - 1; cpu >= 0; cpu--) {
      if (CPU_ISSET(cpu, &set)) {
        cell = caml_alloc_small(2, Tag_cons);
        Field(cell, 0) = Val_int(cpu);
        Field(cell, 1) = list;
        list = cell;
      }
    }
  }
  CAMLreturn(list);
}

/* Restricts the calling thread to one CPU; false when refused. */
value perfbench_pin_to_cpu(value cpu)
{
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(Int_val(cpu), &set);
  return Val_bool(sched_setaffinity(0, sizeof set, &set) == 0);
}
