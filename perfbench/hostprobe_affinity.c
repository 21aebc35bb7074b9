/* hostprobe --cpu-index K: pin the calling process to the K-th CPU
   (from 0) of the set it may run on. */
#define _GNU_SOURCE
#include <sched.h>
#include <caml/mlvalues.h>

value hostprobe_pin(value index)
{
  cpu_set_t allowed, one;
  int k = Int_val(index);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return Val_false;
  for (int cpu = 0; cpu < CPU_SETSIZE; cpu++)
    if (CPU_ISSET(cpu, &allowed) && k-- == 0) {
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      return Val_bool(sched_setaffinity(0, sizeof one, &one) == 0);
    }
  return Val_false;
}
