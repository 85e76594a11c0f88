/* CPU affinity of one thread (Linux sched_getaffinity/sched_setaffinity),
   for Affinity. A tid of 0 is the calling thread. */

#define _GNU_SOURCE
#include <sched.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>

/* The CPUs [tid] may run on, ascending; empty when it cannot be read. */
value qpb_get_affinity(value tid)
{
  CAMLparam1(tid);
  CAMLlocal1(res);
  cpu_set_t set;
  int n = 0, k = 0;
  CPU_ZERO(&set);
  if (sched_getaffinity(Int_val(tid), sizeof set, &set) != 0)
    CAMLreturn(Atom(0));
  for (int c = 0; c < CPU_SETSIZE; c++)
    if (CPU_ISSET(c, &set)) n++;
  if (n == 0) CAMLreturn(Atom(0));
  res = caml_alloc_tuple(n);
  for (int c = 0; c < CPU_SETSIZE; c++)
    if (CPU_ISSET(c, &set)) Store_field(res, k++, Val_int(c));
  CAMLreturn(res);
}

/* Restrict [tid] to [cpus]; true when the kernel accepted it. */
value qpb_set_affinity(value tid, value cpus)
{
  CAMLparam2(tid, cpus);
  cpu_set_t set;
  CPU_ZERO(&set);
  for (mlsize_t i = 0; i < Wosize_val(cpus); i++) {
    int c = Int_val(Field(cpus, i));
    if (c >= 0 && c < CPU_SETSIZE) CPU_SET(c, &set);
  }
  CAMLreturn(Val_bool(sched_setaffinity(Int_val(tid), sizeof set, &set) == 0));
}
