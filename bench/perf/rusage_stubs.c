/* Process accounting for the perf harness: a monotonic clock, wait4 with
   the child's resource usage, the calling process's own usage, and CPU
   pinning. Plain POSIX/Linux calls, so the harness needs no extra
   package. */

#define _GNU_SOURCE
#include <errno.h>
#include <sched.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

static double seconds_of_timeval(struct timeval tv)
{
  return (double)tv.tv_sec + (double)tv.tv_usec * 1e-6;
}

/* Nanoseconds on CLOCK_MONOTONIC; 63-bit OCaml ints hold ~146 years. */
value perf_monotonic_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + (long)ts.tv_nsec);
}

/* Wait for [pid]; returns (code, user_s, sys_s, maxrss_kib) where code is
   the exit status, or 128 + signal number for a killed child. */
value perf_wait4(value vpid)
{
  CAMLparam1(vpid);
  CAMLlocal1(res);
  pid_t pid = (pid_t)Int_val(vpid);
  int status = 0;
  int err = 0;
  struct rusage ru;
  pid_t r;
  memset(&ru, 0, sizeof ru);
  caml_enter_blocking_section();
  do {
    r = wait4(pid, &status, 0, &ru);
  } while (r < 0 && errno == EINTR);
  if (r < 0) err = errno;
  caml_leave_blocking_section();
  if (r < 0) caml_failwith(strerror(err));
  int code = WIFEXITED(status)   ? WEXITSTATUS(status)
             : WIFSIGNALED(status) ? 128 + WTERMSIG(status)
                                   : 255;
  res = caml_alloc_tuple(4);
  Store_field(res, 0, Val_int(code));
  Store_field(res, 1, caml_copy_double(seconds_of_timeval(ru.ru_utime)));
  Store_field(res, 2, caml_copy_double(seconds_of_timeval(ru.ru_stime)));
  Store_field(res, 3, Val_long(ru.ru_maxrss));
  CAMLreturn(res);
}

/* The CPUs the calling thread may run on, as an OCaml int list. */
value perf_allowed_cpus(value unit)
{
  CAMLparam1(unit);
  CAMLlocal2(list, cell);
  cpu_set_t set;
  int cpu;
  list = Val_emptylist;
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    for (cpu = CPU_SETSIZE - 1; cpu >= 0; cpu--)
      if (CPU_ISSET(cpu, &set)) {
        cell = caml_alloc(2, 0);
        Store_field(cell, 0, Val_int(cpu));
        Store_field(cell, 1, list);
        list = cell;
      }
  CAMLreturn(list);
}

/* Restrict the calling thread, and so every child it spawns from now
   on, to the given CPUs; false if the kernel refused. */
value perf_set_cpus(value cpus)
{
  cpu_set_t set;
  CPU_ZERO(&set);
  for (; cpus != Val_emptylist; cpus = Field(cpus, 1)) {
    int cpu = Int_val(Field(cpus, 0));
    if (cpu >= 0 && cpu < CPU_SETSIZE) CPU_SET(cpu, &set);
  }
  return Val_bool(sched_setaffinity(0, sizeof set, &set) == 0);
}

/* The calling process's (user_s + sys_s, maxrss_kib). */
value perf_self_usage(value unit)
{
  CAMLparam1(unit);
  CAMLlocal1(res);
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  res = caml_alloc_tuple(2);
  Store_field(res, 0,
              caml_copy_double(seconds_of_timeval(ru.ru_utime) +
                               seconds_of_timeval(ru.ru_stime)));
  Store_field(res, 1, Val_long(ru.ru_maxrss));
  CAMLreturn(res);
}
