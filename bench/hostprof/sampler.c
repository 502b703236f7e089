/* Host-time sampler: attach to a running process with PTRACE_SEIZE and,
   every INTERVAL microseconds, stop it with PTRACE_INTERRUPT, print its
   instruction pointer (one hex address per line, to stdout) and let it
   run on. Stops when the process exits or after MAX samples.

   usage: sampler PID [INTERVAL_US=500] [MAX=-1]

   Only the thread PID is sampled (the main domain of an OCaml program).
   x86-64 Linux only. bench/hostprof/hostprof.py drives it and
   symbolizes the addresses (docs/INTERP.md, "Where host time goes"). */

#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/ptrace.h>
#include <sys/types.h>
#include <sys/user.h>
#include <sys/wait.h>
#include <time.h>

int main(int argc, char **argv) {
  if (argc < 2) {
    fprintf(stderr, "usage: %s PID [INTERVAL_US] [MAX]\n", argv[0]);
    return 2;
  }
  pid_t pid = (pid_t)atoi(argv[1]);
  long interval = argc > 2 ? atol(argv[2]) : 500;
  long max = argc > 3 ? atol(argv[3]) : -1;
  struct timespec gap = { interval / 1000000, (interval % 1000000) * 1000 };
  if (ptrace(PTRACE_SEIZE, pid, NULL, NULL) == -1) {
    perror("sampler: PTRACE_SEIZE");
    return 1;
  }
  long n = 0;
  while (max < 0 || n < max) {
    nanosleep(&gap, NULL);
    if (ptrace(PTRACE_INTERRUPT, pid, NULL, NULL) == -1) break;
    int status;
    if (waitpid(pid, &status, __WALL) == -1) break;
    if (WIFEXITED(status) || WIFSIGNALED(status)) break;
    struct user_regs_struct regs;
    if (ptrace(PTRACE_GETREGS, pid, NULL, &regs) == 0) {
      printf("%llx\n", (unsigned long long)regs.rip);
      n++;
    }
    /* A signal-delivery stop (not our interrupt) passes its signal on. */
    int sig = (status >> 16) == PTRACE_EVENT_STOP ? 0 : WSTOPSIG(status);
    if (ptrace(PTRACE_CONT, pid, NULL, (void *)(long)sig) == -1) break;
  }
  fflush(stdout);
  fprintf(stderr, "sampler: %ld samples\n", n);
  return 0;
}
