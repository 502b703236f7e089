(* Public facade of the kernel library. *)

module Errno = Errno
module Signo = Signo
module Uarg = Uarg
module Sysno = Sysno
module Vfs = Vfs
module Proc = Proc
module Kstate = Kstate
module Exec = Exec
module Sys_impl = Sys_impl
module Signal_dispatch = Signal_dispatch
module Ptrace_impl = Ptrace_impl
module Loop = Loop

type t = Kstate.t

let boot = Kstate.boot
let spawn = Exec.spawn
let run = Loop.run

(* Exit status of [pid], if it has terminated (and not yet been reaped). *)
let status_of k pid =
  match Kstate.find_proc k pid with
  | Some p ->
    (match p.Proc.state with
     | Proc.Zombie s -> Some s
     | Proc.Runnable | Proc.Sleeping _ | Proc.Stopped _ -> None)
  | None -> None

(* Drive the system in fixed instruction chunks until quiescence, until
   [p] is a zombie, or until [max_steps] total instructions, calling
   [on_chunk] after every chunk. The chunk size is part of the simulated
   result, not just of the observation: each chunk is one [run], so a
   chunk that ends mid-quantum cuts that quantum short, charges the
   process [Kstate.ctx_switch_cost] as a preemption would, and the next
   chunk starts a fresh quantum on the next process in the run queue.
   Cycles (and hence latency stamps) therefore differ between chunk
   sizes; they are deterministic for a fixed chunk, which is what lets
   callers sample consoles or counters at reproducible points — the
   fleet layer stamps request-completion markers with simulated cycles
   this way. Returns total instructions executed. *)
let run_chunked ?(chunk = 20_000) ~max_steps k (p : Proc.t) ~on_chunk =
  let executed = ref 0 in
  let running = ref true in
  while !running do
    let n = run ~max_steps:chunk k in
    executed := !executed + n;
    on_chunk ();
    if n = 0 || Proc.is_zombie p || !executed >= max_steps then
      running := false
  done;
  !executed

(* Convenience: spawn a program, run the system to quiescence, and return
   (status, console output, fault log, the process itself). *)
let run_program ?(max_steps = 200_000_000) k ~path ~argv =
  let p = spawn k ~path ~argv () in
  let _ = run ~max_steps k in
  status_of k p.Proc.pid, Buffer.contents p.Proc.console, p
