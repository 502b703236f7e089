(* The scheduler and trap/syscall dispatch loop.

   Context switching installs the next process's address-space translation
   and code map into the machine (the kernel saves and restores the full
   capability register context implicitly, since each process owns its
   [Cpu.ctx] — Fig. 2, left panel). *)

module Cap = Cheri_cap.Cap
module Cpu = Cheri_isa.Cpu
module Bbcache = Cheri_isa.Bbcache
module Reg = Cheri_isa.Reg
module Trap = Cheri_isa.Trap
module Trace = Cheri_isa.Trace
module Abi = Cheri_core.Abi
module Pmap = Cheri_vm.Pmap
module Addr_space = Cheri_vm.Addr_space

let install_machine k (p : Proc.t) =
  let pmap = Addr_space.pmap p.Proc.asp in
  (* Decoded blocks are per address space: install this process's table
     (a pointer swap; blocks survive the other processes' timeslices). *)
  Bbcache.switch k.Kstate.bb p.Proc.bb_space;
  (* Check-elision facts ride along with the block cache: they apply only
     while the code they were proved against is still mapped unchanged.
     On a pmap-generation mismatch, consult the mutation log: if every
     intervening mutation (munmap/mprotect ranges) missed the fact set's
     code regions — the common case being heap churn — the facts stay
     valid and only their generation stamp is refreshed (the process's
     decoded blocks are still flushed by Bbcache's own map_gen check, but
     rebuilding them from retained facts is cheap; re-analysis is not).
     If the log window no longer covers the gap, or a mutation hit
     analyzed code, drop the facts conservatively. *)
  let facts =
    match p.Proc.facts with
    | Some _ when p.Proc.facts_gen = Pmap.generation pmap -> p.Proc.facts
    | Some _ ->
      let keep =
        p.Proc.fact_regions <> []
        && (match Pmap.mutations_since pmap ~gen:p.Proc.facts_gen with
            | None -> false
            | Some ranges ->
              List.for_all
                (fun (v, l) ->
                  not
                    (List.exists
                       (fun (b, top) -> v < top && v + l > b)
                       p.Proc.fact_regions))
                ranges)
      in
      if keep then begin
        p.Proc.facts_gen <- Pmap.generation pmap;
        p.Proc.facts
      end
      else begin
        p.Proc.facts <- None;
        None
      end
    | None -> None
  in
  Bbcache.set_facts k.Kstate.bb facts;
  k.Kstate.machine.Cpu.translate <-
    (fun v ~write ~exec -> Pmap.translate pmap v ~write ~exec);
  k.Kstate.machine.Cpu.fetch <- Proc.fetch p;
  k.Kstate.machine.Cpu.tracer <-
    (match k.Kstate.tracer, k.Kstate.trace_pid with
     | Some sink, Some pid when pid = p.Proc.pid -> Some sink
     | _ -> None)

(* --- System-call dispatch --------------------------------------------------------- *)

let marshal_args (p : Proc.t) spec =
  let ctx = p.Proc.ctx in
  match p.Proc.abi with
  | Abi.Mips64 | Abi.Asan ->
    List.mapi
      (fun i kind ->
        let v = ctx.Cpu.gpr.(Reg.a0 + i) in
        match kind with
        | Sysno.AInt -> Uarg.UInt v
        | Sysno.APtr -> Uarg.UPtr (Uarg.Uaddr v))
      spec
  | Abi.Cheriabi ->
    let ii = ref 0 and ci = ref 0 in
    List.map
      (function
        | Sysno.AInt ->
          let v = ctx.Cpu.gpr.(Reg.a0 + !ii) in
          incr ii;
          Uarg.UInt v
        | Sysno.APtr ->
          let c = ctx.Cpu.creg.(Reg.ca0 + !ci) in
          incr ci;
          Uarg.UPtr (Uarg.Ucap c))
      spec

let do_syscall k (p : Proc.t) =
  let ctx = p.Proc.ctx in
  let num = ctx.Cpu.gpr.(Reg.v0) in
  p.Proc.syscall_count <- p.Proc.syscall_count + 1;
  let cfg = k.Kstate.config in
  Kstate.charge k p
    (match p.Proc.abi with
     | Abi.Cheriabi -> cfg.Kstate.trap_cost_cheri
     | Abi.Mips64 | Abi.Asan -> cfg.Kstate.trap_cost_legacy);
  match Sysno.lookup num, Sys_impl.handler num with
  | Some (name, spec), Some h ->
    Kstate.bump_stat k name;
    let entry_pcc = ctx.Cpu.pcc in
    (try
       match h k p (marshal_args p spec) with
       | Sys_impl.RInt v -> ctx.Cpu.gpr.(Reg.v0) <- v
       | Sys_impl.RPtr (Uarg.Uaddr a) -> ctx.Cpu.gpr.(Reg.v0) <- a
       | Sys_impl.RPtr (Uarg.Ucap c) ->
         ctx.Cpu.creg.(Reg.ca0) <- c;
         ctx.Cpu.gpr.(Reg.v0) <- 0
       | Sys_impl.RNone -> ()
     with
     | Errno.Error e ->
       ctx.Cpu.gpr.(Reg.v0) <- -(Errno.to_code e);
       (* Pointer-returning syscalls signal errors in the result
          capability register too: an untagged value holding -errno. *)
       if p.Proc.abi = Abi.Cheriabi then
         ctx.Cpu.creg.(Reg.ca0) <- Cap.set_addr Cap.null (-(Errno.to_code e))
     | Sys_impl.Restart ->
       (* Re-execute the SYSCALL instruction after wakeup. *)
       ctx.Cpu.pcc <- Cap.set_addr entry_pcc (Cap.addr entry_pcc - 4))
  | _, _ -> ctx.Cpu.gpr.(Reg.v0) <- -(Errno.to_code Errno.ENOSYS)

(* --- Trap handling ------------------------------------------------------------------ *)

let signal_of_trap = function
  | Trap.Cap_fault _ -> Signo.sigprot
  | Trap.Page_fault _ | Trap.Address_error _ | Trap.Fetch_fault _ ->
    Signo.sigsegv
  | Trap.Unaligned _ -> Signo.sigbus
  | Trap.Reserved_instruction -> Signo.sigill
  | Trap.Break_trap _ -> Signo.sigabrt
  | Trap.Div_by_zero | Trap.Overflow -> Signo.sigfpe

let handle_trap k (p : Proc.t) cause =
  match cause with
  | Trap.Page_fault { vaddr; write; exec } ->
    let pmap = Addr_space.pmap p.Proc.asp in
    let on_rederive c = Kstate.trace_grant k p ~origin:"swap" c in
    (match Pmap.handle_fault pmap ~vaddr ~write ~exec ~on_rederive () with
     | Pmap.Handled -> Kstate.charge k p 220   (* fault service cost *)
     | Pmap.Bad_access | Pmap.Not_mapped ->
       Proc.log_fault p
         (Trap.to_string cause ^ " "
          ^ Proc.describe_pc p (Cap.addr p.Proc.ctx.Cpu.pcc));
       Proc.post_signal p Signo.sigsegv)
  | _ ->
    Proc.log_fault p
      (Trap.to_string cause ^ " "
       ^ Proc.describe_pc p (Cap.addr p.Proc.ctx.Cpu.pcc));
    (match k.Kstate.tracer, k.Kstate.trace_pid with
     | Some sink, Some pid when pid = p.Proc.pid ->
       sink (Trace.Fault { pc = Cap.addr p.Proc.ctx.Cpu.pcc;
                           cause = Trap.to_string cause })
     | _ -> ());
    Proc.post_signal p (signal_of_trap cause)

(* --- Main loop ------------------------------------------------------------------------- *)

(* Run the system until no process is runnable or [max_steps] user
   instructions have executed. Returns the number of instructions run. *)
let run ?(max_steps = max_int) k =
  let executed = ref 0 in
  let idle_scans = ref 0 in
  (* Stop once a full pass over the queue finds nothing runnable. *)
  let continue_ () =
    !executed < max_steps && k.Kstate.runq <> []
    && !idle_scans <= List.length k.Kstate.runq
  in
  while continue_ () do
    match k.Kstate.runq with
    | [] -> ()
    | pid :: rest ->
      k.Kstate.runq <- rest @ [ pid ];
      (match Kstate.find_proc k pid with
       | None -> ()
       | Some p ->
         if not (Proc.is_runnable p) then begin
           (* Count a full scan of non-runnable processes as idleness. *)
           incr idle_scans
         end
         else begin
           idle_scans := 0;
           install_machine k p;
           if Signal_dispatch.deliver_pending k p && Proc.is_runnable p then begin
             let before = p.Proc.ctx.Cpu.instret in
             let fuel =
               min k.Kstate.config.Kstate.quantum
                 (max 1 (max_steps - !executed))
             in
             let stop =
               match k.Kstate.config.Kstate.engine with
               | Cpu.Step -> Cpu.run k.Kstate.machine p.Proc.ctx ~fuel
               | Cpu.Chain ->
                 (* [fuel] is the scheduler quantum: the block cache checks
                    it per chained block entry, so preemption lands on
                    exactly the same instruction as the step engine
                    (mid-block expiry single-steps). *)
                 Bbcache.run
                   ~map_gen:(Pmap.generation (Addr_space.pmap p.Proc.asp))
                   k.Kstate.bb k.Kstate.machine p.Proc.ctx ~fuel
             in
             executed := !executed + (p.Proc.ctx.Cpu.instret - before);
             (match stop with
              | None -> Kstate.charge k p k.Kstate.config.Kstate.ctx_switch_cost
              | Some Cpu.Stop_syscall -> do_syscall k p
              | Some (Cpu.Stop_rt n) ->
                (match k.Kstate.rt_handler with
                 | Some h -> h k p n
                 | None ->
                   Proc.log_fault p "runtime builtin with no handler";
                   Kstate.exit_proc k p (Proc.Signaled Signo.sigill))
              | Some (Cpu.Stop_trap cause) -> handle_trap k p cause)
           end
         end)
  done;
  (* A pass that found only sleeping processes means deadlock or quiescence;
     idle_scans saturates and we return. *)
  !executed
