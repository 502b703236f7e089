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
  k.Kstate.machine.Cpu.translate <-
    (fun v ~write ~exec -> Pmap.translate pmap v ~write ~exec);
  k.Kstate.machine.Cpu.fetch <- Proc.fetch p;
  k.Kstate.machine.Cpu.tracer <- Kstate.tracer_for k p

(* --- System-call dispatch --------------------------------------------------------- *)

let do_syscall k (p : Proc.t) =
  let ctx = p.Proc.ctx in
  let num = ctx.Cpu.gpr.(Reg.v0) in
  p.Proc.syscall_count <- p.Proc.syscall_count + 1;
  Kstate.charge k p
    (match p.Proc.abi with
     | Abi.Cheriabi -> Kstate.trap_cost_cheri
     | Abi.Mips64 | Abi.Asan -> Kstate.trap_cost_legacy);
  match Sys_impl.lookup num with
  | Some e ->
    Kstate.bump_stat k (Uarg.name e);
    let entry_pcc = ctx.Cpu.pcc in
    (try
       match Uarg.call ~split:true p.Proc.abi ctx e k p with
       | Sys_impl.RInt v -> ctx.Cpu.gpr.(Reg.v0) <- v
       | Sys_impl.RPtr (Uarg.Uaddr a) -> ctx.Cpu.gpr.(Reg.v0) <- a
       | Sys_impl.RPtr (Uarg.Ucap c) ->
         (* mmap and shmat granted [c] where they made it. *)
         Kstate.copy k p (Creg Reg.ca0) c;
         ctx.Cpu.gpr.(Reg.v0) <- 0
       | Sys_impl.RNone -> ()
     with
     | Errno.Error e ->
       ctx.Cpu.gpr.(Reg.v0) <- -(Errno.to_code e);
       (* Pointer-returning syscalls signal errors in the result
          capability register too: an untagged value holding -errno. *)
       if p.Proc.abi = Abi.Cheriabi then
         Kstate.copy k p (Creg Reg.ca0)
           (Cap.set_addr Cap.null (-(Errno.to_code e)))
     | Sys_impl.Restart ->
       (* Re-execute the SYSCALL instruction after wakeup. *)
       Kstate.copy k p Pcc (Cap.set_addr entry_pcc (Cap.addr entry_pcc - 4)))
  | None -> ctx.Cpu.gpr.(Reg.v0) <- -(Errno.to_code Errno.ENOSYS)

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
    let on_rederive = Kstate.admit k p ~origin:Swap in
    (match Pmap.handle_fault pmap ~vaddr ~write ~exec ~on_rederive with
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
    (match Kstate.tracer_for k p with
     | Some sink ->
       sink (Trace.Fault { pc = Cap.addr p.Proc.ctx.Cpu.pcc;
                           cause = Trap.to_string cause })
     | None -> ());
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
              | None -> Kstate.charge k p Kstate.ctx_switch_cost
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
