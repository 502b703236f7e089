(* Signal delivery and return (Fig. 2, right panel).

   Delivery copies the full register state — including every capability
   register, with tags — into a signal frame on the user stack, then
   redirects execution to the handler with the return path pointing at the
   signal trampoline page. [sigreturn] restores the saved state. Because
   the saved capabilities live in tagged memory, a handler can inspect or
   legitimately modify them, but cannot forge new ones: overwriting a saved
   capability with data clears its tag, and resuming through it faults. *)

module Cap = Cheri_cap.Cap
module Perms = Cheri_cap.Perms
module Cpu = Cheri_isa.Cpu
module Reg = Cheri_isa.Reg
module Abi = Cheri_core.Abi
module Addr_space = Cheri_vm.Addr_space

(* Frame layout (bytes):
   0..255    gpr[0..31]
   256       pcc
   272       ddc
   288+16i   creg[1..31]
   784       signal number
   792       pad
   size      800 *)
let frame_size = 800

(* The frame holds the process's own capabilities: copies, not grants. *)
let write_frame k p frame =
  let ctx = p.Proc.ctx in
  for i = 0 to 31 do
    Kstate.kwrite_int k p (frame + (i * 8)) ~len:8 ctx.Cpu.gpr.(i)
  done;
  Kstate.copy k p (Kaddr (frame + 256)) ctx.Cpu.pcc;
  Kstate.copy k p (Kaddr (frame + 272)) ctx.Cpu.ddc;
  for i = 1 to 31 do
    Kstate.copy k p (Kaddr (frame + 288 + ((i - 1) * 16))) (Cpu.rd_creg ctx i)
  done

let read_frame k p frame =
  let ctx = p.Proc.ctx in
  for i = 1 to 31 do
    ctx.Cpu.gpr.(i) <- Kstate.kread_int k p (frame + (i * 8)) ~len:8
  done;
  Kstate.copy k p Pcc (Kstate.kread_cap k p (frame + 256));
  Kstate.copy k p Ddc (Kstate.kread_cap k p (frame + 272));
  for i = 1 to 31 do
    Kstate.copy k p (Creg i)
      (Kstate.kread_cap k p (frame + 288 + ((i - 1) * 16)))
  done

(* Push a signal frame and enter the handler. *)
let deliver_to_handler k (p : Proc.t) sig_ handler =
  let ctx = p.Proc.ctx in
  let sp_now =
    match p.Proc.abi with
    | Abi.Cheriabi -> Cap.addr (Cpu.rd_creg ctx Reg.csp)
    | Abi.Mips64 | Abi.Asan -> ctx.Cpu.gpr.(Reg.sp)
  in
  let frame = (sp_now - frame_size) land lnot 15 in
  write_frame k p frame;
  Kstate.kwrite_int k p (frame + 784) ~len:8 sig_;
  ctx.Cpu.gpr.(Reg.a0) <- sig_;
  (match p.Proc.abi, handler with
   | Abi.Cheriabi, Uarg.Ucap hcap ->
     let root = Addr_space.root_cap p.Proc.asp in
     (* Return capability: tightly bounded to the trampoline page. *)
     let tramp =
       Cap.and_perms
         (Cap.set_bounds (Cap.set_addr root Exec.sigcode_base) ~len:16)
         Perms.code
     in
     Kstate.copy k p (Creg Reg.csp)
       (Cap.set_addr (Cpu.rd_creg ctx Reg.csp) frame);
     Kstate.grant k p ~origin:Signal (Creg Reg.cra) tramp;
     (* The handler capability is the process's own, from sigaction. *)
     Kstate.copy k p Pcc hcap
   | (Abi.Mips64 | Abi.Asan), Uarg.Uaddr a ->
     ctx.Cpu.gpr.(Reg.sp) <- frame;
     ctx.Cpu.gpr.(Reg.ra) <- Exec.sigcode_base;
     Kstate.copy k p Pcc (Cap.set_addr ctx.Cpu.pcc a)
   | Abi.Cheriabi, Uarg.Uaddr a ->
     (* A CheriABI handler registered as a bare address can only have come
        from an untagged value; entering it will fault, which is correct. *)
     Kstate.copy k p Pcc (Cap.set_addr Cap.null a)
   | (Abi.Mips64 | Abi.Asan), Uarg.Ucap c ->
     Kstate.copy k p Pcc (Cap.set_addr ctx.Cpu.pcc (Cap.addr c)));
  Kstate.charge k p 400

(* Act on one pending signal. Returns [false] if the process died. *)
let dispatch_one k (p : Proc.t) sig_ =
  match p.Proc.sigdisp.(sig_) with
  | Proc.Sig_handler h ->
    deliver_to_handler k p sig_ h;
    true
  | Proc.Sig_ignore -> true
  | Proc.Sig_default ->
    (match Signo.default_action sig_ with
     | Signo.Ignore -> true
     | Signo.Stop ->
       p.Proc.state <- Proc.Stopped sig_;
       true
     | Signo.Terminate ->
       Proc.log_fault p (Printf.sprintf "killed by %s" (Signo.name sig_));
       Kstate.exit_proc k p (Proc.Signaled sig_);
       false)

(* Deliver all pending signals before the process next runs. *)
let deliver_pending k (p : Proc.t) =
  let rec go () =
    if Proc.is_runnable p then
      match Proc.take_signal p with
      | None -> true
      | Some s -> if dispatch_one k p s then go () else false
    else not (Proc.is_zombie p)
  in
  go ()

(* The sigreturn system call: restore the saved context from [frame]. *)
let sigreturn k (p : Proc.t) frame_uptr =
  let frame = Uarg.addr_of_uptr frame_uptr in
  (* Validate that the frame lies in user space and is accessible. *)
  let _ = Kstate.check_uptr k p frame_uptr ~len:frame_size ~write:false in
  read_frame k p frame;
  Kstate.charge k p 300
