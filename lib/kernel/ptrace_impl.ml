(* ptrace: process debugging across two abstract principals.

   The debugger and target are distinct principals, so capabilities must
   never flow directly between their address spaces (§3, "Debugging"). A
   capability *injected* into the target (PT_POKECAP) is specified by its
   architectural fields and rederived from the target's own root — exactly
   like swap-in rederivation — never copied from a debugger register.

   Address arguments passed to ptrace denote *target* virtual addresses and
   are therefore plain integers; buffer arguments (PT_GETREGS etc.) are
   ordinary pointers into the *debugger's* space and are checked like any
   other user pointer. *)

module Cap = Cheri_cap.Cap
module Cpu = Cheri_isa.Cpu
module Swap = Cheri_vm.Swap
module Addr_space = Cheri_vm.Addr_space

let err = Errno.raise_errno

let target_of k (p : Proc.t) pid =
  let t = Kstate.proc_exn k pid in
  if t.Proc.pid = p.Proc.pid then err Errno.EINVAL;
  t

let require_traced (p : Proc.t) (t : Proc.t) =
  match t.Proc.traced_by with
  | Some d when d = p.Proc.pid -> ()
  | _ -> err Errno.EBUSY

(* Register dump layout: gpr[0..31] (8 bytes each) then pc. *)
let getregs_bytes (t : Proc.t) =
  let out = Bytes.create (33 * 8) in
  for i = 0 to 31 do
    Bytes.set_int64_le out (i * 8) (Int64.of_int t.Proc.ctx.Cpu.gpr.(i))
  done;
  Bytes.set_int64_le out (32 * 8)
    (Int64.of_int (Cap.addr t.Proc.ctx.Cpu.pcc));
  out

(* Capability-register dump: tag, perms, base, top, addr (5 x 8 bytes). *)
let getcap_bytes (t : Proc.t) reg =
  if reg < 0 || reg > 31 then err Errno.EINVAL;
  let c = Cpu.rd_creg t.Proc.ctx reg in
  let out = Bytes.create 40 in
  let put i v = Bytes.set_int64_le out (i * 8) (Int64.of_int v) in
  put 0 (if Cap.is_tagged c then 1 else 0);
  put 1 (Cap.perms c);
  put 2 (Cap.base c);
  put 3 (Cap.top c);
  put 4 (Cap.addr c);
  out

let dispatch k (p : Proc.t) ~req ~pid ~addr ~data =
  if req = Sysno.pt_attach then begin
    let t = target_of k p pid in
    if t.Proc.traced_by <> None then err Errno.EBUSY;
    t.Proc.traced_by <- Some p.Proc.pid;
    t.Proc.state <- Proc.Stopped Signo.sigstop;
    Sys_impl_ret.rint 0
  end
  else begin
    let t = target_of k p pid in
    require_traced p t;
    if req = Sysno.pt_detach then begin
      t.Proc.traced_by <- None;
      if t.Proc.state = Proc.Stopped Signo.sigstop then
        t.Proc.state <- Proc.Runnable;
      Sys_impl_ret.rint 0
    end
    else if req = Sysno.pt_continue then begin
      (match t.Proc.state with
       | Proc.Stopped _ -> t.Proc.state <- Proc.Runnable
       | _ -> ());
      if data > 0 && data < Signo.nsig then Proc.post_signal t data;
      Sys_impl_ret.rint 0
    end
    else if req = Sysno.pt_peek then begin
      (* [addr] is a target virtual address. *)
      let v = Kstate.kread_int k t (Uarg.addr_of_uptr addr) ~len:8 in
      Sys_impl_ret.rint v
    end
    else if req = Sysno.pt_poke then begin
      (* Data pokes clear tags in the target, as any data store does. *)
      Kstate.kwrite_int k t (Uarg.addr_of_uptr addr) ~len:8 data;
      Sys_impl_ret.rint 0
    end
    else if req = Sysno.pt_getregs then begin
      (* [addr] is a debugger buffer. *)
      Kstate.copyout k p addr (getregs_bytes t);
      Sys_impl_ret.rint 0
    end
    else if req = Sysno.pt_getcap then begin
      Kstate.copyout k p addr (getcap_bytes t data);
      Sys_impl_ret.rint 0
    end
    else if req = Sysno.pt_pokecap then begin
      (* The debugger describes the capability; the kernel rederives it
         from the *target's* root and stores it at target address [data].
         Requests outside the target's authority fail. *)
      let desc = Kstate.copyin k p addr ~len:40 in
      let get i = Int64.to_int (Bytes.get_int64_le desc (i * 8)) in
      let saved =
        { Swap.s_perms = get 1; s_base = get 2; s_top = get 3;
          s_addr = get 4; s_otype = Cap.otype_unsealed }
      in
      let root = Addr_space.root_cap t.Proc.asp in
      let c = Swap.rederive ~root saved in
      if not (Cap.is_tagged c) then err Errno.EPROT;
      Kstate.grant k t ~origin:Ptrace (Kaddr data) c;
      Sys_impl_ret.rint 0
    end
    else err Errno.EINVAL
  end
