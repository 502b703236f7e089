(* Debugging across two abstract principals (§3 "Debugging", §4).

   A debugger process attaches to a CheriABI target with ptrace, reads its
   integer registers, inspects a capability register (tag, permissions,
   bounds), and injects a capability into the target's memory. The
   injected capability is *rederived from the target's root* by the
   kernel — the debugger's own capabilities never cross the principal
   boundary, and a request outside the target's authority is refused.

     dune exec examples/debugger.exe *)

module Cap = Cheri_cap.Cap
module Abi = Cheri_core.Abi
module Kernel = Cheri_kernel.Kernel
module Kstate = Cheri_kernel.Kstate
module Proc = Cheri_kernel.Proc
module Exec = Cheri_kernel.Exec
module Sysno = Cheri_kernel.Sysno
module Ptrace = Cheri_kernel.Ptrace_impl
module Errno = Cheri_kernel.Errno
module Addr_space = Cheri_vm.Addr_space

(* The target spins, occasionally updating a counter. *)
let target_src =
  {|
    int counter;
    int main(int argc, char **argv) {
      while (1) { counter = counter + 1; }
      return 0;
    }
  |}

let () =
  let k = Kernel.boot () in
  Cheri_libc.Runtime.install k;
  Cheri_workloads.Stdlib_src.install k ~path:"/bin/target" ~abi:Abi.Cheriabi
    target_src;
  let target = Kernel.spawn k ~path:"/bin/target" ~argv:[ "target" ] () in
  (* Let it run a little. *)
  let _ = Kernel.run ~max_steps:50_000 k in
  Printf.printf "target pid %d is running (pc=0x%x)\n" target.Proc.pid
    (Cap.addr target.Proc.ctx.Cheri_isa.Cpu.pcc);

  (* A "debugger" — for brevity we drive the ptrace kernel interface
     directly with a second process's identity. *)
  let dbg =
    Proc.create ~pid:999 ~parent:0 ~abi:Abi.Mips64
      ~asp:(Addr_space.create ~root:k.Kstate.user_root
              ~principal:(Kstate.alloc_principal k) ~phys:k.Kstate.phys
              ~swap:k.Kstate.swap ())
  in
  Kstate.add_proc k dbg;

  let ptrace req ~addr ~data =
    Ptrace.dispatch k dbg ~req ~pid:target.Proc.pid
      ~addr:(Cheri_kernel.Uarg.Uaddr addr) ~data
  in
  ignore (ptrace Sysno.pt_attach ~addr:0 ~data:0);
  Printf.printf "attached: target is %s\n"
    (match target.Proc.state with
     | Proc.Stopped _ -> "stopped"
     | _ -> "NOT stopped?");

  (* Peek at the counter global through the target's address space. *)
  (match target.Proc.linked with
   | Some link ->
     (match Cheri_rtld.Rtld.symbol_address link "counter" with
      | Some addr ->
        let v = Kstate.kread_int k target addr ~len:8 in
        Printf.printf "counter (at 0x%x) = %d\n" addr v;
        (* Inspect the stack capability register c11 of the target. *)
        let csp = Cheri_isa.Cpu.rd_creg target.Proc.ctx Cheri_isa.Reg.csp in
        Printf.printf "target $csp: %s\n" (Cap.to_string csp);
        (* Inject a capability to the counter into target memory at a
           scratch location: the kernel rederives it from the target's
           root. *)
        let scratch = Exec.stack_base + 64 in
        let desc = Bytes.create 40 in
        let put i v = Bytes.set_int64_le desc (i * 8) (Int64.of_int v) in
        put 0 1;
        put 1 Cheri_cap.Perms.data;
        put 2 addr;
        put 3 (addr + 8);
        put 4 addr;
        (* The descriptor lives in debugger memory. *)
        let dscratch = 0x20000 in
        ignore
          (Addr_space.map_fixed dbg.Proc.asp ~start:dscratch ~len:4096
             ~prot:Cheri_vm.Prot.rw ~name:"dbg-buf" ());
        Kstate.kwrite_bytes k dbg dscratch desc;
        (match
           Ptrace.dispatch k dbg ~req:Sysno.pt_pokecap ~pid:target.Proc.pid
             ~addr:(Cheri_kernel.Uarg.Uaddr dscratch) ~data:scratch
         with
         | _ ->
           let injected = Kstate.kread_cap k target scratch in
           Printf.printf "injected capability (rederived by the kernel): %s\n"
             (Cap.to_string injected));
        (* A request outside the target's root is refused. *)
        put 2 (1 lsl 45);
        put 3 ((1 lsl 45) + 8);
        put 4 (1 lsl 45);
        Kstate.kwrite_bytes k dbg dscratch desc;
        (match
           Ptrace.dispatch k dbg ~req:Sysno.pt_pokecap ~pid:target.Proc.pid
             ~addr:(Cheri_kernel.Uarg.Uaddr dscratch) ~data:scratch
         with
         | _ -> print_endline "UNEXPECTED: out-of-root injection succeeded"
         | exception Errno.Error e ->
           Printf.printf
             "out-of-root injection refused with %s (principal boundary)\n"
             (Errno.to_string e))
      | None -> print_endline "no symbol 'counter'")
   | None -> print_endline "target has no link info");
  ignore (ptrace Sysno.pt_detach ~addr:0 ~data:0);
  let _ = Kernel.run ~max_steps:10_000 k in
  print_endline "detached; target resumed."
