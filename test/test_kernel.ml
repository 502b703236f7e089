(* End-to-end kernel tests with hand-assembled programs: process startup
   (Fig. 1), syscalls through user capabilities (Fig. 3), signal delivery
   with capability frames (Fig. 2), memory protection, and ptrace. *)

module Cap = Cheri_cap.Cap
module Perms = Cheri_cap.Perms
module Insn = Cheri_isa.Insn
module Asm = Cheri_isa.Asm
module Reg = Cheri_isa.Reg
module Abi = Cheri_core.Abi
module Sobj = Cheri_rtld.Sobj
module Kernel = Cheri_kernel.Kernel
module Proc = Cheri_kernel.Proc
module Sysno = Cheri_kernel.Sysno
module Signo = Cheri_kernel.Signo
module Crt0 = Cheri_libc.Crt0
module Runtime = Cheri_libc.Runtime
module Rtnum = Cheri_libc.Rtnum

module Cpu = Cheri_isa.Cpu
module Kstate = Cheri_kernel.Kstate
module Uarg = Cheri_kernel.Uarg

let install_exe k ~path ~abi prog =
  let image = Sobj.image ~name:path ~entry:"_start" [ Crt0.sobj abi; prog ] in
  Cheri_kernel.Vfs.add_exe k.Cheri_kernel.Kstate.vfs path ~abi image

let run k path =
  let status, out, p = Kernel.run_program k ~path ~argv:[ path ] in
  status, out, p

let check_exit expected (status, out, _) =
  Alcotest.(check (option string))
    "exit status"
    (Some (Printf.sprintf "exit %d" expected))
    (Option.map
       (function
         | Proc.Exited c -> Printf.sprintf "exit %d" c
         | Proc.Signaled s -> "signal " ^ Signo.name s)
       status);
  out

let check_signal expected (status, _, _) =
  match status with
  | Some (Proc.Signaled s) when s = expected -> ()
  | Some (Proc.Signaled s) ->
    Alcotest.failf "expected %s, got %s" (Signo.name expected) (Signo.name s)
  | Some (Proc.Exited c) ->
    Alcotest.failf "expected %s, process exited %d" (Signo.name expected) c
  | None -> Alcotest.failf "process did not terminate"

(* --- hello world, both ABIs ------------------------------------------------------ *)

let hello_prog = function
  | Abi.Cheriabi ->
    Sobj.make ~name:"hello"
      ~data:(Bytes.of_string "hello\000")
      ~exports:
        [ { Sobj.exp_name = "main"; exp_kind = Sobj.Func; exp_off = 0 };
          { Sobj.exp_name = "msg"; exp_kind = Sobj.Data 6; exp_off = 0 } ]
      ~got_syms:[ "msg" ]
      [ Asm.Lbl "main";
        Asm.Ref ("got$msg", fun off -> Insn.CLC { cd = Reg.ca0; cb = Reg.cgp; off });
        Asm.I (Insn.Rt Rtnum.rt_print_str);
        Asm.I (Insn.Li (Reg.v0, 42));
        Asm.I (Insn.CJR Reg.cra) ]
  | Abi.Mips64 | Abi.Asan ->
    Sobj.make ~name:"hello"
      ~data:(Bytes.of_string "hello\000")
      ~exports:
        [ { Sobj.exp_name = "main"; exp_kind = Sobj.Func; exp_off = 0 };
          { Sobj.exp_name = "msg"; exp_kind = Sobj.Data 6; exp_off = 0 } ]
      [ Asm.Lbl "main";
        Asm.Ref ("addr$msg", fun a -> Insn.Li (Reg.a0, a));
        Asm.I (Insn.Rt Rtnum.rt_print_str);
        Asm.I (Insn.Li (Reg.v0, 42));
        Asm.I (Insn.Jr Reg.ra) ]

let test_hello_mips64 () =
  let k = Runtime.boot () in
  install_exe k ~path:"/bin/hello" ~abi:Abi.Mips64 (hello_prog Abi.Mips64);
  let out = check_exit 42 (run k "/bin/hello") in
  Alcotest.(check string) "output" "hello" out

let test_hello_cheriabi () =
  let k = Runtime.boot () in
  install_exe k ~path:"/bin/hello" ~abi:Abi.Cheriabi (hello_prog Abi.Cheriabi);
  let out = check_exit 42 (run k "/bin/hello") in
  Alcotest.(check string) "output" "hello" out

(* --- argv delivery ----------------------------------------------------------------- *)

(* Print argv[1]. CheriABI: argv is a capability array reached through the
   argument header; legacy: an address array in a1. *)
let argv_prog = function
  | Abi.Cheriabi ->
    Sobj.make ~name:"argv"
      ~exports:[ { Sobj.exp_name = "main"; exp_kind = Sobj.Func; exp_off = 0 } ]
      [ Asm.Lbl "main";
        (* main(argc=a0, argv=ca1): load argv[1] capability and print. *)
        Asm.I (Insn.CLC { cd = Reg.ca0; cb = Reg.ca0 + 1; off = 16 });
        Asm.I (Insn.Rt Rtnum.rt_print_str);
        Asm.I (Insn.Li (Reg.v0, 0));
        Asm.I (Insn.CJR Reg.cra) ]
  | Abi.Mips64 | Abi.Asan ->
    Sobj.make ~name:"argv"
      ~exports:[ { Sobj.exp_name = "main"; exp_kind = Sobj.Func; exp_off = 0 } ]
      [ Asm.Lbl "main";
        Asm.I (Insn.Load { w = 8; signed = false; rd = Reg.a0; base = Reg.a1; off = 8 });
        Asm.I (Insn.Rt Rtnum.rt_print_str);
        Asm.I (Insn.Li (Reg.v0, 0));
        Asm.I (Insn.Jr Reg.ra) ]

let test_argv () =
  List.iter
    (fun abi ->
      let k = Runtime.boot () in
      install_exe k ~path:"/bin/argv" ~abi (argv_prog abi);
      let status, out, _ =
        Kernel.run_program k ~path:"/bin/argv" ~argv:[ "argv"; "world" ]
      in
      let _ = check_exit 0 (status, out, ()) in
      Alcotest.(check string)
        (Printf.sprintf "argv[1] under %s" (Abi.to_string abi))
        "world" out)
    [ Abi.Mips64; Abi.Cheriabi ]

(* --- spatial protection -------------------------------------------------------------- *)

(* Store 8 bytes at [small + 16] where small is an 8-byte global. CheriABI
   GOT capabilities are bounded per variable: SIGPROT. Legacy: silent
   corruption of the neighbouring global. *)
let oob_global_prog = function
  | Abi.Cheriabi ->
    Sobj.make ~name:"oob"
      ~data:(Bytes.create 32)
      ~exports:
        [ { Sobj.exp_name = "main"; exp_kind = Sobj.Func; exp_off = 0 };
          { Sobj.exp_name = "small"; exp_kind = Sobj.Data 8; exp_off = 0 };
          { Sobj.exp_name = "next"; exp_kind = Sobj.Data 8; exp_off = 16 } ]
      ~got_syms:[ "small" ]
      [ Asm.Lbl "main";
        Asm.Ref ("got$small", fun off -> Insn.CLC { cd = Reg.cs0; cb = Reg.cgp; off });
        Asm.I (Insn.Li (Reg.t0, 7));
        Asm.I (Insn.CStore { w = 8; rs = Reg.t0; cb = Reg.cs0; off = 16 });
        Asm.I (Insn.Li (Reg.v0, 0));
        Asm.I (Insn.CJR Reg.cra) ]
  | Abi.Mips64 | Abi.Asan ->
    Sobj.make ~name:"oob"
      ~data:(Bytes.create 32)
      ~exports:
        [ { Sobj.exp_name = "main"; exp_kind = Sobj.Func; exp_off = 0 };
          { Sobj.exp_name = "small"; exp_kind = Sobj.Data 8; exp_off = 0 };
          { Sobj.exp_name = "next"; exp_kind = Sobj.Data 8; exp_off = 16 } ]
      [ Asm.Lbl "main";
        Asm.Ref ("addr$small", fun a -> Insn.Li ((Reg.t0 + 1), a));
        Asm.I (Insn.Li (Reg.t0, 7));
        Asm.I (Insn.Store { w = 8; rs = Reg.t0; base = (Reg.t0 + 1); off = 16 });
        Asm.I (Insn.Li (Reg.v0, 0));
        Asm.I (Insn.Jr Reg.ra) ]

let test_oob_global_cheriabi_traps () =
  let k = Runtime.boot () in
  install_exe k ~path:"/bin/oob" ~abi:Abi.Cheriabi (oob_global_prog Abi.Cheriabi);
  check_signal Signo.sigprot (run k "/bin/oob")

let test_oob_global_mips64_silent () =
  let k = Runtime.boot () in
  install_exe k ~path:"/bin/oob" ~abi:Abi.Mips64 (oob_global_prog Abi.Mips64);
  let _ = check_exit 0 (run k "/bin/oob") in
  ()

(* --- heap protection ------------------------------------------------------------------ *)

let heap_oob_prog ~off = function
  | Abi.Cheriabi ->
    Sobj.make ~name:"heap"
      ~exports:[ { Sobj.exp_name = "main"; exp_kind = Sobj.Func; exp_off = 0 } ]
      [ Asm.Lbl "main";
        Asm.I (Insn.Li (Reg.a0, 24));
        Asm.I (Insn.Rt Rtnum.rt_malloc);
        (* result capability in ca0 *)
        Asm.I (Insn.Li (Reg.t0, 1));
        Asm.I (Insn.CStore { w = 8; rs = Reg.t0; cb = Reg.ca0; off });
        Asm.I (Insn.Li (Reg.v0, 0));
        Asm.I (Insn.CJR Reg.cra) ]
  | Abi.Mips64 | Abi.Asan ->
    Sobj.make ~name:"heap"
      ~exports:[ { Sobj.exp_name = "main"; exp_kind = Sobj.Func; exp_off = 0 } ]
      [ Asm.Lbl "main";
        Asm.I (Insn.Li (Reg.a0, 24));
        Asm.I (Insn.Rt Rtnum.rt_malloc);
        Asm.I (Insn.Li (Reg.t0, 1));
        Asm.I (Insn.Store { w = 8; rs = Reg.t0; base = Reg.v0; off });
        Asm.I (Insn.Li (Reg.v0, 0));
        Asm.I (Insn.Jr Reg.ra) ]

let test_heap_in_bounds_ok () =
  List.iter
    (fun abi ->
      let k = Runtime.boot () in
      install_exe k ~path:"/bin/h" ~abi (heap_oob_prog ~off:16 abi);
      let _ = check_exit 0 (run k "/bin/h") in
      ())
    [ Abi.Mips64; Abi.Cheriabi ]

let test_heap_oob_cheriabi_traps () =
  let k = Runtime.boot () in
  (* 24-byte allocation: offset 32 is out of bounds (crrl 24 = 24). *)
  install_exe k ~path:"/bin/h" ~abi:Abi.Cheriabi
    (heap_oob_prog ~off:32 Abi.Cheriabi);
  check_signal Signo.sigprot (run k "/bin/h")

let test_heap_oob_mips64_silent () =
  let k = Runtime.boot () in
  install_exe k ~path:"/bin/h" ~abi:Abi.Mips64 (heap_oob_prog ~off:32 Abi.Mips64);
  let _ = check_exit 0 (run k "/bin/h") in
  ()

(* --- DDC is NULL under CheriABI -------------------------------------------------------- *)

let legacy_load_prog =
  Sobj.make ~name:"legacyload"
    ~exports:[ { Sobj.exp_name = "main"; exp_kind = Sobj.Func; exp_off = 0 } ]
    [ Asm.Lbl "main";
      Asm.I (Insn.Li (Reg.t0, 0x2000_0000));
      Asm.I (Insn.Load { w = 8; signed = false; rd = (Reg.t0 + 1); base = Reg.t0; off = 0 });
      Asm.I (Insn.Li (Reg.v0, 0));
      Asm.I (Insn.CJR Reg.cra) ]

let test_ddc_null_blocks_legacy_loads () =
  let k = Runtime.boot () in
  install_exe k ~path:"/bin/l" ~abi:Abi.Cheriabi legacy_load_prog;
  check_signal Signo.sigprot (run k "/bin/l")

(* --- fork / wait ------------------------------------------------------------------------ *)

let fork_prog = function
  | Abi.Cheriabi ->
    Sobj.make ~name:"fork"
      ~exports:[ { Sobj.exp_name = "main"; exp_kind = Sobj.Func; exp_off = 0 } ]
      [ Asm.Lbl "main";
        Asm.I (Insn.Li (Reg.v0, Sysno.sys_fork));
        Asm.I Insn.Syscall;
        Asm.bne Reg.v0 Reg.zero "parent";
        (* child *)
        Asm.I (Insn.Li (Reg.a0, 7));
        Asm.I (Insn.Li (Reg.v0, Sysno.sys_exit));
        Asm.I Insn.Syscall;
        Asm.Lbl "parent";
        Asm.I (Insn.Li (Reg.a0, -1));
        Asm.I (Insn.CMove (Reg.ca0, Reg.cnull));  (* statusp = NULL *)
        Asm.I (Insn.Li (Reg.a1, 0));
        Asm.I (Insn.Li (Reg.v0, Sysno.sys_wait4));
        Asm.I Insn.Syscall;
        Asm.I (Insn.Li (Reg.v0, 3));
        Asm.I (Insn.CJR Reg.cra) ]
  | Abi.Mips64 | Abi.Asan ->
    Sobj.make ~name:"fork"
      ~exports:[ { Sobj.exp_name = "main"; exp_kind = Sobj.Func; exp_off = 0 } ]
      [ Asm.Lbl "main";
        Asm.I (Insn.Li (Reg.v0, Sysno.sys_fork));
        Asm.I Insn.Syscall;
        Asm.bne Reg.v0 Reg.zero "parent";
        Asm.I (Insn.Li (Reg.a0, 7));
        Asm.I (Insn.Li (Reg.v0, Sysno.sys_exit));
        Asm.I Insn.Syscall;
        Asm.Lbl "parent";
        Asm.I (Insn.Li (Reg.a0, -1));
        Asm.I (Insn.Li (Reg.a1, 0));
        Asm.I (Insn.Li (Reg.a2, 0));
        Asm.I (Insn.Li (Reg.v0, Sysno.sys_wait4));
        Asm.I Insn.Syscall;
        Asm.I (Insn.Li (Reg.v0, 3));
        Asm.I (Insn.Jr Reg.ra) ]

let test_fork_wait () =
  List.iter
    (fun abi ->
      let k = Runtime.boot () in
      install_exe k ~path:"/bin/fork" ~abi (fork_prog abi);
      let _ = check_exit 3 (run k "/bin/fork") in
      ())
    [ Abi.Mips64; Abi.Cheriabi ]

(* Each kernel mints its own principal ids, so two machines booted one
   after another give their first process the same principal, whatever
   the first machine's processes (a fork among them) took. *)
let test_principals_per_kernel () =
  let first_principal () =
    let k = Runtime.boot () in
    install_exe k ~path:"/bin/fork" ~abi:Abi.Cheriabi (fork_prog Abi.Cheriabi);
    let _, _, p = run k "/bin/fork" in
    Cheri_vm.Addr_space.principal p.Proc.asp
  in
  let first = first_principal () in
  Alcotest.(check int) "second machine, same first principal" first
    (first_principal ())

(* --- signals ------------------------------------------------------------------------------ *)

let signal_prog = function
  | Abi.Cheriabi ->
    Sobj.make ~name:"sig"
      ~exports:
        [ { Sobj.exp_name = "main"; exp_kind = Sobj.Func; exp_off = 0 };
          { Sobj.exp_name = "handler"; exp_kind = Sobj.Func; exp_off = 0 } ]
      ~got_syms:[ "handler" ]
      [ Asm.Lbl "main";
        Asm.I (Insn.CIncOffsetImm (Reg.csp, Reg.csp, -32));
        Asm.Ref ("got$handler",
                 fun off -> Insn.CLC { cd = Reg.cs0; cb = Reg.cgp; off });
        Asm.I (Insn.CSC { cs = Reg.cs0; cb = Reg.csp; off = 0 });
        (* sigaction(SIGUSR1, csp, NULL) *)
        Asm.I (Insn.Li (Reg.a0, Signo.sigusr1));
        Asm.I (Insn.CMove (Reg.ca0, Reg.csp));
        Asm.I (Insn.CMove (Reg.ca0 + 1, Reg.cnull));
        Asm.I (Insn.Li (Reg.v0, Sysno.sys_sigaction));
        Asm.I Insn.Syscall;
        (* kill(getpid(), SIGUSR1) *)
        Asm.I (Insn.Li (Reg.v0, Sysno.sys_getpid));
        Asm.I Insn.Syscall;
        Asm.I (Insn.Move (Reg.a0, Reg.v0));
        Asm.I (Insn.Li (Reg.a1, Signo.sigusr1));
        Asm.I (Insn.Li (Reg.v0, Sysno.sys_kill));
        Asm.I Insn.Syscall;
        (* resumed here after the handler returns through sigreturn;
           exits 5 only if r0 still reads 0 *)
        Asm.I (Insn.Addiu (Reg.v0, Reg.zero, 5));
        Asm.I (Insn.CIncOffsetImm (Reg.csp, Reg.csp, 32));
        Asm.I (Insn.CJR Reg.cra);
        Asm.Lbl "handler";
        (* csp points at the signal frame: make its saved r0 non-zero *)
        Asm.I (Insn.Li (Reg.t0, 0xdead));
        Asm.I (Insn.CStore { w = 8; rs = Reg.t0; cb = Reg.csp; off = 0 });
        Asm.I (Insn.Li (Reg.a0, Char.code 'H'));
        Asm.I (Insn.Rt Rtnum.rt_print_char);
        Asm.I (Insn.CJR Reg.cra) ]
  | Abi.Mips64 | Abi.Asan ->
    Sobj.make ~name:"sig"
      ~exports:
        [ { Sobj.exp_name = "main"; exp_kind = Sobj.Func; exp_off = 0 };
          { Sobj.exp_name = "handler"; exp_kind = Sobj.Func; exp_off = 0 } ]
      [ Asm.Lbl "main";
        Asm.I (Insn.Addiu (Reg.sp, Reg.sp, -32));
        Asm.Ref ("addr$handler", fun a -> Insn.Li (Reg.t0, a));
        Asm.I (Insn.Store { w = 8; rs = Reg.t0; base = Reg.sp; off = 0 });
        Asm.I (Insn.Li (Reg.a0, Signo.sigusr1));
        Asm.I (Insn.Move (Reg.a1, Reg.sp));
        Asm.I (Insn.Li (Reg.a2, 0));
        Asm.I (Insn.Li (Reg.v0, Sysno.sys_sigaction));
        Asm.I Insn.Syscall;
        Asm.I (Insn.Li (Reg.v0, Sysno.sys_getpid));
        Asm.I Insn.Syscall;
        Asm.I (Insn.Move (Reg.a0, Reg.v0));
        Asm.I (Insn.Li (Reg.a1, Signo.sigusr1));
        Asm.I (Insn.Li (Reg.v0, Sysno.sys_kill));
        Asm.I Insn.Syscall;
        Asm.I (Insn.Addiu (Reg.v0, Reg.zero, 5));
        Asm.I (Insn.Addiu (Reg.sp, Reg.sp, 32));
        Asm.I (Insn.Jr Reg.ra);
        Asm.Lbl "handler";
        (* sp points at the signal frame: make its saved r0 non-zero *)
        Asm.I (Insn.Li (Reg.t0, 0xdead));
        Asm.I (Insn.Store { w = 8; rs = Reg.t0; base = Reg.sp; off = 0 });
        Asm.I (Insn.Li (Reg.a0, Char.code 'H'));
        Asm.I (Insn.Rt Rtnum.rt_print_char);
        Asm.I (Insn.Jr Reg.ra) ]

(* The handler also writes a non-zero r0 into its frame; sigreturn
   restores r1..r31 only, so r0 still reads 0 under both engines. *)
let test_signal_handler () =
  List.iter
    (fun (engine, abi) ->
      let k = Runtime.boot ~engine () in
      install_exe k ~path:"/bin/sig" ~abi (signal_prog abi);
      let out = check_exit 5 (run k "/bin/sig") in
      Alcotest.(check string)
        (Printf.sprintf "handler ran under %s" (Abi.to_string abi))
        "H" out)
    [ Cpu.Step, Abi.Mips64; Cpu.Step, Abi.Cheriabi;
      Cpu.Chain, Abi.Mips64; Cpu.Chain, Abi.Cheriabi ]

(* An image with an out-of-range register operand: the instruction is
   reserved, so the process gets SIGILL under both engines. *)
let test_reserved_register_sigill () =
  let prog =
    Sobj.make ~name:"ill"
      ~exports:[ { Sobj.exp_name = "main"; exp_kind = Sobj.Func; exp_off = 0 } ]
      [ Asm.Lbl "main";
        Asm.I (Insn.Li (Reg.v0, 1));
        Asm.I (Insn.Addu (Reg.v0, 40, Reg.zero));
        Asm.I (Insn.Jr Reg.ra) ]
  in
  List.iter
    (fun engine ->
      let k = Runtime.boot ~engine () in
      install_exe k ~path:"/bin/ill" ~abi:Abi.Mips64 prog;
      check_signal Signo.sigill (run k "/bin/ill"))
    [ Cpu.Step; Cpu.Chain ]

(* A CheriABI handler registered from an untagged value cannot be entered:
   provenance is enforced even for signal dispatch. *)
let bad_handler_prog =
  Sobj.make ~name:"badsig"
    ~exports:[ { Sobj.exp_name = "main"; exp_kind = Sobj.Func; exp_off = 0 } ]
    [ Asm.Lbl "main";
      Asm.I (Insn.CIncOffsetImm (Reg.csp, Reg.csp, -32));
      (* Forge a "handler" from an integer: untagged capability. *)
      Asm.I (Insn.Li (Reg.t0, 0x123456));
      Asm.I (Insn.CFromPtr (Reg.cs0, Reg.cnull, Reg.t0));
      Asm.I (Insn.CSC { cs = Reg.cs0; cb = Reg.csp; off = 0 });
      Asm.I (Insn.Li (Reg.a0, Signo.sigusr1));
      Asm.I (Insn.CMove (Reg.ca0, Reg.csp));
      Asm.I (Insn.CMove (Reg.ca0 + 1, Reg.cnull));
      Asm.I (Insn.Li (Reg.v0, Sysno.sys_sigaction));
      Asm.I Insn.Syscall;
      (* sigaction must have failed with EPROT: v0 < 0. *)
      Asm.bltz Reg.v0 "ok";
      Asm.I (Insn.Li (Reg.v0, 1));
      Asm.I (Insn.CJR Reg.cra);
      Asm.Lbl "ok";
      Asm.I (Insn.Li (Reg.v0, 0));
      Asm.I (Insn.CJR Reg.cra) ]

let test_forged_handler_rejected () =
  let k = Runtime.boot () in
  install_exe k ~path:"/bin/badsig" ~abi:Abi.Cheriabi bad_handler_prog;
  let _ = check_exit 0 (run k "/bin/badsig") in
  ()

(* --- pipes across fork --------------------------------------------------------------------- *)

let pipe_prog =
  (* CheriABI: pipe(fds); fork; child writes "x", parent reads it. *)
  Sobj.make ~name:"pipe"
    ~exports:[ { Sobj.exp_name = "main"; exp_kind = Sobj.Func; exp_off = 0 } ]
    [ Asm.Lbl "main";
      Asm.I (Insn.CIncOffsetImm (Reg.csp, Reg.csp, -32));
      (* pipe(csp) *)
      Asm.I (Insn.CMove (Reg.ca0, Reg.csp));
      Asm.I (Insn.Li (Reg.v0, Sysno.sys_pipe));
      Asm.I Insn.Syscall;
      (* s0 = rfd, s1 = wfd *)
      Asm.I (Insn.CLoad { w = 8; signed = false; rd = Reg.s0; cb = Reg.csp; off = 0 });
      Asm.I (Insn.CLoad { w = 8; signed = false; rd = Reg.s0 + 1; cb = Reg.csp; off = 8 });
      Asm.I (Insn.Li (Reg.v0, Sysno.sys_fork));
      Asm.I Insn.Syscall;
      Asm.bne Reg.v0 Reg.zero "parent";
      (* child: write one byte 'x' at csp+16 *)
      Asm.I (Insn.Li (Reg.t0, Char.code 'x'));
      Asm.I (Insn.CStore { w = 1; rs = Reg.t0; cb = Reg.csp; off = 16 });
      Asm.I (Insn.Move (Reg.a0, Reg.s0 + 1));
      Asm.I (Insn.CIncOffsetImm (Reg.ca0, Reg.csp, 16));
      Asm.I (Insn.Li (Reg.a1, 1));
      Asm.I (Insn.Li (Reg.v0, Sysno.sys_write));
      Asm.I Insn.Syscall;
      Asm.I (Insn.Li (Reg.a0, 0));
      Asm.I (Insn.Li (Reg.v0, Sysno.sys_exit));
      Asm.I Insn.Syscall;
      Asm.Lbl "parent";
      (* read(rfd, csp+24, 1) — blocks until the child writes *)
      Asm.I (Insn.Move (Reg.a0, Reg.s0));
      Asm.I (Insn.CIncOffsetImm (Reg.ca0, Reg.csp, 24));
      Asm.I (Insn.Li (Reg.a1, 1));
      Asm.I (Insn.Li (Reg.v0, Sysno.sys_read));
      Asm.I Insn.Syscall;
      (* exit with the byte read *)
      Asm.I (Insn.CLoad { w = 1; signed = false; rd = Reg.v0; cb = Reg.csp; off = 24 });
      Asm.I (Insn.CIncOffsetImm (Reg.csp, Reg.csp, 32));
      Asm.I (Insn.CJR Reg.cra) ]

let test_pipe_across_fork () =
  let k = Runtime.boot () in
  install_exe k ~path:"/bin/pipe" ~abi:Abi.Cheriabi pipe_prog;
  let _ = check_exit (Char.code 'x') (run k "/bin/pipe") in
  ()

(* --- getcwd with an undersized buffer (the BOdiag syscall case) --------------------------- *)

let getcwd_prog ~buflen ~asklen = function
  | Abi.Cheriabi ->
    Sobj.make ~name:"cwd"
      ~exports:[ { Sobj.exp_name = "main"; exp_kind = Sobj.Func; exp_off = 0 } ]
      [ Asm.Lbl "main";
        Asm.I (Insn.CIncOffsetImm (Reg.csp, Reg.csp, -256));
        (* a bounded capability to a [buflen]-byte stack buffer *)
        Asm.I (Insn.CIncOffsetImm (Reg.cs0, Reg.csp, 0));
        Asm.I (Insn.CSetBoundsImm (Reg.ca0, Reg.cs0, buflen));
        Asm.I (Insn.Li (Reg.a0, asklen));
        Asm.I (Insn.Li (Reg.v0, Sysno.sys_getcwd));
        Asm.I Insn.Syscall;
        (* v0 < 0 (EPROT) means the kernel's copyout was stopped: report 9 *)
        Asm.bltz Reg.v0 "detected";
        Asm.I (Insn.Li (Reg.v0, 0));
        Asm.I (Insn.CIncOffsetImm (Reg.csp, Reg.csp, 256));
        Asm.I (Insn.CJR Reg.cra);
        Asm.Lbl "detected";
        Asm.I (Insn.Li (Reg.v0, 9));
        Asm.I (Insn.CIncOffsetImm (Reg.csp, Reg.csp, 256));
        Asm.I (Insn.CJR Reg.cra) ]
  | Abi.Mips64 | Abi.Asan ->
    Sobj.make ~name:"cwd"
      ~exports:[ { Sobj.exp_name = "main"; exp_kind = Sobj.Func; exp_off = 0 } ]
      [ Asm.Lbl "main";
        Asm.I (Insn.Addiu (Reg.sp, Reg.sp, -256));
        Asm.I (Insn.Move (Reg.a0 + 1, Reg.sp));  (* buffer address in slot 0 *)
        Asm.I (Insn.Move (Reg.a0, Reg.sp));
        Asm.I (Insn.Li (Reg.a1, asklen));
        Asm.I (Insn.Li (Reg.v0, Sysno.sys_getcwd));
        Asm.I Insn.Syscall;
        Asm.bltz Reg.v0 "detected";
        Asm.I (Insn.Li (Reg.v0, 0));
        Asm.I (Insn.Addiu (Reg.sp, Reg.sp, 256));
        Asm.I (Insn.Jr Reg.ra);
        Asm.Lbl "detected";
        Asm.I (Insn.Li (Reg.v0, 9));
        Asm.I (Insn.Addiu (Reg.sp, Reg.sp, 256));
        Asm.I (Insn.Jr Reg.ra) ]

let test_getcwd_overflow_detected_cheriabi () =
  let k = Runtime.boot () in
  (* buffer is 32 bytes, but the program claims 128: the kernel's copyout
     through the user capability faults -> EPROT -> exit 9. *)
  install_exe k ~path:"/bin/cwd" ~abi:Abi.Cheriabi
    (getcwd_prog ~buflen:32 ~asklen:128 Abi.Cheriabi);
  let _ = check_exit 9 (run k "/bin/cwd") in
  ()

let test_getcwd_overflow_missed_mips64 () =
  let k = Runtime.boot () in
  install_exe k ~path:"/bin/cwd" ~abi:Abi.Mips64
    (getcwd_prog ~buflen:32 ~asklen:128 Abi.Mips64);
  (* Legacy kernel writes 128 bytes over a 32-byte buffer: silent. *)
  let _ = check_exit 0 (run k "/bin/cwd") in
  ()

let test_getcwd_correct_ok_cheriabi () =
  let k = Runtime.boot () in
  install_exe k ~path:"/bin/cwd" ~abi:Abi.Cheriabi
    (getcwd_prog ~buflen:128 ~asklen:128 Abi.Cheriabi);
  let _ = check_exit 0 (run k "/bin/cwd") in
  ()

(* The compiler lowers each [Ksys] intrinsic to a SYSCALL and each [Krt]
   intrinsic to a runtime-builtin upcall, placing arguments by type:
   pointers in capability registers under CheriABI, everything else in
   integer registers. The kernel and the runtime marshal by their tables'
   signatures, so each call must agree with its intrinsic (name, arity
   and pointer positions), and every builtin entry must be reached by
   some intrinsic. *)
let test_syscall_table_matches_intrinsics () =
  let module Intrin = Cheri_cc.Intrin in
  let module Sys_impl = Cheri_kernel.Sys_impl in
  let is_ptr = function
    | Cheri_cc.Ast.Tptr _ | Cheri_cc.Ast.Tarr _ -> true
    | _ -> false
  in
  let check (i : Intrin.t) what num = function
    | None ->
      Alcotest.failf "%s: %s %d has no table entry" i.Intrin.i_name what num
    | Some u ->
      Alcotest.(check string) (what ^ " name") i.Intrin.i_name (Uarg.name u);
      Alcotest.(check (list bool))
        (i.Intrin.i_name ^ ": Ptr exactly at pointer arguments")
        (List.map is_ptr i.Intrin.i_args)
        (Uarg.ptr_args u)
  in
  let nsys, rts =
    List.fold_left
      (fun (n, rts) (i : Intrin.t) ->
        match i.Intrin.i_kind with
        | Intrin.Ksys num ->
          check i "syscall" num (Sys_impl.lookup num);
          n + 1, rts
        | Intrin.Krt num ->
          check i "builtin" num (Uarg.lookup Runtime.table num);
          n, num :: rts
        | Intrin.Kspecial _ -> n, rts)
      (0, []) Intrin.table
  in
  Alcotest.(check int) "Ksys intrinsics checked" 24 nsys;
  Alcotest.(check int) "Krt intrinsics checked" 13 (List.length rts);
  Array.iteri
    (fun num e ->
      match e with
      | Some u when not (List.mem num rts) ->
        Alcotest.failf "builtin %d (%s) is reached by no intrinsic" num
          (Uarg.name u)
      | _ -> ())
    Runtime.table

(* --- The marshaller's register conventions ------------------------------------------ *)

type probe = Probe : ('h, string list) Uarg.sig_ -> probe

(* Name the register an argument was read from: a0..a7 hold 100..107 and
   c3..c10 capabilities at 200..207. *)
let reg_of : type a. a Uarg.arg -> a -> string =
 fun a v ->
  match a, v with
  | Uarg.Int, n -> Printf.sprintf "a%d" (n - 100)
  | Uarg.Ptr, Uarg.Uaddr n -> Printf.sprintf "a%d" (n - 100)
  | Uarg.Ptr, Uarg.Ucap c -> Printf.sprintf "c%d" (Cap.addr c - 200 + Reg.ca0)

(* A handler that reports where each of its arguments came from. *)
let recorder : type h. (h, string list) Uarg.sig_ -> unit -> unit -> h =
 fun s () () ->
  let r = reg_of in
  match s with
  | Uarg.A0 -> []
  | Uarg.A1 a -> fun x -> [ r a x ]
  | Uarg.A2 (a, b) -> fun x y -> [ r a x; r b y ]
  | Uarg.A3 (a, b, c) -> fun x y z -> [ r a x; r b y; r c z ]
  | Uarg.A4 (a, b, c, d) -> fun x y z w -> [ r a x; r b y; r c z; r d w ]
  | Uarg.A5 (a, b, c, d, e) ->
    fun x y z w v -> [ r a x; r b y; r c z; r d w; r e v ]
  | Uarg.A6 (a, b, c, d, e, f) ->
    fun x y z w v u -> [ r a x; r b y; r c z; r d w; r e v; r f u ]

(* Legacy calls read every argument from a0.. by position. CheriABI
   syscalls number integers (a0..) and pointers (c3..) apart; CheriABI
   builtins read slot i from a_i or c(3+i). *)
let test_marshaller_registers () =
  let ctx = Cpu.create_ctx () in
  for i = 0 to 7 do
    ctx.Cpu.gpr.(Reg.a0 + i) <- 100 + i;
    Cpu.wr_creg ctx (Reg.ca0 + i) (Cap.untagged ~addr:(200 + i))
  done;
  let open Uarg in
  let cases =
    (* signature, legacy, CheriABI syscall, CheriABI builtin *)
    [ Probe (A4 (Ptr, Int, Ptr, Int)), "a0 a1 a2 a3", "c3 a0 c4 a1",
      "c3 a1 c5 a3";
      Probe A0, "", "", "";
      Probe (A1 Ptr), "a0", "c3", "c3";
      Probe (A2 (Int, Ptr)), "a0 a1", "a0 c3", "a0 c4";
      Probe (A3 (Ptr, Ptr, Int)), "a0 a1 a2", "c3 c4 a0", "c3 c4 a2";
      Probe (A5 (Int, Ptr, Ptr, Ptr, Ptr)), "a0 a1 a2 a3 a4",
      "a0 c3 c4 c5 c6", "a0 c4 c5 c6 c7";
      Probe (A6 (Ptr, Int, Ptr, Ptr, Ptr, Int)), "a0 a1 a2 a3 a4 a5",
      "c3 a0 c4 c5 c6 a1", "c3 a1 c5 c6 c7 a5" ]
  in
  List.iter
    (fun (Probe s, legacy, sys, rt) ->
      let u = upcall "probe" s (recorder s) in
      List.iter
        (fun (abi, split, want) ->
          Alcotest.(check string)
            (Printf.sprintf "%s %s" (Abi.to_string abi)
               (if split then "syscall" else "builtin"))
            want
            (String.concat " " (call ~split abi ctx u () ())))
        [ Abi.Mips64, true, legacy; Abi.Mips64, false, legacy;
          Abi.Asan, true, legacy; Abi.Asan, false, legacy;
          Abi.Cheriabi, true, sys; Abi.Cheriabi, false, rt ])
    cases

(* --- Unknown numbers at both boundaries ---------------------------------------------- *)

let ret_insn = function
  | Abi.Cheriabi -> Insn.CJR Reg.cra
  | Abi.Mips64 | Abi.Asan -> Insn.Jr Reg.ra

let main_only name body =
  Sobj.make ~name
    ~exports:[ { Sobj.exp_name = "main"; exp_kind = Sobj.Func; exp_off = 0 } ]
    (Asm.Lbl "main" :: body)

(* An unimplemented syscall returns -ENOSYS and the caller carries on; it
   is counted in no [syscall_stats] key. Exit code 10+i names the first
   number that did not. *)
let test_unknown_syscalls () =
  let nums = [ 0; 8; 562; -1; 1 lsl 40 ] in
  let enosys = Cheri_kernel.Errno.to_code Cheri_kernel.Errno.ENOSYS in
  List.iter
    (fun abi ->
      let k = Runtime.boot () in
      let probes =
        List.concat
          (List.mapi
             (fun i n ->
               let next = Printf.sprintf "ok%d" i in
               [ Asm.I (Insn.Li (Reg.v0, n));
                 Asm.I Insn.Syscall;
                 Asm.I (Insn.Li (Reg.t0, -enosys));
                 Asm.beq Reg.v0 Reg.t0 next;
                 Asm.I (Insn.Li (Reg.v0, 10 + i));
                 Asm.I (ret_insn abi);
                 Asm.Lbl next ])
             nums)
      in
      install_exe k ~path:"/bin/nosys" ~abi
        (main_only "nosys"
           (probes @ [ Asm.I (Insn.Li (Reg.v0, 0)); Asm.I (ret_insn abi) ]));
      let _ = check_exit 0 (run k "/bin/nosys") in
      Alcotest.(check (list string))
        (Abi.to_string abi ^ ": syscall_stats keys") [ "exit" ]
        (Hashtbl.fold (fun n _ acc -> n :: acc) k.Kstate.syscall_stats []))
    [ Abi.Mips64; Abi.Cheriabi ]

(* An unknown builtin number kills the caller with SIGILL and says so. *)
let test_unknown_builtins () =
  List.iter
    (fun abi ->
      List.iter
        (fun n ->
          let k = Runtime.boot () in
          install_exe k ~path:"/bin/nort" ~abi
            (main_only "nort"
               [ Asm.I (Insn.Rt n);
                 Asm.I (Insn.Li (Reg.v0, 0));
                 Asm.I (ret_insn abi) ]);
          let ((_, _, p) as r) = run k "/bin/nort" in
          check_signal Signo.sigill r;
          Alcotest.(check bool)
            (Printf.sprintf "%s: fault log names builtin %d"
               (Abi.to_string abi) n)
            true
            (List.mem (Printf.sprintf "unknown runtime builtin %d" n)
               p.Proc.fault_log))
        [ 13; 15; -1; 9999 ])
    [ Abi.Mips64; Abi.Cheriabi ]

let suite =
  [ "hello mips64", `Quick, test_hello_mips64;
    "hello cheriabi", `Quick, test_hello_cheriabi;
    "argv delivery", `Quick, test_argv;
    "OOB global traps (cheriabi)", `Quick, test_oob_global_cheriabi_traps;
    "OOB global silent (mips64)", `Quick, test_oob_global_mips64_silent;
    "heap in bounds ok", `Quick, test_heap_in_bounds_ok;
    "heap OOB traps (cheriabi)", `Quick, test_heap_oob_cheriabi_traps;
    "heap OOB silent (mips64)", `Quick, test_heap_oob_mips64_silent;
    "NULL DDC blocks legacy loads", `Quick, test_ddc_null_blocks_legacy_loads;
    "fork + wait", `Quick, test_fork_wait;
    "principals are per kernel", `Quick, test_principals_per_kernel;
    "signal handler roundtrip", `Quick, test_signal_handler;
    "forged signal handler rejected", `Quick, test_forged_handler_rejected;
    "reserved register operand gets SIGILL", `Quick,
    test_reserved_register_sigill;
    "pipe across fork", `Quick, test_pipe_across_fork;
    "getcwd overflow detected (cheriabi)", `Quick,
    test_getcwd_overflow_detected_cheriabi;
    "getcwd overflow missed (mips64)", `Quick,
    test_getcwd_overflow_missed_mips64;
    "getcwd correct ok (cheriabi)", `Quick, test_getcwd_correct_ok_cheriabi;
    "syscall table matches the compiler's intrinsics", `Quick,
    test_syscall_table_matches_intrinsics;
    "marshaller reads each argument from its convention's register", `Quick,
    test_marshaller_registers;
    "unknown syscall numbers return ENOSYS", `Quick, test_unknown_syscalls;
    "unknown builtin numbers get SIGILL", `Quick, test_unknown_builtins ]
