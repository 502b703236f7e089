(* VFS, pipe and descriptor-layer unit tests, plus exec image-layout
   checks that pin down the Fig. 1 startup structures. *)

module Cap = Cheri_cap.Cap
module Perms = Cheri_cap.Perms
module Vfs = Cheri_kernel.Vfs
module Errno = Cheri_kernel.Errno
module Abi = Cheri_core.Abi
module Kernel = Cheri_kernel.Kernel
module Kstate = Cheri_kernel.Kstate
module Proc = Cheri_kernel.Proc
module Exec = Cheri_kernel.Exec
module Reg = Cheri_isa.Reg
module Cpu = Cheri_isa.Cpu
module Addr_space = Cheri_vm.Addr_space

(* --- Files ----------------------------------------------------------------------- *)

let test_bind_lookup () =
  let v = Vfs.create () in
  let f = Vfs.add_file v "/a/b/c.txt" in
  ignore f;
  Alcotest.(check bool) "found" true (Vfs.lookup v "/a/b/c.txt" <> None);
  Alcotest.(check bool) "intermediate dir" true
    (match Vfs.lookup v "/a/b" with Some (Vfs.Dir _) -> true | _ -> false);
  Alcotest.(check bool) "missing" true (Vfs.lookup v "/a/x" = None)

let test_file_rw () =
  let f = Vfs.new_file () in
  let n = Vfs.file_write f ~off:0 (Bytes.of_string "hello world") in
  Alcotest.(check int) "wrote" 11 n;
  Alcotest.(check string) "read back" "world"
    (Bytes.to_string (Vfs.file_read f ~off:6 ~len:5));
  Alcotest.(check int) "short read at eof" 0
    (Bytes.length (Vfs.file_read f ~off:100 ~len:5));
  (* sparse write grows the file *)
  let _ = Vfs.file_write f ~off:20 (Bytes.of_string "x") in
  Alcotest.(check int) "grown" 21 f.Vfs.f_len;
  Vfs.file_truncate f 5;
  Alcotest.(check int) "truncated" 5 f.Vfs.f_len

let test_unlink () =
  let v = Vfs.create () in
  let _ = Vfs.add_file v "/tmp/x" in
  Vfs.unlink v "/tmp/x";
  Alcotest.(check bool) "gone" true (Vfs.lookup v "/tmp/x" = None);
  Alcotest.check_raises "unlink missing" (Errno.Error Errno.ENOENT) (fun () ->
      Vfs.unlink v "/tmp/x")

(* --- Pipes ------------------------------------------------------------------------ *)

let test_pipe_fifo () =
  let v = Vfs.create () in
  let p = Vfs.new_pipe v in
  let _ = Vfs.pipe_write p (Bytes.of_string "abc") in
  let _ = Vfs.pipe_write p (Bytes.of_string "def") in
  Alcotest.(check string) "first chunk" "abc"
    (Bytes.to_string (Option.get (Vfs.pipe_read p ~len:10)));
  Alcotest.(check string) "partial" "de"
    (Bytes.to_string (Option.get (Vfs.pipe_read p ~len:2)));
  Alcotest.(check string) "rest" "f"
    (Bytes.to_string (Option.get (Vfs.pipe_read p ~len:10)))

let test_pipe_blocking_and_eof () =
  let v = Vfs.create () in
  let p = Vfs.new_pipe v in
  Alcotest.(check bool) "empty pipe would block" true
    (Vfs.pipe_read p ~len:1 = None);
  p.Vfs.p_writers <- 0;
  Alcotest.(check int) "EOF after writers close" 0
    (Bytes.length (Option.get (Vfs.pipe_read p ~len:1)))

let test_pipe_epipe () =
  let v = Vfs.create () in
  let p = Vfs.new_pipe v in
  p.Vfs.p_readers <- 0;
  Alcotest.check_raises "EPIPE" (Errno.Error Errno.EPIPE) (fun () ->
      ignore (Vfs.pipe_write p (Bytes.of_string "x")))

let test_entry_refcounts () =
  let v = Vfs.create () in
  let p = Vfs.new_pipe v in
  let r = Vfs.open_entry (Vfs.OPipe_r p) ~flags:0 in
  Vfs.ref_entry r;
  Alcotest.(check int) "two readers" 2 p.Vfs.p_readers;
  Vfs.close_entry r;
  Vfs.close_entry r;
  Alcotest.(check int) "zero readers" 0 p.Vfs.p_readers

(* --- Exec image layout (Fig. 1) ------------------------------------------------------ *)

let spawn_idle abi =
  let k = Cheri_libc.Runtime.boot () in
  Cheri_workloads.Stdlib_src.install k ~path:"/bin/i" ~abi
    "int main(int argc, char **argv) { while (1) { } return 0; }";
  let p = Kernel.spawn k ~path:"/bin/i" ~argv:[ "i"; "arg1" ] () in
  k, p

let test_cheriabi_initial_registers () =
  let _, p = spawn_idle Abi.Cheriabi in
  let ctx = p.Proc.ctx in
  (* DDC is NULL: the heart of CheriABI. *)
  Alcotest.(check bool) "DDC null" true (Cap.is_null ctx.Cpu.ddc);
  (* PCC is bounded to the entry object's text, executable, not writable. *)
  let pcc = ctx.Cpu.pcc in
  Alcotest.(check bool) "pcc tagged" true (Cap.is_tagged pcc);
  Alcotest.(check bool) "pcc executable" true
    (Perms.has (Cap.perms pcc) Perms.execute);
  Alcotest.(check bool) "pcc not writable" false
    (Perms.has (Cap.perms pcc) Perms.store);
  Alcotest.(check bool) "pcc bounded under 1MiB" true (Cap.length pcc < 1 lsl 20);
  (* Stack capability covers exactly the stack region. *)
  let csp = Cpu.rd_creg ctx Reg.csp in
  Alcotest.(check int) "csp base" Exec.stack_base (Cap.base csp);
  Alcotest.(check int) "csp top" Exec.stack_top (Cap.top csp);
  Alcotest.(check bool) "csp not executable" false
    (Perms.has (Cap.perms csp) Perms.execute);
  (* The argument capability is small and inside the stack region. *)
  let args = Cpu.rd_creg ctx Reg.ca0 in
  Alcotest.(check int) "args header is 48 bytes" 48 (Cap.length args);
  Alcotest.(check bool) "args within stack" true
    (Cap.base args >= Exec.stack_base && Cap.top args <= Exec.stack_top)

let test_legacy_initial_registers () =
  let _, p = spawn_idle Abi.Mips64 in
  let ctx = p.Proc.ctx in
  (* Bounds compression pads the userspace root's base down, so the DDC
     covers at least (and roughly exactly) the user range. *)
  Alcotest.(check bool) "DDC covers userspace" true
    (Cap.is_tagged ctx.Cpu.ddc
     && Cap.base ctx.Cpu.ddc <= Addr_space.user_base_default
     && Cap.top ctx.Cpu.ddc >= Addr_space.user_top_default);
  Alcotest.(check int) "argc" 2 ctx.Cpu.gpr.(Reg.a0);
  Alcotest.(check bool) "argv in stack" true
    (ctx.Cpu.gpr.(Reg.a1) >= Exec.stack_base
     && ctx.Cpu.gpr.(Reg.a1) < Exec.stack_top);
  Alcotest.(check bool) "sp 16-aligned" true (ctx.Cpu.gpr.(Reg.sp) land 15 = 0)

let test_cheriabi_argv_caps_bounded () =
  let k, p = spawn_idle Abi.Cheriabi in
  (* Read argv[1]'s capability from the argument block: it must be bounded
     to exactly its string. *)
  let hdr = Cap.addr (Cpu.rd_creg p.Proc.ctx Reg.ca0) in
  let argv_cap = Kstate.kread_cap k p (hdr + 16) in
  Alcotest.(check bool) "argv array cap tagged" true (Cap.is_tagged argv_cap);
  let arg1 = Kstate.kread_cap k p (Cap.base argv_cap + Cap.sizeof) in
  Alcotest.(check bool) "argv[1] tagged" true (Cap.is_tagged arg1);
  Alcotest.(check int) "argv[1] bounded to \"arg1\"+NUL" 5 (Cap.length arg1);
  (* and the terminator slot is untagged NULL *)
  let term = Kstate.kread_cap k p (Cap.base argv_cap + (2 * Cap.sizeof)) in
  Alcotest.(check bool) "terminator untagged" false (Cap.is_tagged term)

let test_image_regions_disjoint () =
  let _, p = spawn_idle Abi.Cheriabi in
  let regions = Addr_space.regions p.Proc.asp in
  let rec pairs = function
    | [] -> ()
    | r :: rest ->
      List.iter
        (fun q ->
          let open Addr_space in
          Alcotest.(check bool)
            (Printf.sprintf "%s vs %s" r.r_name q.r_name)
            true
            (r.r_start + r.r_len <= q.r_start
             || q.r_start + q.r_len <= r.r_start))
        rest;
      pairs rest
  in
  pairs regions;
  (* the canonical regions exist *)
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " mapped") true
        (Addr_space.region_by_name p.Proc.asp name <> None))
    [ "stack"; "sigcode"; "got"; "tls" ]

let suite =
  [ "bind/lookup", `Quick, test_bind_lookup;
    "file read/write/truncate", `Quick, test_file_rw;
    "unlink", `Quick, test_unlink;
    "pipe FIFO chunks", `Quick, test_pipe_fifo;
    "pipe blocking and EOF", `Quick, test_pipe_blocking_and_eof;
    "pipe EPIPE", `Quick, test_pipe_epipe;
    "entry refcounts", `Quick, test_entry_refcounts;
    "cheriabi initial registers", `Quick, test_cheriabi_initial_registers;
    "legacy initial registers", `Quick, test_legacy_initial_registers;
    "cheriabi argv capabilities bounded", `Quick,
    test_cheriabi_argv_caps_bounded;
    "image regions disjoint", `Quick, test_image_regions_disjoint ]
