(* CPU and assembler tests: instruction semantics, capability instructions,
   trap behaviour, and label resolution. *)

module Cap = Cheri_cap.Cap
module Perms = Cheri_cap.Perms
module Compress = Cheri_cap.Compress
module Tagmem = Cheri_tagmem.Tagmem
module Cache = Cheri_tagmem.Cache
module Insn = Cheri_isa.Insn
module Asm = Cheri_isa.Asm
module Reg = Cheri_isa.Reg
module Cpu = Cheri_isa.Cpu
module Trap = Cheri_isa.Trap

(* A bare machine: identity translation, code from an array based at 0x1000,
   flat 64 KiB memory, full-powered PCC/DDC. *)
let bare items =
  let mem = Tagmem.create ~size:(1 lsl 16) in
  let hier = Cache.create_hierarchy () in
  let m = Cpu.create_machine ~mem ~hier in
  let asmd = Asm.assemble ~base:0x1000 items in
  m.Cpu.fetch <-
    (fun v ->
      let idx = (v - 0x1000) / 4 in
      if idx < 0 || idx >= Array.length asmd.Asm.code then
        Trap.raise_trap (Trap.Fetch_fault { vaddr = v })
      else asmd.Asm.code.(idx));
  let ctx = Cpu.create_ctx () in
  let root = Cap.make_root ~base:0 ~top:(1 lsl 16) () in
  ctx.Cpu.pcc <- Cap.set_addr root 0x1000;
  ctx.Cpu.ddc <- root;
  m, ctx, mem

(* Run to a Break 0 (success marker) or another stop. *)
let run items =
  let m, ctx, mem = bare (items @ [ Asm.I (Insn.Break 0) ]) in
  let stop = Cpu.run m ctx ~fuel:100_000 in
  stop, ctx, mem

let check_done stop =
  match stop with
  | Some (Cpu.Stop_trap (Trap.Break_trap 0)) -> ()
  | Some (Cpu.Stop_trap c) -> Alcotest.failf "trapped: %s" (Trap.to_string c)
  | Some Cpu.Stop_syscall -> Alcotest.fail "unexpected syscall"
  | Some (Cpu.Stop_rt n) -> Alcotest.failf "unexpected rt %d" n
  | None -> Alcotest.fail "fuel exhausted"

let gpr ctx r = ctx.Cpu.gpr.(r)

let test_alu () =
  let stop, ctx, _ =
    run
      [ Asm.I (Insn.Li (Reg.t0, 21));
        Asm.I (Insn.Li (Reg.t0 + 1, 2));
        Asm.I (Insn.Mul (Reg.t0 + 2, Reg.t0, Reg.t0 + 1));
        Asm.I (Insn.Addiu (Reg.t0 + 3, Reg.t0 + 2, -2));
        Asm.I (Insn.Div (Reg.t0 + 4, Reg.t0 + 3, Reg.t0 + 1));
        Asm.I (Insn.Rem (Reg.t0 + 5, Reg.t0, Reg.t0 + 1));
        Asm.I (Insn.Sll (Reg.t0 + 6, Reg.t0 + 1, 4));
        Asm.I (Insn.Nor_ (Reg.t0 + 7, Reg.zero, Reg.zero)) ]
  in
  check_done stop;
  Alcotest.(check int) "mul" 42 (gpr ctx (Reg.t0 + 2));
  Alcotest.(check int) "addiu" 40 (gpr ctx (Reg.t0 + 3));
  Alcotest.(check int) "div" 20 (gpr ctx (Reg.t0 + 4));
  Alcotest.(check int) "rem" 1 (gpr ctx (Reg.t0 + 5));
  Alcotest.(check int) "sll" 32 (gpr ctx (Reg.t0 + 6));
  Alcotest.(check int) "nor" (-1) (gpr ctx (Reg.t0 + 7))

let test_zero_register () =
  let stop, ctx, _ = run [ Asm.I (Insn.Li (Reg.zero, 99)) ] in
  check_done stop;
  Alcotest.(check int) "r0 stays 0" 0 (gpr ctx Reg.zero)

let test_unsigned_compare () =
  let stop, ctx, _ =
    run
      [ Asm.I (Insn.Li (Reg.t0, -1));         (* "big" unsigned *)
        Asm.I (Insn.Li (Reg.t0 + 1, 5));
        Asm.I (Insn.Sltu (Reg.t0 + 2, Reg.t0, Reg.t0 + 1));
        Asm.I (Insn.Slt (Reg.t0 + 3, Reg.t0, Reg.t0 + 1)) ]
  in
  check_done stop;
  Alcotest.(check int) "unsigned: -1 not < 5" 0 (gpr ctx (Reg.t0 + 2));
  Alcotest.(check int) "signed: -1 < 5" 1 (gpr ctx (Reg.t0 + 3))

let test_branches_and_loop () =
  (* sum 1..5 with a loop *)
  let stop, ctx, _ =
    run
      [ Asm.I (Insn.Li (Reg.t0, 0));          (* sum *)
        Asm.I (Insn.Li (Reg.t0 + 1, 5));      (* i *)
        Asm.Lbl "loop";
        Asm.I (Insn.Addu (Reg.t0, Reg.t0, Reg.t0 + 1));
        Asm.I (Insn.Addiu (Reg.t0 + 1, Reg.t0 + 1, -1));
        Asm.bgtz (Reg.t0 + 1) "loop" ]
  in
  check_done stop;
  Alcotest.(check int) "sum" 15 (gpr ctx Reg.t0)

let test_div_by_zero_traps () =
  let stop, _, _ =
    run [ Asm.I (Insn.Li (Reg.t0, 1)); Asm.I (Insn.Div (Reg.t0, Reg.t0, Reg.zero)) ]
  in
  match stop with
  | Some (Cpu.Stop_trap Trap.Div_by_zero) -> ()
  | _ -> Alcotest.fail "expected div-by-zero trap"

let test_legacy_memory_via_ddc () =
  let stop, ctx, _ =
    run
      [ Asm.I (Insn.Li (Reg.t0, 0x2000));
        Asm.I (Insn.Li (Reg.t0 + 1, 777));
        Asm.I (Insn.Store { w = 8; rs = Reg.t0 + 1; base = Reg.t0; off = 8 });
        Asm.I (Insn.Load { w = 8; signed = false; rd = Reg.t0 + 2;
                           base = Reg.t0; off = 8 }) ]
  in
  check_done stop;
  Alcotest.(check int) "roundtrip" 777 (gpr ctx (Reg.t0 + 2))

let test_null_ddc_blocks_legacy () =
  let m, ctx, _ =
    bare
      [ Asm.I (Insn.Li (Reg.t0, 0x2000));
        Asm.I (Insn.Load { w = 8; signed = false; rd = Reg.t0 + 1;
                           base = Reg.t0; off = 0 }) ]
  in
  ctx.Cpu.ddc <- Cap.null;
  (match Cpu.run m ctx ~fuel:100 with
   | Some (Cpu.Stop_trap (Trap.Cap_fault { violation = Cap.Tag_violation; _ })) ->
     ()
   | _ -> Alcotest.fail "expected tag violation through NULL DDC")

let test_unaligned_traps () =
  let stop, _, _ =
    run
      [ Asm.I (Insn.Li (Reg.t0, 0x2001));
        Asm.I (Insn.Load { w = 8; signed = false; rd = Reg.t0 + 1;
                           base = Reg.t0; off = 0 }) ]
  in
  match stop with
  | Some (Cpu.Stop_trap (Trap.Unaligned _)) -> ()
  | _ -> Alcotest.fail "expected unaligned trap"

let test_signed_load () =
  let stop, ctx, _ =
    run
      [ Asm.I (Insn.Li (Reg.t0, 0x2000));
        Asm.I (Insn.Li (Reg.t0 + 1, 0xff));
        Asm.I (Insn.Store { w = 1; rs = Reg.t0 + 1; base = Reg.t0; off = 0 });
        Asm.I (Insn.Load { w = 1; signed = true; rd = Reg.t0 + 2;
                           base = Reg.t0; off = 0 });
        Asm.I (Insn.Load { w = 1; signed = false; rd = Reg.t0 + 3;
                           base = Reg.t0; off = 0 }) ]
  in
  check_done stop;
  Alcotest.(check int) "signed" (-1) (gpr ctx (Reg.t0 + 2));
  Alcotest.(check int) "unsigned" 255 (gpr ctx (Reg.t0 + 3))

(* --- Capability instructions ----------------------------------------------------- *)

let test_csetbounds_and_access () =
  let stop, ctx, _ =
    run
      [ (* derive a 16-byte capability at 0x3000 from DDC *)
        Asm.I (Insn.Li (Reg.t0, 0x3000));
        Asm.I (Insn.CFromPtr (1, 0, Reg.t0));
        Asm.I (Insn.Li (Reg.t0 + 1, 16));
        Asm.I (Insn.CSetBounds (2, 1, Reg.t0 + 1));
        Asm.I (Insn.CGetBase (Reg.t0 + 2, 2));
        Asm.I (Insn.CGetLen (Reg.t0 + 3, 2));
        Asm.I (Insn.Li (Reg.t0 + 4, 55));
        Asm.I (Insn.CStore { w = 8; rs = Reg.t0 + 4; cb = 2; off = 8 });
        Asm.I (Insn.CLoad { w = 8; signed = false; rd = Reg.t0 + 5; cb = 2; off = 8 }) ]
  in
  check_done stop;
  Alcotest.(check int) "base" 0x3000 (gpr ctx (Reg.t0 + 2));
  Alcotest.(check int) "len" 16 (gpr ctx (Reg.t0 + 3));
  Alcotest.(check int) "store/load" 55 (gpr ctx (Reg.t0 + 5))

let test_cap_oob_traps () =
  let stop, _, _ =
    run
      [ Asm.I (Insn.Li (Reg.t0, 0x3000));
        Asm.I (Insn.CFromPtr (1, 0, Reg.t0));
        Asm.I (Insn.CSetBoundsImm (2, 1, 16));
        Asm.I (Insn.CLoad { w = 8; signed = false; rd = Reg.t0 + 1; cb = 2; off = 16 }) ]
  in
  match stop with
  | Some (Cpu.Stop_trap (Trap.Cap_fault { violation = Cap.Bounds_violation; _ })) ->
    ()
  | _ -> Alcotest.fail "expected bounds violation"

let test_clc_loadcap_strip () =
  let stop, ctx, _ =
    run
      [ Asm.I (Insn.Li (Reg.t0, 0x3000));
        Asm.I (Insn.CFromPtr (1, 0, Reg.t0));
        Asm.I (Insn.CSetBoundsImm (2, 1, 64));
        Asm.I (Insn.CSC { cs = 2; cb = 2; off = 0 });
        Asm.I (Insn.Li (Reg.t0 + 1, Perms.load lor Perms.global));
        Asm.I (Insn.CAndPerm (3, 2, Reg.t0 + 1));
        Asm.I (Insn.CLC { cd = 4; cb = 3; off = 0 });
        Asm.I (Insn.CGetTag (Reg.t0 + 2, 4));
        (* and through the full capability the tag survives *)
        Asm.I (Insn.CLC { cd = 5; cb = 2; off = 0 });
        Asm.I (Insn.CGetTag (Reg.t0 + 3, 5)) ]
  in
  check_done stop;
  Alcotest.(check int) "no LOAD_CAP -> tag stripped" 0 (gpr ctx (Reg.t0 + 2));
  Alcotest.(check int) "LOAD_CAP -> tag kept" 1 (gpr ctx (Reg.t0 + 3))

let test_store_local_rule () =
  (* A non-GLOBAL capability cannot be stored through a capability lacking
     STORE_LOCAL_CAP. *)
  let stop, _, _ =
    run
      [ Asm.I (Insn.Li (Reg.t0, 0x3000));
        Asm.I (Insn.CFromPtr (1, 0, Reg.t0));
        Asm.I (Insn.CSetBoundsImm (2, 1, 64));
        (* local (non-global) value capability *)
        Asm.I (Insn.Li (Reg.t0 + 1, Perms.load));
        Asm.I (Insn.CAndPerm (3, 2, Reg.t0 + 1));
        (* target without STORE_LOCAL_CAP *)
        Asm.I (Insn.Li (Reg.t0 + 2,
                        Perms.(union store (union store_cap (union load global)))));
        Asm.I (Insn.CAndPerm (4, 2, Reg.t0 + 2));
        Asm.I (Insn.CSC { cs = 3; cb = 4; off = 0 }) ]
  in
  match stop with
  | Some (Cpu.Stop_trap (Trap.Cap_fault { violation = Cap.Permit_violation _; _ }))
    -> ()
  | _ -> Alcotest.fail "expected store-local violation"

let test_cjal_links () =
  let stop, ctx, _ =
    run
      [ Asm.Ref ("fn", fun t -> Insn.CJAL (Reg.cra, t));
        Asm.I (Insn.Li (Reg.t0 + 1, 1));     (* executed after return *)
        Asm.j "end";
        Asm.Lbl "fn";
        Asm.I (Insn.Li (Reg.t0, 5));
        Asm.I (Insn.CJR Reg.cra);
        Asm.Lbl "end" ]
  in
  check_done stop;
  Alcotest.(check int) "callee ran" 5 (gpr ctx Reg.t0);
  Alcotest.(check int) "returned" 1 (gpr ctx (Reg.t0 + 1))

let test_pcc_bounds_confine_fetch () =
  (* Narrow PCC to the first two instructions: running off the end traps. *)
  let m, ctx, _ =
    bare [ Asm.I Insn.Nop; Asm.I Insn.Nop; Asm.I (Insn.Li (Reg.t0, 1)) ]
  in
  ctx.Cpu.pcc <-
    Cap.set_addr
      (Cap.set_bounds (Cap.set_addr ctx.Cpu.pcc 0x1000) ~len:8)
      0x1000;
  (match Cpu.run m ctx ~fuel:10 with
   | Some (Cpu.Stop_trap (Trap.Cap_fault { violation = Cap.Bounds_violation; _ }))
     -> Alcotest.(check int) "third insn never ran" 0 (gpr ctx Reg.t0)
   | _ -> Alcotest.fail "expected fetch bounds violation")

let test_crrl_cram_insns () =
  let stop, ctx, _ =
    run
      [ Asm.I (Insn.Li (Reg.t0, (1 lsl 20) + 3));
        Asm.I (Insn.CRRL (Reg.t0 + 1, Reg.t0));
        Asm.I (Insn.CRAM (Reg.t0 + 2, Reg.t0)) ]
  in
  check_done stop;
  Alcotest.(check int) "crrl" (Compress.crrl ((1 lsl 20) + 3)) (gpr ctx (Reg.t0 + 1));
  Alcotest.(check int) "cram" (Compress.cram ((1 lsl 20) + 3)) (gpr ctx (Reg.t0 + 2))

let test_annot_free () =
  let _, ctx, _ = run [ Asm.I (Insn.Annot "marker") ] in
  (* Annot costs no cycles beyond the break instruction. *)
  Alcotest.(check bool) "ran" true (ctx.Cpu.instret >= 1)

(* --- Satellite regressions: both engines must agree on these -------------------- *)

(* Run the same program under the step engine and the chain engine. *)
let run_both items =
  let items = items @ [ Asm.I (Insn.Break 0) ] in
  let m1, ctx1, _ = bare items in
  let s1 = Cpu.run m1 ctx1 ~fuel:100_000 in
  let m2, ctx2, _ = bare items in
  let bb = Cheri_isa.Bbcache.create () in
  let s2 = Cheri_isa.Bbcache.run bb m2 ctx2 ~fuel:100_000 in
  (s1, ctx1), (s2, ctx2)

let expect_unaligned name (stop, ctx) ~jump_pc =
  (match stop with
   | Some (Cpu.Stop_trap (Trap.Unaligned { vaddr; width })) ->
     Alcotest.(check int) (name ^ ": fault names the target") 0x2002 vaddr;
     Alcotest.(check int) (name ^ ": width") 4 width
   | Some s ->
     Alcotest.failf "%s: expected unaligned trap, got %s" name
       (match s with
        | Cpu.Stop_trap c -> Trap.to_string c
        | Cpu.Stop_syscall -> "syscall"
        | Cpu.Stop_rt n -> Printf.sprintf "rt %d" n)
   | None -> Alcotest.failf "%s: expected unaligned trap, ran out of fuel" name);
  (* Traps never advance the PC: the PCC still points at the jump. *)
  Alcotest.(check int) (name ^ ": pcc at the jump") jump_pc
    (Cap.addr ctx.Cpu.pcc)

(* Jr/Jalr to a non-instruction-aligned target must raise a precise
   Unaligned trap at the jump — not commit the bogus PC and surface a
   fetch fault later. *)
let test_jump_alignment_traps () =
  let prog =
    [ Asm.I (Insn.Li (Reg.t0, 0x2002));      (* misaligned target *)
      Asm.I (Insn.Jr Reg.t0) ]
  in
  let r1, r2 = run_both prog in
  expect_unaligned "step/jr" r1 ~jump_pc:0x1004;
  expect_unaligned "chain/jr" r2 ~jump_pc:0x1004;
  (* Jalr: the alignment check precedes the link-register write. *)
  let prog =
    [ Asm.I (Insn.Li (Reg.t0, 0x2002));
      Asm.I (Insn.Li (Reg.t0 + 1, 1234));    (* sentinel in the link reg *)
      Asm.I (Insn.Jalr (Reg.t0 + 1, Reg.t0)) ]
  in
  let (s1, c1), (s2, c2) = run_both prog in
  expect_unaligned "step/jalr" (s1, c1) ~jump_pc:0x1008;
  expect_unaligned "chain/jalr" (s2, c2) ~jump_pc:0x1008;
  Alcotest.(check int) "step: link reg untouched" 1234 (gpr c1 (Reg.t0 + 1));
  Alcotest.(check int) "chain: link reg untouched" 1234 (gpr c2 (Reg.t0 + 1))

(* A taken Beq-family branch checks its target too. *)
let test_branch_alignment_traps () =
  let prog =
    [ Asm.I (Insn.Li (Reg.t0, 1));
      Asm.I (Insn.Bgtz (Reg.t0, 0x2002)) ]
  in
  let r1, r2 = run_both prog in
  expect_unaligned "step/bgtz" r1 ~jump_pc:0x1004;
  expect_unaligned "chain/bgtz" r2 ~jump_pc:0x1004;
  (* Not taken: the bogus target is never inspected. *)
  let prog =
    [ Asm.I (Insn.Li (Reg.t0, -3));
      Asm.I (Insn.Bgtz (Reg.t0, 0x2002)) ]
  in
  let (s1, _), (s2, _) = run_both prog in
  check_done s1;
  check_done s2

(* Div/Rem of min_int by -1 overflows the 63-bit machine integers; OCaml's
   / and mod silently wrap, so the interpreter must trap instead. *)
let test_div_overflow_traps () =
  let expect_overflow name stop =
    match stop with
    | Some (Cpu.Stop_trap Trap.Overflow) -> ()
    | _ -> Alcotest.failf "%s: expected overflow trap" name
  in
  let div_prog op =
    [ Asm.I (Insn.Li (Reg.t0, min_int));
      Asm.I (Insn.Li (Reg.t0 + 1, -1));
      Asm.I (op (Reg.t0 + 2) Reg.t0 (Reg.t0 + 1)) ]
  in
  let (s1, _), (s2, _) =
    run_both (div_prog (fun rd rs rt -> Insn.Div (rd, rs, rt)))
  in
  expect_overflow "step/div" s1;
  expect_overflow "chain/div" s2;
  let (s1, _), (s2, _) =
    run_both (div_prog (fun rd rs rt -> Insn.Rem (rd, rs, rt)))
  in
  expect_overflow "step/rem" s1;
  expect_overflow "chain/rem" s2;
  (* min_int / 1 and ordinary negative division still work. *)
  let stop, ctx, _ =
    run
      [ Asm.I (Insn.Li (Reg.t0, min_int));
        Asm.I (Insn.Li (Reg.t0 + 1, 1));
        Asm.I (Insn.Div (Reg.t0 + 2, Reg.t0, Reg.t0 + 1));
        Asm.I (Insn.Li (Reg.t0 + 3, -7));
        Asm.I (Insn.Li (Reg.t0 + 4, -2));
        Asm.I (Insn.Rem (Reg.t0 + 5, Reg.t0 + 3, Reg.t0 + 4)) ]
  in
  check_done stop;
  Alcotest.(check int) "min_int/1" min_int (gpr ctx (Reg.t0 + 2));
  Alcotest.(check int) "-7 rem -2" (-1) (gpr ctx (Reg.t0 + 5))

(* --- Assembler ------------------------------------------------------------------------ *)

let test_asm_labels () =
  let asmd =
    Asm.assemble ~base:0x100
      [ Asm.Lbl "a"; Asm.I Insn.Nop; Asm.Lbl "b"; Asm.I Insn.Nop ]
  in
  Alcotest.(check int) "a" 0x100 (Asm.label_addr asmd "a");
  Alcotest.(check int) "b" 0x104 (Asm.label_addr asmd "b");
  Alcotest.(check int) "size" 8 (Asm.size_bytes asmd)

let test_asm_undefined_label () =
  Alcotest.check_raises "undefined" (Asm.Undefined_label "nope") (fun () ->
      ignore (Asm.assemble ~base:0 [ Asm.j "nope" ]))

let test_asm_duplicate_label () =
  Alcotest.check_raises "duplicate" (Asm.Duplicate_label "x") (fun () ->
      ignore (Asm.assemble ~base:0 [ Asm.Lbl "x"; Asm.Lbl "x" ]))

let test_asm_extern () =
  let asmd =
    Asm.assemble ~extern:(fun s -> if s = "far" then Some 0xbeef else None)
      ~base:0 [ Asm.j "far" ]
  in
  (match asmd.Asm.code.(0) with
   | Insn.J 0xbeef -> ()
   | i -> Alcotest.failf "got %s" (Insn.to_string i))

let suite =
  [ "alu", `Quick, test_alu;
    "zero register", `Quick, test_zero_register;
    "unsigned compare", `Quick, test_unsigned_compare;
    "branches and loop", `Quick, test_branches_and_loop;
    "div by zero traps", `Quick, test_div_by_zero_traps;
    "legacy memory via DDC", `Quick, test_legacy_memory_via_ddc;
    "NULL DDC blocks legacy", `Quick, test_null_ddc_blocks_legacy;
    "unaligned traps", `Quick, test_unaligned_traps;
    "signed loads", `Quick, test_signed_load;
    "csetbounds and access", `Quick, test_csetbounds_and_access;
    "cap OOB traps", `Quick, test_cap_oob_traps;
    "CLC LOAD_CAP semantics", `Quick, test_clc_loadcap_strip;
    "store-local rule", `Quick, test_store_local_rule;
    "CJAL links and returns", `Quick, test_cjal_links;
    "PCC bounds confine fetch", `Quick, test_pcc_bounds_confine_fetch;
    "CRRL/CRAM instructions", `Quick, test_crrl_cram_insns;
    "annot is free", `Quick, test_annot_free;
    "jump target alignment", `Quick, test_jump_alignment_traps;
    "branch target alignment", `Quick, test_branch_alignment_traps;
    "div/rem overflow traps", `Quick, test_div_overflow_traps;
    "asm labels", `Quick, test_asm_labels;
    "asm undefined label", `Quick, test_asm_undefined_label;
    "asm duplicate label", `Quick, test_asm_duplicate_label;
    "asm extern resolution", `Quick, test_asm_extern ]
