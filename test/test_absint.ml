(* Soundness of the machine-level capability abstract interpreter
   (lib/analysis/absint.ml) and its static claims.

   [Absint.verify] makes two kinds of claim, both relative to the CFG it
   recovers: a pc in [r_discharged] carries a capability check that
   cannot fail on any CFG path from a function entry, and a must-trap
   diagnostic at a pc says that reaching it along such a path traps.
   Both are validated dynamically here:

   1. A step-driven oracle over the same 120 seeded fuzz programs the
      engine-differential test uses: the reference interpreter runs one
      instruction at a time. No instruction claimed must-trap may retire;
      no trap may fire on a check the analysis discharged. The CFG does
      not follow register-indirect jumps, so a run is checked up to its
      first one.

   2. Directed machine-code programs, one per violation kind, asserting
      both directions at a known pc: the verifier flags the must-trap AND
      the machine actually traps there.

   3. Directed elision-positive programs: the second access through an
      already-checked capability is provably safe; a first access through
      an entry register is not, and the engines probe it either way.

   4. A C-level program dereferencing an integer-derived pointer: the
      whole-image verifier locates the must-trap, and the kernel run dies
      with SIGPROT at that very pc (cross-referenced through the enriched
      fault log).

   5. [cheri_run --analysis-stats]' counts: the analysis run over a
      spawned process's image agrees with [Absint.verify] over the same
      image linked independently. *)

module Cap = Cheri_cap.Cap
module Perms = Cheri_cap.Perms
module Insn = Cheri_isa.Insn
module Cpu = Cheri_isa.Cpu
module Bbcache = Cheri_isa.Bbcache
module Trap = Cheri_isa.Trap
module Abi = Cheri_core.Abi
module Absint = Cheri_analysis.Absint
module Harness = Cheri_workloads.Harness
module Proc = Cheri_kernel.Proc
module Signo = Cheri_kernel.Signo

let code_base = Test_engines.code_base
let data_base = Test_engines.data_base

(* Verify a program placed at [code_base], entered there. *)
let verify_prog ?ddc insns =
  Absint.verify ?ddc ~entries:[ code_base ] [ (code_base, insns) ]

(* --- 1. Fuzz oracle ---------------------------------------------------------- *)

(* Does [cause], raised by [insn], contradict a discharged check? The
   discharged probe is [check_cap] on the addressed capability (or DDC,
   reg -2): a capability fault against that register means the check
   failed after all. Value-dependent CSC faults (STORE_CAP /
   STORE_LOCAL_CAP of the stored value) are not part of the claim, nor are
   alignment checks, translation and everything else. *)
let contradicts_elision insn cause =
  match insn, cause with
  | Some (Insn.CLoad { cb; _ }), Trap.Cap_fault { reg; _ }
  | Some (Insn.CStore { cb; _ }), Trap.Cap_fault { reg; _ }
  | Some (Insn.CLC { cb; _ }), Trap.Cap_fault { reg; _ } -> reg = cb
  | Some (Insn.CSC { cb; _ }), Trap.Cap_fault { reg; violation; _ } ->
    reg = cb
    && (match violation with
        | Cap.Permit_violation p ->
          not
            (Perms.subset p Perms.store_cap
             || Perms.subset p Perms.store_local_cap)
        | _ -> true)
  | Some (Insn.Load _), Trap.Cap_fault { reg; _ }
  | Some (Insn.Store _), Trap.Cap_fault { reg; _ } -> reg = -2
  | _ -> false

let indirect_jump = function
  | Insn.Jr _ | Insn.Jalr _ | Insn.CJR _ | Insn.CJALR _ -> true
  | _ -> false

(* Run one fuzz program under the step interpreter and check every
   retirement or trap at a claimed pc against the claim. Returns the
   number of claims compared. *)
let oracle_one seed errors =
  let insns, _ = Test_engines.gen_program (seed * 7919) in
  let m, ctx, _mem = Test_engines.setup insns seed in
  let r = verify_prog ~ddc:ctx.Cpu.ddc insns in
  let discharged = Hashtbl.create 64 and must = Hashtbl.create 8 in
  List.iter (fun pc -> Hashtbl.replace discharged pc ()) r.Absint.r_discharged;
  List.iter
    (fun (d : Absint.diag) ->
      if d.Absint.g_sev = Absint.Must then
        Hashtbl.replace must d.Absint.g_pc ())
    r.Absint.r_diags;
  let compared = ref 0 in
  let fuel = ref Test_engines.fuel in
  let stop = ref false in
  while (not !stop) && !fuel > 0 do
    let pc = Cap.addr ctx.Cpu.pcc in
    let claimed_must = Hashtbl.mem must pc in
    let claimed_safe = Hashtbl.mem discharged pc in
    if claimed_must || claimed_safe then incr compared;
    let insn = try Some (m.Cpu.fetch pc) with Trap.Trap _ -> None in
    let r = Cpu.run m ctx ~fuel:1 in
    decr fuel;
    (match r with
     | None | Some Cpu.Stop_syscall | Some (Cpu.Stop_rt _) ->
       if claimed_must then
         errors :=
           Printf.sprintf "seed %d: 0x%x retired but claimed must-trap" seed
             pc
           :: !errors
     | Some (Cpu.Stop_trap cause) ->
       if claimed_safe && contradicts_elision insn cause then
         errors :=
           Printf.sprintf "seed %d: 0x%x discharged check trapped: %s" seed pc
             (Trap.to_string cause)
           :: !errors);
    match r, insn with
    | None, Some i -> if indirect_jump i then stop := true
    | None, None -> ()
    | Some _, _ -> stop := true
  done;
  !compared

let test_fuzz_oracle () =
  let errors = ref [] in
  let compared = ref 0 in
  for seed = 1 to 120 do
    compared := !compared + oracle_one seed errors
  done;
  List.iter print_endline !errors;
  Alcotest.(check int) "no claim contradicted dynamically" 0
    (List.length !errors);
  (* Most fuzz runs trap within a few instructions, so few claims are
     reached: 19 with this generator. The floor catches an oracle that
     silently stops comparing. *)
  if !compared < 18 then
    Alcotest.failf "only %d claims compared (floor 18)" !compared

(* --- 2. Directed must-trap programs ------------------------------------------ *)

(* Each case: instructions placed at [code_base], the index of the
   instruction that must trap, and the claim kind (for the error message).
   The program is verified from a Top entry state — every proof must work
   with no knowledge of the initial registers — then run on the real
   machine, which must trap exactly at that pc. *)
let directed_cases =
  [ ( "tag: load through cleared tag",
      [| Insn.CClearTag (2, 1);
         Insn.CLoad { w = 8; signed = false; rd = 8; cb = 2; off = 0 };
         Insn.Break 0 |],
      1 );
    ( "seal: load through sealed cap",
      [| Insn.CSeal (2, 1, 5);
         Insn.CLoad { w = 8; signed = false; rd = 8; cb = 2; off = 0 };
         Insn.Break 0 |],
      1 );
    ( "perm: store through load-only cap",
      [| Insn.CAndPermImm (2, 1, Perms.load);
         Insn.CStore { w = 8; rs = 8; cb = 2; off = 0 };
         Insn.Break 0 |],
      1 );
    ( "bounds: access past set bounds",
      [| Insn.CSetBoundsImm (2, 1, 16);
         Insn.CLoad { w = 8; signed = false; rd = 8; cb = 2; off = 24 };
         Insn.Break 0 |],
      1 );
    ( "monotonicity: widening set-bounds",
      [| Insn.CSetBoundsImm (2, 1, 8);
         Insn.CSetBoundsImm (3, 2, 16);
         Insn.Break 0 |],
      1 );
    ( "div-zero: constant zero divisor",
      [| Insn.Li (8, 0);
         Insn.Div (9, 10, 8);
         Insn.Break 0 |],
      1 );
    ( "jump-align: misaligned direct jump",
      [| Insn.Nop;
         Insn.J (code_base + 2);
         Insn.Break 0 |],
      1 );
    ( "tag: jump through cleared tag",
      [| Insn.CClearTag (2, 1);
         Insn.CJR 2;
         Insn.Break 0 |],
      1 ) ]

let test_directed_must () =
  List.iter
    (fun (name, insns, idx) ->
      let pc_expect = code_base + (4 * idx) in
      (* Static: the verifier must claim the trap. *)
      let r = verify_prog insns in
      if
        not
          (List.exists
             (fun (d : Absint.diag) ->
               d.Absint.g_sev = Absint.Must && d.Absint.g_pc = pc_expect)
             r.Absint.r_diags)
      then Alcotest.failf "%s: no static must-trap claim at index %d" name idx;
      (* Dynamic: the machine must trap exactly there. *)
      let m, ctx, _mem = Test_engines.setup insns 1 in
      (match Cpu.run m ctx ~fuel:50 with
       | Some (Cpu.Stop_trap _) ->
         let pc = Cap.addr ctx.Cpu.pcc in
         Alcotest.(check int) (name ^ ": trap pc") pc_expect pc
       | r ->
         Alcotest.failf "%s: expected a trap, got %s" name
           (match r with
            | None -> "fuel exhaustion"
            | Some Cpu.Stop_syscall -> "syscall"
            | Some (Cpu.Stop_rt n) -> Printf.sprintf "rt %d" n
            | Some (Cpu.Stop_trap _) -> assert false));
      (* And under the chaining block engine: a trap raised mid-chain is
         attributed to the pc of the block that actually faulted, so the
         dynamic trap pc must still cross-reference the absint claim. *)
      let m, ctx, _mem = Test_engines.setup insns 1 in
      (match Bbcache.run (Bbcache.create ()) m ctx ~fuel:50 with
       | Some (Cpu.Stop_trap _) ->
         Alcotest.(check int) (name ^ ": chained trap pc") pc_expect
           (Cap.addr ctx.Cpu.pcc)
       | _ -> Alcotest.failf "%s: chain engine did not trap" name))
    directed_cases

(* --- 3. Directed elision-positive programs ----------------------------------- *)

(* Is the check at instruction [idx] of [insns] discharged? *)
let discharged ?ddc insns idx =
  List.mem (code_base + (4 * idx)) (verify_prog ?ddc insns).Absint.r_discharged

let test_directed_elision () =
  (* Second access through the same register: the first access proves the
     capability tagged, unsealed, load-permitted and in bounds at this
     offset; the second is then discharged. The first cannot be (the entry
     state is Top). *)
  let insns =
    [| Insn.CLoad { w = 8; signed = false; rd = 8; cb = 1; off = 0 };
       Insn.CLoad { w = 8; signed = false; rd = 9; cb = 1; off = 0 };
       Insn.Break 0 |]
  in
  Alcotest.(check bool) "first access not elidable" false
    (discharged insns 0);
  Alcotest.(check bool) "repeat access elidable" true (discharged insns 1);
  (* Legacy loads under a concrete DDC: both accesses are at constant
     addresses the DDC provably covers, so both checks are discharged. *)
  let ddc = Cap.make_root ~base:0 ~top:Test_engines.mem_size () in
  let insns =
    [| Insn.Li (8, data_base);
       Insn.Load { w = 8; signed = false; rd = 9; base = 8; off = 0 };
       Insn.Load { w = 8; signed = false; rd = 10; base = 8; off = 8 };
       Insn.Break 0 |]
  in
  Alcotest.(check bool) "legacy load 1 elidable" true
    (discharged ~ddc insns 1);
  Alcotest.(check bool) "legacy load 2 elidable" true
    (discharged ~ddc insns 2);
  (* Exact bounds derivation pins the window; the first access still has
     to prove the load permission, after which the next one is free. *)
  let insns =
    [| Insn.CSetBoundsImm (2, 1, 16);
       Insn.CLoad { w = 8; signed = false; rd = 8; cb = 2; off = 0 };
       Insn.CLoad { w = 8; signed = false; rd = 9; cb = 2; off = 8 };
       Insn.Break 0 |]
  in
  Alcotest.(check bool) "post-setbounds first access not elidable" false
    (discharged insns 1);
  Alcotest.(check bool) "post-setbounds repeat access elidable" true
    (discharged insns 2)

(* --- 3b. First accesses through an entry register ---------------------------- *)

(* The flow pass cannot discharge a first access through a register that
   holds an unknown capability at entry (its entry state is Top). The
   engines probe every access either way: with a valid wide capability
   both loads retire, with an untagged one the first traps. *)
let entry_access_prog cb =
  [| Insn.CLoad { w = 8; signed = false; rd = 8; cb; off = 0 };
     Insn.CLoad { w = 8; signed = false; rd = 9; cb; off = 8 };
     Insn.Break 0 |]

let test_guarded_elision () =
  List.iter
    (fun (cb, passes) ->
      let insns = entry_access_prog cb in
      Alcotest.(check bool) "first access not unconditionally elidable" false
        (discharged insns 0);
      (* The chain engine ignores the claim: it probes both loads when
         they pass, and traps on the first probe when it fails, landing on
         the step engine's snapshot either way. *)
      let step = Test_engines.run_step insns 3 in
      let m_c, ctx_c, mem_c = Test_engines.setup insns 3 in
      let bb = Bbcache.create () in
      let stop = Bbcache.run bb m_c ctx_c ~fuel:50 in
      Alcotest.(check string) "chain parity" step
        (Test_engines.snapshot stop m_c ctx_c mem_c);
      Alcotest.(check int) "chain probes every access it reaches"
        (if passes then 2 else 1) bb.Bbcache.checked_probes;
      (* The run itself agrees: both loads retire, or the first traps. *)
      let m, ctx, _mem = Test_engines.setup insns 3 in
      (match Cpu.run m ctx ~fuel:50 with
       | Some (Cpu.Stop_trap (Trap.Break_trap _)) ->
         Alcotest.(check bool) "loads retired" true passes
       | Some (Cpu.Stop_trap (Trap.Cap_fault _)) ->
         Alcotest.(check bool) "load trapped" false passes;
         Alcotest.(check int) "trap at the first load" code_base
           (Cap.addr ctx.Cpu.pcc)
       | _ -> Alcotest.fail "unexpected stop"))
    [ (1, true); (6, false) ]

(* --- 3c. Branch refinement at the interprocedural flow level ----------------- *)

(* A CGetLen/Sltu/Beq guard dominating a dereference: on the guarded edge
   the flow analysis learns the bounds-compare outcome and discharges the
   check; the same dereference without the guard stays checked. And a
   CGetTag guard over a known-untagged capability prunes the would-trap
   edge as infeasible, so no must-trap diagnostic is emitted — while the
   unguarded twin flags it. *)
let test_branch_refinement () =
  let flow prog =
    let r = Absint.verify ~entries:[ code_base ] [ (code_base, prog) ] in
    let musts =
      List.filter (fun d -> d.Absint.g_sev = Absint.Must) r.Absint.r_diags
    in
    (r.Absint.r_flow_sites, r.Absint.r_flow_elided, List.length musts)
  in
  (* base := cursor (length stays unknown), prove the load permission with
     a first access, then branch on (15 <u length): the fall-through edge
     proves the [0,16) window, covering the off-8 dereference. *)
  let lskip = code_base + (4 * 7) in
  let guarded =
    [| Insn.CSetBoundsExact (1, 1, 5);
       Insn.CLoad { w = 8; signed = false; rd = 2; cb = 1; off = 0 };
       Insn.CGetLen (9, 1);
       Insn.Li (10, 15);
       Insn.Sltu (11, 10, 9);
       Insn.Beq (11, 0, lskip);
       Insn.CLoad { w = 8; signed = false; rd = 3; cb = 1; off = 8 };
       Insn.Break 0 |]
  in
  let unguarded = Array.copy guarded in
  unguarded.(5) <- Insn.Nop;
  Alcotest.(check (triple int int int))
    "bounds-compare guard discharges the dominated dereference" (2, 1, 0)
    (flow guarded);
  Alcotest.(check (triple int int int))
    "without the branch the same dereference stays checked" (2, 0, 0)
    (flow unguarded);
  (* Tag refinement: c1 is provably untagged, so the tag != 0 edge is
     infeasible and the dereference behind it is unreachable. *)
  let lderef = code_base + (4 * 4) in
  let pruned =
    [| Insn.CClearTag (1, 1);
       Insn.CGetTag (8, 1);
       Insn.Bne (8, 0, lderef);
       Insn.Break 0;
       Insn.CLoad { w = 8; signed = false; rd = 2; cb = 1; off = 0 };
       Insn.Break 0 |]
  in
  let reached = Array.copy pruned in
  reached.(2) <- Insn.J lderef;
  let _, _, pruned_musts = flow pruned in
  Alcotest.(check int) "infeasible-edge dereference emits no must-trap" 0
    pruned_musts;
  let _, _, reached_musts = flow reached in
  Alcotest.(check bool) "unguarded twin flags the must-trap" true
    (reached_musts > 0)

(* --- 3d. Tail calls in the CFG ------------------------------------------------ *)

(* A direct jump into another function's entry is a tail call: a call edge
   (so the callee's summary applies and its exit composes into the
   caller's), not a successor edge (the callee's blocks must not be
   swallowed into the caller's partition). *)
let test_tail_call_cfg () =
  let g = code_base + 8 in
  let insns =
    [| Insn.Nop; Insn.J g; Insn.Li (2, 1); Insn.Break 0 |]
  in
  let cfg =
    Cheri_analysis.Cfg.build ~entries:[ code_base; g ] [ (code_base, insns) ]
  in
  let module Cfg = Cheri_analysis.Cfg in
  let fb =
    match Cfg.block_of cfg code_base with
    | Some b -> b
    | None -> Alcotest.fail "no block at the caller's entry"
  in
  Alcotest.(check (list int)) "tail call recorded as a call edge" [ g ]
    fb.Cfg.bb_calls;
  Alcotest.(check bool) "tail call leaves no successor edge" true
    (fb.Cfg.bb_succs = []);
  let members root =
    match List.assoc_opt root cfg.Cfg.funcs with
    | Some ms -> ms
    | None -> Alcotest.failf "no function partition at 0x%x" root
  in
  Alcotest.(check bool) "callee blocks stay out of the caller's partition"
    false
    (List.mem g (members code_base));
  Alcotest.(check bool) "callee partitions under its own root" true
    (List.mem g (members g))

(* --- 3e. Callee register writes in the call summary ------------------------ *)

(* The caller proves r8 = data_base, calls g, then loads through r8
   under a DDC covering all of memory: if the fact survives the call,
   the load is discharged. It may survive only when g leaves r8 alone.
   A callee that reloads r8, through a legacy Load or a capability
   CLoad, must appear in its summary's written registers, so the load
   after the call stays checked. *)
let test_callee_reload_kills_fact () =
  let g = code_base + (4 * 4) in
  let prog callee_insn =
    [| Insn.Li (8, data_base);
       Insn.Jal g;
       Insn.Load { w = 8; signed = false; rd = 9; base = 8; off = 0 };
       Insn.Break 0;
       callee_insn;
       Insn.Jr Cheri_isa.Reg.ra |]
  in
  let caller_load_elided callee_insn =
    let r =
      Absint.verify
        ~ddc:(Cap.make_root ~base:0 ~top:Test_engines.mem_size ())
        ~entries:[ code_base; g ]
        [ (code_base, prog callee_insn) ]
    in
    r.Absint.r_flow_elided > 0
  in
  Alcotest.(check bool) "fact survives a callee that leaves r8 alone" true
    (caller_load_elided
       (Insn.CLoad { w = 8; signed = false; rd = 9; cb = 1; off = 0 }));
  Alcotest.(check bool) "callee Load of r8 kills the fact" false
    (caller_load_elided
       (Insn.Load { w = 8; signed = false; rd = 8; base = 9; off = 0 }));
  Alcotest.(check bool) "callee CLoad of r8 kills the fact" false
    (caller_load_elided
       (Insn.CLoad { w = 8; signed = false; rd = 8; cb = 1; off = 0 }))

(* --- 4. C-level must-trap, cross-referenced with the kernel fault ------------ *)

let int_deref_src = {|
int main(int argc, char **argv) {
  char *p = (char *)4096;
  return *p;
}
|}

let test_c_level_must_trap () =
  (* Static: the whole-image verifier locates at least one must-trap. *)
  let image =
    Cheri_workloads.Stdlib_src.build_image ~abi:Abi.Cheriabi ~name:"t"
      int_deref_src
  in
  let link = Cheri_rtld.Rtld.link ~abi:Abi.Cheriabi image in
  let entries =
    link.Cheri_rtld.Rtld.lk_entry
    :: Hashtbl.fold
         (fun _ def acc ->
           match def with
           | Cheri_rtld.Rtld.Dfunc (_, addr) -> addr :: acc
           | _ -> acc)
         link.Cheri_rtld.Rtld.lk_symtab []
  in
  let r =
    Absint.verify ~ddc:Cap.null
      ~pcc_may:(Perms.diff Perms.all Perms.system_regs)
      ~entries link.Cheri_rtld.Rtld.lk_code
  in
  let musts =
    List.filter (fun d -> d.Absint.g_sev = Absint.Must) r.Absint.r_diags
  in
  Alcotest.(check bool) "verifier finds a must-trap" true (musts <> []);
  (* Dynamic: the run dies with SIGPROT, and the enriched fault log names
     one of the statically flagged pcs. *)
  let m = Harness.run ~abi:Abi.Cheriabi int_deref_src in
  (match m.Harness.m_status with
   | Some (Proc.Signaled s) ->
     Alcotest.(check string) "killed by SIGPROT" (Signo.name Signo.sigprot)
       (Signo.name s)
   | _ -> Alcotest.failf "expected SIGPROT, got %s" (Harness.status_string m));
  let fault = String.concat "; " m.Harness.m_faults in
  let named =
    List.exists
      (fun (d : Absint.diag) ->
        let needle = Printf.sprintf "at 0x%x:" d.Absint.g_pc in
        let nl = String.length needle and fl = String.length fault in
        let rec find i =
          i + nl <= fl && (String.sub fault i nl = needle || find (i + 1))
        in
        find 0)
      musts
  in
  if not named then
    Alcotest.failf "fault log %S names none of the flagged pcs" fault

(* --- 5. --analysis-stats counts --------------------------------------------- *)

(* [cheri_run --analysis-stats] reports [Harness.verify_image] over the
   spawned process's own link. Its provable/total flow counts must equal
   [Absint.verify] over the same image, linked and given its linkage view
   independently here, under the DDC the kernel actually installed. *)
let test_analysis_stats_match_verify () =
  List.iter
    (fun abi ->
      let module Rtld = Cheri_rtld.Rtld in
      let image =
        Cheri_workloads.Stdlib_src.build_image ~abi ~name:"stats"
          Test_engines.parity_src
      in
      let k = Cheri_libc.Runtime.boot () in
      Cheri_kernel.Vfs.add_exe k.Cheri_kernel.Kstate.vfs "/bin/stats" ~abi
        image;
      let status, _, p =
        Cheri_kernel.Kernel.run_program k ~path:"/bin/stats" ~argv:[ "stats" ]
      in
      Alcotest.(check bool) "program exited 0" true
        (status = Some (Proc.Exited 0));
      let stats =
        Cheri_workloads.Harness.verify_image ~abi (Option.get p.Proc.linked)
      in
      let link = Rtld.link ~abi image in
      let entries =
        link.Rtld.lk_entry
        :: Hashtbl.fold
             (fun _ def acc ->
               match def with Rtld.Dfunc (_, a) -> a :: acc | _ -> acc)
             link.Rtld.lk_symtab []
        |> List.sort_uniq compare
      in
      let got =
        List.filter_map
          (fun (name, off) ->
            match Hashtbl.find_opt link.Rtld.lk_symtab name with
            | Some (Rtld.Dfunc (_, a)) -> Some (off, a)
            | _ -> None)
          link.Rtld.lk_got
        |> List.sort compare
      in
      let ddc = p.Proc.ctx.Cpu.ddc in
      let r =
        Absint.verify ~ddc ~pcc_may:(Perms.diff Perms.all Perms.system_regs)
          ~entries ~got link.Rtld.lk_code
      in
      let label = Abi.to_string abi in
      Alcotest.(check bool) (label ^ ": some flow checks") true
        (r.Absint.r_flow_sites > 0);
      Alcotest.(check int) (label ^ ": provable checks")
        r.Absint.r_flow_elided stats.Absint.r_flow_elided;
      Alcotest.(check int) (label ^ ": total checks") r.Absint.r_flow_sites
        stats.Absint.r_flow_sites;
      Alcotest.(check int) (label ^ ": functions") r.Absint.r_funcs
        stats.Absint.r_funcs)
    [ Abi.Mips64; Abi.Cheriabi ]

(* The kernel parity program, under both ABIs: the analysis proves some of
   its checks elidable, yet a run with the fact provider installed (the
   inert one simbench still sets) is the same run as one without: same
   output, instruction, cycle and L2-miss counts, and every capability
   check still probed. *)
let test_kernel_elide_parity () =
  let module Kernel = Cheri_kernel.Kernel in
  let module Kstate = Cheri_kernel.Kstate in
  List.iter
    (fun abi ->
      let label = Abi.to_string abi in
      let image =
        Cheri_workloads.Stdlib_src.build_image ~abi ~name:"parity" Test_engines.parity_src
      in
      let r = Harness.verify_image ~abi (Cheri_rtld.Rtld.link ~abi image) in
      Alcotest.(check bool) (label ^ ": some checks provable") true
        (r.Absint.r_flow_elided > 0);
      let measure provider =
        let k = Cheri_libc.Runtime.boot ~engine:Cpu.Chain () in
        k.Kstate.config.Kstate.fact_provider <- provider;
        Cheri_kernel.Vfs.add_exe k.Kstate.vfs "/bin/parity" ~abi image;
        let status, out, p =
          Kernel.run_program k ~path:"/bin/parity" ~argv:[ "parity" ]
        in
        if status <> Some (Proc.Exited 0) then
          Alcotest.failf "%s: parity run failed" label;
        ( out, p.Proc.ctx.Cpu.instret, p.Proc.ctx.Cpu.cycles,
          Cheri_tagmem.Cache.l2_misses (Kstate.hierarchy k),
          k.Kstate.bb.Bbcache.checked_probes )
      in
      let o1, i1, c1, l1, p1 = measure None in
      let o2, i2, c2, l2, p2 = measure (Some (Absint.provider ())) in
      Alcotest.(check string) (label ^ ": output") o1 o2;
      Alcotest.(check int) (label ^ ": instructions") i1 i2;
      Alcotest.(check int) (label ^ ": cycles") c1 c2;
      Alcotest.(check int) (label ^ ": L2 misses") l1 l2;
      Alcotest.(check bool) (label ^ ": checks probed") true (p1 > 0);
      Alcotest.(check int) (label ^ ": checked probes") p1 p2)
    [ Abi.Mips64; Abi.Cheriabi ]

let suite =
  [ "fuzz soundness oracle", `Quick, test_fuzz_oracle;
    "directed must-trap claims", `Quick, test_directed_must;
    "directed elision claims", `Quick, test_directed_elision;
    "guarded elision in the engines", `Quick, test_guarded_elision;
    "branch refinement", `Quick, test_branch_refinement;
    "tail calls in the CFG", `Quick, test_tail_call_cfg;
    "callee CLoad kills a caller fact", `Quick, test_callee_reload_kills_fact;
    "C-level must-trap + fault cross-reference", `Quick,
    test_c_level_must_trap;
    "analysis stats match verify", `Quick,
    test_analysis_stats_match_verify;
    "kernel elision parity", `Quick, test_kernel_elide_parity ]
