(* Workload-level integration tests, including differential testing of the
   compiler: random expression programs must compute identical results
   under all three backends, and those results must match an independent
   OCaml evaluation. *)

module Abi = Cheri_core.Abi
open Cheri_workloads

(* --- Differential compiler testing ---------------------------------------------------- *)

(* A tiny expression language with a reference evaluator. *)
type e =
  | Num of int
  | Add of e * e
  | Sub of e * e
  | Mul of e * e
  | And of e * e
  | Or of e * e
  | Xor of e * e
  | Shl of e * e    (* by 0..7 *)
  | Lt of e * e
  | Ifnz of e * e * e

let rec eval_ref = function
  | Num n -> n
  | Add (a, b) -> eval_ref a + eval_ref b
  | Sub (a, b) -> eval_ref a - eval_ref b
  | Mul (a, b) -> eval_ref a * eval_ref b
  | And (a, b) -> eval_ref a land eval_ref b
  | Or (a, b) -> eval_ref a lor eval_ref b
  | Xor (a, b) -> eval_ref a lxor eval_ref b
  | Shl (a, b) -> eval_ref a lsl (eval_ref b land 7)
  | Lt (a, b) -> if eval_ref a < eval_ref b then 1 else 0
  | Ifnz (c, a, b) -> if eval_ref c <> 0 then eval_ref a else eval_ref b

let rec to_c = function
  | Num n -> string_of_int n
  | Add (a, b) -> Printf.sprintf "(%s + %s)" (to_c a) (to_c b)
  | Sub (a, b) -> Printf.sprintf "(%s - %s)" (to_c a) (to_c b)
  | Mul (a, b) -> Printf.sprintf "(%s * %s)" (to_c a) (to_c b)
  | And (a, b) -> Printf.sprintf "(%s & %s)" (to_c a) (to_c b)
  | Or (a, b) -> Printf.sprintf "(%s | %s)" (to_c a) (to_c b)
  | Xor (a, b) -> Printf.sprintf "(%s ^ %s)" (to_c a) (to_c b)
  | Shl (a, b) -> Printf.sprintf "(%s << (%s & 7))" (to_c a) (to_c b)
  | Lt (a, b) -> Printf.sprintf "(%s < %s)" (to_c a) (to_c b)
  | Ifnz (c, a, b) ->
    (* no ternary in CSmall: use arithmetic selection via a helper *)
    Printf.sprintf "pick(%s, %s, %s)" (to_c c) (to_c a) (to_c b)

(* Size bound. An expression of size [n] nests [depth n] operators. The
   code generator holds at most two temporaries per enclosing operator
   (the first two arguments of a [pick] call while it evaluates the
   third) and spills every live one at a call, so the deepest expression
   of [depth] levels needs 2 * (depth - 1) spill slots. [max_depth] is
   the deepest that fits codegen's first-try frame of [spill_slots]; a
   function that needs more is compiled again with a larger spill area.
   [gen_tree] draws sizes up to [max_size], three levels deeper, and
   [deep_pick] reaches past the first-try frame on purpose. *)
let rec depth n = if n <= 0 then 0 else 1 + depth (n / 2)
let max_depth = (Cheri_cc.Codegen.spill_slots / 2) + 1
let max_size = (1 lsl (max_depth + 3)) - 1
let () = assert (depth max_size = max_depth + 3)

let gen_tree =
  let open QCheck.Gen in
  fix (fun self n ->
      if n <= 0 then map (fun v -> Num v) (int_range (-1000) 1000)
      else
        let sub = self (n / 2) in
        oneof
          [ map (fun v -> Num v) (int_range (-1000) 1000);
            map2 (fun a b -> Add (a, b)) sub sub;
            map2 (fun a b -> Sub (a, b)) sub sub;
            map2 (fun a b -> Mul (a, b)) sub sub;
            map2 (fun a b -> And (a, b)) sub sub;
            map2 (fun a b -> Or (a, b)) sub sub;
            map2 (fun a b -> Xor (a, b)) sub sub;
            map2 (fun a b -> Shl (a, b)) sub sub;
            map2 (fun a b -> Lt (a, b)) sub sub;
            map3 (fun c a b -> Ifnz (c, a, b)) sub sub sub ])

(* [d] nested [pick]s, each in the third argument of the one above, with
   [bottom] in the innermost one, for a depth [d] drawn between
   [max_depth] and [3 * max_depth]: the shape that spills most, so almost
   every such draw needs codegen's spill-area retry. The selectors and
   first arguments are leaves. *)
let deep_pick bottom =
  let open QCheck.Gen in
  let rec nest d =
    if d = 0 then bottom
    else
      map3 (fun c a b -> Ifnz (c, a, b))
        (map (fun v -> Num v) (int_range (-1) 1))
        (map (fun v -> Num v) (int_range (-1000) 1000))
        (nest (d - 1))
  in
  int_range max_depth (3 * max_depth) >>= nest

(* One draw in four is a deep pick nest over a random tree. *)
let gen_expr =
  let open QCheck.Gen in
  sized_size (int_bound max_size) (fun n ->
      frequency [ (3, gen_tree n); (1, deep_pick (gen_tree (n / 2))) ])

let arb_expr = QCheck.make ~print:to_c (QCheck.Gen.(gen_expr >>= fun e -> return e))

let run_expr ?(engine = Cheri_isa.Cpu.Chain) ~abi e =
  let src =
    Printf.sprintf
      {| int pick(int c, int a, int b) { if (c) return a; return b; }
         int main(int argc, char **argv) {
           print_int(%s);
           return 0;
         } |}
      (to_c e)
  in
  let k = Cheri_libc.Runtime.boot ~mem_size:(8 * 1024 * 1024) ~engine () in
  Cheri_cc.Compile.install k ~path:"/bin/e" ~abi src;
  let status, out, _ =
    Cheri_kernel.Kernel.run_program ~max_steps:1_000_000 k ~path:"/bin/e"
      ~argv:[ "e" ]
  in
  match status with
  | Some (Cheri_kernel.Proc.Exited 0) -> int_of_string (String.trim out)
  | _ -> failwith "expression program failed"

let qcheck_differential =
  [ QCheck.Test.make ~name:"compiled expressions match the reference, all ABIs"
      ~count:20 arb_expr
      (fun e ->
        (* Mul can overflow 63-bit ints differently than C's 64-bit; our
           reference uses OCaml ints like the simulator, so values agree. *)
        let expect = eval_ref e in
        run_expr ~abi:Abi.Mips64 e = expect
        && run_expr ~abi:Abi.Cheriabi e = expect
        && run_expr ~abi:Abi.Asan e = expect) ]

(* The most register-hungry shape: [d] nested [pick]s, each nested in the
   third argument. At [max_depth] it fits the first-try spill area; at
   [3 * max_depth] (52 spill slots) it compiles only through the retry
   with a larger area, and must still evaluate correctly under both
   engines. *)
let test_expr_at_spill_bound () =
  let rec chain d = if d = 0 then Num 3 else Ifnz (Num 1, Num 2, chain (d - 1)) in
  let rec nest d = if d = 0 then Num 3 else Ifnz (Num 0, Num 2, nest (d - 1)) in
  List.iter
    (fun e ->
      List.iter
        (fun (abi, engine) ->
          Alcotest.(check int)
            (Printf.sprintf "%s, %s, %s" (to_c e) (Abi.to_string abi)
               (if engine = Cheri_isa.Cpu.Step then "step" else "chain"))
            (eval_ref e) (run_expr ~engine ~abi e))
        [ Abi.Mips64, Cheri_isa.Cpu.Chain; Abi.Cheriabi, Cheri_isa.Cpu.Chain;
          Abi.Asan, Cheri_isa.Cpu.Chain; Abi.Mips64, Cheri_isa.Cpu.Step;
          Abi.Cheriabi, Cheri_isa.Cpu.Step ])
    [ chain max_depth; nest max_depth;
      chain (3 * max_depth); nest (3 * max_depth) ]

(* --- Benchmarks ----------------------------------------------------------------------- *)

let test_benchmark_outputs_agree () =
  (* Spot-check three kernels: identical output and sane overhead. *)
  List.iter
    (fun name ->
      let src = Option.get (Mibench.find name) in
      let c = Harness.compare_abis ~name src in
      Alcotest.(check bool)
        (name ^ " cycle overhead within +-15%")
        true
        (abs_float c.Harness.c_cycle_pct < 15.0))
    [ "security-sha"; "auto-qsort"; "spec2006-xalancbmk" ]

let test_initdb_all_abis () =
  let base = Minipg.run ~abi:Abi.Mips64 () in
  let cheri = Minipg.run ~abi:Abi.Cheriabi () in
  let asan = Minipg.run ~abi:Abi.Asan () in
  Alcotest.(check bool) "mips64 ok" true (Harness.ok base);
  Alcotest.(check bool) "cheriabi ok" true (Harness.ok cheri);
  Alcotest.(check bool) "asan ok" true (Harness.ok asan);
  Alcotest.(check string) "same output" base.Harness.m_output
    cheri.Harness.m_output;
  Alcotest.(check bool) "cheriabi costs more cycles" true
    (cheri.Harness.m_cycles > base.Harness.m_cycles);
  Alcotest.(check bool) "asan costs much more" true
    (float_of_int asan.Harness.m_cycles
     > 1.3 *. float_of_int base.Harness.m_cycles)

let test_clc_ablation_direction () =
  let big = Minipg.run ~abi:Abi.Cheriabi () in
  let small =
    Minipg.run
      ~opts:{ (Cheri_cc.Compile.default_options Abi.Cheriabi) with clc_large_imm = false }
      ~abi:Abi.Cheriabi ()
  in
  Alcotest.(check bool) "small imm slower" true
    (small.Harness.m_cycles > big.Harness.m_cycles);
  Alcotest.(check bool) "small imm bigger code" true
    (small.Harness.m_code_bytes > big.Harness.m_code_bytes)

(* --- BOdiagsuite (sampled: every 13th test, all variants, all ABIs) --------------------- *)

let test_bodiag_sample_invariants () =
  let sample =
    List.filteri (fun i _ -> i mod 13 = 0) Bodiag.tests
  in
  List.iter
    (fun t ->
      (* ok variants pass everywhere *)
      List.iter
        (fun abi ->
          match Bodiag.run_one ~abi t Bodiag.Vok with
          | Bodiag.Missed -> ()
          | Bodiag.Detected d ->
            Alcotest.failf "test %d ok spuriously detected (%s, %s)"
              t.Bodiag.t_id d (Abi.to_string abi)
          | Bodiag.Error e -> Alcotest.failf "test %d ok error: %s" t.Bodiag.t_id e)
        [ Abi.Mips64; Abi.Cheriabi; Abi.Asan ];
      (* cheriabi catches every large variant *)
      match Bodiag.run_one ~abi:Abi.Cheriabi t Bodiag.Vlarge with
      | Bodiag.Detected _ -> ()
      | Bodiag.Missed ->
        Alcotest.failf "cheriabi missed large variant of %d" t.Bodiag.t_id
      | Bodiag.Error e -> Alcotest.failf "large error: %s" e)
    sample

let test_bodiag_intra_object_semantics () =
  (* The documented CheriABI blind spot. *)
  let intra =
    List.find
      (fun t -> t.Bodiag.t_family = Bodiag.Fintra false)
      Bodiag.tests
  in
  (match Bodiag.run_one ~abi:Abi.Cheriabi intra Bodiag.Vmin with
   | Bodiag.Missed -> ()
   | _ -> Alcotest.fail "intra-object min should be missed");
  match Bodiag.run_one ~abi:Abi.Cheriabi intra Bodiag.Vmed with
  | Bodiag.Detected _ -> ()
  | _ -> Alcotest.fail "shallow intra-object med should be caught"

(* --- Table 1 suites ----------------------------------------------------------------------- *)

let test_suites_shape () =
  let sys_m = Testsuite.run_system_suite ~abi:Abi.Mips64 in
  Alcotest.(check int) "mips64 system all pass" 0 sys_m.Testsuite.failed;
  let sys_c = Testsuite.run_system_suite ~abi:Abi.Cheriabi in
  Alcotest.(check int) "cheriabi system fails the 4 idiom tests" 4
    sys_c.Testsuite.failed;
  Alcotest.(check int) "cheriabi skips sbrk" 1 sys_c.Testsuite.skipped;
  let pg_c = Testsuite.run_pg_suite ~abi:Abi.Cheriabi in
  Alcotest.(check int) "postgres cheriabi fails 2" 2 pg_c.Testsuite.failed;
  let xx_c = Testsuite.run_xx_suite ~abi:Abi.Cheriabi in
  Alcotest.(check int) "libc++-like cheriabi fails 5 (atomics)" 5
    xx_c.Testsuite.failed

(* --- Figure 5 / syscall benches -------------------------------------------------------------- *)

let test_openssl_trace_properties () =
  let status, _, events = Openssl_sim.run_traced () in
  Alcotest.(check bool) "exchange succeeded" true
    (status = Some (Cheri_kernel.Proc.Exited 0));
  let module G = Cheri_core.Granularity in
  let regions =
    G.regions_of_trace ~stack_range:Openssl_sim.stack_range events
  in
  let es = G.entries regions events in
  let s = G.summarize es in
  Alcotest.(check bool) "hundreds of capabilities" true (s.G.s_total > 100);
  Alcotest.(check bool) "mostly small" true (s.G.s_pct_under_1k > 80.0);
  Alcotest.(check bool) "none over 16MiB" true s.G.s_largest_under_16m;
  (* The audit: everything in the trace derives from a user root. *)
  let root =
    Cheri_cap.Cap.make_root ~base:Cheri_vm.Addr_space.user_base_default
      ~top:Cheri_vm.Addr_space.user_top_default ()
  in
  Alcotest.(check int) "abstract-capability audit clean" 0
    (List.length (Cheri_core.Abstract_cap.audit ~principal:1 ~root events));
  (* The Fig. 5 census: which kernel path granted each root capability,
     and how many the server derived from them. *)
  let module Trace = Cheri_isa.Trace in
  let count p = List.length (List.filter p events) in
  let grants o =
    count (function Trace.Grant { origin; _ } -> origin = o | _ -> false)
  in
  List.iter
    (fun (o, n) ->
      Alcotest.(check int) (Trace.origin_name o ^ " grants") n (grants o))
    [ Trace.Malloc, 30; Trace.Rtld, 18; Trace.Exec, 9; Trace.Syscall, 1;
      Trace.Signal, 0; Trace.Ptrace, 0; Trace.Swap, 0 ];
  Alcotest.(check int) "grants" 58
    (count (function Trace.Grant _ -> true | _ -> false));
  Alcotest.(check int) "derivations" 431
    (count (function Trace.Derive _ -> true | _ -> false));
  Alcotest.(check int) "events" 489 (List.length events)

let test_sysbench_shape () =
  let rs = Sysbench.run_all () in
  let get n = (List.find (fun r -> r.Sysbench.r_name = n) rs).Sysbench.r_pct in
  Alcotest.(check bool) "fork slower under cheriabi" true (get "fork" > 0.0);
  Alcotest.(check bool) "select faster under cheriabi" true
    (get "select" < 0.0);
  Alcotest.(check bool) "getpid small" true (abs_float (get "getpid") < 10.0)

let test_bug_census () =
  List.iter
    (fun v ->
      Alcotest.(check bool) (v.Bugs.v_name ^ " detected by cheriabi") true
        v.Bugs.v_detected_by_cheri;
      Alcotest.(check string) (v.Bugs.v_name ^ " silent on mips64") "silent"
        v.Bugs.v_mips64)
    (Bugs.run_all ())

let test_overhead_pct_zero_base () =
  Alcotest.(check bool) "zero baseline yields nan, not 0%%" true
    (Float.is_nan (Harness.overhead_pct ~base:0 5));
  Alcotest.(check bool) "zero/zero is also nan" true
    (Float.is_nan (Harness.overhead_pct ~base:0 0));
  Alcotest.(check (float 1e-9)) "live baseline unchanged" 50.0
    (Harness.overhead_pct ~base:100 150)

let suite =
  [ "benchmark outputs agree", `Slow, test_benchmark_outputs_agree;
    "initdb all ABIs", `Slow, test_initdb_all_abis;
    "CLC ablation direction", `Slow, test_clc_ablation_direction;
    "bodiag sample invariants", `Slow, test_bodiag_sample_invariants;
    "bodiag intra-object semantics", `Quick, test_bodiag_intra_object_semantics;
    "table-1 suite shape", `Slow, test_suites_shape;
    "openssl trace properties", `Quick, test_openssl_trace_properties;
    "sysbench shape", `Slow, test_sysbench_shape;
    "bug census", `Quick, test_bug_census;
    "overhead_pct zero baseline", `Quick, test_overhead_pct_zero_base;
    "expression at the spill-slot bound", `Quick, test_expr_at_spill_bound ]
  (* A pinned seed: the same twenty expressions on every run. *)
  @ List.map
      (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20 |]))
      qcheck_differential

(* --- Cache study direction --------------------------------------------------------------- *)

let test_cache_study_direction () =
  (* With a tiny L2 the pointer-size footprint difference must show up as
     more CheriABI L2 misses; and the cheriabi miss count must shrink as
     the L2 grows. *)
  let rows =
    Harness.cache_study ~name:"patricia" ~l2_sizes:[ 64; 512 ]
      (Option.get (Mibench.find "network-patricia"))
  in
  match rows with
  | [ (_, _, base_small, cheri_small); (_, _, _, cheri_big) ] ->
    Alcotest.(check bool) "cheri misses more at small L2" true
      (cheri_small > base_small);
    Alcotest.(check bool) "bigger L2 helps cheri" true
      (cheri_big < cheri_small)
  | _ -> Alcotest.fail "unexpected row count"

let cache_suite =
  [ "cache study direction", `Slow, test_cache_study_direction ]
