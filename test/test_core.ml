(* Tests of the contribution-layer analyses: abstract capabilities, the
   trace auditor, the granularity CDF, and the compatibility analyzer. *)

module Cap = Cheri_cap.Cap
module Perms = Cheri_cap.Perms
module Trace = Cheri_isa.Trace
module A = Cheri_core.Abstract_cap
module G = Cheri_core.Granularity
module Compat = Cheri_workloads.Compat
module Lint = Cheri_analysis.Lint

let root = Cap.make_root ~base:0x10000 ~top:0x100000 ()

let sub ~base ~len ~perms =
  Cap.and_perms (Cap.set_bounds (Cap.set_addr root base) ~len) perms

(* --- Abstract capabilities -------------------------------------------------------- *)

let test_subsumes_basic () =
  let big = A.of_cap ~principal:1 root in
  let small = A.of_cap ~principal:1 (sub ~base:0x20000 ~len:256 ~perms:Perms.data) in
  Alcotest.(check bool) "root subsumes child" true (A.subsumes big small);
  Alcotest.(check bool) "child does not subsume root" false
    (A.subsumes small big)

let test_subsumes_respects_principal () =
  let a = A.of_cap ~principal:1 root in
  let b = A.of_cap ~principal:2 root in
  Alcotest.(check bool) "cross-principal incomparable" false (A.subsumes a b)

let test_subsumes_perms () =
  let rw = A.of_cap ~principal:1 (sub ~base:0x20000 ~len:64 ~perms:Perms.data) in
  let ro =
    A.of_cap ~principal:1 (sub ~base:0x20000 ~len:64 ~perms:Perms.read_only)
  in
  Alcotest.(check bool) "rw subsumes ro" true (A.subsumes rw ro);
  Alcotest.(check bool) "ro does not subsume rw" false (A.subsumes ro rw)

let test_audit_clean_trace () =
  let events =
    [ Trace.Grant { origin = Trace.Exec; result = sub ~base:0x20000 ~len:4096 ~perms:Perms.data };
      Trace.Derive
        { pc = 0; op = "csetbounds";
          result = sub ~base:0x20010 ~len:16 ~perms:Perms.data } ]
  in
  Alcotest.(check int) "no violations" 0
    (List.length (A.audit ~principal:1 ~root events))

let test_audit_flags_escape () =
  let foreign = Cap.make_root ~base:0x200000 ~top:0x300000 () in
  let events =
    [ Trace.Grant { origin = Trace.Ptrace; result = foreign } ]
  in
  Alcotest.(check int) "one violation" 1
    (List.length (A.audit ~principal:1 ~root events))

(* --- Granularity ------------------------------------------------------------------- *)

let regions =
  { G.stack_range = 0x80000, 0x90000; heap_ranges = [ 0x40000, 0x50000 ] }

let test_classification () =
  let ev_stack =
    Trace.Derive
      { pc = 0; op = "csetbounds";
        result = sub ~base:0x80100 ~len:64 ~perms:Perms.data }
  in
  let ev_heap =
    Trace.Derive
      { pc = 0; op = "csetbounds";
        result = sub ~base:0x40100 ~len:32 ~perms:Perms.data }
  in
  let ev_malloc =
    Trace.Grant { origin = Trace.Malloc; result = sub ~base:0x40200 ~len:48 ~perms:Perms.data }
  in
  let ev_rtld =
    Trace.Grant { origin = Trace.Rtld; result = sub ~base:0x20000 ~len:8 ~perms:Perms.data }
  in
  Alcotest.(check bool) "stack" true (G.classify regions ev_stack = Some G.Stack);
  Alcotest.(check bool) "heap derive -> malloc" true
    (G.classify regions ev_heap = Some G.Malloc);
  Alcotest.(check bool) "malloc grant" true
    (G.classify regions ev_malloc = Some G.Malloc);
  Alcotest.(check bool) "rtld -> glob relocs" true
    (G.classify regions ev_rtld = Some G.Glob_relocs)

let test_cdf_monotone () =
  let events =
    List.init 20 (fun i ->
        Trace.Grant
          { origin = Trace.Malloc;
            result = sub ~base:(0x40000 + (i * 512)) ~len:(16 * (i + 1))
                ~perms:Perms.data })
  in
  let es = G.entries regions events in
  let cdf = G.cdf_of es in
  Alcotest.(check int) "total" 20 cdf.G.c_total;
  let rec mono = function
    | (_, a) :: ((_, b) :: _ as rest) -> a <= b && mono rest
    | _ -> true
  in
  Alcotest.(check bool) "cumulative is monotone" true (mono cdf.G.c_points);
  let s = G.summarize es in
  Alcotest.(check int) "largest" 320 s.G.s_largest;
  Alcotest.(check bool) "all under 1k" true (s.G.s_pct_under_1k = 100.0)

let test_regions_from_trace () =
  let events =
    [ Trace.Grant
        { origin = Trace.Syscall;
          result = sub ~base:0x60000 ~len:0x10000 ~perms:Perms.data } ]
  in
  let r = G.regions_of_trace ~stack_range:(0, 1) events in
  Alcotest.(check bool) "mmap became heap" true
    (List.mem (0x60000, 0x70000) r.G.heap_ranges)

(* --- Compatibility analyzer ----------------------------------------------------------- *)

let counts_of src = Compat.analyze src

let count cat counts = List.assoc cat counts

let test_detects_alignment_idiom () =
  let c = counts_of "p = (char *)(((uintptr_t)buf + 15) & ~15);" in
  Alcotest.(check bool) "A >= 1" true (count Lint.A c >= 1)

let test_detects_bitflag_idiom () =
  let c = counts_of "l->owner = (void *)(w | 1);" in
  Alcotest.(check bool) "BF >= 1" true (count Lint.BF c >= 1)

let test_detects_sentinel () =
  let c = counts_of "if (p == MAP_FAILED || q == (void *)-1) die();" in
  Alcotest.(check bool) "I >= 2" true (count Lint.I c >= 2)

let test_detects_variadics () =
  let c = counts_of "int f(int n, ...) { va_list ap; va_start(ap, n); }" in
  Alcotest.(check bool) "CC >= 2" true (count Lint.CC c >= 2)

let test_detects_sbrk () =
  let c = counts_of "char *p = sbrk(4096);" in
  Alcotest.(check bool) "U >= 1" true (count Lint.U c >= 1)

let test_clean_code_is_clean () =
  let c = counts_of "int add(int a, int b) { return a + b; }" in
  List.iter
    (fun (cat, n) ->
      Alcotest.(check int) (Lint.cat_name cat) 0 (n * 0 + n))
    (List.filter (fun (cat, _) -> cat <> Lint.CC) c);
  ignore c

let test_corpus_shape () =
  (* Libraries must dominate, tests must be lightest — Table 2's shape. *)
  let total g =
    List.fold_left (fun a (_, n) -> a + n) 0 (Compat.analyze_group g)
  in
  let get name = total (List.assoc name Compat.corpus) in
  Alcotest.(check bool) "libraries heaviest" true
    (get "BSD libraries" > get "BSD headers"
     && get "BSD libraries" > get "BSD programs"
     && get "BSD libraries" > get "BSD tests")

let suite =
  [ "subsumes basic", `Quick, test_subsumes_basic;
    "subsumes respects principal", `Quick, test_subsumes_respects_principal;
    "subsumes perms", `Quick, test_subsumes_perms;
    "audit clean trace", `Quick, test_audit_clean_trace;
    "audit flags escape", `Quick, test_audit_flags_escape;
    "granularity classification", `Quick, test_classification;
    "cdf monotone", `Quick, test_cdf_monotone;
    "regions from trace", `Quick, test_regions_from_trace;
    "compat: alignment", `Quick, test_detects_alignment_idiom;
    "compat: bit flags", `Quick, test_detects_bitflag_idiom;
    "compat: sentinels", `Quick, test_detects_sentinel;
    "compat: variadics", `Quick, test_detects_variadics;
    "compat: sbrk", `Quick, test_detects_sbrk;
    "compat: clean code", `Quick, test_clean_code_is_clean;
    "compat: corpus shape", `Quick, test_corpus_shape ]

(* --- Provenance chains ---------------------------------------------------------------- *)

module Prov = Cheri_core.Provenance

let test_provenance_chain_depths () =
  let g = sub ~base:0x20000 ~len:4096 ~perms:Perms.data in
  let mid = sub ~base:0x20100 ~len:256 ~perms:Perms.data in
  let leaf = sub ~base:0x20110 ~len:16 ~perms:Perms.read_only in
  let events =
    [ Trace.Grant { origin = Trace.Exec; result = g };
      Trace.Derive { pc = 0; op = "csetbounds"; result = mid };
      Trace.Derive { pc = 4; op = "csetbounds"; result = leaf } ]
  in
  let f = Prov.build events in
  Alcotest.(check int) "max depth" 3 f.Prov.max_depth;
  Alcotest.(check int) "one root" 1 f.Prov.roots;
  Alcotest.(check int) "no orphans" 0 f.Prov.orphans;
  Alcotest.(check (list (pair int int))) "histogram" [ 1, 1; 2, 1; 3, 1 ]
    (Prov.depth_histogram f)

let test_provenance_picks_tightest_parent () =
  let wide = sub ~base:0x20000 ~len:4096 ~perms:Perms.data in
  let tight = sub ~base:0x20100 ~len:64 ~perms:Perms.data in
  let leaf = sub ~base:0x20110 ~len:8 ~perms:Perms.data in
  let events =
    [ Trace.Grant { origin = Trace.Exec; result = wide };
      Trace.Grant { origin = Trace.Malloc; result = tight };
      Trace.Derive { pc = 0; op = "csetbounds"; result = leaf } ]
  in
  let f = Prov.build events in
  (match f.Prov.nodes.(2).Prov.n_parent with
   | Some 1 -> ()
   | Some i -> Alcotest.failf "picked node %d, wanted the malloc parent" i
   | None -> Alcotest.fail "no parent found")

let suite =
  suite
  @ [ "provenance chain depths", `Quick, test_provenance_chain_depths;
      "provenance picks tightest parent", `Quick,
      test_provenance_picks_tightest_parent ]
