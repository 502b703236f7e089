(* Ground-truth validation of the capability provenance lint.

   Every diagnostic class pairs a buggy program with a clean variant:
   the buggy one must BOTH flag statically AND trap (SIGPROT) when run
   under the cheriabi ABI; the clean one must produce no diagnostics and
   exit 0. The suite then computes precision/recall of "lint flags the
   class" against "program traps" over the whole corpus — the numbers
   recorded in EXPERIMENTS.md. *)

module Lint = Cheri_analysis.Lint
module Abi = Cheri_core.Abi
module Kernel = Cheri_kernel.Kernel
module Proc = Cheri_kernel.Proc
module Signo = Cheri_kernel.Signo
module Compile = Cheri_cc.Compile
module Runtime = Cheri_libc.Runtime

(* --- Static side -------------------------------------------------------------------- *)

let lint src =
  match Lint.analyze_source src with
  | Ok diags -> diags
  | Error msg -> Alcotest.failf "lint failed to analyze: %s" msg

let flags_cat cat diags = List.exists (fun d -> d.Lint.d_cat = cat) diags

(* --- Dynamic side ------------------------------------------------------------------- *)

type outcome = Trapped | Ran of int

let run_cheriabi ?(subobject = false) src =
  let k = Runtime.boot () in
  let opts =
    { (Compile.default_options Abi.Cheriabi) with subobject_bounds = subobject }
  in
  Compile.install k ~path:"/bin/t" ~abi:Abi.Cheriabi ~opts src;
  let status, out, _ = Kernel.run_program k ~path:"/bin/t" ~argv:[ "t" ] in
  match status with
  | Some (Proc.Signaled s) when s = Signo.sigprot -> Trapped
  | Some (Proc.Signaled s) ->
    Alcotest.failf "killed by %s, expected SIGPROT or exit (out=%S)"
      (Signo.name s) out
  | Some (Proc.Exited c) -> Ran c
  | None -> Alcotest.fail "did not terminate"

(* --- The corpus: one (buggy, clean) pair per diagnostic class ----------------------- *)

type case = {
  c_name : string;
  c_cat : Lint.category;
  c_buggy : bool;          (* expect: flag + trap when true, clean + exit 0 *)
  c_subobject : bool;      (* run with subobject bounds (container_of case) *)
  c_src : string;
}

let case ?(subobject = false) ~buggy name cat src =
  { c_name = name; c_cat = cat; c_buggy = buggy; c_subobject = subobject;
    c_src = src }

let corpus =
  [ (* IP: a pointer conjured from a plain integer. *)
    case ~buggy:true "ip_conjured" Lint.IP
      {|
        int main(int argc, char **argv) {
          int addr = 4096;
          char *p = (char *)addr;
          return *p;
        }
      |};
    case ~buggy:false "ip_clean" Lint.IP
      {|
        int main(int argc, char **argv) {
          char *p = (char *)malloc(8);
          p[0] = 42;
          return p[0] - 42;
        }
      |};
    (* VA: pointer round-tripped through an integer. *)
    case ~buggy:true "va_roundtrip" Lint.VA
      {|
        int main(int argc, char **argv) {
          char buf[16];
          buf[0] = 7;
          char *p = buf;
          int addr = (int)p;
          char *q = (char *)addr;
          return *q;
        }
      |};
    case ~buggy:false "va_clean" Lint.VA
      {|
        int main(int argc, char **argv) {
          char buf[16];
          buf[0] = 7;
          char *p = buf;
          char *q = p;
          return *q - 7;
        }
      |};
    (* I: sentinel integer constant used as a pointer. *)
    case ~buggy:true "i_sentinel" Lint.I
      {|
        int main(int argc, char **argv) {
          char *end = (char *)-1;
          return *end;
        }
      |};
    case ~buggy:false "i_clean" Lint.I
      {|
        int main(int argc, char **argv) {
          char *p = (char *)0;
          if (p == 0) return 0;
          return 1;
        }
      |};
    (* BF: flag bit stashed in a pointer's low bits. *)
    case ~buggy:true "bf_lowbit" Lint.BF
      {|
        int main(int argc, char **argv) {
          char buf[16];
          buf[0] = 9;
          char *p = buf;
          char *flagged = (char *)((int)p | 1);
          return *flagged;
        }
      |};
    case ~buggy:false "bf_clean" Lint.BF
      {|
        int main(int argc, char **argv) {
          char buf[16];
          buf[0] = 9;
          char *p = buf;
          int flags = 0;
          flags = flags | 3;
          return *p - 9 + flags - 3;
        }
      |};
    (* H: pointer address hashed into a bucket, then reused as a pointer. *)
    case ~buggy:true "h_bucket" Lint.H
      {|
        int main(int argc, char **argv) {
          char buf[64];
          char *p = buf;
          int bucket = ((int)p >> 3) % 8;
          char *q = (char *)((int)p >> 3);
          return *q + bucket;
        }
      |};
    case ~buggy:false "h_clean" Lint.H
      {|
        int main(int argc, char **argv) {
          int h = 5381;
          int i = 0;
          while (i < 4) { h = ((h << 5) + h + i) % 65536; i = i + 1; }
          return (h % 7) * 0;
        }
      |};
    (* A: aligning a pointer by integer mask arithmetic. *)
    case ~buggy:true "a_mask" Lint.A
      {|
        int main(int argc, char **argv) {
          char buf[32];
          char *p = buf;
          char *al = (char *)(((int)p + 15) & -16);
          return *al;
        }
      |};
    case ~buggy:false "a_clean" Lint.A
      {|
        int main(int argc, char **argv) {
          char buf[32];
          buf[0] = 3;
          char *p = buf;
          char *q = p + 0;
          return *q - 3;
        }
      |};
    (* M: constant out-of-bounds index. *)
    case ~buggy:true "m_oob" Lint.M
      {|
        int main(int argc, char **argv) {
          int a[4];
          a[1] = 5;
          return a[5];
        }
      |};
    case ~buggy:false "m_clean" Lint.M
      {|
        int main(int argc, char **argv) {
          int a[4];
          a[3] = 0;
          return a[3];
        }
      |};
    (* M: container_of widening, caught dynamically by subobject bounds. *)
    case ~buggy:true ~subobject:true "m_container" Lint.M
      {|
        struct pair { int a; int b; };
        int main(int argc, char **argv) {
          struct pair s;
          s.a = 11;
          s.b = 22;
          int *bp = &s.b;
          struct pair *sp = (struct pair *)((char *)bp - 8);
          return sp->a;
        }
      |};
    case ~buggy:false ~subobject:true "m_container_clean" Lint.M
      {|
        struct pair { int a; int b; };
        int main(int argc, char **argv) {
          struct pair s;
          s.a = 11;
          s.b = 22;
          struct pair *sp = &s;
          return sp->a - 11;
        }
      |};
    (* PS: copying half of a capability's bytes loses the tag. *)
    case ~buggy:true "ps_halfcopy" Lint.PS
      {|
        int main(int argc, char **argv) {
          char buf[16];
          buf[0] = 5;
          char *p = buf;
          char *dst;
          memcpy((char *)&dst, (char *)&p, 8);
          return *dst;
        }
      |};
    case ~buggy:false "ps_clean" Lint.PS
      {|
        int main(int argc, char **argv) {
          char buf[16];
          buf[0] = 5;
          char *p = buf;
          char *dst;
          memcpy((char *)&dst, (char *)&p, sizeof(char *));
          return *dst - 5;
        }
      |};
    (* PP: a local's address escapes through the return value. *)
    case ~buggy:true "pp_escape" Lint.PP
      {|
        int *leak(int n) {
          int x[2];
          x[0] = n;
          return x;
        }
        int main(int argc, char **argv) {
          int *p = leak(3);
          return p[9];
        }
      |};
    case ~buggy:false "pp_clean" Lint.PP
      {|
        int g_cell[2];
        int *cell(int n) {
          g_cell[0] = n;
          return g_cell;
        }
        int main(int argc, char **argv) {
          int *p = cell(3);
          return p[0] - 3;
        }
      |};
    (* CC: indirect call through a pointer nobody type-checked. *)
    case ~buggy:true "cc_untyped" Lint.CC
      {|
        int main(int argc, char **argv) {
          int x = 7;
          int *fp = (int *)x;
          return fp(1, 2);
        }
      |};
    case ~buggy:false "cc_clean" Lint.CC
      {|
        int add2(int a, int b) { return a + b; }
        int main(int argc, char **argv) {
          return add2(3, -3);
        }
      |};
  ]

(* --- Per-pair checks ---------------------------------------------------------------- *)

let check_case c () =
  let diags = lint c.c_src in
  if c.c_buggy then begin
    if not (flags_cat c.c_cat diags) then
      Alcotest.failf "%s: expected a [%s] diagnostic, got: %s" c.c_name
        (Lint.cat_name c.c_cat)
        (String.concat "; " (List.map Lint.pp_diag diags));
    match run_cheriabi ~subobject:c.c_subobject c.c_src with
    | Trapped -> ()
    | Ran code ->
      Alcotest.failf "%s: expected SIGPROT under cheriabi, exited %d" c.c_name
        code
  end
  else begin
    (match diags with
     | [] -> ()
     | ds ->
       Alcotest.failf "%s: clean variant produced diagnostics: %s" c.c_name
         (String.concat "; " (List.map Lint.pp_diag ds)));
    match run_cheriabi ~subobject:c.c_subobject c.c_src with
    | Ran 0 -> ()
    | Ran code -> Alcotest.failf "%s: clean variant exited %d" c.c_name code
    | Trapped -> Alcotest.failf "%s: clean variant trapped" c.c_name
  end

(* --- Precision / recall over the whole corpus --------------------------------------- *)

(* Prediction: the lint emits any diagnostic. Ground truth: the program
   traps under cheriabi. Over this corpus both must be perfect — every
   flagged program traps and every trapping program is flagged. *)
let test_precision_recall () =
  let tp = ref 0 and fp = ref 0 and fn = ref 0 and tn = ref 0 in
  List.iter
    (fun c ->
      let flagged = lint c.c_src <> [] in
      let trapped =
        match run_cheriabi ~subobject:c.c_subobject c.c_src with
        | Trapped -> true
        | Ran _ -> false
      in
      match flagged, trapped with
      | true, true -> incr tp
      | true, false -> incr fp
      | false, true -> incr fn
      | false, false -> incr tn)
    corpus;
  let precision = float_of_int !tp /. float_of_int (!tp + !fp) in
  let recall = float_of_int !tp /. float_of_int (!tp + !fn) in
  Printf.printf
    "lint ground truth: TP=%d FP=%d FN=%d TN=%d precision=%.2f recall=%.2f\n"
    !tp !fp !fn !tn precision recall;
  Alcotest.(check int) "corpus size" (List.length corpus) (!tp + !fp + !fn + !tn);
  Alcotest.(check (float 0.001)) "precision" 1.0 precision;
  Alcotest.(check (float 0.001)) "recall" 1.0 recall

(* --- Static-only checks ------------------------------------------------------------- *)

(* The struct-shape scan has no trap counterpart (it fires on layout
   assumptions, not executions): check it statically. *)
let test_struct_align_scan () =
  let diags =
    lint
      {|
        struct node { char tag; char *next; };
        int main(int argc, char **argv) {
          struct node n;
          n.tag = 1;
          return 0;
        }
      |}
  in
  match List.filter (fun d -> d.Lint.d_cat = Lint.A) diags with
  | [ d ] ->
    Alcotest.(check int) "unit-level diagnostic" 0 d.Lint.d_line;
    Alcotest.(check string) "scope" "<unit>" d.Lint.d_fun
  | ds -> Alcotest.failf "expected exactly one [A], got %d" (List.length ds)

(* Diagnostics carry source line numbers (satellite: located AST). *)
let test_diag_lines () =
  let diags =
    lint
      {|
        int main(int argc, char **argv) {
          char buf[16];
          char *p = buf;
          int addr = (int)p;
          char *q = (char *)addr;
          return *q;
        }
      |}
  in
  let line_of cat =
    match List.find_opt (fun d -> d.Lint.d_cat = cat) diags with
    | Some d -> d.Lint.d_line
    | None -> Alcotest.failf "missing [%s]" (Lint.cat_name cat)
  in
  Alcotest.(check int) "VA on the cast line" 6 (line_of Lint.VA);
  Alcotest.(check int) "IP on the deref line" 7 (line_of Lint.IP)

(* Loop bodies reach a fixpoint without duplicating diagnostics. *)
let test_loop_fixpoint () =
  let diags =
    lint
      {|
        int main(int argc, char **argv) {
          char buf[16];
          char *p = buf;
          int i = 0;
          while (i < 4) {
            p = (char *)((int)p | 1);
            i = i + 1;
          }
          return 0;
        }
      |}
  in
  let bf = List.filter (fun d -> d.Lint.d_cat = Lint.BF) diags in
  Alcotest.(check int) "one BF despite re-analysis" 1 (List.length bf)

(* The compile-time diagnostics hook: Compile.compile_source calls back
   with the typed unit between Sema and Codegen. *)
let test_compile_hook () =
  let got = ref [] in
  ignore
    (Compile.compile_source ~name:"t"
       ~opts:(Compile.default_options Abi.Cheriabi)
       ~diagnostics:(fun tu -> got := Lint.check_unit tu)
       "int main(int argc, char **argv) { char *p = (char *)4096; return *p; }");
  match !got with
  | [] -> Alcotest.fail "diagnostics hook saw no findings"
  | d :: _ -> Alcotest.(check string) "category" "I" (Lint.cat_name d.Lint.d_cat)

(* The whole workload corpus is typeable by the semantic analyzer: the
   compat matrix for own sources never needs the regex fallback. *)
let test_corpus_semantic () =
  List.iter
    (fun (group, files) ->
      List.iter
        (fun (name, src) ->
          match Cheri_workloads.Compat.analyze_semantic src with
          | Some _ -> ()
          | None ->
            Alcotest.failf "%s/%s: not typeable by the semantic analyzer"
              group name)
        files)
    (Cheri_workloads.Compat.own_sources ())

let suite =
  List.map
    (fun c ->
      Alcotest.test_case
        (Printf.sprintf "%s[%s]" c.c_name (Lint.cat_name c.c_cat))
        `Quick (check_case c))
    corpus
  @ [ Alcotest.test_case "precision_recall" `Quick test_precision_recall;
      Alcotest.test_case "struct_align_scan" `Quick test_struct_align_scan;
      Alcotest.test_case "diag_lines" `Quick test_diag_lines;
      Alcotest.test_case "loop_fixpoint" `Quick test_loop_fixpoint;
      Alcotest.test_case "compile_hook" `Quick test_compile_hook;
      Alcotest.test_case "corpus_semantic" `Quick test_corpus_semantic ]
