(* cheri_verify: run the machine-level capability abstract interpreter
   (lib/analysis/absint.ml) over compiled CSmall images and print a
   deterministic report.

     dune exec bin/cheri_verify.exe -- prog.c other.c
     dune exec bin/cheri_verify.exe -- --corpus
     dune exec bin/cheri_verify.exe -- --abi mips64 prog.c

   Each source is compiled and linked exactly as execve would place it,
   then verified: the report lists every statically provable capability
   violation (located by pc, instruction, block and function) plus the
   flow pass's coverage: how many of the distinct capability-check pcs it
   reached it proves cannot fail. With --corpus the embedded workload
   sources are verified as well. The output is stable across runs and is
   diffed against a checked-in baseline by the @verify alias.
   --min-elide P fails the run (exit 3) when total coverage falls below P
   percent; a bad argument (P not a number in [0, 100] among them) or an
   unreadable file exits 2. *)

module Abi = Cheri_core.Abi
module Rtld = Cheri_rtld.Rtld
module Absint = Cheri_analysis.Absint
module Compat = Cheri_workloads.Compat
module Stdlib_src = Cheri_workloads.Stdlib_src
module Harness = Cheri_workloads.Harness

type totals = {
  mutable t_must : int;
  mutable t_warn : int;
  mutable t_sites : int;
  mutable t_elided : int;
}

let totals = { t_must = 0; t_warn = 0; t_sites = 0; t_elided = 0 }

let pct n d = if d = 0 then 0. else 100. *. float n /. float d

(* Verify one named source under [abi]: print diagnostics and coverage,
   accumulate totals. Every image links the libc shared object, except
   libc's own source, which is built alone (linking it against itself
   would define each of its symbols twice). *)
let verify_named ~abi name src =
  Printf.printf "== %s [%s] ==\n" name (Abi.to_string abi);
  match
    let image =
      if String.equal src Stdlib_src.libc_src then
        Cheri_cc.Compile.build_image ~abi ~name src
      else Stdlib_src.build_image ~abi ~name src
    in
    Rtld.link ~abi image
  with
  | exception Cheri_cc.Ast.Compile_error msg ->
    Printf.printf "  (not compilable: %s)\n" msg
  | exception Rtld.Link_error msg ->
    Printf.printf "  (not linkable: %s)\n" msg
  | link ->
    let r = Harness.verify_image ~abi link in
    if r.Absint.r_diags = [] then Printf.printf "  (clean)\n"
    else
      List.iter
        (fun d -> Printf.printf "  %s\n" (Absint.pp_diag d))
        r.Absint.r_diags;
    let must, warn =
      List.fold_left
        (fun (m, w) (d : Absint.diag) ->
          match d.Absint.g_sev with
          | Absint.Must -> (m + 1, w)
          | Absint.Warn -> (m, w + 1))
        (0, 0) r.Absint.r_diags
    in
    Printf.printf
      "  funcs %d, blocks %d, %d summary iterations; %d of %d checks \
       provable (%.1f%%)\n"
      r.Absint.r_funcs r.Absint.r_blocks r.Absint.r_iters
      r.Absint.r_flow_elided r.Absint.r_flow_sites
      (pct r.Absint.r_flow_elided r.Absint.r_flow_sites);
    totals.t_must <- totals.t_must + must;
    totals.t_warn <- totals.t_warn + warn;
    totals.t_sites <- totals.t_sites + r.Absint.r_flow_sites;
    totals.t_elided <- totals.t_elided + r.Absint.r_flow_elided

(* A bad argument is a usage error: one line on stderr, exit 2. *)
let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("cheri_verify: " ^ msg);
      exit 2)
    fmt

let () =
  let corpus = ref false and abi = ref Abi.Cheriabi in
  (* Coverage-regression gate (@verify): exit 3 when the share of check
     pcs the flow pass discharges, over all verified images, falls below
     this floor, so an analysis regression fails the build even before
     the baseline diff localizes it. *)
  let min_elide = ref None in
  let rec parse = function
    | [] -> []
    | "--corpus" :: rest -> corpus := true; parse rest
    | "--abi" :: v :: rest ->
      (abi :=
         match v with
         | "mips64" -> Abi.Mips64
         | "cheriabi" -> Abi.Cheriabi
         | "asan" -> Abi.Asan
         | _ -> usage_error "unknown ABI %S (mips64, cheriabi or asan)" v);
      parse rest
    | "--min-elide" :: v :: rest ->
      (match float_of_string_opt v with
       | Some f when Float.is_finite f && f >= 0. && f <= 100. ->
         min_elide := Some f
       | _ ->
         usage_error "--min-elide takes a percentage in [0, 100], not %S" v);
      parse rest
    | [ ("--abi" | "--min-elide") as flag ] ->
      usage_error "%s needs a value" flag
    | f :: _ when String.length f > 1 && f.[0] = '-' ->
      usage_error "unknown option %S" f
    | f :: rest -> f :: parse rest
  in
  let files = parse (List.tl (Array.to_list Sys.argv)) in
  let corpus = !corpus and abi = !abi and min_elide = !min_elide in
  let sources =
    List.map
      (fun f ->
        match Cheri_cc.Compile.read_source f with
        | Ok src -> (f, src)
        | Error msg -> usage_error "%s" msg)
      files
  in
  List.iter (fun (f, src) -> verify_named ~abi f src) sources;
  if corpus then
    List.iter
      (fun (group, sources) ->
        List.iter
          (fun (name, src) -> verify_named ~abi (group ^ " / " ^ name) src)
          sources)
      (Compat.own_sources ());
  let coverage = pct totals.t_elided totals.t_sites in
  Printf.printf
    "\n== totals ==\nmust-trap %d, may-trap %d; %d of %d checks provable \
     (%.1f%%)\n"
    totals.t_must totals.t_warn totals.t_elided totals.t_sites coverage;
  match min_elide with
  | Some floor when coverage < floor ->
    Printf.eprintf
      "cheri_verify: check coverage %.1f%% fell below the recorded floor \
       %.1f%%\n"
      coverage floor;
    exit 3
  | _ -> ()
