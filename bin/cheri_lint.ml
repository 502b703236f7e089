(* cheri_lint: run the capability provenance lint (lib/analysis) over
   CSmall sources and print a deterministic report.

     dune exec bin/cheri_lint.exe -- prog.c other.c
     dune exec bin/cheri_lint.exe -- --corpus

   With --corpus the embedded workload sources (the same groups Table 2
   reports on) are linted as well. The output is stable across runs and
   is diffed against a checked-in baseline by the @lint alias. *)

module Lint = Cheri_analysis.Lint
module Compat = Cheri_workloads.Compat
module Stdlib_src = Cheri_workloads.Stdlib_src

let zero = List.map (fun c -> c, 0) Lint.categories

let add_counts a b =
  List.map2 (fun (c1, n1) (c2, n2) -> assert (c1 = c2); c1, n1 + n2) a b

(* Lint one named source: print its diagnostics, return per-category
   counts (zero when the source is not typeable CSmall). Sources that
   reference libc get the prototypes prepended on a second attempt. *)
let lint_named name src =
  Printf.printf "== %s ==\n" name;
  let result =
    match Lint.analyze_source src with
    | Ok diags -> Ok diags
    | Error _ ->
      Lint.analyze_source ~externs:Stdlib_src.libc_externs src
  in
  match result with
  | Error msg ->
    Printf.printf "  (not typeable CSmall: %s)\n" msg;
    zero
  | Ok [] ->
    Printf.printf "  (clean)\n";
    zero
  | Ok diags ->
    List.iter (fun d -> Printf.printf "  %s\n" (Lint.pp_diag d)) diags;
    Lint.count_by_category diags

let print_counts label counts =
  Printf.printf "%-16s" label;
  List.iter (fun (_, n) -> Printf.printf "%4d" n) counts;
  print_newline ()

(* A bad argument is a usage error: one line on stderr, exit 2. *)
let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("cheri_lint: " ^ msg);
      exit 2)
    fmt

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let corpus = List.mem "--corpus" args in
  let files = List.filter (fun a -> a <> "--corpus") args in
  let sources =
    List.map
      (fun f ->
        if String.length f > 1 && f.[0] = '-' then
          usage_error "unknown option %S" f;
        match Cheri_cc.Compile.read_source f with
        | Ok src -> (f, src)
        | Error msg -> usage_error "%s" msg)
      files
  in
  let file_total =
    List.fold_left
      (fun acc (f, src) -> add_counts acc (lint_named f src))
      zero sources
  in
  let group_totals =
    if not corpus then []
    else
      List.map
        (fun (group, sources) ->
          ( group,
            List.fold_left
              (fun acc (name, src) ->
                add_counts acc (lint_named (group ^ " / " ^ name) src))
              zero sources ))
        (Compat.own_sources ())
  in
  Printf.printf "\n== per-category totals ==\n%-16s" "";
  List.iter (fun c -> Printf.printf "%4s" (Lint.cat_name c)) Lint.categories;
  print_newline ();
  if files <> [] then print_counts "files" file_total;
  List.iter (fun (g, t) -> print_counts g t) group_totals;
  let all = List.fold_left (fun acc (_, t) -> add_counts acc t) file_total group_totals in
  print_counts "total" all
