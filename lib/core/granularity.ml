(* Capability-granularity analysis (§5.5, Fig. 5).

   From an execution trace, reconstruct every capability created during
   the run, classify it by source, and compute the cumulative distribution
   of bounds sizes per source. The paper's sources: the stack capability,
   malloc, exec-time setup, global (rtld) relocations, system-call
   returns, and other kernel grants. *)

module Cap = Cheri_cap.Cap
module Trace = Cheri_isa.Trace

type source = Stack | Malloc | Exec | Glob_relocs | Syscall | Kern

let source_name = function
  | Stack -> "stack"
  | Malloc -> "malloc"
  | Exec -> "exec"
  | Glob_relocs -> "glob relocs"
  | Syscall -> "syscall"
  | Kern -> "kern"

let all_sources = [ Stack; Malloc; Exec; Glob_relocs; Syscall; Kern ]

(* Address-range classification hints for user-instruction derivations. *)
type regions = {
  stack_range : int * int;      (* [base, top) *)
  heap_ranges : (int * int) list;  (* mmap/arena areas *)
}

let in_range (lo, hi) a = a >= lo && a < hi

let classify regions ev =
  match ev with
  | Trace.Grant { origin = Trace.Malloc; _ } -> Some Malloc
  | Trace.Grant { origin = Trace.Exec; _ } -> Some Exec
  | Trace.Grant { origin = Trace.Rtld; _ } -> Some Glob_relocs
  | Trace.Grant { origin = Trace.Syscall; _ } -> Some Syscall
  | Trace.Grant { origin = Trace.Signal | Trace.Ptrace | Trace.Swap; _ } ->
    Some Kern
  | Trace.Derive { result; _ } ->
    let base = Cap.base result in
    if in_range regions.stack_range base then Some Stack
    else if List.exists (fun r -> in_range r base) regions.heap_ranges then
      Some Malloc
    else Some Exec
  | Trace.Fault _ | Trace.Marker _ -> None

(* Build the classification regions from the trace itself: every mmap
   return (a [Syscall] grant) delimits heap territory. *)
let regions_of_trace ~stack_range events =
  let heap =
    List.filter_map
      (function
        | Trace.Grant { origin = Trace.Syscall; result }
          when Cap.is_tagged result ->
          Some (Cap.base result, Cap.top result)
        | _ -> None)
      events
  in
  { stack_range; heap_ranges = heap }

(* One reconstructed capability record. *)
type entry = {
  e_source : source;
  e_size : int;
}

let entries regions events =
  List.filter_map
    (fun ev ->
      match classify regions ev, Trace.event_cap ev with
      | Some src, Some c when Cap.is_tagged c ->
        Some { e_source = src; e_size = Cap.length c }
      | _ -> None)
    events

(* Cumulative count of capabilities with size <= x, for x = 2^2 .. 2^24.
   Mirrors the axes of Fig. 5. *)
let size_buckets = List.init 23 (fun i -> 1 lsl (i + 2))

type cdf = {
  c_source : source option;       (* None = "all" *)
  c_points : (int * int) list;    (* size threshold -> cumulative count *)
  c_total : int;
  c_max_size : int;
}

let cdf_of ?source es =
  let es =
    match source with
    | None -> es
    | Some s -> List.filter (fun e -> e.e_source = s) es
  in
  let total = List.length es in
  let max_size = List.fold_left (fun m e -> max m e.e_size) 0 es in
  let points =
    List.map
      (fun b -> b, List.length (List.filter (fun e -> e.e_size <= b) es))
      size_buckets
  in
  { c_source = source; c_points = points; c_total = total;
    c_max_size = max_size }

let analyze regions events =
  let es = entries regions events in
  cdf_of es, List.map (fun s -> cdf_of ~source:s es) all_sources

(* Headline statistics quoted in §5.5. *)
type summary = {
  s_total : int;
  s_pct_under_1k : float;
  s_largest : int;
  s_largest_under_16m : bool;
}

let summarize es =
  let total = List.length es in
  let under_1k = List.length (List.filter (fun e -> e.e_size <= 1024) es) in
  let largest = List.fold_left (fun m e -> max m e.e_size) 0 es in
  { s_total = total;
    s_pct_under_1k =
      (if total = 0 then 0.0
       else 100.0 *. float_of_int under_1k /. float_of_int total);
    s_largest = largest;
    s_largest_under_16m = largest <= 16 * 1024 * 1024 }
