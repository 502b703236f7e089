(* Provenance-chain reconstruction (§5.5: "track capability derivation and
   use, in order to reconstruct the abstract capability of a process").

   From an ordered trace, link every created capability to the most
   plausible live parent: the tightest earlier capability whose bounds and
   permissions contain it. Kernel grants are chain roots (their parent is
   the process root, by the §3 construction). The result is a forest whose
   depth distribution shows how many derivation steps separate working
   pointers from the primordial capability. *)

module Cap = Cheri_cap.Cap
module Perms = Cheri_cap.Perms
module Trace = Cheri_isa.Trace

type node = {
  n_cap : Cap.t;
  n_origin : Trace.origin option;  (* [None]: a user derivation *)
  n_parent : int option;      (* index into the node array *)
  n_depth : int;              (* root grants have depth 1 *)
}

type forest = {
  nodes : node array;
  max_depth : int;
  mean_depth : float;
  roots : int;
  orphans : int;              (* derivations with no containing parent *)
}

let contains parent child =
  Cap.base parent <= Cap.base child
  && Cap.top parent >= Cap.top child
  && Perms.subset (Cap.perms child) (Cap.perms parent)

(* The tightest containing node among those already seen. *)
let find_parent nodes n cap =
  let best = ref None in
  for i = 0 to n - 1 do
    let cand = nodes.(i).n_cap in
    if contains cand cap then
      match !best with
      | None -> best := Some i
      | Some j ->
        if Cap.length cand < Cap.length nodes.(j).n_cap then best := Some i
  done;
  !best

let build events =
  let created =
    List.filter_map
      (fun ev ->
        match ev, Trace.event_cap ev with
        | Trace.Grant { origin; _ }, Some c when Cap.is_tagged c ->
          Some (Some origin, c)
        | Trace.Derive _, Some c when Cap.is_tagged c -> Some (None, c)
        | _ -> None)
      events
  in
  let n = List.length created in
  let nodes = Array.make n { n_cap = Cap.null; n_origin = None;
                             n_parent = None; n_depth = 1 } in
  List.iteri
    (fun i (origin, cap) ->
      let parent = if origin = None then find_parent nodes i cap else None in
      let depth =
        match parent with
        | Some j -> nodes.(j).n_depth + 1
        | None -> 1
      in
      nodes.(i) <- { n_cap = cap; n_origin = origin; n_parent = parent;
                     n_depth = depth })
    created;
  let max_depth = Array.fold_left (fun m nd -> max m nd.n_depth) 0 nodes in
  let total = Array.fold_left (fun s nd -> s + nd.n_depth) 0 nodes in
  let roots =
    Array.fold_left
      (fun c nd -> if nd.n_origin <> None then c + 1 else c)
      0 nodes
  in
  let orphans =
    Array.fold_left
      (fun c nd ->
        if nd.n_origin = None && nd.n_parent = None then c + 1 else c)
      0 nodes
  in
  { nodes; max_depth;
    mean_depth = (if n = 0 then 0.0 else float_of_int total /. float_of_int n);
    roots; orphans }

(* Depth histogram: (depth, count) pairs in depth order. *)
let depth_histogram f =
  let tbl = Hashtbl.create 8 in
  Array.iter
    (fun nd ->
      Hashtbl.replace tbl nd.n_depth
        (1 + Option.value ~default:0 (Hashtbl.find_opt tbl nd.n_depth)))
    f.nodes;
  List.sort compare (Hashtbl.fold (fun d c acc -> (d, c) :: acc) tbl [])
