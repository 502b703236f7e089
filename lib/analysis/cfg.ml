(* Control-flow graph recovery over loaded images.

   Input is the same shape the kernel keeps per process: a list of
   [(base, insns)] text regions of decoded instructions (Rtld.lk_code /
   Proc.code). Leaders are region starts, declared entry points, constant
   branch/jump targets, direct call targets, and every instruction after a
   terminator ([Insn.is_terminator] — the block engine's notion of a block
   boundary). Indirect jumps ([Jr]/[CJR]) get no successors: the compiled
   code we analyze uses them only as returns, and the abstract interpreter
   treats every function entry pessimistically, so missing return edges
   cannot create unsoundness — a call site's fall-through edge carries the
   callee's summary effect instead (see absint.ml).

   Indirect *calls* ([CJALR]) through a constant GOT slot are resolved
   when the caller supplies [?got], a map from GOT byte offset to function
   entry pc: a linear provenance scan per region tracks capability
   registers holding (a) a cursor into the GOT ([CIncOffsetImm] off the
   global pointer) or (b) a capability loaded from a constant GOT slot
   ([CLC] via the global pointer or such a cursor). A [CJALR] through (b)
   gets a real call edge and its target becomes a function root. The scan
   clears its state at terminators and on any redefinition (including of
   the global pointer itself), so it only fires on the compiler's
   closed-form call sequence; a jump into the middle of that sequence is
   not represented, which is why only compiled images pass [?got] — the
   fuzz corpus does not.

   The graph is partitioned into functions: every declared entry and every
   direct or GOT-resolved call target roots a function, whose blocks are
   those reachable through non-call edges *without crossing into another
   root* — a [J] to another function's entry is a tail call: it terminates
   the caller's region (recorded in [bb_calls], no successor edge) instead
   of absorbing the callee's blocks. *)

module Insn = Cheri_isa.Insn
module Reg = Cheri_isa.Reg

type succ =
  | Seq of int      (* ordinary edge: state flows through *)
  | Ret_of of int   (* edge following a call/syscall: callee ran in between *)

type bb = {
  bb_entry : int;
  bb_insns : Insn.t array;       (* includes the terminator, if any *)
  bb_succs : succ list;
  bb_calls : int list;           (* constant call targets out of this block *)
}

type t = {
  blocks : (int, bb) Hashtbl.t;
  order : int list;              (* block entries, ascending *)
  funcs : (int * int list) list; (* function entry -> member block entries *)
  icalls : (int, int) Hashtbl.t; (* CJALR pc -> GOT-resolved target *)
}

let block_of t pc = Hashtbl.find_opt t.blocks pc

(* Per-creg provenance for the GOT scan. *)
type gprov =
  | Pnone
  | Pgotptr of int   (* cursor into the GOT at byte offset *)
  | Pgotval of int   (* capability loaded from the GOT slot at offset *)

let build ~entries ?(got = []) regions =
  let regions = List.sort (fun (a, _) (b, _) -> compare a b) regions in
  let find_insn pc =
    let rec go = function
      | [] -> None
      | (base, insns) :: rest ->
        if pc >= base && pc < base + (4 * Array.length insns) && (pc - base) land 3 = 0
        then Some insns.((pc - base) / 4)
        else go rest
    in
    go regions
  in
  let valid pc = pc land 3 = 0 && find_insn pc <> None in
  let leaders = Hashtbl.create 256 in
  let add_leader pc = if valid pc then Hashtbl.replace leaders pc () in
  let call_targets = Hashtbl.create 64 in
  let add_call pc =
    if valid pc then begin
      Hashtbl.replace call_targets pc ();
      Hashtbl.replace leaders pc ()
    end
  in
  List.iter add_leader entries;
  List.iter (fun (base, _) -> add_leader base) regions;
  List.iter
    (fun (base, insns) ->
      Array.iteri
        (fun i insn ->
          let pc = base + (4 * i) in
          if Insn.is_terminator insn then add_leader (pc + 4);
          match insn with
          | Insn.Beq (_, _, t) | Insn.Bne (_, _, t)
          | Insn.Blez (_, t) | Insn.Bgtz (_, t)
          | Insn.Bltz (_, t) | Insn.Bgez (_, t)
          | Insn.J t -> add_leader t
          | Insn.Jal t | Insn.CJAL (_, t) -> add_call t
          | _ -> ())
        insns)
    regions;
  (* GOT-aware indirect-call resolution (before block decode, so resolved
     targets become leaders and roots like direct call targets). *)
  let icalls = Hashtbl.create 16 in
  if got <> [] then
    List.iter
      (fun (base, insns) ->
        let prov = Array.make 32 Pnone in
        let clear () = Array.fill prov 0 32 Pnone in
        let cgp_dead = ref false in
        let set cd p =
          if cd = Reg.cgp then begin clear (); cgp_dead := true end
          else prov.(cd) <- p
        in
        Array.iteri
          (fun i insn ->
            let pc = base + (4 * i) in
            (match insn with
             | Insn.CIncOffsetImm (cd, cb, imm) ->
               let p =
                 if cb = Reg.cgp && not !cgp_dead then Pgotptr imm
                 else match prov.(cb) with
                   | Pgotptr o -> Pgotptr (o + imm)
                   | _ -> Pnone
               in
               set cd p
             | Insn.CLC { cd; cb; off } ->
               let p =
                 if cb = Reg.cgp && not !cgp_dead then Pgotval off
                 else match prov.(cb) with
                   | Pgotptr o -> Pgotval (o + off)
                   | _ -> Pnone
               in
               set cd p
             | Insn.CMove (cd, cb) ->
               set cd (if cb = Reg.cgp && not !cgp_dead then Pgotptr 0
                       else prov.(cb))
             | Insn.CJALR (cd, cj) ->
               (match prov.(cj) with
                | Pgotval off ->
                  (match List.assoc_opt off got with
                   | Some target when valid target ->
                     Hashtbl.replace icalls pc target;
                     add_call target
                   | _ -> ())
                | _ -> ());
               set cd Pnone
             | _ ->
               (match Insn.creg_def insn with
                | Some cd -> set cd Pnone
                | None -> ()));
            if Insn.is_terminator insn then clear ())
          insns)
      regions;
  (* Function roots: declared entries plus every (direct or GOT-resolved)
     call target. Known before block decode so jump-to-root can be
     classified as a tail call. *)
  let roots_tbl = Hashtbl.create 32 in
  List.iter (fun e -> if valid e then Hashtbl.replace roots_tbl e ()) entries;
  Hashtbl.iter (fun pc () -> Hashtbl.replace roots_tbl pc ()) call_targets;
  let is_root pc = Hashtbl.mem roots_tbl pc in
  (* Decode blocks between leaders. *)
  let blocks = Hashtbl.create 256 in
  let all_leaders =
    Hashtbl.fold (fun pc () acc -> pc :: acc) leaders [] |> List.sort compare
  in
  List.iter
    (fun entry ->
      match find_insn entry with
      | None -> ()
      | Some _ ->
        let insns = ref [] in
        let pc = ref entry in
        let stop = ref false in
        while not !stop do
          match find_insn !pc with
          | None -> stop := true
          | Some insn ->
            insns := insn :: !insns;
            if Insn.is_terminator insn then stop := true
            else begin
              pc := !pc + 4;
              if Hashtbl.mem leaders !pc then stop := true
            end
        done;
        let insns = Array.of_list (List.rev !insns) in
        let n = Array.length insns in
        if n > 0 then begin
          let last_pc = entry + (4 * (n - 1)) in
          let last = insns.(n - 1) in
          let fall = last_pc + 4 in
          let succs, calls =
            if not (Insn.is_terminator last) then
              ((if valid fall then [ Seq fall ] else []), [])
            else
              match last with
              | Insn.Beq (_, _, t) | Insn.Bne (_, _, t)
              | Insn.Blez (_, t) | Insn.Bgtz (_, t)
              | Insn.Bltz (_, t) | Insn.Bgez (_, t) ->
                let s = if valid fall then [ Seq fall ] else [] in
                let s = if valid t && t <> fall then Seq t :: s else s in
                (s, [])
              | Insn.J t ->
                (* A jump to another function's entry is a tail call: the
                   caller ends here; control never falls back into it from
                   this edge, so it carries no successor. *)
                if valid t && is_root t && t <> entry then ([], [ t ])
                else ((if valid t then [ Seq t ] else []), [])
              | Insn.Jal t | Insn.CJAL (_, t) ->
                ( (if valid fall then [ Ret_of fall ] else []),
                  if valid t then [ t ] else [] )
              | Insn.CJALR _ ->
                ( (if valid fall then [ Ret_of fall ] else []),
                  match Hashtbl.find_opt icalls last_pc with
                  | Some t -> [ t ]
                  | None -> [] )
              | Insn.Jalr _ ->
                ((if valid fall then [ Ret_of fall ] else []), [])
              | Insn.Syscall | Insn.Rt _ ->
                ((if valid fall then [ Ret_of fall ] else []), [])
              | Insn.Jr _ | Insn.CJR _ | Insn.Break _ -> ([], [])
              | _ -> ([], [])
          in
          Hashtbl.replace blocks entry
            { bb_entry = entry; bb_insns = insns; bb_succs = succs;
              bb_calls = calls }
        end)
    all_leaders;
  (* Partition into functions: members are blocks reachable through
     ordinary successor edges, never crossing into another root (so a
     branch or tail jump into a different function stops the walk). *)
  let roots =
    Hashtbl.fold (fun pc () acc -> pc :: acc) roots_tbl [] |> List.sort compare
  in
  let funcs =
    List.map
      (fun root ->
        let seen = Hashtbl.create 64 in
        let rec visit pc =
          if (not (Hashtbl.mem seen pc)) && Hashtbl.mem blocks pc
             && (pc = root || not (is_root pc))
          then begin
            Hashtbl.replace seen pc ();
            let b = Hashtbl.find blocks pc in
            List.iter
              (fun s -> match s with Seq t | Ret_of t -> visit t)
              b.bb_succs
          end
        in
        visit root;
        (root, Hashtbl.fold (fun pc () acc -> pc :: acc) seen [] |> List.sort compare))
      roots
  in
  let order =
    Hashtbl.fold (fun pc _ acc -> pc :: acc) blocks [] |> List.sort compare
  in
  { blocks; order; funcs; icalls }
