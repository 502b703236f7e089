(* Machine-level abstract interpretation of capability code.

   [verify] recovers a CFG (cfg.ml) from a loaded image, computes function
   summaries bottom-up ([summarize]) and runs a forward fixpoint per
   function ([analyze_fn]) over an abstract capability domain, refining
   states along conditional edges ([refine_edge]). On the stabilized
   states it makes two kinds of claim, both relative to the recovered CFG:

   - located diagnostics for statically provable capability violations
     (untagged use, provable out-of-bounds, missing permission, sealed
     dereference, monotonicity-violating derivation, unaligned jump
     targets, division by zero): a must-trap pc traps whenever a CFG path
     from the entry of the function it names reaches it;
   - discharged checks: the capability check at such a pc cannot fail on
     any CFG path from a function entry.

   Function entries start from Top (only a concrete DDC and a PCC
   permission bound are assumed). The CFG does not follow a
   register-indirect jump to its target (a call's return is its
   fall-through edge, composed with the callee's summary), so a run that
   takes one leaves both claims behind. Surfaced through [cheri_run
   --verify] and [--analysis-stats] and the bin/cheri_verify corpus
   driver; the soundness oracle in test/test_absint.ml replays both claims
   dynamically. No execution engine consumes them: the chain engine checks
   every access, as the CHERI hardware does.

   The domain tracks, per capability register and per csp-relative spill
   slot: tag and seal as three-valued facts, lower/upper permission sets,
   a proven cursor-relative in-bounds window, exact cursor/bounds offsets
   when derivations pin them, an upper bound on top-addr, a provenance tag
   reusing the lint's lattice (Lint.prov), and the fully concrete value
   when a derivation chain from a constant root (DDC, NULL) determines it.
   See docs/ABSINT.md. *)

module Cap = Cheri_cap.Cap
module Perms = Cheri_cap.Perms
module Compress = Cheri_cap.Compress
module Insn = Cheri_isa.Insn
module Reg = Cheri_isa.Reg
module IMap = Map.Make (Int)

(* --- Domain ---------------------------------------------------------------- *)

type tri = Yes | No | Maybe

let tri_join a b = if a = b then a else Maybe

type aint = Cst of int | Any

let aint_join a b = if a = b then a else Any

type acap = {
  a_tag : tri;
  a_seal : tri;
  a_must : Perms.t;            (* permissions definitely present *)
  a_may : Perms.t;             (* permissions possibly present *)
  a_win : (int * int) option;  (* proven: [addr+lo, addr+hi) within bounds *)
  a_eb : (int * int) option;   (* exact: (addr - base, top - addr) *)
  a_boff : int option;         (* exact: addr - base alone (weaker than a_eb;
                                  survives when only the length is unknown) *)
  a_topoff : int option;       (* upper bound on top - addr *)
  a_prov : Lint.prov;          (* provenance, PR 2's lattice *)
  a_conc : Cap.t option;       (* exactly-known concrete value *)
}

let top_acap =
  { a_tag = Maybe; a_seal = Maybe; a_must = Perms.none; a_may = Perms.all;
    a_win = None; a_eb = None; a_boff = None; a_topoff = None;
    a_prov = Lint.Unknown; a_conc = None }

let of_cap ?(prov = Lint.Unknown) c =
  let addr = Cap.addr c and base = Cap.base c and top = Cap.top c in
  { a_tag = (if Cap.is_tagged c then Yes else No);
    a_seal = (if Cap.is_sealed c then Yes else No);
    a_must = Cap.perms c; a_may = Cap.perms c;
    a_win =
      (if base <= addr && addr <= top && base < top
       then Some (base - addr, top - addr) else None);
    a_eb = Some (addr - base, top - addr);
    a_boff = Some (addr - base);
    a_topoff = Some (top - addr);
    a_prov = prov;
    a_conc = Some c }

let null_acap = of_cap ~prov:Lint.Null Cap.null

let join_acap ~widen a b =
  if a == b then a
  else
    let keep_if_stable x y = match x, y with
      | Some u, Some v when u = v -> Some u
      | _ -> None
    in
    { a_tag = tri_join a.a_tag b.a_tag;
      a_seal = tri_join a.a_seal b.a_seal;
      a_must = Perms.inter a.a_must b.a_must;
      a_may = Perms.union a.a_may b.a_may;
      a_win =
        (if widen then keep_if_stable a.a_win b.a_win
         else
           match a.a_win, b.a_win with
           | Some (l1, h1), Some (l2, h2) ->
             let l = max l1 l2 and h = min h1 h2 in
             if l <= h then Some (l, h) else None
           | _ -> None);
      a_eb = keep_if_stable a.a_eb b.a_eb;
      a_boff = keep_if_stable a.a_boff b.a_boff;
      a_topoff =
        (if widen then keep_if_stable a.a_topoff b.a_topoff
         else
           match a.a_topoff, b.a_topoff with
           | Some x, Some y -> Some (max x y)
           | _ -> None);
      a_prov = Lint.join a.a_prov b.a_prov;
      a_conc =
        (match a.a_conc, b.a_conc with
         | Some x, Some y when Cap.equal x y -> Some x
         | _ -> None) }

(* --- Analysis state -------------------------------------------------------- *)

type st = {
  g : aint array;              (* 32 GPRs; r0 pinned to Cst 0 by getg *)
  c : acap array;              (* 32 capability registers *)
  mutable ddc : acap;
  mutable slots : acap IMap.t; (* csp-relative spill slots *)
}

type env = {
  e_ddc : acap;                (* DDC at image entry *)
  e_pcc_may : Perms.t;         (* upper bound on any reachable PCC's perms *)
}

let fresh_st env =
  { g = Array.make 32 Any; c = Array.make 32 top_acap; ddc = env.e_ddc;
    slots = IMap.empty }

let copy_st st =
  { g = Array.copy st.g; c = Array.copy st.c; ddc = st.ddc; slots = st.slots }

let getg st r = if r = 0 then Cst 0 else st.g.(r)
let setg st r v = if r <> 0 then st.g.(r) <- v

let getc st r = if r = 0 then null_acap else st.c.(r)

(* Writing csp moves the frame cursor: every slot key goes stale. The
   CIncOffsetImm arm re-keys instead of calling this. *)
let setc st r v =
  if r <> 0 then begin
    if r = Reg.csp then st.slots <- IMap.empty;
    st.c.(r) <- v
  end

(* Refinement writes: the register still holds the same runtime value, we
   merely learned more about it — slots stay valid. *)
let refinec st r v = if r <> 0 then st.c.(r) <- v

(* A data write may have cleared an aliased in-memory capability's tag but
   cannot have created one; bounds/permission claims survive for must-trap
   purposes (if the bytes changed, the tag is gone and the tag check fires
   first), but proved-safe claims must be dropped. *)
let downgrade_slot v = { v with a_tag = tri_join v.a_tag No; a_conc = None }

let join_st ~widen dst src =
  let changed = ref false in
  let g = Array.init 32 (fun i ->
    let j = aint_join dst.g.(i) src.g.(i) in
    if j <> dst.g.(i) then changed := true;
    j)
  in
  let c = Array.init 32 (fun i ->
    let j = join_acap ~widen dst.c.(i) src.c.(i) in
    if j <> dst.c.(i) then changed := true;
    j)
  in
  let ddc = join_acap ~widen dst.ddc src.ddc in
  if ddc <> dst.ddc then changed := true;
  let slots =
    IMap.merge
      (fun _ a b ->
        match a, b with
        | Some x, Some y -> Some (join_acap ~widen x y)
        | _ -> None)
      dst.slots src.slots
  in
  if not (IMap.equal ( = ) slots dst.slots) then changed := true;
  ({ g; c; ddc; slots }, !changed)

(* After a call, syscall or rt upcall: the callee (or kernel) may have
   written any register and any memory the caller's capabilities reach, so
   only the stack cursor and the DDC (which user code cannot change: see
   the system_regs argument in verify) survive. *)
let clobber_after_call st =
  let out = copy_st st in
  for i = 1 to 31 do
    out.g.(i) <- Any;
    if i <> Reg.csp then out.c.(i) <- top_acap
  done;
  out.slots <- IMap.empty;
  out

(* --- Function summaries -----------------------------------------------------

   Context-insensitive entry->exit transformers. A callee is analyzed once
   from a generic entry state (Top registers; see [analyze_fn]), so its
   exit state over-approximates its effect for *every* call site, and a
   call edge applies the summary instead of clobbering the world:
   registers the callee provably never writes keep the caller's facts,
   written ones take the callee's exit value (sound because the callee's
   entry state subsumes the caller's actual arguments).

   [su_exit = None] means the function is not (yet) known to return — the
   bottom transformer: during the ascending whole-image fixpoint it makes
   call fall-through edges dead until a return path is found, and a
   function that truly never returns keeps its callers' fall-through
   blocks unreachable (no diagnostics are emitted from them).

   [su_poison] degrades the summary to exactly the old pessimistic
   clobber: set when the function returns through a computed register
   (neither ra nor cra — the exit state would not describe where control
   actually goes) and, as a soundness backstop, on every summary when the
   outer worklist overruns its iteration budget (a truncated fixpoint is
   not a fixpoint). *)

type summary = {
  mutable su_writes : int;   (* creg bitmask the function may write *)
  mutable su_gwrites : int;  (* gpr bitmask the function may write *)
  mutable su_stores : bool;  (* may store through any reachable capability *)
  mutable su_exit : st option;      (* join over return-site states *)
  mutable su_exit_joins : int;
  mutable su_poison : bool;  (* degrade to clobber_after_call *)
}

let su_bottom () =
  { su_writes = 0; su_gwrites = 0; su_stores = false; su_exit = None;
    su_exit_joins = 0; su_poison = false }

(* Caller state across a summarized call. csp survives by calling
   convention, exactly as in [clobber_after_call]; a store anywhere in the
   callee may have reached any caller-visible memory, so spill slots are
   dropped wholesale. *)
let apply_summary st su =
  if su.su_poison then Some (clobber_after_call st)
  else
    match su.su_exit with
    | None -> None
    | Some ex ->
      let out = copy_st st in
      for r = 1 to 31 do
        if (su.su_gwrites lsr r) land 1 = 1 then out.g.(r) <- Any;
        if r <> Reg.csp && (su.su_writes lsr r) land 1 = 1 then
          out.c.(r) <- ex.c.(r)
      done;
      if su.su_stores then out.slots <- IMap.empty;
      Some out

(* Join [src] (a freshly recomputed summary) into [dst] in place; returns
   whether [dst] grew. Ascending on every component, with widening on the
   exit join after a few rounds, so the outer fixpoint terminates. *)
let join_summary dst src =
  let changed = ref false in
  let w = dst.su_writes lor src.su_writes in
  if w <> dst.su_writes then (dst.su_writes <- w; changed := true);
  let gw = dst.su_gwrites lor src.su_gwrites in
  if gw <> dst.su_gwrites then (dst.su_gwrites <- gw; changed := true);
  if src.su_stores && not dst.su_stores then
    (dst.su_stores <- true; changed := true);
  if src.su_poison && not dst.su_poison then
    (dst.su_poison <- true; changed := true);
  (match dst.su_exit, src.su_exit with
   | _, None -> ()
   | None, Some ex -> dst.su_exit <- Some (copy_st ex); changed := true
   | Some cur, Some ex ->
     dst.su_exit_joins <- dst.su_exit_joins + 1;
     let j, c = join_st ~widen:(dst.su_exit_joins > 8) cur ex in
     if c then (dst.su_exit <- Some j; changed := true));
  !changed

(* --- Verdicts -------------------------------------------------------------- *)

type kind =
  | K_cap of Cap.violation
  | K_jump_align
  | K_div

let kind_name = function
  | K_cap Cap.Tag_violation -> "tag"
  | K_cap Cap.Seal_violation -> "seal"
  | K_cap (Cap.Permit_violation p) ->
    Printf.sprintf "perm(%s)" (Perms.to_string p)
  | K_cap Cap.Bounds_violation -> "bounds"
  | K_cap Cap.Length_violation -> "length"
  | K_cap Cap.Monotonicity_violation -> "monotonicity"
  | K_cap Cap.Representability_violation -> "representability"
  | K_cap Cap.Alignment_violation -> "alignment"
  | K_jump_align -> "jump-align"
  | K_div -> "div-zero"

type averdict = {
  av_site : bool;                       (* carries an elidable cap check *)
  av_elide : bool;                      (* ... and it is discharged *)
  av_must : (kind * Lint.prov) option;  (* provably traps when reached *)
}

let quiet = { av_site = false; av_elide = false; av_must = None }

(* --- Access judgement ------------------------------------------------------ *)

(* Decide the fate of [check_cap cap ~perm] over [addr+off, addr+off+len).
   Returns (elide, must): one proven-failing check suffices for must-trap
   (either it or an earlier check in the architectural order traps);
   eliding needs every check proven to pass. *)
let judge_cap a ~perm ~off ~len =
  match a.a_conc with
  | Some cc ->
    let addr = Cap.addr cc + off in
    (match
       (try Cap.check_access_at cc ~perm ~addr ~len; None
        with Cap.Cap_error v -> Some v)
     with
     | Some v -> (false, Some (K_cap v))
     | None ->
       if addr land (len - 1) <> 0 then
         (* check_cap passes (elidable) but the access itself will raise
            an alignment trap: both claims hold at once. *)
         (true, Some (K_cap Cap.Alignment_violation))
       else (true, None))
  | None ->
    if a.a_tag = No then (false, Some (K_cap Cap.Tag_violation))
    else if a.a_seal = Yes then (false, Some (K_cap Cap.Seal_violation))
    else if not (Perms.has a.a_may perm) then
      (false, Some (K_cap (Cap.Permit_violation perm)))
    else
      let oob =
        (match a.a_eb with
         | Some (lo, hi) -> off < -lo || off + len > hi
         | None -> false)
        || (match a.a_boff with Some bo -> off < -bo | None -> false)
        || (match a.a_topoff with Some h -> off + len > h | None -> false)
      in
      if oob then (false, Some (K_cap Cap.Bounds_violation))
      else
        let covered =
          (match a.a_eb with
           | Some (lo, hi) -> off >= -lo && off + len <= hi
           | None -> false)
          || (match a.a_win with
              | Some (l, h) -> l <= off && off + len <= h
              | None -> false)
        in
        ( a.a_tag = Yes && a.a_seal = No && Perms.has a.a_must perm && covered,
          None )

(* Legacy (DDC-relative) accesses: the effective address is absolute, so
   bounds facts only bite when both the DDC and the address are known. *)
let judge_legacy d ~perm ~addr ~len =
  match d.a_conc, addr with
  | Some cc, Cst va ->
    (match
       (try Cap.check_access_at cc ~perm ~addr:va ~len; None
        with Cap.Cap_error v -> Some v)
     with
     | Some v -> (false, Some (K_cap v))
     | None ->
       if va land (len - 1) <> 0 then (true, Some (K_cap Cap.Alignment_violation))
       else (true, None))
  | _ ->
    if d.a_tag = No then (false, Some (K_cap Cap.Tag_violation))
    else if d.a_seal = Yes then (false, Some (K_cap Cap.Seal_violation))
    else if not (Perms.has d.a_may perm) then
      (false, Some (K_cap (Cap.Permit_violation perm)))
    else (false, None)

(* A successful checked access proves tag, unsealedness, the permission,
   and in-bounds-ness of the touched window (hulled into a_win). *)
let refine_access a ~perm ~off ~len =
  let win =
    match a.a_win with
    | Some (l, h) -> Some (min l off, max h (off + len))
    | None -> Some (off, off + len)
  in
  { a with a_tag = Yes; a_seal = No;
    a_must = Perms.union a.a_must perm;
    a_may = Perms.union a.a_may perm;
    a_win = win }

let refine_legacy d ~perm =
  { d with a_tag = Yes; a_seal = No;
    a_must = Perms.union d.a_must perm;
    a_may = Perms.union d.a_may perm }

(* Derivations requiring a tagged, unsealed source. *)
let derive_must a =
  if a.a_tag = No then Some (K_cap Cap.Tag_violation, a.a_prov)
  else if a.a_seal = Yes then Some (K_cap Cap.Seal_violation, a.a_prov)
  else None

(* --- Abstract derivation helpers ------------------------------------------- *)

(* Cursor move by a known delta. Bounds fields shift; the tag survives only
   if the new cursor provably stays inside [base, top) (the representable
   window always contains the bounds). *)
let inc_acap a d =
  match a.a_conc with
  | Some cc ->
    (match (try Some (Cap.inc_addr cc d) with Cap.Cap_error _ -> None) with
     | Some cc' -> of_cap ~prov:a.a_prov cc'
     | None -> { a with a_conc = None })  (* traps; post-state unreachable *)
  | None ->
    let tag' =
      match a.a_tag with
      | No -> No
      | t ->
        let inb =
          (match a.a_eb with
           | Some (lo, hi) -> lo + d >= 0 && hi - d > 0
           | None -> false)
          || (match a.a_win with Some (l, h) -> l <= d && d < h | None -> false)
        in
        if inb then t else Maybe
    in
    { a with a_tag = tag';
      a_win = Option.map (fun (l, h) -> (l - d, h - d)) a.a_win;
      a_eb = Option.map (fun (l, h) -> (l + d, h - d)) a.a_eb;
      a_boff = Option.map (fun l -> l + d) a.a_boff;
      a_topoff = Option.map (fun h -> h - d) a.a_topoff;
      a_conc = None }

(* Cursor moved to an unknown absolute address. *)
let unknown_addr_acap a =
  { a with a_tag = (if a.a_tag = No then No else Maybe);
    a_win = None; a_eb = None; a_boff = None; a_topoff = None; a_conc = None }

let setbounds_must a len ~exact =
  match derive_must a with
  | Some _ as m -> m
  | None ->
    (match len with
     | Cst l when l < 0 -> Some (K_cap Cap.Length_violation, a.a_prov)
     | Cst l ->
       let mono =
         (match a.a_eb with
          | Some (lo, hi) -> lo < 0 || l > hi
          | None -> false)
         || (match a.a_topoff with Some h -> l > h | None -> false)
       in
       if mono then Some (K_cap Cap.Monotonicity_violation, a.a_prov)
       else if exact && Compress.crrl l <> l then
         Some (K_cap Cap.Representability_violation, a.a_prov)
       else None
     | Any -> None)

(* Post-state of a *successful* set-bounds: source was tagged and unsealed,
   result keeps the perms; small (exponent-0) and exact requests pin the
   bounds precisely, padded ones still guarantee the requested window. *)
let setbounds_result a len ~exact =
  match a.a_conc, len with
  | Some cc, Cst l ->
    (match (try Some (Cap.set_bounds ~exact cc ~len:l) with Cap.Cap_error _ -> None) with
     | Some cc' -> of_cap ~prov:a.a_prov cc'
     | None -> { a with a_conc = None })
  | _ ->
    (match len with
     | Cst l when l >= 0 && (exact || Compress.exponent_of_length l = 0) ->
       { a with a_tag = Yes; a_seal = No; a_win = Some (0, l);
         a_eb = Some (0, l); a_boff = Some 0; a_topoff = Some l; a_conc = None }
     | Cst l when l >= 0 ->
       (* Padding may lower the base below the cursor, so only the
          requested window — not the exact base offset — is known. *)
       { a with a_tag = Yes; a_seal = No; a_win = Some (0, l); a_eb = None;
         a_boff = None; a_conc = None }
     | _ ->
       (* Unknown length: an exact request still pins base = cursor. *)
       { a with a_tag = Yes; a_seal = No; a_win = None; a_eb = None;
         a_boff = (if exact then Some 0 else None); a_conc = None })

(* --- ALU folding ----------------------------------------------------------- *)

let fold1 f a = match a with Cst x -> Cst (f x) | Any -> Any
let fold2 f a b = match a, b with Cst x, Cst y -> Cst (f x y) | _ -> Any
let ultu a b = if a lxor min_int < b lxor min_int then 1 else 0

(* --- Transfer function ----------------------------------------------------- *)

(* One non-terminator instruction. Mutates [st]; the returned verdict
   reports whether the instruction carries an elidable capability check,
   whether it was discharged, and whether it provably traps when reached.
   Post-states assume the instruction did NOT trap (a trapping execution
   never reaches the next instruction), which is what lets derivations
   refine tag/seal facts. *)
let step_st env st (insn : Insn.t) : averdict =
  match insn with
  | Insn.Li (rd, v) -> setg st rd (Cst v); quiet
  | Move (rd, rs) -> setg st rd (getg st rs); quiet
  | Addu (rd, rs, rt) -> setg st rd (fold2 ( + ) (getg st rs) (getg st rt)); quiet
  | Addiu (rd, rs, i) -> setg st rd (fold1 (fun x -> x + i) (getg st rs)); quiet
  | Subu (rd, rs, rt) -> setg st rd (fold2 ( - ) (getg st rs) (getg st rt)); quiet
  | Mul (rd, rs, rt) -> setg st rd (fold2 ( * ) (getg st rs) (getg st rt)); quiet
  | Div (rd, rs, rt) | Rem (rd, rs, rt) ->
    let a = getg st rs and b = getg st rt in
    let must =
      match a, b with
      | _, Cst 0 -> Some (K_div, Lint.Pure_int)
      | Cst x, Cst y when x = min_int && y = -1 -> Some (K_div, Lint.Pure_int)
      | _ -> None
    in
    let v =
      match a, b, must with
      | Cst x, Cst y, None ->
        Cst (match insn with Insn.Div _ -> x / y | _ -> x mod y)
      | _ -> Any
    in
    setg st rd v;
    { quiet with av_must = must }
  | And_ (rd, rs, rt) -> setg st rd (fold2 ( land ) (getg st rs) (getg st rt)); quiet
  | Andi (rd, rs, i) -> setg st rd (fold1 (fun x -> x land i) (getg st rs)); quiet
  | Or_ (rd, rs, rt) -> setg st rd (fold2 ( lor ) (getg st rs) (getg st rt)); quiet
  | Ori (rd, rs, i) -> setg st rd (fold1 (fun x -> x lor i) (getg st rs)); quiet
  | Xor_ (rd, rs, rt) -> setg st rd (fold2 ( lxor ) (getg st rs) (getg st rt)); quiet
  | Xori (rd, rs, i) -> setg st rd (fold1 (fun x -> x lxor i) (getg st rs)); quiet
  | Nor_ (rd, rs, rt) ->
    setg st rd (fold2 (fun x y -> lnot (x lor y)) (getg st rs) (getg st rt));
    quiet
  | Sll (rd, rs, sh) -> setg st rd (fold1 (fun x -> x lsl sh) (getg st rs)); quiet
  | Srl (rd, rs, sh) -> setg st rd (fold1 (fun x -> x lsr sh) (getg st rs)); quiet
  | Sra (rd, rs, sh) -> setg st rd (fold1 (fun x -> x asr sh) (getg st rs)); quiet
  | Sllv (rd, rs, rt) ->
    setg st rd (fold2 (fun x y -> x lsl (y land 63)) (getg st rs) (getg st rt));
    quiet
  | Srlv (rd, rs, rt) ->
    setg st rd (fold2 (fun x y -> x lsr (y land 63)) (getg st rs) (getg st rt));
    quiet
  | Srav (rd, rs, rt) ->
    setg st rd (fold2 (fun x y -> x asr (y land 63)) (getg st rs) (getg st rt));
    quiet
  | Slt (rd, rs, rt) ->
    setg st rd (fold2 (fun x y -> if x < y then 1 else 0) (getg st rs) (getg st rt));
    quiet
  | Sltu (rd, rs, rt) -> setg st rd (fold2 ultu (getg st rs) (getg st rt)); quiet
  | Slti (rd, rs, i) ->
    setg st rd (fold1 (fun x -> if x < i then 1 else 0) (getg st rs));
    quiet
  | Sltiu (rd, rs, i) -> setg st rd (fold1 (fun x -> ultu x i) (getg st rs)); quiet
  (* Memory. *)
  | Load { w; rd; base; off; _ } ->
    let addr = fold1 (fun x -> x + off) (getg st base) in
    let elide, must = judge_legacy st.ddc ~perm:Perms.load ~addr ~len:w in
    st.ddc <- refine_legacy st.ddc ~perm:Perms.load;
    setg st rd Any;
    { av_site = true; av_elide = elide;
      av_must = Option.map (fun k -> (k, st.ddc.a_prov)) must }
  | Store { w; base; off; _ } ->
    let addr = fold1 (fun x -> x + off) (getg st base) in
    let elide, must = judge_legacy st.ddc ~perm:Perms.store ~addr ~len:w in
    st.ddc <- refine_legacy st.ddc ~perm:Perms.store;
    st.slots <- IMap.map downgrade_slot st.slots;
    { av_site = true; av_elide = elide;
      av_must = Option.map (fun k -> (k, st.ddc.a_prov)) must }
  | CLoad { w; rd; cb; off; _ } ->
    let a = getc st cb in
    let elide, must = judge_cap a ~perm:Perms.load ~off ~len:w in
    refinec st cb (refine_access a ~perm:Perms.load ~off ~len:w);
    setg st rd Any;
    { av_site = true; av_elide = elide;
      av_must = Option.map (fun k -> (k, a.a_prov)) must }
  | CStore { w; cb; off; _ } ->
    let a = getc st cb in
    let elide, must = judge_cap a ~perm:Perms.store ~off ~len:w in
    refinec st cb (refine_access a ~perm:Perms.store ~off ~len:w);
    st.slots <-
      (if cb = Reg.csp then
         IMap.mapi
           (fun k v ->
             if k < off + w && k + Cap.sizeof > off then downgrade_slot v else v)
           st.slots
       else IMap.map downgrade_slot st.slots);
    { av_site = true; av_elide = elide;
      av_must = Option.map (fun k -> (k, a.a_prov)) must }
  | CLC { cd; cb; off } ->
    let a = getc st cb in
    let elide, must = judge_cap a ~perm:Perms.load ~off ~len:Cap.sizeof in
    let a' = refine_access a ~perm:Perms.load ~off ~len:Cap.sizeof in
    refinec st cb a';
    let loaded =
      if cb = Reg.csp then
        match IMap.find_opt off st.slots with Some v -> v | None -> top_acap
      else top_acap
    in
    let loaded =
      if not (Perms.has a'.a_may Perms.load_cap) then
        { loaded with a_tag = No; a_conc = None }
      else if Perms.has a'.a_must Perms.load_cap then loaded
      else { loaded with a_tag = tri_join loaded.a_tag No; a_conc = None }
    in
    setc st cd loaded;
    { av_site = true; av_elide = elide;
      av_must = Option.map (fun k -> (k, a.a_prov)) must }
  | CSC { cs; cb; off } ->
    let a = getc st cb in
    let v = getc st cs in
    let elide, must = judge_cap a ~perm:Perms.store ~off ~len:Cap.sizeof in
    let must =
      match must with
      | Some k -> Some (k, a.a_prov)
      | None ->
        (* Value-dependent check: storing a tagged capability needs
           STORE_CAP on the authorizing capability. *)
        if v.a_tag = Yes && not (Perms.has a.a_may Perms.store_cap) then
          Some (K_cap (Cap.Permit_violation Perms.store_cap), v.a_prov)
        else None
    in
    refinec st cb (refine_access a ~perm:Perms.store ~off ~len:Cap.sizeof);
    st.slots <-
      (if cb = Reg.csp then
         IMap.add off v
           (IMap.filter
              (fun k _ -> k = off || k + Cap.sizeof <= off || k >= off + Cap.sizeof)
              st.slots)
       else IMap.empty);
    { av_site = true; av_elide = elide; av_must = must }
  (* Capability inspection. *)
  | CMove (cd, cb) -> setc st cd (getc st cb); quiet
  | CGetBase (rd, cb) ->
    setg st rd
      (match (getc st cb).a_conc with Some c -> Cst (Cap.base c) | None -> Any);
    quiet
  | CGetLen (rd, cb) ->
    setg st rd
      (match (getc st cb).a_conc with Some c -> Cst (Cap.length c) | None -> Any);
    quiet
  | CGetAddr (rd, cb) ->
    setg st rd
      (match (getc st cb).a_conc with Some c -> Cst (Cap.addr c) | None -> Any);
    quiet
  | CGetOffset (rd, cb) ->
    setg st rd
      (match (getc st cb).a_conc with Some c -> Cst (Cap.offset c) | None -> Any);
    quiet
  | CGetPerm (rd, cb) ->
    setg st rd
      (match (getc st cb).a_conc with Some c -> Cst (Cap.perms c) | None -> Any);
    quiet
  | CGetTag (rd, cb) ->
    setg st rd
      (match (getc st cb).a_tag with Yes -> Cst 1 | No -> Cst 0 | Maybe -> Any);
    quiet
  | CGetType (rd, cb) ->
    setg st rd
      (match (getc st cb).a_conc with Some c -> Cst (Cap.otype c) | None -> Any);
    quiet
  (* Capability derivation. *)
  | CSetBounds (cd, cb, rt) ->
    let a = getc st cb in
    let len = getg st rt in
    let must = setbounds_must a len ~exact:false in
    setc st cd (setbounds_result a len ~exact:false);
    { quiet with av_must = must }
  | CSetBoundsImm (cd, cb, l) ->
    let a = getc st cb in
    let must = setbounds_must a (Cst l) ~exact:false in
    setc st cd (setbounds_result a (Cst l) ~exact:false);
    { quiet with av_must = must }
  | CSetBoundsExact (cd, cb, rt) ->
    let a = getc st cb in
    let len = getg st rt in
    let must = setbounds_must a len ~exact:true in
    setc st cd (setbounds_result a len ~exact:true);
    { quiet with av_must = must }
  | CAndPerm (cd, cb, rt) ->
    let a = getc st cb in
    let must = derive_must a in
    let res =
      match a.a_conc, getg st rt with
      | Some cc, Cst m ->
        (match (try Some (Cap.and_perms cc m) with Cap.Cap_error _ -> None) with
         | Some cc' -> of_cap ~prov:a.a_prov cc'
         | None -> { a with a_conc = None })
      | _, Cst m ->
        { a with a_tag = Yes; a_seal = No;
          a_must = Perms.inter a.a_must m; a_may = Perms.inter a.a_may m;
          a_conc = None }
      | _ ->
        { a with a_tag = Yes; a_seal = No; a_must = Perms.none; a_conc = None }
    in
    setc st cd res;
    { quiet with av_must = must }
  | CAndPermImm (cd, cb, m) ->
    let a = getc st cb in
    let must = derive_must a in
    let res =
      match a.a_conc with
      | Some cc ->
        (match (try Some (Cap.and_perms cc m) with Cap.Cap_error _ -> None) with
         | Some cc' -> of_cap ~prov:a.a_prov cc'
         | None -> { a with a_conc = None })
      | None ->
        { a with a_tag = Yes; a_seal = No;
          a_must = Perms.inter a.a_must m; a_may = Perms.inter a.a_may m;
          a_conc = None }
    in
    setc st cd res;
    { quiet with av_must = must }
  | CIncOffset (cd, cb, rt) ->
    let a = getc st cb in
    let must =
      if a.a_seal = Yes && a.a_tag = Yes then
        Some (K_cap Cap.Seal_violation, a.a_prov)
      else None
    in
    let res =
      match getg st rt with
      | Cst d -> inc_acap a d
      | Any -> unknown_addr_acap a
    in
    if cd = Reg.csp && cb = Reg.csp then begin
      (match getg st rt with
       | Cst d ->
         st.slots <-
           IMap.fold (fun k v acc -> IMap.add (k - d) v acc) st.slots IMap.empty
       | Any -> st.slots <- IMap.empty);
      st.c.(cd) <- res
    end
    else setc st cd res;
    { quiet with av_must = must }
  | CIncOffsetImm (cd, cb, d) ->
    let a = getc st cb in
    let must =
      if a.a_seal = Yes && a.a_tag = Yes then
        Some (K_cap Cap.Seal_violation, a.a_prov)
      else None
    in
    let res = inc_acap a d in
    if cd = Reg.csp && cb = Reg.csp then begin
      st.slots <-
        IMap.fold (fun k v acc -> IMap.add (k - d) v acc) st.slots IMap.empty;
      st.c.(cd) <- res
    end
    else setc st cd res;
    { quiet with av_must = must }
  | CSetAddr (cd, cb, rt) ->
    let a = getc st cb in
    let must =
      if a.a_seal = Yes && a.a_tag = Yes then
        Some (K_cap Cap.Seal_violation, a.a_prov)
      else None
    in
    let res =
      match a.a_conc, getg st rt with
      | Some cc, Cst v ->
        (match (try Some (Cap.set_addr cc v) with Cap.Cap_error _ -> None) with
         | Some cc' -> of_cap ~prov:a.a_prov cc'
         | None -> { a with a_conc = None })
      | _ -> unknown_addr_acap a
    in
    setc st cd res;
    { quiet with av_must = must }
  | CClearTag (cd, cb) ->
    let a = getc st cb in
    setc st cd
      { a with a_tag = No;
        a_conc = Option.map Cap.clear_tag a.a_conc };
    quiet
  | CFromPtr (cd, cb, rt) ->
    let src = if cb = 0 then st.ddc else getc st cb in
    let must =
      if src.a_tag = Yes && src.a_seal = Yes then
        Some (K_cap Cap.Seal_violation, src.a_prov)
      else None
    in
    let res =
      match src.a_conc, getg st rt with
      | Some cc, Cst v ->
        (match (try Some (Cap.from_ptr cc v) with Cap.Cap_error _ -> None) with
         | Some cc' -> of_cap ~prov:Lint.Int_derived cc'
         | None -> { top_acap with a_prov = Lint.Int_derived })
      | _ ->
        if src.a_tag = No then
          (* from_ptr on an untagged source returns an untagged NULL-based
             value without trapping. *)
          { a_tag = No; a_seal = No; a_must = Perms.none; a_may = Perms.none;
            a_win = None; a_eb = None; a_boff = None; a_topoff = None;
            a_prov = Lint.Int_derived; a_conc = None }
        else if src.a_tag = Yes then
          { (unknown_addr_acap src) with a_seal = No;
            a_prov = Lint.Int_derived }
        else { top_acap with a_prov = Lint.Int_derived }
    in
    setc st cd res;
    { quiet with av_must = must }
  | CSeal (cd, cb, ct) ->
    let a = getc st cb in
    let s = getc st ct in
    let must =
      match derive_must a with
      | Some _ as m -> m
      | None ->
        if s.a_tag = No then Some (K_cap Cap.Tag_violation, s.a_prov)
        else if s.a_seal = Yes then Some (K_cap Cap.Seal_violation, s.a_prov)
        else if not (Perms.has s.a_may Perms.seal) then
          Some (K_cap (Cap.Permit_violation Perms.seal), s.a_prov)
        else None
    in
    let res =
      match a.a_conc, s.a_conc with
      | Some ca, Some cs ->
        (match (try Some (Cap.seal ca ~with_:cs) with Cap.Cap_error _ -> None) with
         | Some cc -> of_cap ~prov:a.a_prov cc
         | None -> { a with a_seal = Yes; a_tag = Yes; a_conc = None })
      | _ -> { a with a_seal = Yes; a_tag = Yes; a_conc = None }
    in
    setc st cd res;
    { quiet with av_must = must }
  | CUnseal (cd, cb, ct) ->
    let a = getc st cb in
    let s = getc st ct in
    let must =
      if a.a_tag = No then Some (K_cap Cap.Tag_violation, a.a_prov)
      else if a.a_seal = No then Some (K_cap Cap.Seal_violation, a.a_prov)
      else if s.a_tag = No then Some (K_cap Cap.Tag_violation, s.a_prov)
      else if s.a_seal = Yes then Some (K_cap Cap.Seal_violation, s.a_prov)
      else if not (Perms.has s.a_may Perms.unseal) then
        Some (K_cap (Cap.Permit_violation Perms.unseal), s.a_prov)
      else None
    in
    let res =
      match a.a_conc, s.a_conc with
      | Some ca, Some cs ->
        (match (try Some (Cap.unseal ca ~with_:cs) with Cap.Cap_error _ -> None) with
         | Some cc -> of_cap ~prov:a.a_prov cc
         | None -> { a with a_seal = No; a_tag = Yes; a_conc = None })
      | _ -> { a with a_seal = No; a_tag = Yes; a_conc = None }
    in
    setc st cd res;
    { quiet with av_must = must }
  | CRRL (rd, rs) ->
    setg st rd
      (match getg st rs with
       | Cst v when v >= 0 -> Cst (Compress.crrl v)
       | _ -> Any);
    quiet
  | CRAM (rd, rs) ->
    setg st rd
      (match getg st rs with
       | Cst v when v >= 0 -> Cst (Compress.cram v)
       | _ -> Any);
    quiet
  | CReadDDC cd ->
    let must =
      if not (Perms.has env.e_pcc_may Perms.system_regs) then
        Some (K_cap (Cap.Permit_violation Perms.system_regs), Lint.Unknown)
      else None
    in
    setc st cd st.ddc;
    { quiet with av_must = must }
  | CWriteDDC cb ->
    let must =
      if not (Perms.has env.e_pcc_may Perms.system_regs) then
        Some (K_cap (Cap.Permit_violation Perms.system_regs), Lint.Unknown)
      else None
    in
    st.ddc <- getc st cb;
    { quiet with av_must = must }
  | Annot _ | Nop -> quiet
  | Beq _ | Bne _ | Blez _ | Bgtz _ | Bltz _ | Bgez _
  | J _ | Jal _ | Jr _ | Jalr _ | CJR _ | CJAL _ | CJALR _
  | Syscall | Break _ | Rt _ ->
    (* Terminators go through term_verdict. *)
    quiet

(* Terminator judgement. [`Must] claims hold whenever the instruction is
   reached in a state [st] describes; [`Warn] marks conditional branches
   to misaligned targets, which only trap when taken (the not-taken path
   retires fine), so they are reported as may-trap. *)
let term_verdict st (insn : Insn.t) =
  let misaligned t = t land 3 <> 0 in
  match insn with
  | Insn.Beq (_, _, t) | Bne (_, _, t) | Blez (_, t) | Bgtz (_, t)
  | Bltz (_, t) | Bgez (_, t) ->
    if misaligned t then `Warn (K_jump_align, Lint.Unknown) else `None
  | J t -> if misaligned t then `Must (K_jump_align, Lint.Unknown) else `None
  | Jal t | CJAL (_, t) ->
    if misaligned t then `Must (K_jump_align, Lint.Func) else `None
  | Jr rs | Jalr (_, rs) ->
    (match getg st rs with
     | Cst t when misaligned t -> `Must (K_jump_align, Lint.Unknown)
     | _ -> `None)
  | CJR cb | CJALR (_, cb) ->
    let a = getc st cb in
    if a.a_tag = No then `Must (K_cap Cap.Tag_violation, a.a_prov)
    else
      (match a.a_conc with
       | Some c when not (Cap.is_tagged c) ->
         `Must (K_cap Cap.Tag_violation, a.a_prov)
       | Some c when misaligned (Cap.addr c) -> `Must (K_jump_align, a.a_prov)
       | _ -> `None)
  | Syscall | Rt _ | Break _ -> `None
  | _ -> `None

(* --- Environment ----------------------------------------------------------- *)

let make_env ?ddc ?(pcc_may = Perms.all) () =
  let e_ddc =
    match ddc with
    | Some c ->
      of_cap ~prov:(if Cap.is_null c then Lint.Null else Lint.Unknown) c
    | None -> top_acap
  in
  { e_ddc; e_pcc_may = pcc_may }

(* --- Inert statistics shim -----------------------------------------------

   Nothing bumps these: the kernel runs no analysis. They stay, reading 0,
   only because simbench/simbench.ml still reads and resets them. *)

type cache_stats = {
  mutable cs_misses : int;
  mutable cs_lazy_sb : int;
}

let stats = { cs_misses = 0; cs_lazy_sb = 0 }

let reset_stats () =
  stats.cs_misses <- 0;
  stats.cs_lazy_sb <- 0

(* Inert: there is no fact cache. Kept only because simbench/simbench.ml
   still calls it. *)
let clear_fact_cache () = ()

(* --- Whole-image verification ---------------------------------------------- *)

type severity = Must | Warn

type diag = {
  g_pc : int;
  g_block : int;   (* containing basic-block entry *)
  g_fn : int;      (* containing function entry *)
  g_insn : string; (* Insn.to_string of the flagged instruction *)
  g_kind : string;
  g_sev : severity;
  g_msg : string;
}

let pp_diag d =
  Printf.sprintf "0x%06x: %s: %s: %s  [%s | fn 0x%x block 0x%x]" d.g_pc
    (match d.g_sev with Must -> "must-trap" | Warn -> "may-trap")
    d.g_kind d.g_msg d.g_insn d.g_fn d.g_block

type report = {
  r_diags : diag list;
  r_funcs : int;
  r_blocks : int;
  r_flow_sites : int;       (* distinct check pcs the flow pass reached *)
  r_flow_elided : int;      (* ... of which discharged *)
  r_discharged : int list;  (* discharged check pcs, ascending *)
  r_iters : int;            (* outer summary-worklist iterations *)
}

let kind_msg kind prov =
  let p =
    match prov with
    | Lint.Unknown | Lint.Bot -> ""
    | p -> Printf.sprintf " (%s capability)" (Lint.prov_name p)
  in
  (match kind with
   | K_cap Cap.Tag_violation -> "use of untagged capability"
   | K_cap Cap.Seal_violation -> "operation on sealed capability"
   | K_cap (Cap.Permit_violation p) ->
     Printf.sprintf "missing %s permission" (Perms.to_string p)
   | K_cap Cap.Bounds_violation -> "access provably out of bounds"
   | K_cap Cap.Length_violation -> "negative bounds length"
   | K_cap Cap.Monotonicity_violation -> "bounds derivation would widen rights"
   | K_cap Cap.Representability_violation -> "exact bounds not representable"
   | K_cap Cap.Alignment_violation -> "provably misaligned access"
   | K_jump_align -> "jump to misaligned target"
   | K_div -> "division traps (zero divisor or INT_MIN/-1)")
  ^ p

(* --- Path-sensitive branch refinement ---------------------------------------

   Block-local provenance of branch operands: which GPR currently holds
   the result of a [CGetTag]/[CGetLen] on some capability register, or of
   an unsigned bounds compare [Sltu k, len] against such a length. At the
   block's conditional terminator, each successor edge learns what the
   guard decided — the taken edge of [bnez (cgettag cb)] flows a state in
   which cb is tagged, the fall-through one in which it is not — and
   edges whose condition contradicts the abstract state are pruned as
   infeasible. *)

type borigin =
  | BTag of int           (* gpr = tag bit of creg *)
  | BLen of int           (* gpr = length of creg *)
  | BLtLen of int * int   (* gpr = (k <u length of creg), k >= 0 *)

let kill_borigin orig cd =
  let stale =
    Hashtbl.fold
      (fun r o acc ->
        match o with
        | BTag c | BLen c | BLtLen (_, c) -> if c = cd then r :: acc else acc)
      orig []
  in
  List.iter (Hashtbl.remove orig) stale

(* Learn tag(cb) = [expect]; false = the edge is infeasible. [a_conc]
   always pins the tag exactly ([of_cap]), so a contradicting refinement
   can only meet a [Maybe], where a_conc is already None. *)
let tag_refine st cb expect =
  let a = getc st cb in
  match a.a_tag, expect with
  | Yes, false | No, true -> false
  | _ ->
    refinec st cb
      (if expect then { a with a_tag = Yes } else { a with a_tag = No });
    true

(* Learn (k <u length cb) = true: length >= k+1, and with the exact base
   offset bo = addr - base the window [-bo, k+1-bo) is provably in
   bounds (lengths are never negative, so unsigned > is signed > here). *)
let ltlen_true st cb k =
  let a = getc st cb in
  match a.a_boff with
  | Some bo ->
    let lo = -bo and hi = k + 1 - bo in
    let win =
      match a.a_win with
      | Some (l, h) -> Some (min l lo, max h hi)
      | None -> Some (lo, hi)
    in
    refinec st cb { a with a_win = win }
  | None -> ()

(* Learn (k <u length cb) = false: length <= k, so top - addr <= k - bo. *)
let ltlen_false st cb k =
  let a = getc st cb in
  match a.a_boff with
  | Some bo ->
    let h = k - bo in
    let topoff =
      match a.a_topoff with Some t -> Some (min t h) | None -> Some h
    in
    refinec st cb { a with a_topoff = topoff }
  | None -> ()

(* Refine [st] (a private copy) along one edge of conditional terminator
   [tm]; [taken] selects the branch-taken edge. Returns false when the
   edge is infeasible under the abstract state. *)
let refine_edge st orig (tm : Insn.t) ~taken =
  let feas = ref true in
  let byorig r = Hashtbl.find_opt orig r in
  (match tm with
   | Insn.Beq (rs, rt, _) | Insn.Bne (rs, rt, _) ->
     let eq = match tm with Insn.Beq _ -> taken | _ -> not taken in
     (match getg st rs, getg st rt with
      | Cst a, Cst b -> if (a = b) <> eq then feas := false
      | _ -> ());
     if !feas then begin
       if eq then
         (match getg st rs, getg st rt with
          | Cst k, Any -> setg st rt (Cst k)
          | Any, Cst k -> setg st rs (Cst k)
          | _ -> ());
       let against_zero r other =
         if getg st other = Cst 0 then
           match byorig r with
           | Some (BTag cb) ->
             (* value = 0 <-> untagged *)
             if not (tag_refine st cb (not eq)) then feas := false
           | Some (BLtLen (k, cb)) ->
             if eq then ltlen_false st cb k else ltlen_true st cb k
           | _ -> ()
       in
       against_zero rs rt;
       against_zero rt rs
     end
   | Insn.Blez (rs, _) | Insn.Bgtz (rs, _) | Insn.Bltz (rs, _)
   | Insn.Bgez (rs, _) ->
     let holds = taken in
     (match getg st rs with
      | Cst v ->
        let c =
          match tm with
          | Insn.Blez _ -> v <= 0
          | Insn.Bgtz _ -> v > 0
          | Insn.Bltz _ -> v < 0
          | _ -> v >= 0
        in
        if c <> holds then feas := false
      | Any -> ());
     if !feas then
       (match byorig rs with
        | Some (BTag cb) ->
          (* tag in {0, 1} *)
          (match tm with
           | Insn.Blez _ ->
             if not (tag_refine st cb (not holds)) then feas := false
           | Insn.Bgtz _ -> if not (tag_refine st cb holds) then feas := false
           | Insn.Bltz _ -> if holds then feas := false
           | Insn.Bgez _ -> if not holds then feas := false
           | _ -> ())
        | Some (BLtLen (k, cb)) ->
          (* compare result in {0, 1} *)
          (match tm with
           | Insn.Blez _ ->
             if holds then ltlen_false st cb k else ltlen_true st cb k
           | Insn.Bgtz _ ->
             if holds then ltlen_true st cb k else ltlen_false st cb k
           | Insn.Bltz _ -> if holds then feas := false
           | Insn.Bgez _ -> if not holds then feas := false
           | _ -> ())
        | _ -> ())
   | _ -> ());
  !feas

(* Flow [st] through the straight-line body of [b], tracking branch-operand
   origins; returns (origins, terminator). [on_insn] sees every
   non-terminator verdict (diagnostics, counters). *)
let flow_block env ?(on_insn = fun _ _ _ -> ()) st (b : Cfg.bb) =
  let orig : (int, borigin) Hashtbl.t = Hashtbl.create 4 in
  let term = ref None in
  Array.iteri
    (fun i insn ->
      if Insn.is_terminator insn then term := Some insn
      else begin
        (* Compute the defined GPR's new origin from the *pre*-state (Sltu
           reads may be overwritten by its own destination). *)
        let gorig =
          match insn with
          | Insn.CGetTag (rd, cb) when rd <> 0 -> Some (rd, Some (BTag cb))
          | Insn.CGetLen (rd, cb) when rd <> 0 -> Some (rd, Some (BLen cb))
          | Insn.Sltu (rd, rs, rt) when rd <> 0 ->
            (match getg st rs, Hashtbl.find_opt orig rt with
             | Cst k, Some (BLen cb) when k >= 0 ->
               Some (rd, Some (BLtLen (k, cb)))
             | _ -> Some (rd, None))
          | Insn.Move (rd, rs) when rd <> 0 ->
            Some (rd, Hashtbl.find_opt orig rs)
          | _ ->
            (match Insn.gpr_def insn with
             | Some rd when rd <> 0 -> Some (rd, None)
             | _ -> None)
        in
        let v = step_st env st insn in
        on_insn (b.Cfg.bb_entry + (4 * i)) insn v;
        (match Insn.creg_def insn with
         | Some cd -> kill_borigin orig cd
         | None -> ());
        (match gorig with
         | Some (rd, Some o) -> Hashtbl.replace orig rd o
         | Some (rd, None) -> Hashtbl.remove orig rd
         | None -> ())
      end)
    b.Cfg.bb_insns;
  (orig, !term)

(* Per-successor output states of a flowed block: ordinary edges get a
   refined copy (or are pruned as infeasible), call fall-through edges go
   through the callee's summary — or the old full clobber when the callee
   is unknown (Jalr, unresolved CJALR, Syscall, Rt). *)
let succ_outs ~sums (b : Cfg.bb) st orig term =
  let fall = b.Cfg.bb_entry + (4 * Array.length b.Cfg.bb_insns) in
  let cond_target =
    match term with
    | Some
        (Insn.Beq (_, _, t) | Insn.Bne (_, _, t) | Insn.Blez (_, t)
        | Insn.Bgtz (_, t) | Insn.Bltz (_, t) | Insn.Bgez (_, t))
      when t <> fall ->
      Some t
    | _ -> None
  in
  List.filter_map
    (fun s ->
      match s with
      | Cfg.Seq t ->
        let out = copy_st st in
        let ok =
          match cond_target, term with
          | Some tgt, Some tm -> refine_edge out orig tm ~taken:(t = tgt)
          | _ -> true
        in
        if ok then Some (t, out) else None
      | Cfg.Ret_of t ->
        let out =
          match b.Cfg.bb_calls with
          | [ callee ] ->
            (match Hashtbl.find_opt sums callee with
             | Some su -> apply_summary st su
             | None -> Some (clobber_after_call st))
          | _ -> Some (clobber_after_call st)
        in
        Option.map (fun o -> (t, o)) out)
    b.Cfg.bb_succs

type fn_result = {
  fr_sum : summary;
  fr_checks : (int * bool) list;  (* check pcs swept, and whether the
                                     stabilized state discharges each *)
}

(* Fixpoint + post-convergence sweep for one function. [sums] supplies
   callee summaries (an empty table degrades every call to the clobber).
   Diagnostics and counters are only collected after the block input
   states have stabilized: states rise monotonically during iteration, so
   a must-trap provable from an early state can be invalidated by a later
   join. The sweep also recomputes the function's own summary: exit
   states join over return terminators ([jr ra] / [cjr cra]) and over
   summary-composed tail transfers (jumps and branches into other
   function roots); returns through any other register poison the
   summary (the exit state would not describe where control goes). *)
let analyze_fn ?emit env ~sums cfg root members =
  let in_states : (int, st) Hashtbl.t = Hashtbl.create 16 in
  let join_counts : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let member = Hashtbl.create 16 in
  List.iter (fun b -> Hashtbl.replace member b ()) members;
  let entry_st =
    let st = fresh_st env in
    st.c.(Reg.csp) <- { top_acap with a_prov = Lint.Stack };
    st.c.(Reg.cgp) <- { top_acap with a_prov = Lint.Global };
    st.c.(Reg.cra) <- { top_acap with a_prov = Lint.Func };
    st
  in
  Hashtbl.replace in_states root entry_st;
  let work = Queue.create () in
  Queue.add root work;
  let steps = ref 0 in
  while (not (Queue.is_empty work)) && !steps < 20_000 do
    incr steps;
    let e = Queue.pop work in
    match Cfg.block_of cfg e, Hashtbl.find_opt in_states e with
    | Some b, Some ist ->
      let st = copy_st ist in
      let orig, term = flow_block env st b in
      List.iter
        (fun (t, out) ->
          if Hashtbl.mem member t then
            match Hashtbl.find_opt in_states t with
            | None ->
              Hashtbl.replace in_states t (copy_st out);
              Queue.add t work
            | Some cur ->
              let jc =
                match Hashtbl.find_opt join_counts t with
                | Some n -> n
                | None -> 0
              in
              let joined, changed = join_st ~widen:(jc > 8) cur out in
              if changed then begin
                Hashtbl.replace in_states t joined;
                Hashtbl.replace join_counts t (jc + 1);
                Queue.add t work
              end)
        (succ_outs ~sums b st orig term)
    | _ -> ()
  done;
  (* Post-convergence sweep: diagnostics, counters, and this function's
     summary (write effects + exit state). *)
  let sum = su_bottom () in
  let wcreg r = if r <> 0 then sum.su_writes <- sum.su_writes lor (1 lsl r) in
  let wgpr r = if r <> 0 then sum.su_gwrites <- sum.su_gwrites lor (1 lsl r) in
  let clobber_effect () =
    sum.su_writes <- sum.su_writes lor (lnot (1 lsl Reg.csp) land 0xffff_fffe);
    sum.su_gwrites <- sum.su_gwrites lor 0xffff_fffe;
    sum.su_stores <- true
  in
  let callee_effect t =
    match Hashtbl.find_opt sums t with
    | Some su when not su.su_poison ->
      sum.su_writes <- sum.su_writes lor su.su_writes;
      sum.su_gwrites <- sum.su_gwrites lor su.su_gwrites;
      if su.su_stores then sum.su_stores <- true
    | _ -> clobber_effect ()
  in
  let add_exit stx =
    match sum.su_exit with
    | None -> sum.su_exit <- Some (copy_st stx)
    | Some cur ->
      sum.su_exit_joins <- sum.su_exit_joins + 1;
      let j, _ = join_st ~widen:(sum.su_exit_joins > 8) cur stx in
      sum.su_exit <- Some j
  in
  let checks = ref [] in
  List.iter
    (fun e ->
      match Cfg.block_of cfg e with
      | None -> ()
      | Some b ->
        (* Syntactic write effects accumulate over every member block,
           reachable or not — the summary must cover any path a caller
           could exercise. *)
        Array.iter
          (fun insn ->
            (match Insn.creg_def insn with Some cd -> wcreg cd | None -> ());
            (match Insn.gpr_def insn with Some rd -> wgpr rd | None -> ());
            match insn with
            | Insn.Store _ | Insn.CStore _ | Insn.CSC _ ->
              sum.su_stores <- true
            | _ -> ())
          b.Cfg.bb_insns;
        let has_ret_of =
          List.exists
            (function Cfg.Ret_of _ -> true | Cfg.Seq _ -> false)
            b.Cfg.bb_succs
        in
        if has_ret_of && b.Cfg.bb_calls = [] then clobber_effect ()
        else List.iter callee_effect b.Cfg.bb_calls;
        (match Hashtbl.find_opt in_states e with
         | None -> ()
         | Some ist ->
           let st = copy_st ist in
           let on_insn pc insn v =
             if v.av_site then checks := (pc, v.av_elide) :: !checks;
             match emit, v.av_must with
             | Some emit, Some (k, p) ->
               emit ~fn:root ~block:e ~pc ~sev:Must ~kind:k ~prov:p insn
             | _ -> ()
           in
           let orig, term = flow_block env ~on_insn st b in
           (match term, emit with
            | Some tm, Some emit ->
              let pc = b.Cfg.bb_entry + (4 * (Array.length b.Cfg.bb_insns - 1)) in
              (match term_verdict st tm with
               | `Must (k, p) ->
                 emit ~fn:root ~block:e ~pc ~sev:Must ~kind:k ~prov:p tm
               | `Warn (k, p) ->
                 emit ~fn:root ~block:e ~pc ~sev:Warn ~kind:k ~prov:p tm
               | `None -> ())
            | _ -> ());
           (match term with
            | Some (Insn.Jr r) when r = Reg.ra -> add_exit st
            | Some (Insn.CJR c) when c = Reg.cra -> add_exit st
            | Some (Insn.Jr _ | Insn.CJR _) -> sum.su_poison <- true
            | Some (Insn.J t) when b.Cfg.bb_calls = [ t ] ->
              (* Tail call: this function's exit is the callee's exit
                 composed with the transfer state. *)
              (match Hashtbl.find_opt sums t with
               | Some su -> Option.iter add_exit (apply_summary st su)
               | None -> add_exit (clobber_after_call st))
            | _ -> ());
           (* Conditional or fall-through transfers into another function
              root are tail transfers too. *)
           List.iter
             (fun (t, out) ->
               if not (Hashtbl.mem member t) then
                 match Hashtbl.find_opt sums t with
                 | Some su -> Option.iter add_exit (apply_summary out su)
                 | None -> add_exit (clobber_after_call out))
             (succ_outs ~sums b st orig term)))
    members;
  { fr_sum = sum; fr_checks = !checks }

(* Whole-image summary fixpoint: bottom-start ascending worklist over
   function roots, re-queuing callers (and tail-callers) whenever a
   summary grows. The iteration budget is a soundness backstop, not a
   tuning knob: a truncated ascent is not a fixpoint, so overrunning it
   poisons every summary back to the pessimistic clobber. *)
let summarize env cfg =
  let sums : (int, summary) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun (root, _) -> Hashtbl.replace sums root (su_bottom ()))
    cfg.Cfg.funcs;
  let callers : (int, int list) Hashtbl.t = Hashtbl.create 16 in
  let add_caller callee caller =
    let cur =
      match Hashtbl.find_opt callers callee with Some l -> l | None -> []
    in
    if not (List.mem caller cur) then
      Hashtbl.replace callers callee (caller :: cur)
  in
  List.iter
    (fun (root, members) ->
      List.iter
        (fun e ->
          match Cfg.block_of cfg e with
          | None -> ()
          | Some b ->
            List.iter
              (fun t -> if Hashtbl.mem sums t then add_caller t root)
              b.Cfg.bb_calls;
            List.iter
              (function
                | Cfg.Seq t when t <> root && Hashtbl.mem sums t ->
                  add_caller t root
                | _ -> ())
              b.Cfg.bb_succs)
        members)
    cfg.Cfg.funcs;
  let work = Queue.create () in
  let queued = Hashtbl.create 16 in
  let enqueue r =
    if not (Hashtbl.mem queued r) then begin
      Hashtbl.replace queued r ();
      Queue.add r work
    end
  in
  List.iter (fun (root, _) -> enqueue root) cfg.Cfg.funcs;
  let nfuncs = List.length cfg.Cfg.funcs in
  let budget = ref (20 * max 1 nfuncs) in
  let iters = ref 0 in
  let overflow = ref false in
  while not (Queue.is_empty work) do
    if !budget <= 0 then begin
      overflow := true;
      Queue.clear work
    end
    else begin
      decr budget;
      incr iters;
      let root = Queue.pop work in
      Hashtbl.remove queued root;
      match List.assoc_opt root cfg.Cfg.funcs with
      | None -> ()
      | Some members ->
        let r = analyze_fn env ~sums cfg root members in
        let old = Hashtbl.find sums root in
        if join_summary old r.fr_sum then
          List.iter enqueue
            (match Hashtbl.find_opt callers root with
             | Some l -> l
             | None -> [])
    end
  done;
  if !overflow then Hashtbl.iter (fun _ su -> su.su_poison <- true) sums;
  (sums, !iters)

(* The linkage view [verify] recovers the CFG from, for a linked image:
   function entry points (the exec entry plus every exported function) and
   the GOT map (byte offset -> resolved function entry), which lets the
   CFG turn CJALR through a constant GOT slot into a real call edge.
   Sorted, so equal links give equal views. *)
let linkage (link : Cheri_rtld.Rtld.t) =
  let module Rtld = Cheri_rtld.Rtld in
  let entries =
    link.Rtld.lk_entry
    :: Hashtbl.fold
         (fun _ def acc ->
           match def with
           | Rtld.Dfunc (_, addr) -> addr :: acc
           | Rtld.Ddata _ | Rtld.Dtls _ -> acc)
         link.Rtld.lk_symtab []
    |> List.sort_uniq compare
  in
  let got =
    List.filter_map
      (fun (name, off) ->
        match Hashtbl.find_opt link.Rtld.lk_symtab name with
        | Some (Rtld.Dfunc (_, addr)) -> Some (off, addr)
        | _ -> None)
      link.Rtld.lk_got
    |> List.sort compare
  in
  (entries, got)

let verify ?ddc ?pcc_may ?(got = []) ~entries regions =
  let env = make_env ?ddc ?pcc_may () in
  let cfg = Cfg.build ~entries ~got regions in
  let sums, iters = summarize env cfg in
  let seen = Hashtbl.create 64 in
  let diags = ref [] in
  let emit ~fn ~block ~pc ~sev ~kind ~prov insn =
    let kname = kind_name kind in
    let key = (pc, kname, sev) in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      diags :=
        { g_pc = pc; g_block = block; g_fn = fn;
          g_insn = Insn.to_string insn; g_kind = kname; g_sev = sev;
          g_msg = kind_msg kind prov }
        :: !diags
    end
  in
  (* A block reachable from two function roots is swept once per root: its
     check is discharged only when every sweep discharges it. *)
  let checks : (int, bool) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun (root, members) ->
      let r = analyze_fn ~emit env ~sums cfg root members in
      List.iter
        (fun (pc, ok) ->
          let prev = Option.value (Hashtbl.find_opt checks pc) ~default:true in
          Hashtbl.replace checks pc (prev && ok))
        r.fr_checks)
    cfg.Cfg.funcs;
  let discharged =
    Hashtbl.fold (fun pc ok acc -> if ok then pc :: acc else acc) checks []
    |> List.sort compare
  in
  let diags =
    List.sort
      (fun a b ->
        match compare a.g_pc b.g_pc with 0 -> compare a.g_kind b.g_kind | c -> c)
      !diags
  in
  { r_diags = diags;
    r_funcs = List.length cfg.Cfg.funcs;
    r_blocks = List.length cfg.Cfg.order;
    r_flow_sites = Hashtbl.length checks;
    r_flow_elided = List.length discharged;
    r_discharged = discharged;
    r_iters = iters }

(* Inert: the kernel never calls a fact provider, and this one does
   nothing. Kept, with its labels, only because simbench/simbench.ml
   still installs it (Kstate.config.fact_provider). *)
let provider ()
    ~image:(_ : Cheri_rtld.Sobj.image) ~ddc:(_ : Cap.t)
    ~entries:(_ : int list) ~got:(_ : (int * int) list)
    (_ : (int * Insn.t array) list) =
  ()
