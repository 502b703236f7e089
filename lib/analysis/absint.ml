(* Machine-level abstract interpretation of capability code.

   Two consumers, one transfer function:

   - [verify]: recover a CFG (cfg.ml) from a loaded image and run a
     forward fixpoint per function over an abstract capability domain,
     emitting located diagnostics for statically provable capability
     violations (untagged use, provable out-of-bounds, missing
     permission, sealed dereference, monotonicity-violating derivation,
     unaligned jump targets, division by zero). Surfaced through
     [cheri_run --verify] and the bin/cheri_verify corpus driver.

   - [scan_code] / [facts_of_code]: a per-superblock pass producing the
     check-elision fact table the block engine consumes (Facts,
     bbcache.ml). A fact (entry, i) means: *if* execution proceeds
     straight-line from [entry] through instruction [i], the capability
     check guarding [i]'s memory access cannot fail. Each superblock is
     analyzed from a Top entry state (only a concrete DDC and PCC
     permission bound are assumed), so the claim holds no matter how
     control reached [entry] — wild indirect jumps included. The same
     pass computes the dual "must-trap" table the soundness oracle in
     test/test_absint.ml replays dynamically.

   The domain tracks, per capability register (and per csp-relative spill
   slot in [verify]'s trusted mode): tag and seal as three-valued facts,
   lower/upper permission sets, a proven cursor-relative in-bounds window,
   exact cursor/bounds offsets when derivations pin them, an upper bound
   on top-addr, a provenance tag reusing PR 2's lattice (Lint.prov), and
   the fully concrete value when a derivation chain from a constant root
   (DDC, NULL) determines it. See docs/ABSINT.md. *)

module Cap = Cheri_cap.Cap
module Perms = Cheri_cap.Perms
module Compress = Cheri_cap.Compress
module Insn = Cheri_isa.Insn
module Reg = Cheri_isa.Reg
module Facts = Cheri_isa.Facts
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
   reached (straight-line from the block entry); [`Warn] marks conditional
   branches to misaligned targets, which only trap when taken — excluded
   from the must-trap oracle since the not-taken path retires fine. *)
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

(* --- Superblock scan (elision facts + must-trap table) --------------------- *)

type scan = {
  sc_facts : Facts.t;
  sc_must : (int, int) Hashtbl.t;  (* entry pc -> must-trap bitmask *)
  sc_sites : int;                  (* elidable check sites visited *)
  sc_elided : int;                 (* ... of which discharged *)
  sc_guarded : int;                (* further checks elidable under guard *)
  sc_cert_sb : int;                (* superblocks with a nonempty tier-3
                                      certificate *)
  sc_cert_insns : int;             (* total certified-prefix instructions *)
  sc_runs : int;                   (* access runs across all certificates *)
  sc_run_accesses : int;           (* accesses covered by those runs *)
  sc_cert_hist : int array;        (* prefix-length histogram, 8 buckets:
                                      0, 1-8, 9-16, ..., 49+ *)
}

(* Histogram bucket for a certified-prefix length. *)
let cert_bucket p = if p <= 0 then 0 else min 7 ((p + 7) / 8)

let make_env ?ddc ?(pcc_may = Perms.all) () =
  let e_ddc =
    match ddc with
    | Some c ->
      of_cap ~prov:(if Cap.is_null c then Lint.Null else Lint.Unknown) c
    | None -> top_acap
  in
  { e_ddc; e_pcc_may = pcc_may }

(* --- Analysis-cost statistics ----------------------------------------------

   Global, resettable counters for the fact-cache/lazy-analysis machinery:
   how many provider calls hit the image-keyed cache, and how many
   superblock fixpoints actually ran, split by whether they were paid up
   front (eager [scan_code]) or on first decode (lazy tables). Surfaced by
   bench/main.ml and BENCH_simulator.json. *)

type cache_stats = {
  mutable cs_hits : int;       (* provider calls answered from the cache *)
  mutable cs_misses : int;     (* provider calls that ran (or deferred) analysis *)
  mutable cs_eager_sb : int;   (* superblock fixpoints run eagerly *)
  mutable cs_lazy_sb : int;    (* superblock fixpoints run on first decode *)
  mutable cs_lazy_gsb : int;   (* guarded pre-scans that re-ran a fixpoint
                                  (0 since the combined resolver serves
                                  both tiers from one scan) *)
  mutable cs_funcs : int;      (* functions summarized (interprocedural) *)
  mutable cs_iters : int;      (* interprocedural worklist iterations *)
  mutable cs_cert_sb : int;    (* lazily-resolved superblocks with a
                                  nonempty tier-3 certificate *)
  mutable cs_cert_insns : int; (* ... total certified-prefix instructions *)
}

let stats = { cs_hits = 0; cs_misses = 0; cs_eager_sb = 0; cs_lazy_sb = 0;
              cs_lazy_gsb = 0; cs_funcs = 0; cs_iters = 0;
              cs_cert_sb = 0; cs_cert_insns = 0 }

(* Certified-prefix length histogram over lazily-resolved superblocks
   (same buckets as [sc_cert_hist]; bucket 0 counts uncertified blocks).
   Guarded by [stats_lock] like the counters above. *)
let lazy_cert_hist = Array.make 8 0

(* Domain safety: the image-keyed memo tables below are shared by reference
   across the fleet's domains (each domain's kernel calls the provider),
   and [stats] is bumped from lazy resolvers running inside any domain's
   block build. [cache_lock] serializes table lookups/inserts and forces;
   [stats_lock] serializes counter updates. They are distinct locks because
   forcing a cached IPA thunk under [cache_lock] re-enters the summarizer,
   which bumps counters — with one (non-reentrant) lock that would
   self-deadlock. Ordering is always cache_lock -> stats_lock, or either
   alone; never the reverse. Reading [stats] fields directly stays lock-free
   and is meaningful once domains have been joined. *)
let cache_lock = Mutex.create ()
let stats_lock = Mutex.create ()
let bump f = Mutex.protect stats_lock f

let reset_stats () =
  bump (fun () ->
      stats.cs_hits <- 0;
      stats.cs_misses <- 0;
      stats.cs_eager_sb <- 0;
      stats.cs_lazy_sb <- 0;
      stats.cs_lazy_gsb <- 0;
      stats.cs_funcs <- 0;
      stats.cs_iters <- 0;
      stats.cs_cert_sb <- 0;
      stats.cs_cert_insns <- 0;
      Array.fill lazy_cert_hist 0 (Array.length lazy_cert_hist) 0)

(* Per-instruction trap classification against the abstract pre-state, for
   the tier-3 certificate scan:
   - [0] — proven unable to raise any trap: pure ALU/inspection forms
     never trap; Div/Rem with a constant nonzero divisor (and no
     min_int/-1 overflow) cannot; cursor moves ([set_addr]-family) only
     trap on a *tagged sealed* source, so a proven-untagged or
     proven-unsealed source is safe (an unrepresentable move clears the
     tag instead of trapping); [and_perms] needs tagged *and* unsealed;
     set-bounds is safe only when fully concrete and the concrete
     derivation succeeds.
   - [1] — a data access: certified separately (its capability check must
     be discharged by tiers 1-2), and it stays a *repair point* for the
     residual dynamic faults (page fault, alignment, CSC value checks).
   - [2] — not proven trap-free here. The certificate scan may still
     rescue cursor moves whose source chains back to a tier-2-guarded
     entry register (the guard proves the entry value tagged and
     unsealed, and derived values stay unsealed). *)
let insn_trap_class st (insn : Insn.t) =
  match insn with
  | Insn.Li _ | Move _ | Addu _ | Addiu _ | Subu _ | Mul _
  | And_ _ | Andi _ | Or_ _ | Ori _ | Xor_ _ | Xori _ | Nor_ _
  | Sll _ | Srl _ | Sra _ | Sllv _ | Srlv _ | Srav _
  | Slt _ | Sltu _ | Slti _ | Sltiu _
  | CMove _ | CGetBase _ | CGetLen _ | CGetAddr _ | CGetOffset _
  | CGetPerm _ | CGetTag _ | CGetType _ | CClearTag _
  | CRRL _ | CRAM _ | Annot _ | Nop -> 0
  | Div (_, rs, rt) | Rem (_, rs, rt) ->
    (match getg st rt with
     | Cst y when y <> 0
               && (y <> -1
                   || (match getg st rs with
                       | Cst x -> x <> min_int
                       | Any -> false)) -> 0
     | _ -> 2)
  | Load _ | Store _ | CLoad _ | CStore _ | CLC _ | CSC _ -> 1
  | CIncOffset (_, cb, _) | CIncOffsetImm (_, cb, _) | CSetAddr (_, cb, _) ->
    let a = getc st cb in
    if a.a_seal = No || a.a_tag = No then 0 else 2
  | CFromPtr (_, cb, _) ->
    let src = if cb = 0 then st.ddc else getc st cb in
    if src.a_tag = No || src.a_seal = No then 0 else 2
  | CAndPerm (_, cb, _) | CAndPermImm (_, cb, _) ->
    let a = getc st cb in
    if a.a_tag = Yes && a.a_seal = No then 0 else 2
  | CSetBounds (_, cb, rt) | CSetBoundsExact (_, cb, rt) ->
    let a = getc st cb in
    (match a.a_conc, getg st rt with
     | Some cc, Cst l ->
       let exact = (match insn with Insn.CSetBoundsExact _ -> true | _ -> false) in
       (match (try ignore (Cap.set_bounds ~exact cc ~len:l); true
               with Cap.Cap_error _ -> false) with
        | true -> 0
        | false -> 2)
     | _ -> 2)
  | CSetBoundsImm (_, cb, l) ->
    let a = getc st cb in
    (match a.a_conc with
     | Some cc ->
       (match (try ignore (Cap.set_bounds ~exact:false cc ~len:l); true
               with Cap.Cap_error _ -> false) with
        | true -> 0
        | false -> 2)
     | None -> 2)
  | _ -> 2

(* One superblock fixpoint: the straight-line scan the block engine's
   decoded blocks mirror, from a Top state at instruction index [e] of the
   region at [base], bounded by [Bbcache.max_block]. Returns the elision
   bitmask, the must-trap bitmask, the (sites, elided) counts, and the
   per-instruction trap classes (for the tier-3 certificate scan; indices
   past the scanned body keep the conservative class 2). This is the unit
   of work both the eager whole-image scan and the lazy pull-through table
   share. *)
let scan_superblock env insns ~e =
  let n = Array.length insns in
  let st = fresh_st env in
  let fmask = ref 0 and mmask = ref 0 in
  let sites = ref 0 and elided = ref 0 in
  let tcls = Array.make Cheri_isa.Bbcache.max_block 2 in
  let set m i = if i >= 0 && i <= Facts.max_index then m := !m lor (1 lsl i) in
  let i = ref 0 in
  let stop = ref false in
  while (not !stop) && !i < Cheri_isa.Bbcache.max_block && e + !i < n do
    let insn = insns.(e + !i) in
    if Insn.is_terminator insn then begin
      (match term_verdict st insn with
       | `Must _ -> set mmask !i
       | `Warn _ | `None -> ());
      stop := true
    end
    else begin
      (* Classified against the pre-state: [step_st] mutates [st]. *)
      tcls.(!i) <- insn_trap_class st insn;
      let v = step_st env st insn in
      if v.av_site then incr sites;
      if v.av_elide then begin
        incr elided;
        set fmask !i
      end;
      if v.av_must <> None then set mmask !i;
      incr i
    end
  done;
  (!fmask, !mmask, !sites, !elided, tcls)

(* --- Guarded-fact pre-scan (tier 2) ----------------------------------------

   The Top-entry superblock scan above can never discharge an access whose
   authorizing capability flows in from outside the block — which is most
   of them: the first stack spill of a block, loads through a pointer that
   was already in a register at entry, GOT loads through the global
   pointer. The guarded tier handles exactly those: a demand-driven
   straight-line pre-scan tracks, for each capability register, whether its
   current value is the *entry* value of some register moved by an exactly
   known byte delta (CMove / CIncOffset with constant offsets), and for
   each GPR an exact integer delta from an entry GPR (Li/Move/Addiu and
   friends). Every access whose authorizing value traces back to an entry
   register demands a [Facts.gpred] on that register: tagged, unsealed,
   carrying the accessed permissions, with a bounds window hulling every
   access footprint *and every intermediate cursor position* of the chain
   (a cursor move outside the representable window would strip the tag
   mid-chain; window ⊆ [base, top] keeps every [Cap.set_addr] on the chain
   tagged, so entry-time validity is sufficient). Legacy (DDC-relative)
   accesses through a tracked GPR demand the DDC form instead, dead after
   any [CWriteDDC] in the prefix.

   Soundness is by construction and entirely independent of the
   interprocedural layer: the predicate conjunction is evaluated against
   the real register file at every block entry (bbcache), and a guard that
   holds implies every guarded check passes. Wild control flow at worst
   makes guards fail, which falls back to the exact path.

   This is also what discharges strided loops: the loop body is a block,
   its guard is evaluated once per iteration (the "one loop-entry
   predicate"), and the hulled window covers the whole per-iteration
   footprint including the stride update, so every in-loop check is
   elided while the trip count stays inside the proven bounds — and the
   first out-of-bounds iteration fails the guard and takes the exact
   path, which traps exactly where the machine would. *)

type corigin = Oent of int * int | Onone       (* entry creg, cursor delta *)
type gorigin = Gent of int * int | Gcst of int | Gnone

type gdemand = {
  mutable dm_perms : int;
  mutable dm_lo : int;          (* window hull, inclusive cursor offsets *)
  mutable dm_hi : int;
  mutable dm_bits : int;        (* fact bits this predicate licenses *)
}

(* At most this many predicates per entry: the mask is all-or-nothing (one
   compiled body per block), so a rarely-valid predicate would also forfeit
   the common ones. Compiled blocks rarely derive from more than two or
   three distinct entry registers. *)
let max_gpreds = 4

let guard_scan ~ddc_dead insns ~e ~fmask =
  let n = Array.length insns in
  let co = Array.init 32 (fun r -> if r = 0 then Onone else Oent (r, 0)) in
  let go = Array.make 32 Gnone in
  for r = 1 to 31 do go.(r) <- Gent (r, 0) done;
  let readg r = if r = 0 then Gcst 0 else go.(r) in
  let cdem : (int, gdemand) Hashtbl.t = Hashtbl.create 8 in
  let ddem : (int, gdemand) Hashtbl.t = Hashtbl.create 4 in
  let ddc_alive = ref (not ddc_dead) in
  let dem tbl r0 =
    match Hashtbl.find_opt tbl r0 with
    | Some d -> d
    | None ->
      let d = { dm_perms = 0; dm_lo = max_int; dm_hi = min_int; dm_bits = 0 } in
      Hashtbl.add tbl r0 d;
      d
  in
  let hull d lo hi =
    if lo < d.dm_lo then d.dm_lo <- lo;
    if hi > d.dm_hi then d.dm_hi <- hi
  in
  let cap_access idx cb perm off len =
    if (fmask lsr idx) land 1 = 0 && idx <= Facts.max_index then
      match co.(cb) with
      | Oent (r0, d) ->
        let dm = dem cdem r0 in
        dm.dm_perms <- dm.dm_perms lor perm;
        hull dm (d + off) (d + off + len);
        dm.dm_bits <- dm.dm_bits lor (1 lsl idx)
      | Onone -> ()
  in
  let legacy_access idx base perm off len =
    if (fmask lsr idx) land 1 = 0 && idx <= Facts.max_index && !ddc_alive then
      match readg base with
      | Gent (g0, d) ->
        let dm = dem ddem g0 in
        dm.dm_perms <- dm.dm_perms lor perm;
        hull dm (d + off) (d + off + len);
        dm.dm_bits <- dm.dm_bits lor (1 lsl idx)
      | Gcst _ | Gnone -> ()
  in
  (* Every retargeting of a tracked chain hulls the new cursor position
     into the entry register's window, so the guard also proves that no
     intermediate [set_addr] on the chain strips the tag. *)
  let move_cursor r0 d' = let dm = dem cdem r0 in hull dm d' d' in
  let i = ref e in
  let stop = ref false in
  while (not !stop) && !i - e < Cheri_isa.Bbcache.max_block && !i < n do
    let insn = insns.(!i) in
    if Insn.is_terminator insn then stop := true
    else begin
      let idx = !i - e in
      (match insn with
       | Insn.CLoad { w; rd; cb; off; _ } ->
         cap_access idx cb Perms.load off w;
         if rd <> 0 then go.(rd) <- Gnone
       | Insn.CStore { w; cb; off; _ } -> cap_access idx cb Perms.store off w
       | Insn.CLC { cd; cb; off } ->
         cap_access idx cb Perms.load off Cap.sizeof;
         co.(cd) <- Onone
       | Insn.CSC { cb; off; _ } -> cap_access idx cb Perms.store off Cap.sizeof
       | Insn.Load { w; rd; base; off; _ } ->
         legacy_access idx base Perms.load off w;
         if rd <> 0 then go.(rd) <- Gnone
       | Insn.Store { w; base; off; _ } -> legacy_access idx base Perms.store off w
       | Insn.CMove (cd, cb) -> if cd <> 0 then co.(cd) <- co.(cb)
       | Insn.CIncOffsetImm (cd, cb, imm) ->
         let p =
           match co.(cb) with
           | Oent (r0, d) -> let d' = d + imm in move_cursor r0 d'; Oent (r0, d')
           | Onone -> Onone
         in
         if cd <> 0 then co.(cd) <- p
       | Insn.CIncOffset (cd, cb, rt) ->
         let p =
           match co.(cb), readg rt with
           | Oent (r0, d), Gcst k -> let d' = d + k in move_cursor r0 d'; Oent (r0, d')
           | _ -> Onone
         in
         if cd <> 0 then co.(cd) <- p
       | Insn.CWriteDDC _ -> ddc_alive := false
       | Insn.Li (rd, v) -> if rd <> 0 then go.(rd) <- Gcst v
       | Insn.Move (rd, rs) -> if rd <> 0 then go.(rd) <- readg rs
       | Insn.Addiu (rd, rs, k) ->
         if rd <> 0 then
           go.(rd) <- (match readg rs with
             | Gent (g, d) -> Gent (g, d + k)
             | Gcst c -> Gcst (c + k)
             | Gnone -> Gnone)
       | Insn.Addu (rd, rs, rt) ->
         if rd <> 0 then
           go.(rd) <- (match readg rs, readg rt with
             | Gent (g, d), Gcst c | Gcst c, Gent (g, d) -> Gent (g, d + c)
             | Gcst a, Gcst b -> Gcst (a + b)
             | _ -> Gnone)
       | Insn.Subu (rd, rs, rt) ->
         if rd <> 0 then
           go.(rd) <- (match readg rs, readg rt with
             | Gent (g, d), Gcst c -> Gent (g, d - c)
             | Gcst a, Gcst b -> Gcst (a - b)
             | _ -> Gnone)
       | _ ->
         (match Insn.creg_def insn with
          | Some cd -> if cd <> 0 then co.(cd) <- Onone
          | None -> ());
         (match Insn.gpr_def insn with
          | Some rd -> if rd <> 0 then go.(rd) <- Gnone
          | None -> ()));
      incr i
    end
  done;
  let cands =
    Hashtbl.fold
      (fun r0 dm acc ->
        if dm.dm_bits <> 0 then (false, r0, dm) :: acc else acc)
      cdem []
    @ Hashtbl.fold
        (fun g0 dm acc ->
          if dm.dm_bits <> 0 then (true, g0, dm) :: acc else acc)
        ddem []
  in
  let cands =
    List.sort
      (fun (_, ra, a) (_, rb, b) ->
        match compare (Facts.popcount b.dm_bits) (Facts.popcount a.dm_bits) with
        | 0 -> compare ra rb
        | c -> c)
      cands
  in
  let rec take k = function
    | [] -> []
    | _ when k = 0 -> []
    | x :: rest -> x :: take (k - 1) rest
  in
  let kept = take max_gpreds cands in
  let gmask = List.fold_left (fun m (_, _, dm) -> m lor dm.dm_bits) 0 kept in
  let preds =
    List.map
      (fun (is_ddc, r0, dm) ->
        { Facts.gp_reg = r0; gp_ddc = is_ddc; gp_perms = dm.dm_perms;
          gp_lo = dm.dm_lo; gp_hi = dm.dm_hi })
      kept
    |> Array.of_list
  in
  (gmask land lnot fmask, preds)

(* --- Tier-3 certificate scan ------------------------------------------------

   Computes a [Facts.cert] for one superblock from the combined elision
   mask ([emask = fmask lor gmask] — exactly the bits the compiled body
   elides when it runs), the guard predicates, and the per-instruction
   trap classes of the Top-entry fixpoint.

   Trap-freedom prefix: the maximal body prefix in which every instruction
   is class 0 (cannot trap at all), a data access (always acceptable: the
   access closure is a *repair point* — the engine records the exact
   instruction index before it runs, so its dynamic faults — a failed
   capability check, page fault, alignment, CSC value checks — trap with
   exact attribution whether or not the check was discharged), or a
   cursor move rescued by a tier-2 guard:
   if the source capability chains back (through the same CMove /
   constant-offset moves tier 2 tracks) to an entry register carrying a
   capability-form predicate, the guard proves the entry value tagged and
   unsealed — derived values stay unsealed (cursor moves preserve the
   otype), and [Cap.set_addr] only traps on tagged *sealed* sources, so
   the move cannot trap whenever the body runs at all. [Cap.and_perms]
   additionally needs the tag, which the guard also preserves: its window
   hulls every tracked intermediate cursor position (see [move_cursor]),
   so no move on the chain can have stripped it. The claims are
   conditional on the guard exactly like the guarded mask itself: the
   engine never runs the compiled body when the guard fails.

   Access runs: maximal sequences of *consecutive* data accesses (no other
   memory operation between members — this is what guarantees the head's
   DL1 line cannot be evicted before the last member probes it), all
   within the certified prefix, within one instruction-line group (the
   fused-dispatch unit), homogeneous in kind (all reads or all writes, so
   one translation covers COW/dirty semantics for the whole run), whose
   addresses are exact syntactic deltas from one chain: capability
   accesses through the same tracked entry register, legacy accesses
   through the same tracked entry GPR, or absolute (constant-address)
   accesses. The run proof is purely about the *address*: follower
   closures still evaluate their capability check (unless elided),
   alignment check and CSC value checks at runtime on the syntactically
   recomputed vaddr — what they skip is the translate and the cache
   probe, which the delta identity and the head's translation make
   redundant. The hulled window [ar_lo, ar_hi) spans at most one 64-byte
   line; whether the physical window actually sits inside a single line
   is rechecked at runtime against the head's translated address, falling
   back to exact per-access probes when it does not. *)
let cert_scan insns ~entry ~e ~gmask ~(preds : Facts.gpred array)
    ~(tcls : int array) =
  let n = Array.length insns in
  let line_shift = Cheri_tagmem.Cache.line_shift in
  let line_size = Cheri_tagmem.Cache.line_size in
  (* A capability-form guard predicate on entry register [r0]? Only kept
     predicates that the engine will actually evaluate count, i.e. only
     when the guarded mask is nonempty ([Facts.add_guarded] drops guards
     that license nothing, and the engine attaches predicates only then). *)
  let guard_on r0 =
    gmask <> 0
    && Array.exists
         (fun p -> (not p.Facts.gp_ddc) && p.Facts.gp_reg = r0)
         preds
  in
  let mk_track () =
    let co = Array.init 32 (fun r -> if r = 0 then Onone else Oent (r, 0)) in
    let go = Array.make 32 Gnone in
    for r = 1 to 31 do go.(r) <- Gent (r, 0) done;
    let readg r = if r = 0 then Gcst 0 else go.(r) in
    (* Mirrors [guard_scan]'s chain tracking exactly, minus the demand
       bookkeeping. *)
    let track insn =
      match insn with
      | Insn.CLoad { rd; _ } -> if rd <> 0 then go.(rd) <- Gnone
      | Insn.CStore _ -> ()
      | Insn.CLC { cd; _ } -> co.(cd) <- Onone
      | Insn.CSC _ -> ()
      | Insn.Load { rd; _ } -> if rd <> 0 then go.(rd) <- Gnone
      | Insn.Store _ -> ()
      | Insn.CMove (cd, cb) -> if cd <> 0 then co.(cd) <- co.(cb)
      | Insn.CIncOffsetImm (cd, cb, imm) ->
        let p =
          match co.(cb) with
          | Oent (r0, d) -> Oent (r0, d + imm)
          | Onone -> Onone
        in
        if cd <> 0 then co.(cd) <- p
      | Insn.CIncOffset (cd, cb, rt) ->
        let p =
          match co.(cb), readg rt with
          | Oent (r0, d), Gcst k -> Oent (r0, d + k)
          | _ -> Onone
        in
        if cd <> 0 then co.(cd) <- p
      | Insn.Li (rd, v) -> if rd <> 0 then go.(rd) <- Gcst v
      | Insn.Move (rd, rs) -> if rd <> 0 then go.(rd) <- readg rs
      | Insn.Addiu (rd, rs, k) ->
        if rd <> 0 then
          go.(rd) <- (match readg rs with
            | Gent (g, d) -> Gent (g, d + k)
            | Gcst c -> Gcst (c + k)
            | Gnone -> Gnone)
      | Insn.Addu (rd, rs, rt) ->
        if rd <> 0 then
          go.(rd) <- (match readg rs, readg rt with
            | Gent (g, d), Gcst c | Gcst c, Gent (g, d) -> Gent (g, d + c)
            | Gcst a, Gcst b -> Gcst (a + b)
            | _ -> Gnone)
      | Insn.Subu (rd, rs, rt) ->
        if rd <> 0 then
          go.(rd) <- (match readg rs, readg rt with
            | Gent (g, d), Gcst c -> Gent (g, d - c)
            | Gcst a, Gcst b -> Gcst (a - b)
            | _ -> Gnone)
      | _ ->
        (match Insn.creg_def insn with
         | Some cd -> if cd <> 0 then co.(cd) <- Onone
         | None -> ());
        (match Insn.gpr_def insn with
         | Some rd -> if rd <> 0 then go.(rd) <- Gnone
         | None -> ())
    in
    (co, readg, track)
  in
  (* Pass 1: the trap-freedom prefix. *)
  let co, _readg, track = mk_track () in
  let prefix = ref 0 in
  let i = ref 0 in
  let stop = ref false in
  while (not !stop) && !i < Cheri_isa.Bbcache.max_block && e + !i < n do
    let insn = insns.(e + !i) in
    if Insn.is_terminator insn then stop := true
    else begin
      let ok =
        match tcls.(!i) with
        | 0 -> true
        | 1 -> true  (* data access: exactly-attributed repair point *)
        | _ ->
          (match insn with
           | Insn.CIncOffset (_, cb, _) | Insn.CIncOffsetImm (_, cb, _)
           | Insn.CSetAddr (_, cb, _)
           | Insn.CAndPerm (_, cb, _) | Insn.CAndPermImm (_, cb, _) ->
             (match co.(cb) with
              | Oent (r0, _) -> guard_on r0
              | Onone -> false)
           | _ -> false)
      in
      if ok then begin
        track insn;
        incr prefix;
        incr i
      end
      else stop := true
    end
  done;
  let prefix = !prefix in
  if prefix = 0 then Facts.no_cert
  else begin
    (* Pass 2: access runs over the certified prefix. *)
    let co, readg, track = mk_track () in
    let r_open = ref false in
    let r_write = ref false in
    let r_key = ref (`Cap 0) in
    let r_head = ref 0 in
    let r_headp = ref 0 in
    let r_lo = ref 0 and r_hi = ref 0 in
    let r_tails = ref [] in
    let runs = ref [] in
    let close () =
      if !r_open && !r_tails <> [] then
        runs := { Facts.ar_head = !r_head;
                  ar_tail = Array.of_list (List.rev !r_tails);
                  ar_lo = !r_lo; ar_hi = !r_hi } :: !runs;
      r_open := false;
      r_tails := []
    in
    let line_of idx = (entry + 4 * idx) lsr line_shift in
    let on_access idx key p w write =
      let start_new () =
        close ();
        match key with
        | Some k ->
          r_open := true; r_write := write; r_key := k;
          r_head := idx; r_headp := p;
          r_lo := 0; r_hi := w
        | None -> ()
      in
      if !r_open && key = Some !r_key && write = !r_write
         && line_of idx = line_of !r_head
      then begin
        let delta = p - !r_headp in
        let lo' = min !r_lo delta and hi' = max !r_hi (delta + w) in
        if hi' - lo' <= line_size then begin
          r_tails := (idx, delta) :: !r_tails;
          r_lo := lo';
          r_hi := hi'
        end
        else start_new ()
      end
      else start_new ()
    in
    let ckey cb = match co.(cb) with
      | Oent (r0, d) -> (Some (`Cap r0), d)
      | Onone -> (None, 0)
    in
    for j = 0 to prefix - 1 do
      let insn = insns.(e + j) in
      (match insn with
       | Insn.CLoad { w; cb; off; _ } ->
         let k, d = ckey cb in on_access j k (d + off) w false
       | Insn.CLC { cb; off; _ } ->
         let k, d = ckey cb in on_access j k (d + off) Cap.sizeof false
       | Insn.CStore { w; cb; off; _ } ->
         let k, d = ckey cb in on_access j k (d + off) w true
       | Insn.CSC { cb; off; _ } ->
         let k, d = ckey cb in on_access j k (d + off) Cap.sizeof true
       | Insn.Load { w; base; off; _ } ->
         (match readg base with
          | Gent (g0, d) -> on_access j (Some (`Gpr g0)) (d + off) w false
          | Gcst v -> on_access j (Some `Abs) (v + off) w false
          | Gnone -> close ())
       | Insn.Store { w; base; off; _ } ->
         (match readg base with
          | Gent (g0, d) -> on_access j (Some (`Gpr g0)) (d + off) w true
          | Gcst v -> on_access j (Some `Abs) (v + off) w true
          | Gnone -> close ())
       | _ -> ());
      track insn
    done;
    close ();
    { Facts.ct_prefix = prefix;
      ct_runs = Array.of_list (List.rev !runs) }
  end

(* Analyze every pc of every region as a potential superblock entry, from a
   Top state: exactly the straight-line runs the block engine decodes (it
   keys blocks by whatever pc control arrives at), bounded by the same
   [Bbcache.max_block]. *)
let scan_code ?ddc ?pcc_may regions =
  let env = make_env ?ddc ?pcc_may () in
  (* A statically untagged DDC (cheriabi's null DDC) makes every legacy
     access a must-trap; DDC-form guards could never fire. *)
  let ddc_dead = env.e_ddc.a_tag = No in
  let facts = Facts.create () in
  let must_tbl = Hashtbl.create 256 in
  let sites = ref 0 and elided = ref 0 and guarded = ref 0 in
  let cert_sb = ref 0 and cert_insns = ref 0 in
  let nruns = ref 0 and run_accs = ref 0 in
  let hist = Array.make 8 0 in
  List.iter
    (fun (base, insns) ->
      let n = Array.length insns in
      for e = 0 to n - 1 do
        let entry = base + (4 * e) in
        let fmask, mmask, s, el, tcls = scan_superblock env insns ~e in
        bump (fun () -> stats.cs_eager_sb <- stats.cs_eager_sb + 1);
        Facts.add_mask facts ~entry fmask;
        let gmask, preds = guard_scan ~ddc_dead insns ~e ~fmask in
        Facts.add_guarded facts ~entry gmask preds;
        guarded := !guarded + Facts.popcount gmask;
        let cert = cert_scan insns ~entry ~e ~gmask ~preds ~tcls in
        Facts.add_cert facts ~entry cert;
        hist.(cert_bucket cert.Facts.ct_prefix) <-
          hist.(cert_bucket cert.Facts.ct_prefix) + 1;
        if cert.Facts.ct_prefix > 0 then begin
          incr cert_sb;
          cert_insns := !cert_insns + cert.Facts.ct_prefix;
          nruns := !nruns + Array.length cert.Facts.ct_runs;
          Array.iter
            (fun r -> run_accs := !run_accs + 1 + Array.length r.Facts.ar_tail)
            cert.Facts.ct_runs
        end;
        if mmask <> 0 then begin
          let cur =
            match Hashtbl.find_opt must_tbl entry with Some m -> m | None -> 0
          in
          Hashtbl.replace must_tbl entry (cur lor mmask)
        end;
        sites := !sites + s;
        elided := !elided + el
      done)
    regions;
  { sc_facts = facts; sc_must = must_tbl; sc_sites = !sites;
    sc_elided = !elided; sc_guarded = !guarded;
    sc_cert_sb = !cert_sb; sc_cert_insns = !cert_insns;
    sc_runs = !nruns; sc_run_accesses = !run_accs; sc_cert_hist = hist }

let facts_of_code ?ddc ?pcc_may regions =
  (scan_code ?ddc ?pcc_may regions).sc_facts

(* Lazy variant: a pull-through [Facts.t] whose per-entry fixpoint runs the
   first time the block engine decodes that superblock ([Facts.mask] at
   build time), so a process only pays analysis for code it executes. The
   masks are exactly [scan_code]'s — same environment, same straight-line
   scan — the resolver just picks out one entry. One scan serves both
   tiers: the guarded pre-scan reuses the fixpoint's unconditional mask
   (guard bits must exclude everything tier 1 already proved) instead of
   re-running the fixpoint the way the old two-resolver split did, so
   [stats.cs_lazy_gsb] — extra fixpoints charged to the guarded tier —
   stays 0 on the block-build path. Resolved entries are memoized inside
   the table, so re-decodes (a forked child's fresh block table,
   generation flushes) and cached re-execs are hash lookups. *)
let lazy_facts_of_code ?ddc ?pcc_may regions =
  let env = make_env ?ddc ?pcc_may () in
  let ddc_dead = env.e_ddc.a_tag = No in
  let resolve entry =
    let rec find = function
      | [] -> (0, Facts.no_guard, Facts.no_cert)
      | (base, insns) :: rest ->
        if entry >= base
           && entry < base + (4 * Array.length insns)
           && (entry - base) land 3 = 0
        then begin
          let e = (entry - base) / 4 in
          let fmask, _, _, _, tcls = scan_superblock env insns ~e in
          let (gmask, preds) as guard = guard_scan ~ddc_dead insns ~e ~fmask in
          let cert = cert_scan insns ~entry ~e ~gmask ~preds ~tcls in
          bump (fun () ->
              stats.cs_lazy_sb <- stats.cs_lazy_sb + 1;
              let p = cert.Facts.ct_prefix in
              lazy_cert_hist.(cert_bucket p) <-
                lazy_cert_hist.(cert_bucket p) + 1;
              if p > 0 then begin
                stats.cs_cert_sb <- stats.cs_cert_sb + 1;
                stats.cs_cert_insns <- stats.cs_cert_insns + p
              end);
          (fmask, guard, cert)
        end
        else find rest
    in
    find regions
  in
  Facts.create_lazy ~resolve ()

(* --- Image-keyed fact cache -------------------------------------------------

   [Sobj.image] values are immutable and shared across kernels and execs
   (the bench installs one image into many kernels; repeated execs of the
   same path reuse the vfs's image), so analysis results are memoized per
   image identity plus everything the facts depend on: the initial DDC and
   the PCC permission envelope (facts are DDC- and PCC-sensitive), and the
   linked code layout (defensive: identical layout is what makes
   entry-pc-keyed facts transferable between execs; the linker is
   deterministic per image + ABI, so this key component only guards
   against that assumption breaking). The cached table is shared by
   reference — safe because fact tables are append-only (lazy memoization
   never changes a mask already handed out) and [Bbcache.set_facts] guards
   by physical equality, so two processes exec'ing the same image stop
   thrashing each other's block cache. *)

type fact_key = {
  fk_img : int;                  (* Sobj.image_id *)
  fk_ddc : Cap.t;
  fk_pcc_may : Perms.t;
  fk_layout : (int * int) list;  (* (base, instruction count) per region *)
}

let fact_cache : (fact_key, Facts.t) Hashtbl.t = Hashtbl.create 16

(* Interprocedural-analysis results for one image: the per-function
   summary table plus the counters --analysis-stats reports. Cached
   alongside the fact tables under the same key discipline, one step
   lazier: the thunk only runs if something actually asks for the stats
   (or the summaries), so plain execution never pays for CFG recovery. *)
type ipa = {
  ip_funcs : int;                     (* functions summarized *)
  ip_iters : int;                     (* outer worklist iterations *)
  ip_checks : int;                    (* flow-level check sites swept *)
  ip_proved : int;                    (* ... statically provable *)
  ip_sums : (int, summary) Hashtbl.t; (* function root -> summary *)
}

(* Keyed by the fact key plus the linkage view (entry points and GOT map)
   the CFG was recovered from — defensively, like fk_layout: the linker is
   deterministic per image + ABI. *)
let sum_cache
    : (fact_key * int list * (int * int) list, ipa Lazy.t) Hashtbl.t =
  Hashtbl.create 16

let clear_fact_cache () =
  Mutex.protect cache_lock (fun () ->
      Hashtbl.reset fact_cache;
      Hashtbl.reset sum_cache)

let cached_facts ~image ~ddc ~pcc_may regions =
  let key =
    { fk_img = Cheri_rtld.Sobj.image_id image;
      fk_ddc = ddc;
      fk_pcc_may = pcc_may;
      fk_layout = List.map (fun (b, insns) -> (b, Array.length insns)) regions }
  in
  Mutex.protect cache_lock (fun () ->
      match Hashtbl.find_opt fact_cache key with
      | Some f ->
        bump (fun () -> stats.cs_hits <- stats.cs_hits + 1);
        f
      | None ->
        bump (fun () -> stats.cs_misses <- stats.cs_misses + 1);
        let f = lazy_facts_of_code ~ddc ~pcc_may regions in
        Hashtbl.add fact_cache key f;
        f)

let must_traps sc ~entry ~index =
  index >= 0 && index <= Facts.max_index
  && (match Hashtbl.find_opt sc.sc_must entry with
      | Some m -> (m lsr index) land 1 = 1
      | None -> false)

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
  r_sites : int;     (* elidable check sites (superblock scan) *)
  r_elided : int;    (* checks discharged *)
  r_guarded : int;   (* further checks elidable under entry guards *)
  r_sb : int;        (* superblock entries with at least one fact *)
  r_flow_sites : int;  (* check sites swept by the interprocedural pass *)
  r_flow_elided : int; (* ... discharged on the stabilized flow states *)
  r_iters : int;     (* outer summary-worklist iterations *)
  r_cert_sb : int;   (* tier-3: superblocks with a trap-freedom certificate *)
  r_cert_insns : int;  (* ... total certified-prefix instructions *)
  r_runs : int;        (* ... access runs *)
  r_run_accesses : int; (* ... accesses covered by runs *)
  r_cert_hist : int array; (* prefix-length histogram (see sc_cert_hist) *)
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
  fr_sites : int;   (* flow-level elidable check sites swept *)
  fr_elided : int;  (* ... discharged on the stabilized states *)
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
  let sites = ref 0 and elided = ref 0 in
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
             if v.av_site then incr sites;
             if v.av_elide then incr elided;
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
  { fr_sum = sum; fr_sites = !sites; fr_elided = !elided }

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
  stats.cs_funcs <- stats.cs_funcs + nfuncs;
  stats.cs_iters <- stats.cs_iters + !iters;
  (sums, !iters)

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
  let flow_sites = ref 0 and flow_elided = ref 0 in
  List.iter
    (fun (root, members) ->
      let r = analyze_fn ~emit env ~sums cfg root members in
      flow_sites := !flow_sites + r.fr_sites;
      flow_elided := !flow_elided + r.fr_elided)
    cfg.Cfg.funcs;
  let sc = scan_code ?ddc ?pcc_may regions in
  let diags =
    List.sort
      (fun a b ->
        match compare a.g_pc b.g_pc with 0 -> compare a.g_kind b.g_kind | c -> c)
      !diags
  in
  { r_diags = diags;
    r_funcs = List.length cfg.Cfg.funcs;
    r_blocks = List.length cfg.Cfg.order;
    r_sites = sc.sc_sites;
    r_elided = sc.sc_elided;
    r_guarded = sc.sc_guarded;
    r_sb = Facts.blocks sc.sc_facts;
    r_flow_sites = !flow_sites;
    r_flow_elided = !flow_elided;
    r_iters = iters;
    r_cert_sb = sc.sc_cert_sb;
    r_cert_insns = sc.sc_cert_insns;
    r_runs = sc.sc_runs;
    r_run_accesses = sc.sc_run_accesses;
    r_cert_hist = sc.sc_cert_hist }

(* --- Cached interprocedural results + the kernel fact provider ------------- *)

let cached_ipa ~image ~ddc ~pcc_may ~entries ~got regions =
  let key =
    ( { fk_img = Cheri_rtld.Sobj.image_id image;
        fk_ddc = ddc;
        fk_pcc_may = pcc_may;
        fk_layout =
          List.map (fun (b, insns) -> (b, Array.length insns)) regions },
      entries,
      got )
  in
  Mutex.protect cache_lock (fun () ->
      match Hashtbl.find_opt sum_cache key with
      | Some l -> l
      | None ->
        let l =
          lazy
            (let env = make_env ~ddc ~pcc_may () in
             let cfg = Cfg.build ~entries ~got regions in
             let sums, iters = summarize env cfg in
             let checks = ref 0 and proved = ref 0 in
             List.iter
               (fun (root, members) ->
                 let r = analyze_fn env ~sums cfg root members in
                 checks := !checks + r.fr_sites;
                 proved := !proved + r.fr_elided)
               cfg.Cfg.funcs;
             { ip_funcs = List.length cfg.Cfg.funcs; ip_iters = iters;
               ip_checks = !checks; ip_proved = !proved; ip_sums = sums })
        in
        Hashtbl.add sum_cache key l;
        l)

(* Force and aggregate every cached interprocedural result (what
   --analysis-stats reports after a run). Forcing happens under
   [cache_lock]: OCaml 5 [Lazy.t] is not domain-safe (a concurrent force
   raises [RacyLazy]), so the registered thunks are only ever forced
   serialized here. The provider itself never forces. *)
let ipa_totals () =
  Mutex.protect cache_lock (fun () ->
      Hashtbl.fold
        (fun _ l (f, i, c, p) ->
          let ipa = Lazy.force l in
          (f + ipa.ip_funcs, i + ipa.ip_iters, c + ipa.ip_checks,
           p + ipa.ip_proved))
        sum_cache (0, 0, 0, 0))

(* The standard kernel fact provider (Kstate.config.fact_provider):
   image-cached, user-PCC permission envelope (user code can never hold
   SYSTEM_REGS — the kernel's user root is derived without it — which is what
   makes a concrete DDC sound: CWriteDDC must trap). Fact tables are lazy:
   each superblock is analyzed on first decode. The interprocedural summary
   table is registered per image as well, unforced: it feeds --analysis-stats
   and verification, while the dynamic elision path rests on the two fact
   tiers alone (guards are self-validating at block entry). *)
let provider () =
  let pcc_may = Perms.diff Perms.all Perms.system_regs in
  fun ~image ~ddc ~entries ~got regions ->
    ignore (cached_ipa ~image ~ddc ~pcc_may ~entries ~got regions);
    cached_facts ~image ~ddc ~pcc_may regions
