(* Code generation: typed AST -> shared object, for three targets.

   - [Mips64]: pointers are integer registers; memory is reached through
     DDC-implicit loads and stores; globals by absolute address.
   - [Cheriabi]: every pointer is a capability register; locals are
     reached through $csp, globals through per-symbol bounded capabilities
     in the capability table ($cgp), and taking the address of a stack
     object derives a bounded capability from $csp ("automatic
     references", §3). Function calls link in $cra; spilled return
     capabilities live in tagged stack memory.
   - [Asan]: the mips64 target plus shadow-memory instrumentation on every
     computed-address access, and redzones around stack objects (global
     and heap redzones are handled by the loader and allocator).

   The CLC immediate-range option reproduces the paper's ISA ablation
   (§5.2): without the large immediate, every capability-table access
   needs an extra CIncOffset. *)

open Ast

module Insn = Cheri_isa.Insn
module Asm = Cheri_isa.Asm
module Reg = Cheri_isa.Reg
module Abi = Cheri_core.Abi
module Sobj = Cheri_rtld.Sobj

type options = {
  abi : Abi.t;
  clc_large_imm : bool;
  (* Opt-in sub-object bounds (paper 6, "Sub-object and code bounds"):
     taking the address of a struct field narrows the capability to the
     field. Off by default for compatibility with container_of-style
     idioms, exactly as the paper chose. *)
  subobject_bounds : bool;
}

let default_options abi =
  { abi; clc_large_imm = true; subobject_bounds = false }

(* --- Operands -------------------------------------------------------------------- *)

type where =
  | Wgpr of int
  | Wcap of int
  | Wspill of int          (* spill-slot index *)

type operand = {
  mutable where : where;
  okind : [ `Int | `Ptr ];
  mutable pinned : bool;
}

(* An lvalue location. [Lslot]'s third field is the frame offset of the
   object's capability slot: aggregates get a bounded capability derived
   once at their declaration (CheriABI), reused by every access. *)
type laddr =
  | Lslot of int * ty * (int * int) option
      (* (cap-slot offset, object base offset) *)
  | Lptr of operand * int * ty   (* through a pointer, plus byte offset *)

type st = {
  opts : options;
  lay : Layout.t;
  unit_name : string;
  tunit : Sema.tunit;
  mutable items : Asm.item list;          (* reversed *)
  mutable free_gpr : int list;
  mutable free_cap : int list;
  mutable live : operand list;            (* oldest first *)
  mutable free_spill : int list;
  mutable scopes : (string, int * ty * (int * int) option) Hashtbl.t list;
  mutable decl_counter : int;
  decl_offsets : (int, int) Hashtbl.t;    (* decl index -> frame offset *)
  decl_capslots : (int, int) Hashtbl.t;   (* decl index -> cap-slot offset *)
  mutable frame_size : int;
  mutable spill_base : int;
  mutable save_off : int;
  mutable misc_off : int;                 (* scratch slot for special lowering *)
  mutable label_counter : int;
  mutable cur_fun : string;
  mutable cur_ret : ty;
  mutable break_lbl : string list;
  mutable cont_lbl : string list;
  mutable asan_lbl : string option;
  (* unit-level collections *)
  got : (string, unit) Hashtbl.t;
  mutable got_order : string list;        (* reversed *)
  defined_funs : (string, unit) Hashtbl.t;
}

let is_cheri st = st.opts.abi = Abi.Cheriabi
let is_asan st = st.opts.abi = Abi.Asan

let emit st i = st.items <- Asm.I i :: st.items
let emit_item st it = st.items <- it :: st.items
let emit_lbl st l = st.items <- Asm.Lbl l :: st.items

let fresh_label st tag =
  st.label_counter <- st.label_counter + 1;
  Printf.sprintf "L%s$%s$%d" tag st.cur_fun st.label_counter

let need_got st sym =
  if not (Hashtbl.mem st.got sym) then begin
    Hashtbl.replace st.got sym ();
    st.got_order <- sym :: st.got_order
  end

(* --- Register allocation ------------------------------------------------------------ *)

(* Spill slots per frame. A function is compiled with [spill_slots] first;
   one whose expressions need more is compiled again from scratch with
   twice as many ([gen_fun]), up to [max_spill_slots]. Functions that fit
   in [spill_slots] get the same frame and code as with a fixed area. *)
let spill_slots = 16
let max_spill_slots = 256

exception Out_of_spill_slots

let alloc_spill st =
  match st.free_spill with
  | s :: rest ->
    st.free_spill <- rest;
    s
  | [] -> raise Out_of_spill_slots

let spill_one st op =
  let slot = alloc_spill st in
  let off = st.spill_base + (slot * 16) in
  (match op.where with
   | Wgpr r ->
     if is_cheri st then
       emit st (Insn.CStore { w = 8; rs = r; cb = Reg.csp; off })
     else emit st (Insn.Store { w = 8; rs = r; base = Reg.sp; off });
     st.free_gpr <- r :: st.free_gpr
   | Wcap c ->
     emit st (Insn.CSC { cs = c; cb = Reg.csp; off });
     st.free_cap <- c :: st.free_cap
   | Wspill _ -> assert false);
  op.where <- Wspill slot

let rec alloc_gpr st =
  match st.free_gpr with
  | r :: rest ->
    st.free_gpr <- rest;
    r
  | [] ->
    (* Spill the oldest unpinned register-resident operand. *)
    let victim =
      List.find_opt
        (fun o ->
          (not o.pinned) && match o.where with Wgpr _ -> true | _ -> false)
        st.live
    in
    (match victim with
     | Some o ->
       spill_one st o;
       alloc_gpr st
     | None -> error "register pressure too high (int)")

let rec alloc_cap st =
  match st.free_cap with
  | c :: rest ->
    st.free_cap <- rest;
    c
  | [] ->
    let victim =
      List.find_opt
        (fun o ->
          (not o.pinned) && match o.where with Wcap _ -> true | _ -> false)
        st.live
    in
    (match victim with
     | Some o ->
       spill_one st o;
       alloc_cap st
     | None -> error "register pressure too high (cap)")

let new_operand st kind where =
  let op = { where; okind = kind; pinned = false } in
  st.live <- st.live @ [ op ];
  op

let new_int st =
  let r = alloc_gpr st in
  new_operand st `Int (Wgpr r), r

let new_ptr st =
  if is_cheri st then begin
    let c = alloc_cap st in
    new_operand st `Ptr (Wcap c), c
  end
  else begin
    let r = alloc_gpr st in
    new_operand st `Ptr (Wgpr r), r
  end

let release st op =
  st.live <- List.filter (fun o -> o != op) st.live;
  match op.where with
  | Wgpr r -> st.free_gpr <- r :: st.free_gpr
  | Wcap c -> st.free_cap <- c :: st.free_cap
  | Wspill s -> st.free_spill <- s :: st.free_spill

(* Ensure the operand is resident; return its register. *)
let gpr_of st op =
  match op.where with
  | Wgpr r -> r
  | Wcap _ -> assert false
  | Wspill slot ->
    let r = alloc_gpr st in
    let off = st.spill_base + (slot * 16) in
    if is_cheri st then
      emit st (Insn.CLoad { w = 8; signed = false; rd = r; cb = Reg.csp; off })
    else emit st (Insn.Load { w = 8; signed = false; rd = r; base = Reg.sp; off });
    st.free_spill <- slot :: st.free_spill;
    op.where <- Wgpr r;
    r

let cap_of st op =
  match op.where with
  | Wcap c -> c
  | Wgpr _ -> assert false
  | Wspill slot ->
    let c = alloc_cap st in
    let off = st.spill_base + (slot * 16) in
    emit st (Insn.CLC { cd = c; cb = Reg.csp; off });
    st.free_spill <- slot :: st.free_spill;
    op.where <- Wcap c;
    c

let spill_all st =
  List.iter
    (fun o -> match o.where with Wspill _ -> () | _ -> spill_one st o)
    st.live

(* --- Scopes and frame ------------------------------------------------------------------ *)

let push_scope st = st.scopes <- Hashtbl.create 8 :: st.scopes
let pop_scope st =
  match st.scopes with
  | _ :: rest -> st.scopes <- rest
  | [] -> assert false

let bind_local st name off ty capslot =
  match st.scopes with
  | scope :: _ -> Hashtbl.replace scope name (off, ty, capslot)
  | [] -> assert false

let lookup_local st name =
  let rec go = function
    | scope :: rest ->
      (match Hashtbl.find_opt scope name with
       | Some v -> Some v
       | None -> go rest)
    | [] -> None
  in
  go st.scopes

(* Walk the body in codegen order, calling [f] for each declaration (and
   each parameter first). Used identically by frame planning and code
   generation so that declaration indices line up. *)
let iter_decls params body fparam fdecl =
  List.iter fparam params;
  let idx = ref 0 in
  let rec stmt s =
    match s with
    | Sema.Ydecl (ty, name, _) ->
      fdecl !idx ty name;
      incr idx
    | Sema.Yexpr _ | Sema.Yreturn _ | Sema.Ybreak | Sema.Ycontinue -> ()
    | Sema.Yif (_, a, b) ->
      stmt a;
      Option.iter stmt b
    | Sema.Ywhile (_, b) -> stmt b
    | Sema.Ydo (b, _) -> stmt b
    | Sema.Yfor (i, _, _, b) ->
      Option.iter stmt i;
      stmt b
    | Sema.Yblock l -> List.iter stmt l
  in
  List.iter stmt body

(* Is a local "memory-shaped" (needs redzones under ASan)? *)
let is_aggregate = function Tarr _ | Tstruct _ -> true | _ -> false

(* Plan the frame: local offsets, spill area, save slot. *)
let plan_frame st (f : Sema.tfun) ~nspill =
  let lay = st.lay in
  Hashtbl.reset st.decl_offsets;
  Hashtbl.reset st.decl_capslots;
  let off = ref 0 in
  let poison = ref [] in
  let place ty =
    let al = max (Layout.alignof lay ty)
        (if is_pointer ty && is_cheri st then 16 else 1)
    in
    let al = max al (if ty = Tint then 8 else al) in
    let al = if is_asan st then max al 8 else al in
    if is_asan st then begin
      (* redzone, covering any alignment hole left by the previous object *)
      let start = !off in
      off := Layout.align_up !off 16 + 16;
      poison := (start, !off - start) :: !poison
    end;
    off := Layout.align_up !off al;
    let o = !off in
    let sz = Layout.sizeof lay ty in
    off := !off + (if is_asan st then Layout.align_up sz 8 else sz);
    o
  in
  let param_offs = ref [] in
  iter_decls f.Sema.tf_params f.Sema.tf_body
    (fun (ty, _name) -> param_offs := place ty :: !param_offs)
    (fun idx ty _name ->
      Hashtbl.replace st.decl_offsets idx (place ty);
      if is_aggregate ty && is_cheri st then begin
        off := Layout.align_up !off 16;
        Hashtbl.replace st.decl_capslots idx !off;
        off := !off + 16
      end);
  if is_asan st then begin
    let start = !off in
    off := Layout.align_up !off 16 + 16;
    poison := (start, !off - start) :: !poison
  end;
  st.spill_base <- Layout.align_up !off 16;
  let after_spill = st.spill_base + (nspill * 16) in
  st.misc_off <- after_spill;
  st.save_off <- after_spill + 16;
  st.frame_size <- Layout.align_up (st.save_off + 16) 16;
  List.rev !param_offs, List.rev !poison

(* --- ASan helpers ------------------------------------------------------------------------- *)

let asan_label st =
  match st.asan_lbl with
  | Some l -> l
  | None ->
    let l = Printf.sprintf "Lasan$%s" st.cur_fun in
    st.asan_lbl <- Some l;
    l

(* Check the shadow byte for [base_reg + off] and trap if poisoned. *)
let asan_check st base_reg off =
  if is_asan st then begin
    let at = Reg.at in
    emit st (Insn.Addiu (at, base_reg, off));
    emit st (Insn.Srl (at, at, 3));
    emit st (Insn.Addu (at, at, Reg.s5));
    emit st (Insn.Load { w = 1; signed = false; rd = at; base = at; off = 0 });
    emit_item st (Asm.bne at Reg.zero (asan_label st))
  end

(* Poison or unpoison a frame range in the prologue/epilogue. *)
let asan_frame_shadow st ~poison ranges =
  if ranges <> [] then begin
    let at = Reg.at in
    let vreg = if poison then Reg.v1 else Reg.zero in
    if poison then emit st (Insn.Li (Reg.v1, 1));
    List.iter
      (fun (off, len) ->
        emit st (Insn.Addiu (at, Reg.sp, off));
        emit st (Insn.Srl (at, at, 3));
        emit st (Insn.Addu (at, at, Reg.s5));
        let granules = (len + 7) / 8 in
        for g = 0 to granules - 1 do
          emit st (Insn.Store { w = 1; rs = vreg; base = at; off = g })
        done)
      ranges
  end

(* --- Global access ---------------------------------------------------------------------------- *)

(* Load the capability-table entry for [sym] into a fresh pointer operand
   (CheriABI). The small-immediate CLC needs a preparatory CIncOffset. *)
let got_load st sym =
  need_got st sym;
  let op, c = new_ptr st in
  if st.opts.clc_large_imm then
    emit_item st
      (Asm.Ref ("got$" ^ sym, fun off -> Insn.CLC { cd = c; cb = Reg.cgp; off }))
  else begin
    emit_item st
      (Asm.Ref ("got$" ^ sym,
                fun off -> Insn.CIncOffsetImm (Reg.cjt, Reg.cgp, off)));
    emit st (Insn.CLC { cd = c; cb = Reg.cjt; off = 0 })
  end;
  op

(* Materialize a pointer to symbol [sym] (+byte offset). *)
let symbol_ptr st sym off =
  if is_cheri st then begin
    let op = got_load st sym in
    if off <> 0 then
      emit st (Insn.CIncOffsetImm (cap_of st op, cap_of st op, off));
    op
  end
  else begin
    let op, r = new_ptr st in
    emit_item st (Asm.Ref ("addr$" ^ sym, fun a -> Insn.Li (r, a + off)));
    op
  end

let string_sym st idx = Printf.sprintf "str$%s$%d" st.unit_name idx

(* --- Loads and stores -------------------------------------------------------------------------- *)

(* Width of a scalar memory access. *)
let width_of = function
  | Tchar -> 1
  | _ -> 8

(* Materialize the address of a frame slot as a pointer operand; under
   CheriABI the capability is bounded to the object (automatic
   references). Aggregates reuse the bounded capability derived at their
   declaration (in the object's cap slot); scalars derive on demand. *)
let slot_address st off ty capslot =
  let size = Layout.sizeof st.lay ty in
  if is_cheri st then begin
    let op, c = new_ptr st in
    (match capslot with
     | Some (cs, base_off) ->
       emit st (Insn.CLC { cd = c; cb = Reg.csp; off = cs });
       if off <> base_off then
         emit st (Insn.CIncOffsetImm (c, c, off - base_off))
     | None ->
       emit st (Insn.CIncOffsetImm (c, Reg.csp, off));
       emit st (Insn.CSetBoundsImm (c, c, max size 1)));
    op
  end
  else begin
    let op, r = new_ptr st in
    emit st (Insn.Addiu (r, Reg.sp, off));
    op
  end

(* Load a scalar from [addr]; consumes any embedded pointer operand. *)
let load_scalar st addr =
  match addr with
  | Lslot (off, ty, _) ->
    (match ty with
     | Tptr _ ->
       if is_cheri st then begin
         let op, c = new_ptr st in
         emit st (Insn.CLC { cd = c; cb = Reg.csp; off });
         op
       end
       else begin
         let op, r = new_ptr st in
         emit st (Insn.Load { w = 8; signed = false; rd = r; base = Reg.sp; off });
         op
       end
     | _ ->
       let op, r = new_int st in
       let w = width_of ty in
       if is_cheri st then
         emit st (Insn.CLoad { w; signed = false; rd = r; cb = Reg.csp; off })
       else emit st (Insn.Load { w; signed = false; rd = r; base = Reg.sp; off });
       op)
  | Lptr (p, off, ty) ->
    (match ty with
     | Tptr _ ->
       if is_cheri st then begin
         let pc = cap_of st p in
         let op, c = new_ptr st in
         emit st (Insn.CLC { cd = c; cb = pc; off });
         release st p;
         op
       end
       else begin
         let pr = gpr_of st p in
         asan_check st pr off;
         let op, r = new_ptr st in
         emit st (Insn.Load { w = 8; signed = false; rd = r; base = pr; off });
         release st p;
         op
       end
     | _ ->
       let w = width_of ty in
       if is_cheri st then begin
         let pc = cap_of st p in
         let op, r = new_int st in
         emit st (Insn.CLoad { w; signed = false; rd = r; cb = pc; off });
         release st p;
         op
       end
       else begin
         let pr = gpr_of st p in
         asan_check st pr off;
         let op, r = new_int st in
         emit st (Insn.Load { w; signed = false; rd = r; base = pr; off });
         release st p;
         op
       end)

(* Store operand [v] (unchanged) into [addr]; consumes the address. *)
let store_scalar st addr v =
  let store_ptr_value emit_store =
    (* Value must be a pointer-shaped register for the target slot. *)
    if is_cheri st then begin
      match v.where, v.okind with
      | _, `Ptr -> emit_store (`Cap (cap_of st v))
      | _, `Int ->
        (* Integer stored into a pointer: derive via (NULL) DDC — the
           stored value has no provenance and cannot be dereferenced. *)
        let r = gpr_of st v in
        emit st (Insn.CFromPtr (Reg.cjt, 0, r));
        emit_store (`Cap Reg.cjt)
    end
    else emit_store (`Gpr (gpr_of st v))
  in
  let int_reg_of_v () =
    if is_cheri st && v.okind = `Ptr then begin
      let c = cap_of st v in
      emit st (Insn.CGetAddr (Reg.at, c));
      Reg.at
    end
    else gpr_of st v
  in
  match addr with
  | Lslot (off, ty, _) ->
    (match ty with
     | Tptr _ ->
       store_ptr_value (function
           | `Cap c -> emit st (Insn.CSC { cs = c; cb = Reg.csp; off })
           | `Gpr r -> emit st (Insn.Store { w = 8; rs = r; base = Reg.sp; off }))
     | _ ->
       let w = width_of ty in
       let r = int_reg_of_v () in
       if is_cheri st then emit st (Insn.CStore { w; rs = r; cb = Reg.csp; off })
       else emit st (Insn.Store { w; rs = r; base = Reg.sp; off }))
  | Lptr (p, off, ty) ->
    (match ty with
     | Tptr _ ->
       if is_cheri st then begin
         let pc = cap_of st p in
         store_ptr_value (function
             | `Cap c -> emit st (Insn.CSC { cs = c; cb = pc; off })
             | `Gpr _ -> assert false)
       end
       else begin
         let pr = gpr_of st p in
         asan_check st pr off;
         let r = int_reg_of_v () in
         emit st (Insn.Store { w = 8; rs = r; base = pr; off })
       end;
       release st p
     | _ ->
       let w = width_of ty in
       if is_cheri st then begin
         let pc = cap_of st p in
         let r = int_reg_of_v () in
         emit st (Insn.CStore { w; rs = r; cb = pc; off })
       end
       else begin
         let pr = gpr_of st p in
         asan_check st pr off;
         let r = int_reg_of_v () in
         emit st (Insn.Store { w; rs = r; base = pr; off })
       end;
       release st p)

(* --- Coercions ----------------------------------------------------------------------------------- *)

let coerce_int st op =
  if is_cheri st && op.okind = `Ptr then begin
    let c = cap_of st op in
    let ni, r = new_int st in
    emit st (Insn.CGetAddr (r, c));
    release st op;
    ni
  end
  else op

let coerce_ptr st op =
  if is_cheri st && op.okind = `Int then begin
    let r = gpr_of st op in
    let np, c = new_ptr st in
    emit st (Insn.CFromPtr (c, 0, r));
    release st op;
    np
  end
  else op

let log2_opt n =
  let rec go i = if 1 lsl i = n then Some i else if 1 lsl i > n then None else go (i + 1) in
  if n <= 0 then None else go 0

(* Scale an integer operand by a constant (pointer arithmetic). *)
let scale st op s =
  if s <> 1 then begin
    let r = gpr_of st op in
    match log2_opt s with
    | Some sh -> emit st (Insn.Sll (r, r, sh))
    | None ->
      emit st (Insn.Li (Reg.at, s));
      emit st (Insn.Mul (r, r, Reg.at))
  end

(* --- Expressions ------------------------------------------------------------------------------------ *)

let declared_ty st name kind =
  match kind with
  | Sema.Vlocal ->
    (match lookup_local st name with
     | Some (_, ty, _) -> ty
     | None -> error "codegen: unbound local %s" name)
  | Sema.Vglobal _ ->
    (match
       List.find_opt (fun g -> g.Sema.tg_name = name) st.tunit.Sema.tu_globals
     with
     | Some g -> g.Sema.tg_ty
     | None -> error "codegen: unbound global %s" name)

let rec eval st (e : Sema.texpr) : operand =
  match e.Sema.te with
  | Sema.Xnum n ->
    let op, r = new_int st in
    emit st (Insn.Li (r, n));
    op
  | Sema.Xstr idx -> symbol_ptr st (string_sym st idx) 0
  | Sema.Xvar (name, kind) ->
    let ty = declared_ty st name kind in
    (match kind, ty with
     | Sema.Vlocal, (Tarr _ | Tstruct _) ->
       let off, _, capslot = Option.get (lookup_local st name) in
       slot_address st off ty capslot
     | Sema.Vlocal, _ ->
       let off, _, _ = Option.get (lookup_local st name) in
       load_scalar st (Lslot (off, ty, None))
     | Sema.Vglobal _, (Tarr _ | Tstruct _) -> symbol_ptr st name 0
     | Sema.Vglobal _, _ ->
       let p = symbol_ptr st name 0 in
       load_scalar st (Lptr (p, 0, ty)))
  | Sema.Xfunref f -> symbol_ptr st f 0
  | Sema.Xun (op_, a) ->
    let v = coerce_int st (eval st a) in
    let r = gpr_of st v in
    (match op_ with
     | Neg -> emit st (Insn.Subu (r, Reg.zero, r))
     | Lognot -> emit st (Insn.Sltiu (r, r, 1))
     | Bitnot -> emit st (Insn.Nor_ (r, r, Reg.zero)));
    v
  | Sema.Xbin (op_, a, b) -> eval_binop st op_ a b
  | Sema.Xassign (lv, rhs) ->
    let v = eval st rhs in
    let addr = lvalue st lv in
    store_scalar st addr v;
    v
  | Sema.Xcall (callee, args) -> eval_call st callee args e.Sema.ty
  | Sema.Xcalli (fp, args) ->
    spill_all st;
    let fpv = coerce_ptr st (eval st fp) in
    let slotted = call_args_positional st args in
    place_args st slotted;
    if is_cheri st then begin
      let c = cap_of st fpv in
      emit st (Insn.CMove (Reg.cjt, c));
      release st fpv;
      emit st (Insn.CJALR (Reg.cra, Reg.cjt))
    end
    else begin
      let r = gpr_of st fpv in
      emit st (Insn.Move (Reg.at, r));
      release st fpv;
      emit st (Insn.Jalr (Reg.ra, Reg.at))
    end;
    call_result st e.Sema.ty
  | Sema.Xindex _ | Sema.Xderef _ | Sema.Xfield _ ->
    let addr = lvalue st e in
    let ty = laddr_ty addr in
    (match ty with
     | Tarr _ | Tstruct _ ->
       let op = materialize_addr st addr ty in
       (match e.Sema.te with
        | Sema.Xfield _ when st.opts.subobject_bounds && is_cheri st ->
          let c = cap_of st op in
          emit st
            (Insn.CSetBoundsImm (c, c, max (Layout.sizeof st.lay ty) 1))
        | _ -> ());
       op
     | _ -> load_scalar st addr)
  | Sema.Xaddr lv ->
    let addr = lvalue st lv in
    let ty = laddr_ty addr in
    let op = materialize_addr st addr ty in
    (match lv.Sema.te with
     | Sema.Xfield _ when st.opts.subobject_bounds && is_cheri st ->
       let c = cap_of st op in
       emit st (Insn.CSetBoundsImm (c, c, max (Layout.sizeof st.lay ty) 1))
     | _ -> ());
    op
  | Sema.Xcast (to_, a) ->
    let v = eval st a in
    (match to_ with
     | Tptr _ | Tarr _ -> coerce_ptr st v
     | Tchar ->
       let v = coerce_int st v in
       let r = gpr_of st v in
       emit st (Insn.Andi (r, r, 0xff));
       v
     | Tint -> coerce_int st v
     | _ -> v)
  | Sema.Xsizeof t ->
    let op, r = new_int st in
    emit st (Insn.Li (r, Layout.sizeof st.lay t));
    op

and laddr_ty = function Lslot (_, ty, _) | Lptr (_, _, ty) -> ty

(* Turn an lvalue address into a pointer value. *)
and materialize_addr st addr ty =
  match addr with
  | Lslot (off, _, capslot) -> slot_address st off ty capslot
  | Lptr (p, off, _) ->
    if off <> 0 then begin
      if is_cheri st then begin
        let c = cap_of st p in
        emit st (Insn.CIncOffsetImm (c, c, off))
      end
      else begin
        let r = gpr_of st p in
        emit st (Insn.Addiu (r, r, off))
      end
    end;
    p

(* Compute an lvalue location. *)
and lvalue st (e : Sema.texpr) : laddr =
  match e.Sema.te with
  | Sema.Xvar (name, Sema.Vlocal) ->
    let off, ty, capslot = Option.get (lookup_local st name) in
    Lslot (off, ty, capslot)
  | Sema.Xvar (name, Sema.Vglobal _) ->
    let ty = declared_ty st name (Sema.Vglobal false) in
    Lptr (symbol_ptr st name 0, 0, ty)
  | Sema.Xderef p ->
    let ty =
      match p.Sema.ty with
      | Tptr t -> t
      | _ -> error "codegen: deref of non-pointer"
    in
    Lptr (eval st p, 0, ty)
  | Sema.Xindex (base, idx) ->
    let elem =
      match base.Sema.ty with
      | Tarr (t, _) | Tptr t -> t
      | _ -> error "codegen: index of non-array"
    in
    let esz = Layout.sizeof st.lay elem in
    let bptr =
      match base.Sema.ty with
      | Tarr _ ->
        (* base is an lvalue aggregate: take its address *)
        let a = lvalue st base in
        materialize_addr st a base.Sema.ty
      | _ -> eval st base
    in
    (match idx.Sema.te with
     | Sema.Xnum n -> Lptr (bptr, n * esz, elem)
     | _ ->
       let iv = coerce_int st (eval st idx) in
       scale st iv esz;
       let ir = gpr_of st iv in
       if is_cheri st then begin
         let c = cap_of st bptr in
         emit st (Insn.CIncOffset (c, c, ir))
       end
       else begin
         let r = gpr_of st bptr in
         emit st (Insn.Addu (r, r, ir))
       end;
       release st iv;
       Lptr (bptr, 0, elem))
  | Sema.Xfield (base, sname, fname) ->
    let foff = Layout.field_offset st.lay sname fname in
    let fty = laddr_add_field st base sname fname in
    (match lvalue st base with
     | Lslot (off, _, capslot) -> Lslot (off + foff, fty, capslot)
     | Lptr (p, off, _) -> Lptr (p, off + foff, fty))
  | Sema.Xcast (ty, inner) ->
    (* Lvalue cast: reinterpret the location's type. *)
    (match lvalue st inner with
     | Lslot (off, _, capslot) -> Lslot (off, ty, capslot)
     | Lptr (p, off, _) -> Lptr (p, off, ty))
  | _ -> error "codegen: not an lvalue"

and laddr_add_field st base sname fname =
  ignore base;
  let fields = Layout.fields st.lay sname in
  match List.find_opt (fun (_, n) -> n = fname) fields with
  | Some (t, _) -> t
  | None -> error "codegen: no field %s" fname

and eval_binop st op_ a b =
  match op_ with
  | Land | Lor ->
    (* Short-circuit; the result register is pinned across both arms. *)
    let res, r = new_int st in
    res.pinned <- true;
    let lend = fresh_label st "sc" in
    (match op_ with
     | Land ->
       emit st (Insn.Li (r, 0));
       let va = coerce_int st (eval st a) in
       emit_item st (Asm.beq (gpr_of st va) Reg.zero lend);
       release st va;
       let vb = coerce_int st (eval st b) in
       emit_item st (Asm.beq (gpr_of st vb) Reg.zero lend);
       release st vb;
       emit st (Insn.Li (r, 1))
     | _ ->
       emit st (Insn.Li (r, 1));
       let va = coerce_int st (eval st a) in
       emit_item st (Asm.bne (gpr_of st va) Reg.zero lend);
       release st va;
       let vb = coerce_int st (eval st b) in
       emit_item st (Asm.bne (gpr_of st vb) Reg.zero lend);
       release st vb;
       emit st (Insn.Li (r, 0)));
    emit_lbl st lend;
    res.pinned <- false;
    res
  | Add | Sub when is_pointer a.Sema.ty && not (is_pointer b.Sema.ty) ->
    (* pointer +- integer, scaled by the element size *)
    let elem =
      match a.Sema.ty with
      | Tptr t | Tarr (t, _) -> t
      | _ -> assert false
    in
    let pv = eval st a in
    let iv = coerce_int st (eval st b) in
    scale st iv (Layout.sizeof st.lay elem);
    let ir = gpr_of st iv in
    if op_ = Sub then emit st (Insn.Subu (ir, Reg.zero, ir));
    if is_cheri st then begin
      let c = cap_of st pv in
      emit st (Insn.CIncOffset (c, c, ir))
    end
    else begin
      let r = gpr_of st pv in
      emit st (Insn.Addu (r, r, ir))
    end;
    release st iv;
    pv
  | Sub when is_pointer a.Sema.ty && is_pointer b.Sema.ty ->
    (* pointer difference, in elements *)
    let elem =
      match a.Sema.ty with
      | Tptr t | Tarr (t, _) -> t
      | _ -> assert false
    in
    let va = coerce_int st (eval st a) in
    let vb = coerce_int st (eval st b) in
    let ra = gpr_of st va and rb = gpr_of st vb in
    emit st (Insn.Subu (ra, ra, rb));
    release st vb;
    let esz = Layout.sizeof st.lay elem in
    if esz > 1 then begin
      match log2_opt esz with
      | Some sh -> emit st (Insn.Sra (ra, ra, sh))
      | None ->
        emit st (Insn.Li (Reg.at, esz));
        emit st (Insn.Div (ra, ra, Reg.at))
    end;
    va
  | Eq | Ne | Lt | Le | Gt | Ge ->
    let va = coerce_int st (eval st a) in
    let vb = coerce_int st (eval st b) in
    let ra = gpr_of st va and rb = gpr_of st vb in
    (match op_ with
     | Eq ->
       emit st (Insn.Xor_ (ra, ra, rb));
       emit st (Insn.Sltiu (ra, ra, 1))
     | Ne ->
       emit st (Insn.Xor_ (ra, ra, rb));
       emit st (Insn.Sltu (ra, Reg.zero, ra))
     | Lt -> emit st (Insn.Slt (ra, ra, rb))
     | Gt -> emit st (Insn.Slt (ra, rb, ra))
     | Le ->
       emit st (Insn.Slt (ra, rb, ra));
       emit st (Insn.Xori (ra, ra, 1))
     | Ge ->
       emit st (Insn.Slt (ra, ra, rb));
       emit st (Insn.Xori (ra, ra, 1))
     | _ -> assert false);
    release st vb;
    va
  | Add | Sub | Mul | Div | Mod | Shl | Shr | Band | Bor | Bxor ->
    let va = coerce_int st (eval st a) in
    let vb = coerce_int st (eval st b) in
    let ra = gpr_of st va and rb = gpr_of st vb in
    (match op_ with
     | Add -> emit st (Insn.Addu (ra, ra, rb))
     | Sub -> emit st (Insn.Subu (ra, ra, rb))
     | Mul -> emit st (Insn.Mul (ra, ra, rb))
     | Div -> emit st (Insn.Div (ra, ra, rb))
     | Mod -> emit st (Insn.Rem (ra, ra, rb))
     | Shl -> emit st (Insn.Sllv (ra, ra, rb))
     | Shr -> emit st (Insn.Srav (ra, ra, rb))
     | Band -> emit st (Insn.And_ (ra, ra, rb))
     | Bor -> emit st (Insn.Or_ (ra, ra, rb))
     | Bxor -> emit st (Insn.Xor_ (ra, ra, rb))
     | _ -> assert false);
    release st vb;
    va

(* --- Calls -------------------------------------------------------------------------------------------- *)

(* Move evaluated arguments into their registers. [slots] pairs each
   operand with (is_pointer, positional index for its file). *)
and place_args st slotted =
  List.iter
    (fun (op, is_ptr, idx) ->
      if is_ptr && is_cheri st then begin
        let c = cap_of st op in
        emit st (Insn.CMove (Reg.ca0 + idx, c))
      end
      else begin
        let r = if is_cheri st && op.okind = `Ptr then (
            let c = cap_of st op in
            emit st (Insn.CGetAddr (Reg.at, c));
            Reg.at)
          else gpr_of st op
        in
        emit st (Insn.Move (Reg.a0 + idx, r))
      end)
    slotted;
  List.iter (fun (op, _, _) -> release st op) slotted

(* Function-call convention: positional slots across both files. *)
and call_args_positional st args =
  List.mapi
    (fun i a ->
      let v = eval st a in
      let is_ptr = is_pointer a.Sema.ty in
      let v = if is_ptr then coerce_ptr st v else coerce_int st v in
      v, is_ptr, i)
    args

(* Syscall convention: under CheriABI, integer arguments fill a0.. and
   pointer arguments fill ca0.. independently (matching the kernel's
   marshalling); legacy syscalls use one positional integer file. *)
and call_args_syscall st args =
  if is_cheri st then begin
    let ii = ref 0 and pi = ref 0 in
    List.map
      (fun a ->
        let v = eval st a in
        let is_ptr = is_pointer a.Sema.ty in
        let v = if is_ptr then coerce_ptr st v else coerce_int st v in
        if is_ptr then begin
          let idx = !pi in
          incr pi;
          v, true, idx
        end
        else begin
          let idx = !ii in
          incr ii;
          v, false, idx
        end)
      args
  end
  else
    List.mapi
      (fun i a ->
        let v = eval st a in
        v, false, i)
      args

and call_result st ret_ty =
  match ret_ty with
  | Tvoid ->
    let op, _ = new_int st in
    op
  | t when is_pointer t ->
    if is_cheri st then begin
      let op, c = new_ptr st in
      emit st (Insn.CMove (c, Reg.ca0));
      op
    end
    else begin
      let op, r = new_ptr st in
      emit st (Insn.Move (r, Reg.v0));
      op
    end
  | _ ->
    let op, r = new_int st in
    emit st (Insn.Move (r, Reg.v0));
    op

and emit_syscall st num = 
  emit st (Insn.Li (Reg.v0, num));
  emit st Insn.Syscall

and eval_call st callee args ret_ty =
  match callee with
  | Sema.Cuser f ->
    spill_all st;
    let slotted = call_args_positional st args in
    place_args st slotted;
    if is_cheri st then
      emit_item st (Asm.Ref (f, fun a -> Insn.CJAL (Reg.cra, a)))
    else emit_item st (Asm.Ref (f, fun a -> Insn.Jal a));
    call_result st ret_ty
  | Sema.Cextern f ->
    spill_all st;
    let slotted = call_args_positional st args in
    place_args st slotted;
    if is_cheri st then begin
      need_got st f;
      if st.opts.clc_large_imm then
        emit_item st
          (Asm.Ref ("got$" ^ f,
                    fun off -> Insn.CLC { cd = Reg.cjt; cb = Reg.cgp; off }))
      else begin
        emit_item st
          (Asm.Ref ("got$" ^ f,
                    fun off -> Insn.CIncOffsetImm (Reg.cjt, Reg.cgp, off)));
        emit st (Insn.CLC { cd = Reg.cjt; cb = Reg.cjt; off = 0 })
      end;
      emit st (Insn.CJALR (Reg.cra, Reg.cjt))
    end
    else emit_item st (Asm.Ref (f, fun a -> Insn.Jal a));
    call_result st ret_ty
  | Sema.Cintrin intr -> eval_intrinsic st intr args ret_ty

and eval_intrinsic st intr args ret_ty =
  let open Intrin in
  match intr.i_kind with
  | Krt n ->
    spill_all st;
    let slotted = call_args_positional st args in
    place_args st slotted;
    emit st (Insn.Rt n);
    call_result st ret_ty
  | Ksys n ->
    spill_all st;
    let slotted = call_args_syscall st args in
    place_args st slotted;
    emit_syscall st n;
    call_result st ret_ty
  | Kspecial sp -> eval_special st sp args ret_ty

and eval_special st sp args ret_ty =
  let module S = Cheri_kernel.Sysno in
  match sp, args with
  | "assert", [ cond ] ->
    let v = coerce_int st (eval st cond) in
    let lok = fresh_label st "assert" in
    emit_item st (Asm.bne (gpr_of st v) Reg.zero lok);
    emit st (Insn.Break 77);
    emit_lbl st lok;
    release st v;
    let op, _ = new_int st in
    op
  | "mmap_anon", [ len ] ->
    spill_all st;
    let v = coerce_int st (eval st len) in
    emit st (Insn.Move (Reg.a0, gpr_of st v));
    release st v;
    (* mmap(NULL, len, RW, MAP_ANON, -1, 0): ints a0.. = len,prot,flags,fd,off *)
    emit st (Insn.Li (Reg.a1, S.prot_read lor S.prot_write));
    emit st (Insn.Li (Reg.a2, S.map_anon));
    emit st (Insn.Li (Reg.a3, -1));
    emit st (Insn.Li (Reg.a0 + 4, 0));
    if is_cheri st then emit st (Insn.CMove (Reg.ca0, Reg.cnull))
    else begin
      (* legacy: positional slots — addr,len,prot,flags,fd,off in a0..a5 *)
      emit st (Insn.Move (Reg.a1, Reg.a0));
      emit st (Insn.Li (Reg.a0, 0));
      emit st (Insn.Li (Reg.a2, S.prot_read lor S.prot_write));
      emit st (Insn.Li (Reg.a3, S.map_anon));
      emit st (Insn.Li (Reg.a0 + 4, -1));
      emit st (Insn.Li (Reg.a0 + 5, 0))
    end;
    emit_syscall st S.sys_mmap;
    call_result st ret_ty
  | "shmget", [ key; size ] ->
    spill_all st;
    let slotted = call_args_syscall st [ key; size ] in
    place_args st slotted;
    emit st (Insn.Li (Reg.a2, 0));
    emit_syscall st S.sys_shmget;
    call_result st ret_ty
  | "shmat", [ id ] ->
    spill_all st;
    let v = coerce_int st (eval st id) in
    emit st (Insn.Move (Reg.a0, gpr_of st v));
    release st v;
    if is_cheri st then begin
      emit st (Insn.CMove (Reg.ca0, Reg.cnull));
      emit st (Insn.Li (Reg.a1, 0))
    end
    else begin
      emit st (Insn.Li (Reg.a1, 0));
      emit st (Insn.Li (Reg.a2, 0))
    end;
    emit_syscall st S.sys_shmat;
    call_result st ret_ty
  | "wait", [ statusp ] ->
    spill_all st;
    let v = eval st statusp in
    let v = coerce_ptr st v in
    if is_cheri st then begin
      emit st (Insn.CMove (Reg.ca0, cap_of st v));
      emit st (Insn.Li (Reg.a0, -1));
      emit st (Insn.Li (Reg.a1, 0))
    end
    else begin
      emit st (Insn.Move (Reg.a1, gpr_of st v));
      emit st (Insn.Li (Reg.a0, -1));
      emit st (Insn.Li (Reg.a2, 0))
    end;
    release st v;
    emit_syscall st S.sys_wait4;
    call_result st ret_ty
  | "sysctl_read", [ name; buf; len ] ->
    spill_all st;
    (* Store len into the scratch slot, pass its address as oldlenp. *)
    let lv = coerce_int st (eval st len) in
    (if is_cheri st then
       emit st (Insn.CStore { w = 8; rs = gpr_of st lv; cb = Reg.csp;
                              off = st.misc_off })
     else
       emit st (Insn.Store { w = 8; rs = gpr_of st lv; base = Reg.sp;
                             off = st.misc_off }));
    release st lv;
    let nv = coerce_ptr st (eval st name) in
    let bv = coerce_ptr st (eval st buf) in
    if is_cheri st then begin
      emit st (Insn.CMove (Reg.ca0, cap_of st nv));
      emit st (Insn.CMove (Reg.ca0 + 1, cap_of st bv));
      emit st (Insn.CIncOffsetImm (Reg.ca0 + 2, Reg.csp, st.misc_off));
      emit st (Insn.CSetBoundsImm (Reg.ca0 + 2, Reg.ca0 + 2, 16));
      emit st (Insn.CMove (Reg.ca0 + 3, Reg.cnull));
      emit st (Insn.Li (Reg.a0, 0));
      emit st (Insn.Li (Reg.a1, 0))
    end
    else begin
      emit st (Insn.Move (Reg.a0, gpr_of st nv));
      emit st (Insn.Li (Reg.a1, 0));
      emit st (Insn.Move (Reg.a2, gpr_of st bv));
      emit st (Insn.Addiu (Reg.a3, Reg.sp, st.misc_off));
      emit st (Insn.Li (Reg.a0 + 4, 0));
      emit st (Insn.Li (Reg.a0 + 5, 0))
    end;
    release st nv;
    release st bv;
    emit_syscall st S.sys_sysctl;
    call_result st ret_ty
  | "sigaction_fn", [ sig_; handler ] ->
    spill_all st;
    let f =
      match handler.Sema.te with
      | Sema.Xfunref f -> f
      | _ -> error "sigaction_fn needs a function name"
    in
    (* Build the act struct (handler slot) in the scratch slot. *)
    let h = symbol_ptr st f 0 in
    (if is_cheri st then
       emit st (Insn.CSC { cs = cap_of st h; cb = Reg.csp; off = st.misc_off })
     else
       emit st (Insn.Store { w = 8; rs = gpr_of st h; base = Reg.sp;
                             off = st.misc_off }));
    release st h;
    let sv = coerce_int st (eval st sig_) in
    emit st (Insn.Move (Reg.a0, gpr_of st sv));
    release st sv;
    if is_cheri st then begin
      emit st (Insn.CIncOffsetImm (Reg.ca0, Reg.csp, st.misc_off));
      emit st (Insn.CSetBoundsImm (Reg.ca0, Reg.ca0, 16));
      emit st (Insn.CMove (Reg.ca0 + 1, Reg.cnull))
    end
    else begin
      emit st (Insn.Addiu (Reg.a1, Reg.sp, st.misc_off));
      emit st (Insn.Li (Reg.a2, 0))
    end;
    emit_syscall st S.sys_sigaction;
    call_result st ret_ty
  | _ -> error "unknown special intrinsic %s" sp

(* --- Statements ----------------------------------------------------------------------------------------- *)

let rec gen_stmt st (s : Sema.tstmt) =
  match s with
  | Sema.Ydecl (ty, name, init) ->
    let idx = st.decl_counter in
    st.decl_counter <- idx + 1;
    let off =
      match Hashtbl.find_opt st.decl_offsets idx with
      | Some o -> o
      | None -> error "codegen: frame plan missing decl %d" idx
    in
    let capslot =
      Option.map (fun cs -> cs, off) (Hashtbl.find_opt st.decl_capslots idx)
    in
    bind_local st name off ty capslot;
    (* Derive the aggregate's bounded capability once, at declaration. *)
    (match capslot with
     | Some (cs, _) ->
       emit st (Insn.CIncOffsetImm (Reg.cjt, Reg.csp, off));
       emit st (Insn.CSetBoundsImm (Reg.cjt, Reg.cjt,
                                    max (Layout.sizeof st.lay ty) 1));
       emit st (Insn.CSC { cs = Reg.cjt; cb = Reg.csp; off = cs })
     | None -> ());
    (match init with
     | None -> ()
     | Some e ->
       let v = eval st e in
       store_scalar st (Lslot (off, ty, capslot)) v;
       release st v)
  | Sema.Yexpr e -> release st (eval st e)
  | Sema.Yif (c, th, el) ->
    let lelse = fresh_label st "else" and lend = fresh_label st "endif" in
    let v = coerce_int st (eval st c) in
    emit_item st (Asm.beq (gpr_of st v) Reg.zero lelse);
    release st v;
    gen_stmt st th;
    (match el with
     | Some e ->
       emit_item st (Asm.j lend);
       emit_lbl st lelse;
       gen_stmt st e;
       emit_lbl st lend
     | None -> emit_lbl st lelse)
  | Sema.Ywhile (c, body) ->
    let lcond = fresh_label st "wcond" and lend = fresh_label st "wend" in
    emit_lbl st lcond;
    let v = coerce_int st (eval st c) in
    emit_item st (Asm.beq (gpr_of st v) Reg.zero lend);
    release st v;
    st.break_lbl <- lend :: st.break_lbl;
    st.cont_lbl <- lcond :: st.cont_lbl;
    gen_stmt st body;
    st.break_lbl <- List.tl st.break_lbl;
    st.cont_lbl <- List.tl st.cont_lbl;
    emit_item st (Asm.j lcond);
    emit_lbl st lend
  | Sema.Ydo (body, c) ->
    let lbody = fresh_label st "dbody" in
    let lcond = fresh_label st "dcond" and lend = fresh_label st "dend" in
    emit_lbl st lbody;
    st.break_lbl <- lend :: st.break_lbl;
    st.cont_lbl <- lcond :: st.cont_lbl;
    gen_stmt st body;
    st.break_lbl <- List.tl st.break_lbl;
    st.cont_lbl <- List.tl st.cont_lbl;
    emit_lbl st lcond;
    let v = coerce_int st (eval st c) in
    emit_item st (Asm.bne (gpr_of st v) Reg.zero lbody);
    release st v;
    emit_lbl st lend
  | Sema.Yfor (init, cond, step, body) ->
    push_scope st;
    Option.iter (gen_stmt st) init;
    let lcond = fresh_label st "fcond" in
    let lstep = fresh_label st "fstep" in
    let lend = fresh_label st "fend" in
    emit_lbl st lcond;
    (match cond with
     | Some c ->
       let v = coerce_int st (eval st c) in
       emit_item st (Asm.beq (gpr_of st v) Reg.zero lend);
       release st v
     | None -> ());
    st.break_lbl <- lend :: st.break_lbl;
    st.cont_lbl <- lstep :: st.cont_lbl;
    gen_stmt st body;
    st.break_lbl <- List.tl st.break_lbl;
    st.cont_lbl <- List.tl st.cont_lbl;
    emit_lbl st lstep;
    (match step with
     | Some e -> release st (eval st e)
     | None -> ());
    emit_item st (Asm.j lcond);
    emit_lbl st lend;
    pop_scope st
  | Sema.Yreturn e ->
    (match e with
     | Some e ->
       let v = eval st e in
       if is_pointer st.cur_ret then begin
         let v = coerce_ptr st v in
         if is_cheri st then begin
           let c = cap_of st v in
           emit st (Insn.CMove (Reg.ca0, c));
           emit st (Insn.CGetAddr (Reg.v0, c))
         end
         else emit st (Insn.Move (Reg.v0, gpr_of st v))
       end
       else begin
         let v = coerce_int st v in
         emit st (Insn.Move (Reg.v0, gpr_of st v))
       end;
       release st v
     | None -> ());
    emit_item st (Asm.j ("Lret$" ^ st.cur_fun))
  | Sema.Ybreak ->
    (match st.break_lbl with
     | l :: _ -> emit_item st (Asm.j l)
     | [] -> error "break outside loop")
  | Sema.Ycontinue ->
    (match st.cont_lbl with
     | l :: _ -> emit_item st (Asm.j l)
     | [] -> error "continue outside loop")
  | Sema.Yblock body ->
    push_scope st;
    List.iter (gen_stmt st) body;
    pop_scope st

(* --- Functions --------------------------------------------------------------------------------------------- *)

let gen_fun_body st (f : Sema.tfun) ~nspill =
  st.cur_fun <- f.Sema.tf_name;
  st.cur_ret <- f.Sema.tf_ret;
  st.free_gpr <- Reg.temp_pool;
  st.free_cap <- Reg.ctemp_pool;
  st.live <- [];
  st.free_spill <- List.init nspill (fun i -> i);
  st.scopes <- [];
  st.decl_counter <- 0;
  st.break_lbl <- [];
  st.cont_lbl <- [];
  st.asan_lbl <- None;
  let param_offs, poison = plan_frame st f ~nspill in
  emit_lbl st f.Sema.tf_name;
  (* Prologue. *)
  if is_cheri st then begin
    emit st (Insn.CIncOffsetImm (Reg.csp, Reg.csp, -st.frame_size));
    emit st (Insn.CSC { cs = Reg.cra; cb = Reg.csp; off = st.save_off })
  end
  else begin
    emit st (Insn.Addiu (Reg.sp, Reg.sp, -st.frame_size));
    emit st (Insn.Store { w = 8; rs = Reg.ra; base = Reg.sp; off = st.save_off })
  end;
  if is_asan st then asan_frame_shadow st ~poison:true poison;
  (* Park incoming arguments in their frame slots. *)
  push_scope st;
  List.iteri
    (fun i ((ty, name), off) ->
      if i >= 8 then error "more than 8 parameters in %s" f.Sema.tf_name;
      (if is_pointer ty then begin
         if is_cheri st then
           emit st (Insn.CSC { cs = Reg.ca0 + i; cb = Reg.csp; off })
         else
           emit st (Insn.Store { w = 8; rs = Reg.a0 + i; base = Reg.sp; off })
       end
       else if is_cheri st then
         emit st (Insn.CStore { w = 8; rs = Reg.a0 + i; cb = Reg.csp; off })
       else emit st (Insn.Store { w = 8; rs = Reg.a0 + i; base = Reg.sp; off }));
      bind_local st name off ty None)
    (List.combine f.Sema.tf_params param_offs);
  (* Body. *)
  List.iter (gen_stmt st) f.Sema.tf_body;
  (* Fall-through return value. *)
  (match f.Sema.tf_ret with
   | Tvoid -> ()
   | t when is_pointer t ->
     emit st (Insn.Li (Reg.v0, 0));
     if is_cheri st then emit st (Insn.CMove (Reg.ca0, Reg.cnull))
   | _ -> emit st (Insn.Li (Reg.v0, 0)));
  emit_lbl st ("Lret$" ^ f.Sema.tf_name);
  if is_asan st then asan_frame_shadow st ~poison:false poison;
  (* Epilogue. *)
  if is_cheri st then begin
    emit st (Insn.CLC { cd = Reg.cra; cb = Reg.csp; off = st.save_off });
    emit st (Insn.CIncOffsetImm (Reg.csp, Reg.csp, st.frame_size));
    emit st (Insn.CJR Reg.cra)
  end
  else begin
    emit st (Insn.Load { w = 8; signed = false; rd = Reg.ra; base = Reg.sp;
                         off = st.save_off });
    emit st (Insn.Addiu (Reg.sp, Reg.sp, st.frame_size));
    emit st (Insn.Jr Reg.ra)
  end;
  (* ASan abort landing pad. *)
  (match st.asan_lbl with
   | Some l ->
     emit_lbl st l;
     emit st (Insn.Break 78)
   | None -> ());
  pop_scope st

(* Compile [f] with [nspill] spill slots; if that is too few, drop what
   the attempt emitted, its labels and the GOT entries it added first, and
   compile it again with twice as many. The GOT order only grows by
   consing, so the list before the attempt is a physical suffix of the
   list after it, and a retry re-adds the dropped entries in the same
   order. *)
let rec gen_fun_sized st (f : Sema.tfun) ~nspill =
  let items = st.items and labels = st.label_counter
  and got_order = st.got_order in
  try gen_fun_body st f ~nspill
  with Out_of_spill_slots ->
    if nspill >= max_spill_slots then
      error "expression too complex: out of spill slots";
    let rec forget l =
      if l != got_order then
        match l with
        | sym :: rest -> Hashtbl.remove st.got sym; forget rest
        | [] -> ()
    in
    forget st.got_order;
    st.items <- items;
    st.label_counter <- labels;
    st.got_order <- got_order;
    gen_fun_sized st f ~nspill:(2 * nspill)

let gen_fun st f = gen_fun_sized st f ~nspill:spill_slots

(* --- Data segment ------------------------------------------------------------------------------------------- *)

type data_plan = {
  dp_size : int;
  dp_offsets : (string * int) list;
  dp_tls_offsets : (string * int) list;
  dp_tls_size : int;
  dp_poison : (int * int) list;
}

let plan_data st =
  let lay = st.lay in
  let off = ref 0 and tls_off = ref 0 in
  let offsets = ref [] and tls_offsets = ref [] and poison = ref [] in
  let gap () =
    if is_asan st then begin
      let start = !off in
      off := Layout.align_up !off 16 + 16;
      poison := (start, !off - start) :: !poison
    end
  in
  let place name ty =
    gap ();
    let al = max (Layout.alignof lay ty)
        (if is_pointer ty && is_cheri st then 16 else 8)
    in
    off := Layout.align_up !off al;
    offsets := (name, !off) :: !offsets;
    let sz = Layout.sizeof lay ty in
    off := !off + (if is_asan st then Layout.align_up sz 8 else sz)
  in
  List.iter
    (fun (g : Sema.tglobal) ->
      if g.Sema.tg_tls then begin
        tls_off := Layout.align_up !tls_off 16;
        tls_offsets := (g.Sema.tg_name, !tls_off) :: !tls_offsets;
        tls_off := !tls_off + max (Layout.sizeof lay g.Sema.tg_ty) 16
      end
      else place g.Sema.tg_name g.Sema.tg_ty)
    st.tunit.Sema.tu_globals;
  Array.iteri
    (fun i s ->
      place (string_sym st i) (Tarr (Tchar, String.length s + 1)))
    st.tunit.Sema.tu_strings;
  gap ();
  { dp_size = Layout.align_up !off 16;
    dp_offsets = List.rev !offsets;
    dp_tls_offsets = List.rev !tls_offsets;
    dp_tls_size = !tls_off;
    dp_poison = List.rev !poison }

(* --- Unit driver --------------------------------------------------------------------------------------------- *)

let compile_unit ~name ~opts (tu : Sema.tunit) : Sobj.t =
  let lay = Layout.create ~abi:opts.abi tu.Sema.tu_structs in
  let st =
    { opts; lay; unit_name = name; tunit = tu;
      items = []; free_gpr = []; free_cap = []; live = []; free_spill = [];
      scopes = []; decl_counter = 0; decl_offsets = Hashtbl.create 32;
      decl_capslots = Hashtbl.create 32;
      frame_size = 0; spill_base = 0; save_off = 0; misc_off = 0;
      label_counter = 0; cur_fun = ""; cur_ret = Tvoid;
      break_lbl = []; cont_lbl = []; asan_lbl = None;
      got = Hashtbl.create 32; got_order = [];
      defined_funs = Hashtbl.create 16 }
  in
  List.iter
    (fun (f : Sema.tfun) -> Hashtbl.replace st.defined_funs f.Sema.tf_name ())
    tu.Sema.tu_funs;
  List.iter (gen_fun st) tu.Sema.tu_funs;
  (* Data segment. *)
  let dp = plan_data st in
  let data = Bytes.make dp.dp_size '\000' in
  let relocs = ref [] in
  let goff g = List.assoc g dp.dp_offsets in
  let write_int off len v =
    for i = 0 to len - 1 do
      Bytes.set data (off + i) (Char.chr ((v lsr (8 * i)) land 0xff))
    done
  in
  List.iter
    (fun (g : Sema.tglobal) ->
      if not g.Sema.tg_tls then begin
        let off = goff g.Sema.tg_name in
        match g.Sema.tg_init with
        | Gnone -> ()
        | Gnum v -> write_int off (Layout.sizeof lay g.Sema.tg_ty) v
        | Gbytes s -> Bytes.blit_string s 0 data off (String.length s)
        | Gnums vs -> List.iteri (fun i v -> write_int (off + (i * 8)) 8 v) vs
        | Gstr _ | Gaddr _ ->
          (* pointer-valued initializer: a relocation processed by rtld *)
          ()
      end)
    tu.Sema.tu_globals;
  (* Collect pointer-valued initializers as relocations (needing the
     string-global names resolved). Strings referenced only from
     initializers still need data and (for CheriABI) GOT entries. *)
  let string_inits = Hashtbl.create 8 in
  let string_idx = ref (Array.length tu.Sema.tu_strings) in
  ignore string_idx;
  List.iter
    (fun (g : Sema.tglobal) ->
      if not g.Sema.tg_tls then begin
        let off = goff g.Sema.tg_name in
        match g.Sema.tg_init with
        | Gstr s ->
          (* Place the literal: reuse an identical in-code literal if the
             string table has one, else it must have been added by sema.
             Initializer-only strings are appended to the string table by
             [Compile]. *)
          let idx =
            let found = ref (-1) in
            Array.iteri
              (fun i t -> if !found < 0 && t = s then found := i)
              tu.Sema.tu_strings;
            if !found < 0 then error "initializer string not in table";
            !found
          in
          Hashtbl.replace string_inits idx ();
          relocs :=
            { Sobj.dr_off = off; dr_target = string_sym st idx; dr_addend = 0 }
            :: !relocs
        | Gaddr (sym, add) ->
          relocs :=
            { Sobj.dr_off = off; dr_target = sym; dr_addend = add } :: !relocs
        | Gnone | Gnum _ | Gbytes _ | Gnums _ -> ()
      end)
    tu.Sema.tu_globals;
  (* String-literal contents. *)
  Array.iteri
    (fun i s ->
      let off = goff (string_sym st i) in
      Bytes.blit_string s 0 data off (String.length s))
    tu.Sema.tu_strings;
  (* GOT entries for relocation targets handled by rtld directly; but
     referenced strings must be exported either way. *)
  (* Exports. *)
  let exports =
    List.map
      (fun (f : Sema.tfun) ->
        { Sobj.exp_name = f.Sema.tf_name; exp_kind = Sobj.Func; exp_off = 0 })
      tu.Sema.tu_funs
    @ List.filter_map
        (fun (g : Sema.tglobal) ->
          if g.Sema.tg_tls then
            Some
              { Sobj.exp_name = g.Sema.tg_name;
                exp_kind = Sobj.Tls (Layout.sizeof lay g.Sema.tg_ty);
                exp_off = List.assoc g.Sema.tg_name dp.dp_tls_offsets }
          else
            Some
              { Sobj.exp_name = g.Sema.tg_name;
                exp_kind = Sobj.Data (Layout.sizeof lay g.Sema.tg_ty);
                exp_off = goff g.Sema.tg_name })
        tu.Sema.tu_globals
    @ List.mapi
        (fun i s ->
          { Sobj.exp_name = string_sym st i;
            exp_kind = Sobj.Data (String.length s + 1);
            exp_off = goff (string_sym st i) })
        (Array.to_list tu.Sema.tu_strings)
  in
  Sobj.make ~name ~data ~tls:(Layout.align_up (max dp.dp_tls_size 0) 16)
    ~exports ~got_syms:(List.rev st.got_order)
    ~data_relocs:(List.rev !relocs)
    ~shadow_poison:(if is_asan st then dp.dp_poison else [])
    (List.rev st.items)
