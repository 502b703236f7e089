(* Capability provenance lint: a static analyzer over Sema's typed AST.

   The paper's compatibility study (Table 2, §4) classifies the C idioms
   that break under CheriABI; the authors found them with compiler
   warnings. This pass reproduces that tooling semantically: an
   intra-procedural forward dataflow over each function, tracking a
   provenance lattice per pointer-valued expression, plus a handful of
   syntactic pattern detectors that need types and layout rather than
   flow (struct shape, memcpy sizes, container_of re-derivation).

   Diagnostics use the paper's Table 2 taxonomy. Under the simulated
   CheriABI the detectors below correspond to concrete machine behaviour:
   an integer-to-pointer cast lowers to CFromPtr off the (null) DDC and
   produces an untagged capability, so any dereference, store or jump
   through it is a guaranteed tag trap; constant out-of-bounds indexing
   trips the object's bounds; partial capability copies strip the tag.
   test/test_analysis.ml validates each diagnostic class against that
   dynamic ground truth. *)

open Cheri_cc.Ast
module Sema = Cheri_cc.Sema
module Layout = Cheri_cc.Layout
module Intrin = Cheri_cc.Intrin
module Abi = Cheri_core.Abi

(* --- Diagnostics -------------------------------------------------------------------- *)

(* Table 2 categories, also [Cheri_workloads.Compat]'s. The analyzer emits
   all but U ("unsupported" is a porting decision, not a program property):
   [categories] omits it, [table2_categories] is every column. *)
type category = PP | IP | M | PS | I | VA | BF | H | A | CC | U

let categories = [ PP; IP; M; PS; I; VA; BF; H; A; CC ]
let table2_categories = categories @ [ U ]

let cat_name = function
  | PP -> "PP" | IP -> "IP" | M -> "M" | PS -> "PS" | I -> "I"
  | VA -> "VA" | BF -> "BF" | H -> "H" | A -> "A" | CC -> "CC" | U -> "U"

let cat_description = function
  | PP -> "pointer provenance"
  | IP -> "integer provenance"
  | M -> "monotonicity"
  | PS -> "pointer shape"
  | I -> "pointer as integer"
  | VA -> "virtual address"
  | BF -> "bit flags"
  | H -> "hashing"
  | A -> "alignment"
  | CC -> "calling convention"
  | U -> "unsupported"

type diag = {
  d_line : int;
  d_cat : category;
  d_fun : string;       (* enclosing function, or "<unit>" for struct scans *)
  d_msg : string;
}

let pp_diag d =
  Printf.sprintf "line %d: [%s] %s (in %s)" d.d_line (cat_name d.d_cat)
    d.d_msg d.d_fun

(* --- The provenance lattice --------------------------------------------------------- *)

(* Where a value ultimately derives its capability (or fails to). For
   pointer-typed values every element but [Int_derived] and [Null] names
   a valid provenance root; [Int_derived] is a pointer materialized from
   a bare integer — under CheriABI it is derived from the null DDC,
   carries no tag, and traps on any use. Integer-typed values track
   whether they hold a capability's address ([Ptr_int]) so that
   round-trips and address arithmetic can be recognized. *)
type prov =
  | Bot                  (* unreached *)
  | Null                 (* literal 0 *)
  | Heap                 (* malloc/calloc/realloc/mmap/sbrk/shmat result *)
  | Stack                (* address of a local *)
  | Global               (* address of a global or a string literal *)
  | Func                 (* function reference *)
  | Int_derived          (* pointer built from an integer: untagged *)
  | Ptr_int              (* integer holding a pointer's address *)
  | Pure_int             (* integer with no pointer ancestry *)
  | Unknown

let prov_name = function
  | Bot -> "bot" | Null -> "null" | Heap -> "heap" | Stack -> "stack"
  | Global -> "global" | Func -> "function" | Int_derived -> "int-derived"
  | Ptr_int -> "ptr-int" | Pure_int -> "int" | Unknown -> "unknown"

let join a b =
  if a = b then a
  else
    match a, b with
    | Bot, x | x, Bot -> x
    | _ -> Unknown

(* --- Analysis state ----------------------------------------------------------------- *)

type st = {
  mutable diags : diag list;
  seen : (int * category * string * string, unit) Hashtbl.t;
      (* dedup across loop re-analysis *)
  vars : (string, prov) Hashtbl.t;    (* current per-variable state *)
  mutable fn : string;
  structs : (string * (ty * string) list) list;
}

let emit st line cat fmt =
  Printf.ksprintf
    (fun msg ->
      let key = (line, cat, msg, st.fn) in
      if not (Hashtbl.mem st.seen key) then begin
        Hashtbl.replace st.seen key ();
        st.diags <- { d_line = line; d_cat = cat; d_fun = st.fn; d_msg = msg }
                    :: st.diags
      end)
    fmt

let get_var st name =
  match Hashtbl.find_opt st.vars name with Some p -> p | None -> Unknown

let set_var st name p = Hashtbl.replace st.vars name p

let snapshot st = Hashtbl.copy st.vars

let restore st snap =
  Hashtbl.reset st.vars;
  Hashtbl.iter (fun k v -> Hashtbl.replace st.vars k v) snap

(* Join [other] into the current state. *)
let join_into st other =
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) st.vars [] in
  List.iter
    (fun k ->
      let a = get_var st k in
      let b = match Hashtbl.find_opt other k with Some p -> p | None -> Bot in
      set_var st k (join a b))
    keys;
  Hashtbl.iter
    (fun k v -> if not (Hashtbl.mem st.vars k) then set_var st k v)
    other

let state_equal a b =
  Hashtbl.length a = Hashtbl.length b
  && Hashtbl.fold
       (fun k v acc -> acc && Hashtbl.find_opt b k = Some v)
       a true

(* --- Abstract values ---------------------------------------------------------------- *)

type aval = {
  p : prov;
  const : int option;   (* known compile-time integer value *)
}

let av ?const p = { p; const }

let is_pow2 n = n > 0 && n land (n - 1) = 0

(* An alignment mask is ~(2^k - 1) for k >= 2, i.e. a negative constant
   whose complement is a small all-ones value: (x + 15) & ~15. Smaller
   masks (& ~1, & 1, | 1) are flag packing. *)
let is_align_mask c = c < 0 && lnot c >= 3 && is_pow2 (lnot c + 1)

(* --- Detector helpers --------------------------------------------------------------- *)

let heap_intrinsics =
  [ "malloc"; "calloc"; "realloc"; "mmap_anon"; "shmat"; "sbrk" ]

(* Does this expression take the raw bytes of a pointer object (cast of a
   pointer-to-pointer, or address of a pointer variable)? Used by the
   memcpy pointer-shape detector. *)
let rec takes_pointer_bytes (e : Sema.texpr) =
  match e.Sema.te with
  | Sema.Xcast (_, inner) -> takes_pointer_bytes inner
  | Sema.Xaddr lv -> is_pointer lv.Sema.ty
  | _ ->
    (match e.Sema.ty with
     | Tptr (Tptr _) | Tptr (Tarr _) -> true
     | _ -> false)

(* --- The dataflow pass -------------------------------------------------------------- *)

let rec eval st (e : Sema.texpr) : aval =
  let line = e.Sema.tl in
  match e.Sema.te with
  | Sema.Xnum n -> av ~const:n (if n = 0 then Null else Pure_int)
  | Sema.Xstr _ -> av Global
  | Sema.Xfunref _ -> av Func
  | Sema.Xvar (name, Sema.Vlocal) ->
    (match e.Sema.ty with
     | Tarr _ -> av Stack                   (* array decays to its own slot *)
     | _ -> av (get_var st name))
  | Sema.Xvar (_, Sema.Vglobal _) ->
    (match e.Sema.ty with
     | Tarr _ | Tstruct _ -> av Global
     | Tptr _ -> av Unknown                 (* contents of a pointer global *)
     | _ -> av Pure_int)
  | Sema.Xun (op, a) ->
    let va = eval st a in
    let const =
      match op, va.const with
      | Neg, Some n -> Some (-n)
      | Bitnot, Some n -> Some (lnot n)
      | Lognot, Some n -> Some (if n = 0 then 1 else 0)
      | _ -> None
    in
    { p = (if va.p = Ptr_int then Ptr_int else Pure_int); const }
  | Sema.Xbin (op, a, b) -> eval_binop st line op a b
  | Sema.Xassign (lhs, rhs) ->
    (* Walk the lhs for embedded dereferences, then flow the rhs value
       into the variable state when the target is a scalar variable. *)
    (match lhs.Sema.te with
     | Sema.Xvar _ -> ()
     | _ -> ignore (lvalue_prov st lhs));
    let vr = eval st rhs in
    (match lhs.Sema.te with
     | Sema.Xvar (name, Sema.Vlocal) -> set_var st name vr.p
     | _ -> ());
    vr
  | Sema.Xcall (callee, args) -> eval_call st line callee args
  | Sema.Xcalli (fp, args) ->
    let vf = eval st fp in
    List.iter (fun a -> ignore (eval st a)) args;
    emit st line CC
      "indirect call through %s pointer: callee signature unchecked"
      (prov_name vf.p);
    if vf.p = Int_derived then
      emit st line IP
        "indirect call through integer-derived pointer: untagged, traps";
    av Pure_int
  | Sema.Xindex (base, idx) ->
    let vb =
      match base.Sema.ty with
      | Tarr _ -> lvalue_prov st base
      | _ -> eval st base
    in
    let vi = eval st idx in
    if vb.p = Int_derived then
      emit st line IP
        "indexing an integer-derived pointer: untagged, traps";
    (match base.Sema.ty, vi.const with
     | Tarr (_, n), Some k when k < 0 || k >= n ->
       emit st line M
         "constant index %d outside bounds [0,%d): bounds trap" k n
     | _ -> ());
    value_of_load e.Sema.ty vb
  | Sema.Xderef p ->
    let vp = eval st p in
    if vp.p = Int_derived then
      emit st line IP
        "dereference of integer-derived pointer: untagged, traps";
    value_of_load e.Sema.ty vp
  | Sema.Xaddr lv -> lvalue_prov st lv
  | Sema.Xfield (base, _, _) ->
    let vb = lvalue_prov st base in
    value_of_load e.Sema.ty vb
  | Sema.Xcast (to_, inner) -> eval_cast st line to_ inner
  | Sema.Xsizeof _ -> av Pure_int

(* The provenance of the object an lvalue lives in. *)
and lvalue_prov st (e : Sema.texpr) : aval =
  match e.Sema.te with
  | Sema.Xvar (name, Sema.Vlocal) ->
    (match e.Sema.ty with
     | Tarr _ | Tstruct _ -> av Stack
     | _ ->
       (* &scalar: the address of the local slot itself *)
       ignore (get_var st name);
       av Stack)
  | Sema.Xvar (_, Sema.Vglobal _) -> av Global
  | Sema.Xderef p ->
    let vp = eval st p in
    if vp.p = Int_derived then
      emit st e.Sema.tl IP
        "dereference of integer-derived pointer: untagged, traps";
    vp
  | Sema.Xindex (base, idx) ->
    let vb =
      match base.Sema.ty with
      | Tarr _ -> lvalue_prov st base
      | _ -> eval st base
    in
    let vi = eval st idx in
    (match base.Sema.ty, vi.const with
     | Tarr (_, n), Some k when k < 0 || k >= n ->
       emit st e.Sema.tl M
         "constant index %d outside bounds [0,%d): bounds trap" k n
     | _ -> ());
    vb
  | Sema.Xfield (base, _, _) -> lvalue_prov st base
  | Sema.Xcast (_, inner) -> lvalue_prov st inner
  | _ -> av Unknown

(* The abstract value read out of memory at type [ty]. *)
and value_of_load ty src =
  match ty with
  | Tarr _ | Tstruct _ -> av src.p     (* interior object: same provenance *)
  | Tptr _ -> av Unknown               (* a pointer loaded from memory *)
  | _ -> av Pure_int

and eval_binop st line op a b =
  let va = eval st a and vb = eval st b in
  let const =
    match op, va.const, vb.const with
    | Add, Some x, Some y -> Some (x + y)
    | Sub, Some x, Some y -> Some (x - y)
    | Mul, Some x, Some y -> Some (x * y)
    | Div, Some x, Some y when y <> 0 -> Some (x / y)
    | Mod, Some x, Some y when y <> 0 -> Some (x mod y)
    | Shl, Some x, Some y -> Some (x lsl y)
    | Shr, Some x, Some y -> Some (x asr y)
    | Band, Some x, Some y -> Some (x land y)
    | Bor, Some x, Some y -> Some (x lor y)
    | Bxor, Some x, Some y -> Some (x lxor y)
    | _ -> None
  in
  let ptr_side =
    if is_pointer a.Sema.ty then Some va
    else if is_pointer b.Sema.ty then Some vb
    else None
  in
  match op with
  | Add | Sub ->
    (match ptr_side with
     | Some v when not (is_pointer a.Sema.ty && is_pointer b.Sema.ty) ->
       { p = v.p; const = None }      (* pointer arithmetic keeps provenance *)
     | Some _ -> av Pure_int          (* pointer difference *)
     | None ->
       let p =
         if va.p = Ptr_int || vb.p = Ptr_int then Ptr_int else Pure_int
       in
       { p; const })
  | Band | Bor | Bxor ->
    let masked, mask = if va.p = Ptr_int then va, vb else vb, va in
    if masked.p = Ptr_int then begin
      (match mask.const with
       | Some c when op = Band && is_align_mask c ->
         emit st line A
           "alignment arithmetic on a pointer address (mask %d): \
            re-derived pointer loses its tag" c
       | Some _ ->
         if op = Bxor && va.p = Ptr_int && vb.p = Ptr_int then
           emit st line H "pointer addresses xor-combined"
         else
           emit st line BF
             "bit flags packed into a pointer address: low bits are not \
              spare under CheriABI"
       | None ->
         if op = Bxor && va.p = Ptr_int && vb.p = Ptr_int then
           emit st line H "pointer addresses xor-combined"
         else
           emit st line BF
             "bitwise %s on a pointer address"
             (match op with Band -> "&" | Bor -> "|" | _ -> "^"));
      { p = Ptr_int; const }
    end
    else { p = Pure_int; const }
  | Mod ->
    if va.p = Ptr_int then begin
      emit st line H
        "pointer address reduced to a bucket (hashing): address is not \
         stable identity under CheriABI";
      { p = Pure_int; const }
    end
    else { p = Pure_int; const }
  | Shl | Shr ->
    { p = (if va.p = Ptr_int then Ptr_int else Pure_int); const }
  | Mul | Div ->
    { p = (if va.p = Ptr_int || vb.p = Ptr_int then Ptr_int else Pure_int);
      const }
  | Eq | Ne | Lt | Le | Gt | Ge | Land | Lor ->
    List.iter (fun _ -> ()) [];
    { p = Pure_int; const }

and eval_call st line callee args =
  let vargs = List.map (eval st) args in
  match callee with
  | Sema.Cintrin intr ->
    let name = intr.Intrin.i_name in
    (* memcpy/memmove of pointer bytes with a constant sub-capability
       size: the classic "pointers are 8 bytes" shape assumption. *)
    if (name = "memcpy" || name = "memmove") then begin
      match args with
      | [ dst; src; len ] ->
        let vlen = eval_const_of st len in
        (match vlen with
         | Some n when n > 0 && n < 16
                       && (takes_pointer_bytes dst || takes_pointer_bytes src) ->
           emit st line PS
             "%s of %d bytes of a pointer object: capabilities are 16 \
              bytes, the tag is lost" name n
         | _ -> ())
      | _ -> ()
    end;
    if List.mem name heap_intrinsics then av Heap
    else if name = "memcpy" || name = "memmove" || name = "memset" then
      (match vargs with v :: _ -> av v.p | [] -> av Unknown)
    else if is_pointer intr.Intrin.i_ret then av Unknown
    else av Pure_int
  | Sema.Cuser _ | Sema.Cextern _ -> av Unknown

(* Re-evaluate a constant without re-emitting diagnostics: args were
   already walked by eval_call. *)
and eval_const_of _st (e : Sema.texpr) =
  match e.Sema.te with
  | Sema.Xnum n -> Some n
  | Sema.Xun (Neg, { Sema.te = Sema.Xnum n; _ }) -> Some (-n)
  | _ -> None

and eval_cast st line to_ inner =
  let vi = eval st inner in
  match to_ with
  | Tptr _ when not (is_pointer inner.Sema.ty) ->
    (* int -> pointer: the CFromPtr-off-null-DDC case. Classify by where
       the integer came from. *)
    (match vi.p, vi.const with
     | _, Some 0 -> av Null
     | _, Some n ->
       emit st line I
         "integer constant %d cast to a pointer (sentinel value): \
          untagged, traps if used" n;
       av Int_derived
     | Ptr_int, None ->
       emit st line VA
         "pointer round-tripped through an integer: provenance lost, \
          the re-derived capability is untagged";
       av Int_derived
     | (Pure_int | Unknown | Bot), None ->
       emit st line IP
         "pointer constructed from an integer value: no valid provenance";
       av Int_derived
     | _, None -> av Int_derived)
  | Tptr (Tstruct sname) ->
    (* pointer -> struct pointer: container_of-style re-derivation when
       the source is an interior pointer moved backwards. *)
    (match inner.Sema.te with
     | Sema.Xbin (Sub, _, _)
     | Sema.Xbin (Add, _, { Sema.te = Sema.Xnum _; _ })
       when is_pointer inner.Sema.ty && backwards inner ->
       emit st line M
         "enclosing struct %s re-derived from an interior pointer \
          (container_of): widening violates monotonicity" sname
     | _ -> ());
    av vi.p
  | Tptr _ | Tarr _ -> av vi.p         (* pointer-to-pointer cast *)
  | Tint | Tchar when is_pointer inner.Sema.ty -> av Ptr_int
  | _ -> { p = vi.p; const = vi.const }

(* Is this pointer expression p - k or p + (negative)? *)
and backwards (e : Sema.texpr) =
  match e.Sema.te with
  | Sema.Xbin (Sub, _, rhs) ->
    (match rhs.Sema.te with
     | Sema.Xnum n -> n > 0
     | Sema.Xun (Neg, _) -> false
     | _ -> true)
  | Sema.Xbin (Add, _, rhs) ->
    (match rhs.Sema.te with
     | Sema.Xnum n -> n < 0
     | Sema.Xun (Neg, { Sema.te = Sema.Xnum n; _ }) -> n > 0
     | _ -> false)
  | _ -> false

(* --- Statements --------------------------------------------------------------------- *)

let decl_prov ty (init : aval option) =
  match ty, init with
  | Tarr _, _ | Tstruct _, _ -> Stack
  | _, Some v -> v.p
  | Tptr _, None -> Bot
  | _, None -> Pure_int

let rec exec_stmt st ret_ty (s : Sema.tstmt) =
  match s with
  | Sema.Ydecl (ty, name, init) ->
    let vi = Option.map (eval st) init in
    set_var st name (decl_prov ty vi)
  | Sema.Yexpr e -> ignore (eval st e)
  | Sema.Yif (c, t, f) ->
    ignore (eval st c);
    let pre = snapshot st in
    exec_stmt st ret_ty t;
    let after_then = snapshot st in
    restore st pre;
    (match f with Some f -> exec_stmt st ret_ty f | None -> ());
    join_into st after_then
  | Sema.Ywhile (c, body) ->
    ignore (eval st c);
    exec_loop st ret_ty (fun () ->
        exec_stmt st ret_ty body;
        ignore (eval st c))
  | Sema.Ydo (body, c) ->
    exec_stmt st ret_ty body;
    ignore (eval st c);
    exec_loop st ret_ty (fun () ->
        exec_stmt st ret_ty body;
        ignore (eval st c))
  | Sema.Yfor (init, cond, step, body) ->
    (match init with Some i -> exec_stmt st ret_ty i | None -> ());
    (match cond with Some c -> ignore (eval st c) | None -> ());
    exec_loop st ret_ty (fun () ->
        exec_stmt st ret_ty body;
        (match step with Some s -> ignore (eval st s) | None -> ());
        (match cond with Some c -> ignore (eval st c) | None -> ()))
  | Sema.Yreturn None -> ()
  | Sema.Yreturn (Some e) ->
    let v = eval st e in
    if is_pointer ret_ty && v.p = Stack then
      emit st e.Sema.tl PP
        "returning a capability to a local: the stack object escapes \
         its frame"
  | Sema.Ybreak | Sema.Ycontinue -> ()
  | Sema.Yblock body -> List.iter (exec_stmt st ret_ty) body

(* Join-until-fixpoint over a loop body. The lattice has tiny height, so
   this converges in two or three rounds; cap it defensively. *)
and exec_loop st _ret_ty body =
  let rec go n =
    let before = snapshot st in
    body ();
    join_into st before;
    if not (state_equal before st.vars) && n < 8 then go (n + 1)
  in
  go 0

(* --- Struct-shape scan -------------------------------------------------------------- *)

(* Capability slots in a struct laid out with 8-byte pointers land at
   offsets that are not 16-byte aligned; code (or serialized data)
   assuming the legacy layout parks capabilities across tag granules.
   Reported against the struct definition, not a use site. *)
let scan_structs st structs =
  let legacy = Layout.create ~abi:Abi.Mips64 structs in
  List.iter
    (fun (sname, fields) ->
      List.iter
        (fun (fty, fname) ->
          if is_pointer fty then
            match Layout.field_offset legacy sname fname with
            | off when off mod 16 <> 0 ->
              emit st 0 A
                "struct %s field %s holds a capability at legacy offset \
                 %d: not 16-byte aligned, straddles a tag granule" sname
                fname off
            | _ -> ()
            | exception Compile_error _ -> ())
        fields)
    structs

(* --- Entry points ------------------------------------------------------------------- *)

let compare_diag a b =
  match compare a.d_line b.d_line with
  | 0 ->
    (match compare (cat_name a.d_cat) (cat_name b.d_cat) with
     | 0 -> compare (a.d_fun, a.d_msg) (b.d_fun, b.d_msg)
     | c -> c)
  | c -> c

(* Analyze one typed translation unit. *)
let check_unit (tu : Sema.tunit) : diag list =
  let st =
    { diags = []; seen = Hashtbl.create 64; vars = Hashtbl.create 32;
      fn = "<unit>"; structs = tu.Sema.tu_structs }
  in
  scan_structs st tu.Sema.tu_structs;
  List.iter
    (fun f ->
      st.fn <- f.Sema.tf_name;
      Hashtbl.reset st.vars;
      List.iter
        (fun (ty, name) ->
          set_var st name (if is_pointer ty then Unknown else Pure_int))
        f.Sema.tf_params;
      List.iter (exec_stmt st f.Sema.tf_ret) f.Sema.tf_body)
    tu.Sema.tu_funs;
  List.sort compare_diag st.diags

(* Shift the "line N:" prefix front-end errors carry by [bias] lines —
   used to report positions in the user's source when a prelude (the
   libc prototypes) was prepended. *)
let shift_line ~bias msg =
  if bias = 0 then msg
  else
    match String.index_opt msg ':' with
    | Some i when i > 5 && String.sub msg 0 5 = "line " ->
      (match int_of_string_opt (String.sub msg 5 (i - 5)) with
       | Some n when n > bias ->
         Printf.sprintf "line %d%s" (n - bias)
           (String.sub msg i (String.length msg - i))
       | _ -> msg)
    | _ -> msg

(* Parse, type-check and lint a CSmall source. [externs] is prepended
   (the libc prototypes, usually); its line count is subtracted so
   diagnostics — and error positions — report lines of [src] itself. *)
let analyze_source ?(externs = "") src : (diag list, string) result =
  let full = if externs = "" then src else externs ^ src in
  let bias =
    if externs = "" then 0
    else String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 externs
  in
  match Sema.check (Cheri_cc.Parser.parse full) with
  | tu ->
    Ok
      (List.map
         (fun d -> { d with d_line = max 0 (d.d_line - bias) })
         (check_unit tu))
  | exception Compile_error msg -> Error (shift_line ~bias msg)

(* Per-category counts, for Table 2 style reporting. *)
let count_by_category diags =
  List.map
    (fun c -> c, List.length (List.filter (fun d -> d.d_cat = c) diags))
    categories
