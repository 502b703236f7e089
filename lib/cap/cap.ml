(* Architectural capabilities.

   A capability is a bounded, permission-carrying reference to virtual
   memory. The API enforces the three CHERI properties the paper reviews:

   - provenance validity: tagged capabilities can only be produced by
     [make_root] (machine reset / kernel root derivation) or by one of the
     monotonic derivation functions below;
   - integrity: there is no function that sets the tag of an arbitrary
     bit pattern;
   - monotonicity: every derivation either preserves or reduces the
     rights (bounds and permissions) of its source.

   Functions that correspond to trapping instructions raise [Cap_error];
   functions that architecturally clear the tag instead (e.g. address
   arithmetic leaving the representable window) return an untagged value. *)

type violation =
  | Tag_violation           (* operated on an untagged capability *)
  | Seal_violation          (* operated on a sealed capability *)
  | Permit_violation of Perms.t  (* missing permission *)
  | Bounds_violation        (* access outside [base, top) *)
  | Length_violation        (* negative or oversized length *)
  | Monotonicity_violation  (* attempted rights increase *)
  | Representability_violation  (* exact bounds not encodable *)
  | Alignment_violation     (* capability-sized access not 16-byte aligned *)

let violation_to_string = function
  | Tag_violation -> "tag violation"
  | Seal_violation -> "seal violation"
  | Permit_violation p -> "permission violation (needs " ^ Perms.to_string p ^ ")"
  | Bounds_violation -> "bounds violation"
  | Length_violation -> "length violation"
  | Monotonicity_violation -> "monotonicity violation"
  | Representability_violation -> "representability violation"
  | Alignment_violation -> "alignment violation"

exception Cap_error of violation

let error v = raise (Cap_error v)

(* Unsealed object type. *)
let otype_unsealed = -1

type t = {
  tag : bool;
  perms : Perms.t;
  otype : int;
  base : int;
  top : int;   (* exclusive *)
  addr : int;  (* cursor *)
}

(* The canonical NULL capability: untagged, no rights, zero everywhere. *)
let null =
  { tag = false; perms = Perms.none; otype = otype_unsealed;
    base = 0; top = 0; addr = 0 }

(* An untagged value carrying only an address: what integer-to-pointer
   casts and tag-stripped loads produce. *)
let untagged ~addr = { null with addr }

(* In-memory size and alignment of a capability (128-bit + out-of-band tag). *)
let sizeof = 16
let alignment = 16

let is_tagged c = c.tag
let is_sealed c = c.otype <> otype_unsealed
let is_null c = not c.tag && c.base = 0 && c.top = 0 && c.addr = 0

let base c = c.base
let top c = c.top
let length c = c.top - c.base
let addr c = c.addr
let offset c = c.addr - c.base
let perms c = c.perms
let otype c = c.otype

let equal a b =
  a.tag = b.tag && Perms.equal a.perms b.perms && a.otype = b.otype
  && a.base = b.base && a.top = b.top && a.addr = b.addr

(* [derives_from child parent]: child's rights are a subset of parent's.
   This is the monotonicity relation audited by the property tests. *)
let derives_from child parent =
  child.base >= parent.base && child.top <= parent.top
  && Perms.subset child.perms parent.perms

let pp ppf c =
  Fmt.pf ppf "%s[%a %s0x%x-0x%x @0x%x]"
    (if c.tag then "cap" else "CAP!")
    Perms.pp c.perms
    (if is_sealed c then Printf.sprintf "sealed:%d " c.otype else "")
    c.base c.top c.addr

let to_string c = Fmt.str "%a" pp c

(* --- Root construction (machine reset / kernel only) ------------------- *)

(* Create a primordial capability. Only the machine-reset path and the
   kernel's root-narrowing code may call this; all userspace capabilities
   must be derived from those roots. Tests audit this via the trace layer. *)
let make_root ?(perms = Perms.all) ~base ~top () =
  if base < 0 || top < base then error Length_violation;
  { tag = true; perms; otype = otype_unsealed; base; top; addr = base }

(* --- Checked-derivation helpers ---------------------------------------- *)

let require_tagged c = if not c.tag then error Tag_violation
let require_unsealed c = if is_sealed c then error Seal_violation

let require_perm c p =
  if not (Perms.has c.perms p) then error (Permit_violation p)

(* --- Monotonic derivations --------------------------------------------- *)

(* Set the cursor to an absolute address. Clears the tag (rather than
   trapping) if the new address leaves the representable window. *)
let set_addr c addr =
  let ok =
    Compress.in_representable_window ~base:c.base ~top:c.top addr
  in
  if is_sealed c && c.tag then error Seal_violation;
  { c with addr; tag = c.tag && ok }

(* C pointer arithmetic: address moves, bounds and perms are unchanged. *)
let inc_addr c delta = set_addr c (c.addr + delta)

(* Narrow bounds to [addr, addr + len). With [exact] the request must be
   representable without padding; otherwise the result is padded out to a
   representable span, which must still fall within the source bounds. *)
let set_bounds ?(exact = false) c ~len =
  require_tagged c;
  require_unsealed c;
  if len < 0 then error Length_violation;
  let nbase = c.addr and ntop = c.addr + len in
  (* [len > c.top - nbase], not [ntop > c.top]: the sum wraps for lengths
     near max_int, and the difference cannot once [nbase >= c.base]. *)
  if nbase < c.base || len > c.top - nbase then error Monotonicity_violation;
  if exact then begin
    if not (Compress.is_exact ~base:nbase ~len) then
      error Representability_violation;
    { c with base = nbase; top = ntop }
  end else begin
    let pbase, ptop = Compress.pad ~base:nbase ~top:ntop in
    if pbase < c.base || ptop > c.top then error Monotonicity_violation;
    { c with base = pbase; top = ptop }
  end

(* Intersect permissions with a mask; can only remove permissions. *)
let and_perms c mask =
  require_tagged c;
  require_unsealed c;
  { c with perms = Perms.inter c.perms mask }

let clear_tag c = { c with tag = false }

(* --- Sealing ------------------------------------------------------------ *)

let seal c ~with_ =
  require_tagged c; require_unsealed c;
  require_tagged with_; require_unsealed with_;
  require_perm with_ Perms.seal;
  if with_.addr < with_.base || with_.addr >= with_.top then
    error Bounds_violation;
  { c with otype = with_.addr }

let unseal c ~with_ =
  require_tagged c;
  if not (is_sealed c) then error Seal_violation;
  require_tagged with_; require_unsealed with_;
  require_perm with_ Perms.unseal;
  if with_.addr <> c.otype then error (Permit_violation Perms.unseal);
  { c with otype = otype_unsealed }

(* --- Access checks (used by the load/store/ifetch paths) ---------------- *)

(* Check that [c] authorizes an access of [len] bytes at its cursor with
   permission [perm]. Raises on violation. *)
let check_access c ~perm ~len =
  require_tagged c;
  require_unsealed c;
  require_perm c perm;
  if c.addr < c.base || c.addr + len > c.top then error Bounds_violation

(* Check an access at an explicit address (cursor + offset form). *)
let check_access_at c ~perm ~addr ~len =
  require_tagged c;
  require_unsealed c;
  require_perm c perm;
  if addr < c.base || addr + len > c.top then error Bounds_violation

let check_cap_alignment addr =
  if addr land (alignment - 1) <> 0 then error Alignment_violation

(* --- Conversions --------------------------------------------------------- *)

(* CFromPtr: rederive a capability for integer address [a] from [src]
   (typically DDC). A null source produces the NULL-derived untagged
   capability, which is exactly what happens to integer-to-pointer casts
   under CheriABI where DDC is NULL. *)
let from_ptr src a =
  if not src.tag then untagged ~addr:a
  else begin
    require_unsealed src;
    set_addr src a
  end

(* --- Unboxed register file ----------------------------------------------- *)

(* The capability register file as one int array: register [r] occupies
   [stride] consecutive words holding its tag (0/1), perms, otype, base,
   top and addr. Reads and writes of single fields, copies between
   registers and the cursor derivations below touch those words in place,
   so the datapath of capability arithmetic allocates nothing.

   Slots are decided at decode time: [rslot r] is where register [r] is
   read, [wslot r] where it is written. c0's read slot is never written,
   so it reads NULL; its write slot is a sink past the 32 registers, so a
   write to c0 needs no runtime test. Both are private ints in range by
   construction, which is what makes the unchecked accesses below safe.

   The file lives here, beside [t], because [t] is private: every write
   copies the fields of an existing capability ([set], [load], [move]) or
   performs one of the monotonic derivations with the same rules as its
   boxed twin, so no tag is forged through the register file either. *)
module Regs = struct
  type cap = t
  type t = int array
  type rslot = int
  type wslot = int

  let nregs = 32
  let stride = 8
  let f_tag = 0
  let f_perms = 1
  let f_otype = 2
  let f_base = 3
  let f_top = 4
  let f_addr = 5
  let sink = nregs * stride

  let check_reg r =
    if r < 0 || r >= nregs then invalid_arg "Cap.Regs: register out of range"

  let rslot r = check_reg r; r * stride
  let wslot r = check_reg r; if r = 0 then sink else r * stride

  let[@inline] put (a : t) s f v = Array.unsafe_set a (s + f) v
  let[@inline] field (a : t) s f = Array.unsafe_get a (s + f)

  let[@inline] write a w ~tag ~perms ~otype ~base ~top ~addr =
    put a w f_tag (if tag then 1 else 0);
    put a w f_perms perms;
    put a w f_otype otype;
    put a w f_base base;
    put a w f_top top;
    put a w f_addr addr

  let set a w (c : cap) =
    write a w ~tag:c.tag ~perms:c.perms ~otype:c.otype ~base:c.base
      ~top:c.top ~addr:c.addr

  let create () =
    let a = Array.make ((nregs + 1) * stride) 0 in
    for r = 0 to nregs do set a (r * stride) null done;
    a

  let copy = Array.copy

  (* Boxing at the edges of the datapath. *)
  let get a s =
    { tag = field a s f_tag <> 0; perms = field a s f_perms;
      otype = field a s f_otype; base = field a s f_base;
      top = field a s f_top; addr = field a s f_addr }

  let[@inline] tag a s = field a s f_tag <> 0
  let[@inline] perms a s = field a s f_perms
  let[@inline] otype a s = field a s f_otype
  let[@inline] base a s = field a s f_base
  let[@inline] top a s = field a s f_top
  let[@inline] addr a s = field a s f_addr
  let[@inline] length a s = field a s f_top - field a s f_base
  let[@inline] offset a s = field a s f_addr - field a s f_base

  (* [check_access_at]'s predicate, as a test: the caller re-runs the
     boxed check (which raises the architecturally ordered fault) only
     when this fails. *)
  let[@inline] access_ok a s ~perm ~addr ~len =
    field a s f_tag <> 0
    && field a s f_otype = otype_unsealed
    && field a s f_perms land perm = perm
    && addr >= field a s f_base
    && addr + len <= field a s f_top

  let[@inline] move a ~dst ~src =
    put a dst f_tag (field a src f_tag);
    put a dst f_perms (field a src f_perms);
    put a dst f_otype (field a src f_otype);
    put a dst f_base (field a src f_base);
    put a dst f_top (field a src f_top);
    put a dst f_addr (field a src f_addr)

  let clear_tag a ~dst ~src =
    move a ~dst ~src;
    put a dst f_tag 0

  (* [Cap.set_addr] in place. *)
  let set_addr a ~dst ~src addr =
    let tag = field a src f_tag <> 0 in
    if tag && field a src f_otype <> otype_unsealed then error Seal_violation;
    let base = field a src f_base and top = field a src f_top in
    let ok = Compress.in_representable_window ~base ~top addr in
    move a ~dst ~src;
    put a dst f_addr addr;
    put a dst f_tag (if tag && ok then 1 else 0)

  let inc_addr a ~dst ~src delta =
    set_addr a ~dst ~src (field a src f_addr + delta)

  (* [set a w (Cap.set_addr c addr)] without the intermediate record: the
     CJAL/CJALR link derived from PCC. *)
  let set_addr_of a w (c : cap) addr =
    if c.tag && is_sealed c then error Seal_violation;
    let ok = Compress.in_representable_window ~base:c.base ~top:c.top addr in
    write a w ~tag:(c.tag && ok) ~perms:c.perms ~otype:c.otype ~base:c.base
      ~top:c.top ~addr

  (* A capability load: [c] as read from memory, its tag stripped unless
     [keep_tag]. *)
  let load a w (c : cap) ~keep_tag =
    write a w ~tag:(c.tag && keep_tag) ~perms:c.perms ~otype:c.otype
      ~base:c.base ~top:c.top ~addr:c.addr

  (* [set a w (untagged ~addr)]. *)
  let set_untagged a w addr =
    write a w ~tag:false ~perms:null.perms ~otype:null.otype ~base:0 ~top:0
      ~addr
end
