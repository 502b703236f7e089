(** Architectural capabilities.

    A capability is a bounded, permission-carrying reference to virtual
    memory, implementing the CHERI properties the paper reviews in §2:

    - {b provenance validity}: the type is private — a tagged capability
      can only come from {!make_root} (machine reset / kernel narrowing)
      or from the monotonic derivation functions below;
    - {b integrity}: there is no operation that sets the tag of an
      arbitrary bit pattern;
    - {b monotonicity}: every derivation preserves or reduces the rights
      (bounds and permissions) of its source.

    Functions corresponding to trapping instructions raise {!Cap_error};
    those that architecturally clear the tag instead (address arithmetic
    leaving the representable window) return an untagged value. *)

type violation =
  | Tag_violation               (** operated on an untagged capability *)
  | Seal_violation              (** operated on a sealed capability *)
  | Permit_violation of Perms.t (** missing permission *)
  | Bounds_violation            (** access outside [base, top) *)
  | Length_violation            (** negative or oversized length *)
  | Monotonicity_violation      (** attempted rights increase *)
  | Representability_violation  (** exact bounds not encodable *)
  | Alignment_violation         (** capability access not 16-byte aligned *)

val violation_to_string : violation -> string

exception Cap_error of violation

(** Unsealed object type ([-1]). *)
val otype_unsealed : int

(** The capability value. The record is exposed read-only (for pattern
    matching and field access); it cannot be constructed directly. *)
type t = private {
  tag : bool;
  perms : Perms.t;
  otype : int;
  base : int;
  top : int;   (** exclusive *)
  addr : int;  (** cursor *)
}

(** The canonical NULL capability: untagged, no rights. *)
val null : t

(** An untagged value carrying only an address — what integer-to-pointer
    casts through a NULL DDC and tag-stripped loads produce. *)
val untagged : addr:int -> t

(** In-memory footprint: 16 bytes plus the out-of-band tag bit. *)
val sizeof : int

val alignment : int

(** {1 Inspection} *)

val is_tagged : t -> bool
val is_sealed : t -> bool
val is_null : t -> bool
val base : t -> int
val top : t -> int

(** [top - base]. *)
val length : t -> int

val addr : t -> int

(** [addr - base]. *)
val offset : t -> int

val perms : t -> Perms.t
val otype : t -> int
val equal : t -> t -> bool

(** [derives_from child parent]: the child's bounds and permissions are
    within the parent's — the monotonicity relation audited by the
    property tests. *)
val derives_from : t -> t -> bool

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** {1 Root construction}

    Only machine reset and kernel root-narrowing may call this; every
    other capability in the system derives from such a root. *)

val make_root : ?perms:Perms.t -> base:int -> top:int -> unit -> t

(** {1 Monotonic derivations} *)

(** Set the cursor. Clears the tag if the address leaves the compressed
    encoding's representable window; raises on sealed capabilities. *)
val set_addr : t -> int -> t

(** C pointer arithmetic: the cursor moves, bounds and perms do not. *)
val inc_addr : t -> int -> t

(** Narrow bounds to [addr, addr+len). Without [exact] the result is
    padded to a representable span (still within the source bounds);
    with [exact] an unrepresentable request raises. *)
val set_bounds : ?exact:bool -> t -> len:int -> t

(** Intersect permissions (can only remove). *)
val and_perms : t -> Perms.t -> t

val clear_tag : t -> t

(** {1 Sealing} *)

val seal : t -> with_:t -> t
val unseal : t -> with_:t -> t

(** {1 Access checks} (the load/store/ifetch paths) *)

(** Check an access of [len] bytes at the cursor; raises on violation. *)
val check_access : t -> perm:Perms.t -> len:int -> unit

(** Check an access of [len] bytes at an explicit address. *)
val check_access_at : t -> perm:Perms.t -> addr:int -> len:int -> unit

(** Capability loads/stores must be 16-byte aligned. *)
val check_cap_alignment : int -> unit

(** {1 Conversions} *)

(** CFromPtr: rederive an address through [src] (typically DDC); a NULL
    source yields an untagged result. *)
val from_ptr : t -> int -> t

(** {1 Unboxed register file}

    The capability register file of a CPU context: 32 registers held
    field by field in one [int array], so that register reads, copies and
    cursor derivations allocate nothing. Registers are addressed through
    slots fixed at decode time: {!Regs.rslot} reads, {!Regs.wslot}
    writes. c0 reads NULL from a slot that is never written; its write
    slot is a sink, so writes to c0 need no runtime test.

    Every write copies an existing capability or applies a monotonic
    derivation with the rules of its boxed counterpart above (and raises
    the same {!Cap_error}); nothing here sets a tag from integers. *)
module Regs : sig
  type cap := t
  type t

  (** Where a register is read. *)
  type rslot = private int

  (** Where a register is written (c0: the sink). *)
  type wslot = private int

  val nregs : int

  (** All registers NULL. *)
  val create : unit -> t

  val copy : t -> t

  (** Raise [Invalid_argument] outside [0, nregs). *)
  val rslot : int -> rslot

  val wslot : int -> wslot

  (** {2 Boxing} *)

  (** A fresh record of the register's fields. *)
  val get : t -> rslot -> cap

  val set : t -> wslot -> cap -> unit

  (** {2 Fields} *)

  val tag : t -> rslot -> bool
  val perms : t -> rslot -> Perms.t
  val otype : t -> rslot -> int
  val base : t -> rslot -> int
  val top : t -> rslot -> int
  val addr : t -> rslot -> int
  val length : t -> rslot -> int
  val offset : t -> rslot -> int

  (** The predicate of {!check_access_at}, without raising. *)
  val access_ok : t -> rslot -> perm:Perms.t -> addr:int -> len:int -> bool

  (** {2 Derivations in place} *)

  (** CMove. *)
  val move : t -> dst:wslot -> src:rslot -> unit

  (** {!clear_tag}. *)
  val clear_tag : t -> dst:wslot -> src:rslot -> unit

  (** {!set_addr}. *)
  val set_addr : t -> dst:wslot -> src:rslot -> int -> unit

  (** {!inc_addr}. *)
  val inc_addr : t -> dst:wslot -> src:rslot -> int -> unit

  (** [set r w (set_addr c addr)]. *)
  val set_addr_of : t -> wslot -> cap -> int -> unit

  (** [set r w c], with the tag cleared unless [keep_tag] (CLC without
      LOAD_CAP). *)
  val load : t -> wslot -> cap -> keep_tag:bool -> unit

  (** [set r w (untagged ~addr)]. *)
  val set_untagged : t -> wslot -> int -> unit
end
