(* capptr_bound-style typed narrowing for heap capabilities (snmalloc's
   StrictProvenance discipline, applied to the paper's §4 heap rules).

   The allocator holds exactly two ranks of authority:

   - [chunk]: the VMMAP-bearing capability returned by mmap for a whole
     arena chunk (or large region). Never escapes the allocator.
   - [alloc]: the object capability handed to user code — rebounded from
     a chunk parent, data permissions only.

   The only way to make an [alloc] is [bound], and [bound] is
   *address-only*: the caller contributes nothing but an integer address
   and a length, while tag, provenance and permissions all flow from the
   chunk parent. The narrowing uses compression-exact CSetBounds
   ([Cap.set_bounds ~exact]), so a representability rounding that would
   silently widen the object raises instead of shipping overlapping
   bounds. Tag amplification is impossible by construction: an untagged
   parent raises [Discipline], and no path ever re-tags. *)

module Cap = Cheri_cap.Cap
module Perms = Cheri_cap.Perms
module Compress = Cheri_cap.Compress

type chunk = Chunk of Cap.t
type alloc = Alloc of Cap.t

exception Discipline of string

(* Heap-pointer permissions: data access only — no VMMAP, no EXECUTE. *)
let heap_perms = Perms.data

(* Admit an mmap result as chunk authority. It must be a valid (tagged,
   unsealed) capability that still carries VMMAP — that is how we know it
   came from the mapping path and not from user data. *)
let of_mmap c =
  if not (Cap.is_tagged c) then raise (Discipline "untagged chunk capability");
  if not (Perms.has (Cap.perms c) Perms.vmmap) then
    raise (Discipline "chunk capability lost VMMAP");
  Chunk c

(* Admit the address-space root as chunk authority (legacy fallback used
   when a chunk predates capability-bearing mmap results). *)
let of_root c =
  if not (Cap.is_tagged c) then raise (Discipline "untagged root capability");
  Chunk c

(* Address-only rebound: derive the object capability for
   [addr, addr+len) from the chunk parent. [len] must already be
   CRRL-rounded by the caller (the class table guarantees it for small
   objects); [~exact] then makes any residual representability slack a
   hard error instead of a bounds widening. *)
let bound (Chunk parent) ~addr ~len =
  if not (Cap.is_tagged parent) then raise (Discipline "untagged parent");
  if Compress.crrl len <> len then
    raise (Discipline "bound length not CRRL-exact");
  let c = Cap.set_bounds ~exact:true (Cap.set_addr parent addr) ~len in
  let c = Cap.and_perms c heap_perms in
  (* Post-conditions of the discipline; violations are allocator bugs. *)
  if not (Cap.is_tagged c) then raise (Discipline "narrowing lost the tag");
  assert (Cap.base c = addr && Cap.length c = len);
  assert (not (Perms.has (Cap.perms c) Perms.vmmap));
  assert (not (Perms.has (Cap.perms c) Perms.execute));
  Alloc c

(* Unwrap for delivery to user registers / test assertions. *)
let to_cap (Alloc c) = c

(* Does [c] satisfy the discipline for an object at [addr] of rounded
   length [len]? Used by the property tests on every returned pointer. *)
let obeys c ~addr ~len =
  Cap.is_tagged c
  && Cap.base c = addr
  && Cap.length c = len
  && Compress.crrl len = len
  && not (Perms.has (Cap.perms c) Perms.vmmap)
  && not (Perms.has (Cap.perms c) Perms.execute)
  && Perms.has (Cap.perms c) Perms.load
  && Perms.has (Cap.perms c) Perms.store
