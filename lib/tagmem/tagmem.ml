(* Tagged physical memory.

   One tag per capability-sized, capability-aligned 16-byte granule,
   exactly as in CHERI: the tag travels with the granule, is set only by
   capability stores, and is cleared by any data store that touches the
   granule. A tagged granule's capability lives in its frame's slot array;
   the raw bytes hold the cursor so that data reads of capability memory
   observe the address (as on real hardware, where the cursor occupies the
   low 64 bits of the encoding).

   The store is frame-sparse, so creating a memory costs two pointer
   arrays of one entry per frame and nothing else.

   Layout invariants (see docs/TAGMEM.md):
   - [frames.(f)] holds the 4 KiB of frame [f]; every frame starts as the
     shared, never-written [zero_frame] and gets its own buffer on its
     first write ([materialize]);
   - [slots.(f)] holds the capability slots of frame [f]'s 256 granules;
     every frame starts as the shared, never-written, all-null [no_slots]
     and gets its own array on its first tagged store
     ([materialize_slots]);
   - a slot holds only [Cap.null] or a tagged capability, so granule [g]
     is tagged iff slot [g mod 256] of [slots.(g / 256)] is not
     [Cap.null]: the slot is the tag, and there is no other record of it;
   - every store path clears overlapped slots before touching the raw
     bytes, so a data write can never leave a stale capability
     reachable. *)

module Cap = Cheri_cap.Cap

let frame_shift = 12
let frame_size = 1 lsl frame_shift
let frame_mask = frame_size - 1

let granule = Cap.sizeof
let granule_shift = 4
let () = assert (granule = 1 lsl granule_shift)

(* Granules per frame, and the shift from a granule to its frame. *)
let slot_shift = frame_shift - granule_shift
let slot_mask = (1 lsl slot_shift) - 1

(* Every unwritten frame is this one buffer. Nothing ever writes it: each
   write path swaps in a private buffer first. *)
let zero_frame = Bytes.make frame_size '\000'

(* Every frame without a tagged store has this one slot array. Nothing ever
   writes it: [slot_set] swaps in a private array first, and [slot_clear]
   writes only a slot that holds a capability. *)
let no_slots = Array.make (1 lsl slot_shift) Cap.null

type t = {
  frames : Bytes.t array;            (* frame -> data, [zero_frame] if unwritten *)
  slots : Cap.t array array;         (* frame -> granule slots, [no_slots] if untagged *)
  size : int;
}

let create ~size =
  if size <= 0 || size land (granule - 1) <> 0 then
    invalid_arg "Tagmem.create: size must be a positive multiple of 16";
  let nframes = (size + frame_mask) lsr frame_shift in
  { frames = Array.make nframes zero_frame;
    slots = Array.make nframes no_slots;
    size }

let size t = t.size

(* Frames holding their own buffer; the rest read as the zero frame. *)
let resident_frames t =
  Array.fold_left (fun n f -> if f == zero_frame then n else n + 1) 0 t.frames

(* Cold out-of-range path, kept out of line so [check] stays tiny. *)
let[@inline never] oob addr len =
  invalid_arg (Printf.sprintf "Tagmem: access 0x%x+%d out of range" addr len)

let[@inline] check t addr len =
  (* One fused test: negative addr or len makes [addr lor len] negative. *)
  if (addr lor len) < 0 || addr + len > t.size then oob addr len

(* Addresses are validated non-negative by [check], so the granule index is
   a plain shift (a signed division by 16 would need a fixup branch). *)
let[@inline] granule_of addr = addr lsr granule_shift

(* --- Frames and slots ---------------------------------------------------- *)

let[@inline never] materialize t fi =
  let f = Bytes.make frame_size '\000' in
  Array.unsafe_set t.frames fi f;
  f

(* The frame to read [addr] from, and the frame to write it to. *)
let[@inline] rframe t addr = Array.unsafe_get t.frames (addr lsr frame_shift)

let[@inline] wframe t addr =
  let fi = addr lsr frame_shift in
  let f = Array.unsafe_get t.frames fi in
  if f == zero_frame then materialize t fi else f

let[@inline never] materialize_slots t fi =
  let s = Array.make (1 lsl slot_shift) Cap.null in
  Array.unsafe_set t.slots fi s;
  s

(* Granule [g]'s slot: its capability if tagged, [Cap.null] if not. *)
let[@inline] slot t g =
  Array.unsafe_get (Array.unsafe_get t.slots (g lsr slot_shift)) (g land slot_mask)

(* Clear granule [g]'s tag. A tagged slot is never in [no_slots]. *)
let[@inline] slot_clear t g =
  let s = Array.unsafe_get t.slots (g lsr slot_shift) and j = g land slot_mask in
  if Array.unsafe_get s j != Cap.null then Array.unsafe_set s j Cap.null

(* Tag granule [g] with the tagged capability [c]. *)
let slot_set t g c =
  let fi = g lsr slot_shift in
  let s = Array.unsafe_get t.slots fi in
  let s = if s == no_slots then materialize_slots t fi else s in
  Array.unsafe_set s (g land slot_mask) c

(* Call [f fi off pos n] for each frame piece of [addr, addr+len): the [n]
   bytes at offset [off] of frame [fi] are bytes [pos, pos+n) of the range. *)
let iter_frames addr len f =
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let off = a land frame_mask in
    let n = min (frame_size - off) (len - !pos) in
    f (a lsr frame_shift) off !pos n;
    pos := !pos + n
  done

(* Call [f fi s lo hi] for each frame [fi] overlapping granules [g0, g1]
   that has slots of its own, [s]: its slots [lo, hi] are the overlap.
   Frames still on [no_slots] hold no tags and are skipped whole. *)
let[@inline] iter_slot_frames t g0 g1 f =
  for fi = g0 lsr slot_shift to g1 lsr slot_shift do
    let s = Array.unsafe_get t.slots fi in
    if s != no_slots then begin
      let base = fi lsl slot_shift in
      f fi s (max g0 base - base) (min g1 (base + slot_mask) - base)
    end
  done

(* Does any granule in [g0, g1] carry a tag? *)
let range_has_tags t g0 g1 =
  let found = ref false in
  iter_slot_frames t g0 g1 (fun _ s lo hi ->
      for j = lo to hi do
        if Array.unsafe_get s j != Cap.null then found := true
      done);
  !found

(* --- Tags ----------------------------------------------------------------- *)

let get_tag t addr =
  check t addr 1;
  slot t (granule_of addr) != Cap.null

let clear_tag t addr =
  check t addr 1;
  slot_clear t (granule_of addr)

(* Clear the tags of every granule overlapping [addr, addr+len); returns the
   number of tags actually cleared (the allocator's free() accounts these).
   A frame the range covers whole gives its slot array up. *)
let clear_tags_covering_count t addr len =
  if len <= 0 then 0
  else begin
    let g0 = granule_of addr and g1 = granule_of (addr + len - 1) in
    if g0 = g1 then begin
      (* Fast path: the access is contained in one granule. *)
      if slot t g0 == Cap.null then 0 else (slot_clear t g0; 1)
    end else begin
      let cleared = ref 0 in
      iter_slot_frames t g0 g1 (fun fi s lo hi ->
          if lo = 0 && hi = slot_mask then begin
            for j = 0 to slot_mask do
              if Array.unsafe_get s j != Cap.null then incr cleared
            done;
            Array.unsafe_set t.slots fi no_slots
          end else
            for j = lo to hi do
              if Array.unsafe_get s j != Cap.null then begin
                incr cleared;
                Array.unsafe_set s j Cap.null
              end
            done);
      !cleared
    end
  end

let clear_tags_covering t addr len =
  ignore (clear_tags_covering_count t addr len)

(* Call [f] on the offset (relative to [addr]) of every tagged granule in
   [addr, addr+len), ascending. *)
let iter_tags t addr len f =
  check t addr len;
  let g0 = granule_of addr and g1 = granule_of (addr + len - 1) in
  iter_slot_frames t g0 g1 (fun fi s lo hi ->
      let base = fi lsl slot_shift in
      for j = lo to hi do
        if Array.unsafe_get s j != Cap.null then f (((base + j) * granule) - addr)
      done)

(* Which granules in [addr, addr+len) are tagged? Offsets relative to addr.
   Used by the swap subsystem's tag scan. *)
let scan_tags t addr len =
  let out = ref [] in
  iter_tags t addr len (fun off -> out := off :: !out);
  List.rev !out

(* --- Data access ----------------------------------------------------------- *)

let[@inline] read_u8 t addr =
  check t addr 1;
  Char.code (Bytes.unsafe_get (rframe t addr) (addr land frame_mask))

let[@inline] write_u8 t addr v =
  check t addr 1;
  slot_clear t (granule_of addr);
  Bytes.unsafe_set (wframe t addr) (addr land frame_mask)
    (Char.unsafe_chr (v land 0xff))

(* 63-bit OCaml ints are zero-extended into the stored 64-bit pattern, so a
   word store writes exactly the bytes the per-byte loop used to. *)
let int63_mask = 0x7FFF_FFFF_FFFF_FFFFL

(* Accesses that cross a frame boundary go byte by byte, each byte through
   its own frame; the little-endian accumulation matches the word paths. *)
let[@inline never] read_int_straddle t addr len =
  let v = ref 0 in
  for i = len - 1 downto 0 do
    let a = addr + i in
    v := (!v lsl 8) lor Char.code (Bytes.unsafe_get (rframe t a) (a land frame_mask))
  done;
  !v

let[@inline never] write_int_straddle t addr len v =
  clear_tags_covering t addr len;
  for i = 0 to len - 1 do
    let a = addr + i in
    Bytes.unsafe_set (wframe t a) (a land frame_mask)
      (Char.unsafe_chr ((v lsr (8 * i)) land 0xff))
  done

(* The compiler's unchecked frame primitives. The stdlib exports only the
   bounds-checked [Bytes.get_int64_le] family; these skip the check, so
   every caller first proves that the access lies inside one frame (every
   frame buffer is [frame_size] bytes long). Frames hold little-endian
   bytes. *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external get16u : Bytes.t -> int -> int = "%caml_bytes_get16u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external set16u : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"
external bswap64 : int64 -> int64 = "%bswap_int64"
external bswap32 : int32 -> int32 = "%bswap_int32"
external bswap16 : int -> int = "%bswap16"

let[@inline] get64le f off =
  if Sys.big_endian then bswap64 (get64u f off) else get64u f off

let[@inline] get32le f off =
  if Sys.big_endian then bswap32 (get32u f off) else get32u f off

let[@inline] get16le f off =
  if Sys.big_endian then bswap16 (get16u f off) else get16u f off

let[@inline] set64le f off v =
  if Sys.big_endian then set64u f off (bswap64 v) else set64u f off v

let[@inline] set32le f off v =
  if Sys.big_endian then set32u f off (bswap32 v) else set32u f off v

let[@inline] set16le f off v =
  if Sys.big_endian then set16u f off (bswap16 v) else set16u f off v

(* Fixed-width accessors, for the chain engine's memory closures (one per
   width and signedness, chosen at decode). Precondition: [addr] is
   naturally aligned for the width, as the closures' alignment check has
   already established. Each keeps the range [check] and an in-frame test
   (which an aligned access always passes; anything else takes the
   byte-wise straddle path), so the unchecked primitives never leave the
   frame. An aligned access of at most 8 bytes lies inside one 16-byte
   granule, so a store clears exactly one tag. Results equal [read_int],
   [read_int_signed] and [write_int] on the same access (the unsigned
   64-bit read, like [read_int ~len:8], keeps the low 63 bits). *)
let[@inline] read_s8 t addr = (read_u8 t addr lsl 55) asr 55

let[@inline] read_u16 t addr =
  check t addr 2;
  let off = addr land frame_mask in
  if off > frame_size - 2 then read_int_straddle t addr 2
  else get16le (rframe t addr) off

let[@inline] read_s16 t addr = (read_u16 t addr lsl 47) asr 47

let[@inline] read_u32 t addr =
  check t addr 4;
  let off = addr land frame_mask in
  if off > frame_size - 4 then read_int_straddle t addr 4
  else Int32.to_int (get32le (rframe t addr) off) land 0xFFFF_FFFF

let[@inline] read_s32 t addr = (read_u32 t addr lsl 31) asr 31

let[@inline] read_u64 t addr =
  check t addr 8;
  let off = addr land frame_mask in
  if off > frame_size - 8 then read_int_straddle t addr 8
  else Int64.to_int (get64le (rframe t addr) off)

let[@inline] write_u16 t addr v =
  check t addr 2;
  let off = addr land frame_mask in
  if off > frame_size - 2 then write_int_straddle t addr 2 v
  else begin
    let f = wframe t addr in
    slot_clear t (granule_of addr);
    set16le f off (v land 0xFFFF)
  end

let[@inline] write_u32 t addr v =
  check t addr 4;
  let off = addr land frame_mask in
  if off > frame_size - 4 then write_int_straddle t addr 4 v
  else begin
    let f = wframe t addr in
    slot_clear t (granule_of addr);
    set32le f off (Int32.of_int v)
  end

let[@inline] write_u64 t addr v =
  check t addr 8;
  let off = addr land frame_mask in
  if off > frame_size - 8 then write_int_straddle t addr 8 v
  else begin
    let f = wframe t addr in
    slot_clear t (granule_of addr);
    set64le f off (Int64.logand (Int64.of_int v) int63_mask)
  end

(* Unchecked in-frame accessors, for the chain engine's hit paths
   (lib/isa/bbcache.ml). Precondition: [addr] is naturally aligned for the
   width and lies inside memory, so the access lies inside one frame of
   [t]; they test neither. The loads then equal [read_u8] ... [read_u64].
   A store further needs [can_poke t addr]: the frame has its own buffer
   and the access's granule is untagged, so [wframe] would materialize
   nothing and [slot_clear] would clear nothing, and [poke_u8] ...
   [poke_u64] equal [write_u8] ... [write_u64]. *)
let[@inline] peek_u8 t addr =
  Char.code (Bytes.unsafe_get (rframe t addr) (addr land frame_mask))

let[@inline] peek_s8 t addr = (peek_u8 t addr lsl 55) asr 55
let[@inline] peek_u16 t addr = get16le (rframe t addr) (addr land frame_mask)
let[@inline] peek_s16 t addr = (peek_u16 t addr lsl 47) asr 47

let[@inline] peek_u32 t addr =
  Int32.to_int (get32le (rframe t addr) (addr land frame_mask)) land 0xFFFF_FFFF

let[@inline] peek_s32 t addr = (peek_u32 t addr lsl 31) asr 31

let[@inline] peek_u64 t addr =
  Int64.to_int (get64le (rframe t addr) (addr land frame_mask))

let[@inline] can_poke t addr =
  let fi = addr lsr frame_shift in
  Array.unsafe_get t.frames fi != zero_frame
  && Array.unsafe_get (Array.unsafe_get t.slots fi)
       ((addr lsr granule_shift) land slot_mask)
     == Cap.null

let[@inline] poke_u8 t addr v =
  Bytes.unsafe_set (rframe t addr) (addr land frame_mask)
    (Char.unsafe_chr (v land 0xff))

let[@inline] poke_u16 t addr v =
  set16le (rframe t addr) (addr land frame_mask) (v land 0xFFFF)

let[@inline] poke_u32 t addr v =
  set32le (rframe t addr) (addr land frame_mask) (Int32.of_int v)

let[@inline] poke_u64 t addr v =
  set64le (rframe t addr) (addr land frame_mask)
    (Int64.logand (Int64.of_int v) int63_mask)

(* Widths other than 1, 2, 4 and 8, within one frame. *)
let[@inline never] read_int_bytes f off len =
  let v = ref 0 in
  for i = len - 1 downto 0 do
    v := (!v lsl 8) lor Char.code (Bytes.unsafe_get f (off + i))
  done;
  !v

(* [read_int], [read_int_signed] and [write_int] are [@inline]: an
   in-frame access of width 1, 2, 4 or 8 compiles into the execution
   engines' closures. Out-of-range, straddling and odd-width accesses
   call out of line. *)
let[@inline] read_int t addr ~len =
  check t addr len;
  let off = addr land frame_mask in
  if off + len > frame_size then read_int_straddle t addr len
  else
    let f = rframe t addr in
    match len with
    | 8 -> Int64.to_int (Bytes.get_int64_le f off)
    | 4 -> Int32.to_int (Bytes.get_int32_le f off) land 0xFFFF_FFFF
    | 2 -> Bytes.get_uint16_le f off
    | 1 -> Bytes.get_uint8 f off
    | _ -> read_int_bytes f off len

(* Clear the (at most two) granule tags a small access overlaps, without
   the generality of the range sweep. *)
let[@inline] clear_tags_small t addr last =
  let g0 = addr lsr granule_shift and g1 = last lsr granule_shift in
  slot_clear t g0;
  if g1 <> g0 then slot_clear t g1

let[@inline never] write_int_bytes t f addr off len v =
  clear_tags_covering t addr len;
  for i = 0 to len - 1 do
    Bytes.unsafe_set f (off + i) (Char.chr ((v lsr (8 * i)) land 0xff))
  done

let[@inline] write_int t addr ~len v =
  check t addr len;
  let off = addr land frame_mask in
  if off + len > frame_size then write_int_straddle t addr len v
  else
    let f = wframe t addr in
    match len with
    | 8 ->
      clear_tags_small t addr (addr + 7);
      Bytes.set_int64_le f off (Int64.logand (Int64.of_int v) int63_mask)
    | 4 ->
      clear_tags_small t addr (addr + 3);
      Bytes.set_int32_le f off (Int32.of_int v)
    | 2 ->
      clear_tags_small t addr (addr + 1);
      Bytes.set_uint16_le f off (v land 0xFFFF)
    | 1 ->
      slot_clear t (addr lsr granule_shift);
      Bytes.set_uint8 f off (v land 0xFF)
    | _ -> write_int_bytes t f addr off len v

(* Sign-extend an integer read of [len] bytes. *)
let[@inline] read_int_signed t addr ~len =
  let v = read_int t addr ~len in
  let bits = len * 8 in
  if bits >= 63 then v
  else
    let sign = 1 lsl (bits - 1) in
    if v land sign <> 0 then v - (1 lsl bits) else v

(* Copy [len] bytes of memory from [addr] into the start of [buf]. *)
let read_into t addr buf len =
  iter_frames addr len (fun fi off pos n ->
      Bytes.blit (Array.unsafe_get t.frames fi) off buf pos n)

(* Copy all of [buf] into memory at [addr], leaving tags alone. *)
let write_from t addr buf =
  iter_frames addr (Bytes.length buf) (fun fi off pos n ->
      Bytes.blit buf pos (wframe t (fi lsl frame_shift)) off n)

let blit_bytes t ~dst src =
  check t dst (Bytes.length src);
  clear_tags_covering t dst (Bytes.length src);
  write_from t dst src

let read_bytes t addr len =
  check t addr len;
  let out = Bytes.create len in
  read_into t addr out len;
  out

(* Are all bytes of [addr, addr+len) zero? Unwritten frames are; written
   ones are tested eight bytes at a time where possible. *)
let is_zero t addr len =
  check t addr len;
  let rec words f a last =
    if a + 8 <= last then Bytes.get_int64_le f a = 0L && words f (a + 8) last
    else bytes f a last
  and bytes f a last =
    a >= last || (Bytes.unsafe_get f a = '\000' && bytes f (a + 1) last)
  in
  let rec go pos =
    pos >= len
    ||
    let a = addr + pos in
    let off = a land frame_mask in
    let n = min (frame_size - off) (len - pos) in
    let f = rframe t a in
    (f == zero_frame || words f off (off + n)) && go (pos + n)
  in
  go 0

(* Incremental MD5 over the runtime's own implementation (md5_stubs.c). The
   context is a [bytes] of [md5_ctx_size]; no stub allocates or raises. *)
external md5_ctx_size : unit -> int = "tagmem_md5_ctx_size" [@@noalloc]
external md5_init : Bytes.t -> unit = "tagmem_md5_init" [@@noalloc]
external md5_update : Bytes.t -> Bytes.t -> int -> int -> unit
  = "tagmem_md5_update" [@@noalloc]
external md5_final : Bytes.t -> Bytes.t -> unit = "tagmem_md5_final"
  [@@noalloc]

let md5_ctx_size = md5_ctx_size ()

(* MD5 of the whole data store, as if it were one contiguous image: one
   context is fed the frames in ascending order, the shared [zero_frame]
   standing for every frame never written, and the last frame only up to
   [size]. One stub call per frame keeps the loop polling, so a
   stop-the-world collection asked for by another domain waits for one
   frame's hash, not the whole memory's. *)
let digest t =
  let ctx = Bytes.create md5_ctx_size in
  md5_init ctx;
  let last = Array.length t.frames - 1 in
  for fi = 0 to last - 1 do
    md5_update ctx (Array.unsafe_get t.frames fi) 0 frame_size
  done;
  md5_update ctx (Array.unsafe_get t.frames last) 0
    (t.size - (last lsl frame_shift));
  let out = Bytes.create 16 in
  md5_final ctx out;
  Bytes.unsafe_to_string out

(* --- Capability access ----------------------------------------------------- *)

let read_cap t addr =
  check t addr granule;
  Cap.check_cap_alignment addr;
  let c = slot t (granule_of addr) in
  if c != Cap.null then c
  else
    (* Untagged: reconstruct the cursor from the raw bytes; all other
       fields read as a null-derived pattern. *)
    Cap.untagged
      ~addr:(Int64.to_int (Bytes.get_int64_le (rframe t addr) (addr land frame_mask)))

(* [read_cap] straight into capability register slot [w], with the tag
   stripped unless [keep_tag] (CLC): the register file copies the slot's
   fields, so the load allocates nothing. An aligned granule lies inside
   one frame, so the cursor is read unchecked. *)
let load_cap_reg t addr regs w ~keep_tag =
  check t addr granule;
  Cap.check_cap_alignment addr;
  let c = slot t (granule_of addr) in
  if c != Cap.null then Cap.Regs.load regs w c ~keep_tag
  else
    Cap.Regs.set_untagged regs w
      (Int64.to_int (get64le (rframe t addr) (addr land frame_mask)))

(* The raw bytes of a capability store: cursor in the low 8 bytes, a
   metadata summary above. Returns the granule, whose tag the caller
   sets or clears. *)
let write_cap_bytes t addr cursor =
  check t addr granule;
  Cap.check_cap_alignment addr;
  let f = wframe t addr and off = addr land frame_mask in
  Bytes.set_int64_le f off (Int64.logand (Int64.of_int cursor) int63_mask);
  Bytes.set_int64_le f (off + 8) 0L;
  granule_of addr

let write_cap t addr cap =
  let g = write_cap_bytes t addr (Cap.addr cap) in
  if Cap.is_tagged cap then slot_set t g cap else slot_clear t g

(* [write_cap] of capability register slot [s] (CSC): only a tagged
   value is boxed, since only a tagged value needs a slot. *)
let store_cap_reg t addr regs s =
  if Cap.Regs.tag regs s then write_cap t addr (Cap.Regs.get regs s)
  else slot_clear t (write_cap_bytes t addr (Cap.Regs.addr regs s))

(* Memmove the raw bytes of [src, src+len) to [dst, dst+len). *)
let copy_bytes t ~src ~dst ~len =
  let soff = src land frame_mask and doff = dst land frame_mask in
  if soff + len <= frame_size && doff + len <= frame_size then begin
    (* Both ends within one frame each: one blit, which is overlap-safe
       when they share the frame. A zero-to-zero copy changes nothing. *)
    let sf = rframe t src in
    if not (sf == zero_frame && rframe t dst == zero_frame) then
      Bytes.blit sf soff (wframe t dst) doff len
  end else begin
    (* Across frames, through a copy of the source: overlap is harmless. *)
    let tmp = Bytes.create len in
    read_into t src tmp len;
    write_from t dst tmp
  end

(* Copy [len] bytes preserving tags where both source and destination are
   granule-aligned (the capability-aware memcpy of the C runtime). *)
let move t ~src ~dst ~len =
  check t src len; check t dst len;
  if len = 0 || src = dst then ()
  else begin
    let aligned =
      src land (granule - 1) = 0 && dst land (granule - 1) = 0
      && len land (granule - 1) = 0
    in
    let sg0 = granule_of src in
    if aligned && range_has_tags t sg0 (granule_of (src + len - 1)) then begin
      (* Collect source granule caps first so overlapping moves are safe. *)
      let n = len / granule in
      let caps = Array.init n (fun i -> slot t (sg0 + i)) in
      clear_tags_covering t dst len;
      copy_bytes t ~src ~dst ~len;
      let dg0 = granule_of dst in
      for i = 0 to n - 1 do
        let c = caps.(i) in
        if c != Cap.null then slot_set t (dg0 + i) c
      done
    end else begin
      (* No source tags (or an unaligned copy, which strips them): a plain
         overlap-safe byte move plus a destination tag sweep. *)
      clear_tags_covering t dst len;
      copy_bytes t ~src ~dst ~len
    end
  end

(* Zero-filling a whole frame hands it back to the shared zero frame (the
   tag sweep has already given its slot array up): that is how
   [Phys.alloc_frame] zeroes frames without allocating. *)
let fill t addr len byte =
  check t addr len;
  clear_tags_covering t addr len;
  let c = Char.chr (byte land 0xff) in
  iter_frames addr len (fun fi off _ n ->
      if c <> '\000' then Bytes.fill (wframe t (fi lsl frame_shift)) off n c
      else if n = frame_size then Array.unsafe_set t.frames fi zero_frame
      else begin
        let f = Array.unsafe_get t.frames fi in
        if f != zero_frame then Bytes.fill f off n c
      end)
