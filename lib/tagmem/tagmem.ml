(* Tagged physical memory.

   One tag bit per capability-sized, capability-aligned 16-byte granule,
   exactly as in CHERI: the tag travels with the granule, is set only by
   capability stores, and is cleared by any data store that touches the
   granule. Capabilities stored to memory are kept in a side table indexed
   by granule; the raw bytes hold the cursor so that data reads of
   capability memory observe the address (as on real hardware, where the
   cursor occupies the low 64 bits of the encoding).

   Layout invariants (see docs/TAGMEM.md):
   - [tagbits] packs one tag bit per granule, LSB-first within each byte,
     and is padded to a whole number of 64-bit words so that range scans
     can test eight bitset bytes (= 1 KiB of memory) per load;
   - [caps.(g)] is [Some c] iff bit [g] of [tagbits] is set — the bit is
     the ground truth, the slot array is the direct-indexed side table;
   - every store path clears overlapped tag bits *and* their slots before
     touching the raw bytes, so a data write can never leave a stale
     capability reachable. *)

module Cap = Cheri_cap.Cap

type t = {
  bytes : Bytes.t;
  tagbits : Bytes.t;              (* packed tag bitset, 1 bit per granule *)
  caps : Cap.t option array;      (* granule -> stored capability *)
  size : int;
  ngranules : int;
}

let granule = Cap.sizeof
let granule_shift = 4
let () = assert (granule = 1 lsl granule_shift)

let create ~size =
  if size <= 0 || size land (granule - 1) <> 0 then
    invalid_arg "Tagmem.create: size must be a positive multiple of 16";
  let ngranules = size / granule in
  (* Pad the bitset to 64-bit words so word-at-a-time scans never need a
     bounds check of their own. *)
  let nbytes = ((ngranules + 7) lsr 3 + 7) land lnot 7 in
  { bytes = Bytes.make size '\000';
    tagbits = Bytes.make nbytes '\000';
    caps = Array.make ngranules None;
    size; ngranules }

let size t = t.size

(* Cold out-of-range path, kept out of line so [check] stays tiny. *)
let[@inline never] oob addr len =
  invalid_arg (Printf.sprintf "Tagmem: access 0x%x+%d out of range" addr len)

let[@inline] check t addr len =
  (* One fused test: negative addr or len makes [addr lor len] negative. *)
  if (addr lor len) < 0 || addr + len > t.size then oob addr len

(* Addresses are validated non-negative by [check], so the granule index is
   a plain shift (a signed division by 16 would need a fixup branch). *)
let[@inline] granule_of addr = addr lsr granule_shift

(* --- Tag bitset primitives ------------------------------------------------ *)

let[@inline] tag_bit t g =
  Char.code (Bytes.unsafe_get t.tagbits (g lsr 3)) land (1 lsl (g land 7)) <> 0

let[@inline] tag_bit_set t g =
  let i = g lsr 3 in
  Bytes.unsafe_set t.tagbits i
    (Char.unsafe_chr
       (Char.code (Bytes.unsafe_get t.tagbits i) lor (1 lsl (g land 7))))

let[@inline] tag_bit_clear t g =
  let i = g lsr 3 in
  let b = Char.code (Bytes.unsafe_get t.tagbits i) in
  let m = 1 lsl (g land 7) in
  if b land m <> 0 then begin
    Bytes.unsafe_set t.tagbits i (Char.unsafe_chr (b land lnot m));
    Array.unsafe_set t.caps g None
  end

(* Does any granule in [g0, g1] carry a tag? Edge bytes are tested under a
   bit mask; interior bytes are skipped eight at a time. *)
let range_has_tags t g0 g1 =
  let b0 = g0 lsr 3 and b1 = g1 lsr 3 in
  if b0 = b1 then
    let mask = ((1 lsl (g1 - g0 + 1)) - 1) lsl (g0 land 7) in
    Char.code (Bytes.unsafe_get t.tagbits b0) land mask <> 0
  else if Char.code (Bytes.unsafe_get t.tagbits b0) lsr (g0 land 7) <> 0 then
    true
  else if
    Char.code (Bytes.unsafe_get t.tagbits b1)
    land ((1 lsl ((g1 land 7) + 1)) - 1) <> 0
  then true
  else begin
    let found = ref false in
    let bi = ref (b0 + 1) in
    while not !found && !bi < b1 do
      if !bi + 8 <= b1 && Bytes.get_int64_le t.tagbits !bi = 0L then
        bi := !bi + 8
      else if Char.code (Bytes.unsafe_get t.tagbits !bi) <> 0 then found := true
      else incr bi
    done;
    !found
  end

(* --- Tags ----------------------------------------------------------------- *)

let get_tag t addr =
  check t addr 1;
  tag_bit t (granule_of addr)

let clear_tag t addr =
  check t addr 1;
  tag_bit_clear t (granule_of addr)

(* Clear the tags of every granule overlapping [addr, addr+len); returns the
   number of tags actually cleared (the allocator's free() accounts these). *)
let clear_tags_covering_count t addr len =
  if len <= 0 then 0
  else begin
    let g0 = granule_of addr and g1 = granule_of (addr + len - 1) in
    if g0 = g1 then begin
      (* Fast path: the access is contained in one granule. *)
      let i = g0 lsr 3 in
      let b = Char.code (Bytes.unsafe_get t.tagbits i) in
      let m = 1 lsl (g0 land 7) in
      if b land m = 0 then 0
      else begin
        Bytes.unsafe_set t.tagbits i (Char.unsafe_chr (b land lnot m));
        Array.unsafe_set t.caps g0 None;
        1
      end
    end else begin
    let cleared = ref 0 in
    let b0 = g0 lsr 3 and b1 = g1 lsr 3 in
    let bi = ref b0 in
    while !bi <= b1 do
      (* Word fast path: skip eight all-clear bitset bytes at a time. *)
      if !bi + 7 <= b1 && Bytes.get_int64_le t.tagbits !bi = 0L then
        bi := !bi + 8
      else begin
        let b = Char.code (Bytes.unsafe_get t.tagbits !bi) in
        if b <> 0 then begin
          let lo = max g0 (!bi lsl 3) and hi = min g1 ((!bi lsl 3) lor 7) in
          let mask = ((1 lsl (hi - lo + 1)) - 1) lsl (lo land 7) in
          if b land mask <> 0 then begin
            for g = lo to hi do
              if b land (1 lsl (g land 7)) <> 0 then begin
                incr cleared;
                Array.unsafe_set t.caps g None
              end
            done;
            Bytes.unsafe_set t.tagbits !bi (Char.unsafe_chr (b land lnot mask))
          end
        end;
        incr bi
      end
    done;
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
  let b0 = g0 lsr 3 and b1 = g1 lsr 3 in
  let bi = ref b0 in
  while !bi <= b1 do
    if !bi + 7 <= b1 && Bytes.get_int64_le t.tagbits !bi = 0L then
      bi := !bi + 8
    else begin
      let b = Char.code (Bytes.unsafe_get t.tagbits !bi) in
      if b <> 0 then begin
        let lo = max g0 (!bi lsl 3) and hi = min g1 ((!bi lsl 3) lor 7) in
        for g = lo to hi do
          if b land (1 lsl (g land 7)) <> 0 then f ((g * granule) - addr)
        done
      end;
      incr bi
    end
  done

(* Which granules in [addr, addr+len) are tagged? Offsets relative to addr.
   Used by the swap subsystem's tag scan. *)
let scan_tags t addr len =
  let out = ref [] in
  iter_tags t addr len (fun off -> out := off :: !out);
  List.rev !out

(* --- Data access ----------------------------------------------------------- *)

let read_u8 t addr =
  check t addr 1;
  Bytes.get_uint8 t.bytes addr

let write_u8 t addr v =
  check t addr 1;
  tag_bit_clear t (granule_of addr);
  Bytes.set_uint8 t.bytes addr (v land 0xff)

(* 63-bit OCaml ints are zero-extended into the stored 64-bit pattern, so a
   word store writes exactly the bytes the per-byte loop used to. *)
let int63_mask = 0x7FFF_FFFF_FFFF_FFFFL

let read_int t addr ~len =
  check t addr len;
  match len with
  | 8 -> Int64.to_int (Bytes.get_int64_le t.bytes addr)
  | 4 -> Int32.to_int (Bytes.get_int32_le t.bytes addr) land 0xFFFF_FFFF
  | 2 -> Bytes.get_uint16_le t.bytes addr
  | 1 -> Bytes.get_uint8 t.bytes addr
  | _ ->
    let v = ref 0 in
    for i = len - 1 downto 0 do
      v := (!v lsl 8) lor Char.code (Bytes.unsafe_get t.bytes (addr + i))
    done;
    !v

(* Clear the (at most two) granule tags a small access overlaps, without
   the generality of the range sweep. *)
let[@inline] clear_tags_small t addr last =
  let g0 = addr lsr granule_shift and g1 = last lsr granule_shift in
  tag_bit_clear t g0;
  if g1 <> g0 then tag_bit_clear t g1

let write_int t addr ~len v =
  check t addr len;
  match len with
  | 8 ->
    clear_tags_small t addr (addr + 7);
    Bytes.set_int64_le t.bytes addr (Int64.logand (Int64.of_int v) int63_mask)
  | 4 ->
    clear_tags_small t addr (addr + 3);
    Bytes.set_int32_le t.bytes addr (Int32.of_int v)
  | 2 ->
    clear_tags_small t addr (addr + 1);
    Bytes.set_uint16_le t.bytes addr (v land 0xFFFF)
  | 1 ->
    tag_bit_clear t (addr lsr granule_shift);
    Bytes.set_uint8 t.bytes addr (v land 0xFF)
  | _ ->
    clear_tags_covering t addr len;
    for i = 0 to len - 1 do
      Bytes.unsafe_set t.bytes (addr + i) (Char.chr ((v lsr (8 * i)) land 0xff))
    done

(* Sign-extend an integer read of [len] bytes. *)
let read_int_signed t addr ~len =
  let v = read_int t addr ~len in
  let bits = len * 8 in
  if bits >= 63 then v
  else
    let sign = 1 lsl (bits - 1) in
    if v land sign <> 0 then v - (1 lsl bits) else v

let blit_bytes t ~dst src =
  check t dst (Bytes.length src);
  clear_tags_covering t dst (Bytes.length src);
  Bytes.blit src 0 t.bytes dst (Bytes.length src)

let read_bytes t addr len =
  check t addr len;
  Bytes.sub t.bytes addr len

(* Are all bytes of [addr, addr+len) zero? Eight at a time where possible. *)
let is_zero t addr len =
  check t addr len;
  let last = addr + len in
  let rec words a =
    if a + 8 <= last then Bytes.get_int64_le t.bytes a = 0L && words (a + 8)
    else bytes a
  and bytes a =
    a >= last || (Bytes.unsafe_get t.bytes a = '\000' && bytes (a + 1))
  in
  words addr

(* Digest of the whole data store, hashed in place. *)
let digest t = Digest.subbytes t.bytes 0 t.size

(* --- Capability access ----------------------------------------------------- *)

let read_cap t addr =
  check t addr granule;
  Cap.check_cap_alignment addr;
  let g = granule_of addr in
  if tag_bit t g then
    match Array.unsafe_get t.caps g with
    | Some c -> c
    | None -> assert false   (* bit and slot move together *)
  else
    (* Untagged: reconstruct the cursor from the raw bytes; all other
       fields read as a null-derived pattern. *)
    Cap.untagged ~addr:(Int64.to_int (Bytes.get_int64_le t.bytes addr))

let write_cap t addr cap =
  check t addr granule;
  Cap.check_cap_alignment addr;
  let g = granule_of addr in
  (* Raw bytes: cursor in the low 8 bytes, a metadata summary above. *)
  Bytes.set_int64_le t.bytes addr
    (Int64.logand (Int64.of_int (Cap.addr cap)) int63_mask);
  Bytes.set_int64_le t.bytes (addr + 8) 0L;
  if Cap.is_tagged cap then begin
    tag_bit_set t g;
    Array.unsafe_set t.caps g (Some cap)
  end else
    tag_bit_clear t g

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
      let caps = Array.make n None in
      for i = 0 to n - 1 do
        let g = sg0 + i in
        if tag_bit t g then caps.(i) <- Array.unsafe_get t.caps g
      done;
      clear_tags_covering t dst len;
      Bytes.blit t.bytes src t.bytes dst len;
      let dg0 = granule_of dst in
      for i = 0 to n - 1 do
        match caps.(i) with
        | None -> ()
        | Some _ as c ->
          let g = dg0 + i in
          tag_bit_set t g;
          Array.unsafe_set t.caps g c
      done
    end else begin
      (* No source tags (or an unaligned copy, which strips them): a plain
         overlap-safe byte move plus a destination tag sweep. *)
      clear_tags_covering t dst len;
      Bytes.blit t.bytes src t.bytes dst len
    end
  end

let fill t addr len byte =
  check t addr len;
  clear_tags_covering t addr len;
  Bytes.fill t.bytes addr len (Char.chr (byte land 0xff))
