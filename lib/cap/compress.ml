(* Bounds-compression model in the style of CHERI Concentrate.

   128-bit CHERI capabilities do not store full 64-bit base and top; they
   store a mantissa of [mw] bits and an exponent. Consequences modeled here,
   which the paper calls out as affecting allocators and stack layout
   (footnote 2: "large spans are aligned and sized at larger than byte
   granularity"):

   - [crrl len] is the representable rounded length: the smallest length
     >= [len] that a capability can have exactly.
   - [cram len] is the alignment mask a base must satisfy for a capability
     of length [len] to be exact.
   - a capability's cursor may wander some distance outside its bounds
     (the representable window) without losing its tag; beyond that window
     the tag is cleared.

   This is a faithful *model*, not a bit-exact re-encoding of ISAv7. *)

(* Mantissa width for the 128-bit format. *)
let mantissa_width = 14

(* Longest span the model represents. Lengths are unsigned in the ISA,
   but beyond 2^61 the rounded length of [crrl] and the [limit lsl e]
   spans below no longer fit a 63-bit int. *)
let max_length = 1 lsl 61

(* Bit length of [x >= 0]: the number of bits up to its highest set bit
   (0 for 0). Six halving steps, no loop over bits and no allocation. *)
let bit_length x =
  let x = ref x and n = ref 0 in
  if !x >= 1 lsl 32 then (n := 32; x := !x lsr 32);
  if !x >= 1 lsl 16 then (n := !n + 16; x := !x lsr 16);
  if !x >= 1 lsl 8 then (n := !n + 8; x := !x lsr 8);
  if !x >= 1 lsl 4 then (n := !n + 4; x := !x lsr 4);
  if !x >= 1 lsl 2 then (n := !n + 2; x := !x lsr 2);
  if !x >= 1 lsl 1 then (n := !n + 1; x := !x lsr 1);
  !n + !x

(* Exponent needed to represent a span of [len] bytes: 0 below the
   mantissa limit, otherwise the smallest e >= 1 with
   len <= limit lsl e, which is [bit_length (len - 1)] minus the
   limit's 13 bits. That formula holds for every non-negative int (the
   largest, max_int, needs e = 49: limit lsl 49 = 2^62); a negative
   length, read as the unsigned length it encodes, is longer than all of
   them and gets that same largest exponent. *)
let exponent_of_length len =
  let limit_bits = mantissa_width - 1 in
  if len < 0 then 62 - limit_bits
  else if len < 1 lsl limit_bits then 0
  else max 1 (bit_length (len - 1) - limit_bits)

(* Alignment mask (as in the CRAM instruction): base land (cram len) must
   equal base for exact representation. Total: an operand outside
   [0, max_length] gets the mask of its exponent like any other. *)
let cram len =
  let e = exponent_of_length len in
  lnot ((1 lsl e) - 1)

(* Representable rounded length (as in the CRRL instruction). An operand
   outside [0, max_length] has no representable rounding — the rounded
   length wraps past the top of the length space — and yields 0, so
   [crrl len < len] exactly when a positive [len] is too long. *)
let crrl len =
  if len < 0 || len > max_length then 0
  else begin
    let e = exponent_of_length len in
    let mask = (1 lsl e) - 1 in
    let rounded = (len + mask) land lnot mask in
    (* Rounding may push the length across an exponent boundary; recompute. *)
    if exponent_of_length rounded = e then rounded
    else
      let mask = (1 lsl exponent_of_length rounded) - 1 in
      (len + mask) land lnot mask
  end

(* Is [base, base+len) exactly representable? *)
let is_exact ~base ~len = crrl len = len && base land lnot (cram len) = 0

(* Pad a requested span out to a representable one. Returns (base, top).
   The padded span always contains the request.

   Aligning the base down grows the length, which can push it across an
   exponent boundary; the larger exponent then demands *coarser* base
   alignment, so one align-down/round-up pass is not enough. Iterate to a
   fixpoint: each step only lowers the base and raises the top, and the
   exponent is bounded, so the loop terminates (in practice in <= 2
   passes) with a span that satisfies [is_exact]. *)
let pad ~base ~top =
  let rec go pbase ptop =
    let len = ptop - pbase in
    let pbase' = pbase land cram len in
    let ptop' = pbase' + crrl (ptop - pbase') in
    if pbase' = pbase && ptop' = ptop then pbase, ptop
    else go pbase' ptop'
  in
  go base top

(* How far outside [base, top) the cursor may sit while remaining
   representable. Small objects get a fixed slack (one page); larger ones
   scale with the exponent, as compressed encodings do. *)
let representable_slack ~base ~top =
  let e = exponent_of_length (top - base) in
  if e = 0 then 4096 else 1 lsl (e + mantissa_width - 2)

(* Is [addr] inside the representable window of [base, top)? The slack
   is always positive, so a cursor within [base, top] — the common case
   of pointer arithmetic — is representable without working out the
   exponent. [Cap.set_addr] and [Cap.Regs.set_addr] both decide their tag
   through this one predicate. *)
let[@inline] in_representable_window ~base ~top addr =
  (addr >= base && addr <= top)
  ||
  let slack = representable_slack ~base ~top in
  addr >= base - slack && addr < top + slack
