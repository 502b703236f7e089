(** Bounds-compression model in the style of CHERI Concentrate.

    128-bit capabilities store bounds as a mantissa and exponent, which
    constrains representable spans: lengths round up ({!crrl}), bases must
    be aligned ({!cram}), and the cursor may only wander a bounded
    distance outside the object before the tag is lost. These are the
    constraints the paper notes allocators and stack layout must respect
    (footnote 2). This is a faithful model, not a bit-exact re-encoding
    of the ISAv7 format. *)

(** Mantissa width of the 128-bit format (14). *)
val mantissa_width : int

(** Longest length the model represents, [2^61]. *)
val max_length : int

(** Exponent needed to represent a span of the given length. Constant
    time and allocation-free. Total: a negative length (an unsigned
    length past every int) gets the largest exponent, that of [max_int]. *)
val exponent_of_length : int -> int

(** Alignment mask a base must satisfy for exact representation (as the
    CRAM instruction returns). Total: every operand, negative or above
    {!max_length} included, gets the mask of its {!exponent_of_length}. *)
val cram : int -> int

(** Representable rounded length: the smallest representable length
    [>= len] (as the CRRL instruction returns). An operand outside
    [[0, max_length]] has none and yields [0], so [crrl len < len]
    exactly when a positive [len] is too long to bound. *)
val crrl : int -> int

(** Is [base, base+len) exactly representable? *)
val is_exact : base:int -> len:int -> bool

(** Pad a span out to a representable one containing it. *)
val pad : base:int -> top:int -> int * int

(** How far outside [base, top) a cursor may sit while staying
    representable. *)
val representable_slack : base:int -> top:int -> int

(** Is the cursor inside the representable window? Always true within
    [[base, top]], which is decided without the exponent. *)
val in_representable_window : base:int -> top:int -> int -> bool
