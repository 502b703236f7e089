(** Process ABIs.

    The paper contrasts three run-time environments on the same kernel:

    - {!Mips64}: the legacy SysV ABI — pointers are 64-bit integers, all
      loads and stores are implicitly checked only against DDC;
    - {!Cheriabi}: the paper's contribution — all pointers (explicit and
      implied) are capabilities, DDC is NULL, and the kernel accesses
      process memory only through user-provided capabilities;
    - {!Asan}: the legacy ABI with Address-Sanitizer-style shadow-memory
      instrumentation — the software-only comparison point of §5. *)

type t = Mips64 | Cheriabi | Asan

val to_string : t -> string
val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool

(** Pointer representation size in bytes (8 legacy, 16 CheriABI). *)
val pointer_size : t -> int
