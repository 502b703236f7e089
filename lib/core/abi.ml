(* Process ABIs.

   The paper contrasts three run-time environments on the same kernel:
   - [Mips64]: the legacy SysV ABI — pointers are 64-bit integers, all
     loads and stores are implicitly checked against DDC only;
   - [Cheriabi]: the paper's contribution — all pointers (explicit and
     implied) are capabilities, DDC is NULL, the kernel accesses process
     memory only through user-provided capabilities;
   - [Asan]: the mips64 ABI with Address-Sanitizer-style shadow-memory
     instrumentation, the software-only comparison point of §5. *)

type t = Mips64 | Cheriabi | Asan

let to_string = function
  | Mips64 -> "mips64"
  | Cheriabi -> "cheriabi"
  | Asan -> "asan"

let pp ppf t = Fmt.string ppf (to_string t)

let equal (a : t) b = a = b

(* Pointer representation size in bytes. *)
let pointer_size = function
  | Mips64 | Asan -> 8
  | Cheriabi -> Cheri_cap.Cap.sizeof
