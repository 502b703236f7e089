(* Runtime-builtin numbers (the [Insn.Rt] upcalls).

   These model the hand-optimized C runtime routines that are not worth
   expressing in simulated instructions: the allocator and the
   memory/formatting primitives. Each one's signature is written once, in
   [Runtime.table]; pointer arguments and results follow the positional
   calling convention (slot i = a_i or ca_i). *)

let rt_malloc = 1
let rt_free = 2
let rt_realloc = 3
let rt_calloc = 4
let rt_memcpy = 5
let rt_memmove = 6
let rt_memset = 7
let rt_print_int = 8
let rt_print_char = 9
let rt_print_str = 10
let rt_print_hex = 11
let rt_strlen = 12
let rt_free_revoke = 14   (* free + revocation sweep *)
