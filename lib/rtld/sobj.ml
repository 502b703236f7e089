(* Shared objects and executable images.

   A shared object is the unit of dynamic linking: code (as assembler
   items with symbolic references), an initialized-data template, bss and
   TLS sizes, an export table, the list of symbols it reaches through the
   capability table (GOT), and data relocations for pointer-valued
   initializers.

   Symbolic reference namespaces used in code (resolved by the linker):
   - ["f"]        a code label; direct jumps (same-object, or cross-object
                  for the legacy ABI only);
   - ["addr$s"]   the absolute virtual address of symbol [s] (legacy
                  globals, function pointers, string literals);
   - ["got$s"]    the byte offset of [s]'s slot within the process
                  capability table (CheriABI global/function/TLS access). *)

type sym_kind =
  | Func
  | Data of int   (* size in bytes *)
  | Tls of int    (* size in bytes, offset within the object's TLS block *)

type export = {
  exp_name : string;
  exp_kind : sym_kind;
  exp_off : int;
  (* Func: unused (the code label carries the address).
     Data: offset within this object's data segment.
     Tls: offset within this object's TLS block. *)
}

(* A pointer-valued initializer in the data segment: at [dr_off] store the
   address of (or a capability to) [dr_target] plus [dr_addend]. Under
   CheriABI these become capability relocations processed at startup,
   because tags are not preserved on disk (§4, "Dynamic linking"). *)
type data_reloc = { dr_off : int; dr_target : string; dr_addend : int }

type t = {
  so_name : string;
  so_code : Cheri_isa.Asm.item list;
  so_data : Bytes.t;
  so_tls : int;
  so_exports : export list;
  so_got_syms : string list;
  so_data_relocs : data_reloc list;
  (* Data-segment ranges the ASan backend wants poisoned at startup
     (global redzones), as (offset, length) pairs. *)
  so_shadow_poison : (int * int) list;
}

let make ~name ?(data = Bytes.create 0) ?(tls = 0) ?(exports = [])
    ?(got_syms = []) ?(data_relocs = []) ?(shadow_poison = []) code =
  { so_name = name; so_code = code; so_data = data; so_tls = tls;
    so_exports = exports; so_got_syms = got_syms;
    so_data_relocs = data_relocs; so_shadow_poison = shadow_poison }

let code_size_bytes t =
  4 * List.length
        (List.filter
           (function Cheri_isa.Asm.Lbl _ -> false | _ -> true)
           t.so_code)

(* An executable image: the program object plus the shared objects it
   needs, and the entry symbol (conventionally "_start" in crt0).

   [img_id] is a process-unique identity stamped at construction. Images
   are immutable once built and shared freely (the same image is installed
   into many kernels by the bench and test harnesses), so the id is a
   stable key for per-image derived artifacts and for grouping machines
   that run one image. *)
type image = {
  img_id : int;
  img_name : string;
  img_objects : t list;    (* program first, then libraries *)
  img_entry : string;
}

(* Atomic so image identity stays unique even if a fleet domain builds an
   image (the fleet builds everything up front in the spawning domain, but
   the id must never silently collide — it keys the analysis caches). *)
let next_image_id = Atomic.make 0

let image ~name ~entry objects =
  { img_id = Atomic.fetch_and_add next_image_id 1 + 1; img_name = name;
    img_objects = objects; img_entry = entry }

let image_id img = img.img_id
