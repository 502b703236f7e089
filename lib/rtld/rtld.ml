(* The run-time linker.

   Places each shared object of an image in the address space, resolves
   symbols across objects, assembles the final code, and — at process
   startup — initializes data segments, processes capability relocations
   for pointer-valued globals, and fills the capability table (GOT).

   Under CheriABI every GOT entry is a *bounded* capability: data symbols
   are bounded to the variable, function symbols to the containing shared
   object's text (preserving intra-object PC-relative idioms, §4), and TLS
   symbols to the per-object TLS block. Under the legacy ABI the same
   slots conceptually exist as plain addresses but code reaches symbols by
   absolute address. *)

module Cap = Cheri_cap.Cap
module Perms = Cheri_cap.Perms
module Asm = Cheri_isa.Asm
module Insn = Cheri_isa.Insn
module Abi = Cheri_core.Abi

type placed = {
  pl_obj : Sobj.t;
  pl_text_base : int;
  pl_text_size : int;     (* bytes of code *)
  pl_data_base : int;
  pl_data_size : int;     (* data + bss, bytes *)
  pl_tls_off : int;       (* offset of this object's block in the TLS region *)
}

type symdef =
  | Dfunc of placed * int           (* defining object, absolute address *)
  | Ddata of placed * int * int     (* defining object, address, size *)
  | Dtls of placed * int * int      (* defining object, offset in TLS region, size *)

type t = {
  lk_abi : Abi.t;
  lk_placed : placed list;
  lk_got_base : int;
  lk_got_size : int;
  lk_got : (string * int) list;             (* symbol -> byte offset in GOT *)
  lk_symtab : (string, symdef) Hashtbl.t;
  lk_tls_base : int;
  lk_tls_size : int;
  lk_entry : int;
  lk_code : (int * Insn.t array) list;      (* text base -> instructions *)
}

exception Link_error of string

let page = 4096
let align_up v a = (v + a - 1) land lnot (a - 1)

let text_start = 0x0100_0000
let got_base = 0x0800_0000
let tls_base = 0x0900_0000

(* --- Linking ----------------------------------------------------------------- *)

let link ~abi (image : Sobj.image) =
  (* Pass 1: placement. *)
  let placed, _, tls_size =
    List.fold_left
      (fun (acc, next_text, tls_off) obj ->
        let text_size = Sobj.code_size_bytes obj in
        let data_base = align_up (next_text + text_size) page + page in
        let data_size = Bytes.length obj.Sobj.so_data in
        let pl =
          { pl_obj = obj; pl_text_base = next_text; pl_text_size = text_size;
            pl_data_base = data_base; pl_data_size = data_size;
            pl_tls_off = tls_off }
        in
        let next_text = align_up (data_base + max data_size 1) page + page in
        pl :: acc, next_text, tls_off + align_up (max obj.Sobj.so_tls 0) 16)
      ([], text_start, 0) image.Sobj.img_objects
  in
  let placed = List.rev placed in
  (* Pass 2: global symbol table from exports and first-pass labels. *)
  let symtab : (string, symdef) Hashtbl.t = Hashtbl.create 128 in
  let labelmaps =
    List.map
      (fun pl ->
        let labels = Asm.scan_labels ~base:pl.pl_text_base pl.pl_obj.Sobj.so_code in
        List.iter
          (fun (e : Sobj.export) ->
            if Hashtbl.mem symtab e.Sobj.exp_name then
              raise (Link_error ("duplicate symbol " ^ e.Sobj.exp_name));
            match e.Sobj.exp_kind with
            | Sobj.Func ->
              (match Hashtbl.find_opt labels e.Sobj.exp_name with
               | Some addr -> Hashtbl.add symtab e.Sobj.exp_name (Dfunc (pl, addr))
               | None ->
                 raise (Link_error ("exported function without label: "
                                    ^ e.Sobj.exp_name)))
            | Sobj.Data size ->
              Hashtbl.add symtab e.Sobj.exp_name
                (Ddata (pl, pl.pl_data_base + e.Sobj.exp_off, size))
            | Sobj.Tls size ->
              Hashtbl.add symtab e.Sobj.exp_name
                (Dtls (pl, pl.pl_tls_off + e.Sobj.exp_off, size)))
          pl.pl_obj.Sobj.so_exports;
        pl, labels)
      placed
  in
  (* Pass 3: capability-table layout (union of all objects' GOT symbols). *)
  let got = ref [] and got_off = ref 0 in
  List.iter
    (fun pl ->
      List.iter
        (fun s ->
          if not (List.mem_assoc s !got) then begin
            got := (s, !got_off) :: !got;
            got_off := !got_off + Cap.sizeof
          end)
        pl.pl_obj.Sobj.so_got_syms)
    placed;
  let got = List.rev !got in
  let sym_addr name =
    match Hashtbl.find_opt symtab name with
    | Some (Dfunc (_, a)) -> Some a
    | Some (Ddata (_, a, _)) -> Some a
    | Some (Dtls (_, off, _)) -> Some (tls_base + off)
    | None -> None
  in
  (* Pass 4: assemble each object against the global environment. *)
  let strip_prefix ~prefix s =
    let n = String.length prefix in
    if String.length s > n && String.sub s 0 n = prefix then
      Some (String.sub s n (String.length s - n))
    else None
  in
  let extern name =
    match strip_prefix ~prefix:"got$" name with
    | Some s ->
      (match List.assoc_opt s got with
       | Some off -> Some off
       | None -> raise (Link_error ("no GOT slot for " ^ s)))
    | None ->
      (match strip_prefix ~prefix:"addr$" name with
       | Some s -> sym_addr s
       | None ->
         (* Bare label: a cross-object direct call (legacy ABI). *)
         (match Hashtbl.find_opt symtab name with
          | Some (Dfunc (_, a)) -> Some a
          | _ -> None))
  in
  let code =
    List.map
      (fun (pl, _) ->
        let asmd = Asm.assemble ~extern ~base:pl.pl_text_base pl.pl_obj.Sobj.so_code in
        pl.pl_text_base, asmd.Asm.code)
      labelmaps
  in
  let entry =
    match Hashtbl.find_opt symtab image.Sobj.img_entry with
    | Some (Dfunc (_, a)) -> a
    | _ -> raise (Link_error ("no entry symbol " ^ image.Sobj.img_entry))
  in
  { lk_abi = abi; lk_placed = placed;
    lk_got_base = got_base;
    lk_got_size = align_up (max (List.length got * Cap.sizeof) 16) page;
    lk_got = got; lk_symtab = symtab;
    lk_tls_base = tls_base; lk_tls_size = align_up (max tls_size 16) page;
    lk_entry = entry; lk_code = code }

(* --- Startup initialization --------------------------------------------------- *)

(* Memory writers supplied by the kernel (they go through the process's
   page tables). *)
type writers = {
  w_bytes : int -> Bytes.t -> unit;
  w_int : int -> len:int -> int -> unit;
  w_cap : int -> Cap.t -> unit;
}

let object_text_cap ~root pl =
  let c = Cap.set_addr root pl.pl_text_base in
  let c = Cap.set_bounds c ~len:(align_up (max pl.pl_text_size 4) page) in
  Cap.and_perms c Perms.code

(* A read-write data capability for [addr, addr+len), derived from [root]. *)
let data_cap ~root ~addr ~len =
  Cap.and_perms (Cap.set_bounds (Cap.set_addr root addr) ~len) Perms.data

(* Build the capability a GOT slot holds for [sym]. *)
let got_cap t ~root sym =
  match Hashtbl.find_opt t.lk_symtab sym with
  | None -> raise (Link_error ("unresolved GOT symbol " ^ sym))
  | Some (Dfunc (pl, addr)) ->
    (* Function pointers are bounded to the defining shared object's text,
       preserving branches between functions of one object. *)
    Cap.set_addr (object_text_cap ~root pl) addr
  | Some (Ddata (_, addr, size)) -> data_cap ~root ~addr ~len:size
  | Some (Dtls (pl, off, _size)) ->
    (* TLS bounds are per shared object, not per variable (§4). *)
    Cap.inc_addr
      (data_cap ~root ~addr:(t.lk_tls_base + pl.pl_tls_off)
         ~len:(align_up (max pl.pl_obj.Sobj.so_tls 16) 16))
      (off - pl.pl_tls_off)

(* Initialize data segments, process relocations, and fill the GOT.
   [root] is the process's root user capability; every installed
   capability is derived from it. The kernel's [w_cap] is its grant door,
   which checks and traces each one. *)
let initialize t ~root ~writers =
  (* Data templates. *)
  List.iter
    (fun pl ->
      if Bytes.length pl.pl_obj.Sobj.so_data > 0 then
        writers.w_bytes pl.pl_data_base pl.pl_obj.Sobj.so_data)
    t.lk_placed;
  (* Pointer-valued initializers. *)
  let sym_addr_size name =
    match Hashtbl.find_opt t.lk_symtab name with
    | Some (Dfunc (pl, a)) -> a, pl.pl_text_size, `Func pl
    | Some (Ddata (_, a, s)) -> a, s, `Data
    | Some (Dtls (_, off, s)) -> t.lk_tls_base + off, s, `Data
    | None -> raise (Link_error ("unresolved reloc target " ^ name))
  in
  List.iter
    (fun pl ->
      List.iter
        (fun (r : Sobj.data_reloc) ->
          let addr, size, kind = sym_addr_size r.Sobj.dr_target in
          let where = pl.pl_data_base + r.Sobj.dr_off in
          match t.lk_abi with
          | Abi.Mips64 | Abi.Asan -> writers.w_int where ~len:8 (addr + r.Sobj.dr_addend)
          | Abi.Cheriabi ->
            let c =
              match kind with
              | `Func dpl -> Cap.set_addr (object_text_cap ~root dpl) addr
              | `Data -> data_cap ~root ~addr ~len:size
            in
            writers.w_cap where (Cap.inc_addr c r.Sobj.dr_addend))
        pl.pl_obj.Sobj.so_data_relocs)
    t.lk_placed;
  (* Capability table. *)
  (match t.lk_abi with
   | Abi.Mips64 | Abi.Asan -> ()
   | Abi.Cheriabi ->
     List.iter
       (fun (sym, off) ->
         writers.w_cap (t.lk_got_base + off) (got_cap t ~root sym))
       t.lk_got)

(* Capability for the GOT itself (installed in $cgp at exec). *)
let cgp_cap t ~root =
  let c = Cap.set_addr root t.lk_got_base in
  let c = Cap.set_bounds c ~len:t.lk_got_size in
  Cap.and_perms c Perms.read_only

let symbol_address t name =
  match Hashtbl.find_opt t.lk_symtab name with
  | Some (Dfunc (_, a)) | Some (Ddata (_, a, _)) -> Some a
  | Some (Dtls (_, off, _)) -> Some (t.lk_tls_base + off)
  | None -> None
