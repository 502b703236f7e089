(* Compiler driver: CSmall source text -> shared objects -> executable
   images. *)

module Abi = Cheri_core.Abi
module Sobj = Cheri_rtld.Sobj

type options = Codegen.options = {
  abi : Abi.t;
  clc_large_imm : bool;
  subobject_bounds : bool;
}

let default_options = Codegen.default_options

(* The text of source file [path], or [Error "PATH: reason"] when it
   cannot be read: missing, unreadable, or a directory. *)
let read_source path =
  match In_channel.with_open_bin path In_channel.input_all with
  | src -> Ok src
  | exception Sys_error msg ->
    let prefix = path ^ ": " in
    Error (if String.starts_with ~prefix msg then msg else prefix ^ msg)

(* Compile one translation unit. [diagnostics] is a hook handed the typed
   unit before code generation — the provenance lint (lib/analysis) plugs
   in here without the compiler depending on it. *)
let compile_source ~name ~opts ?diagnostics src : Sobj.t =
  let ast = Parser.parse src in
  let tu = Sema.check ast in
  (match diagnostics with Some f -> f tu | None -> ());
  Codegen.compile_unit ~name ~opts tu

(* Build an executable image: crt0, the program, then shared libraries.
   [libs] are (name, source) pairs compiled as separate shared objects —
   the dynamic-linking path of the paper (GOT capabilities bounded per
   symbol, function capabilities bounded per object). *)
let build_image ?opts ~abi ~name ?(libs = []) ?diagnostics src =
  let opts =
    match opts with
    | Some o -> o
    | None -> default_options abi
  in
  let prog = compile_source ~name:"prog" ~opts ?diagnostics src in
  let libobjs =
    List.map
      (fun (lname, lsrc) -> compile_source ~name:lname ~opts ?diagnostics lsrc)
      libs
  in
  Sobj.image ~name ~entry:"_start"
    (Cheri_libc.Crt0.sobj abi :: prog :: libobjs)

(* Compile and install an executable into a kernel's VFS. *)
let install k ~path ~abi ?opts ?(libs = []) src =
  let image = build_image ?opts ~abi ~name:path ~libs src in
  Cheri_kernel.Vfs.add_exe k.Cheri_kernel.Kstate.vfs path ~abi image

(* Total static code size of an image, in bytes (for the code-size
   comparison of the CLC ablation). *)
let image_code_size (image : Sobj.image) =
  List.fold_left (fun a o -> a + Sobj.code_size_bytes o) 0 image.Sobj.img_objects
