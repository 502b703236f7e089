(* Run-time linker tests: placement, symbol resolution, and the bounds of
   capability-table entries. *)

module Cap = Cheri_cap.Cap
module Perms = Cheri_cap.Perms
module Insn = Cheri_isa.Insn
module Asm = Cheri_isa.Asm
module Abi = Cheri_core.Abi
module Sobj = Cheri_rtld.Sobj
module Rtld = Cheri_rtld.Rtld

let fn name body =
  (Asm.Lbl name :: body) @ [ Asm.I (Insn.CJR Cheri_isa.Reg.cra) ]

let obj_a =
  Sobj.make ~name:"a"
    ~data:(Bytes.of_string "AAAAAAAA")
    ~exports:
      [ { Sobj.exp_name = "alpha"; exp_kind = Sobj.Func; exp_off = 0 };
        { Sobj.exp_name = "avar"; exp_kind = Sobj.Data 8; exp_off = 0 } ]
    ~got_syms:[ "bvar"; "beta" ]
    (fn "alpha" [ Asm.I Insn.Nop ])

let obj_b =
  Sobj.make ~name:"b"
    ~data:(Bytes.make 24 'B')
    ~tls:32
    ~exports:
      [ { Sobj.exp_name = "beta"; exp_kind = Sobj.Func; exp_off = 0 };
        { Sobj.exp_name = "bvar"; exp_kind = Sobj.Data 16; exp_off = 8 };
        { Sobj.exp_name = "btls"; exp_kind = Sobj.Tls 8; exp_off = 0 } ]
    ~got_syms:[ "avar" ]
    ~data_relocs:[ { Sobj.dr_off = 0; dr_target = "avar"; dr_addend = 4 } ]
    (fn "beta" [ Asm.I Insn.Nop; Asm.I Insn.Nop ])

let image = Sobj.image ~name:"test" ~entry:"alpha" [ obj_a; obj_b ]

let link abi = Rtld.link ~abi image

let root = Cap.make_root ~base:0 ~top:(1 lsl 40) ()

let test_placement_disjoint () =
  let lk = link Abi.Cheriabi in
  match lk.Rtld.lk_placed with
  | [ a; b ] ->
    Alcotest.(check bool) "text disjoint" true
      (a.Rtld.pl_text_base + a.Rtld.pl_text_size <= b.Rtld.pl_text_base);
    Alcotest.(check bool) "data after text" true
      (a.Rtld.pl_data_base >= a.Rtld.pl_text_base + a.Rtld.pl_text_size);
    Alcotest.(check bool) "tls offsets distinct" true
      (a.Rtld.pl_tls_off <> b.Rtld.pl_tls_off || obj_a.Sobj.so_tls = 0)
  | _ -> Alcotest.fail "expected two placed objects"

let test_entry_resolution () =
  let lk = link Abi.Cheriabi in
  (match Rtld.symbol_address lk "alpha" with
   | Some a -> Alcotest.(check int) "entry = alpha" a lk.Rtld.lk_entry
   | None -> Alcotest.fail "alpha unresolved");
  Alcotest.(check bool) "beta resolves" true
    (Rtld.symbol_address lk "beta" <> None);
  Alcotest.(check bool) "missing symbol" true
    (Rtld.symbol_address lk "nope" = None)

let test_got_layout () =
  let lk = link Abi.Cheriabi in
  (* The GOT is the union of all objects' needs, each slot 16 bytes. *)
  Alcotest.(check int) "three slots" 3 (List.length lk.Rtld.lk_got);
  List.iter
    (fun (_, off) ->
      Alcotest.(check int) "aligned" 0 (off land 15))
    lk.Rtld.lk_got

let test_got_cap_bounds () =
  let lk = link Abi.Cheriabi in
  (* Data symbol: bounded to the variable. *)
  let c = Rtld.got_cap lk ~root "bvar" in
  Alcotest.(check int) "bvar len" 16 (Cap.length c);
  Alcotest.(check bool) "bvar writable" true
    (Perms.has (Cap.perms c) Perms.store);
  Alcotest.(check bool) "bvar not executable" false
    (Perms.has (Cap.perms c) Perms.execute);
  (* Function symbol: bounded to the defining object's text. *)
  let f = Rtld.got_cap lk ~root "beta" in
  let b = List.nth lk.Rtld.lk_placed 1 in
  Alcotest.(check int) "beta base = b text" b.Rtld.pl_text_base (Cap.base f);
  Alcotest.(check bool) "beta executable" true
    (Perms.has (Cap.perms f) Perms.execute);
  Alcotest.(check bool) "beta not writable" false
    (Perms.has (Cap.perms f) Perms.store);
  (* TLS symbol: bounded to the object's TLS block. *)
  let t = Rtld.got_cap lk ~root "btls" in
  Alcotest.(check bool) "tls block bounds" true (Cap.length t >= 8)

let test_initialize_writes () =
  let lk = link Abi.Cheriabi in
  let ints : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let caps : (int, Cap.t) Hashtbl.t = Hashtbl.create 16 in
  let bytes_written = ref 0 in
  let writers =
    { Rtld.w_bytes = (fun _ b -> bytes_written := !bytes_written + Bytes.length b);
      w_int = (fun a ~len:_ v -> Hashtbl.replace ints a v);
      w_cap = (fun a c -> Hashtbl.replace caps a c) }
  in
  Rtld.initialize lk ~root ~writers;
  (* Data templates were copied. *)
  Alcotest.(check bool) "data copied" true (!bytes_written >= 32);
  (* The capability reloc in b's data points at avar+4. *)
  let b = List.nth lk.Rtld.lk_placed 1 in
  (match Hashtbl.find_opt caps b.Rtld.pl_data_base with
   | Some c ->
     let avar = Option.get (Rtld.symbol_address lk "avar") in
     Alcotest.(check int) "reloc cursor" (avar + 4) (Cap.addr c);
     Alcotest.(check int) "reloc bounds" 8 (Cap.length c)
   | None -> Alcotest.fail "no capability relocation written");
  (* Every GOT slot got a tagged capability. *)
  List.iter
    (fun (_, off) ->
      match Hashtbl.find_opt caps (lk.Rtld.lk_got_base + off) with
      | Some c -> Alcotest.(check bool) "tagged" true (Cap.is_tagged c)
      | None -> Alcotest.fail "GOT slot not filled")
    lk.Rtld.lk_got

let test_legacy_initialize_uses_ints () =
  let lk = link Abi.Mips64 in
  let ints : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let cap_writes = ref 0 in
  let writers =
    { Rtld.w_bytes = (fun _ _ -> ());
      w_int = (fun a ~len:_ v -> Hashtbl.replace ints a v);
      w_cap = (fun _ _ -> incr cap_writes) }
  in
  Rtld.initialize lk ~root ~writers;
  Alcotest.(check int) "no capabilities on legacy" 0 !cap_writes;
  let b = List.nth lk.Rtld.lk_placed 1 in
  let avar = Option.get (Rtld.symbol_address lk "avar") in
  Alcotest.(check (option int)) "reloc as address" (Some (avar + 4))
    (Hashtbl.find_opt ints b.Rtld.pl_data_base)

let test_cgp_cap () =
  let lk = link Abi.Cheriabi in
  let cgp = Rtld.cgp_cap lk ~root in
  Alcotest.(check int) "covers the GOT" lk.Rtld.lk_got_base (Cap.base cgp);
  Alcotest.(check bool) "read-only" false
    (Perms.has (Cap.perms cgp) Perms.store)

let test_duplicate_symbol_rejected () =
  let dup =
    Sobj.make ~name:"dup"
      ~exports:[ { Sobj.exp_name = "alpha"; exp_kind = Sobj.Func; exp_off = 0 } ]
      (fn "alpha" [])
  in
  let image = Sobj.image ~name:"bad" ~entry:"alpha" [ obj_a; dup ] in
  match Rtld.link ~abi:Abi.Cheriabi image with
  | _ -> Alcotest.fail "duplicate symbol should be rejected"
  | exception Rtld.Link_error _ -> ()

let test_missing_entry_rejected () =
  let image = Sobj.image ~name:"bad" ~entry:"zzz" [ obj_a; obj_b ] in
  match Rtld.link ~abi:Abi.Cheriabi image with
  | _ -> Alcotest.fail "missing entry should be rejected"
  | exception Rtld.Link_error _ -> ()

let suite =
  [ "placement disjoint", `Quick, test_placement_disjoint;
    "entry resolution", `Quick, test_entry_resolution;
    "got layout", `Quick, test_got_layout;
    "got capability bounds", `Quick, test_got_cap_bounds;
    "initialize writes data/relocs/GOT", `Quick, test_initialize_writes;
    "legacy initialize uses addresses", `Quick, test_legacy_initialize_uses_ints;
    "cgp capability", `Quick, test_cgp_cap;
    "duplicate symbol rejected", `Quick, test_duplicate_symbol_rejected;
    "missing entry rejected", `Quick, test_missing_entry_rejected ]
