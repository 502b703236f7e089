(* Unit and property tests for the capability model: provenance,
   monotonicity, compression, and access checking. *)

module Cap = Cheri_cap.Cap
module Perms = Cheri_cap.Perms
module Compress = Cheri_cap.Compress

let root () = Cap.make_root ~base:0 ~top:(1 lsl 40) ()

let check_cap_error violation f =
  match f () with
  | exception Cap.Cap_error v when v = violation -> ()
  | exception Cap.Cap_error v ->
    Alcotest.failf "expected %s, got %s"
      (Cap.violation_to_string violation) (Cap.violation_to_string v)
  | _ -> Alcotest.fail "expected Cap_error, got a value"

(* --- Perms ----------------------------------------------------------------- *)

let test_perms_subset () =
  Alcotest.(check bool) "load subset of data" true
    (Perms.subset Perms.load Perms.data);
  Alcotest.(check bool) "execute not subset of data" false
    (Perms.subset Perms.execute Perms.data);
  Alcotest.(check bool) "none subset of none" true
    (Perms.subset Perms.none Perms.none);
  Alcotest.(check bool) "all has vmmap" true (Perms.has Perms.all Perms.vmmap)

let test_perms_ops () =
  let p = Perms.union Perms.load Perms.store in
  Alcotest.(check bool) "union has both" true
    (Perms.has p Perms.load && Perms.has p Perms.store);
  let q = Perms.diff p Perms.store in
  Alcotest.(check bool) "diff removed store" false (Perms.has q Perms.store);
  Alcotest.(check bool) "diff kept load" true (Perms.has q Perms.load);
  Alcotest.(check int) "inter" Perms.load (Perms.inter p Perms.load)

(* --- Basic capability algebra --------------------------------------------- *)

let test_null () =
  Alcotest.(check bool) "null untagged" false (Cap.is_tagged Cap.null);
  Alcotest.(check bool) "null is null" true (Cap.is_null Cap.null);
  Alcotest.(check int) "null length" 0 (Cap.length Cap.null)

let test_root () =
  let r = root () in
  Alcotest.(check bool) "tagged" true (Cap.is_tagged r);
  Alcotest.(check int) "base" 0 (Cap.base r);
  Alcotest.(check int) "top" (1 lsl 40) (Cap.top r);
  Alcotest.(check bool) "has all perms" true (Perms.subset Perms.all (Cap.perms r))

let test_set_bounds_narrows () =
  let r = root () in
  let c = Cap.set_bounds (Cap.set_addr r 0x1000) ~len:256 in
  Alcotest.(check int) "base" 0x1000 (Cap.base c);
  Alcotest.(check int) "top" 0x1100 (Cap.top c);
  Alcotest.(check bool) "derives from root" true (Cap.derives_from c r)

let test_set_bounds_monotonic () =
  let r = root () in
  let c = Cap.set_bounds (Cap.set_addr r 0x1000) ~len:256 in
  (* Attempting to widen traps. *)
  check_cap_error Cap.Monotonicity_violation (fun () ->
      Cap.set_bounds (Cap.set_addr c 0x1000) ~len:512);
  (* Attempting to go below base traps. *)
  check_cap_error Cap.Monotonicity_violation (fun () ->
      Cap.set_bounds (Cap.set_addr c 0xfff) ~len:16)

let test_set_bounds_untagged () =
  check_cap_error Cap.Tag_violation (fun () -> Cap.set_bounds Cap.null ~len:16)

let test_and_perms_monotonic () =
  let r = root () in
  let ro = Cap.and_perms r Perms.read_only in
  Alcotest.(check bool) "no store" false (Perms.has (Cap.perms ro) Perms.store);
  (* and_perms can never add permissions back. *)
  let again = Cap.and_perms ro Perms.all in
  Alcotest.(check bool) "still no store" false
    (Perms.has (Cap.perms again) Perms.store)

let test_addr_arithmetic () =
  let r = root () in
  let c = Cap.set_bounds (Cap.set_addr r 0x2000) ~len:64 in
  let c2 = Cap.inc_addr c 32 in
  Alcotest.(check int) "addr moved" (0x2000 + 32) (Cap.addr c2);
  Alcotest.(check int) "bounds unchanged base" 0x2000 (Cap.base c2);
  Alcotest.(check int) "bounds unchanged top" (0x2000 + 64) (Cap.top c2);
  Alcotest.(check bool) "still tagged" true (Cap.is_tagged c2);
  (* one-past-the-end stays tagged (common C idiom). *)
  let past = Cap.inc_addr c 64 in
  Alcotest.(check bool) "one past end tagged" true (Cap.is_tagged past);
  (* wild arithmetic clears the tag. *)
  let wild = Cap.inc_addr c (1 lsl 30) in
  Alcotest.(check bool) "wild untagged" false (Cap.is_tagged wild)

let test_access_checks () =
  let r = root () in
  let c = Cap.set_bounds (Cap.set_addr r 0x3000) ~len:16 in
  Cap.check_access c ~perm:Perms.load ~len:8;
  check_cap_error Cap.Bounds_violation (fun () ->
      Cap.check_access (Cap.inc_addr c 9) ~perm:Perms.load ~len:8;
      Cap.null);
  let noload = Cap.and_perms c (Perms.diff Perms.all Perms.load) in
  check_cap_error (Cap.Permit_violation Perms.load) (fun () ->
      Cap.check_access noload ~perm:Perms.load ~len:8;
      Cap.null)

let test_seal_unseal () =
  let r = root () in
  let data = Cap.set_bounds (Cap.set_addr r 0x4000) ~len:64 in
  let sealer = Cap.set_addr (Cap.and_perms r (Perms.union Perms.seal Perms.unseal)) 42 in
  let sealed = Cap.seal data ~with_:sealer in
  Alcotest.(check bool) "sealed" true (Cap.is_sealed sealed);
  Alcotest.(check int) "otype" 42 (Cap.otype sealed);
  (* A sealed capability cannot be dereferenced or modified. *)
  check_cap_error Cap.Seal_violation (fun () ->
      Cap.check_access sealed ~perm:Perms.load ~len:1;
      Cap.null);
  check_cap_error Cap.Seal_violation (fun () -> Cap.set_bounds sealed ~len:8);
  let unsealed = Cap.unseal sealed ~with_:sealer in
  Alcotest.(check bool) "unsealed equals original" true (Cap.equal unsealed data);
  (* Wrong otype fails. *)
  let wrong = Cap.set_addr sealer 43 in
  check_cap_error (Cap.Permit_violation Perms.unseal) (fun () ->
      Cap.unseal sealed ~with_:wrong)

let test_from_ptr_null_ddc () =
  (* Under CheriABI, DDC is NULL: integer-to-pointer casts produce untagged
     capabilities that trap on dereference. *)
  let c = Cap.from_ptr Cap.null 0x1234 in
  Alcotest.(check bool) "untagged" false (Cap.is_tagged c);
  Alcotest.(check int) "addr preserved" 0x1234 (Cap.addr c);
  check_cap_error Cap.Tag_violation (fun () ->
      Cap.check_access c ~perm:Perms.load ~len:1;
      Cap.null)

let test_from_ptr_tagged_ddc () =
  let r = root () in
  let c = Cap.from_ptr r 0x1234 in
  Alcotest.(check bool) "tagged" true (Cap.is_tagged c);
  Alcotest.(check int) "addr" 0x1234 (Cap.addr c)

(* --- Compression ------------------------------------------------------------ *)

let test_crrl_small () =
  (* Small lengths are exactly representable. *)
  List.iter
    (fun len -> Alcotest.(check int) (Printf.sprintf "crrl %d" len) len
        (Compress.crrl len))
    [ 0; 1; 16; 100; 4096; 8191 ]

let test_crrl_large_rounds_up () =
  let len = (1 lsl 20) + 3 in
  let r = Compress.crrl len in
  Alcotest.(check bool) "rounded up" true (r >= len);
  Alcotest.(check bool) "aligned" true (r land lnot (Compress.cram r) = 0)

let test_exactness () =
  Alcotest.(check bool) "small always exact" true
    (Compress.is_exact ~base:3 ~len:100);
  Alcotest.(check bool) "large unaligned inexact" false
    (Compress.is_exact ~base:3 ~len:(1 lsl 20))

let test_set_bounds_exact_traps () =
  let r = root () in
  let c = Cap.set_addr r ((1 lsl 20) + 8) in
  check_cap_error Cap.Representability_violation (fun () ->
      Cap.set_bounds ~exact:true c ~len:((1 lsl 20) + 3))

let test_set_bounds_pads () =
  let r = root () in
  let len = (1 lsl 20) + 3 in
  let c = Cap.set_bounds (Cap.set_addr r (1 lsl 21)) ~len in
  Alcotest.(check bool) "covers request" true
    (Cap.base c <= 1 lsl 21 && Cap.top c >= (1 lsl 21) + len);
  Alcotest.(check int) "length is crrl-sized" (Compress.crrl (Cap.length c))
    (Cap.length c)

(* Regression for the pre-fixpoint [Compress.pad]. Aligning the base down
   grows the span; when that growth crosses an exponent boundary, the new
   exponent demands *coarser* base alignment, which a single
   align-down/round-up pass does not restore. [base:3 top:16387] is such a
   span: one pass yields base 2 / len 16388, and an exponent-2 encoding
   requires 4-byte base alignment — not exact. The fixpoint pad must keep
   iterating until [is_exact] holds. *)
let test_pad_fixpoint_regression () =
  let base = 3 and top = 16387 in
  (* The old single-pass computation, inlined: *)
  let obase = base land Compress.cram (top - base) in
  let otop = obase + Compress.crrl (top - obase) in
  Alcotest.(check bool) "single align/round pass is not exact" false
    (Compress.is_exact ~base:obase ~len:(otop - obase));
  (* The fixed pad reaches an exact span that still covers the request. *)
  let pbase, ptop = Compress.pad ~base ~top in
  Alcotest.(check bool) "covers request" true (pbase <= base && ptop >= top);
  Alcotest.(check bool) "pad result is exact" true
    (Compress.is_exact ~base:pbase ~len:(ptop - pbase))

(* --- Compression: constant-time definitions vs the reference search -------- *)

(* The definitions [Compress] used before its exponent became a constant-
   time bit count: a doubling search (which never returned past
   [max_length], where the doubling span overflows) and the crrl/cram
   built on it. The new ones must agree wherever the old ones returned. *)
module Ref_compress = struct
  let limit = 1 lsl (Compress.mantissa_width - 1)

  let exponent_of_length len =
    if len < 0 then invalid_arg "Ref_compress.exponent_of_length";
    if len < limit then 0
    else
      let rec go e span = if len <= span then e else go (e + 1) (span * 2) in
      go 1 (limit * 2)

  let cram len = lnot ((1 lsl exponent_of_length len) - 1)

  let crrl len =
    let e = exponent_of_length len in
    let mask = (1 lsl e) - 1 in
    let rounded = (len + mask) land lnot mask in
    if exponent_of_length rounded = e then rounded
    else
      let mask = (1 lsl exponent_of_length rounded) - 1 in
      (len + mask) land lnot mask
end

let check_against_ref len =
  let chk name f g =
    let a = f len and b = g len in
    if a <> b then Alcotest.failf "%s %d: %d, reference %d" name len a b
  in
  chk "exponent_of_length" Compress.exponent_of_length
    Ref_compress.exponent_of_length;
  chk "crrl" Compress.crrl Ref_compress.crrl;
  chk "cram" Compress.cram Ref_compress.cram

let test_compress_matches_reference () =
  for len = 0 to 1 lsl 16 do check_against_ref len done;
  for k = 0 to 60 do
    List.iter check_against_ref [ (1 lsl k) - 1; 1 lsl k; (1 lsl k) + 1 ]
  done;
  check_against_ref Compress.max_length

let test_compress_out_of_range () =
  let top_mask = lnot ((1 lsl 49) - 1) in
  List.iter
    (fun len ->
      Alcotest.(check int) (Printf.sprintf "crrl %d" len) 0 (Compress.crrl len);
      Alcotest.(check int) (Printf.sprintf "cram %d" len) top_mask
        (Compress.cram len);
      Alcotest.(check int) (Printf.sprintf "exponent %d" len) 49
        (Compress.exponent_of_length len))
    [ -1; min_int; Compress.max_length + 1; max_int ];
  Alcotest.(check int) "crrl max_length" Compress.max_length
    (Compress.crrl Compress.max_length);
  (* A length whose end wraps past max_int is still outside the source. *)
  check_cap_error Cap.Monotonicity_violation (fun () ->
      Cap.set_bounds (Cap.set_addr (root ()) 100) ~len:max_int)

(* --- Unboxed register file vs the boxed derivations ------------------------- *)

module Regs = Cap.Regs

(* Caps worth comparing the two representations on: tagged, untagged
   (stripped or null-derived) and sealed; small lengths, lengths around
   the mantissa limit, huge ones; cursors inside the bounds, on them,
   at and just past the edge of the representable window, and far out. *)
let gen_cap =
  let open QCheck.Gen in
  let* base =
    oneof [ int_range 0 (1 lsl 16); int_range (1 lsl 40) ((1 lsl 40) + 4096) ]
  in
  let* len =
    oneof
      [ int_range 0 64;
        int_range ((1 lsl 13) - 4) ((1 lsl 13) + 4);
        int_range (1 lsl 30) (1 lsl 46) ]
  in
  let* perms = int_range 0 Perms.all in
  let* cursor = int_range 0 8 in
  let* far = int_range min_int max_int in
  let* kind = int_range 0 4 in
  let* otype = int_range 0 1023 in
  let top = base + len in
  let slack = Compress.representable_slack ~base ~top in
  let addr =
    match cursor with
    | 0 -> base
    | 1 -> top
    | 2 -> base + (len / 2)
    | 3 -> base - slack
    | 4 -> base - slack - 1
    | 5 -> top + slack - 1
    | 6 -> top + slack
    | 7 -> top - 1
    | _ -> far
  in
  let c = Cap.set_addr (Cap.and_perms (Cap.make_root ~base ~top ()) perms) addr in
  return
    (match kind with
     | 0 -> Cap.clear_tag c
     | 1 -> Cap.untagged ~addr
     | 2 when Cap.is_tagged c ->
       let sealer =
         Cap.set_addr (Cap.make_root ~base:0 ~top:1024 ()) otype
       in
       Cap.seal c ~with_:sealer
     | _ -> c)

(* Addresses and deltas relative to a source register's bounds, so
   set_addr and inc_addr land on the window edges as often as anywhere. *)
let target_addr (c : Cap.t) sel far =
  let base = Cap.base c and top = Cap.top c in
  let slack = Compress.representable_slack ~base ~top in
  match sel with
  | 0 -> base
  | 1 -> top
  | 2 -> top - 1
  | 3 -> base - slack
  | 4 -> base - slack - 1
  | 5 -> top + slack - 1
  | 6 -> top + slack
  | 7 -> Cap.addr c + (far land 0xff)
  | _ -> far

type regs_op =
  | Set of int * Cap.t
  | Move of int * int
  | Clear_tag of int * int
  | Set_addr of int * int * int * int
  | Inc_addr of int * int * int * int
  | Set_addr_of of int * Cap.t * int * int
  | Load of int * Cap.t * bool
  | Set_untagged of int * int
  | Access of int * Perms.t * int * int * int

let pp_regs_op = function
  | Set (d, c) -> Printf.sprintf "set c%d %s" d (Cap.to_string c)
  | Move (d, s) -> Printf.sprintf "move c%d c%d" d s
  | Clear_tag (d, s) -> Printf.sprintf "clear_tag c%d c%d" d s
  | Set_addr (d, s, sel, far) -> Printf.sprintf "set_addr c%d c%d %d/%d" d s sel far
  | Inc_addr (d, s, sel, far) -> Printf.sprintf "inc_addr c%d c%d %d/%d" d s sel far
  | Set_addr_of (d, c, sel, far) ->
    Printf.sprintf "set_addr_of c%d %s %d/%d" d (Cap.to_string c) sel far
  | Load (d, c, k) -> Printf.sprintf "load c%d %s keep=%b" d (Cap.to_string c) k
  | Set_untagged (d, a) -> Printf.sprintf "set_untagged c%d %d" d a
  | Access (s, p, sel, far, len) ->
    Printf.sprintf "access c%d perm=%d %d/%d len=%d" s p sel far len

let gen_regs_op =
  let open QCheck.Gen in
  let reg = oneof [ int_range 0 3; int_range 0 31 ] in
  let sel = int_range 0 8 and far = int_range min_int max_int in
  oneof
    [ map2 (fun d c -> Set (d, c)) reg gen_cap;
      map2 (fun d s -> Move (d, s)) reg reg;
      map2 (fun d s -> Clear_tag (d, s)) reg reg;
      map4 (fun d s k f -> Set_addr (d, s, k, f)) reg reg sel far;
      map4 (fun d s k f -> Inc_addr (d, s, k, f)) reg reg sel far;
      map4 (fun d c k f -> Set_addr_of (d, c, k, f)) reg gen_cap sel far;
      map3 (fun d c k -> Load (d, c, k)) reg gen_cap bool;
      map2 (fun d a -> Set_untagged (d, a)) reg far;
      (let* s = reg and* p = int_range 0 Perms.all and* k = sel and* f = far in
       let* len = oneof [ return 1; return 8; return Cap.sizeof; int_range 0 64 ] in
       return (Access (s, p, k, f, len))) ]

(* Apply [op] to a boxed model (a [Cap.t array] in which c0 reads NULL
   and ignores writes) and to the register file; both must leave the
   same fields everywhere, or raise the same [Cap_error] and write
   nothing. *)
let regs_step model regs op =
  let rd r = if r = 0 then Cap.null else model.(r) in
  let wr r c = if r <> 0 then model.(r) <- c in
  let boxed f = match f () with c -> Ok c | exception Cap.Cap_error v -> Error v in
  let unboxed f = match f () with () -> Ok () | exception Cap.Cap_error v -> Error v in
  let ws = Regs.wslot and rs = Regs.rslot in
  let derive d name fb fu =
    match boxed fb, unboxed fu with
    | Ok c, Ok () -> wr d c
    | Error v, Error w when v = w -> ()
    | _ -> QCheck.Test.fail_reportf "%s: boxed and unboxed outcomes differ" name
  in
  (match op with
   | Set (d, c) -> wr d c; Regs.set regs (ws d) c
   | Move (d, s) -> derive d "move" (fun () -> rd s) (fun () -> Regs.move regs ~dst:(ws d) ~src:(rs s))
   | Clear_tag (d, s) ->
     derive d "clear_tag" (fun () -> Cap.clear_tag (rd s))
       (fun () -> Regs.clear_tag regs ~dst:(ws d) ~src:(rs s))
   | Set_addr (d, s, sel, far) ->
     let a = target_addr (rd s) sel far in
     derive d "set_addr" (fun () -> Cap.set_addr (rd s) a)
       (fun () -> Regs.set_addr regs ~dst:(ws d) ~src:(rs s) a)
   | Inc_addr (d, s, sel, far) ->
     let delta = target_addr (rd s) sel far - Cap.addr (rd s) in
     derive d "inc_addr" (fun () -> Cap.inc_addr (rd s) delta)
       (fun () -> Regs.inc_addr regs ~dst:(ws d) ~src:(rs s) delta)
   | Set_addr_of (d, c, sel, far) ->
     let a = target_addr c sel far in
     derive d "set_addr_of" (fun () -> Cap.set_addr c a)
       (fun () -> Regs.set_addr_of regs (ws d) c a)
   | Load (d, c, keep_tag) ->
     derive d "load" (fun () -> if keep_tag then c else Cap.clear_tag c)
       (fun () -> Regs.load regs (ws d) c ~keep_tag)
   | Set_untagged (d, a) ->
     derive d "set_untagged" (fun () -> Cap.untagged ~addr:a)
       (fun () -> Regs.set_untagged regs (ws d) a)
   | Access (s, perm, sel, far, len) ->
     let addr = target_addr (rd s) sel far in
     let b =
       match Cap.check_access_at (rd s) ~perm ~addr ~len with
       | () -> true
       | exception Cap.Cap_error _ -> false
     in
     if b <> Regs.access_ok regs (rs s) ~perm ~addr ~len then
       QCheck.Test.fail_reportf "access_ok disagrees with check_access_at");
  for r = 0 to Regs.nregs - 1 do
    let c = rd r and s = rs r in
    let fields =
      [ "tag", Bool.to_int (Cap.is_tagged c), Bool.to_int (Regs.tag regs s);
        "perms", Cap.perms c, Regs.perms regs s;
        "otype", Cap.otype c, Regs.otype regs s;
        "base", Cap.base c, Regs.base regs s;
        "top", Cap.top c, Regs.top regs s;
        "addr", Cap.addr c, Regs.addr regs s;
        "length", Cap.length c, Regs.length regs s;
        "offset", Cap.offset c, Regs.offset regs s ]
    in
    List.iter
      (fun (n, b, u) ->
        if b <> u then
          QCheck.Test.fail_reportf "c%d.%s: boxed %d, register file %d" r n b u)
      fields;
    if not (Cap.equal c (Regs.get regs s)) then
      QCheck.Test.fail_reportf "c%d: get %s, boxed %s" r
        (Cap.to_string (Regs.get regs s)) (Cap.to_string c)
  done;
  if not (Cap.equal (Regs.get regs (rs 0)) Cap.null) then
    QCheck.Test.fail_reportf "c0 no longer reads NULL"

let regs_tests =
  let open QCheck in
  [ Test.make ~name:"register file matches the boxed derivations" ~count:500
      (make
         ~print:(fun ops -> String.concat "; " (List.map pp_regs_op ops))
         Gen.(list_size (int_range 1 40) gen_regs_op))
      (fun ops ->
        let model = Array.make Regs.nregs Cap.null in
        let regs = Regs.create () in
        List.iter (regs_step model regs) ops;
        true) ]

(* --- Properties --------------------------------------------------------------- *)

let qcheck_tests =
  let open QCheck in
  let cap_op =
    (* A random (attempted) derivation step. *)
    oneof
      [ map (fun d -> `Inc d) (int_range (-64) 512);
        map (fun l -> `Bounds l) (int_range 0 1024);
        map (fun p -> `Perms p) (int_range 0 Perms.all);
        always `Cleartag ]
  in
  let apply c = function
    | `Inc d -> Cap.inc_addr c d
    | `Bounds l -> (try Cap.set_bounds c ~len:l with Cap.Cap_error _ -> c)
    | `Perms p -> (try Cap.and_perms c p with Cap.Cap_error _ -> c)
    | `Cleartag -> Cap.clear_tag c
  in
  [ Test.make ~name:"monotonicity: any derivation chain stays within the root"
      ~count:500
      (list_of_size Gen.(int_range 1 30) cap_op)
      (fun ops ->
        let r = Cap.make_root ~base:4096 ~top:65536 () in
        let final = List.fold_left apply (Cap.set_addr r 8192) ops in
        (not (Cap.is_tagged final)) || Cap.derives_from final r);
    Test.make ~name:"crrl is idempotent and >= len" ~count:1000
      (int_range 0 (1 lsl 30))
      (fun len ->
        let r = Compress.crrl len in
        r >= len && Compress.crrl r = r);
    Test.make ~name:"pad covers the request" ~count:1000
      (pair (int_range 0 (1 lsl 30)) (int_range 1 (1 lsl 24)))
      (fun (base, len) ->
        let pbase, ptop = Compress.pad ~base ~top:(base + len) in
        pbase <= base && ptop >= base + len);
    Test.make ~name:"pad result is exactly representable" ~count:1000
      (pair (int_range 0 (1 lsl 30)) (int_range 1 (1 lsl 24)))
      (fun (base, len) ->
        let pbase, ptop = Compress.pad ~base ~top:(base + len) in
        Compress.is_exact ~base:pbase ~len:(ptop - pbase));
    Test.make ~name:"crrl is monotone in len" ~count:1000
      (pair (int_range 0 (1 lsl 28)) (int_range 0 (1 lsl 12)))
      (fun (len, d) -> Compress.crrl len <= Compress.crrl (len + d));
    Test.make ~name:"cram-aligned base with crrl length is exact" ~count:1000
      (pair (int_range 0 (1 lsl 30)) (int_range 0 (1 lsl 24)))
      (fun (base, len) ->
        (* Alignment must use the mask of the *rounded* length — using the
           raw length's mask is exactly the pad bug above. *)
        let rlen = Compress.crrl len in
        Compress.is_exact ~base:(base land Compress.cram rlen) ~len:rlen);
    Test.make ~name:"untagged caps never pass access checks" ~count:200
      (int_range 0 (1 lsl 20))
      (fun a ->
        let c = Cap.untagged ~addr:a in
        match Cap.check_access c ~perm:Perms.load ~len:1 with
        | () -> false
        | exception Cap.Cap_error Cap.Tag_violation -> true
        | exception Cap.Cap_error _ -> false);
  ]

let suite =
  [ "perms subset", `Quick, test_perms_subset;
    "perms ops", `Quick, test_perms_ops;
    "null", `Quick, test_null;
    "root", `Quick, test_root;
    "set_bounds narrows", `Quick, test_set_bounds_narrows;
    "set_bounds monotonic", `Quick, test_set_bounds_monotonic;
    "set_bounds untagged", `Quick, test_set_bounds_untagged;
    "and_perms monotonic", `Quick, test_and_perms_monotonic;
    "address arithmetic and representability", `Quick, test_addr_arithmetic;
    "access checks", `Quick, test_access_checks;
    "seal/unseal", `Quick, test_seal_unseal;
    "from_ptr with NULL DDC", `Quick, test_from_ptr_null_ddc;
    "from_ptr with tagged DDC", `Quick, test_from_ptr_tagged_ddc;
    "crrl small", `Quick, test_crrl_small;
    "crrl large", `Quick, test_crrl_large_rounds_up;
    "exactness", `Quick, test_exactness;
    "set_bounds exact traps", `Quick, test_set_bounds_exact_traps;
    "set_bounds pads", `Quick, test_set_bounds_pads;
    "pad fixpoint regression", `Quick, test_pad_fixpoint_regression;
    "compress matches the reference search", `Quick,
    test_compress_matches_reference;
    "compress out-of-range operands", `Quick, test_compress_out_of_range ]
  @ List.map QCheck_alcotest.to_alcotest (qcheck_tests @ regs_tests)
