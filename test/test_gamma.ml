(* Abstraction-soundness harness for the machine-level abstract
   interpreter (lib/analysis/absint.ml).

   The concretization γ of an abstract capability [acap] is the set of
   concrete [Cap.t] values consistent with every claim the fields make
   (tag/seal tri-state, must/may permission envelope, bounds windows,
   exact base/top offsets, concrete pin). The tests below generate
   thousands of random concrete capabilities, abstract them (exactly via
   [of_cap], or blurred through [join_acap] with an unrelated value, or
   to [top_acap]), and drive every register-to-register transfer arm of
   [Absint.step_st] against the concrete [Cap] operation the instruction
   performs, asserting:

   - γ-soundness of the post-state: when the concrete instruction
     retires, every concrete result register is in γ of its abstract
     counterpart;
   - must-trap soundness: when the verdict claims the instruction
     provably traps, the concrete execution raises;
   - [judge_cap] soundness: a discharged (elidable) check never elides a
     concrete trap, and a must-trap judgement never marks a passing
     check;
   - [Bbcache.cap_ok] (the chain engine's branch-only fast check) is
     exactly equivalent to the ordered [Cap.check_access_at] sequence —
     it never accepts what the exact check rejects, and it accepts every
     tagged unsealed in-bounds access (precision).

   All randomness is drawn from a fixed-seed [Random.State], so failures
   reproduce deterministically. *)

module Cap = Cheri_cap.Cap
module Perms = Cheri_cap.Perms
module Insn = Cheri_isa.Insn
module Bbcache = Cheri_isa.Bbcache
module Absint = Cheri_analysis.Absint

let rounds = 3000

(* --- Generators ----------------------------------------------------------- *)

let sealer =
  Cap.set_addr (Cap.make_root ~base:0x1000 ~top:0x2000 ()) 0x1234

let gen_gpr rng =
  match Random.State.int rng 10 with
  | 0 -> 0
  | 1 -> 1
  | 2 -> -1
  | 3 -> min_int
  | 4 -> max_int
  | 5 -> 16 * Random.State.int rng 256
  | 6 -> Random.State.int rng 64 - 32
  | _ -> Random.State.int rng 0x10000 - 0x8000

let gen_cap rng =
  match Random.State.int rng 16 with
  | 0 -> Cap.null
  | 1 -> Cap.untagged ~addr:(Random.State.int rng 0x100000)
  | _ ->
    let base = Random.State.int rng 0x10000 in
    let len =
      match Random.State.int rng 4 with
      | 0 -> Random.State.int rng 64
      | 1 -> Random.State.int rng 4096
      | 2 -> 1 lsl (12 + Random.State.int rng 20)
      | _ -> 0
    in
    let c = Cap.make_root ~base ~top:(base + len) () in
    let c =
      if Random.State.bool rng then
        Cap.and_perms c (Random.State.int rng (Perms.all + 1))
      else c
    in
    let c =
      (* Move the cursor around (possibly out of bounds; set_addr clears
         the tag when the address leaves the representable window). *)
      if Random.State.bool rng then
        Cap.set_addr c (base + Random.State.int rng (min len 8192 + 128) - 64)
      else c
    in
    let c =
      if Random.State.int rng 8 = 0 && Cap.is_tagged c then
        try Cap.seal c ~with_:sealer with Cap.Cap_error _ -> c
      else c
    in
    if Random.State.int rng 8 = 0 then Cap.clear_tag c else c

(* A sound abstraction of [c]: exact, blurred by a join (join is an upper
   bound, so γ still contains [c]), or fully unknown. *)
let gen_acap rng c =
  match Random.State.int rng 5 with
  | 0 -> Absint.top_acap
  | 1 | 2 -> Absint.of_cap c
  | 3 ->
    Absint.join_acap ~widen:false (Absint.of_cap c) (Absint.of_cap (gen_cap rng))
  | _ ->
    Absint.join_acap ~widen:true (Absint.of_cap c) (Absint.of_cap (gen_cap rng))

let gen_aint rng v = if Random.State.bool rng then Absint.Cst v else Absint.Any

(* --- γ membership ---------------------------------------------------------- *)

let tri_ok t b =
  match t with Absint.Yes -> b | Absint.No -> not b | Absint.Maybe -> true

let gamma_cap (a : Absint.acap) (c : Cap.t) =
  tri_ok a.Absint.a_tag (Cap.is_tagged c)
  && tri_ok a.Absint.a_seal (Cap.is_sealed c)
  && Perms.subset a.Absint.a_must (Cap.perms c)
  && Perms.subset (Cap.perms c) a.Absint.a_may
  && (match a.Absint.a_win with
      | Some (l, h) ->
        Cap.base c <= Cap.addr c + l && Cap.addr c + h <= Cap.top c
      | None -> true)
  && (match a.Absint.a_eb with
      | Some (lo, hi) ->
        Cap.addr c - Cap.base c = lo && Cap.top c - Cap.addr c = hi
      | None -> true)
  && (match a.Absint.a_boff with
      | Some bo -> Cap.addr c - Cap.base c = bo
      | None -> true)
  && (match a.Absint.a_topoff with
      | Some h -> Cap.top c - Cap.addr c <= h
      | None -> true)
  && (match a.Absint.a_conc with Some k -> Cap.equal k c | None -> true)

let gamma_int (a : Absint.aint) v =
  match a with Absint.Cst x -> x = v | Absint.Any -> true

(* --- Concrete mini-machine -------------------------------------------------

   Register file only: the harness drives the register-to-register arms,
   whose concrete semantics are exactly the [Cap]/[Compress] operations
   [Cpu.exec_straight] calls (memory and control arms are covered by the
   engine-equivalence and elision-oracle tests). *)

type cstate = {
  gpr : int array;
  creg : Cap.t array;
  mutable cddc : Cap.t;
}

let rd_gpr s r = if r = 0 then 0 else s.gpr.(r)
let wr_gpr s r v = if r <> 0 then s.gpr.(r) <- v
let rd_creg s r = if r = 0 then Cap.null else s.creg.(r)
let wr_creg s r v = if r <> 0 then s.creg.(r) <- v

exception Div_trap

let exec_concrete s (insn : Insn.t) =
  match insn with
  | Insn.Li (rd, v) -> wr_gpr s rd v
  | Move (rd, rs) -> wr_gpr s rd (rd_gpr s rs)
  | Addu (rd, rs, rt) -> wr_gpr s rd (rd_gpr s rs + rd_gpr s rt)
  | Addiu (rd, rs, i) -> wr_gpr s rd (rd_gpr s rs + i)
  | Subu (rd, rs, rt) -> wr_gpr s rd (rd_gpr s rs - rd_gpr s rt)
  | Mul (rd, rs, rt) -> wr_gpr s rd (rd_gpr s rs * rd_gpr s rt)
  | Div (rd, rs, rt) ->
    let a = rd_gpr s rs and b = rd_gpr s rt in
    if b = 0 || (a = min_int && b = -1) then raise Div_trap;
    wr_gpr s rd (a / b)
  | Rem (rd, rs, rt) ->
    let a = rd_gpr s rs and b = rd_gpr s rt in
    if b = 0 || (a = min_int && b = -1) then raise Div_trap;
    wr_gpr s rd (a mod b)
  | And_ (rd, rs, rt) -> wr_gpr s rd (rd_gpr s rs land rd_gpr s rt)
  | Andi (rd, rs, i) -> wr_gpr s rd (rd_gpr s rs land i)
  | Or_ (rd, rs, rt) -> wr_gpr s rd (rd_gpr s rs lor rd_gpr s rt)
  | Ori (rd, rs, i) -> wr_gpr s rd (rd_gpr s rs lor i)
  | Xor_ (rd, rs, rt) -> wr_gpr s rd (rd_gpr s rs lxor rd_gpr s rt)
  | Xori (rd, rs, i) -> wr_gpr s rd (rd_gpr s rs lxor i)
  | Nor_ (rd, rs, rt) -> wr_gpr s rd (lnot (rd_gpr s rs lor rd_gpr s rt))
  | Sll (rd, rs, sh) -> wr_gpr s rd (rd_gpr s rs lsl sh)
  | Srl (rd, rs, sh) -> wr_gpr s rd (rd_gpr s rs lsr sh)
  | Sra (rd, rs, sh) -> wr_gpr s rd (rd_gpr s rs asr sh)
  | Sllv (rd, rs, rt) -> wr_gpr s rd (rd_gpr s rs lsl (rd_gpr s rt land 63))
  | Srlv (rd, rs, rt) -> wr_gpr s rd (rd_gpr s rs lsr (rd_gpr s rt land 63))
  | Srav (rd, rs, rt) -> wr_gpr s rd (rd_gpr s rs asr (rd_gpr s rt land 63))
  | Slt (rd, rs, rt) ->
    wr_gpr s rd (if rd_gpr s rs < rd_gpr s rt then 1 else 0)
  | Sltu (rd, rs, rt) ->
    let ua = rd_gpr s rs lxor min_int and ub = rd_gpr s rt lxor min_int in
    wr_gpr s rd (if ua < ub then 1 else 0)
  | Slti (rd, rs, i) -> wr_gpr s rd (if rd_gpr s rs < i then 1 else 0)
  | Sltiu (rd, rs, i) ->
    let ua = rd_gpr s rs lxor min_int and ub = i lxor min_int in
    wr_gpr s rd (if ua < ub then 1 else 0)
  | CMove (cd, cb) -> wr_creg s cd (rd_creg s cb)
  | CGetBase (rd, cb) -> wr_gpr s rd (Cap.base (rd_creg s cb))
  | CGetLen (rd, cb) -> wr_gpr s rd (Cap.length (rd_creg s cb))
  | CGetAddr (rd, cb) -> wr_gpr s rd (Cap.addr (rd_creg s cb))
  | CGetOffset (rd, cb) -> wr_gpr s rd (Cap.offset (rd_creg s cb))
  | CGetPerm (rd, cb) -> wr_gpr s rd (Cap.perms (rd_creg s cb))
  | CGetTag (rd, cb) ->
    wr_gpr s rd (if Cap.is_tagged (rd_creg s cb) then 1 else 0)
  | CGetType (rd, cb) -> wr_gpr s rd (Cap.otype (rd_creg s cb))
  | CSetBounds (cd, cb, rt) ->
    wr_creg s cd (Cap.set_bounds (rd_creg s cb) ~len:(rd_gpr s rt))
  | CSetBoundsImm (cd, cb, len) -> wr_creg s cd (Cap.set_bounds (rd_creg s cb) ~len)
  | CSetBoundsExact (cd, cb, rt) ->
    wr_creg s cd (Cap.set_bounds ~exact:true (rd_creg s cb) ~len:(rd_gpr s rt))
  | CAndPerm (cd, cb, rt) ->
    wr_creg s cd (Cap.and_perms (rd_creg s cb) (rd_gpr s rt))
  | CAndPermImm (cd, cb, mask) -> wr_creg s cd (Cap.and_perms (rd_creg s cb) mask)
  | CIncOffset (cd, cb, rt) ->
    wr_creg s cd (Cap.inc_addr (rd_creg s cb) (rd_gpr s rt))
  | CIncOffsetImm (cd, cb, i) -> wr_creg s cd (Cap.inc_addr (rd_creg s cb) i)
  | CSetAddr (cd, cb, rt) -> wr_creg s cd (Cap.set_addr (rd_creg s cb) (rd_gpr s rt))
  | CClearTag (cd, cb) -> wr_creg s cd (Cap.clear_tag (rd_creg s cb))
  | CFromPtr (cd, cb, rt) ->
    let src = if cb = 0 then s.cddc else rd_creg s cb in
    wr_creg s cd (Cap.from_ptr src (rd_gpr s rt))
  | CSeal (cd, cb, ct) ->
    wr_creg s cd (Cap.seal (rd_creg s cb) ~with_:(rd_creg s ct))
  | CUnseal (cd, cb, ct) ->
    wr_creg s cd (Cap.unseal (rd_creg s cb) ~with_:(rd_creg s ct))
  | CRRL (rd, rs) -> wr_gpr s rd (Cheri_cap.Compress.crrl (rd_gpr s rs))
  | CRAM (rd, rs) -> wr_gpr s rd (Cheri_cap.Compress.cram (rd_gpr s rs))
  | CReadDDC cd -> wr_creg s cd s.cddc
  | CWriteDDC cb -> s.cddc <- rd_creg s cb
  | Nop -> ()
  | _ -> ()

(* Random register-to-register instruction over registers 0..6. *)
let gen_insn rng =
  let r () = Random.State.int rng 7 in
  let i () = gen_gpr rng in
  let sh () = Random.State.int rng 48 in
  match Random.State.int rng 43 with
  | 0 -> Insn.Li (r (), i ())
  | 1 -> Insn.Move (r (), r ())
  | 2 -> Insn.Addu (r (), r (), r ())
  | 3 -> Insn.Addiu (r (), r (), i ())
  | 4 -> Insn.Subu (r (), r (), r ())
  | 5 -> Insn.Mul (r (), r (), r ())
  | 6 -> Insn.Div (r (), r (), r ())
  | 7 -> Insn.Rem (r (), r (), r ())
  | 8 -> Insn.And_ (r (), r (), r ())
  | 9 -> Insn.Andi (r (), r (), i ())
  | 10 -> Insn.Or_ (r (), r (), r ())
  | 11 -> Insn.Ori (r (), r (), i ())
  | 12 -> Insn.Xor_ (r (), r (), r ())
  | 13 -> Insn.Xori (r (), r (), i ())
  | 14 -> Insn.Nor_ (r (), r (), r ())
  | 15 -> Insn.Sll (r (), r (), sh ())
  | 16 -> Insn.Srl (r (), r (), sh ())
  | 17 -> Insn.Sra (r (), r (), sh ())
  | 18 -> Insn.Sllv (r (), r (), r ())
  | 19 -> Insn.Srlv (r (), r (), r ())
  | 20 -> Insn.Srav (r (), r (), r ())
  | 21 -> Insn.Slt (r (), r (), r ())
  | 22 -> Insn.Sltu (r (), r (), r ())
  | 23 -> Insn.Slti (r (), r (), i ())
  | 24 -> Insn.Sltiu (r (), r (), i ())
  | 25 -> Insn.CMove (r (), r ())
  | 26 -> Insn.CGetBase (r (), r ())
  | 27 -> Insn.CGetLen (r (), r ())
  | 28 -> Insn.CGetAddr (r (), r ())
  | 29 -> Insn.CGetOffset (r (), r ())
  | 30 -> Insn.CGetPerm (r (), r ())
  | 31 -> Insn.CGetTag (r (), r ())
  | 32 -> Insn.CGetType (r (), r ())
  | 33 -> Insn.CSetBounds (r (), r (), r ())
  | 34 -> Insn.CSetBoundsImm (r (), r (), abs (i ()) land 0xffff)
  | 35 -> Insn.CSetBoundsExact (r (), r (), r ())
  | 36 -> Insn.CAndPerm (r (), r (), r ())
  | 37 -> Insn.CAndPermImm (r (), r (), i () land Perms.all)
  | 38 -> Insn.CIncOffset (r (), r (), r ())
  | 39 -> Insn.CIncOffsetImm (r (), r (), i ())
  | 40 -> Insn.CSetAddr (r (), r (), r ())
  | 41 -> Insn.CClearTag (r (), r ())
  | _ ->
    (match Random.State.int rng 5 with
     | 0 -> Insn.CFromPtr (r (), r (), r ())
     | 1 -> Insn.CSeal (r (), r (), r ())
     | 2 -> Insn.CUnseal (r (), r (), r ())
     | 3 -> Insn.CRRL (r (), r ())
     | _ -> Insn.CRAM (r (), r ()))

(* --- Tests ----------------------------------------------------------------- *)

let fail_insn what insn =
  Alcotest.failf "%s on %s" what (Insn.to_string insn)

(* Every transfer arm vs the concrete operation: post-state γ-soundness
   and must-trap soundness over randomized states. *)
let test_step_soundness () =
  let rng = Random.State.make [| 41001 |] in
  let env = Absint.make_env () in
  for _ = 1 to rounds do
    (* Concrete state and a sound abstraction of it. *)
    let s =
      { gpr = Array.init 32 (fun _ -> gen_gpr rng);
        creg = Array.init 32 (fun _ -> gen_cap rng);
        cddc = gen_cap rng }
    in
    let st = Absint.fresh_st env in
    for r = 1 to 7 do
      st.Absint.g.(r) <- gen_aint rng s.gpr.(r);
      st.Absint.c.(r) <- gen_acap rng s.creg.(r)
    done;
    st.Absint.ddc <- gen_acap rng s.cddc;
    let insn = gen_insn rng in
    (* No address space is larger than 2^48, so CSetBounds lengths beyond
       it are excluded. CRRL/CRAM are total and take any operand. *)
    let huge v = v > 1 lsl 48 in
    let skip =
      match insn with
      | Insn.CSetBounds (_, _, rt) | Insn.CSetBoundsExact (_, _, rt) ->
        huge (rd_gpr s rt)
      | _ -> false
    in
    if not skip then begin
    let trapped =
      match exec_concrete s insn with
      | () -> false
      | exception (Cap.Cap_error _ | Div_trap) -> true
    in
    let v = Absint.step_st env st insn in
    if v.Absint.av_must <> None && not trapped then
      fail_insn "must-trap claim but concrete execution retired" insn;
    if not trapped then begin
      for r = 0 to 7 do
        if not (gamma_int (if r = 0 then Absint.Cst 0 else st.Absint.g.(r))
                  (rd_gpr s r))
        then fail_insn (Printf.sprintf "gpr %d left γ" r) insn;
        if not (gamma_cap (if r = 0 then Absint.null_acap else st.Absint.c.(r))
                  (rd_creg s r))
        then fail_insn (Printf.sprintf "creg %d left γ" r) insn
      done;
      if not (gamma_cap st.Absint.ddc s.cddc) then
        fail_insn "ddc left γ" insn
    end
    end
  done

(* of_cap is a γ-member and join_acap is an upper bound (both widen
   modes); inc_acap tracks Cap.inc_addr when it retires. *)
let test_abstraction_ops () =
  let rng = Random.State.make [| 41002 |] in
  for _ = 1 to rounds do
    let c = gen_cap rng in
    if not (gamma_cap (Absint.of_cap c) c) then
      Alcotest.failf "of_cap left γ for %s" (Cap.to_string c);
    let other = Absint.of_cap (gen_cap rng) in
    if not (gamma_cap (Absint.join_acap ~widen:false (Absint.of_cap c) other) c)
    then Alcotest.failf "join (narrow) left γ for %s" (Cap.to_string c);
    if not (gamma_cap (Absint.join_acap ~widen:true (Absint.of_cap c) other) c)
    then Alcotest.failf "join (widen) left γ for %s" (Cap.to_string c);
    let a = gen_acap rng c in
    let d = gen_gpr rng land 0xff in
    (match Cap.inc_addr c d with
     | c' ->
       if not (gamma_cap (Absint.inc_acap a d) c') then
         Alcotest.failf "inc_acap %d left γ for %s" d (Cap.to_string c)
     | exception Cap.Cap_error _ -> ())
  done

(* judge_cap: an elide verdict never discharges a failing concrete check;
   a must verdict never marks a passing access (modulo the elide+align
   case, where the check passes and the access traps on alignment). *)
let test_judge_cap () =
  let rng = Random.State.make [| 41003 |] in
  let perms = [| Perms.load; Perms.store; Perms.load_cap; Perms.execute |] in
  let lens = [| 1; 2; 4; 8; 16 |] in
  for _ = 1 to rounds do
    let c = gen_cap rng in
    let a = gen_acap rng c in
    let perm = perms.(Random.State.int rng (Array.length perms)) in
    let len = lens.(Random.State.int rng (Array.length lens)) in
    let off = Random.State.int rng 160 - 32 in
    let elide, must = Absint.judge_cap a ~perm ~off ~len in
    let addr = Cap.addr c + off in
    let passes =
      match Cap.check_access_at c ~perm ~addr ~len with
      | () -> true
      | exception Cap.Cap_error _ -> false
    in
    if elide && not passes then
      Alcotest.failf "judge_cap elided a failing check (%s off=%d len=%d)"
        (Cap.to_string c) off len;
    (match must with
     | Some (Absint.K_cap Cap.Alignment_violation) when elide ->
       if not (passes && addr land (len - 1) <> 0) then
         Alcotest.failf "judge_cap align-must wrong (%s off=%d len=%d)"
           (Cap.to_string c) off len
     | Some _ ->
       if passes then
         Alcotest.failf "judge_cap must-trap on a passing check (%s off=%d \
                         len=%d)"
           (Cap.to_string c) off len
     | None -> ());
    (* A retired access refines soundly. *)
    if passes && not (gamma_cap (Absint.refine_access a ~perm ~off ~len) c)
    then
      Alcotest.failf "refine_access left γ (%s off=%d len=%d)" (Cap.to_string c)
        off len
  done

(* Bbcache.cap_ok, the chain engine's branch-only fast-path check, is
   exactly the ordered check_cap sequence: never accepts a rejected
   access (soundness) and accepts every tagged unsealed in-bounds one
   with the permission present (precision). *)
let test_cap_ok () =
  let rng = Random.State.make [| 41004 |] in
  let lens = [| 1; 2; 4; 8; 16 |] in
  let accepted = ref 0 and inbounds = ref 0 in
  for _ = 1 to rounds * 2 do
    let c = gen_cap rng in
    let perm = if Random.State.bool rng then Perms.load else Perms.store in
    let len = lens.(Random.State.int rng (Array.length lens)) in
    let vaddr = Cap.addr c + Random.State.int rng 160 - 32 in
    let ok = Bbcache.cap_ok c perm vaddr len in
    let passes =
      match Cap.check_access_at c ~perm ~addr:vaddr ~len with
      | () -> true
      | exception Cap.Cap_error _ -> false
    in
    if ok <> passes then
      Alcotest.failf "cap_ok %b but exact check %b (%s vaddr=%d len=%d)" ok
        passes (Cap.to_string c) vaddr len;
    (* Precision accounting over the tagged unsealed in-bounds population. *)
    if Cap.is_tagged c && not (Cap.is_sealed c)
       && Perms.has (Cap.perms c) perm
       && vaddr >= Cap.base c
       && vaddr + len <= Cap.top c
    then begin
      incr inbounds;
      if ok then incr accepted
    end
  done;
  Alcotest.(check bool) "in-bounds population sampled" true (!inbounds > 100);
  Alcotest.(check int) "cap_ok precise on tagged in-bounds caps" !inbounds
    !accepted

let suite =
  [ Alcotest.test_case "step_st transfer functions are γ-sound" `Quick
      test_step_soundness;
    Alcotest.test_case "of_cap/join/inc_acap are γ-sound" `Quick
      test_abstraction_ops;
    Alcotest.test_case "judge_cap elision and must-trap are sound" `Quick
      test_judge_cap;
    Alcotest.test_case "cap_ok equals the exact ordered check" `Quick
      test_cap_ok ]
