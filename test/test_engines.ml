(* Engine equivalence: the chaining block engine (Bbcache) must be
   observationally identical to the reference step interpreter (Cpu.step).

   Two layers of evidence:

   1. A differential fuzzer over seeded random programs — arithmetic,
      branches, capability derivation, loads/stores of data and
      capabilities, sealing, traps, syscalls — executed six ways (step;
      chain in one run; chain with the abstract interpreter's proved-safe
      capability checks elided, with the fact table computed both eagerly
      and lazily per superblock; chain in small fuel chunks, which forces
      mid-block and mid-chain preemption and resume; and chunked chain
      with lazy facts, where quanta also expire around guarded and fused
      blocks) on identical fresh machines. The full observable state is
      compared: every GPR and capability register, PCC, DDC, instret,
      cycles, the stop reason, per-level cache hit/miss counters, memory
      bytes and tag placement.

   2. Kernel-level parity: a compiled program run end-to-end through the
      scheduler under every engine (including with a tiny prime quantum so
      quantum expiry constantly splits blocks and chains) must produce
      identical output, instruction, cycle and L2-miss counts.

   Plus directed chain units: hot self-loops, ping-pong chains, inline
   cache monomorphic/megamorphic behavior on both integer-indirect and
   capability-indirect jumps, fuel expiry at chain-internal block
   boundaries, chains crossing facts-elided entries, mid-chain trap
   attribution, and mprotect-driven chain severing through the kernel;
   and the per-process block tables: no re-decode across fork ping-pong
   context switches, exec into an image at reused addresses, and a
   munmap that flushes only its own process's table. *)

module Cap = Cheri_cap.Cap
module Perms = Cheri_cap.Perms
module Tagmem = Cheri_tagmem.Tagmem
module Cache = Cheri_tagmem.Cache
module Insn = Cheri_isa.Insn
module Cpu = Cheri_isa.Cpu
module Bbcache = Cheri_isa.Bbcache
module Trap = Cheri_isa.Trap
module Abi = Cheri_core.Abi
module Harness = Cheri_workloads.Harness

(* --- Deterministic program generator ------------------------------------------ *)

(* Same LCG family as bench/micro.ml: reproducible across runs and hosts. *)
let lcg state =
  state := (!state * 25214903917 + 11) land max_int;
  !state

let code_base = 0x1000
let data_base = 0x4000
let data_len = 0x4000
let mem_size = 1 lsl 16

(* Values likely to make something interesting happen: data addresses
   (aligned and not), code addresses (for Jr), boundary integers. *)
let value_pool len =
  [| 0; 1; -1; 7; 64; min_int; max_int;
     data_base; data_base + 8; data_base + 0x1000; data_base + 0x3ff8;
     data_base - 8;                      (* just below the data caps *)
     data_base + 1;                      (* unaligned *)
     code_base; code_base + 8; code_base + (4 * (len / 2));
     code_base + 2;                      (* misaligned jump target *)
     mem_size; 16; 4096 |]

let gen_insn rnd ~len =
  let g () = rnd 16 in                  (* gpr operand, 0..15 *)
  let c () = rnd 8 in                   (* creg operand, 0..7 *)
  let target () =
    (* Mostly valid code addresses, occasionally past the end (fetch
       fault) or misaligned (alignment trap). *)
    match rnd 10 with
    | 0 -> code_base + (4 * len) + (4 * rnd 4)
    | 1 -> code_base + (4 * rnd len) + 2
    | _ -> code_base + (4 * rnd len)
  in
  let off () = 8 * (rnd 16 - 4) in
  let w () = [| 1; 2; 4; 8 |].(rnd 4) in
  match rnd 26 with
  | 0 -> Insn.Li (g (), (match rnd 4 with
      | 0 -> min_int
      | 1 -> rnd 100 - 50
      | _ -> data_base + (8 * rnd 64)))
  | 1 -> (match rnd 5 with
      | 0 -> Insn.Addu (g (), g (), g ())
      | 1 -> Insn.Subu (g (), g (), g ())
      | 2 -> Insn.Addiu (g (), g (), rnd 64 - 32)
      | 3 -> Insn.Mul (g (), g (), g ())
      | _ -> Insn.Move (g (), g ()))
  | 2 -> if rnd 2 = 0 then Insn.Div (g (), g (), g ())
    else Insn.Rem (g (), g (), g ())
  | 3 -> (match rnd 5 with
      | 0 -> Insn.And_ (g (), g (), g ())
      | 1 -> Insn.Or_ (g (), g (), g ())
      | 2 -> Insn.Xor_ (g (), g (), g ())
      | 3 -> Insn.Nor_ (g (), g (), g ())
      | _ -> Insn.Andi (g (), g (), rnd 256))
  | 4 -> (match rnd 4 with
      | 0 -> Insn.Sll (g (), g (), rnd 32)
      | 1 -> Insn.Srl (g (), g (), rnd 32)
      | 2 -> Insn.Sra (g (), g (), rnd 32)
      | _ -> Insn.Srlv (g (), g (), g ()))
  | 5 -> (match rnd 4 with
      | 0 -> Insn.Slt (g (), g (), g ())
      | 1 -> Insn.Sltu (g (), g (), g ())
      | 2 -> Insn.Slti (g (), g (), rnd 64 - 32)
      | _ -> Insn.Sltiu (g (), g (), rnd 64))
  | 6 | 7 -> (match rnd 3 with
      | 0 -> Insn.Beq (g (), g (), target ())
      | 1 -> Insn.Bne (g (), g (), target ())
      | _ ->
        let f = [| (fun r t -> Insn.Blez (r, t));
                   (fun r t -> Insn.Bgtz (r, t));
                   (fun r t -> Insn.Bltz (r, t));
                   (fun r t -> Insn.Bgez (r, t)) |].(rnd 4) in
        f (g ()) (target ()))
  | 8 -> (match rnd 4 with
      | 0 -> Insn.J (target ())
      | 1 -> Insn.Jal (target ())
      | 2 -> Insn.Jr (g ())
      | _ -> Insn.Jalr (g (), g ()))
  | 9 | 10 -> Insn.Load { w = w (); signed = rnd 2 = 0; rd = g ();
                          base = g (); off = off () }
  | 11 | 12 -> Insn.Store { w = w (); rs = g (); base = g (); off = off () }
  | 13 -> Insn.CLoad { w = w (); signed = rnd 2 = 0; rd = g ();
                       cb = c (); off = off () }
  | 14 -> Insn.CStore { w = w (); rs = g (); cb = c (); off = off () }
  | 15 -> if rnd 2 = 0 then Insn.CLC { cd = c (); cb = c (); off = off () }
    else Insn.CSC { cs = c (); cb = c (); off = off () }
  | 16 -> (match rnd 4 with
      | 0 -> Insn.CMove (c (), c ())
      | 1 -> Insn.CGetBase (g (), c ())
      | 2 -> Insn.CGetAddr (g (), c ())
      | _ -> Insn.CGetTag (g (), c ()))
  | 17 -> (match rnd 3 with
      | 0 -> Insn.CSetBounds (c (), c (), g ())
      | 1 -> Insn.CSetBoundsImm (c (), c (), 8 * rnd 32)
      | _ -> Insn.CSetBoundsExact (c (), c (), g ()))
  | 18 -> (match rnd 3 with
      | 0 -> Insn.CIncOffset (c (), c (), g ())
      | 1 -> Insn.CIncOffsetImm (c (), c (), 8 * (rnd 16 - 8))
      | _ -> Insn.CSetAddr (c (), c (), g ()))
  | 19 -> (match rnd 3 with
      | 0 -> Insn.CAndPerm (c (), c (), g ())
      | 1 -> Insn.CAndPermImm (c (), c (), rnd Perms.all)
      | _ -> Insn.CClearTag (c (), c ()))
  | 20 -> Insn.CFromPtr (c (), (if rnd 2 = 0 then 0 else c ()), g ())
  | 21 -> if rnd 2 = 0 then Insn.CSeal (c (), c (), c ())
    else Insn.CUnseal (c (), c (), c ())
  | 22 -> (match rnd 4 with
      | 0 -> Insn.CJR (c ())
      | 1 -> Insn.CJAL (c (), target ())
      | 2 -> Insn.CJALR (c (), c ())
      | _ -> Insn.CGetLen (g (), c ()))
  | 23 -> (match rnd 4 with
      | 0 -> Insn.Syscall
      | 1 -> Insn.Rt (rnd 8)
      | 2 -> Insn.Break (1 + rnd 7)
      | _ -> Insn.CGetPerm (g (), c ()))
  (* CRRL/CRAM are covered by the directed ISA tests; with fully random
     operands they hit Compress's Invalid_argument (a pre-existing
     property of both engines, not an engine difference). *)
  | 24 -> (match rnd 2 with
      | 0 -> Insn.CGetOffset (g (), c ())
      | _ -> Insn.CGetType (g (), c ()))
  | _ -> if rnd 4 = 0 then Insn.Annot "fuzz" else Insn.Nop

let gen_program seed =
  let st = ref seed in
  let rnd n = lcg st mod n in
  let len = 24 + rnd 48 in
  let insns = Array.init len (fun _ -> gen_insn rnd ~len) in
  (* A clean terminator so straight-through runs stop deterministically
     inside the code array. *)
  let insns = Array.append insns [| Insn.Break 0 |] in
  (insns, rnd)

(* --- Machine setup -------------------------------------------------------------- *)

(* Fresh machine + context; identical for every engine given the same
   seed-derived register/memory contents. *)
let setup insns seed =
  let st = ref (seed lxor 0x5eed) in
  let rnd n = lcg st mod n in
  let mem = Tagmem.create ~size:mem_size in
  let hier = Cache.create_hierarchy () in
  let m = Cpu.create_machine ~mem ~hier in
  m.Cpu.fetch <-
    (fun v ->
      let idx = (v - code_base) / 4 in
      if v < code_base || v land 3 <> 0 || idx >= Array.length insns then
        Trap.raise_trap (Trap.Fetch_fault { vaddr = v })
      else insns.(idx));
  let ctx = Cpu.create_ctx () in
  let root = Cap.make_root ~base:0 ~top:mem_size () in
  ctx.Cpu.pcc <- Cap.set_addr root code_base;
  ctx.Cpu.ddc <- root;
  let data = Cap.set_bounds (Cap.set_addr root data_base) ~len:data_len in
  ctx.Cpu.creg.(1) <- data;
  ctx.Cpu.creg.(2) <-
    Cap.set_bounds (Cap.set_addr root (data_base + 0x1000)) ~len:0x40;
  (* No LOAD_CAP/STORE_CAP: CLC strips tags, CSC of tagged values faults. *)
  ctx.Cpu.creg.(3) <-
    Cap.and_perms data Perms.(union load (union store global));
  (* Local (non-GLOBAL) capability: exercises the store-local rule. *)
  ctx.Cpu.creg.(4) <- Cap.and_perms data (Perms.diff Perms.all Perms.global);
  (* Sealing capability: its address is the otype. *)
  ctx.Cpu.creg.(5) <- Cap.set_addr root (5 + rnd 3);
  ctx.Cpu.creg.(6) <- Cap.clear_tag (Cap.inc_addr data (8 * rnd 16));
  ctx.Cpu.creg.(7) <- Cap.set_bounds (Cap.set_addr root data_base) ~len:16;
  let pool = value_pool (Array.length insns) in
  for r = 1 to 15 do
    ctx.Cpu.gpr.(r) <- pool.(rnd (Array.length pool))
  done;
  (* Deterministic initial data-region contents, some of it capabilities
     so capability loads find real tags to propagate or strip. *)
  for i = 0 to 63 do
    Tagmem.write_int mem (data_base + (8 * i)) ~len:8 (lcg st)
  done;
  Tagmem.write_cap mem (data_base + 0x1000) data;
  Tagmem.write_cap mem (data_base + 0x1010) ctx.Cpu.creg.(4);
  (m, ctx, mem)

(* --- Observable-state snapshot --------------------------------------------------- *)

let cap_str c =
  Printf.sprintf "%c p%x [%x,%x) @%x o%d"
    (if Cap.is_tagged c then 'T' else '-')
    (Cap.perms c) (Cap.base c) (Cap.top c) (Cap.addr c) (Cap.otype c)

let stop_str = function
  | None -> "fuel-exhausted"
  | Some Cpu.Stop_syscall -> "syscall"
  | Some (Cpu.Stop_rt n) -> Printf.sprintf "rt %d" n
  | Some (Cpu.Stop_trap c) -> "trap: " ^ Trap.to_string c

(* Everything the two engines must agree on, rendered printable so a
   mismatch shows up as a readable diff. *)
let snapshot stop (m : Cpu.machine) (ctx : Cpu.ctx) mem =
  let b = Buffer.create 4096 in
  Buffer.add_string b (stop_str stop);
  Buffer.add_char b '\n';
  Printf.bprintf b "instret=%d cycles=%d\n" ctx.Cpu.instret ctx.Cpu.cycles;
  Printf.bprintf b "pcc=%s\nddc=%s\n" (cap_str ctx.Cpu.pcc)
    (cap_str ctx.Cpu.ddc);
  for r = 1 to 31 do
    if ctx.Cpu.gpr.(r) <> 0 then
      Printf.bprintf b "r%d=%x " r ctx.Cpu.gpr.(r)
  done;
  Buffer.add_char b '\n';
  for r = 1 to 31 do
    if not (Cap.equal ctx.Cpu.creg.(r) Cap.null) then
      Printf.bprintf b "c%d=%s\n" r (cap_str ctx.Cpu.creg.(r))
  done;
  let h = m.Cpu.hier in
  Printf.bprintf b "il1=%d/%d dl1=%d/%d l2=%d/%d\n"
    (Cache.hits h.Cache.il1) (Cache.misses h.Cache.il1)
    (Cache.hits h.Cache.dl1) (Cache.misses h.Cache.dl1)
    (Cache.hits h.Cache.l2) (Cache.misses h.Cache.l2);
  Printf.bprintf b "data=%s\n"
    (Digest.to_hex (Digest.bytes (Tagmem.read_bytes mem data_base data_len)));
  Printf.bprintf b "tags=%s\n"
    (String.concat ","
       (List.map string_of_int (Tagmem.scan_tags mem 0 mem_size)));
  Buffer.contents b

let fuel = 2_500

let run_step insns seed =
  let m, ctx, mem = setup insns seed in
  let stop = Cpu.run m ctx ~fuel in
  snapshot stop m ctx mem

(* Elision facts for the fuzzed program, computed against the machine's
   initial DDC. [eager_facts] runs the abstract interpreter's whole-image
   scan, proving capability checks safe up front. [lazy_facts] has the
   same contract, but the table is a pull-through — each superblock's
   fixpoint runs the first time the engine decodes that entry pc — and the
   resolved masks must be identical to the eager scan's. Eliding a check is a pure no-op when the proof is
   right, so either way the full snapshot — down to cycle and cache
   counters — must still match the step engine exactly. *)
let eager_facts ddc insns =
  Cheri_analysis.Absint.facts_of_code ~ddc [ (code_base, insns) ]

let lazy_facts ddc insns =
  Cheri_analysis.Absint.lazy_facts_of_code ~ddc [ (code_base, insns) ]

(* The chain engine: superblock chaining and inline caches — block exits
   resolve their successor through patched links and enter it directly,
   deferring the PCC commit until the chain breaks. [facts] installs an
   elision table (chained entries must consult it exactly as
   dispatch-loop entries do: facts are keyed by superblock entry pc and
   conditional only on the straight-line prefix, so they hold however
   control arrives). [chunk] splits the same total fuel into quanta, so
   expiry lands mid-block, mid-chain and inside guarded or fused blocks,
   and the engine must fall back to exact single-stepping. Returns the
   snapshot and the cache, for coverage counters. *)
let run_chain ?facts ?(chunk = fuel) insns seed =
  let m, ctx, mem = setup insns seed in
  let bb = Bbcache.create () in
  Option.iter (fun f -> Bbcache.set_facts bb (Some (f ctx.Cpu.ddc insns))) facts;
  let remaining = ref fuel in
  let stop = ref None in
  while !stop = None && !remaining > 0 do
    let f = min chunk !remaining in
    let before = ctx.Cpu.instret in
    stop := Bbcache.run bb m ctx ~fuel:f;
    (* Same fuel contract as [Cpu.run]: a quantum retires exactly [f]
       instructions unless the run stops early. *)
    let used = ctx.Cpu.instret - before in
    if used > f || (!stop = None && used <> f) then
      Alcotest.failf "seed %d: quantum of %d retired %d" seed f used;
    remaining := !remaining - f
  done;
  (snapshot !stop m ctx mem, bb)

let test_fuzz_engines () =
  let programs = 120 in
  let mismatches = ref 0 in
  (* Coverage of the chunked + lazy-facts configuration: quanta that
     expire around guarded and fused blocks. *)
  let chunk_fused = ref 0 and chunk_elided = ref 0 and chunk_falls = ref 0 in
  for seed = 1 to programs do
    let insns, rnd = gen_program (seed * 7919) in
    let chunk = 3 + rnd 7 in
    let s_step = run_step insns seed in
    let s_chunk_lazy, bb = run_chain ~facts:lazy_facts ~chunk insns seed in
    chunk_fused := !chunk_fused + bb.Bbcache.fused_groups;
    chunk_elided := !chunk_elided + bb.Bbcache.elided_probes;
    chunk_falls := !chunk_falls + bb.Bbcache.step_falls;
    let runs =
      [ "chain", fst (run_chain insns seed);
        "chain+elide", fst (run_chain ~facts:eager_facts insns seed);
        "chain+lazy", fst (run_chain ~facts:lazy_facts insns seed);
        "chunked", fst (run_chain ~chunk insns seed);
        "chunked+lazy", s_chunk_lazy ]
    in
    if List.exists (fun (_, s) -> s <> s_step) runs then begin
      incr mismatches;
      let dump =
        String.concat "\n"
          (Array.to_list (Array.mapi
             (fun i insn ->
               Printf.sprintf "%x: %s" (code_base + (4 * i))
                 (Insn.to_string insn))
             insns))
      in
      Printf.printf "seed %d diverged (chunk=%d)\n--- step ---\n%s\n" seed
        chunk s_step;
      List.iter (fun (l, s) -> Printf.printf "--- %s ---\n%s\n" l s) runs;
      Printf.printf "--- program ---\n%s\n" dump
    end
  done;
  Alcotest.(check int) "engines agree on all seeded programs" 0 !mismatches;
  Alcotest.(check bool) "chunked+lazy ran fused groups" true (!chunk_fused > 0);
  Alcotest.(check bool) "chunked+lazy elided probes" true (!chunk_elided > 0);
  Alcotest.(check bool) "chunked+lazy single-stepped quantum edges" true
    (!chunk_falls > 0);
  (* Unwritten frames all read from one shared zero frame; a store path
     that wrote it without first giving the frame its own buffer would
     show up in every fresh memory. *)
  let fresh = Tagmem.create ~size:4096 in
  Alcotest.(check bool) "shared zero frame still zero" true
    (Bytes.for_all (fun c -> c = '\000') (Tagmem.read_bytes fresh 0 4096))

(* A targeted case the fuzzer hits only occasionally: PCC bounds that end
   in the middle of a decoded block. The hoisted whole-block check must
   fall back, execute the legal prefix and trap exactly where step does. *)
let test_pcc_midblock_bounds () =
  let insns =
    Array.init 8 (fun i -> if i < 7 then Insn.Addiu (8, 8, i) else Insn.Nop)
  in
  let results =
    List.map
      (fun which ->
        let m, ctx, mem = setup insns 42 in
        (* Bounds cover only the first three instructions. *)
        let root = Cap.make_root ~base:0 ~top:mem_size () in
        ctx.Cpu.pcc <-
          Cap.set_addr
            (Cap.set_bounds (Cap.set_addr root code_base) ~len:12)
            code_base;
        let stop =
          if which = `Step then Cpu.run m ctx ~fuel
          else Bbcache.run (Bbcache.create ()) m ctx ~fuel
        in
        snapshot stop m ctx mem)
      [ `Step; `Chain ]
  in
  match results with
  | [ a; b ] -> Alcotest.(check string) "prefix executes, then faults" a b
  | _ -> assert false

(* --- Directed chain units --------------------------------------------------------- *)

module Facts = Cheri_isa.Facts
module Kernel = Cheri_kernel.Kernel
module Kstate = Cheri_kernel.Kstate
module Proc = Cheri_kernel.Proc
module Addr_space = Cheri_vm.Addr_space
module Prot = Cheri_vm.Prot
module Stdlib_src = Cheri_workloads.Stdlib_src

(* Run [insns] under step and under the chaining engine on identical fresh
   machines, assert full-snapshot equality, and hand back the chain run's
   cache, stats and final context for counter assertions. *)
let chain_vs_step ?(name = "chain matches step") ?(run_fuel = fuel)
    ?(seed = 3) ?facts_of insns =
  let m_s, ctx_s, mem_s = setup insns seed in
  let stop_s = Cpu.run m_s ctx_s ~fuel:run_fuel in
  let s_step = snapshot stop_s m_s ctx_s mem_s in
  let m, ctx, mem = setup insns seed in
  let bb = Bbcache.create () in
  let facts = Option.map (fun f -> f ctx) facts_of in
  (match facts with Some f -> Bbcache.set_facts bb (Some f) | None -> ());
  let stop = Bbcache.run bb m ctx ~fuel:run_fuel in
  let s_chain = snapshot stop m ctx mem in
  Alcotest.(check string) name s_step s_chain;
  (bb, Bbcache.chain_stats bb, ctx, facts, stop)

(* A hot self-loop: one two-instruction block branching back to itself.
   The whole 50-iteration loop must run as a single chain — one dispatch
   entry, the back edge resolved through the block's own inline cache. *)
let test_chain_self_loop () =
  let insns =
    [| Insn.Li (8, 0);
       Insn.Li (9, 50);
       (* loop head, 0x1008: *)
       Insn.Addiu (8, 8, 1);
       Insn.Bne (8, 9, code_base + 8);
       Insn.Break 0 |]
  in
  let bb, st, _, _, _ = chain_vs_step ~name:"self-loop" insns in
  Alcotest.(check int) "blocks built" 3 bb.Bbcache.built;
  Alcotest.(check int) "one dispatch entry" 1 st.Bbcache.ch_entries;
  (* A->loop, 48 loop->loop back edges, loop->break. *)
  Alcotest.(check int) "chained transitions" 50 st.Bbcache.ch_chained;
  Alcotest.(check bool) "back edge mostly IC hits" true
    (st.Bbcache.ch_ic_hits >= 40);
  Alcotest.(check int) "never megamorphic" 0 st.Bbcache.ch_ic_mega

(* Two-block ping-pong: body A falls through to body B, B jumps back to
   A's entry. Both the fall-through direct link and the jump inline cache
   carry the loop without returning to dispatch. *)
let test_chain_ping_pong () =
  let insns =
    [| Insn.Li (8, 0);
       Insn.Li (9, 30);
       Insn.Li (10, 0);
       (* loop head, 0x100c: *)
       Insn.Addiu (8, 8, 1);
       Insn.Beq (8, 9, code_base + 0x20);
       Insn.Addiu (10, 10, 2);
       Insn.J (code_base + 0xc);
       Insn.Nop;
       (* 0x1020: *)
       Insn.Break 0 |]
  in
  let bb, st, ctx, _, _ = chain_vs_step ~name:"ping-pong" insns in
  Alcotest.(check int) "blocks built" 4 bb.Bbcache.built;
  Alcotest.(check int) "one dispatch entry" 1 st.Bbcache.ch_entries;
  Alcotest.(check bool) "whole loop chained" true (st.Bbcache.ch_chained >= 55);
  Alcotest.(check bool) "back edge IC hits" true (st.Bbcache.ch_ic_hits >= 25);
  Alcotest.(check int) "side effects ran" 58 ctx.Cpu.gpr.(10)

(* A three-way Jr dispatcher: the jump target cycles through three stubs,
   so the exit's monomorphic inline cache keeps missing and must degrade
   to the megamorphic hashtable path — which still chains. *)
let test_chain_ic_megamorphic () =
  let t0 = code_base + 0x28 in
  let insns =
    [| Insn.Li (2, 0);
       Insn.Li (3, 3);
       Insn.Li (5, t0);
       Insn.Li (9, 60);
       (* loop head, 0x1010: *)
       Insn.Rem (4, 2, 3);
       Insn.Sll (4, 4, 4);
       Insn.Addu (4, 5, 4);
       Insn.Jr 4;
       Insn.Nop;
       Insn.Nop;
       (* stub 0, 0x1028: *)
       Insn.Addiu (6, 6, 1);
       Insn.Addiu (2, 2, 1);
       Insn.Bne (2, 9, code_base + 0x10);
       Insn.Break 0;
       (* stub 1, 0x1038: *)
       Insn.Addiu (6, 6, 3);
       Insn.Addiu (2, 2, 1);
       Insn.Bne (2, 9, code_base + 0x10);
       Insn.Break 0;
       (* stub 2, 0x1048: *)
       Insn.Addiu (6, 6, 5);
       Insn.Addiu (2, 2, 1);
       Insn.Bne (2, 9, code_base + 0x10);
       Insn.Break 0 |]
  in
  let _, st, _, _, _ = chain_vs_step ~name:"megamorphic Jr" insns in
  (* The frozen monomorphic key still hits one target in three; the other
     two thirds of the dispatcher's exits take the megamorphic path. *)
  Alcotest.(check bool) "dispatcher went megamorphic" true
    (st.Bbcache.ch_ic_mega >= 30);
  (* The stub back edges are monomorphic and still hit. *)
  Alcotest.(check bool) "stub back edges hit" true (st.Bbcache.ch_ic_hits >= 40);
  Alcotest.(check bool) "megamorphic exits still chain" true
    (st.Bbcache.ch_chained >= 100)

(* Capability-indirect jumps: CJAL materializes a return code capability,
   CJR jumps through it. A single call site keeps the callee's capability
   inline cache monomorphic. *)
let test_chain_cjr_monomorphic () =
  let f = code_base + 0x1c in
  let insns =
    [| Insn.Li (8, 0);
       Insn.Li (9, 40);
       Insn.Li (10, 0);
       (* loop head, 0x100c: *)
       Insn.CJAL (2, f);
       Insn.Addiu (8, 8, 1);
       Insn.Bne (8, 9, code_base + 0xc);
       Insn.Break 0;
       (* f, 0x101c: *)
       Insn.Addiu (10, 10, 7);
       Insn.CJR 2 |]
  in
  let bb, st, ctx, _, _ = chain_vs_step ~name:"monomorphic CJR" insns in
  Alcotest.(check int) "blocks built" 5 bb.Bbcache.built;
  Alcotest.(check bool) "call/return/back edges all IC hits" true
    (st.Bbcache.ch_ic_hits >= 100);
  Alcotest.(check int) "never megamorphic" 0 st.Bbcache.ch_ic_mega;
  Alcotest.(check int) "callee ran every iteration" 280 ctx.Cpu.gpr.(10)

(* Two alternating CJAL call sites: the callee's CJR return capability
   alternates between two link addresses, so the capability inline cache
   keeps missing and degrades to the megamorphic path. *)
let test_chain_cjr_megamorphic () =
  let f = code_base + 0x20 in
  let insns =
    [| Insn.Li (8, 0);
       Insn.Li (9, 40);
       Insn.Li (10, 0);
       (* loop head, 0x100c: *)
       Insn.CJAL (2, f);
       Insn.CJAL (2, f);
       Insn.Addiu (8, 8, 1);
       Insn.Bne (8, 9, code_base + 0xc);
       Insn.Break 0;
       (* f, 0x1020: *)
       Insn.Addiu (10, 10, 1);
       Insn.CJR 2 |]
  in
  let _, st, ctx, _, _ = chain_vs_step ~name:"megamorphic CJR" insns in
  (* The two return addresses alternate: the frozen key hits every other
     return, the rest go megamorphic. *)
  Alcotest.(check bool) "return site went megamorphic" true
    (st.Bbcache.ch_ic_mega >= 30);
  Alcotest.(check int) "both call sites ran" 80 ctx.Cpu.gpr.(10)

(* Fuel expiry inside and at the edges of a chain: for every fuel value up
   to a few times the loop length, the chain engine must stop on exactly
   the same instruction as step — including when the quantum expires
   precisely at a chain-internal block boundary (the per-block vs
   per-chain off-by-one this pins down) and mid-block (single-step
   replay). *)
let test_chain_fuel_boundaries () =
  let insns =
    [| Insn.Li (8, 0);
       Insn.Li (9, 1000);
       (* loop head, 0x1008: three-instruction body + branch *)
       Insn.Addiu (8, 8, 1);
       Insn.Addiu (10, 10, 3);
       Insn.Addiu (11, 11, 5);
       Insn.Bne (8, 9, code_base + 8);
       Insn.Break 0 |]
  in
  for f = 1 to 80 do
    let m_s, ctx_s, mem_s = setup insns 9 in
    let stop_s = Cpu.run m_s ctx_s ~fuel:f in
    let s_step = snapshot stop_s m_s ctx_s mem_s in
    let m, ctx, mem = setup insns 9 in
    let stop = Bbcache.run (Bbcache.create ()) m ctx ~fuel:f in
    let s_chain = snapshot stop m ctx mem in
    Alcotest.(check string) (Printf.sprintf "fuel=%d" f) s_step s_chain
  done;
  (* And resumability: the same total fuel split into prime-sized chunks
     (every resume re-enters mid-loop through the dispatch path) must land
     on the same final state as one chained run. *)
  let m, ctx, mem = setup insns 9 in
  let bb = Bbcache.create () in
  let stop = ref None in
  let remaining = ref 500 in
  while !stop = None && !remaining > 0 do
    let f = min 37 !remaining in
    stop := Bbcache.run bb m ctx ~fuel:f;
    remaining := !remaining - f
  done;
  let s_chunked = snapshot !stop m ctx mem in
  let m_s, ctx_s, mem_s = setup insns 9 in
  let stop_s = Cpu.run m_s ctx_s ~fuel:500 in
  Alcotest.(check string) "chunked chain resume"
    (snapshot stop_s m_s ctx_s mem_s) s_chunked

(* A chain crossing a facts-elided entry: the successor block is first
   reached as a *chained* target (never through the dispatch loop), and
   its decode must still consult the lazy fact table — resolving the
   entry's fixpoint and compiling the proved-safe check out. *)
let test_chain_crosses_elided_entry () =
  let insns =
    [| Insn.Addiu (8, 8, 0);
       Insn.J (code_base + 0xc);
       Insn.Nop;
       (* 0x100c: entry reached only by chaining *)
       Insn.CLoad { w = 8; signed = false; rd = 9; cb = 1; off = 0 };
       Insn.CLoad { w = 8; signed = false; rd = 10; cb = 1; off = 0 };
       Insn.Break 0 |]
  in
  let facts_of ctx =
    Cheri_analysis.Absint.lazy_facts_of_code ~ddc:ctx.Cpu.ddc
      [ (code_base, insns) ]
  in
  let bb, st, _, facts, _ =
    chain_vs_step ~name:"chain over elided entry" ~facts_of insns
  in
  let facts = Option.get facts in
  Alcotest.(check bool) "the cross-edge chained" true
    (st.Bbcache.ch_chained >= 1);
  (* Both superblock entries were decoded, and both consulted the table;
     the chained-into entry resolved its fixpoint lazily. *)
  Alcotest.(check bool) "facts consulted per decoded entry" true
    (Facts.lookups facts >= 2);
  Alcotest.(check bool) "lazy fixpoints ran" true
    (Facts.resolved_lazily facts >= 2);
  (* The second CLoad of the chained-into block is provably safe: its
     check was compiled out. *)
  Alcotest.(check bool) "a check was elided at the chained entry" true
    (bb.Bbcache.elided_sites >= 1)

(* A trap raised in the middle of a chain must be attributed to the block
   that faulted — PCC materialized at the faulting instruction — not to
   the chain head the dispatch loop last saw. (The kernel's fault log and
   Proc.describe_pc both key off this PCC.) *)
let test_chain_trap_attribution () =
  let insns =
    [| Insn.Addiu (8, 8, 1);
       Insn.J (code_base + 0xc);
       Insn.Nop;
       (* 0x100c: second block of the chain *)
       Insn.Addiu (9, 9, 1);
       (* c6 is untagged: faults at 0x1010, one insn into the block. *)
       Insn.CLoad { w = 8; signed = false; rd = 10; cb = 6; off = 0 };
       Insn.Break 0 |]
  in
  let _, st, ctx, _, stop = chain_vs_step ~name:"mid-chain trap" insns in
  Alcotest.(check bool) "the fault block was chained into" true
    (st.Bbcache.ch_chained >= 1);
  (match stop with
   | Some (Cpu.Stop_trap (Trap.Cap_fault { violation = Cap.Tag_violation; _ })) ->
     ()
   | s -> Alcotest.failf "expected a tag fault, got %s" (stop_str s));
  Alcotest.(check int) "PCC names the faulting instruction, not the chain head"
    (code_base + 0x10) (Cap.addr ctx.Cpu.pcc)

(* Tier-3 fusion and trap attribution: the certified prefix covers the
   memory run through c1 (memory accesses are exactly-attributed repair
   points), so it compiles into one fused closure — but it must stop at
   the Div, whose divisor is loaded from memory and therefore Any to the
   analysis (zero at runtime). The trap fires at the first *uncertified*
   instruction after the fused group and must carry the Div's own PC, not
   the group head's. *)
let test_chain_fused_trap_attribution () =
  (* Fusion is per I-cache line group (16 insns): pad the certified part
     to fill the first group so the uncertified Div falls in the second. *)
  let insns =
    Array.append
      [| Insn.Li (13, 0);
         Insn.CStore { w = 8; rs = 13; cb = 1; off = 0 };
         Insn.CLoad { w = 8; signed = false; rd = 14; cb = 1; off = 0 } |]
      (Array.append
         (Array.init 13 (fun _ -> Insn.Addiu (8, 8, 1)))
         [| (* 0x1040: divide by the just-loaded zero. *)
            Insn.Div (12, 8, 14);
            Insn.Break 0 |])
  in
  let facts_of ctx =
    Cheri_analysis.Absint.facts_of_code ~ddc:ctx.Cpu.ddc [ (code_base, insns) ]
  in
  let _, st, ctx, _, stop =
    chain_vs_step ~name:"fused-group trap" ~facts_of insns
  in
  Alcotest.(check bool) "the memory run ahead of the Div fused" true
    (st.Bbcache.ch_fused_groups >= 1 && st.Bbcache.ch_fused_insns >= 2);
  (match stop with
   | Some (Cpu.Stop_trap Trap.Div_by_zero) -> ()
   | s -> Alcotest.failf "expected divide-by-zero, got %s" (stop_str s));
  Alcotest.(check int) "PCC names the Div, not the fused group"
    (code_base + 0x40) (Cap.addr ctx.Cpu.pcc)

(* Fuel expiry inside a fused group: sweep every fuel value over a hot
   loop whose body is a certified memory run, so the quantum regularly
   expires with a fused closure's group partially or wholly retired — the
   engine must fall back to single-step replay and land on exactly the
   step engine's state. Then resume one cache in prime-sized chunks
   (q=37, the kernel's tiny-quantum shape) and check the same final
   snapshot, with fused groups and batched tail probes both live. *)
let test_chain_fuel_mid_fused_group () =
  let insns =
    [| Insn.Li (8, 0);
       Insn.Li (9, 60);
       (* loop head, 0x1008: adjacent certified accesses on one line *)
       Insn.CLoad { w = 8; signed = false; rd = 10; cb = 1; off = 0 };
       Insn.CLoad { w = 8; signed = false; rd = 11; cb = 1; off = 8 };
       Insn.Addiu (10, 10, 1);
       Insn.CStore { w = 8; rs = 10; cb = 1; off = 0 };
       Insn.Addiu (8, 8, 1);
       Insn.Bne (8, 9, code_base + 8);
       Insn.Break 0 |]
  in
  let facts_of ctx =
    Cheri_analysis.Absint.facts_of_code ~ddc:ctx.Cpu.ddc [ (code_base, insns) ]
  in
  for f = 1 to 100 do
    let m_s, ctx_s, mem_s = setup insns 11 in
    let stop_s = Cpu.run m_s ctx_s ~fuel:f in
    let s_step = snapshot stop_s m_s ctx_s mem_s in
    let m, ctx, mem = setup insns 11 in
    let bb = Bbcache.create () in
    Bbcache.set_facts bb (Some (facts_of ctx));
    let stop = Bbcache.run bb m ctx ~fuel:f in
    Alcotest.(check string) (Printf.sprintf "fused fuel=%d" f)
      s_step (snapshot stop m ctx mem)
  done;
  let m, ctx, mem = setup insns 11 in
  let bb = Bbcache.create () in
  Bbcache.set_facts bb (Some (facts_of ctx));
  let stop = ref None and remaining = ref 500 in
  while !stop = None && !remaining > 0 do
    let f = min 37 !remaining in
    stop := Bbcache.run bb m ctx ~fuel:f;
    remaining := !remaining - f
  done;
  let m_s, ctx_s, mem_s = setup insns 11 in
  let stop_s = Cpu.run m_s ctx_s ~fuel:500 in
  Alcotest.(check string) "q=37 resume through fused loop"
    (snapshot stop_s m_s ctx_s mem_s) (snapshot !stop m ctx mem);
  let st = Bbcache.chain_stats bb in
  Alcotest.(check bool) "fused groups retired" true
    (st.Bbcache.ch_fused_groups > 0);
  Alcotest.(check bool) "tail probes batched" true
    (st.Bbcache.ch_batched > 0)

(* mprotect between two runs of a chained hot loop must sever every chain
   link: the pmap generation bump flushes the decoded blocks, and the
   second half of the program re-translates instead of running stale
   closures. With the fact provider on, the mutation hits analyzed code,
   so the tier-1/2 masks AND the tier-3 certificates are dropped with it:
   the second loop runs with no fused groups at all. Exercised end-to-end
   through the kernel, under both ABIs. *)
let test_chain_mprotect_severs () =
  let expect =
    let acc = ref 0 in
    for i = 0 to 2999 do acc := !acc + (i mod 7) done;
    for i = 0 to 2999 do acc := !acc + (i mod 5) done;
    string_of_int !acc
  in
  List.iter
    (fun abi ->
      let k = Kernel.boot () in
      k.Kstate.config.Kstate.engine <- Cpu.Chain;
      k.Kstate.config.Kstate.fact_provider <-
        Some (Cheri_analysis.Absint.provider ());
      Cheri_libc.Runtime.install k;
      Stdlib_src.install k ~path:"/bin/hot" ~abi
        {|
int main(int argc, char **argv) {
  int i;
  int acc = 0;
  for (i = 0; i < 3000; i = i + 1) acc = acc + i % 7;
  for (i = 0; i < 3000; i = i + 1) acc = acc + i % 5;
  print_int(acc);
  return 0;
}
|};
      let p = Kernel.spawn k ~path:"/bin/hot" ~argv:[ "hot" ] () in
      (* Run the first hot loop, stopping while the program is still
         going. *)
      let _ = Kernel.run ~max_steps:8_000 k in
      (match p.Proc.state with
       | Proc.Zombie _ -> Alcotest.fail "program finished too early"
       | _ -> ());
      let bb = k.Kstate.bb in
      let st0 = Bbcache.chain_stats bb in
      Alcotest.(check bool) "first loop chained" true
        (st0.Bbcache.ch_chained > 0);
      Alcotest.(check bool) "first loop ran fused groups" true
        (st0.Bbcache.ch_fused_groups > 0);
      (* The analysis proved tier-3 certificates over the live image. *)
      (match p.Proc.facts with
       | Some f ->
         Alcotest.(check bool) "tier-3 certificates present" true
           (Facts.cert_blocks f > 0)
       | None -> Alcotest.fail "fact provider produced no facts");
      let built0 = bb.Bbcache.built and flushes0 = bb.Bbcache.flushes in
      (* Re-protect the text page (rx -> rx still bumps the generation,
         exactly as a real mprotect syscall does). *)
      let base, _, _ = List.hd p.Proc.code in
      let page = Cheri_tagmem.Phys.page_size in
      Addr_space.protect p.Proc.asp
        ~start:(base land lnot (page - 1))
        ~len:page ~prot:Prot.rx;
      (* Run to completion: the engine must notice the generation bump,
         drop every block (and with them all chain links), re-translate,
         and still compute the right answer. *)
      let _ = Kernel.run k in
      (match p.Proc.state with
       | Proc.Zombie (Proc.Exited 0) -> ()
       | _ -> Alcotest.failf "program did not exit cleanly (%s)"
                (String.concat "; " p.Proc.fault_log));
      Alcotest.(check string)
        (Abi.to_string abi ^ ": output survives re-translation")
        expect (String.trim (Buffer.contents p.Proc.console));
      Alcotest.(check bool) "blocks were flushed" true
        (bb.Bbcache.flushes > flushes0);
      Alcotest.(check bool) "blocks were re-translated" true
        (bb.Bbcache.built > built0);
      (* The mutation hit analyzed code: the whole fact set — tier-3
         certificates included — was conservatively dropped, so the second
         loop re-translated without fusion. *)
      Alcotest.(check bool) "facts dropped after mprotect of text" true
        (p.Proc.facts = None);
      Alcotest.(check int) "no fused groups after certificates dropped" 0
        (Bbcache.chain_stats bb).Bbcache.ch_fused_groups)
    [ Abi.Mips64; Abi.Cheriabi ]

(* --- Per-address-space block tables ------------------------------------------- *)

(* A kernel on [engine] with [progs] installed, as (path, image) pairs,
   and unless [facts] is false the fleet's fact provider. Simulated RAM is
   small because [Fleet.snapshot] digests all of it. *)
let boot_engine ~engine ?quantum ?(facts = true) ~abi progs =
  let k = Kernel.boot ~mem_size:(4 * 1024 * 1024) () in
  k.Kstate.config.Kstate.engine <- engine;
  Option.iter (fun q -> k.Kstate.config.Kstate.quantum <- q) quantum;
  if facts then
    k.Kstate.config.Kstate.fact_provider <-
      Some (Cheri_analysis.Absint.provider ());
  Cheri_libc.Runtime.install k;
  List.iter
    (fun (path, image) ->
      Cheri_kernel.Vfs.add_exe k.Kstate.vfs path ~abi image)
    progs;
  k

(* Run the machine to quiescence; [p] must exit 0. Its final snapshot. *)
let finish k (p : Proc.t) =
  let _ = Kernel.run k in
  let status = Kernel.status_of k p.Proc.pid in
  if status <> Some (Proc.Exited 0) then
    Alcotest.failf "%s did not exit cleanly (%s)" p.Proc.comm
      (String.concat "; " p.Proc.fault_log);
  Cheri_fleet.Fleet.snapshot k p status

let pingpong_rounds = 24

(* A parent and its forked child hand a byte back and forth over two
   pipes: every round blocks each side once, so the run is one context
   switch after another. *)
let pingpong_src =
  Printf.sprintf
    {|
int main(int argc, char **argv) {
  int req[2];
  int rsp[2];
  char b[1];
  int i;
  int j;
  int acc = 0;
  pipe(req);
  pipe(rsp);
  int pid = fork();
  for (i = 0; i < %d; i = i + 1) {
    if (pid == 0) {
      read(req[0], b, 1);
      for (j = 0; j < 200; j = j + 1) acc = acc + (j + b[0]) %% 13;
      b[0] = acc %% 100;
      write(rsp[1], b, 1);
    } else {
      b[0] = i;
      write(req[1], b, 1);
      read(rsp[0], b, 1);
      acc = acc + b[0];
      print_str(".");
    }
  }
  if (pid == 0) exit(0);
  int st = 0;
  wait(&st);
  print_int(acc);
  return 0;
}
|}
    pingpong_rounds

(* Context switches do not flush: once both processes have run every path
   of a round, the chain engine decodes nothing more and flushes nothing,
   however often parent and child trade the CPU. *)
let test_space_pingpong () =
  List.iter
    (fun abi ->
      let image = Stdlib_src.build_image ~abi ~name:"pp" pingpong_src in
      (* [sample] runs at every runtime upcall (the parent's per-round
         print among them): a hook outside the simulated machine, so it
         moves no preemption point. *)
      let run engine ~sample =
        let k = boot_engine ~engine ~abi [ "/bin/pp", image ] in
        let p = Kernel.spawn k ~path:"/bin/pp" ~argv:[ "pp" ] () in
        let rt = Option.get k.Kstate.rt_handler in
        k.Kstate.rt_handler <- Some (fun k q n -> sample k p; rt k q n);
        (k, finish k p)
      in
      let _, want = run Cpu.Step ~sample:(fun _ _ -> ()) in
      (* Blocks built at every upcall inside the steady-state window: two
         rounds done (all round code decoded in both processes), and the
         last two not begun (no exit paths yet). *)
      let steady = ref [] in
      let sample k (p : Proc.t) =
        let dots =
          Cheri_fleet.Fleet.count_marker (Buffer.contents p.Proc.console) '.'
        in
        if dots >= 2 && dots <= pingpong_rounds - 2 then
          steady :=
            (k.Kstate.bb.Bbcache.built, k.Kstate.bb.Bbcache.flushes)
            :: !steady
      in
      let k, got = run Cpu.Chain ~sample in
      let label = Abi.to_string abi in
      Alcotest.(check string) (label ^ ": snapshot equals step's") want got;
      Alcotest.(check bool) (label ^ ": many steady-state samples") true
        (List.length !steady >= 10);
      let first, _ = List.nth !steady (List.length !steady - 1) in
      List.iter
        (fun (built, flushes) ->
          Alcotest.(check int) (label ^ ": no block built after round 2")
            first built;
          Alcotest.(check int) (label ^ ": no flush in round 2..") 0
            flushes)
        !steady;
      Alcotest.(check int) (label ^ ": no flush in the whole run") 0
        k.Kstate.bb.Bbcache.flushes)
    [ Abi.Mips64; Abi.Cheriabi ]

(* The parent and its child run different images at the same text
   addresses: the child decodes the parent's code, execs another image
   laid out from the same base, and both keep running interleaved. *)
let exec_parent_src = {|
int work(int n) {
  int i;
  int acc = 0;
  for (i = 0; i < n; i = i + 1) acc = acc + i % 7;
  return acc;
}

int main(int argc, char **argv) {
  int pid = fork();
  int acc = work(2000);
  if (pid == 0) {
    char *nargv[2];
    nargv[0] = "other";
    nargv[1] = 0;
    execve("/bin/other", nargv, (char**)0);
    exit(99);
  }
  acc = acc + work(3000);
  int st = 0;
  wait(&st);
  print_int(acc);
  print_int(st >> 8);
  return 0;
}
|}

let exec_other_src = {|
int main(int argc, char **argv) {
  int i;
  int acc = 1;
  for (i = 0; i < 3000; i = i + 1) acc = (acc * 3 + i) % 251;
  for (i = 0; i < 3000; i = i + 1) acc = (acc * 5 + i) % 241;
  return acc % 100;
}
|}

let text_base abi image =
  let link = Cheri_rtld.Rtld.link ~abi image in
  (List.hd link.Cheri_rtld.Rtld.lk_placed).Cheri_rtld.Rtld.pl_text_base

(* Exec must reset the child's own table: a block decoded from the
   parent's image at an address the new image reuses would otherwise run
   the old code. Without facts nothing else would flush it (a new fact
   table would). *)
let test_space_exec_same_addresses () =
  let images abi =
    ( Stdlib_src.build_image ~abi ~name:"parent" exec_parent_src,
      Stdlib_src.build_image ~abi ~name:"other" exec_other_src )
  in
  let mips = images Abi.Mips64 and cheri = images Abi.Cheriabi in
  List.iter
    (fun (abi, (parent, other), facts) ->
      Alcotest.(check int) "both images share their text base"
        (text_base abi parent) (text_base abi other);
      let run engine =
        let k =
          boot_engine ~engine ~quantum:300 ~facts ~abi
            [ "/bin/parent", parent; "/bin/other", other ]
        in
        let p = Kernel.spawn k ~path:"/bin/parent" ~argv:[ "parent" ] () in
        finish k p
      in
      let want = run Cpu.Step in
      Alcotest.(check string)
        (Printf.sprintf "%s%s: chain snapshot equals step's"
           (Abi.to_string abi) (if facts then "+facts" else ""))
        want (run Cpu.Chain))
    [ Abi.Mips64, mips, false; Abi.Cheriabi, cheri, false;
      Abi.Cheriabi, cheri, true ]

let hot_src = {|
int main(int argc, char **argv) {
  int i;
  int acc = 0;
  for (i = 0; i < 20000; i = i + 1) acc = acc + i % 7;
  print_int(acc);
  return 0;
}
|}

(* Unmapping code in one process (its signal trampoline page) bumps that
   process's pmap generation: its table is flushed when it is next
   dispatched, and the other process's table keeps every block. *)
let test_space_munmap_local () =
  let k =
    boot_engine ~engine:Cpu.Chain ~quantum:1000 ~abi:Abi.Mips64
      [ "/bin/hot", Stdlib_src.build_image ~abi:Abi.Mips64 ~name:"hot" hot_src ]
  in
  let a = Kernel.spawn k ~path:"/bin/hot" ~argv:[ "a" ] () in
  let b = Kernel.spawn k ~path:"/bin/hot" ~argv:[ "b" ] () in
  let _ = Kernel.run ~max_steps:20_000 k in
  let some_block (p : Proc.t) =
    match
      Hashtbl.fold (fun pc blk acc -> (pc, blk) :: acc)
        p.Proc.bb_space.Bbcache.blocks []
    with
    | x :: _ -> x
    | [] -> Alcotest.fail "process decoded no blocks"
  in
  let a_pc, a_blk = some_block a and b_pc, b_blk = some_block b in
  let flushes0 = k.Kstate.bb.Bbcache.flushes in
  Addr_space.unmap a.Proc.asp ~start:Cheri_kernel.Exec.sigcode_base
    ~len:Cheri_tagmem.Phys.page_size;
  let _ = Kernel.run ~max_steps:20_000 k in
  Alcotest.(check int) "exactly one table flushed" (flushes0 + 1)
    k.Kstate.bb.Bbcache.flushes;
  Alcotest.(check bool) "unmapping process re-decoded" true
    (match Hashtbl.find_opt a.Proc.bb_space.Bbcache.blocks a_pc with
     | Some blk -> blk != a_blk
     | None -> true);
  Alcotest.(check bool) "other process kept its blocks" true
    (match Hashtbl.find_opt b.Proc.bb_space.Bbcache.blocks b_pc with
     | Some blk -> blk == b_blk
     | None -> false);
  let _ = Kernel.run k in
  let expect =
    let acc = ref 0 in
    for i = 0 to 19999 do acc := !acc + (i mod 7) done;
    string_of_int !acc
  in
  List.iter
    (fun (p : Proc.t) ->
      Alcotest.(check string) "output" expect
        (String.trim (Buffer.contents p.Proc.console)))
    [ a; b ]

(* Exec replacing an image that had a fact table starts a new analysis
   epoch: the engine's chain/IC and probe counters restart, so the old
   program's rates do not leak into the new one's. Spawning a process (a
   fresh table adopting its first facts) keeps them. *)
let test_space_exec_epoch () =
  let abi = Abi.Cheriabi in
  let image = Stdlib_src.build_image ~abi ~name:"hot" hot_src in
  let k =
    boot_engine ~engine:Cpu.Chain ~quantum:1000 ~abi [ "/bin/hot", image ]
  in
  let bb = k.Kstate.bb in
  let a = Kernel.spawn k ~path:"/bin/hot" ~argv:[ "a" ] () in
  let _ = Kernel.run ~max_steps:20_000 k in
  let entries = bb.Bbcache.chain_entries in
  Alcotest.(check bool) "chain entries accumulated" true (entries > 0);
  Alcotest.(check bool) "running process adopted its facts" true
    (Option.is_some a.Proc.bb_space.Bbcache.facts);
  let b = Kernel.spawn k ~path:"/bin/hot" ~argv:[ "b" ] () in
  Alcotest.(check int) "spawn keeps chain entries" entries
    bb.Bbcache.chain_entries;
  let _ = Kernel.run ~max_steps:20_000 k in
  Alcotest.(check bool) "both ran elided probes" true
    (bb.Bbcache.elided_probes > 0
     && Option.is_some b.Proc.bb_space.Bbcache.facts);
  Cheri_kernel.Exec.exec_image k a ~abi ~image ~argv:[ "a" ] ~envv:[];
  Alcotest.(check int) "exec resets chain entries" 0
    bb.Bbcache.chain_entries;
  Alcotest.(check int) "exec resets elided probes" 0 bb.Bbcache.elided_probes;
  Alcotest.(check int) "exec empties the table" 0
    (Hashtbl.length a.Proc.bb_space.Bbcache.blocks);
  Alcotest.(check bool) "b keeps its blocks" true
    (Hashtbl.length b.Proc.bb_space.Bbcache.blocks > 0)

(* --- Kernel-level parity --------------------------------------------------------- *)

let parity_src = {|
char s[32];
int work(int n) {
  int *buf = malloc(n * 8);
  int i;
  int acc = 0;
  for (i = 0; i < n; i = i + 1) buf[i] = i * 3 + 1;
  for (i = 0; i < n; i = i + 1) acc = acc + buf[i] % 7;
  free(buf);
  return acc;
}

int main(int argc, char **argv) {
  int i;
  int acc = 0;
  for (i = 0; i < 20; i = i + 1) acc = acc + work(50 + i);
  for (i = 0; i < 31; i = i + 1) s[i] = 'a' + i % 26;
  s[31] = 0;
  print_str(s);
  print_int(acc);
  return 0;
}
|}

let measure ~engine ?quantum ?(elide = false) abi =
  let m = Harness.run ~engine ?quantum ~elide ~abi parity_src in
  if not (Harness.ok m) then
    Alcotest.failf "parity run failed: %s (%s)" (Harness.status_string m)
      (String.concat "; " m.Harness.m_faults);
  ( m.Harness.m_output, m.Harness.m_instructions, m.Harness.m_cycles,
    m.Harness.m_l2_misses )

(* Every non-reference engine configuration against step: identical
   output, retired-instruction, cycle and L2-miss counts — in particular
   the same preemption points when [quantum] forces timeslices to expire
   inside blocks and chains. *)
let check_parity ?quantum abi =
  let o1, i1, c1, l1 = measure ~engine:Cpu.Step ?quantum abi in
  List.iter
    (fun (which, engine, elide) ->
      let label =
        Printf.sprintf "%s %s%s" (Abi.to_string abi) which
          (match quantum with None -> "" | Some q -> Printf.sprintf " q=%d" q)
      in
      let o2, i2, c2, l2 = measure ~engine ?quantum ~elide abi in
      Alcotest.(check string) (label ^ ": output") o1 o2;
      Alcotest.(check int) (label ^ ": instructions") i1 i2;
      Alcotest.(check int) (label ^ ": cycles") c1 c2;
      Alcotest.(check int) (label ^ ": L2 misses") l1 l2)
    [ "chain", Cpu.Chain, false;
      "chain+elide", Cpu.Chain, true ]

let test_kernel_parity () =
  check_parity Abi.Mips64;
  check_parity Abi.Cheriabi

(* Dynamic counters (chain entries, inline-cache hits/misses, check_cap
   probes) survive re-asserting the same facts, a table reset and a fresh
   table adopting its first facts — these happen mid-run (every dispatch,
   exit, fork) and the bench accumulates across them — but replacing a
   space's fact table with one of a
   *different identity* starts a new measurement regime: set_facts must
   zero them, so e.g. a megamorphic miss count from the previous
   program's facts cannot leak into the new program's rates. *)
let test_counter_reset_on_new_facts () =
  let loop_t = code_base + 8 in
  let insns =
    [| Insn.Li (8, 40);
       Insn.Li (9, 0);
       (* loop: *)
       Insn.CLoad { w = 8; signed = false; rd = 10; cb = 1; off = 0 };
       Insn.Addiu (8, 8, -1);
       Insn.Bgtz (8, loop_t);
       Insn.Break 0 |]
  in
  let m, ctx, _mem = setup insns 9 in
  let facts_a =
    Cheri_analysis.Absint.facts_of_code ~ddc:ctx.Cpu.ddc [ (code_base, insns) ]
  in
  let bb = Bbcache.create () in
  Bbcache.set_facts bb (Some facts_a);
  (* The loop must run to its Break terminator (surfaced as a trap), not
     die early on the guarded load. *)
  (match Bbcache.run bb m ctx ~fuel with
   | Some (Cpu.Stop_trap (Trap.Break_trap _)) -> ()
   | r -> Alcotest.failf "loop program stopped early: %s" (stop_str r));
  Alcotest.(check bool) "chain entries accumulated" true
    (bb.Bbcache.chain_entries > 0);
  Alcotest.(check bool) "elided probes accumulated" true
    (bb.Bbcache.elided_probes > 0);
  let probes = bb.Bbcache.elided_probes in
  let built = bb.Bbcache.built in
  (* Reasserting the table the space already holds (every kernel dispatch
     does) is a no-op: counters and compiled blocks stay. *)
  Bbcache.set_facts bb (Some facts_a);
  Alcotest.(check int) "same facts keep probe counters" probes
    bb.Bbcache.elided_probes;
  Alcotest.(check bool) "same facts keep the blocks" true
    (Hashtbl.length bb.Bbcache.space.Bbcache.blocks > 0);
  (match Bbcache.run bb m ctx ~fuel with
   | Some (Cpu.Stop_trap (Trap.Break_trap _)) -> ()
   | r -> Alcotest.failf "rerun stopped early: %s" (stop_str r));
  Alcotest.(check int) "same facts rebuild nothing" built bb.Bbcache.built;
  let probes = bb.Bbcache.elided_probes in
  (* Resetting the table (process exit) drops compiled blocks and facts
     but must not disturb the dynamic counters. *)
  Bbcache.reset_space bb.Bbcache.space;
  Alcotest.(check int) "table reset keeps probe counters" probes
    bb.Bbcache.elided_probes;
  (* The reset space adopting a table, as a fresh one does, keeps them. *)
  Bbcache.set_facts bb (Some facts_a);
  Alcotest.(check int) "adopting facts keeps probe counters" probes
    bb.Bbcache.elided_probes;
  (* A fresh table identity resets every dynamic counter. *)
  let facts_b =
    Cheri_analysis.Absint.facts_of_code ~ddc:ctx.Cpu.ddc [ (code_base, insns) ]
  in
  Bbcache.set_facts bb (Some facts_b);
  Alcotest.(check int) "new facts reset elided probes" 0
    bb.Bbcache.elided_probes;
  Alcotest.(check int) "new facts reset checked probes" 0
    bb.Bbcache.checked_probes;
  Alcotest.(check int) "new facts reset chain entries" 0
    bb.Bbcache.chain_entries;
  Alcotest.(check int) "new facts reset IC hits" 0 bb.Bbcache.ic_hits;
  Alcotest.(check int) "new facts reset IC misses" 0 bb.Bbcache.ic_misses;
  Alcotest.(check int) "new facts reset megamorphic falls" 0
    bb.Bbcache.ic_mega

let test_kernel_parity_tiny_quantum () =
  (* A prime quantum far below block size: almost every timeslice ends
     mid-block, so the fuel fallback path carries real weight. *)
  check_parity ~quantum:37 Abi.Cheriabi

let suite =
  [ "differential fuzz: step vs chain", `Quick, test_fuzz_engines;
    "PCC bounds mid-block", `Quick, test_pcc_midblock_bounds;
    "chain: self-loop", `Quick, test_chain_self_loop;
    "chain: ping-pong", `Quick, test_chain_ping_pong;
    "chain: megamorphic Jr inline cache", `Quick, test_chain_ic_megamorphic;
    "chain: monomorphic CJR inline cache", `Quick, test_chain_cjr_monomorphic;
    "chain: megamorphic CJR inline cache", `Quick, test_chain_cjr_megamorphic;
    "chain: fuel boundaries", `Quick, test_chain_fuel_boundaries;
    "chain: crosses facts-elided entry", `Quick, test_chain_crosses_elided_entry;
    "chain: mid-chain trap attribution", `Quick, test_chain_trap_attribution;
    "chain: fused-group trap attribution", `Quick,
    test_chain_fused_trap_attribution;
    "chain: fuel expiry mid-fused-group", `Quick,
    test_chain_fuel_mid_fused_group;
    "chain: mprotect severs chains", `Quick, test_chain_mprotect_severs;
    "spaces: fork ping-pong decodes once", `Quick, test_space_pingpong;
    "spaces: exec at the same addresses", `Quick,
    test_space_exec_same_addresses;
    "spaces: munmap flushes one table", `Quick, test_space_munmap_local;
    "spaces: exec starts a counter epoch", `Quick, test_space_exec_epoch;
    "counter reset on new facts", `Quick, test_counter_reset_on_new_facts;
    "kernel parity", `Quick, test_kernel_parity;
    "kernel parity, tiny quantum", `Quick, test_kernel_parity_tiny_quantum ]
