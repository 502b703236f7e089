(* Engine equivalence: the chaining block engine (Bbcache) must be
   observationally identical to the reference step interpreter (Cpu.step).

   Two layers of evidence:

   1. A differential fuzzer over seeded random programs — arithmetic,
      branches, capability derivation, loads/stores of data and
      capabilities, sealing, traps, syscalls — executed three ways (step;
      chain in one run; chain in small fuel chunks, which forces
      mid-block and mid-chain preemption and resume) on identical fresh
      machines. The full observable state is
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
   boundaries, mid-chain trap attribution, and mprotect-driven chain
   severing through the kernel; the per-process block tables: no
   re-decode across fork ping-pong context switches, exec into an image
   at reused addresses, and a munmap that flushes only its own process's
   table; and an allocation budget for the chain engine's hot path. *)

module Cap = Cheri_cap.Cap
module Perms = Cheri_cap.Perms
module Tagmem = Cheri_tagmem.Tagmem
module Cache = Cheri_tagmem.Cache
module Insn = Cheri_isa.Insn
module Cpu = Cheri_isa.Cpu
module Bbcache = Cheri_isa.Bbcache
module Trap = Cheri_isa.Trap
module Abi = Cheri_core.Abi
module Runtime = Cheri_libc.Runtime
module Snapshot = Cheri_libc.Snapshot

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
  (* Register operands span each whole file, so every register (sp, fp
     and ra as explicit operands, c8..c31) is compared between the
     engines; r0 and c0 stay at least 1/16 likely. *)
  let reg () = if rnd 16 = 0 then 0 else rnd 32 in
  let g = reg and c = reg in
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
  (* CRRL/CRAM are total: the value pool's negative and huge operands
     included. *)
  | 24 -> (match rnd 4 with
      | 0 -> Insn.CGetOffset (g (), c ())
      | 1 -> Insn.CGetType (g (), c ())
      | 2 -> Insn.CRRL (g (), g ())
      | _ -> Insn.CRAM (g (), g ()))
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
let setup ?(size = mem_size) insns seed =
  let st = ref (seed lxor 0x5eed) in
  let rnd n = lcg st mod n in
  let mem = Tagmem.create ~size in
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
  Cpu.wr_creg ctx 1 data;
  Cpu.wr_creg ctx 2
    (Cap.set_bounds (Cap.set_addr root (data_base + 0x1000)) ~len:0x40);
  (* No LOAD_CAP/STORE_CAP: CLC strips tags, CSC of tagged values faults. *)
  Cpu.wr_creg ctx 3
    (Cap.and_perms data Perms.(union load (union store global)));
  (* Local (non-GLOBAL) capability: exercises the store-local rule. *)
  Cpu.wr_creg ctx 4 (Cap.and_perms data (Perms.diff Perms.all Perms.global));
  (* Sealing capability: its address is the otype. *)
  Cpu.wr_creg ctx 5 (Cap.set_addr root (5 + rnd 3));
  Cpu.wr_creg ctx 6 (Cap.clear_tag (Cap.inc_addr data (8 * rnd 16)));
  Cpu.wr_creg ctx 7 (Cap.set_bounds (Cap.set_addr root data_base) ~len:16);
  (* c8..c31: copies of c1..c7 at shifted addresses, or NULL. *)
  for r = 8 to 31 do
    match rnd 8 with
    | 0 -> ()
    | k -> Cpu.wr_creg ctx r (Cap.inc_addr (Cpu.rd_creg ctx k) (8 * rnd 4))
  done;
  let pool = value_pool (Array.length insns) in
  for r = 1 to 31 do
    ctx.Cpu.gpr.(r) <- pool.(rnd (Array.length pool))
  done;
  (* Deterministic initial data-region contents, some of it capabilities
     so capability loads find real tags to propagate or strip. *)
  for i = 0 to 63 do
    Tagmem.write_int mem (data_base + (8 * i)) ~len:8 (lcg st)
  done;
  Tagmem.write_cap mem (data_base + 0x1000) data;
  Tagmem.write_cap mem (data_base + 0x1010) (Cpu.rd_creg ctx 4);
  (m, ctx, mem)

(* --- Observable-state snapshot --------------------------------------------------- *)

let stop_str = function
  | None -> "fuel-exhausted"
  | Some Cpu.Stop_syscall -> "syscall"
  | Some (Cpu.Stop_rt n) -> Printf.sprintf "rt %d" n
  | Some (Cpu.Stop_trap c) -> "trap: " ^ Trap.to_string c

(* Everything the two engines must agree on: the stop cause, then the
   shared machine renderer's registers, whole cache state and whole-memory
   digests, so a mismatch shows up as a readable diff. *)
let snapshot stop (m : Cpu.machine) (ctx : Cpu.ctx) mem =
  String.concat ""
    [ stop_str stop; "\n"; Snapshot.regs ctx; Snapshot.caches m.Cpu.hier;
      Snapshot.memory mem ]

let fuel = 2_500

let run_step insns seed =
  let m, ctx, mem = setup insns seed in
  let stop = Cpu.run m ctx ~fuel in
  snapshot stop m ctx mem

(* The chain engine: superblock chaining and inline caches — block exits
   resolve their successor through patched links and enter it directly,
   deferring the PCC commit until the chain breaks. [chunk] splits the
   same total fuel into quanta, so expiry lands mid-block and mid-chain,
   and the engine must fall back to exact single-stepping. Returns the
   snapshot and the cache, for coverage counters. *)
let run_chain ?(chunk = fuel) insns seed =
  let m, ctx, mem = setup insns seed in
  let bb = Bbcache.create () in
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
  let programs = 1000 in
  let mismatches = ref 0 in
  (* Coverage of the chunked configuration: quanta that expire mid-block
     and fall back to single-stepping. *)
  let chunk_falls = ref 0 in
  for seed = 1 to programs do
    let insns, rnd = gen_program (seed * 7919) in
    let chunk = 3 + rnd 7 in
    let s_step = run_step insns seed in
    let s_chunked, bb = run_chain ~chunk insns seed in
    chunk_falls := !chunk_falls + bb.Bbcache.step_falls;
    let runs =
      [ "chain", fst (run_chain insns seed); "chunked", s_chunked ]
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
  Alcotest.(check bool) "chunked single-stepped quantum edges" true
    (!chunk_falls > 0);
  (* Unwritten frames all read from one shared zero frame; a store path
     that wrote it without first giving the frame its own buffer would
     show up in every fresh memory. *)
  let fresh = Tagmem.create ~size:4096 in
  Alcotest.(check bool) "shared zero frame still zero" true
    (Bytes.for_all (fun c -> c = '\000') (Tagmem.read_bytes fresh 0 4096))

(* CRRL/CRAM on operands no capability length can have: a negative
   length and one past [Compress.max_length]. Both once escaped the
   engines (an uncaught Invalid_argument; an exponent search that never
   returned); now both engines retire them to the documented results and
   agree on the whole machine state. *)
let test_crrl_cram_out_of_range () =
  let t0 = 12 in
  let huge = (1 lsl 61) + 1 in
  let insns =
    [| Insn.Li (t0, -1);
       Insn.CRRL (t0 + 1, t0);
       Insn.CRAM (t0 + 2, t0);
       Insn.Li (t0, huge);
       Insn.CRRL (t0 + 3, t0);
       Insn.CRAM (t0 + 4, t0);
       Insn.Break 0 |]
  in
  let run engine =
    let m, ctx, mem = setup insns 1 in
    let stop =
      match engine with
      | `Step -> Cpu.run m ctx ~fuel
      | `Chain -> Bbcache.run (Bbcache.create ()) m ctx ~fuel
    in
    (match stop with
     | Some (Cpu.Stop_trap (Trap.Break_trap 0)) -> ()
     | s -> Alcotest.failf "did not reach the break: %s" (stop_str s));
    (ctx, snapshot stop m ctx mem)
  in
  let ctx, s_step = run `Step in
  let _, s_chain = run `Chain in
  Alcotest.(check string) "step and chain agree" s_step s_chain;
  let gpr r = ctx.Cpu.gpr.(r) in
  let top_mask = lnot ((1 lsl 49) - 1) in
  Alcotest.(check int) "crrl -1" 0 (gpr (t0 + 1));
  Alcotest.(check int) "cram -1" top_mask (gpr (t0 + 2));
  Alcotest.(check int) "crrl 2^61+1" 0 (gpr (t0 + 3));
  Alcotest.(check int) "cram 2^61+1" top_mask (gpr (t0 + 4))

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
    ?(seed = 3) insns =
  let m_s, ctx_s, mem_s = setup insns seed in
  let stop_s = Cpu.run m_s ctx_s ~fuel:run_fuel in
  let s_step = snapshot stop_s m_s ctx_s mem_s in
  let m, ctx, mem = setup insns seed in
  let bb = Bbcache.create () in
  let stop = Bbcache.run bb m ctx ~fuel:run_fuel in
  let s_chain = snapshot stop m ctx mem in
  Alcotest.(check string) name s_step s_chain;
  (bb, Bbcache.chain_stats bb, ctx, stop)

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
  let bb, st, _, _ = chain_vs_step ~name:"self-loop" insns in
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
  let bb, st, ctx, _ = chain_vs_step ~name:"ping-pong" insns in
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
  let _, st, _, _ = chain_vs_step ~name:"megamorphic Jr" insns in
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
  let bb, st, ctx, _ = chain_vs_step ~name:"monomorphic CJR" insns in
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
  let _, st, ctx, _ = chain_vs_step ~name:"megamorphic CJR" insns in
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
  let _, st, ctx, stop = chain_vs_step ~name:"mid-chain trap" insns in
  Alcotest.(check bool) "the fault block was chained into" true
    (st.Bbcache.ch_chained >= 1);
  (match stop with
   | Some (Cpu.Stop_trap (Trap.Cap_fault { violation = Cap.Tag_violation; _ })) ->
     ()
   | s -> Alcotest.failf "expected a tag fault, got %s" (stop_str s));
  Alcotest.(check int) "PCC names the faulting instruction, not the chain head"
    (code_base + 0x10) (Cap.addr ctx.Cpu.pcc)

(* --- Fetch residency and fixed-width memory closures --------------------------- *)

(* A code image from (address, instructions) pieces, Nop elsewhere. *)
let program_at pieces =
  let top =
    List.fold_left (fun t (a, is) -> max t (a + (4 * List.length is))) 0 pieces
  in
  let insns = Array.make ((top - code_base) / 4) Insn.Nop in
  List.iter
    (fun (a, is) ->
      List.iteri (fun i x -> insns.(((a - code_base) / 4) + i) <- x) is)
    pieces;
  insns

(* Blocks executed by a chain run: dispatch entries plus chained hops. *)
let executed st = st.Bbcache.ch_entries + st.Bbcache.ch_chained

(* Five code lines 8 KiB apart, X0 at 0x1040 and L1..L4 above it, share
   one set of the 4-way, 128-set IL1. A dispatcher H (0x1080, another set)
   jumps to X0, L1, L2, L3, L4, X0, ... in turn, and each target jumps
   back to H. Five lines taking turns in four ways miss on every visit,
   so every target runs the ordered fetch path: L1..L4 because H's page
   is the memoized one, X0 (in H's page, its memo armed) because L1..L4
   evicted its line. H's first block runs ordered after a far target (a
   page switch) and resident after X0; its second block always runs
   resident. The full snapshot, IL1 LRU stamps and clock included, must
   equal the step engine's throughout. *)
let test_fetch_set_conflict () =
  let stride = 0x2000 in
  let x0 = code_base + 0x40 and h = code_base + 0x80 in
  let iters = 40 in
  let insns =
    program_at
      ([ (code_base,
          [ Insn.Li (8, 0); Insn.Li (9, iters); Insn.Li (10, 0);
            Insn.Li (11, 5); Insn.Li (12, x0); Insn.J h ]);
         (h,
          [ Insn.Addiu (8, 8, 1);
            Insn.Beq (8, 9, h + 0x20);
            Insn.Rem (4, 8, 11);
            Insn.Sll (4, 4, 13);
            Insn.Addu (4, 4, 12);
            Insn.Jr 4;
            Insn.Nop;
            Insn.Nop;
            Insn.Break 0 ]);
         (x0, [ Insn.Addiu (10, 10, 100); Insn.J h ]) ]
       @ List.map
           (fun k -> (x0 + (k * stride), [ Insn.Addiu (10, 10, k); Insn.J h ]))
           [ 1; 2; 3; 4 ])
  in
  let bb, st, ctx, stop = chain_vs_step ~name:"IL1 set conflict" insns in
  (match stop with
   | Some (Cpu.Stop_trap (Trap.Break_trap 0)) -> ()
   | s -> Alcotest.failf "did not reach the break: %s" (stop_str s));
  let sum = ref 0 and x0_visits = ref 0 in
  for i = 1 to iters - 1 do
    if i mod 5 = 0 then (incr x0_visits; sum := !sum + 100)
    else sum := !sum + (i mod 5)
  done;
  Alcotest.(check int) "every target ran" !sum ctx.Cpu.gpr.(10);
  (* Blocks: the prologue, H's two blocks, one target per iteration, the
     final break. Ordered: the prologue, the break, every target, H's
     second block once (its first visit) and H's first block except after
     X0. *)
  Alcotest.(check int) "blocks executed" (1 + iters + (2 * (iters - 1)) + 1)
    (executed st);
  Alcotest.(check int) "ordered fetch path"
    (1 + 1 + (iters - 1) + 1 + (iters - !x0_visits))
    bb.Bbcache.ordered

(* A loop over one block that spans two fetch lines (0x1030..0x104f),
   then faults in its second line on the last of [iters] visits: in the
   body ([`Body]: Div by zero at 0x1044) or in the terminator ([`Term]: a
   misaligned Jr at 0x1050). The first visit runs the ordered path and
   arms the residency memo; later ones run resident. *)
let two_line_loop ~iters which =
  let loop = code_base + 0x30 in
  let block =
    [ Insn.Addiu (8, 8, 1); Insn.Addiu (10, 10, 1); Insn.Addiu (11, 11, 1);
      Insn.Addiu (12, 12, 1);
      (* second line, 0x1040: *)
      Insn.Subu (16, 9, 8) ]
    @ (match which with
        | `Body ->
          [ Insn.Div (15, 9, 16); Insn.Addiu (13, 13, 1);
            Insn.Bne (8, 9, loop); Insn.Break 0 ]
        | `Term ->
          (* r17 = loop, or loop + 2 once r16 = 0. *)
          [ Insn.Sltiu (18, 16, 1); Insn.Sll (18, 18, 1);
            Insn.Addu (17, 19, 18); Insn.Jr 17 ])
  in
  program_at
    [ (code_base,
       [ Insn.Li (8, 0); Insn.Li (9, iters); Insn.Li (19, loop); Insn.J loop ]);
      (loop, block) ]

(* A trap partway through the two-line block, and one in its terminator:
   only the prefix through the faulting instruction is charged, on the
   ordered path (a fault on the first visit) and on the resident path (a
   fault on the sixth). *)
let test_fetch_trap_prefix () =
  List.iter
    (fun (which, iters) ->
      let name =
        Printf.sprintf "%s fault, visit %d"
          (match which with `Body -> "body" | `Term -> "terminator") iters
      in
      let bb, st, ctx, stop =
        chain_vs_step ~name (two_line_loop ~iters which)
      in
      let pc, per_visit, prefix =
        match which with `Body -> 0x1044, 8, 6 | `Term -> 0x1050, 9, 9
      in
      (match stop, which with
       | Some (Cpu.Stop_trap Trap.Div_by_zero), `Body
       | Some (Cpu.Stop_trap (Trap.Unaligned _)), `Term -> ()
       | s, _ -> Alcotest.failf "%s: %s" name (stop_str s));
      Alcotest.(check int) (name ^ ": PC") pc (Cap.addr ctx.Cpu.pcc);
      Alcotest.(check int) (name ^ ": retired prefix")
        (4 + ((iters - 1) * per_visit) + prefix) ctx.Cpu.instret;
      (* The prologue and the first visit ran ordered; the rest resident. *)
      Alcotest.(check int) (name ^ ": ordered blocks") 2 bb.Bbcache.ordered;
      Alcotest.(check int) (name ^ ": blocks") (1 + iters) (executed st))
    [ `Body, 1; `Body, 6; `Term, 1; `Term, 6 ]

(* Fuel expiring inside the two-line block, on its ordered first visit and
   on resident later ones: every fuel value, and the same total split into
   small quanta that re-enter mid-block. *)
let test_fetch_fuel_midblock () =
  let insns = two_line_loop ~iters:12 `Body in
  for f = 1 to 60 do
    ignore (chain_vs_step ~name:(Printf.sprintf "fuel=%d" f) ~run_fuel:f insns)
  done;
  List.iter
    (fun q ->
      let m, ctx, mem = setup insns 3 in
      let bb = Bbcache.create () in
      let stop = ref None and remaining = ref fuel in
      while !stop = None && !remaining > 0 do
        let f = min q !remaining in
        stop := Bbcache.run bb m ctx ~fuel:f;
        remaining := !remaining - f
      done;
      let m_s, ctx_s, mem_s = setup insns 3 in
      let stop_s = Cpu.run m_s ctx_s ~fuel in
      Alcotest.(check string) (Printf.sprintf "quantum %d" q)
        (snapshot stop_s m_s ctx_s mem_s) (snapshot !stop m ctx mem))
    [ 3; 5; 7; 11 ]

(* Trap attribution per trapping class. Each class names an instruction
   that can trap and the operand setup that makes it trap ([arm true])
   or not. The instruction sits at each of the five straight-line slots
   of a block B (0x1034, so slots 0-2 share one fetch line and slots 3-4
   and B's terminator the next), the other slots padded with [li]/[addu];
   a terminator class is B's terminator itself. B traps on its first
   visit, which runs the ordered fetch path, or on its second, which runs
   resident: then the first visit finds good operands, jumps to the latch
   L, which makes them bad and jumps back. Step and chain must agree on
   the whole snapshot (stop cause, PC, instret, cycles, every cache
   level), and the trap must be the expected one at the expected PC. *)
let trap_block = code_base + 0x34
let trap_latch = code_base + 0x80

let trap_classes =
  let li16 v = [ Insn.Li (16, v) ] in
  let addr bad = li16 (if bad then mem_size else data_base) in
  let div_by bad = li16 (if bad then 0 else 3) in
  let cap_fault = function Trap.Cap_fault _ -> true | _ -> false in
  let div_zero = function Trap.Div_by_zero -> true | _ -> false in
  let unaligned = function Trap.Unaligned _ -> true | _ -> false in
  (* c20: the data capability c1, or c1 untagged, sealed (c5 is a sealing
     root) or with no permissions. *)
  let c20 how bad =
    [ (if not bad then Insn.CMove (20, 1)
       else match how with
         | `Untagged -> Insn.CClearTag (20, 1)
         | `Sealed -> Insn.CSeal (20, 1, 5)
         | `No_perms -> Insn.CAndPermImm (20, 1, 0)) ]
  in
  let cap_mem =
    [ "CLoad", Insn.CLoad { w = 8; signed = false; rd = 17; cb = 20; off = 0 };
      "CStore", Insn.CStore { w = 8; rs = 17; cb = 20; off = 0 };
      "CLC", Insn.CLC { cd = 21; cb = 20; off = 0 };
      "CSC", Insn.CSC { cs = 1; cb = 20; off = 0 } ]
  in
  [ "DDC Load out of bounds",
    `Body (Insn.Load { w = 8; signed = false; rd = 17; base = 16; off = 0 }),
    addr, cap_fault;
    "DDC Store out of bounds",
    `Body (Insn.Store { w = 8; rs = 17; base = 16; off = 0 }), addr,
    cap_fault ]
  @ List.concat_map
      (fun (name, insn) ->
        List.map
          (fun (what, how) -> (name ^ " " ^ what, `Body insn, c20 how, cap_fault))
          [ "untagged", `Untagged; "sealed", `Sealed;
            "permission-stripped", `No_perms ])
      cap_mem
  @ List.map
      (fun (name, insn) -> (name ^ " sealed", `Body insn, c20 `Sealed, cap_fault))
      [ "CIncOffsetImm", Insn.CIncOffsetImm (21, 20, 8);
        "CIncOffset", Insn.CIncOffset (21, 20, 17);
        "CSetAddr", Insn.CSetAddr (21, 20, 17) ]
  @ [ "Div by zero", `Body (Insn.Div (17, 18, 16)), div_by, div_zero;
      "Rem by zero", `Body (Insn.Rem (17, 18, 16)), div_by, div_zero;
      "misaligned Jr", `Term (Insn.Jr 16),
      (fun bad -> li16 (if bad then trap_latch + 2 else trap_latch)), unaligned;
      (* c20: an executable root capability at L, untagged when bad. *)
      "untagged CJR", `Term (Insn.CJR 20),
      (fun bad ->
        [ Insn.Li (16, trap_latch); Insn.CSetAddr (20, 5, 16) ]
        @ if bad then [ Insn.CClearTag (20, 20) ] else []),
      cap_fault ]

let test_trap_classes () =
  let pad i = if i land 1 = 0 then Insn.Li (22, i) else Insn.Addu (23, 23, 22) in
  List.iter
    (fun (cls, site, arm, expect) ->
      let placements =
        match site with
        | `Body insn ->
          List.init 5 (fun p ->
            (p, (fun i -> if i = p then insn else pad i), Insn.J trap_latch))
        | `Term insn -> [ (5, pad, insn) ]
      in
      List.iter
        (fun (p, insn_at, term) ->
          List.iter
            (fun visit ->
              let name = Printf.sprintf "%s at slot %d, visit %d" cls p visit in
              let insns =
                program_at
                  [ (code_base, arm (visit = 1) @ [ Insn.J trap_block ]);
                    (trap_block, List.init 5 insn_at @ [ term ]);
                    (trap_latch, arm true @ [ Insn.J trap_block ]) ]
              in
              let bb, st, ctx, stop = chain_vs_step ~name insns in
              (match stop with
               | Some (Cpu.Stop_trap c) when expect c -> ()
               | s -> Alcotest.failf "%s: %s" name (stop_str s));
              Alcotest.(check int) (name ^ ": PC") (trap_block + (4 * p))
                (Cap.addr ctx.Cpu.pcc);
              (* Visit 1: the prologue and B run ordered. Visit 2: B's
                 first visit and L too; B's second runs resident. *)
              Alcotest.(check int) (name ^ ": blocks") (2 * visit)
                (executed st);
              Alcotest.(check int) (name ^ ": ordered blocks")
                (if visit = 1 then 2 else 3) bb.Bbcache.ordered)
            [ 1; 2 ])
        placements)
    trap_classes

(* --- The may-trap oracle ------------------------------------------------------------ *)

(* Every instruction form, with random in-range registers, immediates
   (small, huge and the extremes), widths and static targets (aligned or
   not). *)
let gen_any_insn =
  let open QCheck.Gen in
  let r = int_range 0 31 in
  let imm = oneof [ int_range (-64) 64; int; oneofl [ min_int; max_int ] ] in
  let tg = int_range code_base (code_base + 0x400) in
  let w = oneofl [ 1; 2; 4; 8 ] in
  let rr f = map2 f r r and rrr f = map3 f r r r and rri f = map3 f r r imm in
  oneof
    [ map2 (fun a v -> Insn.Li (a, v)) r imm;
      rr (fun a b -> Insn.Move (a, b));
      rrr (fun a b c -> Insn.Addu (a, b, c));
      rri (fun a b i -> Insn.Addiu (a, b, i));
      rrr (fun a b c -> Insn.Subu (a, b, c));
      rrr (fun a b c -> Insn.Mul (a, b, c));
      rrr (fun a b c -> Insn.Div (a, b, c));
      rrr (fun a b c -> Insn.Rem (a, b, c));
      rrr (fun a b c -> Insn.And_ (a, b, c));
      rri (fun a b i -> Insn.Andi (a, b, i));
      rrr (fun a b c -> Insn.Or_ (a, b, c));
      rri (fun a b i -> Insn.Ori (a, b, i));
      rrr (fun a b c -> Insn.Xor_ (a, b, c));
      rri (fun a b i -> Insn.Xori (a, b, i));
      rrr (fun a b c -> Insn.Nor_ (a, b, c));
      rri (fun a b i -> Insn.Sll (a, b, i land 63));
      rri (fun a b i -> Insn.Srl (a, b, i land 63));
      rri (fun a b i -> Insn.Sra (a, b, i land 63));
      rrr (fun a b c -> Insn.Sllv (a, b, c));
      rrr (fun a b c -> Insn.Srlv (a, b, c));
      rrr (fun a b c -> Insn.Srav (a, b, c));
      rrr (fun a b c -> Insn.Slt (a, b, c));
      rrr (fun a b c -> Insn.Sltu (a, b, c));
      rri (fun a b i -> Insn.Slti (a, b, i));
      rri (fun a b i -> Insn.Sltiu (a, b, i));
      map3 (fun a b t -> Insn.Beq (a, b, t)) r r tg;
      map3 (fun a b t -> Insn.Bne (a, b, t)) r r tg;
      map2 (fun a t -> Insn.Blez (a, t)) r tg;
      map2 (fun a t -> Insn.Bgtz (a, t)) r tg;
      map2 (fun a t -> Insn.Bltz (a, t)) r tg;
      map2 (fun a t -> Insn.Bgez (a, t)) r tg;
      map (fun t -> Insn.J t) tg;
      map (fun t -> Insn.Jal t) tg;
      map (fun a -> Insn.Jr a) r;
      rr (fun a b -> Insn.Jalr (a, b));
      map3 (fun (w, signed) (rd, base) off ->
          Insn.Load { w; signed; rd; base; off }) (pair w bool) (pair r r) imm;
      map3 (fun w (rs, base) off -> Insn.Store { w; rs; base; off })
        w (pair r r) imm;
      map3 (fun (w, signed) (rd, cb) off ->
          Insn.CLoad { w; signed; rd; cb; off }) (pair w bool) (pair r r) imm;
      map3 (fun w (rs, cb) off -> Insn.CStore { w; rs; cb; off })
        w (pair r r) imm;
      rri (fun cd cb off -> Insn.CLC { cd; cb; off });
      rri (fun cs cb off -> Insn.CSC { cs; cb; off });
      rr (fun a b -> Insn.CMove (a, b));
      rr (fun a b -> Insn.CGetBase (a, b));
      rr (fun a b -> Insn.CGetLen (a, b));
      rr (fun a b -> Insn.CGetAddr (a, b));
      rr (fun a b -> Insn.CGetOffset (a, b));
      rr (fun a b -> Insn.CGetPerm (a, b));
      rr (fun a b -> Insn.CGetTag (a, b));
      rr (fun a b -> Insn.CGetType (a, b));
      rrr (fun a b c -> Insn.CSetBounds (a, b, c));
      rri (fun a b i -> Insn.CSetBoundsImm (a, b, i));
      rrr (fun a b c -> Insn.CSetBoundsExact (a, b, c));
      rrr (fun a b c -> Insn.CAndPerm (a, b, c));
      rri (fun a b i -> Insn.CAndPermImm (a, b, i));
      rrr (fun a b c -> Insn.CIncOffset (a, b, c));
      rri (fun a b i -> Insn.CIncOffsetImm (a, b, i));
      rrr (fun a b c -> Insn.CSetAddr (a, b, c));
      rr (fun a b -> Insn.CClearTag (a, b));
      rrr (fun a b c -> Insn.CFromPtr (a, b, c));
      rrr (fun a b c -> Insn.CSeal (a, b, c));
      rrr (fun a b c -> Insn.CUnseal (a, b, c));
      rr (fun a b -> Insn.CRRL (a, b));
      rr (fun a b -> Insn.CRAM (a, b));
      map (fun a -> Insn.CJR a) r;
      rr (fun a b -> Insn.CJALR (a, b));
      map2 (fun a t -> Insn.CJAL (a, t)) r tg;
      map (fun a -> Insn.CReadDDC a) r;
      map (fun a -> Insn.CWriteDDC a) r;
      return Insn.Syscall;
      map (fun n -> Insn.Break n) (int_range 0 9);
      map (fun n -> Insn.Rt n) (int_range 0 9);
      return (Insn.Annot "a");
      return Insn.Nop ]

(* [Insn.can_trap] is the chain engine's trap-attribution contract: a
   closure for an instruction it calls safe records no index, so such an
   instruction must never trap. Checked against the step engine's
   semantics over random register files whose capabilities are tagged,
   untagged, sealed, zero-length or far out of bounds: [Cpu.exec_straight]
   must not raise on a safe straight-line instruction, and [Cpu.step]
   must not stop with a trap on a safe terminator. *)
let qcheck_can_trap =
  let m =
    lazy (Cpu.create_machine ~mem:(Tagmem.create ~size:mem_size)
            ~hier:(Cache.create_hierarchy ()))
  in
  let gpr =
    QCheck.Gen.(oneof [ int; int_range (-64) 64; oneofl [ min_int; max_int ] ])
  in
  let print (insn, gprs, caps) =
    Printf.sprintf "%s\n%s\n%s" (Insn.to_string insn)
      (String.concat " "
         (Array.to_list (Array.mapi (fun i v -> Printf.sprintf "r%d=%d" (i + 1) v) gprs)))
      (String.concat "\n"
         (Array.to_list
            (Array.mapi
               (fun i c -> Printf.sprintf "c%d=%s" (i + 1) (Cap.to_string c))
               caps)))
  in
  QCheck.Test.make ~name:"Insn.can_trap: a safe instruction never traps"
    ~count:3000
    (QCheck.make ~print
       QCheck.Gen.(triple gen_any_insn (array_repeat 31 gpr)
                     (array_repeat 31 Test_cap.gen_cap)))
    (fun (insn, gprs, caps) ->
      Insn.can_trap insn
      ||
      let m = Lazy.force m in
      let ctx = Cpu.create_ctx () in
      Array.iteri (fun i v -> ctx.Cpu.gpr.(i + 1) <- v) gprs;
      Array.iteri (fun i c -> Cpu.wr_creg ctx (i + 1) c) caps;
      let root = Cap.make_root ~base:0 ~top:mem_size () in
      ctx.Cpu.pcc <- Cap.set_addr root code_base;
      ctx.Cpu.ddc <- root;
      if Insn.is_terminator insn then begin
        m.Cpu.fetch <- (fun _ -> insn);
        match Cpu.step m ctx with
        | Some (Cpu.Stop_trap c) ->
          QCheck.Test.fail_reportf "%s trapped: %s" (Insn.to_string insn)
            (Trap.to_string c)
        | _ -> true
      end
      else
        match Cpu.exec_straight m ctx ~pc:code_base insn with
        | () -> true
        | exception e ->
          QCheck.Test.fail_reportf "%s raised %s" (Insn.to_string insn)
            (Printexc.to_string e))

(* Loads and stores of every width and signedness, through DDC and
   through a capability, at the last bytes of a frame (the granule at
   0x4ff0, which a CSC tags before every store so each store's tag clear
   is observed) and at the top of physical memory. *)
let test_mem_widths_frame_edges () =
  let widths = [ 1; 2; 4; 8 ] in
  let v = -0x1234_5678_9abc_de7f in
  let frame_end = data_base + 0x1000 in
  let top = mem_size in
  let acc = 13 and tags = 12 and tmp = 14 and tagged = 10 in
  let dst = ref 15 in
  let access ~cap ~at w =
    (* [at] is the end of the region: the access covers [at - w, at). *)
    let a = at - w in
    let r_u = !dst and r_s = !dst + 1 in
    dst := !dst + 2;
    let mem_ops =
      if cap then
        (* c21 points at [a] (c5 is a root capability). *)
        [ Insn.Li (tmp, a); Insn.CSetAddr (21, 5, tmp);
          Insn.CStore { w; rs = acc; cb = 21; off = 0 };
          Insn.CLoad { w; signed = false; rd = r_u; cb = 21; off = 0 };
          Insn.CLoad { w; signed = true; rd = r_s; cb = 21; off = 0 } ]
      else
        [ Insn.Li (tmp, a);
          Insn.Store { w; rs = acc; base = tmp; off = 0 };
          Insn.Load { w; signed = false; rd = r_u; base = tmp; off = 0 };
          Insn.Load { w; signed = true; rd = r_s; base = tmp; off = 0 } ]
    in
    let granule = (at - 16) - data_base in
    let tag_check =
      if at = frame_end then
        (* c1 covers the data region: tag the granule (counted in
           [tagged]), store, and add the granule's tag, which the store
           must clear, to [tags]. *)
        [ Insn.CSC { cs = 1; cb = 1; off = granule };
          Insn.CLC { cd = 20; cb = 1; off = granule };
          Insn.CGetTag (11, 20); Insn.Addu (tagged, tagged, 11) ]
        @ mem_ops
        @ [ Insn.CLC { cd = 20; cb = 1; off = granule };
            Insn.CGetTag (11, 20); Insn.Addu (tags, tags, 11) ]
      else mem_ops
    in
    tag_check @ [ Insn.Addiu (acc, acc, 0x1111) ]
  in
  (* One program per region: eight accesses, two destination registers
     each (r15..r30). *)
  List.iter
    (fun at ->
      dst := 15;
      let body =
        List.concat_map
          (fun cap -> List.concat_map (fun w -> access ~cap ~at w) widths)
          [ false; true ]
      in
      let insns =
        Array.of_list
          ([ Insn.Li (acc, v); Insn.Li (tags, 0); Insn.Li (tagged, 0) ]
           @ body @ [ Insn.Break 0 ])
      in
      let name = Printf.sprintf "widths ending at 0x%x" at in
      let _, _, ctx, stop = chain_vs_step ~name insns in
      (match stop with
       | Some (Cpu.Stop_trap (Trap.Break_trap 0)) -> ()
       | s -> Alcotest.failf "%s: %s" name (stop_str s));
      Alcotest.(check int) (name ^ ": granule tagged before each store")
        (if at = frame_end then 8 else 0) ctx.Cpu.gpr.(tagged);
      Alcotest.(check int) (name ^ ": stores cleared every tag") 0
        ctx.Cpu.gpr.(tags);
      (* The first access is the DDC byte load of v's low byte, 0x81. *)
      Alcotest.(check int) (name ^ ": u8") 0x81 ctx.Cpu.gpr.(15);
      Alcotest.(check int) (name ^ ": s8") (-0x7f) ctx.Cpu.gpr.(16))
    [ frame_end; top ]

(* --- The memory closures' hit paths ---------------------------------------

   A load or store closure runs a side-effect-free precheck (capability,
   alignment, a dTLB hit in either way, a DL1 hit and, for a store, a
   frame with its own buffer and an untagged granule), commits only if
   all of it holds, and otherwise tail-calls the in-order path. One
   program per reason the precheck can fail, for each of [Load] (through
   DDC), [CLoad] and [CStore]: the whole machine must match the step
   engine's, and the probe and dTLB counters must be exactly those of one
   probe per access and one dTLB lookup per access that reaches the
   translate. *)

type mem_kind = Ld | CLd | CSt

let kind_name = function Ld -> "load" | CLd -> "cload" | CSt -> "cstore"

(* Register [8 + i] holds base address [i] and capability register
   [21 + i] a root capability pointing at it (c5 is a root); r15 is the
   value every store writes. *)
let at_bases bases =
  Insn.Li (15, -0x1234_5678_9abc_de7f)
  :: List.concat
       (List.mapi
          (fun i a -> [ Insn.Li (8 + i, a); Insn.CSetAddr (21 + i, 5, 8 + i) ])
          bases)

(* An access of [kind] at base [i] + [off]. Loads go to r16..r23 in turn,
   so the snapshot shows each value. *)
let next_rd = ref 16

let mem_at kind ?(w = 8) ?(signed = false) i off =
  let rd = !next_rd in
  next_rd := if rd = 23 then 16 else rd + 1;
  match kind with
  | Ld -> Insn.Load { w; signed; rd; base = 8 + i; off }
  | CLd -> Insn.CLoad { w; signed; rd; cb = 21 + i; off }
  | CSt -> Insn.CStore { w; rs = 15; cb = 21 + i; off }

(* A DDC store, and a DDC load, at base [i] + [off]. *)
let store_at i off = Insn.Store { w = 8; rs = 15; base = 8 + i; off }
let load_at i off = Insn.Load { w = 8; signed = false; rd = 24; base = 8 + i; off }

(* Run [body] on both engines and check the chain engine's counters:
   [probes] accesses, [hits] dTLB hits and [misses] dTLB misses. *)
let hit_path_case ~name ~probes ~hits ~misses ?(expect = "trap: break 0")
    bases body =
  next_rd := 16;
  let insns = Array.of_list (at_bases bases @ body @ [ Insn.Break 0 ]) in
  let bb, st, ctx, stop = chain_vs_step ~name insns in
  Alcotest.(check string) (name ^ ": stop") expect (stop_str stop);
  Alcotest.(check int) (name ^ ": checked_probes") probes
    bb.Bbcache.checked_probes;
  Alcotest.(check int) (name ^ ": dTLB hits") hits st.Bbcache.ch_dtlb_hits;
  Alcotest.(check int) (name ^ ": dTLB misses") misses
    st.Bbcache.ch_dtlb_misses;
  ctx

let kinds = [ Ld; CLd; CSt ]

(* Pages 4, 6 and 8 share dTLB set 0. After 4 and 6 miss, 4 hits in the
   second way and swaps into the MRU way, so 8's miss evicts 6, not 4:
   4 hits again (and swaps again), and 6 misses. *)
let test_hit_dtlb_swap () =
  List.iter
    (fun k ->
      let m = mem_at k in
      ignore
        (hit_path_case ~name:(kind_name k ^ ": dTLB second-way swap")
           ~probes:6 ~hits:2 ~misses:4 [ 0x4000; 0x6000; 0x8000 ]
           [ m 0 0; m 1 0; m 0 8; m 2 0; m 0 16; m 1 8 ]))
    kinds

(* A DL1 miss on a dTLB hit (the next line of a page), then hits on that
   line, each width; then the first line is evicted by four accesses of
   the other dTLB side to lines of its DL1 set, and misses again on a
   dTLB hit. *)
let test_hit_dl1_miss () =
  List.iter
    (fun k ->
      let m = mem_at k in
      let evict =
        List.init 4 (fun i -> if k = CSt then load_at (i + 1) 0 else store_at (i + 1) 0)
      in
      ignore
        (hit_path_case ~name:(kind_name k ^ ": DL1 miss, then hit")
           ~probes:12 ~hits:7 ~misses:5
           [ 0x4000; 0x6000; 0x8000; 0xa000; 0xc000 ]
           ([ m 0 0; m ~w:4 0 64; m ~w:2 ~signed:true 0 72; m ~w:1 0 65;
              m ~w:4 ~signed:true 0 68; m 0 64 ]
            @ evict @ [ m 0 0; m 0 8 ])))
    kinds

(* Page 6 is a frame nobody has written: loads read the shared zero
   frame, and the first store into it (a dTLB miss on the write side)
   gives it its own buffer, after which stores hit. *)
let test_hit_first_store () =
  List.iter
    (fun k ->
      let m = mem_at k in
      let fresh = Tagmem.create ~size:4096 in
      ignore
        (hit_path_case ~name:(kind_name k ^ ": first store into a frame")
           ~probes:6 ~hits:(if k = CSt then 5 else 4)
           ~misses:(if k = CSt then 1 else 2) [ 0x6000 ]
           [ m 0 0; m 0 8; store_at 0 16; m 0 16; m 0 24; store_at 0 32 ]);
      Alcotest.(check bool) "shared zero frame still zero" true
        (Tagmem.is_zero fresh 0 4096))
    kinds

(* A CSC tags the granule at 0x4100; a store over it takes the in-order
   path, which clears the tag, so a CLC then reads it untagged (r25 = 0)
   and the next access hits. *)
let test_hit_tagged_granule () =
  List.iter
    (fun k ->
      let m = mem_at k in
      let ctx =
        hit_path_case ~name:(kind_name k ^ ": store over a tagged granule")
          ~probes:5 ~hits:3 ~misses:2 [ 0x4000 ]
          [ Insn.CSC { cs = 1; cb = 1; off = 0x100 }; m 0 0x100;
            store_at 0 0x108; Insn.CLC { cd = 20; cb = 1; off = 0x100 };
            Insn.CGetTag (25, 20); m 0 0x100 ]
      in
      Alcotest.(check int) (kind_name k ^ ": CLC reads it untagged") 0
        ctx.Cpu.gpr.(25))
    kinds

(* A misaligned access, and one past the capability's top, right after
   a hit in the same block: the trap names the third access, whose
   fallback records it (the hit before it records nothing), and the
   prefix through it is charged. *)
let test_hit_then_trap () =
  List.iter
    (fun k ->
      let m = mem_at k in
      List.iter
        (fun (what, off, expect) ->
          let name = Printf.sprintf "%s: %s after a hit" (kind_name k) what in
          let ctx =
            hit_path_case ~name ~probes:3 ~hits:1 ~misses:1 ~expect [ 0x4000 ]
              [ m 0 0; m 0 8; m 0 off ]
          in
          (* Li r15, Li r8 and CSetAddr, then the accesses at 0x100c.. ;
             both engines count the trapping instruction in [instret]. *)
          Alcotest.(check int) (name ^ ": PC") (code_base + 20)
            (Cap.addr ctx.Cpu.pcc);
          Alcotest.(check int) (name ^ ": instret") 6 ctx.Cpu.instret)
        [ "misaligned", 12, "trap: unaligned access vaddr=0x400c width=8";
          "capability fault", mem_size - 0x4000,
          Printf.sprintf "trap: capability fault (%s) reg=%d vaddr=0x%x"
            (Cap.violation_to_string Cap.Bounds_violation)
            (if k = Ld then -2 else 21) mem_size ])
    kinds

(* 8-byte accesses in the last granule of frame 4 and of memory (frame
   15, never written): the first of each misses, the rest hit. *)
let test_hit_last_granules () =
  List.iter
    (fun k ->
      let m = mem_at k in
      ignore
        (hit_path_case ~name:(kind_name k ^ ": last granule of a frame, of memory")
           ~probes:6 ~hits:4 ~misses:2 [ 0x4ff0; mem_size - 16 ]
           [ m 0 8; m 0 0; m 0 8; m 1 8; m 1 0; m 1 8 ]))
    kinds

(* A memory that ends 16 bytes into its last page: an access past the
   end, in a page and a DL1 line that an access just below it put in the
   dTLB and the DL1, still raises the range error on both engines, because
   the chain engine takes its hit path only on a memory of whole pages. *)
let test_hit_partial_page () =
  let size = mem_size - 16 in
  let insns =
    [| Insn.Li (8, size - 16);
       Insn.Load { w = 8; signed = false; rd = 16; base = 8; off = 0 };
       Insn.Load { w = 8; signed = false; rd = 17; base = 8; off = 16 };
       Insn.Break 0 |]
  in
  List.iter
    (fun engine ->
      let m, ctx, _ = setup ~size insns 3 in
      match
        (match engine with
         | `Step -> Cpu.run m ctx ~fuel
         | `Chain -> Bbcache.run (Bbcache.create ()) m ctx ~fuel)
      with
      | exception Invalid_argument _ -> ()
      | s -> Alcotest.failf "no range error past a partial page: %s" (stop_str s))
    [ `Step; `Chain ]

(* Past the top of physical memory, under a capability whose bounds
   reach beyond it, every compiled width still hits [Tagmem.check]: the
   run raises instead of reading or writing outside the frames. *)
let test_mem_widths_past_top () =
  let big = Cap.make_root ~base:0 ~top:(2 * mem_size) () in
  List.iter
    (fun (name, access) ->
      let insns =
        [| Insn.Li (14, mem_size); Insn.CSetAddr (21, 20, 14); access;
           Insn.Break 0 |]
      in
      List.iter
        (fun engine ->
          let m, ctx, _ = setup insns 5 in
          ctx.Cpu.ddc <- big;
          Cpu.wr_creg ctx 20 big;
          let bb = Bbcache.create () in
          match
            (match engine with
             | `Step -> Cpu.run m ctx ~fuel
             | `Chain -> Bbcache.run bb m ctx ~fuel)
          with
          | exception Invalid_argument _ ->
            if engine = `Chain then
              Alcotest.(check int) (name ^ ": the compiled closure probed") 1
                bb.Bbcache.checked_probes
          | s -> Alcotest.failf "%s: no range error, %s" name (stop_str s))
        [ `Step; `Chain ])
    (List.concat_map
       (fun w ->
         [ Printf.sprintf "load u%d" w,
           Insn.Load { w; signed = false; rd = 15; base = 14; off = 0 };
           Printf.sprintf "load s%d" w,
           Insn.Load { w; signed = true; rd = 15; base = 14; off = 0 };
           Printf.sprintf "store %d" w,
           Insn.Store { w; rs = 15; base = 14; off = 0 };
           Printf.sprintf "cload u%d" w,
           Insn.CLoad { w; signed = false; rd = 15; cb = 21; off = 0 };
           Printf.sprintf "cload s%d" w,
           Insn.CLoad { w; signed = true; rd = 15; cb = 21; off = 0 };
           Printf.sprintf "cstore %d" w,
           Insn.CStore { w; rs = 15; cb = 21; off = 0 } ])
       [ 1; 2; 4; 8 ]
     @ [ "clc", Insn.CLC { cd = 15; cb = 21; off = 0 };
         "csc", Insn.CSC { cs = 1; cb = 21; off = 0 } ])

(* A register operand outside either file makes a reserved instruction:
   a precise trap, not a host exception. [Cpu.decode] checks the operands
   in both engines; the chain engine ends the block before the bad
   instruction, so the step fallback raises the trap with the same stop,
   PC, instret and cycles (the snapshot holds all four). *)
let test_reserved_register_operands () =
  List.iter
    (fun (name, bad) ->
      let insns =
        [| Insn.Addiu (8, 8, 1); Insn.Addiu (9, 9, 2); bad; Insn.Break 0 |]
      in
      let _, _, ctx, stop = chain_vs_step ~name insns in
      (match stop with
       | Some (Cpu.Stop_trap Trap.Reserved_instruction) -> ()
       | s -> Alcotest.failf "%s: expected a reserved instruction, got %s"
                name (stop_str s));
      Alcotest.(check int) (name ^ ": PCC names it") (code_base + 8)
        (Cap.addr ctx.Cpu.pcc);
      Alcotest.(check int) (name ^ ": it does not retire") 2 ctx.Cpu.instret)
    [ "addu rs=40", Insn.Addu (3, 40, 1);
      "addu rd=40", Insn.Addu (40, 1, 1);
      "jr -1", Insn.Jr (-1);
      "cmove cb=40", Insn.CMove (3, 40) ]

(* An instruction whose destination is r0 does everything but the write,
   which lands in the sink slot: r0 (slot 0) still reads 0 afterwards. *)
let test_r0_destinations () =
  let t0 = 12 in
  let r0_zero name ctx =
    Alcotest.(check int) (name ^ ": r0 slot") 0 ctx.Cpu.gpr.(0)
  in
  (* A load into r0 still probes the capability, translates and charges
     the cache; then [Move] copies r0 out. *)
  let insns =
    [| Insn.Li (t0, data_base + 8); Insn.Li (t0 + 1, 77);
       Insn.Load { w = 8; signed = false; rd = 0; base = t0; off = 0 };
       Insn.Move (t0 + 1, 0); Insn.Break 0 |]
  in
  let bb, st, ctx, stop = chain_vs_step ~name:"load into r0" insns in
  (match stop with
   | Some (Cpu.Stop_trap (Trap.Break_trap 0)) -> ()
   | s -> Alcotest.failf "load into r0: %s" (stop_str s));
  Alcotest.(check int) "load into r0: probed" 1 bb.Bbcache.checked_probes;
  Alcotest.(check int) "load into r0: translated" 1
    (st.Bbcache.ch_dtlb_hits + st.Bbcache.ch_dtlb_misses);
  Alcotest.(check int) "load into r0: r0 reads 0" 0 ctx.Cpu.gpr.(t0 + 1);
  r0_zero "load" ctx;
  (* ... and can fault: DDC ends at [mem_size]. *)
  let insns =
    [| Insn.Li (t0, mem_size);
       Insn.Load { w = 8; signed = true; rd = 0; base = t0; off = 0 };
       Insn.Break 0 |]
  in
  let _, _, ctx, stop = chain_vs_step ~name:"faulting load into r0" insns in
  (match stop with
   | Some (Cpu.Stop_trap (Trap.Cap_fault _)) -> ()
   | s -> Alcotest.failf "faulting load into r0: %s" (stop_str s));
  Alcotest.(check int) "faulting load into r0: PC" (code_base + 4)
    (Cap.addr ctx.Cpu.pcc);
  r0_zero "faulting load" ctx;
  (* A division into r0 by zero still traps. *)
  let insns =
    [| Insn.Li (t0, 5); Insn.Li (t0 + 1, 0); Insn.Div (0, t0, t0 + 1);
       Insn.Break 0 |]
  in
  let _, _, ctx, stop = chain_vs_step ~name:"div into r0" insns in
  (match stop with
   | Some (Cpu.Stop_trap Trap.Div_by_zero) -> ()
   | s -> Alcotest.failf "div into r0: %s" (stop_str s));
  Alcotest.(check int) "div into r0: PC" (code_base + 8) (Cap.addr ctx.Cpu.pcc);
  r0_zero "div" ctx;
  (* Jalr with rd = 0 jumps and links nowhere. *)
  let insns =
    [| Insn.Li (t0, code_base + 16); Insn.Li (t0 + 1, 77);
       Insn.Jalr (0, t0); Insn.Break 1;
       (* 0x1010: *)
       Insn.Move (t0 + 1, 0); Insn.Break 0 |]
  in
  let _, _, ctx, stop = chain_vs_step ~name:"jalr rd=0" insns in
  (match stop with
   | Some (Cpu.Stop_trap (Trap.Break_trap 0)) -> ()
   | s -> Alcotest.failf "jalr rd=0: %s" (stop_str s));
  Alcotest.(check int) "jalr rd=0: r0 reads 0" 0 ctx.Cpu.gpr.(t0 + 1);
  r0_zero "jalr" ctx

(* A chain crossing an entry the analysis proves partly safe: the
   successor block is first reached as a *chained* target (never through
   the dispatch loop), and the flow pass discharges its second CLoad's
   check. The engine consults no facts: the chained-into block still
   probes both accesses, as the CHERI hardware checks every one. *)
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
  let module Absint = Cheri_analysis.Absint in
  let r = Absint.verify ~entries:[ code_base ] [ (code_base, insns) ] in
  Alcotest.(check (list int)) "the flow pass discharges the second load"
    [ code_base + 0x10 ] r.Absint.r_discharged;
  let bb, st, _, _ = chain_vs_step ~name:"chain over elided entry" insns in
  Alcotest.(check bool) "the cross-edge chained" true
    (st.Bbcache.ch_chained >= 1);
  Alcotest.(check int) "both loads probed" 2 bb.Bbcache.checked_probes

(* Trap attribution after checked memory accesses: two accesses through
   c1, padding to the end of the first I-cache line group (16 insns), then
   a Div whose divisor was loaded from memory (zero at run time) in the
   second group. The chain engine runs one checked closure per
   instruction, and the trap must carry the Div's own PC, not that of the
   block head or of an earlier access. *)
let test_chain_fused_trap_attribution () =
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
  let bb, _, ctx, stop = chain_vs_step ~name:"fused-group trap" insns in
  Alcotest.(check int) "both accesses probed" 2 bb.Bbcache.checked_probes;
  (match stop with
   | Some (Cpu.Stop_trap Trap.Div_by_zero) -> ()
   | s -> Alcotest.failf "expected divide-by-zero, got %s" (stop_str s));
  Alcotest.(check int) "PCC names the Div, not the block head"
    (code_base + 0x40) (Cap.addr ctx.Cpu.pcc)

(* Fuel expiry inside a run of memory accesses: sweep every fuel value
   over a hot loop whose body is a run of adjacent accesses on one line,
   so the quantum regularly expires with the run partially or wholly
   retired; the engine must land on exactly the step engine's state. Then
   resume one cache in prime-sized chunks (q=37, the kernel's
   tiny-quantum shape) and check the same final snapshot, with every
   access of the run probed. *)
let test_chain_fuel_mid_fused_group () =
  let insns =
    [| Insn.Li (8, 0);
       Insn.Li (9, 60);
       (* loop head, 0x1008: adjacent accesses on one line *)
       Insn.CLoad { w = 8; signed = false; rd = 10; cb = 1; off = 0 };
       Insn.CLoad { w = 8; signed = false; rd = 11; cb = 1; off = 8 };
       Insn.Addiu (10, 10, 1);
       Insn.CStore { w = 8; rs = 10; cb = 1; off = 0 };
       Insn.Addiu (8, 8, 1);
       Insn.Bne (8, 9, code_base + 8);
       Insn.Break 0 |]
  in
  for f = 1 to 100 do
    let m_s, ctx_s, mem_s = setup insns 11 in
    let stop_s = Cpu.run m_s ctx_s ~fuel:f in
    let s_step = snapshot stop_s m_s ctx_s mem_s in
    let m, ctx, mem = setup insns 11 in
    let bb = Bbcache.create () in
    let stop = Bbcache.run bb m ctx ~fuel:f in
    Alcotest.(check string) (Printf.sprintf "fused fuel=%d" f)
      s_step (snapshot stop m ctx mem)
  done;
  let m, ctx, mem = setup insns 11 in
  let bb = Bbcache.create () in
  let stop = ref None and remaining = ref 500 in
  while !stop = None && !remaining > 0 do
    let f = min 37 !remaining in
    stop := Bbcache.run bb m ctx ~fuel:f;
    remaining := !remaining - f
  done;
  let m_s, ctx_s, mem_s = setup insns 11 in
  let stop_s = Cpu.run m_s ctx_s ~fuel:500 in
  Alcotest.(check string) "q=37 resume through the access loop"
    (snapshot stop_s m_s ctx_s mem_s) (snapshot !stop m ctx mem);
  Alcotest.(check bool) "quanta expired inside the loop body" true
    (bb.Bbcache.step_falls > 0);
  Alcotest.(check bool) "the accesses were probed" true
    (bb.Bbcache.checked_probes > 0)

(* mprotect between two runs of a chained hot loop must sever every chain
   link: the pmap generation bump flushes the decoded blocks, and the
   second half of the program re-translates instead of running stale
   closures. Exercised end-to-end through the kernel, under both ABIs. *)
let test_chain_mprotect_severs () =
  let expect =
    let acc = ref 0 in
    for i = 0 to 2999 do acc := !acc + (i mod 7) done;
    for i = 0 to 2999 do acc := !acc + (i mod 5) done;
    string_of_int !acc
  in
  List.iter
    (fun abi ->
      let k = Runtime.boot ~engine:Cpu.Chain () in
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
        (bb.Bbcache.built > built0))
    [ Abi.Mips64; Abi.Cheriabi ]

(* --- Per-address-space block tables ------------------------------------------- *)

(* A kernel on [engine] with [progs] installed, as (path, image) pairs.
   Simulated RAM is small because [Snapshot.memory] digests all of it. *)
let boot_engine ~engine ?quantum ~abi progs =
  let k = Runtime.boot ~mem_size:(4 * 1024 * 1024) ~engine ?quantum () in
  List.iter
    (fun (path, image) ->
      Cheri_kernel.Vfs.add_exe k.Kstate.vfs path ~abi image)
    progs;
  k

(* Run the machine to quiescence; [p] must exit 0. Its final snapshot,
   with every cache level's whole state. *)
let finish k (p : Proc.t) =
  let _ = Kernel.run k in
  let status = Kernel.status_of k p.Proc.pid in
  if status <> Some (Proc.Exited 0) then
    Alcotest.failf "%s did not exit cleanly (%s)" p.Proc.comm
      (String.concat "; " p.Proc.fault_log);
  Snapshot.machine k p status ^ Snapshot.caches (Kstate.hierarchy k)

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
   the old code. *)
let test_space_exec_same_addresses () =
  let images abi =
    ( Stdlib_src.build_image ~abi ~name:"parent" exec_parent_src,
      Stdlib_src.build_image ~abi ~name:"other" exec_other_src )
  in
  let mips = images Abi.Mips64 and cheri = images Abi.Cheriabi in
  List.iter
    (fun (abi, (parent, other)) ->
      Alcotest.(check int) "both images share their text base"
        (text_base abi parent) (text_base abi other);
      let run engine =
        let k =
          boot_engine ~engine ~quantum:300 ~abi
            [ "/bin/parent", parent; "/bin/other", other ]
        in
        let p = Kernel.spawn k ~path:"/bin/parent" ~argv:[ "parent" ] () in
        finish k p
      in
      let want = run Cpu.Step in
      Alcotest.(check string)
        (Abi.to_string abi ^ ": chain snapshot equals step's")
        want (run Cpu.Chain))
    [ Abi.Mips64, mips; Abi.Cheriabi, cheri ]

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

(* Exec replacing an image that ran starts a new counter epoch: the
   engine's chain/IC and probe counters restart, so the old program's
   rates do not leak into the new one's. Spawning a process (exec into a
   fresh table) keeps them. *)
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
  let b = Kernel.spawn k ~path:"/bin/hot" ~argv:[ "b" ] () in
  Alcotest.(check int) "spawn keeps chain entries" entries
    bb.Bbcache.chain_entries;
  let _ = Kernel.run ~max_steps:20_000 k in
  Cheri_kernel.Exec.exec_image k a ~abi ~image ~argv:[ "a" ] ~envv:[];
  Alcotest.(check int) "exec resets chain entries" 0
    bb.Bbcache.chain_entries;
  Alcotest.(check int) "exec resets checked probes" 0 bb.Bbcache.checked_probes;
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

(* The chain engine against step on a booted machine: the same final
   snapshot (registers, console, syscall and allocator counters, every
   cache level's whole state, memory and tag digests), in particular the
   same preemption points when [quantum] forces timeslices to expire
   inside blocks and chains. Two programs: the directed one above, and
   MiBench security-sha, the first kernel of the Fig. 4 mix. *)
let check_parity ?quantum abi =
  List.iter
    (fun (name, src) ->
      let label =
        Printf.sprintf "%s %s chain%s" name (Abi.to_string abi)
          (match quantum with None -> "" | Some q -> Printf.sprintf " q=%d" q)
      in
      let image = Stdlib_src.build_image ~abi ~name src in
      let path = "/bin/" ^ name in
      let run engine =
        let k = boot_engine ~engine ?quantum ~abi [ path, image ] in
        finish k (Kernel.spawn k ~path ~argv:[ name ] ())
      in
      Alcotest.(check string) (label ^ ": snapshot") (run Cpu.Step)
        (run Cpu.Chain))
    [ "parity", parity_src;
      "security-sha",
      Option.get (Cheri_workloads.Mibench.find "security-sha") ]

let test_kernel_parity () =
  check_parity Abi.Mips64;
  check_parity Abi.Cheriabi

(* Allocation budget of the chain engine's hot path: a compute-bound
   program run to completion on a booted machine may allocate at most
   [bound] OCaml minor words per retired instruction. Only the run is
   measured — compile, boot and spawn are outside the window. Per-access
   closures or boxed values on the execution path (a local [let rec] in a
   cache way search costs a closure per line group; a fresh [Cap.t] per
   capability-register write costs seven words) show up here long before
   they show up as time. One row per ABI, each bound about twice what the
   engine measures: mips64 security-sha (0.105 when set), and CheriABI
   network-dijkstra, whose pointer arithmetic and capability loads run
   through the unboxed register file. *)
let chain_minor_words ~abi ~bench ~bound () =
  let image =
    Stdlib_src.build_image ~abi ~name:bench
      (Option.get (Cheri_workloads.Mibench.find bench))
  in
  let k = Runtime.boot ~engine:Cpu.Chain () in
  Cheri_kernel.Vfs.add_exe k.Kstate.vfs ("/bin/" ^ bench) ~abi image;
  let p = Kernel.spawn k ~path:("/bin/" ^ bench) ~argv:[ bench ] () in
  let w0 = Gc.minor_words () in
  let _ = Kernel.run k in
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool) "program exited 0" true
    (Kernel.status_of k p.Proc.pid = Some (Proc.Exited 0));
  let insns = p.Proc.ctx.Cpu.instret in
  let per_insn = words /. float_of_int insns in
  if per_insn > bound then
    Alcotest.failf "%s/%s: %.0f minor words over %d instructions = %.3f per insn > %g"
      (Abi.to_string abi) bench words insns per_insn bound;
  (* The run must have used the engine's fast paths at all: every kernel
     has monomorphic hot back edges (inline-cache hits, chained blocks)
     and reloads the same pages (data-side TLB hits). *)
  let ch = Bbcache.chain_stats k.Kstate.bb in
  List.iter
    (fun (what, n) ->
      if n = 0 then
        Alcotest.failf "%s/%s: chain run never %s" (Abi.to_string abi) bench
          what)
    [ "hit an inline cache", ch.Bbcache.ch_ic_hits;
      "chained a block", ch.Bbcache.ch_chained;
      "hit the data-side TLB", ch.Bbcache.ch_dtlb_hits ]

let test_chain_minor_words () =
  chain_minor_words ~abi:Abi.Mips64 ~bench:"security-sha" ~bound:0.2 ();
  chain_minor_words ~abi:Abi.Cheriabi ~bench:"network-dijkstra" ~bound:0.11 ()

let test_kernel_parity_tiny_quantum () =
  (* A prime quantum far below block size: almost every timeslice ends
     mid-block, so the fuel fallback path carries real weight. *)
  check_parity ~quantum:37 Abi.Cheriabi

let suite =
  [ "differential fuzz: step vs chain", `Quick, test_fuzz_engines;
    "PCC bounds mid-block", `Quick, test_pcc_midblock_bounds;
    "CRRL/CRAM out of range", `Quick, test_crrl_cram_out_of_range;
    "reserved register operands", `Quick, test_reserved_register_operands;
    "r0 destinations", `Quick, test_r0_destinations;
    "chain: self-loop", `Quick, test_chain_self_loop;
    "chain: ping-pong", `Quick, test_chain_ping_pong;
    "chain: megamorphic Jr inline cache", `Quick, test_chain_ic_megamorphic;
    "chain: monomorphic CJR inline cache", `Quick, test_chain_cjr_monomorphic;
    "chain: megamorphic CJR inline cache", `Quick, test_chain_cjr_megamorphic;
    "chain: fuel boundaries", `Quick, test_chain_fuel_boundaries;
    "chain: crosses facts-elided entry", `Quick, test_chain_crosses_elided_entry;
    "chain: mid-chain trap attribution", `Quick, test_chain_trap_attribution;
    "fetch: IL1 set conflict", `Quick, test_fetch_set_conflict;
    "fetch: trap prefix in a two-line block", `Quick, test_fetch_trap_prefix;
    "fetch: fuel expiry in a two-line block", `Quick, test_fetch_fuel_midblock;
    "traps: every class, slot and fetch path", `Quick, test_trap_classes;
    "memory widths at frame and memory ends", `Quick,
    test_mem_widths_frame_edges;
    "memory widths past the top of memory", `Quick, test_mem_widths_past_top;
    "hit path: dTLB second-way swap", `Quick, test_hit_dtlb_swap;
    "hit path: DL1 miss, then hit", `Quick, test_hit_dl1_miss;
    "hit path: first store into a frame", `Quick, test_hit_first_store;
    "hit path: store over a tagged granule", `Quick, test_hit_tagged_granule;
    "hit path: trap right after a hit", `Quick, test_hit_then_trap;
    "hit path: last granule of a frame and of memory", `Quick,
    test_hit_last_granules;
    "hit path: a memory of partial pages", `Quick, test_hit_partial_page;
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
    "kernel parity", `Quick, test_kernel_parity;
    "chain minor words per instruction", `Quick, test_chain_minor_words;
    "kernel parity, tiny quantum", `Quick, test_kernel_parity_tiny_quantum ]
  (* A pinned seed, like every gate in the suite. *)
  @ [ QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 21 |])
        qcheck_can_trap ]
