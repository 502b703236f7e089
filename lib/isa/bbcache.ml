(* Decoded basic-block cache: the simulator's fast execution engine.

   [Cpu.step] pays a fixed per-instruction tax — a PCC execute/bounds
   check, a translate callback, a fetch indirection, the big match
   dispatch, and a fresh [Cap.set_addr] allocation to commit the PC. This
   engine translates maximal straight-line instruction runs ("superblocks"
   keyed by entry pc) into arrays of pre-resolved OCaml closures, then:

   - hoists the per-instruction PCC execute check into one per-block
     tag/seal/perm/bounds check ([block_ok]);
   - keeps the PC as an implicit cursor (entry + 4*i) and materializes a
     capability only at block exits, traps and stops;
   - memoizes the instruction-side translate at page granularity within
     one [run] (the kernel only remaps/evicts pages *between* runs, so a
     (vpage -> frame) pair cannot go stale mid-run; the memo is reset on
     every entry);
   - skips the per-instruction fetch: decoding happened at build time;
   - chains blocks: a block exit resolves its successor through a patched
     direct link (fall-through) or a monomorphic inline cache (jumps,
     capability jumps), entering the next translated block without
     returning to the dispatch loop — threaded code in the
     Deutsch/Schiffman sense, with fuel checked per chained entry and the
     PCC commit deferred until the chain exits.

   Accounting: [Cache.ifetch] probes and cycle accounting are batched per
   64-byte instruction line rather than charged per instruction — sound
   only because the batch is *provably* observation-equivalent: the head
   fetch of each line runs as a real in-order probe (the only one that can
   reach the shared L2), and the follow-on fetches are guaranteed IL1 hits whose
   state effects commute with interleaved data accesses (IL1 shares no
   state with DL1/L2; cycles and instret are sums). See [exec_block] and
   [Cache.repeat_hits]. The contract (docs/INTERP.md) is that [instret],
   [cycles], per-level cache statistics, trap causes and PCs, and all
   architectural state are bit-identical to [Cpu.step]; the differential
   fuzzer (test/test_engines.ml) and the kernel parity tests enforce it.

   Whenever a block cannot be run exactly — PCC that does not cover the
   whole block, fuel that would expire mid-block, an undecodable entry —
   the engine falls back to [Cpu.step] for one instruction, which is
   always exact. Invalidation (context switch, exec, munmap/mprotect via
   the pmap generation) is the caller's job: see [invalidate] and the
   [map_gen] argument. *)

module Cap = Cheri_cap.Cap
module Perms = Cheri_cap.Perms
module Cache = Cheri_tagmem.Cache
module Tagmem = Cheri_tagmem.Tagmem

let page_shift = Cheri_tagmem.Phys.page_shift
let page_mask = Cheri_tagmem.Phys.page_size - 1

(* How a block hands control back to the dispatch loop. *)
type exit_ =
  | Fall                   (* fall through to entry + 4*ilen *)
  | Jump of int            (* taken branch/jump within the current PCC *)
  | Jump_pcc of Cap.t      (* capability jump: replace PCC wholesale *)
  | Stopped of Cpu.stop    (* syscall/rt upcall; PC already committed *)

(* Block body: accounting is *batched* per I-cache line instead of being
   inlined into every closure. [sem] holds pure-semantics closures;
   [groups] partitions the body indices into maximal runs that share one
   64-byte instruction line (the entry pc is fixed per block, so the line
   phase is static); [basesum.(i)] is the sum of base cycles of
   body insns [0, i). Per group, the head instruction does the one real
   [Cache.ifetch] probe — the only probe that can reach the L2 — and every
   follow-on fetch in the line is a guaranteed IL1 hit whose effects
   (clock, LRU stamp, hit count, one cycle) are committed in a single
   batch at group end, or partially on a mid-group trap. See
   [Cache.repeat_hits] for why the batch is observationally identical. *)
type sem_body = {
  sem : (Cpu.ctx -> unit) array;
  groups : int array;                  (* (start lsl 16) lor length, per line *)
  basesum : int array;                 (* prefix sums of Insn.base_cycles *)
  (* Tier-3 group fusion: for each line group that lies entirely inside the
     block's trap-freedom certificate ([Facts.cert]), a single closure that
     runs every member in order — one indirect call per group instead of
     the per-member dispatch loop. Inside a certified prefix only memory
     accesses can trap (page fault, alignment, CSC value checks — the
     capability checks themselves were discharged by tiers 1/2 and the
     capability-arithmetic instructions were proven trap-free), so the
     fused closure updates [t.x_i] only immediately before memory members:
     the generic trap handler then attributes the exact faulting PC, and
     [commit_sem] commits exactly the retired prefix, as the per-member
     loop would. [None] for groups not fully certified. *)
  fused : (Cpu.ctx -> unit) option array;
}

type block = {
  b_entry : int;
  b_ilen : int;                        (* instructions incl. terminator *)
  b_body : sem_body;                   (* straight-line prefix *)
  (* Entry guard for tier-2 (guarded) elision facts. The body bakes in the
     union of the unconditional mask and the guarded mask; it may only run
     when every predicate holds on the *entry-time* register state, so the
     engine evaluates the conjunction at each acceptance site (dispatch,
     chained fall/jump, capability jump) right next to [block_ok]. A
     failing guard falls back to the exact single-step path — guards gate
     performance, never correctness. Empty for blocks with no guarded
     facts, which therefore pay nothing. *)
  b_guard : Facts.gpred array;
  b_term : (Cpu.ctx -> exit_) option;  (* absent: block ended at max size
                                          or at the edge of decoded code *)
  (* Chain links, patched lazily the first time the corresponding exit
     resolves; [None] / a stale key just means "go through the hashtable". Links point at blocks in the same table,
     so every invalidation path — [invalidate], [set_facts], a [map_gen]
     bump — severs them structurally by resetting the table: a link can
     only be reached through a block the reset just dropped. *)
  mutable b_fall : block option;       (* successor at entry + 4*ilen *)
  (* Monomorphic inline cache for [Jump] exits (taken branches, J/Jal and
     the register-indirect Jr/Jalr): last target pc and its block. *)
  mutable b_jump_key : int;
  mutable b_jump : block option;
  mutable b_jump_misses : int;
  (* Same, for [Jump_pcc] exits (CJR/CJALR through the capability GOT),
     keyed by the target capability's address. *)
  mutable b_cjump_key : int;
  mutable b_cjump : block option;
  mutable b_cjump_misses : int;
}

type t = {
  blocks : (int, block) Hashtbl.t;     (* entry pc -> decoded block *)
  mutable map_gen : int;               (* pmap generation at last flush *)
  (* Check-elision facts (lib/analysis/absint.ml). When present, [build]
     compiles memory accesses whose capability check the analysis
     discharged into check-free closures. Facts are keyed exactly like
     blocks (superblock entry pc -> bitmask), so any entry point gets the
     facts proved for *its* straight-line run. *)
  mutable facts : Facts.t option;
  (* Per-run ifetch translate memo (reset on every [run] entry). *)
  mutable cur_vpage : int;
  mutable cur_pbase : int;
  (* [exec_block] scratch state, hosted here so executing a block performs
     zero allocation (no flambda: local refs escaping into the trap
     handler would be heap cells). Execution is not reentrant — closures
     never call back into the engine — so one set per cache suffices.
     [x_i]: index of the instruction in flight; [x_gs]/[x_gcost]/[x_gpa]:
     start index, head-probe cost (-1 = none in flight) and head physical
     address of the line group being executed. *)
  mutable x_i : int;
  mutable x_gs : int;
  mutable x_gcost : int;
  mutable x_gpa : int;
  (* Physical address of the head access of the tier-3 access run in
     flight, or -1 when the run's head line-fit check failed (the whole
     hulled window must sit inside one 64-byte line at runtime; the
     analysis proves the deltas, the head proves the placement). Set
     by every run-head closure before its tails execute — tails are
     consecutive accesses in the same block body, so the value can never
     be another run's: each head overwrites it unconditionally. *)
  mutable x_run_pa : int;
  (* Data-side translate memo: small set-associative software TLBs (2
     sets x 2 ways, indexed by vpage parity, MRU way first), split by
     access kind because read and write rights (and COW) differ. One
     entry per side thrashes as soon as a loop touches two pages of the
     same kind per iteration — memcpy-style src/dst streams, a buffer plus
     the stack — which is the common shape of the TLS record loops; four
     entries cover those with a two-compare hit path. Valid for one [run]
     only — reset on every entry, like the code-side memo: the kernel
     mutates the pmap only between runs, and the accessed bit a memoized
     hit skips is idempotent (the miss that created the entry already set
     it), so observable state is identical. Layout: set s occupies indices
     2s (MRU) and 2s+1; vpage tag -1 = invalid. *)
  d_rd_vp : int array;
  d_rd_pb : int array;
  d_wr_vp : int array;
  d_wr_pb : int array;
  (* Visibility counters (bench/docs; not part of the parity contract). *)
  mutable built : int;
  mutable flushes : int;
  mutable step_falls : int;
  mutable elided_sites : int;          (* check-free closures compiled *)
  (* Chaining counters (bench/docs; not part of the parity contract). *)
  mutable chain_entries : int;         (* dispatch-loop entries into a chain *)
  mutable chained : int;               (* block->block hops without dispatch *)
  mutable ic_hits : int;               (* inline-cache key matches *)
  mutable ic_misses : int;             (* IC repatches (key mismatch) *)
  mutable ic_mega : int;               (* megamorphic hashtable fallbacks *)
  mutable dtlb_hits : int;             (* data-side software-TLB hits *)
  mutable dtlb_misses : int;           (* ... full translates *)
  (* Dynamic check_cap probe counters (bench/docs; not part of the parity
     contract). Every memory-access closure executed by a compiled block
     bumps exactly one of these: [checked_probes] when the compiled closure
     runs the capability check, [elided_probes] when the analysis discharged
     it (tier-1 mask or a guarded mask whose entry guard held). Accesses
     executed on the single-step fallback path are not counted — they are
     outside the compiled-block world these counters describe. *)
  mutable checked_probes : int;
  mutable elided_probes : int;
  (* Tier-3 visibility counters (bench/docs; not part of the parity
     contract). [fused_groups]/[fused_insns]: line groups (and their
     member instructions) executed through a fused single-call closure.
     [batched_probes]: data accesses that took the batched guaranteed-hit
     fast path ([Cache.daccess_repeats]) instead of a full
     translate + [Cache.data_access] sequence. *)
  mutable fused_groups : int;
  mutable fused_insns : int;
  mutable batched_probes : int;
}

let max_block = 64

(* After this many inline-cache misses at one exit, stop repatching: the
   site is megamorphic and the hashtable is the stable answer. *)
let ic_mega_threshold = 8

let create () =
  { blocks = Hashtbl.create 1024;
    map_gen = min_int;
    facts = None;
    cur_vpage = -1; cur_pbase = 0;
    x_i = 0; x_gs = 0; x_gcost = -1; x_gpa = 0; x_run_pa = -1;
    d_rd_vp = Array.make 4 (-1); d_rd_pb = Array.make 4 0;
    d_wr_vp = Array.make 4 (-1); d_wr_pb = Array.make 4 0;
    built = 0; flushes = 0; step_falls = 0;
    elided_sites = 0;
    chain_entries = 0; chained = 0; ic_hits = 0; ic_misses = 0; ic_mega = 0;
    dtlb_hits = 0; dtlb_misses = 0;
    checked_probes = 0; elided_probes = 0;
    fused_groups = 0; fused_insns = 0; batched_probes = 0 }

(* Reset the dynamic visibility counters (chain/IC and probe counters).
   Called when the installed fact table changes identity — a new analysis
   epoch — so warm- and cold-run statistics stay comparable: without this a
   long-lived cache would carry IC-miss and probe counts across fact-cache
   invalidations and --analysis-stats would blend epochs. Deliberately NOT
   called from [invalidate]: that runs on every context switch and resetting
   there would zero mid-run accumulation the bench legs rely on. *)
let reset_dyn_counters t =
  t.chain_entries <- 0;
  t.chained <- 0;
  t.ic_hits <- 0;
  t.ic_misses <- 0;
  t.ic_mega <- 0;
  t.dtlb_hits <- 0;
  t.dtlb_misses <- 0;
  t.checked_probes <- 0;
  t.elided_probes <- 0;
  t.fused_groups <- 0;
  t.fused_insns <- 0;
  t.batched_probes <- 0

(* Chain/IC statistics snapshot, for the bench legs and tests. *)
type chain_stats = {
  ch_entries : int;
  ch_chained : int;
  ch_ic_hits : int;
  ch_ic_misses : int;
  ch_ic_mega : int;
  ch_dtlb_hits : int;
  ch_dtlb_misses : int;
  ch_fused_groups : int;
  ch_fused_insns : int;
  ch_batched : int;
}

let chain_stats t =
  { ch_entries = t.chain_entries; ch_chained = t.chained;
    ch_ic_hits = t.ic_hits; ch_ic_misses = t.ic_misses;
    ch_ic_mega = t.ic_mega;
    ch_dtlb_hits = t.dtlb_hits; ch_dtlb_misses = t.dtlb_misses;
    ch_fused_groups = t.fused_groups; ch_fused_insns = t.fused_insns;
    ch_batched = t.batched_probes }

(* Drop every decoded block (context switch, exec image replacement).
   Facts are left attached: they are keyed by entry pc against the owning
   process's image, and the kernel re-asserts them via [set_facts] on every
   dispatch (dropping them when the owner or its address space changed). *)
let dtlb_reset t =
  Array.fill t.d_rd_vp 0 4 (-1);
  Array.fill t.d_wr_vp 0 4 (-1)

let invalidate t =
  Hashtbl.reset t.blocks;
  t.map_gen <- min_int;
  t.cur_vpage <- -1;
  dtlb_reset t;
  t.flushes <- t.flushes + 1

(* Install (or clear) the elision fact table. Compiled closures bake the
   elision decision in, so any change of table identity flushes the block
   cache. Compared by physical identity: the kernel calls this once per
   dispatch with the same table, which must not thrash the cache. *)
let set_facts t facts =
  let same =
    match t.facts, facts with
    | None, None -> true
    | Some a, Some b -> a == b
    | _ -> false
  in
  if not same then begin
    t.facts <- facts;
    reset_dyn_counters t;
    if Hashtbl.length t.blocks > 0 then begin
      Hashtbl.reset t.blocks;
      t.flushes <- t.flushes + 1
    end
  end

(* Instruction-side translate, memoized at page granularity within one
   [run] (the kernel only remaps/evicts pages *between* runs). May raise
   a page fault, exactly as the step engine's fetch translate would. *)
let translate_exec t m pc =
  let vp = pc lsr page_shift in
  if vp = t.cur_vpage then t.cur_pbase + (pc land page_mask)
  else begin
    let pa = m.Cpu.translate pc ~write:false ~exec:true in
    t.cur_vpage <- vp;
    t.cur_pbase <- pa - (pc land page_mask);
    pa
  end

(* Data-side translates. A natural-aligned access of <= 16 bytes
   never crosses a page, so one (vpage -> frame base) pair resolves the
   whole access. Misses go through the real [m.translate], which raises
   page faults exactly as the step engine; hits are sound because nothing
   can invalidate the mapping mid-run (see the field comments). Lookup in
   the 2-set x 2-way array: set by vpage parity, MRU way probed first, a
   second-way hit swaps into the MRU slot, a miss demotes the MRU entry
   and installs in its place. A fault in [m.translate] propagates before
   any array write, so a faulting access never perturbs the TLB. Indices
   are [2*(vp land 1)] and [+1] into length-4 arrays, in range by
   construction. *)
let translate_rd t m vaddr =
  let vp = vaddr lsr page_shift in
  let s = (vp land 1) * 2 in
  let vps = t.d_rd_vp and pbs = t.d_rd_pb in
  if Array.unsafe_get vps s = vp then begin
    t.dtlb_hits <- t.dtlb_hits + 1;
    Array.unsafe_get pbs s + (vaddr land page_mask)
  end
  else if Array.unsafe_get vps (s + 1) = vp then begin
    t.dtlb_hits <- t.dtlb_hits + 1;
    let pb = Array.unsafe_get pbs (s + 1) in
    Array.unsafe_set vps (s + 1) (Array.unsafe_get vps s);
    Array.unsafe_set pbs (s + 1) (Array.unsafe_get pbs s);
    Array.unsafe_set vps s vp;
    Array.unsafe_set pbs s pb;
    pb + (vaddr land page_mask)
  end
  else begin
    let pa = m.Cpu.translate vaddr ~write:false ~exec:false in
    t.dtlb_misses <- t.dtlb_misses + 1;
    Array.unsafe_set vps (s + 1) (Array.unsafe_get vps s);
    Array.unsafe_set pbs (s + 1) (Array.unsafe_get pbs s);
    Array.unsafe_set vps s vp;
    Array.unsafe_set pbs s (pa - (vaddr land page_mask));
    pa
  end

let translate_wr t m vaddr =
  let vp = vaddr lsr page_shift in
  let s = (vp land 1) * 2 in
  let vps = t.d_wr_vp and pbs = t.d_wr_pb in
  if Array.unsafe_get vps s = vp then begin
    t.dtlb_hits <- t.dtlb_hits + 1;
    Array.unsafe_get pbs s + (vaddr land page_mask)
  end
  else if Array.unsafe_get vps (s + 1) = vp then begin
    t.dtlb_hits <- t.dtlb_hits + 1;
    let pb = Array.unsafe_get pbs (s + 1) in
    Array.unsafe_set vps (s + 1) (Array.unsafe_get vps s);
    Array.unsafe_set pbs (s + 1) (Array.unsafe_get pbs s);
    Array.unsafe_set vps s vp;
    Array.unsafe_set pbs s pb;
    pb + (vaddr land page_mask)
  end
  else begin
    let pa = m.Cpu.translate vaddr ~write:true ~exec:false in
    t.dtlb_misses <- t.dtlb_misses + 1;
    Array.unsafe_set vps (s + 1) (Array.unsafe_get vps s);
    Array.unsafe_set pbs (s + 1) (Array.unsafe_get pbs s);
    Array.unsafe_set vps s vp;
    Array.unsafe_set pbs s (pa - (vaddr land page_mask));
    pa
  end

(* Fast-path capability probe for the compiled memory closures:
   pure field reads, no exception frame, same predicate as
   [Cap.check_access_at]. On failure the caller re-runs [Cpu.check_cap],
   which performs the architecturally-ordered checks and raises the exact
   fault — so the fast path only ever skips work, never changes it. *)
let cap_ok (c : Cap.t) perm vaddr len =
  c.Cap.tag
  && c.Cap.otype = Cap.otype_unsealed
  && c.Cap.perms land perm = perm
  && vaddr >= c.Cap.base
  && vaddr + len <= c.Cap.top

(* Entry-guard evaluation for tier-2 elision facts. Each predicate is a
   sufficient condition, derived syntactically by the analysis, for every
   guarded check in the block body to pass: the named capability (or the
   DDC, for legacy accesses relative to a general register) must be tagged,
   unsealed, carry the demanded permissions, and cover the hulled footprint
   [[addr + gp_lo, addr + gp_hi]] — which includes every intermediate
   cursor position, so in-body [CIncOffset*] arithmetic cannot strip a tag
   the guard vouched for. Pure field reads, evaluated against the state at
   block entry, before any closure runs. *)
let rec guard_ok_from (ctx : Cpu.ctx) (preds : Facts.gpred array) i n =
  i >= n
  || (let p = Array.unsafe_get preds i in
      let c, a =
        if p.Facts.gp_ddc then ctx.Cpu.ddc, ctx.Cpu.gpr.(p.Facts.gp_reg)
        else
          let c = ctx.Cpu.creg.(p.Facts.gp_reg) in
          (c, c.Cap.addr)
      in
      c.Cap.tag
      && c.Cap.otype = Cap.otype_unsealed
      && c.Cap.perms land p.Facts.gp_perms = p.Facts.gp_perms
      && a + p.Facts.gp_lo >= c.Cap.base
      && a + p.Facts.gp_hi <= c.Cap.top
      && guard_ok_from ctx preds (i + 1) n)

let guard_ok (ctx : Cpu.ctx) (preds : Facts.gpred array) =
  guard_ok_from ctx preds 0 (Array.length preds)

(* Per-instruction accounting prologue of the terminator closures: charge
   the ifetch (through the memoized exec translate) plus base cycles, and
   retire the instruction — exactly what [Cpu.step] does before executing,
   so a faulting terminator still counts, as there. *)
let account t m pc base ctx =
  let ipa = translate_exec t m pc in
  ctx.Cpu.cycles <- ctx.Cpu.cycles + Cache.ifetch m.Cpu.hier ipa + base;
  ctx.Cpu.instret <- ctx.Cpu.instret + 1

(* --- Block compilation ---------------------------------------------------- *)

(* Straight-line instruction at [pc] -> pure-semantics closure. Block
   bodies batch fetch/cycle/instret accounting per I-cache line (see
   [exec_block]), so closures carry no accounting. The hottest ALU and
   capability-inspection forms get specialized closures (no re-dispatch
   per execution); everything else funnels through the one shared
   semantics function, [Cpu.exec_straight]. The fuzzer exercises both
   paths against the step engine.

   [elide] means the absint facts discharged this instruction's capability
   check: the memory arms then compile a check-free closure. Only the
   [Cpu.check_cap] probe disappears — a pure test with no statistics side
   effects — so retired instructions, cycles and cache counters are
   untouched, which is what keeps elided runs bit-identical.

   Memory arms inline [Cpu.mem_read]/[Cpu.mem_write] with the data-side
   translate memo substituted — check order (capability probe, alignment,
   translate, cache accounting, access) mirrors [Cpu.do_load] and friends
   exactly and must stay in lockstep with them; the differential fuzzer
   cross-checks every path. *)
let compile_sem t m ~pc ~elide insn =
  let check = not elide in
  if elide then t.elided_sites <- t.elided_sites + 1;
  let hier = m.Cpu.hier in
  let mem = m.Cpu.mem in
  (* Dynamic probe accounting: one bump per executed memory access, on the
     side the compiled closure actually took ([check] is baked in). *)
  let count_probe () =
    if check then t.checked_probes <- t.checked_probes + 1
    else t.elided_probes <- t.elided_probes + 1
  in
  match insn with
  | Insn.Li (rd, v) -> fun ctx -> Cpu.wr_gpr ctx rd v
  | Insn.Move (rd, rs) -> fun ctx -> Cpu.wr_gpr ctx rd (Cpu.rd_gpr ctx rs)
  | Insn.Addu (rd, rs, rt) ->
    fun ctx -> Cpu.wr_gpr ctx rd (Cpu.rd_gpr ctx rs + Cpu.rd_gpr ctx rt)
  | Insn.Addiu (rd, rs, i) ->
    fun ctx -> Cpu.wr_gpr ctx rd (Cpu.rd_gpr ctx rs + i)
  | Insn.Subu (rd, rs, rt) ->
    fun ctx -> Cpu.wr_gpr ctx rd (Cpu.rd_gpr ctx rs - Cpu.rd_gpr ctx rt)
  | Insn.Mul (rd, rs, rt) ->
    fun ctx -> Cpu.wr_gpr ctx rd (Cpu.rd_gpr ctx rs * Cpu.rd_gpr ctx rt)
  | Insn.And_ (rd, rs, rt) ->
    fun ctx -> Cpu.wr_gpr ctx rd (Cpu.rd_gpr ctx rs land Cpu.rd_gpr ctx rt)
  | Insn.Andi (rd, rs, i) ->
    fun ctx -> Cpu.wr_gpr ctx rd (Cpu.rd_gpr ctx rs land i)
  | Insn.Or_ (rd, rs, rt) ->
    fun ctx -> Cpu.wr_gpr ctx rd (Cpu.rd_gpr ctx rs lor Cpu.rd_gpr ctx rt)
  | Insn.Ori (rd, rs, i) ->
    fun ctx -> Cpu.wr_gpr ctx rd (Cpu.rd_gpr ctx rs lor i)
  | Insn.Xor_ (rd, rs, rt) ->
    fun ctx -> Cpu.wr_gpr ctx rd (Cpu.rd_gpr ctx rs lxor Cpu.rd_gpr ctx rt)
  | Insn.Xori (rd, rs, i) ->
    fun ctx -> Cpu.wr_gpr ctx rd (Cpu.rd_gpr ctx rs lxor i)
  | Insn.Sll (rd, rs, sh) ->
    fun ctx -> Cpu.wr_gpr ctx rd (Cpu.rd_gpr ctx rs lsl sh)
  | Insn.Srl (rd, rs, sh) ->
    fun ctx -> Cpu.wr_gpr ctx rd (Cpu.rd_gpr ctx rs lsr sh)
  | Insn.Sra (rd, rs, sh) ->
    fun ctx -> Cpu.wr_gpr ctx rd (Cpu.rd_gpr ctx rs asr sh)
  | Insn.Slt (rd, rs, rt) ->
    fun ctx ->
      Cpu.wr_gpr ctx rd (if Cpu.rd_gpr ctx rs < Cpu.rd_gpr ctx rt then 1 else 0)
  | Insn.Slti (rd, rs, i) ->
    fun ctx -> Cpu.wr_gpr ctx rd (if Cpu.rd_gpr ctx rs < i then 1 else 0)
  | Insn.Sltu (rd, rs, rt) ->
    fun ctx ->
      let ua = Cpu.rd_gpr ctx rs lxor min_int
      and ub = Cpu.rd_gpr ctx rt lxor min_int in
      Cpu.wr_gpr ctx rd (if ua < ub then 1 else 0)
  | Insn.Sltiu (rd, rs, i) ->
    fun ctx ->
      let ua = Cpu.rd_gpr ctx rs lxor min_int and ub = i lxor min_int in
      Cpu.wr_gpr ctx rd (if ua < ub then 1 else 0)
  | Insn.Load { w; signed; rd; base = b; off } ->
    fun ctx ->
      count_probe ();
      let vaddr = Cpu.rd_gpr ctx b + off in
      if check && not (cap_ok ctx.Cpu.ddc Perms.load vaddr w) then
        Cpu.check_cap ctx.Cpu.ddc ~reg:(-2) ~perm:Perms.load ~vaddr ~len:w;
      Cpu.check_align vaddr w;
      let pa = translate_rd t m vaddr in
      ctx.Cpu.cycles <- ctx.Cpu.cycles + Cache.data_access hier pa w;
      Cpu.wr_gpr ctx rd
        (if signed then Tagmem.read_int_signed mem pa ~len:w
         else Tagmem.read_int mem pa ~len:w)
  | Insn.Store { w; rs; base = b; off } ->
    fun ctx ->
      count_probe ();
      let vaddr = Cpu.rd_gpr ctx b + off in
      if check && not (cap_ok ctx.Cpu.ddc Perms.store vaddr w) then
        Cpu.check_cap ctx.Cpu.ddc ~reg:(-2) ~perm:Perms.store ~vaddr ~len:w;
      Cpu.check_align vaddr w;
      let pa = translate_wr t m vaddr in
      ctx.Cpu.cycles <- ctx.Cpu.cycles + Cache.data_access hier pa w;
      Tagmem.write_int mem pa ~len:w (Cpu.rd_gpr ctx rs)
  | Insn.CLoad { w; signed; rd; cb; off } ->
    fun ctx ->
      count_probe ();
      let cap = Cpu.rd_creg ctx cb in
      let vaddr = Cap.addr cap + off in
      if check && not (cap_ok cap Perms.load vaddr w) then
        Cpu.check_cap cap ~reg:cb ~perm:Perms.load ~vaddr ~len:w;
      Cpu.check_align vaddr w;
      let pa = translate_rd t m vaddr in
      ctx.Cpu.cycles <- ctx.Cpu.cycles + Cache.data_access hier pa w;
      Cpu.wr_gpr ctx rd
        (if signed then Tagmem.read_int_signed mem pa ~len:w
         else Tagmem.read_int mem pa ~len:w)
  | Insn.CStore { w; rs; cb; off } ->
    fun ctx ->
      count_probe ();
      let cap = Cpu.rd_creg ctx cb in
      let vaddr = Cap.addr cap + off in
      if check && not (cap_ok cap Perms.store vaddr w) then
        Cpu.check_cap cap ~reg:cb ~perm:Perms.store ~vaddr ~len:w;
      Cpu.check_align vaddr w;
      let pa = translate_wr t m vaddr in
      ctx.Cpu.cycles <- ctx.Cpu.cycles + Cache.data_access hier pa w;
      Tagmem.write_int mem pa ~len:w (Cpu.rd_gpr ctx rs)
  | Insn.CLC { cd; cb; off } ->
    fun ctx ->
      count_probe ();
      let cap = Cpu.rd_creg ctx cb in
      let vaddr = Cap.addr cap + off in
      if check && not (cap_ok cap Perms.load vaddr Cap.sizeof) then
        Cpu.check_cap cap ~reg:cb ~perm:Perms.load ~vaddr ~len:Cap.sizeof;
      Cpu.check_align vaddr Cap.sizeof;
      let pa = translate_rd t m vaddr in
      ctx.Cpu.cycles <- ctx.Cpu.cycles + Cache.data_access hier pa Cap.sizeof;
      let loaded = Tagmem.read_cap mem pa in
      let loaded =
        if Perms.has (Cap.perms cap) Perms.load_cap then loaded
        else Cap.clear_tag loaded
      in
      Cpu.wr_creg ctx cd loaded
  | Insn.CSC { cs; cb; off } ->
    fun ctx ->
      count_probe ();
      let cap = Cpu.rd_creg ctx cb in
      let vaddr = Cap.addr cap + off in
      if check && not (cap_ok cap Perms.store vaddr Cap.sizeof) then
        Cpu.check_cap cap ~reg:cb ~perm:Perms.store ~vaddr ~len:Cap.sizeof;
      let v = Cpu.rd_creg ctx cs in
      if Cap.is_tagged v then begin
        if not (Perms.has (Cap.perms cap) Perms.store_cap) then
          Cpu.cap_fault (Cap.Permit_violation Perms.store_cap) ~reg:cb ~vaddr;
        if (not (Perms.has (Cap.perms v) Perms.global))
           && not (Perms.has (Cap.perms cap) Perms.store_local_cap)
        then
          Cpu.cap_fault (Cap.Permit_violation Perms.store_local_cap) ~reg:cb
            ~vaddr
      end;
      Cpu.check_align vaddr Cap.sizeof;
      let pa = translate_wr t m vaddr in
      ctx.Cpu.cycles <- ctx.Cpu.cycles + Cache.data_access hier pa Cap.sizeof;
      Tagmem.write_cap mem pa v
  | Insn.CIncOffsetImm (cd, cb, i) ->
    fun ctx -> Cpu.wr_creg ctx cd (Cap.inc_addr (Cpu.rd_creg ctx cb) i)
  | Insn.CIncOffset (cd, cb, rt) ->
    fun ctx ->
      Cpu.wr_creg ctx cd (Cap.inc_addr (Cpu.rd_creg ctx cb) (Cpu.rd_gpr ctx rt))
  | Insn.CSetAddr (cd, cb, rt) ->
    fun ctx ->
      Cpu.wr_creg ctx cd (Cap.set_addr (Cpu.rd_creg ctx cb) (Cpu.rd_gpr ctx rt))
  | Insn.CClearTag (cd, cb) ->
    fun ctx -> Cpu.wr_creg ctx cd (Cap.clear_tag (Cpu.rd_creg ctx cb))
  | Insn.CMove (cd, cb) ->
    fun ctx -> Cpu.wr_creg ctx cd (Cpu.rd_creg ctx cb)
  | Insn.CGetBase (rd, cb) ->
    fun ctx -> Cpu.wr_gpr ctx rd (Cap.base (Cpu.rd_creg ctx cb))
  | Insn.CGetLen (rd, cb) ->
    fun ctx -> Cpu.wr_gpr ctx rd (Cap.length (Cpu.rd_creg ctx cb))
  | Insn.CGetAddr (rd, cb) ->
    fun ctx -> Cpu.wr_gpr ctx rd (Cap.addr (Cpu.rd_creg ctx cb))
  | Insn.CGetOffset (rd, cb) ->
    fun ctx -> Cpu.wr_gpr ctx rd (Cap.offset (Cpu.rd_creg ctx cb))
  | Insn.CGetPerm (rd, cb) ->
    fun ctx -> Cpu.wr_gpr ctx rd (Cap.perms (Cpu.rd_creg ctx cb))
  | Insn.CGetTag (rd, cb) ->
    fun ctx ->
      Cpu.wr_gpr ctx rd (if Cap.is_tagged (Cpu.rd_creg ctx cb) then 1 else 0)
  | Insn.CGetType (rd, cb) ->
    fun ctx -> Cpu.wr_gpr ctx rd (Cap.otype (Cpu.rd_creg ctx cb))
  | Insn.Nop -> fun _ctx -> ()
  | insn -> fun ctx -> Cpu.exec_straight m ctx ~pc insn

(* Tier-3 access-run role of a body instruction (from [Facts.cert]):
   [R_head (lo, hi)] marks the first access of a certified same-line run
   ([lo, hi) is the hulled byte window of the whole run relative to the
   head's vaddr); [R_tail delta] marks a follow-on access whose vaddr is
   provably head_vaddr + delta. *)
type run_info =
  | R_none
  | R_head of int * int
  | R_tail of int

(* [compile_sem] with the access-run fast paths. Every run member keeps
   its own capability check (unless tier 1/2 elided it), its alignment
   check and — for CSC — the stored-value rights checks, all evaluated at
   runtime on the syntactically recomputed vaddr, so each trap the step
   engine would raise fires here too, with the identical cause and
   payload. What the certificate lets tails skip is only the address
   work: the TLB translate and the real [Cache.data_access] probe.

   Heads run the exact sequence (checks, translate, real probe) and then
   publish [t.x_run_pa]: the head's physical address if the hulled byte
   window [pa+lo, pa+hi) of the whole run sits inside one 64-byte line,
   else -1. Testing the fit on the physical address is the same as
   testing it on the virtual one because pages are line-aligned (the
   address phase mod 64 is translation-invariant); fit implies the whole
   run shares the head's line and therefore its page, so every tail's
   physical address is exactly head_pa + delta and its translate could
   neither fault nor disagree. For write runs, kind homogeneity (enforced
   by the analysis) means the head's write translate already performed
   COW and dirty marking for the shared page. Tails with a published head
   therefore replace translate + [Cache.data_access] with the
   guaranteed-hit batch [Cache.daccess_repeats] — exact because run
   members are *consecutive* data accesses, so the head's DL1 line is
   still resident (see cache.ml). A tail that finds [t.x_run_pa = -1]
   runs the exact sequence instead: the fast path gates performance,
   never correctness. *)
let compile_sem_run t m ~pc ~elide ~run insn =
  let check = not elide in
  let hier = m.Cpu.hier in
  let mem = m.Cpu.mem in
  let count_probe () =
    if check then t.checked_probes <- t.checked_probes + 1
    else t.elided_probes <- t.elided_probes + 1
  in
  let site () = if elide then t.elided_sites <- t.elided_sites + 1 in
  (* Publish the head's pa for the run's tails, or -1 when the hulled
     window leaves the head's cache line. *)
  let publish lo hi pa =
    t.x_run_pa <-
      (if ((pa + lo) land (Cache.line_size - 1)) + (hi - lo)
          <= Cache.line_size
       then pa
       else -1)
  in
  match run, insn with
  | R_none, _ -> compile_sem t m ~pc ~elide insn
  | R_head (lo, hi), Insn.Load { w; signed; rd; base = b; off } ->
    site ();
    fun ctx ->
      count_probe ();
      let vaddr = Cpu.rd_gpr ctx b + off in
      if check && not (cap_ok ctx.Cpu.ddc Perms.load vaddr w) then
        Cpu.check_cap ctx.Cpu.ddc ~reg:(-2) ~perm:Perms.load ~vaddr ~len:w;
      Cpu.check_align vaddr w;
      let pa = translate_rd t m vaddr in
      publish lo hi pa;
      ctx.Cpu.cycles <- ctx.Cpu.cycles + Cache.data_access hier pa w;
      Cpu.wr_gpr ctx rd
        (if signed then Tagmem.read_int_signed mem pa ~len:w
         else Tagmem.read_int mem pa ~len:w)
  | R_tail delta, Insn.Load { w; signed; rd; base = b; off } ->
    site ();
    fun ctx ->
      count_probe ();
      let vaddr = Cpu.rd_gpr ctx b + off in
      if check && not (cap_ok ctx.Cpu.ddc Perms.load vaddr w) then
        Cpu.check_cap ctx.Cpu.ddc ~reg:(-2) ~perm:Perms.load ~vaddr ~len:w;
      Cpu.check_align vaddr w;
      let rp = t.x_run_pa in
      if rp >= 0 then begin
        t.batched_probes <- t.batched_probes + 1;
        let pa = rp + delta in
        Cache.daccess_repeats hier pa 1;
        ctx.Cpu.cycles <- ctx.Cpu.cycles + hier.Cache.l1_hit_cycles;
        Cpu.wr_gpr ctx rd
          (if signed then Tagmem.read_int_signed mem pa ~len:w
           else Tagmem.read_int mem pa ~len:w)
      end
      else begin
        let pa = translate_rd t m vaddr in
        ctx.Cpu.cycles <- ctx.Cpu.cycles + Cache.data_access hier pa w;
        Cpu.wr_gpr ctx rd
          (if signed then Tagmem.read_int_signed mem pa ~len:w
           else Tagmem.read_int mem pa ~len:w)
      end
  | R_head (lo, hi), Insn.Store { w; rs; base = b; off } ->
    site ();
    fun ctx ->
      count_probe ();
      let vaddr = Cpu.rd_gpr ctx b + off in
      if check && not (cap_ok ctx.Cpu.ddc Perms.store vaddr w) then
        Cpu.check_cap ctx.Cpu.ddc ~reg:(-2) ~perm:Perms.store ~vaddr ~len:w;
      Cpu.check_align vaddr w;
      let pa = translate_wr t m vaddr in
      publish lo hi pa;
      ctx.Cpu.cycles <- ctx.Cpu.cycles + Cache.data_access hier pa w;
      Tagmem.write_int mem pa ~len:w (Cpu.rd_gpr ctx rs)
  | R_tail delta, Insn.Store { w; rs; base = b; off } ->
    site ();
    fun ctx ->
      count_probe ();
      let vaddr = Cpu.rd_gpr ctx b + off in
      if check && not (cap_ok ctx.Cpu.ddc Perms.store vaddr w) then
        Cpu.check_cap ctx.Cpu.ddc ~reg:(-2) ~perm:Perms.store ~vaddr ~len:w;
      Cpu.check_align vaddr w;
      let rp = t.x_run_pa in
      if rp >= 0 then begin
        t.batched_probes <- t.batched_probes + 1;
        let pa = rp + delta in
        Cache.daccess_repeats hier pa 1;
        ctx.Cpu.cycles <- ctx.Cpu.cycles + hier.Cache.l1_hit_cycles;
        Tagmem.write_int mem pa ~len:w (Cpu.rd_gpr ctx rs)
      end
      else begin
        let pa = translate_wr t m vaddr in
        ctx.Cpu.cycles <- ctx.Cpu.cycles + Cache.data_access hier pa w;
        Tagmem.write_int mem pa ~len:w (Cpu.rd_gpr ctx rs)
      end
  | R_head (lo, hi), Insn.CLoad { w; signed; rd; cb; off } ->
    site ();
    fun ctx ->
      count_probe ();
      let cap = Cpu.rd_creg ctx cb in
      let vaddr = Cap.addr cap + off in
      if check && not (cap_ok cap Perms.load vaddr w) then
        Cpu.check_cap cap ~reg:cb ~perm:Perms.load ~vaddr ~len:w;
      Cpu.check_align vaddr w;
      let pa = translate_rd t m vaddr in
      publish lo hi pa;
      ctx.Cpu.cycles <- ctx.Cpu.cycles + Cache.data_access hier pa w;
      Cpu.wr_gpr ctx rd
        (if signed then Tagmem.read_int_signed mem pa ~len:w
         else Tagmem.read_int mem pa ~len:w)
  | R_tail delta, Insn.CLoad { w; signed; rd; cb; off } ->
    site ();
    fun ctx ->
      count_probe ();
      let cap = Cpu.rd_creg ctx cb in
      let vaddr = Cap.addr cap + off in
      if check && not (cap_ok cap Perms.load vaddr w) then
        Cpu.check_cap cap ~reg:cb ~perm:Perms.load ~vaddr ~len:w;
      Cpu.check_align vaddr w;
      let rp = t.x_run_pa in
      if rp >= 0 then begin
        t.batched_probes <- t.batched_probes + 1;
        let pa = rp + delta in
        Cache.daccess_repeats hier pa 1;
        ctx.Cpu.cycles <- ctx.Cpu.cycles + hier.Cache.l1_hit_cycles;
        Cpu.wr_gpr ctx rd
          (if signed then Tagmem.read_int_signed mem pa ~len:w
           else Tagmem.read_int mem pa ~len:w)
      end
      else begin
        let pa = translate_rd t m vaddr in
        ctx.Cpu.cycles <- ctx.Cpu.cycles + Cache.data_access hier pa w;
        Cpu.wr_gpr ctx rd
          (if signed then Tagmem.read_int_signed mem pa ~len:w
           else Tagmem.read_int mem pa ~len:w)
      end
  | R_head (lo, hi), Insn.CStore { w; rs; cb; off } ->
    site ();
    fun ctx ->
      count_probe ();
      let cap = Cpu.rd_creg ctx cb in
      let vaddr = Cap.addr cap + off in
      if check && not (cap_ok cap Perms.store vaddr w) then
        Cpu.check_cap cap ~reg:cb ~perm:Perms.store ~vaddr ~len:w;
      Cpu.check_align vaddr w;
      let pa = translate_wr t m vaddr in
      publish lo hi pa;
      ctx.Cpu.cycles <- ctx.Cpu.cycles + Cache.data_access hier pa w;
      Tagmem.write_int mem pa ~len:w (Cpu.rd_gpr ctx rs)
  | R_tail delta, Insn.CStore { w; rs; cb; off } ->
    site ();
    fun ctx ->
      count_probe ();
      let cap = Cpu.rd_creg ctx cb in
      let vaddr = Cap.addr cap + off in
      if check && not (cap_ok cap Perms.store vaddr w) then
        Cpu.check_cap cap ~reg:cb ~perm:Perms.store ~vaddr ~len:w;
      Cpu.check_align vaddr w;
      let rp = t.x_run_pa in
      if rp >= 0 then begin
        t.batched_probes <- t.batched_probes + 1;
        let pa = rp + delta in
        Cache.daccess_repeats hier pa 1;
        ctx.Cpu.cycles <- ctx.Cpu.cycles + hier.Cache.l1_hit_cycles;
        Tagmem.write_int mem pa ~len:w (Cpu.rd_gpr ctx rs)
      end
      else begin
        let pa = translate_wr t m vaddr in
        ctx.Cpu.cycles <- ctx.Cpu.cycles + Cache.data_access hier pa w;
        Tagmem.write_int mem pa ~len:w (Cpu.rd_gpr ctx rs)
      end
  | R_head (lo, hi), Insn.CLC { cd; cb; off } ->
    site ();
    fun ctx ->
      count_probe ();
      let cap = Cpu.rd_creg ctx cb in
      let vaddr = Cap.addr cap + off in
      if check && not (cap_ok cap Perms.load vaddr Cap.sizeof) then
        Cpu.check_cap cap ~reg:cb ~perm:Perms.load ~vaddr ~len:Cap.sizeof;
      Cpu.check_align vaddr Cap.sizeof;
      let pa = translate_rd t m vaddr in
      publish lo hi pa;
      ctx.Cpu.cycles <- ctx.Cpu.cycles + Cache.data_access hier pa Cap.sizeof;
      let loaded = Tagmem.read_cap mem pa in
      let loaded =
        if Perms.has (Cap.perms cap) Perms.load_cap then loaded
        else Cap.clear_tag loaded
      in
      Cpu.wr_creg ctx cd loaded
  | R_tail delta, Insn.CLC { cd; cb; off } ->
    site ();
    fun ctx ->
      count_probe ();
      let cap = Cpu.rd_creg ctx cb in
      let vaddr = Cap.addr cap + off in
      if check && not (cap_ok cap Perms.load vaddr Cap.sizeof) then
        Cpu.check_cap cap ~reg:cb ~perm:Perms.load ~vaddr ~len:Cap.sizeof;
      Cpu.check_align vaddr Cap.sizeof;
      let rp = t.x_run_pa in
      if rp >= 0 then begin
        t.batched_probes <- t.batched_probes + 1;
        let pa = rp + delta in
        Cache.daccess_repeats hier pa 1;
        ctx.Cpu.cycles <- ctx.Cpu.cycles + hier.Cache.l1_hit_cycles;
        let loaded = Tagmem.read_cap mem pa in
        let loaded =
          if Perms.has (Cap.perms cap) Perms.load_cap then loaded
          else Cap.clear_tag loaded
        in
        Cpu.wr_creg ctx cd loaded
      end
      else begin
        let pa = translate_rd t m vaddr in
        ctx.Cpu.cycles <- ctx.Cpu.cycles + Cache.data_access hier pa Cap.sizeof;
        let loaded = Tagmem.read_cap mem pa in
        let loaded =
          if Perms.has (Cap.perms cap) Perms.load_cap then loaded
          else Cap.clear_tag loaded
        in
        Cpu.wr_creg ctx cd loaded
      end
  | R_head (lo, hi), Insn.CSC { cs; cb; off } ->
    site ();
    fun ctx ->
      count_probe ();
      let cap = Cpu.rd_creg ctx cb in
      let vaddr = Cap.addr cap + off in
      if check && not (cap_ok cap Perms.store vaddr Cap.sizeof) then
        Cpu.check_cap cap ~reg:cb ~perm:Perms.store ~vaddr ~len:Cap.sizeof;
      let v = Cpu.rd_creg ctx cs in
      if Cap.is_tagged v then begin
        if not (Perms.has (Cap.perms cap) Perms.store_cap) then
          Cpu.cap_fault (Cap.Permit_violation Perms.store_cap) ~reg:cb ~vaddr;
        if (not (Perms.has (Cap.perms v) Perms.global))
           && not (Perms.has (Cap.perms cap) Perms.store_local_cap)
        then
          Cpu.cap_fault (Cap.Permit_violation Perms.store_local_cap) ~reg:cb
            ~vaddr
      end;
      Cpu.check_align vaddr Cap.sizeof;
      let pa = translate_wr t m vaddr in
      publish lo hi pa;
      ctx.Cpu.cycles <- ctx.Cpu.cycles + Cache.data_access hier pa Cap.sizeof;
      Tagmem.write_cap mem pa v
  | R_tail delta, Insn.CSC { cs; cb; off } ->
    site ();
    fun ctx ->
      count_probe ();
      let cap = Cpu.rd_creg ctx cb in
      let vaddr = Cap.addr cap + off in
      if check && not (cap_ok cap Perms.store vaddr Cap.sizeof) then
        Cpu.check_cap cap ~reg:cb ~perm:Perms.store ~vaddr ~len:Cap.sizeof;
      let v = Cpu.rd_creg ctx cs in
      if Cap.is_tagged v then begin
        if not (Perms.has (Cap.perms cap) Perms.store_cap) then
          Cpu.cap_fault (Cap.Permit_violation Perms.store_cap) ~reg:cb ~vaddr;
        if (not (Perms.has (Cap.perms v) Perms.global))
           && not (Perms.has (Cap.perms cap) Perms.store_local_cap)
        then
          Cpu.cap_fault (Cap.Permit_violation Perms.store_local_cap) ~reg:cb
            ~vaddr
      end;
      Cpu.check_align vaddr Cap.sizeof;
      let rp = t.x_run_pa in
      if rp >= 0 then begin
        t.batched_probes <- t.batched_probes + 1;
        let pa = rp + delta in
        Cache.daccess_repeats hier pa 1;
        ctx.Cpu.cycles <- ctx.Cpu.cycles + hier.Cache.l1_hit_cycles;
        Tagmem.write_cap mem pa v
      end
      else begin
        let pa = translate_wr t m vaddr in
        ctx.Cpu.cycles <- ctx.Cpu.cycles + Cache.data_access hier pa Cap.sizeof;
        Tagmem.write_cap mem pa v
      end
  | (R_head _ | R_tail _), _ ->
    (* Run info on a non-memory instruction means the certificate and the
       decoded code disagree — compile the exact closure. *)
    compile_sem t m ~pc ~elide insn

(* Terminator at [pc] -> exit closure. Mirrors the control arms of
   [Cpu.step] exactly, including the +1 taken-branch cycle, the alignment
   check before any side effect, and the order of tag check / link-register
   write on capability jumps. During block execution [ctx.pcc] is still
   the block-entry PCC, whose non-address fields are exactly those of the
   step engine's PCC at [pc] (set_addr never changes them in bounds), so
   link capabilities built from it are bit-identical. *)
let compile_term t m ~pc insn =
  let base = Insn.base_cycles insn in
  let branch cond target =
    fun ctx ->
      account t m pc base ctx;
      if cond ctx then begin
        Cpu.check_branch_target target;
        ctx.Cpu.cycles <- ctx.Cpu.cycles + 1;
        Jump target
      end
      else Fall
  in
  match insn with
  | Insn.Beq (rs, rt, tg) ->
    branch (fun ctx -> Cpu.rd_gpr ctx rs = Cpu.rd_gpr ctx rt) tg
  | Insn.Bne (rs, rt, tg) ->
    branch (fun ctx -> Cpu.rd_gpr ctx rs <> Cpu.rd_gpr ctx rt) tg
  | Insn.Blez (rs, tg) -> branch (fun ctx -> Cpu.rd_gpr ctx rs <= 0) tg
  | Insn.Bgtz (rs, tg) -> branch (fun ctx -> Cpu.rd_gpr ctx rs > 0) tg
  | Insn.Bltz (rs, tg) -> branch (fun ctx -> Cpu.rd_gpr ctx rs < 0) tg
  | Insn.Bgez (rs, tg) -> branch (fun ctx -> Cpu.rd_gpr ctx rs >= 0) tg
  | Insn.J tg ->
    fun ctx -> account t m pc base ctx; Cpu.check_branch_target tg; Jump tg
  | Insn.Jal tg ->
    fun ctx ->
      account t m pc base ctx;
      Cpu.check_branch_target tg;
      Cpu.wr_gpr ctx Reg.ra (pc + 4);
      Jump tg
  | Insn.Jr rs ->
    fun ctx ->
      account t m pc base ctx;
      let tg = Cpu.rd_gpr ctx rs in
      Cpu.check_branch_target tg;
      Jump tg
  | Insn.Jalr (rd, rs) ->
    fun ctx ->
      account t m pc base ctx;
      let tg = Cpu.rd_gpr ctx rs in
      Cpu.check_branch_target tg;
      Cpu.wr_gpr ctx rd (pc + 4);
      Jump tg
  | Insn.CJR cb ->
    fun ctx ->
      account t m pc base ctx;
      let target = Cpu.rd_creg ctx cb in
      if not (Cap.is_tagged target) then
        Cpu.cap_fault Cap.Tag_violation ~reg:cb ~vaddr:pc;
      Cpu.check_branch_target (Cap.addr target);
      Jump_pcc target
  | Insn.CJAL (cd, tg) ->
    fun ctx ->
      account t m pc base ctx;
      Cpu.check_branch_target tg;
      Cpu.wr_creg ctx cd (Cap.set_addr ctx.Cpu.pcc (pc + 4));
      Jump tg
  | Insn.CJALR (cd, cb) ->
    fun ctx ->
      account t m pc base ctx;
      let target = Cpu.rd_creg ctx cb in
      if not (Cap.is_tagged target) then
        Cpu.cap_fault Cap.Tag_violation ~reg:cb ~vaddr:pc;
      Cpu.check_branch_target (Cap.addr target);
      Cpu.wr_creg ctx cd (Cap.set_addr ctx.Cpu.pcc (pc + 4));
      Jump_pcc target
  | Insn.Syscall ->
    fun ctx ->
      account t m pc base ctx;
      ctx.Cpu.pcc <- Cap.set_addr ctx.Cpu.pcc (pc + 4);
      Stopped Cpu.Stop_syscall
  | Insn.Rt n ->
    fun ctx ->
      account t m pc base ctx;
      ctx.Cpu.pcc <- Cap.set_addr ctx.Cpu.pcc (pc + 4);
      Stopped (Cpu.Stop_rt n)
  | Insn.Break n ->
    fun ctx ->
      account t m pc base ctx;
      Trap.raise_trap (Trap.Break_trap n)
  | _ -> assert false

(* Partition body indices [0, nbody) into maximal runs whose fetch
   addresses share one cache line. Lines are 64 bytes and aligned, so a
   run never crosses a page either; the entry pc is fixed per block, so
   this is static. *)
let make_groups entry nbody =
  if nbody = 0 then [||]
  else begin
    let gs = ref [] in
    let s = ref 0 in
    for j = 1 to nbody do
      if
        j = nbody
        || (entry + (4 * j)) lsr Cache.line_shift
           <> (entry + (4 * (j - 1))) lsr Cache.line_shift
      then begin
        gs := ((!s lsl 16) lor (j - !s)) :: !gs;
        s := j
      end
    done;
    Array.of_list (List.rev !gs)
  end

(* The body instructions that can still trap inside a certified prefix:
   their page-fault / alignment / CSC value checks are runtime events the
   analysis does not discharge, so fused closures keep them as exact
   repair points ([t.x_i] updated before each). *)
let is_memop = function
  | Insn.Load _ | Insn.Store _ | Insn.CLoad _ | Insn.CStore _
  | Insn.CLC _ | Insn.CSC _ -> true
  | _ -> false

(* Fuse the member closures of line group [s, e] into one closure. The
   caller ([exec_block]) sets [t.x_i <- s] before the call; members that
   can trap ([is_memop]) re-point [t.x_i] at themselves first, so a trap
   anywhere in the fused group attributes the exact faulting pc and
   commits exactly the retired prefix — bit-identical to the per-member
   dispatch loop. Non-memory members were proven trap-free by the
   certificate (under the block guard, which held at entry), so skipping
   their [x_i] updates is unobservable. *)
let fuse t sem mems s e =
  let n = e - s + 1 in
  let cls = Array.init n (fun k -> Array.get sem (s + k)) in
  (* [x_i] to publish before each member: its own index for possible
     repair points (memory ops), -1 to skip the store entirely. The
     head's store is always redundant — [exec_block] sets [t.x_i <- s]
     before entering the fused closure. *)
  let xi =
    Array.init n (fun k ->
        if k > 0 && Array.get mems (s + k) then s + k else -1)
  in
  if Array.for_all (fun i -> i < 0) xi then
    (* No repair points past the head: nothing in the group can move
       [x_i], so run the members with no per-member bookkeeping at all. *)
    fun ctx ->
      for k = 0 to n - 1 do
        (Array.unsafe_get cls k) ctx
      done
  else
    fun ctx ->
      for k = 0 to n - 1 do
        let i = Array.unsafe_get xi k in
        if i >= 0 then t.x_i <- i;
        (Array.unsafe_get cls k) ctx
      done

(* Decode a maximal block starting at [entry]. Returns [None] when even
   the first instruction is outside decoded code: the step fallback then
   reproduces the fetch fault with exact accounting. Build never touches
   translate, caches or counters, so it is invisible to the statistics.
   *)
let build t m entry =
  let body = ref [] in
  let bases = ref [] in
  let mems = ref [] in
  let term = ref None in
  let n = ref 0 in
  (* Unconditional (tier-1) mask, plus the guarded (tier-2) mask whose
     predicates the run loop evaluates at every entry into this block. The
     body bakes in the union; a block with guarded bits only runs when its
     guard holds (else: exact single-step fallback). *)
  let fmask = match t.facts with Some f -> Facts.mask f entry | None -> 0 in
  let gmask, gpreds =
    match t.facts with Some f -> Facts.guarded f entry | None -> (0, [||])
  in
  let emask = fmask lor gmask in
  (* Tier-3 certificate: trap-free prefix length and same-line access
     runs, keyed like the masks. Pulled after [mask]/[guarded] so a lazy
     fact table resolves each entry exactly once. *)
  let cert =
    match t.facts with Some f -> Facts.cert f entry | None -> Facts.no_cert
  in
  let rmap = Array.make max_block R_none in
  Array.iter
    (fun r ->
       rmap.(r.Facts.ar_head) <- R_head (r.Facts.ar_lo, r.Facts.ar_hi);
       Array.iter (fun (j, d) -> rmap.(j) <- R_tail d) r.Facts.ar_tail)
    cert.Facts.ct_runs;
  (try
     while !term = None && !n < max_block do
       let pc = entry + (4 * !n) in
       let insn = m.Cpu.fetch pc in
       if Insn.is_terminator insn then term := Some (compile_term t m ~pc insn)
       else begin
         let elide = (emask lsr !n) land 1 = 1 in
         body := compile_sem_run t m ~pc ~elide ~run:rmap.(!n) insn :: !body;
         bases := Insn.base_cycles insn :: !bases;
         mems := is_memop insn :: !mems
       end;
       incr n
     done
   with Trap.Trap _ -> ());
  if !n = 0 then None
  else begin
    t.built <- t.built + 1;
    let closures = Array.of_list (List.rev !body) in
    let nbody = Array.length closures in
    let basesum = Array.make (nbody + 1) 0 in
    List.iteri
      (fun i b -> basesum.(nbody - i) <- b)
      !bases;
    for i = 1 to nbody do basesum.(i) <- basesum.(i) + basesum.(i - 1) done;
    let groups = make_groups entry nbody in
    let prefix = cert.Facts.ct_prefix in
    let fused =
      if prefix <= 0 then Array.make (Array.length groups) None
      else begin
        let memarr = Array.make nbody false in
        List.iteri (fun i b -> memarr.(nbody - 1 - i) <- b) !mems;
        Array.map
          (fun packed ->
             let s = packed lsr 16 in
             let e = s + (packed land 0xffff) - 1 in
             if e < prefix then Some (fuse t closures memarr s e)
             else None)
          groups
      end
    in
    Some { b_entry = entry; b_ilen = !n;
           b_body = { sem = closures; groups; basesum; fused };
           b_guard = (if gmask = 0 then [||] else gpreds);
           b_term = !term;
           b_fall = None;
           b_jump_key = min_int; b_jump = None; b_jump_misses = 0;
           b_cjump_key = min_int; b_cjump = None; b_cjump_misses = 0 }
  end

(* Find the decoded block at [pc], building (and caching) it on demand. *)
let lookup_or_build t m pc =
  match Hashtbl.find t.blocks pc with
  | b -> Some b
  | exception Not_found ->
    (match build t m pc with
     | Some b -> Hashtbl.add t.blocks pc b; Some b
     | None -> None)

(* --- Block execution ------------------------------------------------------- *)

(* The hoisted PCC check: one tag/seal/execute/bounds test standing in for
   [b_ilen] per-instruction [check_access_at] calls. If it fails the block
   is NOT necessarily faulty — a PCC whose bounds end mid-block may still
   execute a prefix — so the caller falls back to single-stepping, which
   raises (or not) exactly as the reference engine. *)
let block_ok (ctx : Cpu.ctx) b =
  let p = ctx.Cpu.pcc in
  Cap.is_tagged p
  && (not (Cap.is_sealed p))
  && Perms.has (Cap.perms p) Perms.execute
  && b.b_entry >= Cap.base p
  && b.b_entry + (4 * b.b_ilen) <= Cap.top p

(* The bounds half of [block_ok] alone — valid when the tag/seal/execute
   half is already known to hold for [ctx.pcc], i.e. across [Bx_next]
   chain hops, which never touch the PCC object (only [Bx_pcc] replaces
   it, and that path re-runs the full check). *)
let bounds_ok (ctx : Cpu.ctx) b =
  let p = ctx.Cpu.pcc in
  b.b_entry >= Cap.base p && b.b_entry + (4 * b.b_ilen) <= Cap.top p

(* How a block's execution left the machine. Splitting this out of the
   PCC lets chained runs defer the [set_addr] commit: between two chained
   in-bounds blocks the commit is a pure address rewrite (the target is
   inside the bounds, the bounds are inside the representable window, so
   tag and every other field are untouched) — skipping it and keeping the
   next pc as an integer is bit-exact. *)
type bexit =
  | Bx_next of int        (* continue at pc; ctx.pcc address NOT committed *)
  | Bx_pcc                (* capability jump: ctx.pcc replaced wholesale *)
  | Bx_stop of Cpu.stop   (* syscall/rt/trap; ctx.pcc committed *)

(* Execute [b]. The caller guarantees [block_ok] held on entry; [ctx.pcc]'s
   *address* may be stale mid-chain (closures bake their pc; only the PCC's
   non-address fields are consulted by the body and terminator closures).
   On a mid-block trap the PCC is materialized at the faulting instruction
   (b_entry + 4*i) of the block that actually faulted — never a chain
   head's — from the entry PCC's non-address fields: [block_ok] guaranteed
   every such address is in bounds, and the representable window contains
   the bounds, so the iterated [set_addr] commits of the step engine
   produce exactly this capability.

   Bodies batch the accounting per line group. Exactness argument:
   within a group only the head fetch can miss (and thus probe the L2) —
   it runs as a real, in-order [Cache.ifetch]. Follow-on fetches are
   guaranteed IL1 hits; their effects (clock, final LRU stamp, hit count,
   one cycle each, one retirement each) commute with the group's data
   accesses because IL1 shares no state with DL1/L2 and cycles/instret are
   sums, so committing them at group end — or, on a mid-group trap,
   committing exactly the prefix through the faulting instruction (the
   step engine accounts an instruction *before* executing it) — leaves
   every counter and every cache bit identical to the step engine. A
   page fault on the head probe itself commits nothing for the group,
   again as the step engine (translate raises before any accounting). *)
(* Commit the accounting batch for the line group in flight through
   body index [j] inclusive: the head probe's cost, one IL1-hit cycle and
   one retirement per follow-on, their base cycles, and the IL1 repeat
   batch. No-op when no group is in flight ([t.x_gcost < 0]). *)
let commit_sem t m sb (ctx : Cpu.ctx) j =
  if t.x_gcost >= 0 then begin
    let h = m.Cpu.hier in
    let k = j - t.x_gs in
    ctx.Cpu.instret <- ctx.Cpu.instret + k + 1;
    ctx.Cpu.cycles <-
      ctx.Cpu.cycles + t.x_gcost
      + (k * h.Cache.l1_hit_cycles)
      + Array.unsafe_get sb.basesum (j + 1)
      - Array.unsafe_get sb.basesum t.x_gs;
    if k > 0 then Cache.ifetch_repeats h t.x_gpa k;
    t.x_gcost <- -1
  end

let exec_block t m b (ctx : Cpu.ctx) =
  let entry_pcc = ctx.Cpu.pcc in
  let entry = b.b_entry in
  t.x_i <- 0;
  t.x_gcost <- -1;
  try
    let sb = b.b_body in
    let groups = sb.groups in
    let sem = sb.sem in
    let fused = sb.fused in
    for g = 0 to Array.length groups - 1 do
      let packed = Array.unsafe_get groups g in
      let s = packed lsr 16 in
      t.x_i <- s;
      t.x_gs <- s;
      let pa = translate_exec t m (entry + (4 * s)) in
      t.x_gpa <- pa;
      t.x_gcost <- Cache.ifetch m.Cpu.hier pa;
      let e = s + (packed land 0xffff) - 1 in
      (match Array.unsafe_get fused g with
       | Some f ->
         (* Certified group: one indirect call; [f] keeps [t.x_i]
            exact at every possible repair point (memory members). *)
         t.fused_groups <- t.fused_groups + 1;
         t.fused_insns <- t.fused_insns + (e - s + 1);
         f ctx
       | None ->
         for j = s to e do
           t.x_i <- j;
           (Array.unsafe_get sem j) ctx
         done);
      commit_sem t m sb ctx e
    done;
    match b.b_term with
    | None -> Bx_next (entry + (4 * b.b_ilen))
    | Some term ->
      t.x_i <- b.b_ilen - 1;
      (match term ctx with
       | Fall -> Bx_next (entry + (4 * b.b_ilen))
       | Jump tg -> Bx_next tg
       | Jump_pcc cap ->
         ctx.Cpu.pcc <- cap;
         Bx_pcc
       | Stopped s -> Bx_stop s)
  with
  | Trap.Trap cause ->
    commit_sem t m b.b_body ctx t.x_i;
    ctx.Cpu.pcc <- Cap.set_addr entry_pcc (entry + (4 * t.x_i));
    Bx_stop (Cpu.Stop_trap cause)
  | Cap.Cap_error v ->
    commit_sem t m b.b_body ctx t.x_i;
    let pc = entry + (4 * t.x_i) in
    ctx.Cpu.pcc <- Cap.set_addr entry_pcc pc;
    Bx_stop (Cpu.Stop_trap (Trap.Cap_fault { violation = v; reg = -1; vaddr = pc }))

(* --- Chaining -------------------------------------------------------------- *)

(* Successor block for a [Bx_next pc'] transition out of [b], patching the
   chain link on the way. The fall-through address gets a dedicated direct
   link; every other target goes through the monomorphic inline cache
   (last pc + its block), degrading to a plain hashtable lookup once the
   exit has proved megamorphic. Returns None when the target has no
   decodable block — the chain then exits and the dispatch loop's
   single-step fallback reproduces the fetch fault exactly. *)
let chain_succ t m b pc' =
  if pc' = b.b_entry + (4 * b.b_ilen) then
    match b.b_fall with
    | Some _ as s -> s
    | None ->
      let s = lookup_or_build t m pc' in
      b.b_fall <- s;
      s
  else if b.b_jump_key = pc' then begin
    t.ic_hits <- t.ic_hits + 1;
    b.b_jump
  end
  else if b.b_jump_misses >= ic_mega_threshold then begin
    t.ic_mega <- t.ic_mega + 1;
    lookup_or_build t m pc'
  end
  else begin
    t.ic_misses <- t.ic_misses + 1;
    b.b_jump_misses <- b.b_jump_misses + 1;
    match lookup_or_build t m pc' with
    | Some _ as s ->
      b.b_jump_key <- pc';
      b.b_jump <- s;
      s
    | None -> None
  end

(* Same, for [Bx_pcc] (capability-jump) exits; [pc'] is the address of the
   already-committed target capability. The cache maps pc -> block just
   like the hashtable does; whether the *capability* covers that block is
   re-decided by [block_ok] at every chained entry, so two GOT targets
   with equal addresses but different bounds cannot be confused. *)
let cjump_succ t m b pc' =
  if b.b_cjump_key = pc' then begin
    t.ic_hits <- t.ic_hits + 1;
    b.b_cjump
  end
  else if b.b_cjump_misses >= ic_mega_threshold then begin
    t.ic_mega <- t.ic_mega + 1;
    lookup_or_build t m pc'
  end
  else begin
    t.ic_misses <- t.ic_misses + 1;
    b.b_cjump_misses <- b.b_cjump_misses + 1;
    match lookup_or_build t m pc' with
    | Some _ as s ->
      b.b_cjump_key <- pc';
      b.b_cjump <- s;
      s
    | None -> None
  end

(* --- Dispatch loop ---------------------------------------------------------- *)

(* Run under the block cache until a stop or until [fuel] instructions
   have executed — same contract as [Cpu.run]. [map_gen] is the owning
   pmap's generation counter: a change means pages were unmapped or
   re-protected, so decoded blocks are flushed. Whole blocks run only
   when the remaining fuel covers them; otherwise (and for any block the
   hoisted check cannot cover) the engine single-steps, which makes
   mid-block quantum stops replay exactly.

   Blocks chain: after a block exits, its successor is resolved through
   the patched links / inline caches and entered directly, without
   returning here for a hashtable lookup or a PCC commit. A chain keeps running while (a) the successor exists, (b) the
   remaining fuel covers it whole — the per-chain fuel check; when the
   quantum expires exactly at a chain-internal block boundary,
   [nb.b_ilen <= 0] fails and the chain stops precisely there, and when it
   expires mid-block the dispatch loop's single-step path replays the
   partial block exactly — and (c) [block_ok] holds at the chained entry,
   which also re-validates the facts keying (facts are conditional only on
   the straight-line prefix from the entry, so they hold no matter how
   control arrived). Between chained blocks the PCC address is left stale
   (see [bexit]); it is materialized whenever the chain exits. *)
let run ?(map_gen = 0) t m (ctx : Cpu.ctx) ~fuel =
  if map_gen <> t.map_gen then begin
    if Hashtbl.length t.blocks > 0 then begin
      Hashtbl.reset t.blocks;
      t.flushes <- t.flushes + 1
    end;
    t.map_gen <- map_gen
  end;
  t.cur_vpage <- -1;
  dtlb_reset t;
  let remaining = ref fuel in
  let result = ref None in
  let running = ref true in
  while !running && !remaining > 0 do
    let pc = Cap.addr ctx.Cpu.pcc in
    match lookup_or_build t m pc with
    | Some b when b.b_ilen <= !remaining && block_ok ctx b
                  && (Array.length b.b_guard = 0 || guard_ok ctx b.b_guard) ->
      t.chain_entries <- t.chain_entries + 1;
      let cur = ref b in
      let chaining = ref true in
      while !chaining do
        let b = !cur in
        remaining := !remaining - b.b_ilen;
        match exec_block t m b ctx with
        | Bx_stop s ->
          result := Some s;
          running := false;
          chaining := false
        | Bx_next pc' ->
          (match chain_succ t m b pc' with
           | Some nb when nb.b_ilen <= !remaining && bounds_ok ctx nb
                          && (Array.length nb.b_guard = 0
                              || guard_ok ctx nb.b_guard) ->
             t.chained <- t.chained + 1;
             cur := nb
           | _ ->
             ctx.Cpu.pcc <- Cap.set_addr ctx.Cpu.pcc pc';
             chaining := false)
        | Bx_pcc ->
          (match cjump_succ t m b (Cap.addr ctx.Cpu.pcc) with
           | Some nb when nb.b_ilen <= !remaining && block_ok ctx nb
                          && (Array.length nb.b_guard = 0
                              || guard_ok ctx nb.b_guard) ->
             t.chained <- t.chained + 1;
             cur := nb
           | _ -> chaining := false)
      done
    | _ ->
      t.step_falls <- t.step_falls + 1;
      decr remaining;
      (match Cpu.step m ctx with
       | Some s ->
         result := Some s;
         running := false
       | None -> ())
  done;
  !result
