(* Decoded basic-block cache: the simulator's fast execution engine.

   [Cpu.step] pays a fixed per-instruction tax — a PCC execute/bounds
   check, a translate callback, a fetch indirection, the big match
   dispatch, and a fresh [Cap.set_addr] allocation to commit the PC. This
   engine translates maximal straight-line instruction runs ("superblocks"
   keyed by entry pc) into threaded closures, then:

   - threads each block into one closure ([b_run]): every instruction's
     closure ends in a tail call to the next one's, and the terminator's
     (or, for a block that ends without one, a constant) returns the
     block's exit code, so a block runs with no per-instruction loop, no
     closure array and no per-instruction bookkeeping. Compiled code
     reaches the next closure by a jump, not a call (docs/INTERP.md, "The
     hot path");
   - attributes traps by a constant fixed at decode: only a closure whose
     instruction can trap ([Insn.can_trap]) stores its index into [x_i]
     before it may raise, so [li], ALU, [CMove], [CClearTag] and [CGet*]
     closures store nothing;
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

   Accounting: instruction fetches are charged per block, not per
   instruction. One residency test at block entry ([fetch_resident])
   asks whether the block lies in the memoized exec page and every IL1
   line it spans is resident (a per-line slot memo makes each line one
   compare). If so the block runs with no fetch probe at all and one
   commit adds its IL1 clock, hits, per-line LRU stamps, [instret] and
   cycles. If not, the ordered path runs the same closure: a [boundary]
   closure at the head of each line group after the first, inert on the
   resident path, commits the previous group and probes the head of its
   own in program order (the only fetches that can miss and reach the
   shared L2); a group's follow-on hits are committed in a batch, and the
   terminator is the last member of its line group. Both are exact
   because only instruction fetches touch IL1, a hit never evicts, and
   IL1 shares no state with DL1 or L2, so fetch hits commute with the
   block's data accesses (cycles and [instret] are sums). See
   [exec_block] and [Cache.repeat_hits]. The contract (docs/INTERP.md) is
   that [instret], [cycles], per-level cache statistics and state, trap
   causes and PCs, and all architectural state are bit-identical to
   [Cpu.step]; the differential fuzzer (test/test_engines.ml) and the
   kernel parity tests enforce it.

   Memory closures are compiled per width and signedness: the alignment
   mask, the one-line DL1 probe and the fixed-width [Tagmem] accessor
   are chosen at decode, so a load or store runs no width dispatch. Each
   checks before it commits: a hit in the dTLB and the DL1 commits its
   side effects and accesses the frame unchecked, with no call; anything
   else tail-calls the in-order path ([hit_pa], [load_slow]).

   Whenever a block cannot be run exactly — PCC that does not cover the
   whole block, fuel that would expire mid-block, an undecodable entry —
   the engine falls back to [Cpu.step] for one instruction, which is
   always exact.

   Decoded blocks live in a per-address-space [space]; the engine [t]
   holds only what is shared by every space of one machine (scratch
   state, the decode buffer, the data-side TLB and the counters). A
   context switch is a pointer swap ([switch]), not a flush. Invalidation
   of one space (exec, munmap/mprotect via the pmap generation) is the
   caller's job: see [reset_space] and the [map_gen] argument. *)

module Cap = Cheri_cap.Cap
module Regs = Cap.Regs
module Perms = Cheri_cap.Perms
module Cache = Cheri_tagmem.Cache
module Tagmem = Cheri_tagmem.Tagmem

let page_shift = Cheri_tagmem.Phys.page_shift
let page_mask = Cheri_tagmem.Phys.page_size - 1

(* How a block hands control back: an unboxed [int], so no exit
   allocates. A 4-aligned value is the next pc — a taken branch or jump
   target ([Cpu.check_branch_target] guarantees the alignment) or the
   fall-through address. The codes below are negative and odd, so they
   collide with neither: decoded code only lives at non-negative
   addresses. *)
let exit_pcc = -3    (* capability jump: ctx.pcc already replaced wholesale *)
let exit_stop = -5   (* syscall/rt upcall or trap: cause in [t.stop],
                        ctx.pcc committed *)

(* A decoded block. [b_run] is the whole block threaded into one
   closure: each instruction's closure tail-calls the next, and the last
   returns the block's exit code (see [build]). [b_groups] partitions all
   [b_ilen] instruction indices, the terminator included, into maximal
   runs that share one 64-byte instruction line (the entry pc is fixed per
   block, so the line phase is static), packed as (start lsl 16) lor
   length; a line never crosses a page. [b_basesum.(i)] is the sum of the
   base cycles of instructions [0, i). *)
type block = {
  b_entry : int;
  b_ilen : int;                        (* instructions incl. terminator *)
  b_run : Cpu.ctx -> int;
  b_groups : int array;
  b_basesum : int array;
  (* The block's virtual page, or -2 (no page: [t.cur_vpage] is never
     below -1) when the block spans two pages and always takes the
     ordered fetch path. *)
  b_vpage : int;
  (* Fetch-residency memo: [b_slots.(k)] is the IL1 slot that held line
     group k when the block last ran the ordered path to its end, and
     [b_pline] the physical line of group 0 then (so group k's line was
     [b_pline + k]); -1 = no memo. *)
  mutable b_pline : int;
  b_slots : int array;
  (* Chain links, patched lazily the first time the corresponding exit
     resolves; [None] / a stale key just means "go through the hashtable".
     Links point at blocks in the same space's table, so every
     invalidation path — [reset_space] or a [map_gen] bump — severs them
     structurally by resetting that table: a link can only be reached
     through a block the reset just dropped. *)
  mutable b_fall : block option;       (* successor at entry + 4*ilen *)
  (* Monomorphic inline cache for every other exit: last target pc and its
     block. The terminator fixes which exits it sees: next-pc exits (taken
     branches, J/Jal and the register-indirect Jr/Jalr), or, for CJR/CJALR
     through the capability GOT, [exit_pcc] exits keyed by the target
     capability's address. *)
  mutable b_ic_key : int;
  mutable b_ic : block option;
  mutable b_ic_misses : int;
}

(* One address space's decoded blocks. Blocks bake in the decoded code
   of one process image, so each process owns its space (the kernel keeps
   it in [Proc.t]): a context switch installs the next process's space
   instead of flushing, and fork gives the child a fresh one. *)
type space = {
  blocks : (int, block) Hashtbl.t;     (* entry pc -> decoded block *)
  mutable map_gen : int;               (* pmap generation at last flush *)
}

(* The engine: one per machine. Closures compiled into any space capture
   it for their scratch state and counters, so the counters aggregate
   over every process the machine runs. *)
type t = {
  mutable space : space;               (* the running process's blocks *)
  (* Cause of the last [exit_stop] exit. *)
  mutable stop : Cpu.stop;
  (* Per-run ifetch translate memo (reset on every [run] entry). *)
  mutable cur_vpage : int;
  mutable cur_pbase : int;
  (* [exec_block] scratch state, hosted here so executing a block performs
     zero allocation (no flambda: local refs escaping into the trap
     handler would be heap cells). Execution is not reentrant — closures
     never call back into the engine — so one set per cache suffices.
     [x_i]: index of the last instruction that could trap, which every
     closure that can trap records before it may raise (a constant fixed
     at decode), so after a trap it names the faulting instruction;
     [x_gs]/[x_gcost]/[x_gslot]: start index, head-probe cost and IL1
     slot of the line group in flight on the ordered path. [x_gcost] is
     [no_fetch] when nothing is in flight and [resident] while a block
     runs on the resident path. *)
  mutable x_i : int;
  mutable x_gs : int;
  mutable x_gcost : int;
  mutable x_gslot : int;
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
  (* [build]'s decode buffer, [max_block] instructions. *)
  scratch : Insn.t array;
  (* Visibility counters (bench/docs; not part of the parity contract). *)
  mutable built : int;
  mutable flushes : int;
  mutable step_falls : int;
  (* Chaining counters (bench/docs; not part of the parity contract). *)
  mutable chain_entries : int;         (* dispatch-loop entries into a chain *)
  mutable chained : int;               (* block->block hops without dispatch *)
  mutable ic_hits : int;               (* inline-cache key matches *)
  mutable ic_misses : int;             (* IC repatches (key mismatch) *)
  mutable ic_mega : int;               (* megamorphic hashtable fallbacks *)
  mutable dtlb_hits : int;             (* data-side software-TLB hits *)
  mutable dtlb_misses : int;           (* ... full translates *)
  mutable ordered : int;               (* blocks that failed the fetch
                                          residency test *)
  (* Capability checks run by compiled memory-access closures (bench/docs;
     not part of the parity contract): one per executed access. Accesses
     on the single-step fallback path are not counted — they are outside
     the compiled-block world this counter describes. *)
  mutable checked_probes : int;
  (* Inert, always 0: every access is checked. Kept only because
     simbench/simbench.ml still reads it. *)
  elided_probes : int;
}

let max_block = 64

(* After this many inline-cache misses at one exit, stop repatching: the
   site is megamorphic and the hashtable is the stable answer. *)
let ic_mega_threshold = 8

(* Tables start small: a machine may spawn hundreds of short-lived
   processes, and the table grows with the code a process runs. *)
let create_space () = { blocks = Hashtbl.create 16; map_gen = min_int }

let create () =
  { space = create_space ();
    stop = Cpu.Stop_syscall;
    cur_vpage = -1; cur_pbase = 0;
    x_i = 0; x_gs = 0; x_gcost = -1; x_gslot = 0;
    d_rd_vp = Array.make 4 (-1); d_rd_pb = Array.make 4 0;
    d_wr_vp = Array.make 4 (-1); d_wr_pb = Array.make 4 0;
    scratch = Array.make max_block Insn.Nop;
    built = 0; flushes = 0; step_falls = 0;
    chain_entries = 0; chained = 0; ic_hits = 0; ic_misses = 0; ic_mega = 0;
    dtlb_hits = 0; dtlb_misses = 0; ordered = 0;
    checked_probes = 0; elided_probes = 0 }

(* Reset the dynamic visibility counters (chain/IC, TLB and probe
   counters). The kernel calls this when exec replaces an image that ran,
   so the old program's rates do not leak into the new one's. Not called
   from [reset_space] (a process exit is no new program), nor when a
   spawned process execs into its fresh space: the bench legs accumulate
   over the processes one machine spawns. *)
let reset_dyn_counters t =
  t.chain_entries <- 0;
  t.chained <- 0;
  t.ic_hits <- 0;
  t.ic_misses <- 0;
  t.ic_mega <- 0;
  t.dtlb_hits <- 0;
  t.dtlb_misses <- 0;
  t.ordered <- 0;
  t.checked_probes <- 0

(* Chain/IC statistics snapshot, for the bench legs and tests. *)
type chain_stats = {
  ch_entries : int;
  ch_chained : int;
  ch_ic_hits : int;
  ch_ic_misses : int;
  ch_ic_mega : int;
  ch_dtlb_hits : int;
  ch_dtlb_misses : int;
  (* Inert, always 0: there is no group fusion. Kept only because
     simbench/simbench.ml still reads it. *)
  ch_fused_insns : int;
}

let chain_stats t =
  { ch_entries = t.chain_entries; ch_chained = t.chained;
    ch_ic_hits = t.ic_hits; ch_ic_misses = t.ic_misses;
    ch_ic_mega = t.ic_mega;
    ch_dtlb_hits = t.dtlb_hits; ch_dtlb_misses = t.dtlb_misses;
    ch_fused_insns = 0 }

let dtlb_reset t =
  Array.fill t.d_rd_vp 0 4 (-1);
  Array.fill t.d_wr_vp 0 4 (-1)

let flush t sp =
  if Hashtbl.length sp.blocks > 0 then begin
    Hashtbl.reset sp.blocks;
    t.flushes <- t.flushes + 1
  end

(* Make [sp] the space the engine runs (context switch). Nothing is
   flushed: [run] resets the per-run translate memos on every entry. *)
let switch t sp = t.space <- sp

(* The image behind [sp] is gone (exec replaced it, or its process
   exited): drop the blocks (and the closures they hold), back to a fresh
   space's state. Not counted in [flushes], which counts blocks a running
   image loses. [sp] need not be the running space — the kernel execs a
   spawned process outside its dispatch — and the running space is left
   alone. *)
let reset_space sp =
  Hashtbl.reset sp.blocks;
  sp.map_gen <- min_int

(* Instruction-side translate, memoized at page granularity within one
   [run] (the kernel only remaps/evicts pages *between* runs). May raise
   a page fault, exactly as the step engine's fetch translate would. The
   hit compiles inline; the miss is out of line. *)
let[@inline never] translate_exec_miss t m pc vp =
  let pa = m.Cpu.translate pc ~write:false ~exec:true in
  t.cur_vpage <- vp;
  t.cur_pbase <- pa - (pc land page_mask);
  pa

let[@inline] translate_exec t m pc =
  let vp = pc lsr page_shift in
  if vp = t.cur_vpage then t.cur_pbase + (pc land page_mask)
  else translate_exec_miss t m pc vp

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
   construction. Both hits compile inline into the memory closures; the
   miss is out of line. *)
let[@inline never] dtlb_miss t m (vps : int array) (pbs : int array) vaddr vp s
    ~write =
  let pa = m.Cpu.translate vaddr ~write ~exec:false in
  t.dtlb_misses <- t.dtlb_misses + 1;
  Array.unsafe_set vps (s + 1) (Array.unsafe_get vps s);
  Array.unsafe_set pbs (s + 1) (Array.unsafe_get pbs s);
  Array.unsafe_set vps s vp;
  Array.unsafe_set pbs s (pa - (vaddr land page_mask));
  pa

let[@inline] dtlb t m (vps : int array) (pbs : int array) vaddr ~write =
  let vp = vaddr lsr page_shift in
  let s = (vp land 1) * 2 in
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
  else dtlb_miss t m vps pbs vaddr vp s ~write

let[@inline] translate_rd t m vaddr =
  dtlb t m t.d_rd_vp t.d_rd_pb vaddr ~write:false

let[@inline] translate_wr t m vaddr =
  dtlb t m t.d_wr_vp t.d_wr_pb vaddr ~write:true

(* Fast-path DDC probe for the compiled legacy memory closures: pure
   field reads, no exception frame, same predicate as
   [Cap.check_access_at]. On failure the caller re-runs [Cpu.check_cap],
   which performs the architecturally-ordered checks and raises the exact
   fault — so the fast path only ever skips work, never changes it.
   Capability-relative accesses probe the register file the same way,
   through [Cap.Regs.access_ok]. *)
let[@inline] cap_ok (c : Cap.t) perm vaddr len =
  c.Cap.tag
  && c.Cap.otype = Cap.otype_unsealed
  && c.Cap.perms land perm = perm
  && vaddr >= c.Cap.base
  && vaddr + len <= c.Cap.top

(* The capability half of a memory closure: record the instruction index
   [j] for trap attribution, count the probe, form the address and check
   it against DDC ([ddc_probe]) or a capability register ([cap_probe]),
   raising the exact fault through [Cpu.check_cap] when the fast
   predicate fails; returns the virtual address. The access half,
   [rd_pa]/[wr_pa]: alignment, the data-side translate and the DL1
   charge; returns the physical address. All are [@inline] and every call
   site passes a constant width, so each closure gets its own alignment
   mask and a one-line DL1 probe (an aligned access of at most 16 bytes
   never spans two lines). The order is that of [Cpu.do_load] and
   friends. *)
let[@inline] ddc_probe t (ctx : Cpu.ctx) ~j ~perm b off w =
  t.x_i <- j;
  t.checked_probes <- t.checked_probes + 1;
  let vaddr = Cpu.rd_gpr ctx b + off in
  if not (cap_ok ctx.Cpu.ddc perm vaddr w) then
    Cpu.check_cap ctx.Cpu.ddc ~reg:(-2) ~perm ~vaddr ~len:w;
  vaddr

let[@inline] cap_probe t (ctx : Cpu.ctx) ~j ~perm s cb off w =
  t.x_i <- j;
  t.checked_probes <- t.checked_probes + 1;
  let r = ctx.Cpu.creg in
  let vaddr = Regs.addr r s + off in
  if not (Regs.access_ok r s ~perm ~addr:vaddr ~len:w) then
    Cpu.check_cap (Regs.get r s) ~reg:cb ~perm ~vaddr ~len:w;
  vaddr

let[@inline] rd_pa t m (ctx : Cpu.ctx) vaddr w =
  Cpu.check_align vaddr w;
  let pa = translate_rd t m vaddr in
  ctx.Cpu.cycles <-
    ctx.Cpu.cycles + Cache.data_access_aligned m.Cpu.hier pa w;
  pa

let[@inline] wr_pa t m (ctx : Cpu.ctx) vaddr w =
  Cpu.check_align vaddr w;
  let pa = translate_wr t m vaddr in
  ctx.Cpu.cycles <-
    ctx.Cpu.cycles + Cache.data_access_aligned m.Cpu.hier pa w;
  pa

let[@inline] ddc_rd t m ctx ~j b off w =
  rd_pa t m ctx (ddc_probe t ctx ~j ~perm:Perms.load b off w) w

let[@inline] ddc_wr t m ctx ~j b off w =
  wr_pa t m ctx (ddc_probe t ctx ~j ~perm:Perms.store b off w) w

let[@inline] cap_rd t m ctx ~j s cb off w =
  rd_pa t m ctx (cap_probe t ctx ~j ~perm:Perms.load s cb off w) w

let[@inline] cap_wr t m ctx ~j s cb off w =
  wr_pa t m ctx (cap_probe t ctx ~j ~perm:Perms.store s cb off w) w

(* The fixed-width [Tagmem] access of a load or store of width [w]
   (negated for a signed load narrower than 8 bytes). *)
let[@inline] read_fixed mem pa ws =
  match ws with
  | 1 -> Tagmem.read_u8 mem pa
  | -1 -> Tagmem.read_s8 mem pa
  | 2 -> Tagmem.read_u16 mem pa
  | -2 -> Tagmem.read_s16 mem pa
  | 4 -> Tagmem.read_u32 mem pa
  | -4 -> Tagmem.read_s32 mem pa
  | _ -> Tagmem.read_u64 mem pa

let[@inline] write_fixed mem pa w v =
  match w with
  | 1 -> Tagmem.write_u8 mem pa v
  | 2 -> Tagmem.write_u16 mem pa v
  | 4 -> Tagmem.write_u32 mem pa v
  | _ -> Tagmem.write_u64 mem pa v

(* The in-order path of each kind of load/store closure, out of line: the
   closure tail-calls it whenever its precheck fails, so traps, dTLB and
   DL1 misses, first writes to a frame and tag clears all run this one
   implementation, in [Cpu.do_load]'s order. At most ten arguments, so
   the closures' calls stay tail calls. *)
let[@inline never] load_slow t m ctx j b off d ws k =
  let pa = ddc_rd t m ctx ~j b off (abs ws) in
  Cpu.wr_gpr ctx d (read_fixed m.Cpu.mem pa ws);
  k ctx

let[@inline never] store_slow t m ctx j b off rs w k =
  let pa = ddc_wr t m ctx ~j b off w in
  write_fixed m.Cpu.mem pa w (Cpu.rd_gpr ctx rs);
  k ctx

let[@inline never] cload_slow t m ctx j s cb off d ws k =
  let pa = cap_rd t m ctx ~j s cb off (abs ws) in
  Cpu.wr_gpr ctx d (read_fixed m.Cpu.mem pa ws);
  k ctx

let[@inline never] cstore_slow t m ctx j s cb off rs w k =
  let pa = cap_wr t m ctx ~j s cb off w in
  write_fixed m.Cpu.mem pa w (Cpu.rd_gpr ctx rs);
  k ctx

(* The hit path of a load/store closure ([ddc_hit], [cap_hit]): a
   precheck with no side effect and then, only when every check holds, a
   commit of exactly the side effects of the in-order path; otherwise the
   closure tail-calls that path. The precheck: the capability predicate
   and the alignment (in the callers), the page in either way of its dTLB
   set, the line in the DL1 ([Cache.l1_slot]) and, for a store,
   [Tagmem.can_poke]. The commit ([hit_pa]): the probe and dTLB counters,
   the swap of a second-way hit into the MRU way, the DL1 hit
   ([Cache.hit_slot]) and its cycles; the closure then makes the
   unchecked access ([Tagmem.peek_u8] ... [poke_u64]). Nothing on this
   path can raise, so it records no [x_i]. The result is the physical
   address, or -1 with nothing changed. Both the sentinel and the
   unchecked access rely on every page in the dTLB lying inside memory:
   an entry lives for one [run], the first access through it either
   passed [Tagmem]'s range check or raised out of [run], and
   [compile_sem] takes this path only on a memory of whole pages. *)
let[@inline] hit_pa t m (ctx : Cpu.ctx) (vps : int array) (pbs : int array)
    vaddr ~write =
  let vp = vaddr lsr page_shift in
  let s = (vp land 1) * 2 in
  let i =
    if Array.unsafe_get vps s = vp then s
    else if Array.unsafe_get vps (s + 1) = vp then s + 1
    else -1
  in
  if i < 0 then -1
  else
    let pb = Array.unsafe_get pbs i in
    let pa = pb + (vaddr land page_mask) in
    let h = m.Cpu.hier in
    let slot = Cache.l1_slot h.Cache.dl1 (pa lsr Cache.line_shift) in
    if slot < 0 || (write && not (Tagmem.can_poke m.Cpu.mem pa)) then -1
    else begin
      t.checked_probes <- t.checked_probes + 1;
      t.dtlb_hits <- t.dtlb_hits + 1;
      if i <> s then begin
        Array.unsafe_set vps i (Array.unsafe_get vps s);
        Array.unsafe_set pbs i (Array.unsafe_get pbs s);
        Array.unsafe_set vps s vp;
        Array.unsafe_set pbs s pb
      end;
      Cache.hit_slot h.Cache.dl1 slot;
      ctx.Cpu.cycles <- ctx.Cpu.cycles + h.Cache.l1_hit_cycles;
      pa
    end

let[@inline] aligned vaddr w = w = 1 || vaddr land (w - 1) = 0

let[@inline] ddc_hit t m (ctx : Cpu.ctx) ~write b off w =
  let vaddr = Cpu.rd_gpr ctx b + off in
  let perm = if write then Perms.store else Perms.load in
  if cap_ok ctx.Cpu.ddc perm vaddr w && aligned vaddr w then
    if write then hit_pa t m ctx t.d_wr_vp t.d_wr_pb vaddr ~write
    else hit_pa t m ctx t.d_rd_vp t.d_rd_pb vaddr ~write
  else -1

let[@inline] cap_hit t m (ctx : Cpu.ctx) ~write s off w =
  let r = ctx.Cpu.creg in
  let vaddr = Regs.addr r s + off in
  let perm = if write then Perms.store else Perms.load in
  if Regs.access_ok r s ~perm ~addr:vaddr ~len:w && aligned vaddr w then
    if write then hit_pa t m ctx t.d_wr_vp t.d_wr_pb vaddr ~write
    else hit_pa t m ctx t.d_rd_vp t.d_rd_pb vaddr ~write
  else -1

(* --- Fetch accounting ------------------------------------------------------ *)

(* Line-group bookkeeping on the ordered fetch path ([exec_block]).
   [x_gcost] is [no_fetch] when no group is in flight and [resident] while
   a block runs on the resident path. *)
let no_fetch = -1
let resident = -2

(* Issue line group [g]'s head fetch — instruction [s], the group's
   first, at [entry + 4*s] — as a real, in-order [Cache.ifetch], the only
   fetch of the group that can miss and reach the L2, and record the IL1
   slot that holds its line for the residency memo. A page fault in the
   translate leaves the group uncharged, as in the step engine. *)
let head_fetch t m slots entry g s =
  let h = m.Cpu.hier in
  t.x_i <- s;
  t.x_gs <- s;
  let pa = translate_exec t m (entry + (4 * s)) in
  t.x_gcost <- Cache.ifetch h pa;
  let slot = Cache.resident_slot h.Cache.il1 (pa lsr Cache.line_shift) in
  t.x_gslot <- slot;
  Array.unsafe_set slots g slot

(* Charge the line group in flight on the ordered path through
   instruction [j]: the head probe's cost, one hit cycle and one IL1 hit
   per follow-on, the base cycles ([basesum], the block's prefix sums)
   and one retirement per instruction. *)
let commit_group t m basesum (ctx : Cpu.ctx) j =
  let h = m.Cpu.hier in
  let k = j - t.x_gs in
  ctx.Cpu.instret <- ctx.Cpu.instret + k + 1;
  ctx.Cpu.cycles <-
    ctx.Cpu.cycles + t.x_gcost
    + (k * h.Cache.l1_hit_cycles)
    + Array.unsafe_get basesum (j + 1)
    - Array.unsafe_get basesum t.x_gs;
  if k > 0 then Cache.repeat_hits h.Cache.il1 t.x_gslot k;
  t.x_gcost <- no_fetch

(* The closure at the head of line group [g] >= 1 (instruction [s]): on
   the ordered path it commits group g-1 and issues group g's head fetch;
   on the resident path it does nothing. *)
let boundary t m basesum slots entry g s k =
  fun ctx ->
    if t.x_gcost <> resident then begin
      commit_group t m basesum ctx (s - 1);
      head_fetch t m slots entry g s
    end;
    k ctx

(* --- Block compilation ---------------------------------------------------- *)

(* Straight-line instruction [j] of a block, at [pc] -> a closure that
   runs it and then tail-calls [k], the rest of the block. [exec_block]
   charges fetches, base cycles and retirements per block, so closures
   carry no accounting. The may-trap classification ([Insn.can_trap])
   splits the work: only a closure that can trap records [j] in [t.x_i]
   for trap attribution; the others store nothing. The hottest ALU and
   capability-inspection forms get specialized closures (no re-dispatch
   per execution), [Nop] and [Annot] compile to [k] itself, and
   everything else funnels through the one shared semantics function,
   [Cpu.exec_straight]. The fuzzer exercises both paths against the step
   engine.

   Memory arms inline [Cpu.mem_read]/[Cpu.mem_write] with the data-side
   translate memo substituted — check order (capability probe, alignment,
   translate, cache accounting, access) mirrors [Cpu.do_load] and friends
   exactly and must stay in lockstep with them; the differential fuzzer
   cross-checks every path. Loads and stores get one closure per width
   (1, 2, 4, 8) and, for loads, signedness. Each runs the precheck of
   [ddc_hit]/[cap_hit] and, on a hit, its unchecked [Tagmem] accessor
   ([peek_u8] ... [poke_u64]); otherwise it tail-calls its kind's
   in-order path ([load_slow] ... [cstore_slow]), which calls the
   fixed-width accessor ([read_u8] ... [write_u64]) whose precondition,
   natural alignment, its own alignment check establishes. A width
   outside those four (no compiler emits one) runs the shared
   semantics. *)
let compile_sem t m ~pc ~j insn (k : Cpu.ctx -> int) : Cpu.ctx -> int =
  if not (Insn.can_trap insn) then
    match insn with
    | Insn.Li (rd, v) ->
      let d = Cpu.gpr_wslot rd in
      fun ctx -> Cpu.wr_gpr ctx d v; k ctx
    | Insn.Move (rd, rs) ->
      let d = Cpu.gpr_wslot rd in
      fun ctx -> Cpu.wr_gpr ctx d (Cpu.rd_gpr ctx rs); k ctx
    | Insn.Addu (rd, rs, rt) ->
      let d = Cpu.gpr_wslot rd in
      fun ctx ->
        Cpu.wr_gpr ctx d (Cpu.rd_gpr ctx rs + Cpu.rd_gpr ctx rt); k ctx
    | Insn.Addiu (rd, rs, i) ->
      let d = Cpu.gpr_wslot rd in
      fun ctx -> Cpu.wr_gpr ctx d (Cpu.rd_gpr ctx rs + i); k ctx
    | Insn.Subu (rd, rs, rt) ->
      let d = Cpu.gpr_wslot rd in
      fun ctx ->
        Cpu.wr_gpr ctx d (Cpu.rd_gpr ctx rs - Cpu.rd_gpr ctx rt); k ctx
    | Insn.Mul (rd, rs, rt) ->
      let d = Cpu.gpr_wslot rd in
      fun ctx ->
        Cpu.wr_gpr ctx d (Cpu.rd_gpr ctx rs * Cpu.rd_gpr ctx rt); k ctx
    | Insn.And_ (rd, rs, rt) ->
      let d = Cpu.gpr_wslot rd in
      fun ctx ->
        Cpu.wr_gpr ctx d (Cpu.rd_gpr ctx rs land Cpu.rd_gpr ctx rt); k ctx
    | Insn.Andi (rd, rs, i) ->
      let d = Cpu.gpr_wslot rd in
      fun ctx -> Cpu.wr_gpr ctx d (Cpu.rd_gpr ctx rs land i); k ctx
    | Insn.Or_ (rd, rs, rt) ->
      let d = Cpu.gpr_wslot rd in
      fun ctx ->
        Cpu.wr_gpr ctx d (Cpu.rd_gpr ctx rs lor Cpu.rd_gpr ctx rt); k ctx
    | Insn.Ori (rd, rs, i) ->
      let d = Cpu.gpr_wslot rd in
      fun ctx -> Cpu.wr_gpr ctx d (Cpu.rd_gpr ctx rs lor i); k ctx
    | Insn.Xor_ (rd, rs, rt) ->
      let d = Cpu.gpr_wslot rd in
      fun ctx ->
        Cpu.wr_gpr ctx d (Cpu.rd_gpr ctx rs lxor Cpu.rd_gpr ctx rt); k ctx
    | Insn.Xori (rd, rs, i) ->
      let d = Cpu.gpr_wslot rd in
      fun ctx -> Cpu.wr_gpr ctx d (Cpu.rd_gpr ctx rs lxor i); k ctx
    | Insn.Sll (rd, rs, sh) ->
      let d = Cpu.gpr_wslot rd in
      fun ctx -> Cpu.wr_gpr ctx d (Cpu.rd_gpr ctx rs lsl sh); k ctx
    | Insn.Srl (rd, rs, sh) ->
      let d = Cpu.gpr_wslot rd in
      fun ctx -> Cpu.wr_gpr ctx d (Cpu.rd_gpr ctx rs lsr sh); k ctx
    | Insn.Sra (rd, rs, sh) ->
      let d = Cpu.gpr_wslot rd in
      fun ctx -> Cpu.wr_gpr ctx d (Cpu.rd_gpr ctx rs asr sh); k ctx
    | Insn.Slt (rd, rs, rt) ->
      let d = Cpu.gpr_wslot rd in
      fun ctx ->
        Cpu.wr_gpr ctx d
          (if Cpu.rd_gpr ctx rs < Cpu.rd_gpr ctx rt then 1 else 0);
        k ctx
    | Insn.Slti (rd, rs, i) ->
      let d = Cpu.gpr_wslot rd in
      fun ctx ->
        Cpu.wr_gpr ctx d (if Cpu.rd_gpr ctx rs < i then 1 else 0); k ctx
    | Insn.Sltu (rd, rs, rt) ->
      let d = Cpu.gpr_wslot rd in
      fun ctx ->
        let ua = Cpu.rd_gpr ctx rs lxor min_int
        and ub = Cpu.rd_gpr ctx rt lxor min_int in
        Cpu.wr_gpr ctx d (if ua < ub then 1 else 0);
        k ctx
    | Insn.Sltiu (rd, rs, i) ->
      let d = Cpu.gpr_wslot rd in
      fun ctx ->
        let ua = Cpu.rd_gpr ctx rs lxor min_int and ub = i lxor min_int in
        Cpu.wr_gpr ctx d (if ua < ub then 1 else 0);
        k ctx
    | Insn.CClearTag (cd, cb) ->
      let s = Regs.rslot cb and d = Regs.wslot cd in
      fun ctx -> Regs.clear_tag ctx.Cpu.creg ~dst:d ~src:s; k ctx
    | Insn.CMove (cd, cb) ->
      let s = Regs.rslot cb and d = Regs.wslot cd in
      fun ctx -> Regs.move ctx.Cpu.creg ~dst:d ~src:s; k ctx
    | Insn.CGetBase (rd, cb) ->
      let s = Regs.rslot cb and d = Cpu.gpr_wslot rd in
      fun ctx -> Cpu.wr_gpr ctx d (Regs.base ctx.Cpu.creg s); k ctx
    | Insn.CGetLen (rd, cb) ->
      let s = Regs.rslot cb and d = Cpu.gpr_wslot rd in
      fun ctx -> Cpu.wr_gpr ctx d (Regs.length ctx.Cpu.creg s); k ctx
    | Insn.CGetAddr (rd, cb) ->
      let s = Regs.rslot cb and d = Cpu.gpr_wslot rd in
      fun ctx -> Cpu.wr_gpr ctx d (Regs.addr ctx.Cpu.creg s); k ctx
    | Insn.CGetOffset (rd, cb) ->
      let s = Regs.rslot cb and d = Cpu.gpr_wslot rd in
      fun ctx -> Cpu.wr_gpr ctx d (Regs.offset ctx.Cpu.creg s); k ctx
    | Insn.CGetPerm (rd, cb) ->
      let s = Regs.rslot cb and d = Cpu.gpr_wslot rd in
      fun ctx -> Cpu.wr_gpr ctx d (Regs.perms ctx.Cpu.creg s); k ctx
    | Insn.CGetTag (rd, cb) ->
      let s = Regs.rslot cb and d = Cpu.gpr_wslot rd in
      fun ctx ->
        Cpu.wr_gpr ctx d (if Regs.tag ctx.Cpu.creg s then 1 else 0); k ctx
    | Insn.CGetType (rd, cb) ->
      let s = Regs.rslot cb and d = Cpu.gpr_wslot rd in
      fun ctx -> Cpu.wr_gpr ctx d (Regs.otype ctx.Cpu.creg s); k ctx
    | Insn.Nop | Insn.Annot _ -> k
    | insn -> fun ctx -> Cpu.exec_straight m ctx ~pc insn; k ctx
  else
    let mem = m.Cpu.mem in
    (* [hit_pa] needs every page to lie wholly inside or outside memory. *)
    let paged = Tagmem.size mem land page_mask = 0 in
    match insn with
    | Insn.Load { w = (1 | 2 | 4 | 8) as w; signed; rd; base = b; off } ->
      let d = Cpu.gpr_wslot rd and ws = if signed && w < 8 then -w else w in
      if not paged then fun ctx -> load_slow t m ctx j b off d ws k
      else (match ws with
       | 1 ->
         fun ctx ->
           let pa = ddc_hit t m ctx ~write:false b off 1 in
           if pa < 0 then load_slow t m ctx j b off d 1 k
           else (Cpu.wr_gpr ctx d (Tagmem.peek_u8 m.Cpu.mem pa); k ctx)
       | -1 ->
         fun ctx ->
           let pa = ddc_hit t m ctx ~write:false b off 1 in
           if pa < 0 then load_slow t m ctx j b off d (-1) k
           else (Cpu.wr_gpr ctx d (Tagmem.peek_s8 m.Cpu.mem pa); k ctx)
       | 2 ->
         fun ctx ->
           let pa = ddc_hit t m ctx ~write:false b off 2 in
           if pa < 0 then load_slow t m ctx j b off d 2 k
           else (Cpu.wr_gpr ctx d (Tagmem.peek_u16 m.Cpu.mem pa); k ctx)
       | -2 ->
         fun ctx ->
           let pa = ddc_hit t m ctx ~write:false b off 2 in
           if pa < 0 then load_slow t m ctx j b off d (-2) k
           else (Cpu.wr_gpr ctx d (Tagmem.peek_s16 m.Cpu.mem pa); k ctx)
       | 4 ->
         fun ctx ->
           let pa = ddc_hit t m ctx ~write:false b off 4 in
           if pa < 0 then load_slow t m ctx j b off d 4 k
           else (Cpu.wr_gpr ctx d (Tagmem.peek_u32 m.Cpu.mem pa); k ctx)
       | -4 ->
         fun ctx ->
           let pa = ddc_hit t m ctx ~write:false b off 4 in
           if pa < 0 then load_slow t m ctx j b off d (-4) k
           else (Cpu.wr_gpr ctx d (Tagmem.peek_s32 m.Cpu.mem pa); k ctx)
       | _ ->
         fun ctx ->
           let pa = ddc_hit t m ctx ~write:false b off 8 in
           if pa < 0 then load_slow t m ctx j b off d 8 k
           else (Cpu.wr_gpr ctx d (Tagmem.peek_u64 m.Cpu.mem pa); k ctx))
    | Insn.Store { w = (1 | 2 | 4 | 8) as w; rs; base = b; off } ->
      if not paged then fun ctx -> store_slow t m ctx j b off rs w k
      else (match w with
       | 1 ->
         fun ctx ->
           let pa = ddc_hit t m ctx ~write:true b off 1 in
           if pa < 0 then store_slow t m ctx j b off rs 1 k
           else (Tagmem.poke_u8 m.Cpu.mem pa (Cpu.rd_gpr ctx rs); k ctx)
       | 2 ->
         fun ctx ->
           let pa = ddc_hit t m ctx ~write:true b off 2 in
           if pa < 0 then store_slow t m ctx j b off rs 2 k
           else (Tagmem.poke_u16 m.Cpu.mem pa (Cpu.rd_gpr ctx rs); k ctx)
       | 4 ->
         fun ctx ->
           let pa = ddc_hit t m ctx ~write:true b off 4 in
           if pa < 0 then store_slow t m ctx j b off rs 4 k
           else (Tagmem.poke_u32 m.Cpu.mem pa (Cpu.rd_gpr ctx rs); k ctx)
       | _ ->
         fun ctx ->
           let pa = ddc_hit t m ctx ~write:true b off 8 in
           if pa < 0 then store_slow t m ctx j b off rs 8 k
           else (Tagmem.poke_u64 m.Cpu.mem pa (Cpu.rd_gpr ctx rs); k ctx))
    | Insn.CLoad { w = (1 | 2 | 4 | 8) as w; signed; rd; cb; off } ->
      let s = Regs.rslot cb and d = Cpu.gpr_wslot rd in
      let ws = if signed && w < 8 then -w else w in
      if not paged then fun ctx -> cload_slow t m ctx j s cb off d ws k
      else (match ws with
       | 1 ->
         fun ctx ->
           let pa = cap_hit t m ctx ~write:false s off 1 in
           if pa < 0 then cload_slow t m ctx j s cb off d 1 k
           else (Cpu.wr_gpr ctx d (Tagmem.peek_u8 m.Cpu.mem pa); k ctx)
       | -1 ->
         fun ctx ->
           let pa = cap_hit t m ctx ~write:false s off 1 in
           if pa < 0 then cload_slow t m ctx j s cb off d (-1) k
           else (Cpu.wr_gpr ctx d (Tagmem.peek_s8 m.Cpu.mem pa); k ctx)
       | 2 ->
         fun ctx ->
           let pa = cap_hit t m ctx ~write:false s off 2 in
           if pa < 0 then cload_slow t m ctx j s cb off d 2 k
           else (Cpu.wr_gpr ctx d (Tagmem.peek_u16 m.Cpu.mem pa); k ctx)
       | -2 ->
         fun ctx ->
           let pa = cap_hit t m ctx ~write:false s off 2 in
           if pa < 0 then cload_slow t m ctx j s cb off d (-2) k
           else (Cpu.wr_gpr ctx d (Tagmem.peek_s16 m.Cpu.mem pa); k ctx)
       | 4 ->
         fun ctx ->
           let pa = cap_hit t m ctx ~write:false s off 4 in
           if pa < 0 then cload_slow t m ctx j s cb off d 4 k
           else (Cpu.wr_gpr ctx d (Tagmem.peek_u32 m.Cpu.mem pa); k ctx)
       | -4 ->
         fun ctx ->
           let pa = cap_hit t m ctx ~write:false s off 4 in
           if pa < 0 then cload_slow t m ctx j s cb off d (-4) k
           else (Cpu.wr_gpr ctx d (Tagmem.peek_s32 m.Cpu.mem pa); k ctx)
       | _ ->
         fun ctx ->
           let pa = cap_hit t m ctx ~write:false s off 8 in
           if pa < 0 then cload_slow t m ctx j s cb off d 8 k
           else (Cpu.wr_gpr ctx d (Tagmem.peek_u64 m.Cpu.mem pa); k ctx))
    | Insn.CStore { w = (1 | 2 | 4 | 8) as w; rs; cb; off } ->
      let s = Regs.rslot cb in
      if not paged then fun ctx -> cstore_slow t m ctx j s cb off rs w k
      else (match w with
       | 1 ->
         fun ctx ->
           let pa = cap_hit t m ctx ~write:true s off 1 in
           if pa < 0 then cstore_slow t m ctx j s cb off rs 1 k
           else (Tagmem.poke_u8 m.Cpu.mem pa (Cpu.rd_gpr ctx rs); k ctx)
       | 2 ->
         fun ctx ->
           let pa = cap_hit t m ctx ~write:true s off 2 in
           if pa < 0 then cstore_slow t m ctx j s cb off rs 2 k
           else (Tagmem.poke_u16 m.Cpu.mem pa (Cpu.rd_gpr ctx rs); k ctx)
       | 4 ->
         fun ctx ->
           let pa = cap_hit t m ctx ~write:true s off 4 in
           if pa < 0 then cstore_slow t m ctx j s cb off rs 4 k
           else (Tagmem.poke_u32 m.Cpu.mem pa (Cpu.rd_gpr ctx rs); k ctx)
       | _ ->
         fun ctx ->
           let pa = cap_hit t m ctx ~write:true s off 8 in
           if pa < 0 then cstore_slow t m ctx j s cb off rs 8 k
           else (Tagmem.poke_u64 m.Cpu.mem pa (Cpu.rd_gpr ctx rs); k ctx))
    | Insn.CLC { cd; cb; off } ->
      let s = Regs.rslot cb and d = Regs.wslot cd in
      fun ctx ->
        let pa = cap_rd t m ctx ~j s cb off Cap.sizeof in
        let r = ctx.Cpu.creg in
        (* Without LOAD_CAP the tag is stripped on load. *)
        Tagmem.load_cap_reg mem pa r d
          ~keep_tag:(Perms.has (Regs.perms r s) Perms.load_cap);
        k ctx
    | Insn.CSC { cs; cb; off } ->
      let s = Regs.rslot cb and v = Regs.rslot cs in
      fun ctx ->
        let vaddr = cap_probe t ctx ~j ~perm:Perms.store s cb off Cap.sizeof in
        let r = ctx.Cpu.creg in
        if Regs.tag r v then begin
          if not (Perms.has (Regs.perms r s) Perms.store_cap) then
            Cpu.cap_fault (Cap.Permit_violation Perms.store_cap) ~reg:cb
              ~vaddr;
          if (not (Perms.has (Regs.perms r v) Perms.global))
             && not (Perms.has (Regs.perms r s) Perms.store_local_cap)
          then
            Cpu.cap_fault (Cap.Permit_violation Perms.store_local_cap)
              ~reg:cb ~vaddr
        end;
        let pa = wr_pa t m ctx vaddr Cap.sizeof in
        Tagmem.store_cap_reg mem pa r v;
        k ctx
    | Insn.CIncOffsetImm (cd, cb, i) ->
      let s = Regs.rslot cb and d = Regs.wslot cd in
      fun ctx ->
        t.x_i <- j;
        Regs.inc_addr ctx.Cpu.creg ~dst:d ~src:s i;
        k ctx
    | Insn.CIncOffset (cd, cb, rt) ->
      let s = Regs.rslot cb and d = Regs.wslot cd in
      fun ctx ->
        t.x_i <- j;
        Regs.inc_addr ctx.Cpu.creg ~dst:d ~src:s (Cpu.rd_gpr ctx rt);
        k ctx
    | Insn.CSetAddr (cd, cb, rt) ->
      let s = Regs.rslot cb and d = Regs.wslot cd in
      fun ctx ->
        t.x_i <- j;
        Regs.set_addr ctx.Cpu.creg ~dst:d ~src:s (Cpu.rd_gpr ctx rt);
        k ctx
    | insn -> fun ctx -> t.x_i <- j; Cpu.exec_straight m ctx ~pc insn; k ctx

(* The condition of a branch; true for an unconditional jump. *)
let branch_cond = function
  | Insn.Beq (rs, rt, _) ->
    fun ctx -> Cpu.rd_gpr ctx rs = Cpu.rd_gpr ctx rt
  | Insn.Bne (rs, rt, _) ->
    fun ctx -> Cpu.rd_gpr ctx rs <> Cpu.rd_gpr ctx rt
  | Insn.Blez (rs, _) -> fun ctx -> Cpu.rd_gpr ctx rs <= 0
  | Insn.Bgtz (rs, _) -> fun ctx -> Cpu.rd_gpr ctx rs > 0
  | Insn.Bltz (rs, _) -> fun ctx -> Cpu.rd_gpr ctx rs < 0
  | Insn.Bgez (rs, _) -> fun ctx -> Cpu.rd_gpr ctx rs >= 0
  | _ -> fun _ -> true

(* A taken conditional branch: one more cycle. *)
let[@inline] taken (ctx : Cpu.ctx) tg =
  ctx.Cpu.cycles <- ctx.Cpu.cycles + 1;
  tg

(* Terminator [j] of a block, at [pc] -> the block's last closure, which
   returns the exit code: a next pc — [fall] when it falls through —,
   [exit_pcc] or [exit_stop]. Mirrors the control arms of [Cpu.step]
   exactly, including the +1 taken-branch cycle, the alignment check
   before any side effect, and the order of tag check / link-register
   write on capability jumps. A jump to a static target that
   [Insn.can_trap] calls safe (an aligned one) needs no run-time check;
   one to a misaligned static target raises when taken. During block
   execution [ctx.pcc] is still the block-entry PCC, whose non-address
   fields are exactly those of the step engine's PCC at [pc] (set_addr
   never changes them in bounds), so link capabilities built from it are
   bit-identical. A capability jump installs the target PCC itself, after
   every check that can trap. Terminators carry no accounting:
   [exec_block] charges their fetch, base cycles and retirement with the
   rest of their line group, as it does for body instructions. *)
let compile_term t ~pc ~j ~fall insn : Cpu.ctx -> int =
  match insn with
  | Insn.Beq (_, _, tg) | Insn.Bne (_, _, tg) | Insn.Blez (_, tg)
  | Insn.Bgtz (_, tg) | Insn.Bltz (_, tg) | Insn.Bgez (_, tg)
  | Insn.J tg | Insn.Jal tg | Insn.CJAL (_, tg)
    when Insn.can_trap insn ->
    let cond = branch_cond insn in
    fun ctx -> if cond ctx then (t.x_i <- j; Cpu.unaligned tg 4) else fall
  | Insn.Beq (rs, rt, tg) ->
    fun ctx -> if Cpu.rd_gpr ctx rs = Cpu.rd_gpr ctx rt then taken ctx tg
      else fall
  | Insn.Bne (rs, rt, tg) ->
    fun ctx -> if Cpu.rd_gpr ctx rs <> Cpu.rd_gpr ctx rt then taken ctx tg
      else fall
  | Insn.Blez (rs, tg) ->
    fun ctx -> if Cpu.rd_gpr ctx rs <= 0 then taken ctx tg else fall
  | Insn.Bgtz (rs, tg) ->
    fun ctx -> if Cpu.rd_gpr ctx rs > 0 then taken ctx tg else fall
  | Insn.Bltz (rs, tg) ->
    fun ctx -> if Cpu.rd_gpr ctx rs < 0 then taken ctx tg else fall
  | Insn.Bgez (rs, tg) ->
    fun ctx -> if Cpu.rd_gpr ctx rs >= 0 then taken ctx tg else fall
  | Insn.J tg -> fun _ctx -> tg
  | Insn.Jal tg ->
    let d = Cpu.gpr_wslot Reg.ra in
    fun ctx -> Cpu.wr_gpr ctx d fall; tg
  | Insn.CJAL (cd, tg) ->
    let d = Regs.wslot cd in
    fun ctx -> Regs.set_addr_of ctx.Cpu.creg d ctx.Cpu.pcc fall; tg
  | Insn.Jr rs ->
    fun ctx ->
      t.x_i <- j;
      let tg = Cpu.rd_gpr ctx rs in
      Cpu.check_branch_target tg;
      tg
  | Insn.Jalr (rd, rs) ->
    let d = Cpu.gpr_wslot rd in
    fun ctx ->
      t.x_i <- j;
      let tg = Cpu.rd_gpr ctx rs in
      Cpu.check_branch_target tg;
      Cpu.wr_gpr ctx d fall;
      tg
  | Insn.CJR cb ->
    let s = Regs.rslot cb in
    fun ctx ->
      t.x_i <- j;
      let r = ctx.Cpu.creg in
      if not (Regs.tag r s) then
        Cpu.cap_fault Cap.Tag_violation ~reg:cb ~vaddr:pc;
      Cpu.check_branch_target (Regs.addr r s);
      ctx.Cpu.pcc <- Regs.get r s;
      exit_pcc
  | Insn.CJALR (cd, cb) ->
    let s = Regs.rslot cb and d = Regs.wslot cd in
    fun ctx ->
      t.x_i <- j;
      let r = ctx.Cpu.creg in
      if not (Regs.tag r s) then
        Cpu.cap_fault Cap.Tag_violation ~reg:cb ~vaddr:pc;
      Cpu.check_branch_target (Regs.addr r s);
      (* Box the target before the link write: cd may be cb. *)
      let target = Regs.get r s in
      Regs.set_addr_of r d ctx.Cpu.pcc fall;
      ctx.Cpu.pcc <- target;
      exit_pcc
  | Insn.Syscall ->
    fun ctx ->
      ctx.Cpu.pcc <- Cap.set_addr ctx.Cpu.pcc fall;
      t.stop <- Cpu.Stop_syscall;
      exit_stop
  | Insn.Rt n ->
    let stop = Cpu.Stop_rt n in
    fun ctx ->
      ctx.Cpu.pcc <- Cap.set_addr ctx.Cpu.pcc fall;
      t.stop <- stop;
      exit_stop
  | Insn.Break n ->
    let cause = Trap.Break_trap n in
    fun _ctx -> t.x_i <- j; Trap.raise_trap cause
  | _ -> assert false

(* Partition instruction indices [0, n) (n >= 1) into maximal runs whose
   fetch addresses share one cache line, packed as (start lsl 16) lor
   length. Consecutive instructions step 4 bytes through 64-byte lines,
   so the runs are the lines from the first instruction's to the last's.
   Lines are aligned, so a run never crosses a page either; the entry pc
   is fixed per block, so this is static. *)
let make_groups entry n =
  let l0 = entry lsr Cache.line_shift in
  let ln = (entry + (4 * (n - 1))) lsr Cache.line_shift in
  let gs = Array.make (ln - l0 + 1) 0 in
  let g = ref 0 and s = ref 0 in
  for j = 1 to n do
    if j = n || (entry + (4 * j)) lsr Cache.line_shift <> l0 + !g then begin
      gs.(!g) <- (!s lsl 16) lor (j - !s);
      incr g;
      s := j
    end
  done;
  gs

(* Decode a maximal block starting at [entry] into [t.scratch]; returns
   its length. A block ends after its terminator, at [max_block], or
   before the first instruction [Cpu.decode] rejects: one outside decoded
   code (a fetch fault) or one with an out-of-range register operand (a
   reserved instruction). *)
let decode_block t m entry =
  let n = ref 0 and ended = ref false in
  (try
     while (not !ended) && !n < max_block do
       let insn = Cpu.decode m (entry + (4 * !n)) in
       Array.unsafe_set t.scratch !n insn;
       incr n;
       ended := Insn.is_terminator insn
     done
   with Trap.Trap _ -> ());
  !n

(* Decode and compile a maximal block starting at [entry]: its closures
   are threaded back to front, each taking the rest of the block as its
   successor, with a [boundary] closure at the head of every line group
   after the first. Returns [None] when the first instruction does not
   decode: the step fallback then raises the trap with exact accounting.
   Build never touches translate, caches or counters, so it is invisible
   to the statistics; it allocates only the block's own closures and
   arrays. *)
let build t m entry =
  let n = decode_block t m entry in
  if n = 0 then None
  else begin
    t.built <- t.built + 1;
    let insns = t.scratch in
    let basesum = Array.make (n + 1) 0 in
    for i = 0 to n - 1 do
      basesum.(i + 1) <- basesum.(i) + Insn.base_cycles insns.(i)
    done;
    let groups = make_groups entry n in
    let slots = Array.make (Array.length groups) 0 in
    let fall = entry + (4 * n) in
    let last = insns.(n - 1) and pc = fall - 4 in
    let run =
      ref (if Insn.is_terminator last then compile_term t ~pc ~j:(n - 1) ~fall last
           else compile_sem t m ~pc ~j:(n - 1) last (fun _ -> fall))
    in
    let g = ref (Array.length groups - 1) in
    for j = n - 1 downto 0 do
      if j < n - 1 then
        run := compile_sem t m ~pc:(entry + (4 * j)) ~j insns.(j) !run;
      if j = groups.(!g) lsr 16 then begin
        if !g > 0 then run := boundary t m basesum slots entry !g j !run;
        decr g
      end
    done;
    let vp = entry lsr page_shift in
    Some { b_entry = entry; b_ilen = n;
           b_run = !run;
           b_groups = groups;
           b_basesum = basesum;
           b_vpage = (if (fall - 4) lsr page_shift = vp then vp else -2);
           b_pline = -1;
           b_slots = slots;
           b_fall = None;
           b_ic_key = min_int; b_ic = None; b_ic_misses = 0 }
  end

(* Find the running space's decoded block at [pc], building (and caching)
   it on demand. *)
let lookup_or_build t m pc =
  let blocks = t.space.blocks in
  match Hashtbl.find blocks pc with
  | b -> Some b
  | exception Not_found ->
    (match build t m pc with
     | Some b -> Hashtbl.add blocks pc b; Some b
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
   half is already known to hold for [ctx.pcc], i.e. across next-pc chain
   hops, which never touch the PCC object (only an [exit_pcc] exit
   replaces it, and that path re-runs the full check). *)
let bounds_ok (ctx : Cpu.ctx) b =
  let p = ctx.Cpu.pcc in
  b.b_entry >= Cap.base p && b.b_entry + (4 * b.b_ilen) <= Cap.top p

(* Execute [b] and return how it left the machine: a next pc (ctx.pcc's
   address NOT committed), [exit_pcc] (ctx.pcc replaced wholesale) or
   [exit_stop] (syscall/rt/trap, cause in [t.stop], ctx.pcc committed).
   Returning the next pc as an integer lets chained runs defer the
   [set_addr] commit: between two chained in-bounds blocks the commit is a
   pure address rewrite (the target is inside the bounds, the bounds are
   inside the representable window, so tag and every other field are
   untouched) — skipping it is bit-exact.

   The caller guarantees [block_ok] held on entry; [ctx.pcc]'s
   *address* may be stale mid-chain (closures bake their pc; only the PCC's
   non-address fields are consulted by the body and terminator closures).
   On a mid-block trap the PCC is materialized at the faulting instruction
   (b_entry + 4*i, [i] as the trapping closure recorded it in [t.x_i]) of
   the block that actually faulted — never a chain head's — from the
   entry PCC's non-address fields: [block_ok] guaranteed every such
   address is in bounds, and the representable window contains the
   bounds, so the iterated [set_addr] commits of the step engine produce
   exactly this capability.

   Both fetch paths run the same threaded closure, [b_run]; only the
   line-group boundaries inside it behave differently. Both are exact:
   - resident ([fetch_resident] holds): every fetch the block makes is an
     IL1 hit, and stays one, because only instruction fetches touch IL1
     and a hit evicts nothing. The block runs with no probe (its boundary
     closures see [resident] and do nothing), and [commit_resident] then
     charges all of its fetches at once: IL1 clock, hits and each line's
     final LRU stamp, one hit cycle, the base cycles and one retirement
     per instruction. Fetch hits change no state that a data access reads
     or writes (IL1 shares nothing with DL1 or L2), and cycles and
     [instret] are sums, so moving them past the block's data accesses is
     invisible.
   - ordered (otherwise): per line group, the head fetch runs as a real,
     in-order [Cache.ifetch] ([head_fetch]: here for group 0, in the
     group's boundary closure for the others), the only fetch that can
     miss and reach the L2; the follow-on fetches of the line are hits,
     committed at group end by [commit_group] with the same argument. The
     terminator is the last member of its group. A group that runs to its
     end records its line's IL1 slot, and a block that runs to its end
     within one page arms the residency memo.
   A trap commits exactly the prefix through the faulting instruction
   (the step engine accounts an instruction *before* executing it); a
   page fault on a head fetch commits nothing for its group, as in the
   step engine, where the fetch translate raises before any accounting. *)

(* Does IL1 slot [slots.(i)] hold line [pline + i], for every i in
   [k, n)? Top level, not a local closure: without flambda a local
   [let rec] allocates. *)
let rec lines_resident il1 slots pline k n =
  k >= n
  || (Cache.slot_holds il1 (Array.unsafe_get slots k) (pline + k)
      && lines_resident il1 slots pline (k + 1) n)

(* The one fetch check per block: [b] lies in the memoized exec page, its
   residency memo was armed for the line it now starts in, and each of
   its lines still sits in the memoized IL1 slot. *)
let[@inline] fetch_resident t il1 b =
  b.b_vpage = t.cur_vpage
  && (t.cur_pbase + (b.b_entry land page_mask)) lsr Cache.line_shift
     = b.b_pline
  && lines_resident il1 b.b_slots b.b_pline 0 (Array.length b.b_slots)

(* Charge instructions [0, j] of a block on the resident path. *)
let commit_resident m b (ctx : Cpu.ctx) j =
  let h = m.Cpu.hier in
  let n = j + 1 in
  ctx.Cpu.instret <- ctx.Cpu.instret + n;
  ctx.Cpu.cycles <-
    ctx.Cpu.cycles + (n * h.Cache.l1_hit_cycles)
    + Array.unsafe_get b.b_basesum n;
  let c0 = Cache.add_hits h.Cache.il1 n in
  let groups = b.b_groups in
  let k = ref 0 in
  while !k < Array.length groups && Array.unsafe_get groups !k lsr 16 < n do
    let g = Array.unsafe_get groups !k in
    (* The line's last fetch is number min(end, n) of the block. *)
    let e = (g lsr 16) + (g land 0xffff) in
    Cache.stamp h.Cache.il1 (Array.unsafe_get b.b_slots !k)
      (c0 + if e < n then e else n);
    incr k
  done

(* On a trap at instruction [t.x_i]: charge the prefix through it. *)
let commit_trap t m b ctx =
  if t.x_gcost = resident then commit_resident m b ctx t.x_i
  else if t.x_gcost >= 0 then commit_group t m b.b_basesum ctx t.x_i

let exec_block t m b (ctx : Cpu.ctx) =
  let entry_pcc = ctx.Cpu.pcc in
  let entry = b.b_entry in
  try
    if fetch_resident t m.Cpu.hier.Cache.il1 b then begin
      t.x_gcost <- resident;
      let x = b.b_run ctx in
      commit_resident m b ctx (b.b_ilen - 1);
      x
    end
    else begin
      t.ordered <- t.ordered + 1;
      b.b_pline <- -1;
      t.x_gcost <- no_fetch;
      head_fetch t m b.b_slots entry 0 0;
      let x = b.b_run ctx in
      commit_group t m b.b_basesum ctx (b.b_ilen - 1);
      if b.b_vpage = t.cur_vpage then
        b.b_pline <- (t.cur_pbase + (entry land page_mask)) lsr Cache.line_shift;
      x
    end
  with
  | Trap.Trap cause ->
    commit_trap t m b ctx;
    ctx.Cpu.pcc <- Cap.set_addr entry_pcc (entry + (4 * t.x_i));
    t.stop <- Cpu.Stop_trap cause;
    exit_stop
  | Cap.Cap_error v ->
    commit_trap t m b ctx;
    let pc = entry + (4 * t.x_i) in
    ctx.Cpu.pcc <- Cap.set_addr entry_pcc pc;
    t.stop <-
      Cpu.Stop_trap (Trap.Cap_fault { violation = v; reg = -1; vaddr = pc });
    exit_stop

(* --- Chaining -------------------------------------------------------------- *)

(* Successor block for an exit to [pc'] out of [b] through its inline cache
   (last pc + its block), degrading to a plain hashtable lookup once the
   exit has proved megamorphic. Returns None when the target has no
   decodable block — the chain then exits and the dispatch loop's
   single-step fallback reproduces the fetch fault exactly. After an
   [exit_pcc] exit, [pc'] is the address of the already-committed target
   capability: the cache maps pc -> block just like the hashtable does,
   and whether the *capability* covers that block is re-decided by
   [block_ok] at every chained entry, so two GOT targets with equal
   addresses but different bounds cannot be confused. *)
let ic_succ t m b pc' =
  if b.b_ic_key = pc' then begin
    t.ic_hits <- t.ic_hits + 1;
    b.b_ic
  end
  else if b.b_ic_misses >= ic_mega_threshold then begin
    t.ic_mega <- t.ic_mega + 1;
    lookup_or_build t m pc'
  end
  else begin
    t.ic_misses <- t.ic_misses + 1;
    b.b_ic_misses <- b.b_ic_misses + 1;
    match lookup_or_build t m pc' with
    | Some _ as s ->
      b.b_ic_key <- pc';
      b.b_ic <- s;
      s
    | None -> None
  end

(* Successor block for a next-pc transition to [pc'] out of [b], patching the
   chain link on the way. The fall-through address gets a dedicated direct
   link; every other target goes through the inline cache. *)
let chain_succ t m b pc' =
  if pc' = b.b_entry + (4 * b.b_ilen) then
    match b.b_fall with
    | Some _ as s -> s
    | None ->
      let s = lookup_or_build t m pc' in
      b.b_fall <- s;
      s
  else ic_succ t m b pc'

(* --- Dispatch loop ---------------------------------------------------------- *)

(* Run the running space's blocks until a stop or until [fuel]
   instructions have executed — same contract as [Cpu.run]. [map_gen] is
   the owning pmap's generation counter: a change means pages were
   unmapped or re-protected, so the space's decoded blocks are flushed. Whole blocks run only
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
   partial block exactly — and (c) the hoisted PCC check holds at the
   chained entry ([block_ok] after a capability jump, [bounds_ok] after a
   next-pc exit). Between chained blocks the PCC address is left stale
   (see [exec_block]); it is materialized whenever the chain exits. *)
let run ?(map_gen = 0) t m (ctx : Cpu.ctx) ~fuel =
  let sp = t.space in
  if map_gen <> sp.map_gen then begin
    flush t sp;
    sp.map_gen <- map_gen
  end;
  t.cur_vpage <- -1;
  dtlb_reset t;
  let remaining = ref fuel in
  let result = ref None in
  let running = ref true in
  while !running && !remaining > 0 do
    let pc = Cap.addr ctx.Cpu.pcc in
    match lookup_or_build t m pc with
    | Some b when b.b_ilen <= !remaining && block_ok ctx b ->
      t.chain_entries <- t.chain_entries + 1;
      let cur = ref b in
      let chaining = ref true in
      while !chaining do
        let b = !cur in
        remaining := !remaining - b.b_ilen;
        let x = exec_block t m b ctx in
        if x = exit_stop then begin
          result := Some t.stop;
          running := false;
          chaining := false
        end
        else if x = exit_pcc then
          (match ic_succ t m b (Cap.addr ctx.Cpu.pcc) with
           | Some nb when nb.b_ilen <= !remaining && block_ok ctx nb ->
             t.chained <- t.chained + 1;
             cur := nb
           | _ -> chaining := false)
        else
          (match chain_succ t m b x with
           | Some nb when nb.b_ilen <= !remaining && bounds_ok ctx nb ->
             t.chained <- t.chained + 1;
             cur := nb
           | _ ->
             ctx.Cpu.pcc <- Cap.set_addr ctx.Cpu.pcc x;
             chaining := false)
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
