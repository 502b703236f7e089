(* CPU interpreter.

   In-order, single-issue execution with deterministic cycle accounting:
   each instruction costs [Insn.base_cycles] plus memory-hierarchy latency
   from the cache model. Traps never advance the PC: all checks run before
   any architectural side effect, so a faulting instruction can be retried
   after the kernel services the fault (demand paging).

   The machine record carries per-address-space callbacks (translation and
   instruction fetch) that the kernel swaps on context switch.

   Two engines share these semantics (docs/INTERP.md):
   - [step]/[run] below: the reference per-instruction interpreter;
   - [Bbcache]: a decoded basic-block cache that pre-resolves straight-line
     runs into closures over [exec_straight] and the helpers here.
   Everything observable — register file, memory, tags, [instret],
   [cycles], per-level cache hit/miss counts, trap causes and PCs — must
   stay bit-identical between them; the straight-line semantics therefore
   live in exactly one place ([exec_straight] and the do_* helpers). *)

module Cap = Cheri_cap.Cap
module Perms = Cheri_cap.Perms
module Tagmem = Cheri_tagmem.Tagmem
module Cache = Cheri_tagmem.Cache

type stop =
  | Stop_syscall          (* user executed SYSCALL; pc already advanced *)
  | Stop_rt of int        (* runtime-builtin upcall; pc already advanced *)
  | Stop_trap of Trap.cause  (* pc NOT advanced *)

(* Execution engine selector (kernel config / --engine flag). *)
type engine =
  | Step                  (* reference per-instruction interpreter: the oracle *)
  | Chain                 (* decoded block cache with superblock chaining and
                             inline caches, see Bbcache.run *)

type machine = {
  mem : Tagmem.t;
  hier : Cache.hierarchy;
  (* vaddr -> paddr; raises [Trap.Trap] on page fault / address error. *)
  mutable translate : int -> write:bool -> exec:bool -> int;
  (* vaddr -> instruction; raises [Trap.Trap (Fetch_fault _)]. *)
  mutable fetch : int -> Insn.t;
  mutable tracer : Trace.sink option;
}

type ctx = {
  gpr : int array;           (* 32 integer registers, then r0's write sink
                                (see "Register access" below) *)
  creg : Cap.Regs.t;         (* 32 capability registers, unboxed; c0 reads
                                NULL (docs/INTERP.md) *)
  mutable pcc : Cap.t;       (* program-counter capability; cursor = pc *)
  mutable ddc : Cap.t;       (* default data capability *)
  mutable instret : int;
  mutable cycles : int;
}

let create_machine ~mem ~hier =
  { mem; hier;
    translate = (fun v ~write:_ ~exec:_ -> v);
    fetch = (fun v -> Trap.raise_trap (Trap.Fetch_fault { vaddr = v }));
    tracer = None }

(* Slot 32 of [gpr]: where writes to r0 land. *)
let gpr_sink = 32

let create_ctx () =
  { gpr = Array.make (gpr_sink + 1) 0;
    creg = Cap.Regs.create ();
    pcc = Cap.null;
    ddc = Cap.null;
    instret = 0;
    cycles = 0 }

let copy_ctx c =
  { gpr = Array.copy c.gpr; creg = Cap.Regs.copy c.creg;
    pcc = c.pcc; ddc = c.ddc; instret = c.instret; cycles = c.cycles }

(* --- Register access -------------------------------------------------------- *)

(* The integer file has one invariant: [gpr.(0) = 0]. Writes name a write
   slot, resolved from the register once ([gpr_wslot], at decode in the
   chain engine): r0's is the sink [gpr_sink], which no reader and no
   renderer (snapshot, signal frame, ptrace) ever shows. Outside the
   engines, writers name a fixed non-zero register (syscall results,
   exec's argument registers, [Signal_dispatch.read_frame] restoring
   r1..r31), so nothing ever writes slot 0. Register operands are
   range-checked once, at decode ([decode]), so a read is one load. *)
let[@inline] gpr_wslot r = if r = 0 then gpr_sink else r
let[@inline] rd_gpr ctx r = Array.unsafe_get ctx.gpr r
let[@inline] wr_gpr ctx w v = Array.unsafe_set ctx.gpr w v
(* The boxed view of the capability file: the step engine, which stays the
   oracle on the [Cap] API, and every consumer outside the datapath
   (syscalls, signal frames, exec, ptrace, snapshots) read and write
   capability registers through these two. Writes to c0 are discarded. *)
let rd_creg ctx r = Cap.Regs.get ctx.creg (Cap.Regs.rslot r)
let wr_creg ctx r v = Cap.Regs.set ctx.creg (Cap.Regs.wslot r) v

(* --- Memory access ----------------------------------------------------------- *)

(* Hit paths here are [@inline], so they compile into the chain engine's
   closures; every trap raise is [@inline never], so the closures carry
   only a call to it (docs/INTERP.md, "The hot path"). *)
let[@inline never] unaligned vaddr w =
  Trap.raise_trap (Trap.Unaligned { vaddr; width = w })

let[@inline] check_align vaddr w =
  if w > 1 && vaddr land (w - 1) <> 0 then unaligned vaddr w

let[@inline never] cap_fault violation ~reg ~vaddr =
  Trap.raise_trap (Trap.Cap_fault { violation; reg; vaddr })

(* Check a data access through capability [c] (register [reg] for fault
   reporting) at absolute [vaddr]. The engines' inline probes call it only
   when their fast predicate fails, to raise the architecturally ordered
   fault. *)
let[@inline never] check_cap c ~reg ~perm ~vaddr ~len =
  try Cap.check_access_at c ~perm ~addr:vaddr ~len
  with Cap.Cap_error v -> cap_fault v ~reg ~vaddr

let mem_read m ctx vaddr w ~signed =
  check_align vaddr w;
  let pa = m.translate vaddr ~write:false ~exec:false in
  ctx.cycles <- ctx.cycles + Cache.data_access m.hier pa w;
  if signed then Tagmem.read_int_signed m.mem pa ~len:w
  else Tagmem.read_int m.mem pa ~len:w

let mem_write m ctx vaddr w v =
  check_align vaddr w;
  let pa = m.translate vaddr ~write:true ~exec:false in
  ctx.cycles <- ctx.cycles + Cache.data_access m.hier pa w;
  Tagmem.write_int m.mem pa ~len:w v

let mem_read_cap m ctx vaddr =
  check_align vaddr Cap.sizeof;
  let pa = m.translate vaddr ~write:false ~exec:false in
  ctx.cycles <- ctx.cycles + Cache.data_access m.hier pa Cap.sizeof;
  Tagmem.read_cap m.mem pa

let mem_write_cap m ctx vaddr c =
  check_align vaddr Cap.sizeof;
  let pa = m.translate vaddr ~write:true ~exec:false in
  ctx.cycles <- ctx.cycles + Cache.data_access m.hier pa Cap.sizeof;
  Tagmem.write_cap m.mem pa c

(* --- Tracing ------------------------------------------------------------------ *)

(* [pc] is passed explicitly: under the block engine the PCC cursor is not
   materialized between instructions, so [Cap.addr ctx.pcc] would be stale. *)
let trace_derive m ~pc op result =
  match m.tracer with
  | Some sink when Cap.is_tagged result ->
    sink (Trace.Derive { pc; op; result })
  | _ -> ()

(* --- Shared operand semantics ------------------------------------------------- *)

(* Derivation helper: wrap [Cap] errors as capability faults against [reg]. *)
let derive ~reg ~pc f =
  try f () with Cap.Cap_error v -> cap_fault v ~reg ~vaddr:pc

(* Control-flow targets must be instruction-aligned; checked at the jump,
   before any architectural side effect (link-register writes included), so
   a misaligned target raises a precise [Unaligned] trap instead of
   surfacing later as a confusing fetch fault. *)
let[@inline] check_branch_target t = if t land 3 <> 0 then unaligned t 4

(* Signed division operands: divide-by-zero traps, and so does the
   INT_MIN / -1 overflow that OCaml's [/] and [mod] silently wrap. *)
let check_div a b =
  if b = 0 then Trap.raise_trap Trap.Div_by_zero;
  if a = min_int && b = -1 then Trap.raise_trap Trap.Overflow

let do_load m ctx ~w ~signed ~rd ~base ~off =
  let vaddr = rd_gpr ctx base + off in
  check_cap ctx.ddc ~reg:(-2) ~perm:Perms.load ~vaddr ~len:w;
  wr_gpr ctx (gpr_wslot rd) (mem_read m ctx vaddr w ~signed)

let do_store m ctx ~w ~rs ~base ~off =
  let vaddr = rd_gpr ctx base + off in
  check_cap ctx.ddc ~reg:(-2) ~perm:Perms.store ~vaddr ~len:w;
  mem_write m ctx vaddr w (rd_gpr ctx rs)

let do_cload m ctx ~w ~signed ~rd ~cb ~off =
  let cap = rd_creg ctx cb in
  let vaddr = Cap.addr cap + off in
  check_cap cap ~reg:cb ~perm:Perms.load ~vaddr ~len:w;
  wr_gpr ctx (gpr_wslot rd) (mem_read m ctx vaddr w ~signed)

let do_cstore m ctx ~w ~rs ~cb ~off =
  let cap = rd_creg ctx cb in
  let vaddr = Cap.addr cap + off in
  check_cap cap ~reg:cb ~perm:Perms.store ~vaddr ~len:w;
  mem_write m ctx vaddr w (rd_gpr ctx rs)

let do_clc m ctx ~cd ~cb ~off =
  let cap = rd_creg ctx cb in
  let vaddr = Cap.addr cap + off in
  check_cap cap ~reg:cb ~perm:Perms.load ~vaddr ~len:Cap.sizeof;
  let loaded = mem_read_cap m ctx vaddr in
  (* Without LOAD_CAP the tag is stripped on load. *)
  let loaded =
    if Perms.has (Cap.perms cap) Perms.load_cap then loaded
    else Cap.clear_tag loaded
  in
  wr_creg ctx cd loaded

let do_csc m ctx ~cs ~cb ~off =
  let cap = rd_creg ctx cb in
  let vaddr = Cap.addr cap + off in
  check_cap cap ~reg:cb ~perm:Perms.store ~vaddr ~len:Cap.sizeof;
  let v = rd_creg ctx cs in
  if Cap.is_tagged v then begin
    if not (Perms.has (Cap.perms cap) Perms.store_cap) then
      cap_fault (Cap.Permit_violation Perms.store_cap) ~reg:cb ~vaddr;
    if (not (Perms.has (Cap.perms v) Perms.global))
       && not (Perms.has (Cap.perms cap) Perms.store_local_cap)
    then cap_fault (Cap.Permit_violation Perms.store_local_cap) ~reg:cb ~vaddr
  end;
  mem_write_cap m ctx vaddr v

(* Execute one non-terminator instruction at [pc] (used for fault vaddrs
   and trace pcs; the PC commit itself is the engine's job). Both engines
   call this, so straight-line semantics exist in exactly one place. *)
let exec_straight m ctx ~pc (insn : Insn.t) =
  match insn with
  | Insn.Li (rd, v) -> wr_gpr ctx (gpr_wslot rd) v
  | Move (rd, rs) -> wr_gpr ctx (gpr_wslot rd) (rd_gpr ctx rs)
  | Addu (rd, rs, rt) -> wr_gpr ctx (gpr_wslot rd) (rd_gpr ctx rs + rd_gpr ctx rt)
  | Addiu (rd, rs, i) -> wr_gpr ctx (gpr_wslot rd) (rd_gpr ctx rs + i)
  | Subu (rd, rs, rt) -> wr_gpr ctx (gpr_wslot rd) (rd_gpr ctx rs - rd_gpr ctx rt)
  | Mul (rd, rs, rt) -> wr_gpr ctx (gpr_wslot rd) (rd_gpr ctx rs * rd_gpr ctx rt)
  | Div (rd, rs, rt) ->
    let a = rd_gpr ctx rs and b = rd_gpr ctx rt in
    check_div a b;
    wr_gpr ctx (gpr_wslot rd) (a / b)
  | Rem (rd, rs, rt) ->
    let a = rd_gpr ctx rs and b = rd_gpr ctx rt in
    check_div a b;
    wr_gpr ctx (gpr_wslot rd) (a mod b)
  | And_ (rd, rs, rt) ->
    wr_gpr ctx (gpr_wslot rd) (rd_gpr ctx rs land rd_gpr ctx rt)
  | Andi (rd, rs, i) -> wr_gpr ctx (gpr_wslot rd) (rd_gpr ctx rs land i)
  | Or_ (rd, rs, rt) -> wr_gpr ctx (gpr_wslot rd) (rd_gpr ctx rs lor rd_gpr ctx rt)
  | Ori (rd, rs, i) -> wr_gpr ctx (gpr_wslot rd) (rd_gpr ctx rs lor i)
  | Xor_ (rd, rs, rt) ->
    wr_gpr ctx (gpr_wslot rd) (rd_gpr ctx rs lxor rd_gpr ctx rt)
  | Xori (rd, rs, i) -> wr_gpr ctx (gpr_wslot rd) (rd_gpr ctx rs lxor i)
  | Nor_ (rd, rs, rt) ->
    wr_gpr ctx (gpr_wslot rd) (lnot (rd_gpr ctx rs lor rd_gpr ctx rt))
  | Sll (rd, rs, sh) -> wr_gpr ctx (gpr_wslot rd) (rd_gpr ctx rs lsl sh)
  | Srl (rd, rs, sh) -> wr_gpr ctx (gpr_wslot rd) (rd_gpr ctx rs lsr sh)
  | Sra (rd, rs, sh) -> wr_gpr ctx (gpr_wslot rd) (rd_gpr ctx rs asr sh)
  | Sllv (rd, rs, rt) ->
    wr_gpr ctx (gpr_wslot rd) (rd_gpr ctx rs lsl (rd_gpr ctx rt land 63))
  | Srlv (rd, rs, rt) ->
    wr_gpr ctx (gpr_wslot rd) (rd_gpr ctx rs lsr (rd_gpr ctx rt land 63))
  | Srav (rd, rs, rt) ->
    wr_gpr ctx (gpr_wslot rd) (rd_gpr ctx rs asr (rd_gpr ctx rt land 63))
  | Slt (rd, rs, rt) ->
    wr_gpr ctx (gpr_wslot rd) (if rd_gpr ctx rs < rd_gpr ctx rt then 1 else 0)
  | Sltu (rd, rs, rt) ->
    (* Unsigned compare on 63-bit OCaml ints: compare shifted. *)
    let a = rd_gpr ctx rs and b = rd_gpr ctx rt in
    let ua = a lxor min_int and ub = b lxor min_int in
    wr_gpr ctx (gpr_wslot rd) (if ua < ub then 1 else 0)
  | Slti (rd, rs, i) ->
    wr_gpr ctx (gpr_wslot rd) (if rd_gpr ctx rs < i then 1 else 0)
  | Sltiu (rd, rs, i) ->
    let ua = rd_gpr ctx rs lxor min_int and ub = i lxor min_int in
    wr_gpr ctx (gpr_wslot rd) (if ua < ub then 1 else 0)
  | Load { w; signed; rd; base; off } -> do_load m ctx ~w ~signed ~rd ~base ~off
  | Store { w; rs; base; off } -> do_store m ctx ~w ~rs ~base ~off
  | CLoad { w; signed; rd; cb; off } -> do_cload m ctx ~w ~signed ~rd ~cb ~off
  | CStore { w; rs; cb; off } -> do_cstore m ctx ~w ~rs ~cb ~off
  | CLC { cd; cb; off } -> do_clc m ctx ~cd ~cb ~off
  | CSC { cs; cb; off } -> do_csc m ctx ~cs ~cb ~off
  | CMove (cd, cb) -> wr_creg ctx cd (rd_creg ctx cb)
  | CGetBase (rd, cb) -> wr_gpr ctx (gpr_wslot rd) (Cap.base (rd_creg ctx cb))
  | CGetLen (rd, cb) -> wr_gpr ctx (gpr_wslot rd) (Cap.length (rd_creg ctx cb))
  | CGetAddr (rd, cb) -> wr_gpr ctx (gpr_wslot rd) (Cap.addr (rd_creg ctx cb))
  | CGetOffset (rd, cb) -> wr_gpr ctx (gpr_wslot rd) (Cap.offset (rd_creg ctx cb))
  | CGetPerm (rd, cb) -> wr_gpr ctx (gpr_wslot rd) (Cap.perms (rd_creg ctx cb))
  | CGetTag (rd, cb) ->
    wr_gpr ctx (gpr_wslot rd) (if Cap.is_tagged (rd_creg ctx cb) then 1 else 0)
  | CGetType (rd, cb) -> wr_gpr ctx (gpr_wslot rd) (Cap.otype (rd_creg ctx cb))
  | CSetBounds (cd, cb, rt) ->
    let r = derive ~reg:cb ~pc (fun () -> Cap.set_bounds (rd_creg ctx cb) ~len:(rd_gpr ctx rt)) in
    trace_derive m ~pc "csetbounds" r;
    wr_creg ctx cd r
  | CSetBoundsImm (cd, cb, len) ->
    let r = derive ~reg:cb ~pc (fun () -> Cap.set_bounds (rd_creg ctx cb) ~len) in
    trace_derive m ~pc "csetbounds" r;
    wr_creg ctx cd r
  | CSetBoundsExact (cd, cb, rt) ->
    let r =
      derive ~reg:cb ~pc (fun () -> Cap.set_bounds ~exact:true (rd_creg ctx cb) ~len:(rd_gpr ctx rt))
    in
    trace_derive m ~pc "csetboundsexact" r;
    wr_creg ctx cd r
  | CAndPerm (cd, cb, rt) ->
    let r = derive ~reg:cb ~pc (fun () -> Cap.and_perms (rd_creg ctx cb) (rd_gpr ctx rt)) in
    trace_derive m ~pc "candperm" r;
    wr_creg ctx cd r
  | CAndPermImm (cd, cb, mask) ->
    let r = derive ~reg:cb ~pc (fun () -> Cap.and_perms (rd_creg ctx cb) mask) in
    trace_derive m ~pc "candperm" r;
    wr_creg ctx cd r
  | CIncOffset (cd, cb, rt) -> wr_creg ctx cd (Cap.inc_addr (rd_creg ctx cb) (rd_gpr ctx rt))
  | CIncOffsetImm (cd, cb, i) -> wr_creg ctx cd (Cap.inc_addr (rd_creg ctx cb) i)
  | CSetAddr (cd, cb, rt) -> wr_creg ctx cd (Cap.set_addr (rd_creg ctx cb) (rd_gpr ctx rt))
  | CClearTag (cd, cb) -> wr_creg ctx cd (Cap.clear_tag (rd_creg ctx cb))
  | CFromPtr (cd, cb, rt) ->
    let src = if cb = 0 then ctx.ddc else rd_creg ctx cb in
    let r = derive ~reg:cb ~pc (fun () -> Cap.from_ptr src (rd_gpr ctx rt)) in
    trace_derive m ~pc "cfromptr" r;
    wr_creg ctx cd r
  | CSeal (cd, cb, ct) ->
    let r = derive ~reg:cb ~pc (fun () -> Cap.seal (rd_creg ctx cb) ~with_:(rd_creg ctx ct)) in
    wr_creg ctx cd r
  | CUnseal (cd, cb, ct) ->
    let r = derive ~reg:cb ~pc (fun () -> Cap.unseal (rd_creg ctx cb) ~with_:(rd_creg ctx ct)) in
    wr_creg ctx cd r
  | CRRL (rd, rs) ->
    wr_gpr ctx (gpr_wslot rd) (Cheri_cap.Compress.crrl (rd_gpr ctx rs))
  | CRAM (rd, rs) ->
    wr_gpr ctx (gpr_wslot rd) (Cheri_cap.Compress.cram (rd_gpr ctx rs))
  | CReadDDC cd ->
    if not (Perms.has (Cap.perms ctx.pcc) Perms.system_regs) then
      cap_fault (Cap.Permit_violation Perms.system_regs) ~reg:cd ~vaddr:pc;
    wr_creg ctx cd ctx.ddc
  | CWriteDDC cb ->
    if not (Perms.has (Cap.perms ctx.pcc) Perms.system_regs) then
      cap_fault (Cap.Permit_violation Perms.system_regs) ~reg:cb ~vaddr:pc;
    ctx.ddc <- rd_creg ctx cb
  | Annot _ | Nop -> ()
  | Beq _ | Bne _ | Blez _ | Bgtz _ | Bltz _ | Bgez _
  | J _ | Jal _ | Jr _ | Jalr _ | CJR _ | CJAL _ | CJALR _
  | Syscall | Break _ | Rt _ ->
    (* Terminators run through the engines' control paths. *)
    assert false

(* --- Decode ------------------------------------------------------------------- *)

(* Fetch the instruction at [pc] and validate its register operands: one
   that names a register outside either file is a reserved instruction.
   This is the one range check on register operands. The step engine
   decodes every instruction here, after the fetch is charged and before
   it retires (the accounting of a fetch fault); the chain engine builds
   blocks through it and ends a block before such an instruction, so the
   step fallback raises the trap with the same accounting. *)
let decode m pc =
  let insn = m.fetch pc in
  if not (Insn.regs_valid insn) then Trap.raise_trap Trap.Reserved_instruction;
  insn

(* --- Step --------------------------------------------------------------------- *)

let step m ctx : stop option =
  let pc = Cap.addr ctx.pcc in
  try
    (* Instruction fetch: PCC must be a valid executable capability. *)
    (try Cap.check_access_at ctx.pcc ~perm:Perms.execute ~addr:pc ~len:4
     with Cap.Cap_error v -> cap_fault v ~reg:(-1) ~vaddr:pc);
    let ipa = m.translate pc ~write:false ~exec:true in
    ctx.cycles <- ctx.cycles + Cache.ifetch m.hier ipa;
    let insn = decode m pc in
    ctx.cycles <- ctx.cycles + Insn.base_cycles insn;
    ctx.instret <- ctx.instret + 1;
    let next = ref (pc + 4) in
    let next_pcc = ref None in    (* capability jump replaces PCC wholesale *)
    let stop = ref None in
    (match insn with
     | Insn.Beq (rs, rt, t) ->
       if rd_gpr ctx rs = rd_gpr ctx rt then
         (check_branch_target t; next := t; ctx.cycles <- ctx.cycles + 1)
     | Bne (rs, rt, t) ->
       if rd_gpr ctx rs <> rd_gpr ctx rt then
         (check_branch_target t; next := t; ctx.cycles <- ctx.cycles + 1)
     | Blez (rs, t) ->
       if rd_gpr ctx rs <= 0 then
         (check_branch_target t; next := t; ctx.cycles <- ctx.cycles + 1)
     | Bgtz (rs, t) ->
       if rd_gpr ctx rs > 0 then
         (check_branch_target t; next := t; ctx.cycles <- ctx.cycles + 1)
     | Bltz (rs, t) ->
       if rd_gpr ctx rs < 0 then
         (check_branch_target t; next := t; ctx.cycles <- ctx.cycles + 1)
     | Bgez (rs, t) ->
       if rd_gpr ctx rs >= 0 then
         (check_branch_target t; next := t; ctx.cycles <- ctx.cycles + 1)
     | J t -> check_branch_target t; next := t
     | Jal t ->
       check_branch_target t;
       wr_gpr ctx (gpr_wslot Reg.ra) (pc + 4);
       next := t
     | Jr rs ->
       let t = rd_gpr ctx rs in
       check_branch_target t;
       next := t
     | Jalr (rd, rs) ->
       let t = rd_gpr ctx rs in
       check_branch_target t;
       wr_gpr ctx (gpr_wslot rd) (pc + 4);
       next := t
     | CJR cb ->
       let target = rd_creg ctx cb in
       if not (Cap.is_tagged target) then
         cap_fault Cap.Tag_violation ~reg:cb ~vaddr:pc;
       check_branch_target (Cap.addr target);
       next_pcc := Some target
     | CJAL (cd, t) ->
       check_branch_target t;
       wr_creg ctx cd (Cap.set_addr ctx.pcc (pc + 4));
       next := t
     | CJALR (cd, cb) ->
       let target = rd_creg ctx cb in
       if not (Cap.is_tagged target) then
         cap_fault Cap.Tag_violation ~reg:cb ~vaddr:pc;
       check_branch_target (Cap.addr target);
       wr_creg ctx cd (Cap.set_addr ctx.pcc (pc + 4));
       next_pcc := Some target
     | Syscall -> stop := Some Stop_syscall
     | Break n -> Trap.raise_trap (Trap.Break_trap n)
     | Rt n -> stop := Some (Stop_rt n)
     | i -> exec_straight m ctx ~pc i);
    (* Commit the PC. *)
    (match !next_pcc with
     | Some cap -> ctx.pcc <- cap
     | None -> ctx.pcc <- Cap.set_addr ctx.pcc !next);
    !stop
  with
  | Trap.Trap cause -> Some (Stop_trap cause)
  | Cap.Cap_error v ->
    Some (Stop_trap (Trap.Cap_fault { violation = v; reg = -1; vaddr = pc }))

(* Run until a stop condition or until [fuel] instructions have executed.
   Returns the stop reason, or [None] when the fuel ran out. *)
let run m ctx ~fuel =
  let rec go n = if n <= 0 then None else match step m ctx with
    | None -> go (n - 1)
    | Some s -> Some s
  in
  go fuel
