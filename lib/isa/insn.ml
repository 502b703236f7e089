(* Instruction set of the CHERI-MIPS-like machine.

   Integer instructions follow 64-bit MIPS conventions; capability
   instructions follow the CHERI ISA. Legacy loads and stores are
   implicitly indirected through DDC; capability loads and stores name an
   explicit capability register (the principle of intentional use).

   Control-flow targets are absolute virtual addresses (the assembler
   resolves labels). Instructions are 4 bytes for addressing purposes. *)

type width = int  (* 1, 2, 4 or 8 bytes *)

type t =
  (* Integer ALU. *)
  | Li of int * int                 (* rd <- imm (64-bit, counts as 1 insn) *)
  | Move of int * int               (* rd <- rs *)
  | Addu of int * int * int         (* rd <- rs + rt *)
  | Addiu of int * int * int        (* rd <- rs + imm *)
  | Subu of int * int * int
  | Mul of int * int * int
  | Div of int * int * int
  | Rem of int * int * int
  | And_ of int * int * int
  | Andi of int * int * int
  | Or_ of int * int * int
  | Ori of int * int * int
  | Xor_ of int * int * int
  | Xori of int * int * int
  | Nor_ of int * int * int
  | Sll of int * int * int          (* rd <- rs << shamt *)
  | Srl of int * int * int
  | Sra of int * int * int
  | Sllv of int * int * int         (* rd <- rs << rt *)
  | Srlv of int * int * int
  | Srav of int * int * int
  | Slt of int * int * int
  | Sltu of int * int * int
  | Slti of int * int * int
  | Sltiu of int * int * int
  (* Control flow; targets are absolute virtual addresses. *)
  | Beq of int * int * int
  | Bne of int * int * int
  | Blez of int * int
  | Bgtz of int * int
  | Bltz of int * int
  | Bgez of int * int
  | J of int
  | Jal of int                      (* legacy: ra <- pc+4 *)
  | Jr of int
  | Jalr of int * int               (* rd <- pc+4; pc <- rs *)
  (* Legacy (DDC-relative) memory: ea = gpr[base] + off. *)
  | Load of { w : width; signed : bool; rd : int; base : int; off : int }
  | Store of { w : width; rs : int; base : int; off : int }
  (* Capability-relative memory: ea = creg[cb].addr + off. *)
  | CLoad of { w : width; signed : bool; rd : int; cb : int; off : int }
  | CStore of { w : width; rs : int; cb : int; off : int }
  (* Capability load/store of capabilities. The immediate field width is
     the subject of the paper's CLC ISA extension (§5.2): the original CLC
     had a small immediate; the extension allows most GOT entries to be
     reached with a single instruction. [Asm] enforces the range. *)
  | CLC of { cd : int; cb : int; off : int }
  | CSC of { cs : int; cb : int; off : int }
  (* Capability inspection. *)
  | CMove of int * int
  | CGetBase of int * int           (* rd <- creg[cb].base *)
  | CGetLen of int * int
  | CGetAddr of int * int           (* the paper's new CGetAddr instruction *)
  | CGetOffset of int * int
  | CGetPerm of int * int
  | CGetTag of int * int
  | CGetType of int * int
  (* Capability modification (monotonic). *)
  | CSetBounds of int * int * int   (* cd <- setbounds(creg[cb], len=gpr[rt]) *)
  | CSetBoundsImm of int * int * int
  | CSetBoundsExact of int * int * int
  | CAndPerm of int * int * int     (* cd <- andperm(creg[cb], gpr[rt]) *)
  | CAndPermImm of int * int * int
  | CIncOffset of int * int * int   (* cd <- creg[cb] + gpr[rt] *)
  | CIncOffsetImm of int * int * int
  | CSetAddr of int * int * int     (* cd <- creg[cb] with addr = gpr[rt] *)
  | CClearTag of int * int
  | CFromPtr of int * int * int     (* cd <- derive(creg[cb], addr=gpr[rt]) *)
  | CSeal of int * int * int
  | CUnseal of int * int * int
  | CRRL of int * int               (* rd <- representable rounded len gpr[rs] *)
  | CRAM of int * int               (* rd <- representable alignment mask *)
  (* Capability control flow. *)
  | CJR of int                      (* pcc <- creg[cb] *)
  | CJALR of int * int              (* cd <- pcc.(pc+4); pcc <- creg[cb] *)
  | CJAL of int * int               (* cd <- pcc.(pc+4); pc <- target; the
                                       target stays under the current PCC
                                       bounds: within-object calls only *)
  (* DDC access (requires SYSTEM_REGS on PCC, i.e. kernel mode). *)
  | CReadDDC of int
  | CWriteDDC of int
  (* System. *)
  | Syscall
  | Break of int
  | Rt of int                       (* runtime-builtin upcall (malloc etc.) *)
  | Annot of string                 (* zero-cost marker *)
  | Nop

(* Cycle cost excluding memory-hierarchy effects (in-order single-issue,
   roughly ARM7TDMI-like as in the paper's FPGA pipeline). *)
let base_cycles = function
  | Mul _ -> 3
  | Div _ | Rem _ -> 32
  | J _ | Jal _ | Jr _ | Jalr _ | CJR _ | CJALR _ | CJAL _ -> 2
  | Li (_, imm) when imm < -32768 || imm > 32767 -> 2  (* lui+ori pair *)
  | Annot _ -> 0
  | _ -> 1

(* Instructions that end a basic block: anything that can change the PC
   non-sequentially or hand control to the kernel. The block-cache engine
   ([Bbcache]) translates maximal runs of non-terminators and executes the
   terminator (if any) through its control path; [Cpu.step] keeps the same
   classification implicitly in its match ordering. *)
let is_terminator = function
  | Beq _ | Bne _ | Blez _ | Bgtz _ | Bltz _ | Bgez _
  | J _ | Jal _ | Jr _ | Jalr _
  | CJR _ | CJAL _ | CJALR _
  | Syscall | Break _ | Rt _ -> true
  | _ -> false

(* May executing this instruction trap (raise a trap or a capability
   fault) once decode has accepted it? The one may-trap classification:
   the chain engine ([Bbcache]) compiles a closure that records its
   instruction index for trap attribution only where this holds, and a
   branch or jump whose static target is aligned gets no run-time target
   check. A "false" is a promise that [Cpu.exec_straight] never raises on
   the instruction (checked by a property test over random register
   files) and, for a terminator, that [Cpu.step] never stops with a trap
   once the fetch succeeded: arithmetic other than division, the
   capability moves, tag clears and field reads, [Syscall] and [Rt], and
   jumps to an aligned static target. Everything else may trap: division
   (by zero, INT_MIN / -1), every memory access, every derivation that
   checks tag, seal or bounds ([CIncOffset] and [CSetAddr] raise on a
   sealed capability), register-indirect jumps, DDC access and [Break]. *)
let can_trap = function
  | Li _ | Move _ | Addu _ | Addiu _ | Subu _ | Mul _
  | And_ _ | Andi _ | Or_ _ | Ori _ | Xor_ _ | Xori _ | Nor_ _
  | Sll _ | Srl _ | Sra _ | Sllv _ | Srlv _ | Srav _
  | Slt _ | Sltu _ | Slti _ | Sltiu _
  | CMove _ | CClearTag _
  | CGetBase _ | CGetLen _ | CGetAddr _ | CGetOffset _ | CGetPerm _
  | CGetTag _ | CGetType _ | CRRL _ | CRAM _
  | Syscall | Rt _ | Annot _ | Nop -> false
  | Beq (_, _, tg) | Bne (_, _, tg) | Blez (_, tg) | Bgtz (_, tg)
  | Bltz (_, tg) | Bgez (_, tg) | J tg | Jal tg | CJAL (_, tg) ->
    tg land 3 <> 0
  | Div _ | Rem _ | Load _ | Store _ | CLoad _ | CStore _ | CLC _ | CSC _
  | CSetBounds _ | CSetBoundsImm _ | CSetBoundsExact _
  | CAndPerm _ | CAndPermImm _ | CIncOffset _ | CIncOffsetImm _
  | CSetAddr _ | CFromPtr _ | CSeal _ | CUnseal _
  | Jr _ | Jalr _ | CJR _ | CJALR _ | CReadDDC _ | CWriteDDC _ | Break _ ->
    true

(* Are all register operands in range? Every GPR and capability operand
   names one of the 32 registers of its file; an instruction that names
   anything else is reserved ([Cpu.decode] raises
   [Trap.Reserved_instruction] for it, in both engines). Immediates,
   shift amounts and targets are not operands here. *)
let regs_valid i =
  let ok r = 0 <= r && r < 32 in
  match i with
  | Li (a, _) | Jr a | Blez (a, _) | Bgtz (a, _) | Bltz (a, _) | Bgez (a, _)
  | CJR a | CJAL (a, _) | CReadDDC a | CWriteDDC a -> ok a
  | Move (a, b) | Jalr (a, b) | Beq (a, b, _) | Bne (a, b, _)
  | Addiu (a, b, _) | Andi (a, b, _) | Ori (a, b, _) | Xori (a, b, _)
  | Sll (a, b, _) | Srl (a, b, _) | Sra (a, b, _)
  | Slti (a, b, _) | Sltiu (a, b, _)
  | Load { rd = a; base = b; _ } | Store { rs = a; base = b; _ }
  | CLoad { rd = a; cb = b; _ } | CStore { rs = a; cb = b; _ }
  | CLC { cd = a; cb = b; _ } | CSC { cs = a; cb = b; _ }
  | CMove (a, b) | CGetBase (a, b) | CGetLen (a, b) | CGetAddr (a, b)
  | CGetOffset (a, b) | CGetPerm (a, b) | CGetTag (a, b) | CGetType (a, b)
  | CSetBoundsImm (a, b, _) | CAndPermImm (a, b, _) | CIncOffsetImm (a, b, _)
  | CClearTag (a, b) | CRRL (a, b) | CRAM (a, b) | CJALR (a, b) ->
    ok a && ok b
  | Addu (a, b, c) | Subu (a, b, c) | Mul (a, b, c) | Div (a, b, c)
  | Rem (a, b, c) | And_ (a, b, c) | Or_ (a, b, c) | Xor_ (a, b, c)
  | Nor_ (a, b, c) | Sllv (a, b, c) | Srlv (a, b, c) | Srav (a, b, c)
  | Slt (a, b, c) | Sltu (a, b, c)
  | CSetBounds (a, b, c) | CSetBoundsExact (a, b, c) | CAndPerm (a, b, c)
  | CIncOffset (a, b, c) | CSetAddr (a, b, c) | CFromPtr (a, b, c)
  | CSeal (a, b, c) | CUnseal (a, b, c) ->
    ok a && ok b && ok c
  | J _ | Jal _ | Syscall | Break _ | Rt _ | Annot _ | Nop -> true

(* Capability register written by an instruction, if any. CReadDDC writes
   its destination creg; CWriteDDC writes the special DDC register, not a
   creg, so it reports no definition here. *)
let creg_def = function
  | CLC { cd; _ }
  | CMove (cd, _)
  | CSetBounds (cd, _, _) | CSetBoundsImm (cd, _, _)
  | CSetBoundsExact (cd, _, _)
  | CAndPerm (cd, _, _) | CAndPermImm (cd, _, _)
  | CIncOffset (cd, _, _) | CIncOffsetImm (cd, _, _)
  | CSetAddr (cd, _, _) | CClearTag (cd, _) | CFromPtr (cd, _, _)
  | CSeal (cd, _, _) | CUnseal (cd, _, _)
  | CJALR (cd, _) | CJAL (cd, _) | CReadDDC cd -> Some cd
  | _ -> None

(* General-purpose register written by an instruction, if any. [Jal]
   implicitly writes the legacy return-address register. *)
let gpr_def = function
  | Li (rd, _) | Move (rd, _)
  | Addu (rd, _, _) | Addiu (rd, _, _) | Subu (rd, _, _)
  | Mul (rd, _, _) | Div (rd, _, _) | Rem (rd, _, _)
  | And_ (rd, _, _) | Andi (rd, _, _) | Or_ (rd, _, _) | Ori (rd, _, _)
  | Xor_ (rd, _, _) | Xori (rd, _, _) | Nor_ (rd, _, _)
  | Sll (rd, _, _) | Srl (rd, _, _) | Sra (rd, _, _)
  | Sllv (rd, _, _) | Srlv (rd, _, _) | Srav (rd, _, _)
  | Slt (rd, _, _) | Sltu (rd, _, _) | Slti (rd, _, _) | Sltiu (rd, _, _)
  | Jalr (rd, _)
  | Load { rd; _ } | CLoad { rd; _ }
  | CGetBase (rd, _) | CGetLen (rd, _) | CGetAddr (rd, _)
  | CGetOffset (rd, _) | CGetPerm (rd, _) | CGetTag (rd, _)
  | CGetType (rd, _) | CRRL (rd, _) | CRAM (rd, _) -> Some rd
  | Jal _ -> Some Reg.ra
  | _ -> None

let pp_gpr = Reg.gpr_name
let pp_creg = Reg.creg_name

let to_string (i : t) =
  let g = pp_gpr and c = pp_creg in
  match i with
  | Li (rd, v) -> Printf.sprintf "li %s, %d" (g rd) v
  | Move (rd, rs) -> Printf.sprintf "move %s, %s" (g rd) (g rs)
  | Addu (rd, rs, rt) -> Printf.sprintf "addu %s, %s, %s" (g rd) (g rs) (g rt)
  | Addiu (rd, rs, i) -> Printf.sprintf "addiu %s, %s, %d" (g rd) (g rs) i
  | Subu (rd, rs, rt) -> Printf.sprintf "subu %s, %s, %s" (g rd) (g rs) (g rt)
  | Mul (rd, rs, rt) -> Printf.sprintf "mul %s, %s, %s" (g rd) (g rs) (g rt)
  | Div (rd, rs, rt) -> Printf.sprintf "div %s, %s, %s" (g rd) (g rs) (g rt)
  | Rem (rd, rs, rt) -> Printf.sprintf "rem %s, %s, %s" (g rd) (g rs) (g rt)
  | And_ (rd, rs, rt) -> Printf.sprintf "and %s, %s, %s" (g rd) (g rs) (g rt)
  | Andi (rd, rs, i) -> Printf.sprintf "andi %s, %s, %d" (g rd) (g rs) i
  | Or_ (rd, rs, rt) -> Printf.sprintf "or %s, %s, %s" (g rd) (g rs) (g rt)
  | Ori (rd, rs, i) -> Printf.sprintf "ori %s, %s, %d" (g rd) (g rs) i
  | Xor_ (rd, rs, rt) -> Printf.sprintf "xor %s, %s, %s" (g rd) (g rs) (g rt)
  | Xori (rd, rs, i) -> Printf.sprintf "xori %s, %s, %d" (g rd) (g rs) i
  | Nor_ (rd, rs, rt) -> Printf.sprintf "nor %s, %s, %s" (g rd) (g rs) (g rt)
  | Sll (rd, rs, sh) -> Printf.sprintf "sll %s, %s, %d" (g rd) (g rs) sh
  | Srl (rd, rs, sh) -> Printf.sprintf "srl %s, %s, %d" (g rd) (g rs) sh
  | Sra (rd, rs, sh) -> Printf.sprintf "sra %s, %s, %d" (g rd) (g rs) sh
  | Sllv (rd, rs, rt) -> Printf.sprintf "sllv %s, %s, %s" (g rd) (g rs) (g rt)
  | Srlv (rd, rs, rt) -> Printf.sprintf "srlv %s, %s, %s" (g rd) (g rs) (g rt)
  | Srav (rd, rs, rt) -> Printf.sprintf "srav %s, %s, %s" (g rd) (g rs) (g rt)
  | Slt (rd, rs, rt) -> Printf.sprintf "slt %s, %s, %s" (g rd) (g rs) (g rt)
  | Sltu (rd, rs, rt) -> Printf.sprintf "sltu %s, %s, %s" (g rd) (g rs) (g rt)
  | Slti (rd, rs, i) -> Printf.sprintf "slti %s, %s, %d" (g rd) (g rs) i
  | Sltiu (rd, rs, i) -> Printf.sprintf "sltiu %s, %s, %d" (g rd) (g rs) i
  | Beq (rs, rt, t) -> Printf.sprintf "beq %s, %s, 0x%x" (g rs) (g rt) t
  | Bne (rs, rt, t) -> Printf.sprintf "bne %s, %s, 0x%x" (g rs) (g rt) t
  | Blez (rs, t) -> Printf.sprintf "blez %s, 0x%x" (g rs) t
  | Bgtz (rs, t) -> Printf.sprintf "bgtz %s, 0x%x" (g rs) t
  | Bltz (rs, t) -> Printf.sprintf "bltz %s, 0x%x" (g rs) t
  | Bgez (rs, t) -> Printf.sprintf "bgez %s, 0x%x" (g rs) t
  | J t -> Printf.sprintf "j 0x%x" t
  | Jal t -> Printf.sprintf "jal 0x%x" t
  | Jr rs -> Printf.sprintf "jr %s" (g rs)
  | Jalr (rd, rs) -> Printf.sprintf "jalr %s, %s" (g rd) (g rs)
  | Load { w; signed; rd; base; off } ->
    Printf.sprintf "l%d%s %s, %d(%s)" w (if signed then "" else "u") (g rd) off (g base)
  | Store { w; rs; base; off } ->
    Printf.sprintf "s%d %s, %d(%s)" w (g rs) off (g base)
  | CLoad { w; signed; rd; cb; off } ->
    Printf.sprintf "cl%d%s %s, %d(%s)" w (if signed then "" else "u") (g rd) off (c cb)
  | CStore { w; rs; cb; off } ->
    Printf.sprintf "cs%d %s, %d(%s)" w (g rs) off (c cb)
  | CLC { cd; cb; off } -> Printf.sprintf "clc %s, %d(%s)" (c cd) off (c cb)
  | CSC { cs; cb; off } -> Printf.sprintf "csc %s, %d(%s)" (c cs) off (c cb)
  | CMove (cd, cb) -> Printf.sprintf "cmove %s, %s" (c cd) (c cb)
  | CGetBase (rd, cb) -> Printf.sprintf "cgetbase %s, %s" (g rd) (c cb)
  | CGetLen (rd, cb) -> Printf.sprintf "cgetlen %s, %s" (g rd) (c cb)
  | CGetAddr (rd, cb) -> Printf.sprintf "cgetaddr %s, %s" (g rd) (c cb)
  | CGetOffset (rd, cb) -> Printf.sprintf "cgetoffset %s, %s" (g rd) (c cb)
  | CGetPerm (rd, cb) -> Printf.sprintf "cgetperm %s, %s" (g rd) (c cb)
  | CGetTag (rd, cb) -> Printf.sprintf "cgettag %s, %s" (g rd) (c cb)
  | CGetType (rd, cb) -> Printf.sprintf "cgettype %s, %s" (g rd) (c cb)
  | CSetBounds (cd, cb, rt) -> Printf.sprintf "csetbounds %s, %s, %s" (c cd) (c cb) (g rt)
  | CSetBoundsImm (cd, cb, i) -> Printf.sprintf "csetbounds %s, %s, %d" (c cd) (c cb) i
  | CSetBoundsExact (cd, cb, rt) ->
    Printf.sprintf "csetboundsexact %s, %s, %s" (c cd) (c cb) (g rt)
  | CAndPerm (cd, cb, rt) -> Printf.sprintf "candperm %s, %s, %s" (c cd) (c cb) (g rt)
  | CAndPermImm (cd, cb, i) -> Printf.sprintf "candperm %s, %s, %d" (c cd) (c cb) i
  | CIncOffset (cd, cb, rt) -> Printf.sprintf "cincoffset %s, %s, %s" (c cd) (c cb) (g rt)
  | CIncOffsetImm (cd, cb, i) -> Printf.sprintf "cincoffset %s, %s, %d" (c cd) (c cb) i
  | CSetAddr (cd, cb, rt) -> Printf.sprintf "csetaddr %s, %s, %s" (c cd) (c cb) (g rt)
  | CClearTag (cd, cb) -> Printf.sprintf "ccleartag %s, %s" (c cd) (c cb)
  | CFromPtr (cd, cb, rt) -> Printf.sprintf "cfromptr %s, %s, %s" (c cd) (c cb) (g rt)
  | CSeal (cd, cb, ct) -> Printf.sprintf "cseal %s, %s, %s" (c cd) (c cb) (c ct)
  | CUnseal (cd, cb, ct) -> Printf.sprintf "cunseal %s, %s, %s" (c cd) (c cb) (c ct)
  | CRRL (rd, rs) -> Printf.sprintf "crrl %s, %s" (g rd) (g rs)
  | CRAM (rd, rs) -> Printf.sprintf "cram %s, %s" (g rd) (g rs)
  | CJR cb -> Printf.sprintf "cjr %s" (c cb)
  | CJAL (cd, t) -> Printf.sprintf "cjal %s, 0x%x" (c cd) t
  | CJALR (cd, cb) -> Printf.sprintf "cjalr %s, %s" (c cd) (c cb)
  | CReadDDC cd -> Printf.sprintf "creadddc %s" (c cd)
  | CWriteDDC cb -> Printf.sprintf "cwriteddc %s" (c cb)
  | Syscall -> "syscall"
  | Break n -> Printf.sprintf "break %d" n
  | Rt n -> Printf.sprintf "rt %d" n
  | Annot s -> Printf.sprintf "# %s" s
  | Nop -> "nop"

let pp ppf i = Fmt.string ppf (to_string i)
