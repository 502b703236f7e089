(* User-supplied values crossing the system-call and runtime-builtin
   boundaries: user pointers, call signatures and the one marshaller that
   reads a call's arguments from the registers.

   For legacy processes a pointer argument is a bare integer virtual
   address; for CheriABI processes it is an architectural capability taken
   from the capability-argument registers. The kernel dereferences
   whichever it was given — for CheriABI this is the paper's central
   discipline: the kernel uses the *user's* capability, not its own
   elevated authority (Fig. 3). *)

module Cpu = Cheri_isa.Cpu
module Reg = Cheri_isa.Reg
module Abi = Cheri_core.Abi

type uptr =
  | Uaddr of int                 (* legacy ABIs *)
  | Ucap of Cheri_cap.Cap.t      (* CheriABI *)

let addr_of_uptr = function
  | Uaddr a -> a
  | Ucap c -> Cheri_cap.Cap.addr c

let is_null = function
  | Uaddr 0 -> true
  | Uaddr _ -> false
  | Ucap c ->
    (not (Cheri_cap.Cap.is_tagged c)) && Cheri_cap.Cap.addr c = 0

(* --- Call signatures ------------------------------------------------------------- *)

(* One argument's kind, indexed by the type the handler receives. *)
type _ arg =
  | Int : int arg
  | Ptr : uptr arg

(* A signature of arity 0..6, indexed by the handler's type after its
   kernel and process parameters: [A3 (Int, Ptr, Int)] is the signature of
   a handler [k -> p -> int -> uptr -> int -> 'r]. Arity is explicit so the
   marshaller calls a handler in one full application, allocating nothing
   beyond the pointer arguments themselves. *)
type (_, _) sig_ =
  | A0 : ('r, 'r) sig_
  | A1 : 'a arg -> ('a -> 'r, 'r) sig_
  | A2 : 'a arg * 'b arg -> ('a -> 'b -> 'r, 'r) sig_
  | A3 : 'a arg * 'b arg * 'c arg -> ('a -> 'b -> 'c -> 'r, 'r) sig_
  | A4 : 'a arg * 'b arg * 'c arg * 'd arg
      -> ('a -> 'b -> 'c -> 'd -> 'r, 'r) sig_
  | A5 : 'a arg * 'b arg * 'c arg * 'd arg * 'e arg
      -> ('a -> 'b -> 'c -> 'd -> 'e -> 'r, 'r) sig_
  | A6 : 'a arg * 'b arg * 'c arg * 'd arg * 'e arg * 'f arg
      -> ('a -> 'b -> 'c -> 'd -> 'e -> 'f -> 'r, 'r) sig_

(* A named upcall: a signature and the handler it types. *)
type ('k, 'p, 'r) upcall =
  | Upcall : {
      name : string;
      sig_ : ('h, 'r) sig_;
      run : 'k -> 'p -> 'h;
    } -> ('k, 'p, 'r) upcall

let upcall name sig_ run = Upcall { name; sig_; run }

let name (Upcall u) = u.name

let is_ptr : type a. a arg -> bool = function Int -> false | Ptr -> true

(* One flag per argument, true at each pointer. *)
let ptr_args : type k p r. (k, p, r) upcall -> bool list =
 fun (Upcall { sig_; _ }) ->
  let p = is_ptr in
  match sig_ with
  | A0 -> []
  | A1 a -> [ p a ]
  | A2 (a, b) -> [ p a; p b ]
  | A3 (a, b, c) -> [ p a; p b; p c ]
  | A4 (a, b, c, d) -> [ p a; p b; p c; p d ]
  | A5 (a, b, c, d, e) -> [ p a; p b; p c; p d; p e ]
  | A6 (a, b, c, d, e, f) -> [ p a; p b; p c; p d; p e; p f ]

(* An upcall table indexed by number: [lookup] answers [None] for any
   number without an entry, negative and huge ones included. *)
let table entries =
  let t =
    Array.make (1 + List.fold_left (fun m (n, _) -> max m n) 0 entries) None
  in
  List.iter (fun (n, u) -> t.(n) <- Some u) entries;
  t

let lookup t n = if n >= 0 && n < Array.length t then t.(n) else None

(* --- The marshaller ----------------------------------------------------------------- *)

(* Integers come from a0.., legacy pointers from a0.. by position, and
   CheriABI pointers from the capability-argument registers c3... Under
   the [split] convention (CheriABI system calls, §5.3 "CC") integers and
   pointers are numbered apart, so an argument's slot counts only the
   earlier arguments of its own kind; otherwise (runtime builtins, and
   every legacy call) the slot is the argument's position. *)

let rd : type a. bool -> Cpu.ctx -> a arg -> int -> a =
 fun cheri ctx a slot ->
  match a with
  | Int -> ctx.Cpu.gpr.(Reg.a0 + slot)
  | Ptr ->
    if cheri then Ucap (Cpu.rd_creg ctx (Reg.ca0 + slot))
    else Uaddr ctx.Cpu.gpr.(Reg.a0 + slot)

(* 1 when earlier argument [a] takes a slot before [b]. *)
let sl : type a b. bool -> a arg -> b arg -> int =
 fun split a b ->
  match a, b with
  | Int, Int | Ptr, Ptr -> 1
  | Int, Ptr | Ptr, Int -> if split then 0 else 1

(* Read the arguments of [u] from [ctx] as a process of [abi] passed them,
   and run its handler. *)
let call : type k p r.
    split:bool -> Abi.t -> Cpu.ctx -> (k, p, r) upcall -> k -> p -> r =
 fun ~split abi ctx (Upcall { sig_; run; _ }) k p ->
  let c =
    match abi with Abi.Cheriabi -> true | Abi.Mips64 | Abi.Asan -> false
  in
  let s = split && c in
  match sig_ with
  | A0 -> run k p
  | A1 a -> run k p (rd c ctx a 0)
  | A2 (a, b) -> run k p (rd c ctx a 0) (rd c ctx b (sl s a b))
  | A3 (a, b, d) ->
    run k p (rd c ctx a 0) (rd c ctx b (sl s a b))
      (rd c ctx d (sl s a d + sl s b d))
  | A4 (a, b, d, e) ->
    run k p (rd c ctx a 0) (rd c ctx b (sl s a b))
      (rd c ctx d (sl s a d + sl s b d))
      (rd c ctx e (sl s a e + sl s b e + sl s d e))
  | A5 (a, b, d, e, f) ->
    run k p (rd c ctx a 0) (rd c ctx b (sl s a b))
      (rd c ctx d (sl s a d + sl s b d))
      (rd c ctx e (sl s a e + sl s b e + sl s d e))
      (rd c ctx f (sl s a f + sl s b f + sl s d f + sl s e f))
  | A6 (a, b, d, e, f, g) ->
    run k p (rd c ctx a 0) (rd c ctx b (sl s a b))
      (rd c ctx d (sl s a d + sl s b d))
      (rd c ctx e (sl s a e + sl s b e + sl s d e))
      (rd c ctx f (sl s a f + sl s b f + sl s d f + sl s e f))
      (rd c ctx g (sl s a g + sl s b g + sl s d g + sl s e g + sl s f g))
