(* User-supplied values crossing the system-call boundary.

   For legacy processes a pointer argument is a bare integer virtual
   address; for CheriABI processes it is an architectural capability taken
   from the capability-argument registers. The kernel dereferences
   whichever it was given — for CheriABI this is the paper's central
   discipline: the kernel uses the *user's* capability, not its own
   elevated authority (Fig. 3). *)

type uptr =
  | Uaddr of int                 (* legacy ABIs *)
  | Ucap of Cheri_cap.Cap.t      (* CheriABI *)

type t =
  | UInt of int
  | UPtr of uptr

let addr_of_uptr = function
  | Uaddr a -> a
  | Ucap c -> Cheri_cap.Cap.addr c

let is_null = function
  | Uaddr 0 -> true
  | Uaddr _ -> false
  | Ucap c ->
    (not (Cheri_cap.Cap.is_tagged c)) && Cheri_cap.Cap.addr c = 0

let int_exn = function
  | UInt v -> v
  | UPtr _ -> Errno.raise_errno Errno.EINVAL

let ptr_exn = function
  | UPtr p -> p
  | UInt _ -> Errno.raise_errno Errno.EINVAL
