(* Processes.

   One thread per process (the structure allows more). Each process has an
   ABI, an address space with its own abstract principal, a capability
   register context, a descriptor table, signal state, the decoded
   code map for its mapped text regions, and the chain engine's decoded
   blocks for that code. *)

module Cap = Cheri_cap.Cap
module Cpu = Cheri_isa.Cpu
module Insn = Cheri_isa.Insn
module Abi = Cheri_core.Abi
module Addr_space = Cheri_vm.Addr_space

type exit_status =
  | Exited of int
  | Signaled of int

type wait_chan =
  | Wait_child
  | Wait_pipe of int       (* pipe id *)

type pstate =
  | Runnable
  | Sleeping of wait_chan
  | Stopped of int         (* stopping signal; used by ptrace *)
  | Zombie of exit_status

type sigdisp =
  | Sig_default
  | Sig_ignore
  | Sig_handler of Uarg.uptr   (* handler entry: address or code capability *)

let max_fds = 64

type t = {
  pid : int;
  mutable parent : int;
  mutable abi : Abi.t;
  mutable asp : Addr_space.t;
  mutable ctx : Cpu.ctx;
  mutable state : pstate;
  mutable fds : Vfs.fd_entry option array;
  mutable sigdisp : sigdisp array;
  mutable sig_pending : int list;             (* FIFO *)
  mutable code : (int * int * Insn.t array) list;  (* base, top, insns *)
  mutable linked : Cheri_rtld.Rtld.t option;
  mutable cwd : string;
  mutable traced_by : int option;
  mutable console : Buffer.t;                 (* captured fd-1/2 output *)
  mutable fault_log : string list;            (* most recent first *)
  mutable syscall_count : int;
  mutable comm : string;                      (* executable name *)
  mutable ps_strings : int;                   (* args block address *)
  (* Check-elision facts computed over this process's image at exec time
     (Kstate.config.fact_provider), plus the pmap generation they were
     computed under and the code ranges they depend on. On a generation
     mismatch, Loop.install_machine keeps the facts alive if every
     intervening pmap mutation (Pmap.mutations_since) missed
     [fact_regions] — munmap of a heap page must not throw away code
     analysis — and drops them otherwise. *)
  mutable facts : Cheri_isa.Facts.t option;
  mutable facts_gen : int;
  mutable fact_regions : (int * int) list;    (* (base, top) byte ranges *)
  (* kevent-style registrations: user data pointers the kernel holds for
     later return. Stored as full [Uarg.uptr] values so that CheriABI
     capabilities survive the round trip through kernel memory (4,
     "System calls"). *)
  mutable kevents : (int * Uarg.uptr) list;
  (* The chain engine's block table for this address space, installed by
     Loop.install_machine on dispatch. Exec resets it, exit releases it;
     fork gives the child a fresh one. *)
  bb_space : Cheri_isa.Bbcache.space;
}

let create ~pid ~parent ~abi ~asp =
  { pid; parent; abi; asp;
    ctx = Cpu.create_ctx ();
    state = Runnable;
    fds = Array.make max_fds None;
    sigdisp = Array.make Signo.nsig Sig_default;
    sig_pending = [];
    code = [];
    linked = None;
    cwd = "/root";
    traced_by = None;
    console = Buffer.create 256;
    fault_log = [];
    syscall_count = 0;
    comm = "";
    ps_strings = 0;
    facts = None;
    facts_gen = min_int;
    fact_regions = [];
    kevents = [];
    bb_space = Cheri_isa.Bbcache.create_space () }

let is_runnable p = p.state = Runnable
let is_zombie p = match p.state with Zombie _ -> true | _ -> false

let log_fault p msg = p.fault_log <- msg :: p.fault_log

(* --- Code map -------------------------------------------------------------------- *)

let install_code p ~base insns =
  let top = base + (Array.length insns * 4) in
  p.code <- List.sort (fun (a, _, _) (b, _, _) -> compare a b)
      ((base, top, insns) :: p.code)

let clear_code p = p.code <- []

let fetch p vaddr =
  let rec go = function
    | [] -> Cheri_isa.Trap.raise_trap (Cheri_isa.Trap.Fetch_fault { vaddr })
    | (base, top, insns) :: rest ->
      if vaddr >= base && vaddr < top then insns.((vaddr - base) / 4)
      else go rest
  in
  go p.code

(* Entry of the straight-line run containing [pc]: walk back until just
   after a terminator (or the edge of decoded code). This is the same
   block notion the block engine and the static verifier use, so trap
   reports and absint diagnostics cross-reference by PC. *)
let block_entry_of p pc =
  let entry = ref pc in
  (try
     let scanning = ref true in
     while !scanning && pc - !entry < 4 * 63 do
       let prev = !entry - 4 in
       if Insn.is_terminator (fetch p prev) then scanning := false
       else entry := prev
     done
   with Cheri_isa.Trap.Trap _ -> ());
  !entry

(* Render the instruction at [pc] for fault reports. *)
let describe_pc p pc =
  match fetch p pc with
  | insn ->
    Printf.sprintf "at 0x%x: %s [block 0x%x]" pc (Insn.to_string insn)
      (block_entry_of p pc)
  | exception Cheri_isa.Trap.Trap _ -> Printf.sprintf "at 0x%x" pc

(* --- Descriptors ------------------------------------------------------------------ *)

let alloc_fd p entry =
  let rec go i =
    if i >= max_fds then Errno.raise_errno Errno.EMFILE
    else if p.fds.(i) = None then begin
      p.fds.(i) <- Some entry;
      i
    end else go (i + 1)
  in
  go 0

let get_fd p fd =
  if fd < 0 || fd >= max_fds then Errno.raise_errno Errno.EBADF;
  match p.fds.(fd) with
  | Some e -> e
  | None -> Errno.raise_errno Errno.EBADF

let close_fd p fd =
  let e = get_fd p fd in
  Vfs.close_entry e;
  p.fds.(fd) <- None

let close_all_fds p =
  Array.iteri
    (fun i e ->
      match e with
      | Some e ->
        Vfs.close_entry e;
        p.fds.(i) <- None
      | None -> ())
    p.fds

(* --- Signals ---------------------------------------------------------------------- *)

let post_signal p sig_ = p.sig_pending <- p.sig_pending @ [ sig_ ]

let take_signal p =
  match p.sig_pending with
  | [] -> None
  | s :: rest ->
    p.sig_pending <- rest;
    Some s
