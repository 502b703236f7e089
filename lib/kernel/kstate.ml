(* Kernel state and the user-memory access layer (copyin/copyout).

   Boot follows the paper's §3 construction: at machine reset a maximally
   permissive capability exists; kernel startup deliberately narrows it
   into a kernel root and a userspace root. Every process address-space
   root then derives from the userspace root, so the entire system's
   capabilities form one provenance tree rooted at reset.

   All kernel access to process memory goes through [copyin]/[copyout]
   (and the capability-preserving variants): for CheriABI processes these
   *require* a valid user capability and check it before every byte moved —
   "non-capability versions of copyout and copyin return errors" (§4). *)

module Cap = Cheri_cap.Cap
module Perms = Cheri_cap.Perms
module Tagmem = Cheri_tagmem.Tagmem
module Phys = Cheri_tagmem.Phys
module Cache = Cheri_tagmem.Cache
module Cpu = Cheri_isa.Cpu
module Trace = Cheri_isa.Trace
module Abi = Cheri_core.Abi
module Prot = Cheri_vm.Prot
module Swap = Cheri_vm.Swap
module Pmap = Cheri_vm.Pmap
module Addr_space = Cheri_vm.Addr_space

type shm_seg = {
  shm_id : int;
  shm_key : int;
  shm_size : int;
  shm_frames : int array;
}

(* Synthetic cost model (cycles). The asymmetries implement the paper's
   observations: a CheriABI trap frame saves/restores the capability
   register file (larger), while the legacy syscall path must *construct*
   an internal kernel capability for every user pointer argument before the
   kernel may dereference it (intentional use), which is what makes
   pointer-heavy syscalls like select faster under CheriABI (§5.2). *)
type config = {
  mutable engine : Cpu.engine;          (* execution engine (docs/INTERP.md) *)
  mutable quantum : int;                (* instructions per timeslice *)
  mutable trap_cost_legacy : int;
  mutable trap_cost_cheri : int;
  mutable ptr_arg_cost_legacy : int;    (* per pointer argument *)
  mutable ptr_arg_cost_cheri : int;
  mutable ctx_switch_cost : int;
  mutable fork_base_cost : int;
  mutable fork_page_cost : int;
  mutable fork_cap_frame_cost : int;    (* extra for capability context *)
  (* Check-elision fact provider (--elide-checks). When set, exec_image
     runs it over the freshly linked image (with the process's initial
     DDC) and attaches the resulting fact table to the process; the block
     engine then compiles proved-safe memory accesses without their
     capability check. None (the default) disables elision entirely.
     The [image] is passed so providers can memoize analysis by image
     identity (Absint.provider keys its fact cache on Sobj.image_id plus
     the DDC, since facts are DDC-dependent): re-exec'ing a shared image
     is then a hash lookup instead of a whole-image re-analysis. *)
  mutable fact_provider :
    (image:Cheri_rtld.Sobj.image -> ddc:Cheri_cap.Cap.t ->
     entries:int list -> got:(int * int) list ->
     (int * Cheri_isa.Insn.t array) list -> Cheri_isa.Facts.t) option;
}

let default_config () =
  { (* Chaining block engine by default: bit-identical to Step (the
       differential fuzzer and kernel parity tests enforce it), so every
       workload run in the suite also exercises the chained paths. *)
    engine = Cpu.Chain;
    quantum = 20_000;
    trap_cost_legacy = 130;
    trap_cost_cheri = 134;
    ptr_arg_cost_legacy = 9;
    ptr_arg_cost_cheri = 4;
    ctx_switch_cost = 350;
    fork_base_cost = 2600;
    fork_page_cost = 55;
    fork_cap_frame_cost = 260;
    fact_provider = None }

(* Extensible slot for state owned by the runtime library (the allocator):
   libc depends on the kernel, not vice versa, so the kernel can only
   offer an opaque anchor. The allocator registers its own constructor
   ([Malloc_impl.Alloc_state]) and stores per-machine state here — one
   instance per booted kernel, hence per fleet worker domain, which is
   what removes the old cross-domain global-table race. *)
type rt_ext = ..

type t = {
  mem : Tagmem.t;
  phys : Phys.t;
  swap : Swap.t;
  machine : Cpu.machine;
  (* The chain engine: scratch state and counters for the whole machine.
     Decoded blocks live in each process's own table ([Proc.bb_space]),
     which a context switch installs instead of flushing. *)
  bb : Cheri_isa.Bbcache.t;
  procs : (int, Proc.t) Hashtbl.t;
  mutable runq : int list;              (* round-robin order *)
  vfs : Vfs.t;
  mutable next_pid : int;
  kernel_root : Cap.t;
  user_root : Cap.t;
  shm : (int, shm_seg) Hashtbl.t;
  mutable next_shm_id : int;
  mutable tracer : Trace.sink option;
  mutable trace_pid : int option;
  (* Runtime-builtin dispatcher, installed by the C runtime library. *)
  mutable rt_handler : (t -> Proc.t -> int -> unit) option;
  (* Per-machine runtime-library state (allocator heaps); see [rt_ext]. *)
  mutable rt_alloc : rt_ext option;
  (* Lifecycle hooks for runtime-library state keyed by address-space
     principal. [on_asp_destroy] fires with the principal *before* the
     space is torn down (exit and execve both destroy the old space) so
     per-space allocator metadata can be evicted instead of leaking.
     [on_fork] fires after the child process is fully constructed so
     allocator metadata follows the COW'd heap into the child. *)
  mutable on_asp_destroy : (t -> int -> unit) option;
  mutable on_fork : (t -> Proc.t -> Proc.t -> unit) option;
  config : config;
  syscall_stats : (string, int) Hashtbl.t;
  mutable console_echo : bool;
}

let boot ?(mem_size = 64 * 1024 * 1024) ?l2_size () =
  let mem = Tagmem.create ~size:mem_size in
  let phys = Phys.create mem in
  let swap = Swap.create () in
  let hier = Cache.create_hierarchy ?l2_size () in
  let machine = Cpu.create_machine ~mem ~hier in
  (* Machine reset: the primordial capability. *)
  let reset_root = Cap.make_root ~base:0 ~top:(1 lsl 48) () in
  (* Kernel startup: deliberate narrowing (§3, "Kernel startup"). *)
  let user_root =
    Cap.and_perms
      (Cap.set_bounds
         (Cap.set_addr reset_root Addr_space.user_base_default)
         ~len:(Addr_space.user_top_default - Addr_space.user_base_default))
      (Perms.diff Perms.all Perms.system_regs)
  in
  let kernel_root = reset_root in
  { mem; phys; swap; machine;
    bb = Cheri_isa.Bbcache.create ();
    procs = Hashtbl.create 16; runq = [];
    vfs = Vfs.create ();
    next_pid = 1;
    kernel_root; user_root;
    shm = Hashtbl.create 8; next_shm_id = 1;
    tracer = None; trace_pid = None;
    rt_handler = None;
    rt_alloc = None;
    on_asp_destroy = None;
    on_fork = None;
    config = default_config ();
    syscall_stats = Hashtbl.create 64;
    console_echo = false }

let hierarchy k = k.machine.Cpu.hier

let find_proc k pid = Hashtbl.find_opt k.procs pid

let proc_exn k pid =
  match find_proc k pid with
  | Some p -> p
  | None -> Errno.raise_errno Errno.ESRCH

let add_proc k p =
  Hashtbl.replace k.procs p.Proc.pid p;
  k.runq <- k.runq @ [ p.Proc.pid ]

let alloc_pid k =
  let pid = k.next_pid in
  k.next_pid <- pid + 1;
  pid

let charge k (p : Proc.t) cycles =
  ignore k;
  p.Proc.ctx.Cpu.cycles <- p.Proc.ctx.Cpu.cycles + cycles

let bump_stat k name =
  Hashtbl.replace k.syscall_stats name
    (1 + Option.value ~default:0 (Hashtbl.find_opt k.syscall_stats name))

(* Emit a kernel capability grant into the trace when [p] is the traced
   process. *)
let trace_grant k (p : Proc.t) ~origin cap =
  match k.tracer, k.trace_pid with
  | Some sink, Some pid when pid = p.Proc.pid && Cap.is_tagged cap ->
    sink (Trace.Grant { origin; result = cap })
  | _ -> ()

(* --- Wakeups ------------------------------------------------------------------- *)

let wake_sleepers k chan =
  Hashtbl.iter
    (fun _ (p : Proc.t) ->
      match p.Proc.state with
      | Proc.Sleeping c when c = chan -> p.Proc.state <- Proc.Runnable
      | _ -> ())
    k.procs

let wake_pipe_waiters k (pipe : Vfs.pipe) =
  wake_sleepers k (Proc.Wait_pipe pipe.Vfs.p_id)

(* Terminate [p]: release descriptors and memory, become a zombie, wake the
   parent, and notify pipe peers. *)
let exit_proc k (p : Proc.t) status =
  Proc.close_all_fds p;
  (match k.on_asp_destroy with
   | Some f -> f k (Addr_space.principal p.Proc.asp)
   | None -> ());
  Cheri_vm.Addr_space.destroy p.Proc.asp;
  Proc.clear_code p;
  Cheri_isa.Bbcache.reset_space p.Proc.bb_space;
  p.Proc.state <- Proc.Zombie status;
  k.runq <- List.filter (fun pid -> pid <> p.Proc.pid) k.runq;
  (match find_proc k p.Proc.parent with
   | Some parent ->
     Proc.post_signal parent Signo.sigchld;
     (match parent.Proc.state with
      | Proc.Sleeping Proc.Wait_child -> parent.Proc.state <- Proc.Runnable
      | _ -> ())
   | None -> ());
  (* Closing pipe ends may unblock sleepers; wake all pipe waiters and let
     them re-evaluate. *)
  Hashtbl.iter
    (fun _ (q : Proc.t) ->
      match q.Proc.state with
      | Proc.Sleeping (Proc.Wait_pipe _) -> q.Proc.state <- Proc.Runnable
      | _ -> ())
    k.procs

(* Remove a reaped zombie entirely. *)
let reap k (p : Proc.t) = Hashtbl.remove k.procs p.Proc.pid

(* --- Console -------------------------------------------------------------------- *)

let console_write k (p : Proc.t) data =
  Buffer.add_bytes p.Proc.console data;
  if k.console_echo then print_string (Bytes.to_string data)

let console_of k pid =
  match find_proc k pid with
  | Some p -> Buffer.contents p.Proc.console
  | None -> ""

(* --- User memory access ----------------------------------------------------------- *)

(* Validate a user pointer for an access of [len] bytes and return its
   virtual address. This is where the two ABIs diverge:

   - CheriABI: the user-provided capability is checked (tag, seal, perms,
     bounds). The kernel then acts with exactly that authority.
   - Legacy: only a user-address-range check is possible; the kernel must
     manufacture authority from the integer (and pays for it, see config).

   Raises [Errno.Error EPROT] (CheriABI) or [EFAULT]. *)
let check_uptr k (p : Proc.t) uptr ~len ~write =
  match uptr with
  | Uarg.Ucap c ->
    charge k p k.config.ptr_arg_cost_cheri;
    let perm = if write then Perms.store else Perms.load in
    (try
       Cap.check_access_at c ~perm ~addr:(Cap.addr c) ~len;
       Cap.addr c
     with Cap.Cap_error _ -> Errno.raise_errno Errno.EPROT)
  | Uarg.Uaddr a ->
    charge k p k.config.ptr_arg_cost_legacy;
    let asp = p.Proc.asp in
    if a < Addr_space.user_base_default
       || a + len > Addr_space.user_top_default
    then Errno.raise_errno Errno.EFAULT;
    ignore asp;
    a

let touch_page (_k : t) (p : Proc.t) vaddr ~write =
  match Pmap.kernel_touch (Addr_space.pmap p.Proc.asp) vaddr ~write with
  | Some pa -> pa
  | None -> Errno.raise_errno Errno.EFAULT

(* Iterate [f pa chunk_off chunk_len] over the physical pages backing the
   user range. *)
let iter_user_range k p vaddr len ~write f =
  let page = Phys.page_size in
  let rec go off =
    if off < len then begin
      let va = vaddr + off in
      let in_page = min (len - off) (page - (va land (page - 1))) in
      let pa = touch_page k p va ~write in
      f pa off in_page;
      go (off + in_page)
    end
  in
  go 0

let copy_cost len = 12 + (len / 8)

(* Copy [len] bytes from user memory. Tags are never transferred: data
   copies strip them, which is the paper's default for syscall copies. *)
let copyin k p uptr ~len =
  if len < 0 then Errno.raise_errno Errno.EINVAL;
  let vaddr = check_uptr k p uptr ~len ~write:false in
  let out = Bytes.create len in
  iter_user_range k p vaddr len ~write:false (fun pa off n ->
      Bytes.blit (Tagmem.read_bytes k.mem pa n) 0 out off n);
  charge k p (copy_cost len);
  out

let copyout k p uptr data =
  let len = Bytes.length data in
  let vaddr = check_uptr k p uptr ~len ~write:true in
  iter_user_range k p vaddr len ~write:true (fun pa off n ->
      Tagmem.blit_bytes k.mem ~dst:pa (Bytes.sub data off n));
  charge k p (copy_cost len)

(* Copy in a NUL-terminated string (bounded by [max], and by the user
   capability's own bounds under CheriABI). *)
let copyin_str k p uptr ~max =
  let limit =
    match uptr with
    | Uarg.Ucap c ->
      if not (Cap.is_tagged c) then Errno.raise_errno Errno.EPROT;
      min max (Cap.top c - Cap.addr c)
    | Uarg.Uaddr _ -> max
  in
  if limit <= 0 then Errno.raise_errno Errno.EPROT;
  let buf = Buffer.create 32 in
  let vaddr = check_uptr k p uptr ~len:1 ~write:false in
  let rec go i =
    if i >= limit then Errno.raise_errno Errno.ENAMETOOLONG
    else begin
      let pa = touch_page k p (vaddr + i) ~write:false in
      let c = Tagmem.read_u8 k.mem pa in
      if c = 0 then ()
      else begin
        Buffer.add_char buf (Char.chr c);
        go (i + 1)
      end
    end
  in
  go 0;
  charge k p (copy_cost (Buffer.length buf));
  Buffer.contents buf

(* Read one capability-sized slot from user memory, preserving the tag —
   used only by the special interfaces that legitimately transfer
   capabilities (argv arrays, kevent-style registrations, signal frames). *)
let read_user_cap k p uptr =
  let vaddr = check_uptr k p uptr ~len:Cap.sizeof ~write:false in
  let pa = touch_page k p vaddr ~write:false in
  charge k p 4;
  Tagmem.read_cap k.mem pa

let write_user_cap k p uptr cap =
  let vaddr = check_uptr k p uptr ~len:Cap.sizeof ~write:true in
  let pa = touch_page k p vaddr ~write:true in
  charge k p 4;
  Tagmem.write_cap k.mem pa cap

(* Read a pointer *element* (of an argv-style array) at [uptr + idx*slot]:
   a tagged capability for CheriABI, an 8-byte address for legacy. *)
let read_user_ptr_slot k p uptr idx =
  match uptr with
  | Uarg.Ucap c ->
    let slot = Cap.inc_addr c (idx * Cap.sizeof) in
    let v = read_user_cap k p (Uarg.Ucap slot) in
    if Cap.is_tagged v then Some (Uarg.Ucap v)
    else if Cap.addr v = 0 then None
    else
      (* A non-NULL untagged slot: the pointer lost its provenance. *)
      Errno.raise_errno Errno.EPROT
  | Uarg.Uaddr a ->
    let vaddr = check_uptr k p (Uarg.Uaddr (a + (idx * 8))) ~len:8 ~write:false in
    let pa = touch_page k p vaddr ~write:false in
    let v = Tagmem.read_int k.mem pa ~len:8 in
    if v = 0 then None else Some (Uarg.Uaddr v)

(* Raw kernel poke into a process's address space (exec image setup). *)
let kwrite_bytes k p vaddr data =
  iter_user_range k p vaddr (Bytes.length data) ~write:true (fun pa off n ->
      Tagmem.blit_bytes k.mem ~dst:pa (Bytes.sub data off n))

let kwrite_int k p vaddr ~len v =
  let pa = touch_page k p vaddr ~write:true in
  Tagmem.write_int k.mem pa ~len v

let kwrite_cap k p vaddr cap =
  let pa = touch_page k p vaddr ~write:true in
  Tagmem.write_cap k.mem pa cap

let kread_int k p vaddr ~len =
  let pa = touch_page k p vaddr ~write:false in
  Tagmem.read_int k.mem pa ~len

let kread_cap k p vaddr =
  let pa = touch_page k p vaddr ~write:false in
  Tagmem.read_cap k.mem pa
