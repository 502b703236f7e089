(* System-call implementations.

   Every handler receives its arguments pre-marshalled per the calling
   convention ([Uarg.t]), and accesses process memory exclusively through
   the [Kstate] copy layer — which, for CheriABI processes, dereferences
   the user's own capability (Fig. 3). *)

module Cap = Cheri_cap.Cap
module Perms = Cheri_cap.Perms
module Cpu = Cheri_isa.Cpu
module Reg = Cheri_isa.Reg
module Abi = Cheri_core.Abi
module Prot = Cheri_vm.Prot
module Pmap = Cheri_vm.Pmap
module Addr_space = Cheri_vm.Addr_space
module Swap = Cheri_vm.Swap
module Phys = Cheri_tagmem.Phys

type ret = Sys_impl_ret.t =
  | RInt of int
  | RPtr of Uarg.uptr
  | RNone                       (* registers already set (execve, sigreturn) *)

exception Restart = Sys_impl_ret.Restart

let err = Errno.raise_errno

let int1 = function [ a ] -> Uarg.int_exn a | _ -> err Errno.EINVAL

(* --- exit / getpid / gettime ---------------------------------------------------- *)

let sys_exit k p args =
  let code = match args with a :: _ -> Uarg.int_exn a | [] -> 0 in
  Kstate.exit_proc k p (Proc.Exited (code land 0xff));
  RNone

let sys_getpid _k (p : Proc.t) _args = RInt p.Proc.pid

let sys_gettime _k (p : Proc.t) _args = RInt p.Proc.ctx.Cpu.cycles

(* --- Descriptor I/O --------------------------------------------------------------- *)

let rd_obj k p (e : Vfs.fd_entry) buf len =
  match e.Vfs.fo_obj with
  | Vfs.OFile f ->
    let data = Vfs.file_read f ~off:e.Vfs.fo_off ~len in
    Kstate.copyout k p buf data;
    e.Vfs.fo_off <- e.Vfs.fo_off + Bytes.length data;
    RInt (Bytes.length data)
  | Vfs.ODev d ->
    (match d.Vfs.d_read len with
     | Some data ->
       Kstate.copyout k p buf data;
       RInt (Bytes.length data)
     | None -> RInt 0)
  | Vfs.OPipe_r pipe | Vfs.OSock (pipe, _) ->
    (match Vfs.pipe_read pipe ~len with
     | None ->
       p.Proc.state <- Proc.Sleeping (Proc.Wait_pipe pipe.Vfs.p_id);
       raise Restart
     | Some data ->
       Kstate.copyout k p buf data;
       Kstate.wake_pipe_waiters k pipe;   (* writers waiting for space *)
       RInt (Bytes.length data))
  | Vfs.OPipe_w _ -> err Errno.EBADF

let sys_read k p = function
  | [ fd; buf; len ] ->
    let fd = Uarg.int_exn fd and len = Uarg.int_exn len in
    if len < 0 then err Errno.EINVAL;
    rd_obj k p (Proc.get_fd p fd) (Uarg.ptr_exn buf) len
  | _ -> err Errno.EINVAL

let sys_write k p = function
  | [ fd; buf; len ] ->
    let fd = Uarg.int_exn fd and len = Uarg.int_exn len in
    if len < 0 then err Errno.EINVAL;
    let e = Proc.get_fd p fd in
    let data = Kstate.copyin k p (Uarg.ptr_exn buf) ~len in
    (match e.Vfs.fo_obj with
     | Vfs.OFile f ->
       let n = Vfs.file_write f ~off:e.Vfs.fo_off data in
       e.Vfs.fo_off <- e.Vfs.fo_off + n;
       RInt n
     | Vfs.ODev d -> RInt (d.Vfs.d_write data)
     | Vfs.OPipe_w pipe | Vfs.OSock (_, pipe) ->
       let n = Vfs.pipe_write pipe data in
       Kstate.wake_pipe_waiters k pipe;
       RInt n
     | Vfs.OPipe_r _ -> err Errno.EBADF)
  | _ -> err Errno.EINVAL

let sys_open k (p : Proc.t) = function
  | [ path; flags; _mode ] ->
    let path = Kstate.copyin_str k p (Uarg.ptr_exn path) ~max:1024 in
    let flags = Uarg.int_exn flags in
    let node =
      match Vfs.lookup k.Kstate.vfs path with
      | Some n -> Some n
      | None ->
        if flags land Sysno.o_creat <> 0 then
          Some (Vfs.File (Vfs.add_file k.Kstate.vfs path))
        else None
    in
    (match node with
     | Some (Vfs.File f) ->
       if flags land Sysno.o_trunc <> 0 then Vfs.file_truncate f 0;
       let e = Vfs.open_entry (Vfs.OFile f) ~flags in
       if flags land Sysno.o_append <> 0 then e.Vfs.fo_off <- f.Vfs.f_len;
       RInt (Proc.alloc_fd p e)
     | Some (Vfs.Dev d) -> RInt (Proc.alloc_fd p (Vfs.open_entry (Vfs.ODev d) ~flags))
     | Some (Vfs.Exe _) -> err Errno.EACCES
     | Some (Vfs.Dir _) -> err Errno.EISDIR
     | None -> err Errno.ENOENT)
  | _ -> err Errno.EINVAL

let sys_close _k p args =
  Proc.close_fd p (int1 args);
  RInt 0

let sys_lseek _k p = function
  | [ fd; off; whence ] ->
    let e = Proc.get_fd p (Uarg.int_exn fd) in
    let off = Uarg.int_exn off and whence = Uarg.int_exn whence in
    (match e.Vfs.fo_obj with
     | Vfs.OFile f ->
       let base =
         match whence with
         | 0 -> 0
         | 1 -> e.Vfs.fo_off
         | 2 -> f.Vfs.f_len
         | _ -> err Errno.EINVAL
       in
       let pos = base + off in
       if pos < 0 then err Errno.EINVAL;
       e.Vfs.fo_off <- pos;
       RInt pos
     | _ -> err Errno.EINVAL)
  | _ -> err Errno.EINVAL

let sys_ftruncate _k p = function
  | [ fd; len ] ->
    (match (Proc.get_fd p (Uarg.int_exn fd)).Vfs.fo_obj with
     | Vfs.OFile f ->
       Vfs.file_truncate f (Uarg.int_exn len);
       RInt 0
     | _ -> err Errno.EINVAL)
  | _ -> err Errno.EINVAL

let sys_unlink k p = function
  | [ path ] ->
    let path = Kstate.copyin_str k p (Uarg.ptr_exn path) ~max:1024 in
    Vfs.unlink k.Kstate.vfs path;
    RInt 0
  | _ -> err Errno.EINVAL

let sys_pipe k p = function
  | [ fdp ] ->
    let pipe = Vfs.new_pipe k.Kstate.vfs in
    let rfd = Proc.alloc_fd p (Vfs.open_entry (Vfs.OPipe_r pipe) ~flags:0) in
    let wfd = Proc.alloc_fd p (Vfs.open_entry (Vfs.OPipe_w pipe) ~flags:1) in
    let out = Bytes.create 16 in
    Bytes.set_int64_le out 0 (Int64.of_int rfd);
    Bytes.set_int64_le out 8 (Int64.of_int wfd);
    Kstate.copyout k p (Uarg.ptr_exn fdp) out;
    RInt 0
  | _ -> err Errno.EINVAL

let sys_socketpair k p = function
  | [ fdp ] ->
    let a = Vfs.new_pipe k.Kstate.vfs and b = Vfs.new_pipe k.Kstate.vfs in
    let fd0 = Proc.alloc_fd p (Vfs.open_entry (Vfs.OSock (a, b)) ~flags:2) in
    let fd1 = Proc.alloc_fd p (Vfs.open_entry (Vfs.OSock (b, a)) ~flags:2) in
    let out = Bytes.create 16 in
    Bytes.set_int64_le out 0 (Int64.of_int fd0);
    Bytes.set_int64_le out 8 (Int64.of_int fd1);
    Kstate.copyout k p (Uarg.ptr_exn fdp) out;
    RInt 0
  | _ -> err Errno.EINVAL

let sys_getcwd k (p : Proc.t) = function
  | [ buf; len ] ->
    let len = Uarg.int_exn len in
    let s = p.Proc.cwd in
    if len < String.length s + 1 then err Errno.EINVAL;
    (* The kernel fills the whole caller-specified buffer. A caller that
       passes a length larger than its allocation (the BOdiagsuite getcwd
       case) is caught here under CheriABI: copyout faults on the user
       capability's bounds. *)
    let out = Bytes.make len '\000' in
    Bytes.blit_string s 0 out 0 (String.length s);
    Kstate.copyout k p (Uarg.ptr_exn buf) out;
    RInt (String.length s)
  | _ -> err Errno.EINVAL

(* --- select ------------------------------------------------------------------------ *)

let fd_ready (p : Proc.t) fd ~write =
  if fd < 0 || fd >= Proc.max_fds then false
  else
    match p.Proc.fds.(fd) with
    | None -> false
    | Some e ->
      (match e.Vfs.fo_obj with
       | Vfs.OFile _ | Vfs.ODev _ -> true
       | Vfs.OPipe_r pipe -> (not write) && Vfs.pipe_readable pipe
       | Vfs.OPipe_w pipe -> write && Vfs.pipe_writable pipe
       | Vfs.OSock (r, w) ->
         if write then Vfs.pipe_writable w else Vfs.pipe_readable r)

let sys_select k p = function
  | [ n; rp; wp; ep; tv ] ->
    let n = Uarg.int_exn n in
    if n < 0 || n > 256 then err Errno.EINVAL;
    let nbytes = (n + 7) / 8 in
    let ready = ref 0 in
    let scan uptr ~write =
      let uptr = Uarg.ptr_exn uptr in
      if Uarg.is_null uptr then ()
      else begin
        let set = Kstate.copyin k p uptr ~len:nbytes in
        let out = Bytes.make nbytes '\000' in
        for fd = 0 to n - 1 do
          let byte = fd / 8 and bit = fd mod 8 in
          if Char.code (Bytes.get set byte) land (1 lsl bit) <> 0
             && fd_ready p fd ~write
          then begin
            Bytes.set out byte
              (Char.chr (Char.code (Bytes.get out byte) lor (1 lsl bit)));
            incr ready
          end
        done;
        Kstate.copyout k p uptr out
      end
    in
    scan rp ~write:false;
    scan wp ~write:true;
    (* exceptfds: we report none, but still perform the user copies. *)
    (let epp = Uarg.ptr_exn ep in
     if not (Uarg.is_null epp) then begin
       let _ = Kstate.copyin k p epp ~len:nbytes in
       Kstate.copyout k p epp (Bytes.make nbytes '\000')
     end);
    (let tvp = Uarg.ptr_exn tv in
     if not (Uarg.is_null tvp) then
       ignore (Kstate.copyin k p tvp ~len:16));
    RInt !ready
  | _ -> err Errno.EINVAL

(* --- Memory management -------------------------------------------------------------- *)

let mmap_hint_default = 0x2000_0000

let sys_mmap k (p : Proc.t) = function
  | [ addr; len; prot; flags; _fd; _off ] ->
    let len = Uarg.int_exn len
    and protb = Uarg.int_exn prot
    and flags = Uarg.int_exn flags in
    if len <= 0 then err Errno.EINVAL;
    if flags land Sysno.map_anon = 0 then err Errno.ENOSYS;
    let prot = Sysno.prot_of_bits protb in
    let addr = Uarg.ptr_exn addr in
    let asp = p.Proc.asp in
    let fixed = flags land Sysno.map_fixed <> 0 in
    let shared = flags land Sysno.map_shared <> 0 in
    (* CheriABI hint discipline (§4, "Virtual-address management APIs"). *)
    let hint_cap =
      match addr with
      | Uarg.Ucap c when Cap.is_tagged c -> Some c
      | Uarg.Ucap _ | Uarg.Uaddr _ -> None
    in
    let hint_addr = Uarg.addr_of_uptr addr in
    let start =
      try
        if fixed then begin
          if hint_addr land (Phys.page_size - 1) <> 0 then err Errno.EINVAL;
          let may_replace =
            match hint_cap with
            | Some c -> Perms.has (Cap.perms c) Perms.vmmap
            | None -> false
          in
          (match p.Proc.abi, hint_cap with
           | Abi.Cheriabi, None ->
             (* Fixed mapping from an untagged value: only into a hole. *)
             if Addr_space.overlaps asp hint_addr len then err Errno.EPROT
           | Abi.Cheriabi, Some c ->
             if (not may_replace) && Addr_space.overlaps asp hint_addr len
             then err Errno.EPROT;
             (* The capability must actually cover the requested range. *)
             if Cap.base c > hint_addr || Cap.top c < hint_addr + len then
               err Errno.EPROT
           | (Abi.Mips64 | Abi.Asan), _ -> ());
          (Addr_space.map_fixed asp ~start:hint_addr ~len ~prot ~shared
             ~replace:may_replace ~name:"mmap" ()).Addr_space.r_start
        end
        else
          let hint = if hint_addr = 0 then mmap_hint_default else hint_addr in
          (Addr_space.map_anywhere asp ~hint ~len ~prot ~shared ~name:"mmap" ())
            .Addr_space.r_start
      with Addr_space.Map_error _ -> err Errno.ENOMEM
    in
    Kstate.charge k p (600 + (len / Phys.page_size * 10));
    (match p.Proc.abi with
     | Abi.Mips64 | Abi.Asan -> RPtr (Uarg.Uaddr start)
     | Abi.Cheriabi ->
       let rlen = Addr_space.page_align_up len in
       (* Derive from the hint capability when one was supplied (preserving
          provenance), otherwise from the address-space root. *)
       let parent =
         match hint_cap with
         | Some c when Cap.base c <= start && Cap.top c >= start + rlen -> c
         | _ -> Addr_space.root_cap asp
       in
       let c = Cap.set_bounds (Cap.set_addr parent start) ~len:rlen in
       let c =
         Cap.and_perms c (Perms.union (Prot.to_cap_perms prot) Perms.vmmap)
       in
       Kstate.trace_grant k p ~origin:"syscall" c;
       RPtr (Uarg.Ucap c))
  | _ -> err Errno.EINVAL

(* munmap and shmdt require the VMMAP permission: without it a capability
   cannot be used to unmap (and then re-map) the memory it points to. *)
let require_vmmap (p : Proc.t) uptr ~len =
  match p.Proc.abi, uptr with
  | Abi.Cheriabi, Uarg.Ucap c ->
    if not (Cap.is_tagged c) then err Errno.EPROT;
    if not (Perms.has (Cap.perms c) Perms.vmmap) then err Errno.EPROT;
    if Cap.base c > Cap.addr c || Cap.top c < Cap.addr c + len then
      err Errno.EPROT;
    Cap.addr c
  | Abi.Cheriabi, Uarg.Uaddr _ -> err Errno.EPROT
  | (Abi.Mips64 | Abi.Asan), u -> Uarg.addr_of_uptr u

let sys_munmap k (p : Proc.t) = function
  | [ addr; len ] ->
    let len = Uarg.int_exn len in
    let start = require_vmmap p (Uarg.ptr_exn addr) ~len in
    (try Addr_space.unmap p.Proc.asp ~start ~len
     with Addr_space.Map_error _ -> err Errno.EINVAL);
    Kstate.charge k p 400;
    RInt 0
  | _ -> err Errno.EINVAL

let sys_mprotect k (p : Proc.t) = function
  | [ addr; len; prot ] ->
    let len = Uarg.int_exn len and protb = Uarg.int_exn prot in
    let uptr = Uarg.ptr_exn addr in
    let start =
      match p.Proc.abi, uptr with
      | Abi.Cheriabi, Uarg.Ucap c when Cap.is_tagged c -> Cap.addr c
      | Abi.Cheriabi, _ -> err Errno.EPROT
      | (Abi.Mips64 | Abi.Asan), u -> Uarg.addr_of_uptr u
    in
    (try Addr_space.protect p.Proc.asp ~start ~len
           ~prot:(Sysno.prot_of_bits protb)
     with Addr_space.Map_error _ -> err Errno.EINVAL);
    Kstate.charge k p 300;
    RInt 0
  | _ -> err Errno.EINVAL

(* sbrk is excluded under CheriABI as a matter of principle (§4). *)
let brk_base = 0x1800_0000

let sys_sbrk k (p : Proc.t) = function
  | [ incr ] ->
    (match p.Proc.abi with
     | Abi.Cheriabi -> err Errno.ENOSYS
     | Abi.Mips64 | Abi.Asan ->
       let incr = Uarg.int_exn incr in
       let asp = p.Proc.asp in
       let cur =
         match Addr_space.region_by_name asp "heap-brk" with
         | Some r -> r.Addr_space.r_start + r.Addr_space.r_len
         | None -> brk_base
       in
       if incr > 0 then begin
         let len = Addr_space.page_align_up incr in
         (try
            ignore
              (Addr_space.map_fixed asp ~start:cur ~len ~prot:Prot.rw
                 ~name:"heap-brk" ~replace:false ())
          with Addr_space.Map_error _ -> err Errno.ENOMEM);
         Kstate.charge k p 300;
         RPtr (Uarg.Uaddr cur)
       end
       else RPtr (Uarg.Uaddr cur))
  | _ -> err Errno.EINVAL

(* --- System V shared memory ----------------------------------------------------------- *)

let sys_shmget k (_p : Proc.t) = function
  | [ key; size; _flag ] ->
    let key = Uarg.int_exn key and size = Uarg.int_exn size in
    if size <= 0 then err Errno.EINVAL;
    let existing =
      Hashtbl.fold
        (fun _ (seg : Kstate.shm_seg) acc ->
          if seg.Kstate.shm_key = key && key <> 0 then Some seg else acc)
        k.Kstate.shm None
    in
    (match existing with
     | Some seg -> RInt seg.Kstate.shm_id
     | None ->
       let pages = (size + Phys.page_size - 1) / Phys.page_size in
       let frames =
         Array.init pages (fun _ -> Phys.alloc_frame k.Kstate.phys)
       in
       let id = k.Kstate.next_shm_id in
       k.Kstate.next_shm_id <- id + 1;
       Hashtbl.replace k.Kstate.shm id
         { Kstate.shm_id = id; shm_key = key; shm_size = size;
           shm_frames = frames };
       RInt id)
  | _ -> err Errno.EINVAL

let sys_shmat k (p : Proc.t) = function
  | [ id; addr; _flag ] ->
    let id = Uarg.int_exn id in
    let seg =
      match Hashtbl.find_opt k.Kstate.shm id with
      | Some s -> s
      | None -> err Errno.EINVAL
    in
    let len = Array.length seg.Kstate.shm_frames * Phys.page_size in
    let asp = p.Proc.asp in
    let uptr = Uarg.ptr_exn addr in
    let start =
      if Uarg.is_null uptr then
        (Addr_space.map_anywhere asp ~hint:0x3000_0000 ~len ~prot:Prot.rw
           ~shared:true ~name:(Printf.sprintf "shm:%d" id) ())
          .Addr_space.r_start
      else begin
        (* Fixed attach: under CheriABI the address must come from a valid
           capability carrying VMMAP. *)
        let a = require_vmmap p uptr ~len:0 in
        (Addr_space.map_fixed asp ~start:a ~len ~prot:Prot.rw ~shared:true
           ~name:(Printf.sprintf "shm:%d" id) ())
          .Addr_space.r_start
      end
    in
    (* Wire the shared frames directly into the page tables. *)
    Array.iteri
      (fun i f ->
        Phys.incref k.Kstate.phys f;
        Pmap.enter_frame (Addr_space.pmap asp)
          ~vaddr:(start + (i * Phys.page_size)) ~frame:f ~prot:Prot.rw
          ~cow:false)
      seg.Kstate.shm_frames;
    Kstate.charge k p 700;
    (match p.Proc.abi with
     | Abi.Mips64 | Abi.Asan -> RPtr (Uarg.Uaddr start)
     | Abi.Cheriabi ->
       let c = Cap.set_bounds (Cap.set_addr (Addr_space.root_cap asp) start)
           ~len in
       let c = Cap.and_perms c (Perms.union Perms.data Perms.vmmap) in
       Kstate.trace_grant k p ~origin:"syscall" c;
       RPtr (Uarg.Ucap c))
  | _ -> err Errno.EINVAL

let sys_shmdt k (p : Proc.t) = function
  | [ addr ] ->
    let start = require_vmmap p (Uarg.ptr_exn addr) ~len:0 in
    (try Addr_space.unmap p.Proc.asp ~start ~len:Phys.page_size
     with Addr_space.Map_error _ -> err Errno.EINVAL);
    Kstate.charge k p 300;
    RInt 0
  | _ -> err Errno.EINVAL

(* --- Processes --------------------------------------------------------------------------- *)

let sys_fork k (p : Proc.t) = function
  | [] ->
    let pid = Kstate.alloc_pid k in
    let casp = Addr_space.fork p.Proc.asp ~phys:k.Kstate.phys ~swap:k.Kstate.swap in
    let child = Proc.create ~pid ~parent:p.Proc.pid ~abi:p.Proc.abi ~asp:casp in
    child.Proc.ctx <- Cpu.copy_ctx p.Proc.ctx;
    child.Proc.ctx.Cpu.gpr.(Reg.v0) <- 0;
    child.Proc.ctx.Cpu.creg.(Reg.ca0) <- Cap.null;
    child.Proc.fds <- Array.map (fun e -> Option.iter Vfs.ref_entry e; e) p.Proc.fds;
    child.Proc.code <- p.Proc.code;
    child.Proc.linked <- p.Proc.linked;
    child.Proc.sigdisp <- Array.copy p.Proc.sigdisp;
    child.Proc.cwd <- p.Proc.cwd;
    child.Proc.comm <- p.Proc.comm;
    child.Proc.ps_strings <- p.Proc.ps_strings;
    (* The child shares the parent's image and DDC, so the proved facts
       carry over *by reference* — the table is append-only, so sharing
       (rather than copying) means the child's fresh block table
       ([Proc.create] gives it one) adopts the parent's table without a
       new analysis epoch, and a lazy table's memoized superblocks are
       paid for once across the whole process tree. Stamped under the
       child's own pmap generation, with the same code-range dependencies
       for partial invalidation. *)
    child.Proc.facts <- p.Proc.facts;
    child.Proc.facts_gen <- Pmap.generation (Addr_space.pmap casp);
    child.Proc.fact_regions <- p.Proc.fact_regions;
    Kstate.add_proc k child;
    (* Cost: address-space duplication, plus — for CheriABI — the larger
       capability trap frame and per-page tag bookkeeping. *)
    let pages = Pmap.entry_count (Addr_space.pmap p.Proc.asp) in
    let cfg = k.Kstate.config in
    let base = cfg.Kstate.fork_base_cost + (pages * cfg.Kstate.fork_page_cost) in
    let extra =
      match p.Proc.abi with
      | Abi.Cheriabi -> cfg.Kstate.fork_cap_frame_cost + pages
      | Abi.Mips64 | Abi.Asan -> 0
    in
    Kstate.charge k p (base + extra);
    child.Proc.ctx.Cpu.cycles <- p.Proc.ctx.Cpu.cycles;
    (* The child's heap pages were COW'd above; let the runtime library
       carry the matching allocator metadata over to the child's fresh
       address-space principal (a child that inherits live heap pointers
       must be able to free them). *)
    (match k.Kstate.on_fork with
     | Some f -> f k p child
     | None -> ());
    RInt pid
  | _ -> err Errno.EINVAL

let encode_status = function
  | Proc.Exited c -> c lsl 8
  | Proc.Signaled s -> s

let sys_wait4 k (p : Proc.t) = function
  | [ pid; statusp; _flags ] ->
    let want = Uarg.int_exn pid in
    let children =
      Hashtbl.fold
        (fun _ (q : Proc.t) acc ->
          if q.Proc.parent = p.Proc.pid && (want <= 0 || q.Proc.pid = want)
          then q :: acc
          else acc)
        k.Kstate.procs []
    in
    if children = [] then err Errno.ECHILD;
    (match List.find_opt Proc.is_zombie children with
     | Some z ->
       let status =
         match z.Proc.state with Proc.Zombie s -> s | _ -> assert false
       in
       let sp = Uarg.ptr_exn statusp in
       if not (Uarg.is_null sp) then begin
         let out = Bytes.create 8 in
         Bytes.set_int64_le out 0 (Int64.of_int (encode_status status));
         Kstate.copyout k p sp out
       end;
       Kstate.reap k z;
       RInt z.Proc.pid
     | None ->
       p.Proc.state <- Proc.Sleeping Proc.Wait_child;
       raise Restart)
  | _ -> err Errno.EINVAL

let sys_kill k (p : Proc.t) = function
  | [ pid; sig_ ] ->
    let pid = Uarg.int_exn pid and sig_ = Uarg.int_exn sig_ in
    if sig_ < 1 || sig_ >= Signo.nsig then err Errno.EINVAL;
    let target = Kstate.proc_exn k pid in
    if Proc.is_zombie target then err Errno.ESRCH;
    Proc.post_signal target sig_;
    (match target.Proc.state with
     | Proc.Sleeping _ -> target.Proc.state <- Proc.Runnable
     | _ -> ());
    ignore p;
    RInt 0
  | _ -> err Errno.EINVAL

let read_str_array k p uptr ~max =
  if Uarg.is_null uptr then []
  else begin
    let rec go i acc =
      if i >= max then err Errno.E2BIG
      else
        match Kstate.read_user_ptr_slot k p uptr i with
        | None -> List.rev acc
        | Some sp -> go (i + 1) (Kstate.copyin_str k p sp ~max:4096 :: acc)
    in
    go 0 []
  end

let sys_execve k (p : Proc.t) = function
  | [ path; argv; envv ] ->
    let path = Kstate.copyin_str k p (Uarg.ptr_exn path) ~max:1024 in
    let argv = read_str_array k p (Uarg.ptr_exn argv) ~max:256 in
    let envv = read_str_array k p (Uarg.ptr_exn envv) ~max:256 in
    (match Vfs.lookup k.Kstate.vfs path with
     | Some (Vfs.Exe (abi, image)) ->
       Exec.exec_image k p ~abi ~image ~argv ~envv;
       RNone
     | Some _ -> err Errno.EACCES
     | None -> err Errno.ENOENT)
  | _ -> err Errno.EINVAL

(* --- Signals -------------------------------------------------------------------------------- *)

(* sigaction struct: handler slot (pointer-sized per ABI) then 8 bytes of
   flags. Handler values 0 and 1 mean default and ignore. *)
let sys_sigaction k (p : Proc.t) = function
  | [ sig_; act; oact ] ->
    let sig_ = Uarg.int_exn sig_ in
    if sig_ < 1 || sig_ >= Signo.nsig || sig_ = Signo.sigkill then
      err Errno.EINVAL;
    let oactp = Uarg.ptr_exn oact in
    if not (Uarg.is_null oactp) then begin
      let prev = p.Proc.sigdisp.(sig_) in
      match p.Proc.abi with
      | Abi.Cheriabi ->
        let c =
          match prev with
          | Proc.Sig_default -> Cap.null
          | Proc.Sig_ignore -> Cap.untagged ~addr:1
          | Proc.Sig_handler (Uarg.Ucap c) -> c
          | Proc.Sig_handler (Uarg.Uaddr a) -> Cap.untagged ~addr:a
        in
        Kstate.write_user_cap k p oactp c
      | Abi.Mips64 | Abi.Asan ->
        let v =
          match prev with
          | Proc.Sig_default -> 0
          | Proc.Sig_ignore -> 1
          | Proc.Sig_handler (Uarg.Uaddr a) -> a
          | Proc.Sig_handler (Uarg.Ucap c) -> Cap.addr c
        in
        let out = Bytes.create 8 in
        Bytes.set_int64_le out 0 (Int64.of_int v);
        Kstate.copyout k p oactp out
    end;
    let actp = Uarg.ptr_exn act in
    if not (Uarg.is_null actp) then begin
      let disp =
        match p.Proc.abi with
        | Abi.Cheriabi ->
          let c = Kstate.read_user_cap k p actp in
          if Cap.is_tagged c then Proc.Sig_handler (Uarg.Ucap c)
          else if Cap.addr c = 0 then Proc.Sig_default
          else if Cap.addr c = 1 then Proc.Sig_ignore
          else
            (* Untagged non-trivial handler: provenance was lost. *)
            err Errno.EPROT
        | Abi.Mips64 | Abi.Asan ->
          let b = Kstate.copyin k p actp ~len:8 in
          (match Int64.to_int (Bytes.get_int64_le b 0) with
           | 0 -> Proc.Sig_default
           | 1 -> Proc.Sig_ignore
           | a -> Proc.Sig_handler (Uarg.Uaddr a))
      in
      p.Proc.sigdisp.(sig_) <- disp
    end;
    RInt 0
  | _ -> err Errno.EINVAL

let sys_sigreturn k p = function
  | [ frame ] ->
    Signal_dispatch.sigreturn k p (Uarg.ptr_exn frame);
    RNone
  | _ -> err Errno.EINVAL

(* --- Management interfaces: ioctl and sysctl ------------------------------------------------- *)

(* DIOC_GETCONF: the argument struct embeds a pointer the kernel writes
   through — the shape of the FreeBSD DHCP-client ioctl bug found by
   CheriABI (§5.4). Struct layout: buffer pointer (pointer-sized), then
   requested length (8 bytes). *)
let dioc_getconf_impl k (p : Proc.t) argp =
  let buf_ptr =
    match Kstate.read_user_ptr_slot k p argp 0 with
    | Some ptr -> ptr
    | None -> err Errno.EINVAL
  in
  let len_off = Abi.pointer_size p.Proc.abi in
  let len =
    Int64.to_int
      (Bytes.get_int64_le
         (Kstate.copyin k p
            (match argp with
             | Uarg.Ucap c -> Uarg.Ucap (Cap.inc_addr c len_off)
             | Uarg.Uaddr a -> Uarg.Uaddr (a + len_off))
            ~len:8)
         0)
  in
  if len < 0 || len > 1 lsl 20 then err Errno.EINVAL;
  (* The kernel fills [len] bytes of configuration data through the user's
     embedded pointer. If the caller under-allocated the buffer, a CheriABI
     capability faults here; a legacy kernel silently writes out of
     bounds. *)
  let data = Bytes.init len (fun i -> Char.chr ((i * 7 + 3) land 0xff)) in
  Kstate.copyout k p buf_ptr data;
  RInt 0

let sys_ioctl k (p : Proc.t) = function
  | [ fd; cmd; argp ] ->
    let fd = Uarg.int_exn fd and cmd = Uarg.int_exn cmd in
    let e = Proc.get_fd p fd in
    let argp = Uarg.ptr_exn argp in
    if cmd = Sysno.dioc_getconf then dioc_getconf_impl k p argp
    else begin
      match e.Vfs.fo_obj with
      | Vfs.ODev d ->
        let size = Sysno.ioc_size cmd in
        let dirs = Sysno.ioc_dir cmd in
        let input =
          if List.mem `In dirs then Kstate.copyin k p argp ~len:size
          else Bytes.create 0
        in
        (match d.Vfs.d_ioctl cmd input with
         | Ok out ->
           if List.mem `Out dirs then Kstate.copyout k p argp out;
           RInt 0
         | Error e -> err e)
      | _ -> err Errno.ENOTTY
    end
  | _ -> err Errno.EINVAL

(* sysctl: management information export. Kernel pointers are exposed as
   plain virtual addresses, never as capabilities (§4: "we have altered
   them to expose virtual addresses rather than kernel capabilities"). *)
let sys_sysctl k (p : Proc.t) = function
  | [ namep; _namelen; oldp; oldlenp; _newp; _newlen ] ->
    let name = Kstate.copyin_str k p (Uarg.ptr_exn namep) ~max:128 in
    let int_data v =
      let b = Bytes.create 8 in
      Bytes.set_int64_le b 0 (Int64.of_int v);
      b
    in
    let data =
      match name with
      | "kern.ostype" -> Bytes.of_string "CheriBSD-sim\000"
      | "kern.pid_max" -> int_data 65536
      | "hw.pagesize" -> int_data Phys.page_size
      | "kern.ps_strings" ->
        (* A user-visible kernel-held pointer: exported as an address. *)
        int_data p.Proc.ps_strings
      | "kern.ncpu" -> int_data 1
      | _ -> err Errno.ENOENT
    in
    let oldp = Uarg.ptr_exn oldp and oldlenp = Uarg.ptr_exn oldlenp in
    if not (Uarg.is_null oldlenp) then begin
      let avail =
        Int64.to_int (Bytes.get_int64_le (Kstate.copyin k p oldlenp ~len:8) 0)
      in
      if not (Uarg.is_null oldp) then begin
        let n = min avail (Bytes.length data) in
        Kstate.copyout k p oldp (Bytes.sub data 0 n)
      end;
      Kstate.copyout k p oldlenp (int_data (Bytes.length data))
    end;
    RInt 0
  | _ -> err Errno.EINVAL

(* --- kevent-lite -------------------------------------------------------------------------------

   The paper's example of syscalls that park user pointers in kernel data
   structures for later return: the registration stores the *capability*,
   and the poll hands it back intact — the kernel structure itself had to
   become capability-sized. *)

let sys_kevent_reg _k (p : Proc.t) = function
  | [ fd; udata ] ->
    let fd = Uarg.int_exn fd in
    ignore (Proc.get_fd p fd);
    p.Proc.kevents <- (fd, Uarg.ptr_exn udata) :: p.Proc.kevents;
    RInt 0
  | _ -> err Errno.EINVAL

let sys_kevent_poll k (p : Proc.t) = function
  | [ out ] ->
    let ready =
      List.find_opt (fun (fd, _) -> fd_ready p fd ~write:false) p.Proc.kevents
    in
    (match ready with
     | None -> RInt (-(Errno.to_code Errno.EAGAIN))
     | Some (fd, udata) ->
       let outp = Uarg.ptr_exn out in
       (match p.Proc.abi, udata with
        | Abi.Cheriabi, Uarg.Ucap c ->
          (* the stored capability returns with its tag intact *)
          Kstate.write_user_cap k p outp c
        | _, u ->
          let b = Bytes.create 8 in
          Bytes.set_int64_le b 0 (Int64.of_int (Uarg.addr_of_uptr u));
          Kstate.copyout k p outp b);
       RInt fd)
  | _ -> err Errno.EINVAL

(* --- ptrace ------------------------------------------------------------------------------------ *)

let sys_ptrace k (p : Proc.t) = function
  | [ req; pid; addr; data ] ->
    let req = Uarg.int_exn req
    and pid = Uarg.int_exn pid
    and data = Uarg.int_exn data in
    let addr = Uarg.ptr_exn addr in
    Ptrace_impl.dispatch k p ~req ~pid ~addr ~data
  | _ -> err Errno.EINVAL

(* --- Dispatch table ----------------------------------------------------------------------------- *)

let handler n =
  if n = Sysno.sys_exit then Some sys_exit
  else if n = Sysno.sys_fork then Some sys_fork
  else if n = Sysno.sys_read then Some sys_read
  else if n = Sysno.sys_write then Some sys_write
  else if n = Sysno.sys_open then Some sys_open
  else if n = Sysno.sys_close then Some sys_close
  else if n = Sysno.sys_wait4 then Some sys_wait4
  else if n = Sysno.sys_unlink then Some sys_unlink
  else if n = Sysno.sys_getpid then Some sys_getpid
  else if n = Sysno.sys_ptrace then Some sys_ptrace
  else if n = Sysno.sys_kill then Some sys_kill
  else if n = Sysno.sys_pipe then Some sys_pipe
  else if n = Sysno.sys_sigaction then Some sys_sigaction
  else if n = Sysno.sys_ioctl then Some sys_ioctl
  else if n = Sysno.sys_execve then Some sys_execve
  else if n = Sysno.sys_sbrk then Some sys_sbrk
  else if n = Sysno.sys_munmap then Some sys_munmap
  else if n = Sysno.sys_mprotect then Some sys_mprotect
  else if n = Sysno.sys_getcwd then Some sys_getcwd
  else if n = Sysno.sys_select then Some sys_select
  else if n = Sysno.sys_sigreturn then Some sys_sigreturn
  else if n = Sysno.sys_gettime then Some sys_gettime
  else if n = Sysno.sys_socketpair then Some sys_socketpair
  else if n = Sysno.sys_lseek then Some sys_lseek
  else if n = Sysno.sys_sysctl then Some sys_sysctl
  else if n = Sysno.sys_ftruncate then Some sys_ftruncate
  else if n = Sysno.sys_shmat then Some sys_shmat
  else if n = Sysno.sys_shmdt then Some sys_shmdt
  else if n = Sysno.sys_shmget then Some sys_shmget
  else if n = Sysno.sys_mmap then Some sys_mmap
  else if n = Sysno.sys_kevent_reg then Some sys_kevent_reg
  else if n = Sysno.sys_kevent_poll then Some sys_kevent_poll
  else None
