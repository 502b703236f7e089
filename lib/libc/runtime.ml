(* Runtime builtins: a table of typed upcalls indexed by [Rtnum] number.

   These execute with the *user's* authority: every pointer they receive is
   checked exactly as a capability load/store would be, and violations are
   delivered as signals to the process, not kernel errors. Under ASan the
   memory builtins also check shadow memory (the interceptors of the real
   sanitizer runtime). *)

module Cap = Cheri_cap.Cap
module Perms = Cheri_cap.Perms
module Cpu = Cheri_isa.Cpu
module Reg = Cheri_isa.Reg
module Abi = Cheri_core.Abi
module K = Cheri_kernel.Kstate
module Proc = Cheri_kernel.Proc
module Exec = Cheri_kernel.Exec
module Signo = Cheri_kernel.Signo
module Signal_dispatch = Cheri_kernel.Signal_dispatch
module Errno = Cheri_kernel.Errno
module Uarg = Cheri_kernel.Uarg

(* A fault inside a runtime builtin, attributed to the process. *)
exception Rt_fault of int * string   (* signal, message *)

let ptr_fault msg = raise (Rt_fault (Signo.sigprot, msg))
let seg_fault msg = raise (Rt_fault (Signo.sigsegv, msg))
let asan_fault msg = raise (Rt_fault (Signo.sigabrt, msg))

(* --- Results ------------------------------------------------------------------------ *)

let ret_int (p : Proc.t) v = p.Proc.ctx.Cpu.gpr.(Reg.v0) <- v

(* Return a pointer the process holds (memcpy's destination), or NULL. *)
let ret_ptr k (p : Proc.t) ~addr ~cap =
  p.Proc.ctx.Cpu.gpr.(Reg.v0) <- addr;
  match p.Proc.abi, cap with
  | Abi.Cheriabi, Some c -> K.copy k p (Creg Reg.ca0) c
  | Abi.Cheriabi, None -> K.copy k p (Creg Reg.ca0) Cap.null
  | (Abi.Mips64 | Abi.Asan), _ -> ()

(* Return a fresh allocation: its capability is the allocator's grant. *)
let ret_alloc k (p : Proc.t) ~addr ~cap =
  match cap with
  | Some c ->
    p.Proc.ctx.Cpu.gpr.(Reg.v0) <- addr;
    K.grant k p ~origin:Malloc (Creg Reg.ca0) c
  | None -> ret_ptr k p ~addr ~cap

(* Check that [r] authorizes an access of [len] with [perm]; returns the
   base address of the access. *)
let check_ref r ~perm ~len =
  match r with
  | Uarg.Ucap c ->
    (try
       Cap.check_access_at c ~perm ~addr:(Cap.addr c) ~len;
       Cap.addr c
     with Cap.Cap_error v ->
       ptr_fault (Printf.sprintf "capability %s in C runtime"
                    (Cap.violation_to_string v)))
  | Uarg.Uaddr a -> a

(* --- Raw user memory helpers ------------------------------------------------------ *)

let unmapped vaddr =
  seg_fault (Printf.sprintf "unmapped address 0x%x in C runtime" vaddr)

let touch k p vaddr ~write =
  try K.touch_page k p vaddr ~write with Errno.Error _ -> unmapped vaddr

let read_u8 k p vaddr = Cheri_tagmem.Tagmem.read_u8 k.K.mem (touch k p vaddr ~write:false)
let write_u8 k p vaddr v =
  Cheri_tagmem.Tagmem.write_u8 k.K.mem (touch k p vaddr ~write:true) v

(* --- ASan shadow ------------------------------------------------------------------- *)

(* Run [f pa n] over the physical chunks backing the shadow of
   [addr, addr+len), page by page in ascending order, so pages fault in
   exactly as a byte-at-a-time walk would touch them. An unmapped shadow
   page is a SIGSEGV at its first shadow byte. *)
let iter_shadow k p addr len ~write f =
  if len > 0 then begin
    let s0 = Exec.shadow_of addr and s1 = Exec.shadow_of (addr + len - 1) in
    let done_ = ref 0 in
    try
      K.iter_user_range k p s0 (s1 - s0 + 1) ~write (fun pa off n ->
          f pa n;
          done_ := off + n)
    with Errno.Error Errno.EFAULT -> unmapped (s0 + !done_)
  end

let shadow_set k p addr len v =
  iter_shadow k p addr len ~write:true (fun pa n ->
      Cheri_tagmem.Tagmem.fill k.K.mem pa n v)

let shadow_check k p addr len what =
  iter_shadow k p addr len ~write:false (fun pa n ->
      if not (Cheri_tagmem.Tagmem.is_zero k.K.mem pa n) then
        asan_fault (Printf.sprintf "AddressSanitizer: %s at 0x%x" what addr))

let is_asan (p : Proc.t) = p.Proc.abi = Abi.Asan

(* The print builtins write through descriptor 1 like printf would, so a
   forked child's output reaches the shared console/pipe/file. *)
let write_stdout k (p : Proc.t) data =
  match p.Proc.fds.(1) with
  | Some e ->
    (match e.Cheri_kernel.Vfs.fo_obj with
     | Cheri_kernel.Vfs.ODev d -> ignore (d.Cheri_kernel.Vfs.d_write data)
     | Cheri_kernel.Vfs.OFile f ->
       let n = Cheri_kernel.Vfs.file_write f ~off:e.Cheri_kernel.Vfs.fo_off data in
       e.Cheri_kernel.Vfs.fo_off <- e.Cheri_kernel.Vfs.fo_off + n
     | Cheri_kernel.Vfs.OPipe_w pipe | Cheri_kernel.Vfs.OSock (_, pipe) ->
       (try
          ignore (Cheri_kernel.Vfs.pipe_write pipe data);
          K.wake_pipe_waiters k pipe
        with Errno.Error _ -> ())
     | Cheri_kernel.Vfs.OPipe_r _ -> ())
  | None -> K.console_write p data

(* --- Allocator entry points --------------------------------------------------------- *)

(* ASan adds 16-byte redzones around every allocation; the payload->base
   map lives with the rest of the per-heap allocator metadata (so fork
   and exec handle it like everything else). *)
let redzone = 16

let alloc k p len =
  if is_asan p then begin
    let base, _ = Malloc_impl.malloc k p (len + (2 * redzone)) in
    let payload = base + redzone in
    shadow_set k p base redzone 1;
    shadow_set k p payload len 0;
    shadow_set k p (payload + len) redzone 1;
    Malloc_impl.asan_register k p payload (base, len);
    K.charge k p (40 + (len / 32));
    payload, None
  end
  else Malloc_impl.malloc k p len

let do_free k p r =
  let addr = Uarg.addr_of_uptr r in
  if addr = 0 then ()
  else begin
    (match p.Proc.abi, r with
     | Abi.Cheriabi, Uarg.Ucap c when not (Cap.is_tagged c) ->
       ptr_fault "free() of untagged capability"
     | _ -> ());
    if is_asan p then begin
      match Malloc_impl.asan_find k p addr with
      | None -> asan_fault "AddressSanitizer: invalid free"
      | Some (base, len) ->
        Malloc_impl.asan_remove k p addr;
        shadow_set k p addr len 1;   (* poison the freed payload *)
        (try ignore (Malloc_impl.free k p base)
         with Malloc_impl.Alloc_fault _ -> ())
    end
    else
      match Malloc_impl.free k p addr with
      | _ -> ()
      | exception Malloc_impl.Alloc_fault _ ->
        (* free() of a pointer malloc never returned. *)
        if p.Proc.abi = Abi.Cheriabi then
          ptr_fault "free() of pointer without matching allocation"
  end

let alloc_size k p addr =
  if is_asan p then
    match Malloc_impl.asan_find k p addr with
    | Some (_, len) -> Some len
    | None -> None
  else
    match Malloc_impl.lookup k p addr with
    | Some info -> Some info.Malloc_impl.ai_size
    | None -> None

(* --- Temporal safety: revocation sweep (paper 6, "Temporal safety") ------ *)

(* After freeing [base, top), clear the tag of every capability anywhere in
   the process (resident memory and the register file) that can still
   reach the freed region — the sweeping-revocation design CHERI enables
   through precise pointer identification. Returns the number revoked. *)
let revoke_range k (p : Proc.t) ~base ~top =
  let mem = k.K.mem in
  let pmap = Cheri_vm.Addr_space.pmap p.Proc.asp in
  let revoked = ref 0 in
  let pages = ref 0 in
  Cheri_vm.Pmap.iter_present pmap (fun _va frame ->
      incr pages;
      let pa = Cheri_tagmem.Phys.frame_addr frame in
      List.iter
        (fun off ->
          let c = Cheri_tagmem.Tagmem.read_cap mem (pa + off) in
          if Cap.is_tagged c && Cap.base c < top && Cap.top c > base then begin
            Cheri_tagmem.Tagmem.clear_tag mem (pa + off);
            incr revoked
          end)
        (Cheri_tagmem.Tagmem.scan_tags mem pa Cheri_tagmem.Phys.page_size));
  let ctx = p.Proc.ctx in
  for i = 1 to Cap.Regs.nregs - 1 do
    let c = Cpu.rd_creg ctx i in
    if Cap.is_tagged c && Cap.base c < top && Cap.top c > base then begin
      K.copy k p (Creg i) (Cap.clear_tag c);
      incr revoked
    end
  done;
  (* The sweep visits every resident page: a real cost, charged as such. *)
  K.charge k p (200 + (!pages * 80));
  !revoked

let do_free_revoke k (p : Proc.t) r =
  let addr = Uarg.addr_of_uptr r in
  if addr <> 0 then begin
    let len =
      match alloc_size k p addr with
      | Some l -> l
      | None -> 0
    in
    do_free k p r;
    if p.Proc.abi = Abi.Cheriabi && len > 0 then
      ignore (revoke_range k p ~base:addr ~top:(addr + len))
  end

(* --- Memory builtins ------------------------------------------------------------------ *)

let granule = Cap.sizeof

(* Copy with tag preservation when fully capability-aligned — the
   capability-aware memcpy the paper's runtime requires (qsort, pointer
   propagation idioms). *)
let copy_user k p ~dst ~src ~len =
  if len > 0 then begin
    let aligned =
      dst land (granule - 1) = 0 && src land (granule - 1) = 0
      && len land (granule - 1) = 0
    in
    if aligned then begin
      let n = len / granule in
      (* Read all source granules first (a tagged one's capability, which
         is its bytes too, else its raw bytes): overlap-safe. *)
      let mem = k.K.mem in
      let tmp =
        Array.init n (fun i ->
            let pa = touch k p (src + (i * granule)) ~write:false in
            if Cheri_tagmem.Tagmem.get_tag mem pa then
              Bytes.empty, Cheri_tagmem.Tagmem.read_cap mem pa
            else Cheri_tagmem.Tagmem.read_bytes mem pa granule, Cap.null)
      in
      Array.iteri
        (fun i (bytes, cap) ->
          let va = dst + (i * granule) in
          if Cap.is_tagged cap then
            (try K.copy k p (Kaddr va) cap
             with Errno.Error _ -> unmapped va)
          else
            Cheri_tagmem.Tagmem.blit_bytes mem ~dst:(touch k p va ~write:true)
              bytes)
        tmp
    end
    else begin
      let tmp = Bytes.init len (fun i -> Char.chr (read_u8 k p (src + i))) in
      Bytes.iteri (fun i c -> write_u8 k p (dst + i) (Char.code c)) tmp
    end
  end;
  K.charge k p (24 + (len / 8) + (len / 64 * 2))

let do_memcpy k p dstr srcr len =
  if len < 0 then ptr_fault "memcpy with negative length";
  let dst = check_ref dstr ~perm:Perms.store ~len in
  let src = check_ref srcr ~perm:Perms.load ~len in
  if is_asan p then begin
    shadow_check k p src len "heap-buffer-overflow in memcpy (read)";
    shadow_check k p dst len "heap-buffer-overflow in memcpy (write)"
  end;
  copy_user k p ~dst ~src ~len;
  ret_ptr k p ~addr:dst
    ~cap:(match dstr with Uarg.Ucap c -> Some c | Uarg.Uaddr _ -> None)

let do_memset k p dstr byte len =
  if len < 0 then ptr_fault "memset with negative length";
  let dst = check_ref dstr ~perm:Perms.store ~len in
  if is_asan p then shadow_check k p dst len "heap-buffer-overflow in memset";
  for i = 0 to len - 1 do
    write_u8 k p (dst + i) byte
  done;
  K.charge k p (16 + (len / 8));
  ret_ptr k p ~addr:dst
    ~cap:(match dstr with Uarg.Ucap c -> Some c | Uarg.Uaddr _ -> None)

let do_strlen k p r =
  let base = Uarg.addr_of_uptr r in
  let limit =
    match r with
    | Uarg.Ucap c ->
      if not (Cap.is_tagged c) then ptr_fault "strlen of untagged capability";
      Cap.top c - base
    | Uarg.Uaddr _ -> 1 lsl 20
  in
  let rec go i =
    if i >= limit then
      (match r with
       | Uarg.Ucap _ -> ptr_fault "strlen ran off the end of its capability"
       | Uarg.Uaddr _ -> seg_fault "strlen ran away")
    else if read_u8 k p (base + i) = 0 then i
    else go (i + 1)
  in
  let n = go 0 in
  K.charge k p (8 + n);
  ret_int p n

(* --- Output ------------------------------------------------------------------------------ *)

let do_print_str k p r =
  let base = Uarg.addr_of_uptr r in
  let limit =
    match r with
    | Uarg.Ucap c ->
      if not (Cap.is_tagged c) then ptr_fault "print of untagged capability";
      Cap.top c - base
    | Uarg.Uaddr _ -> 1 lsl 20
  in
  let buf = Buffer.create 32 in
  let rec go i =
    if i >= limit then
      (match r with
       | Uarg.Ucap _ -> ptr_fault "unterminated string passed to print"
       | Uarg.Uaddr _ -> seg_fault "unterminated string")
    else
      let c = read_u8 k p (base + i) in
      if c = 0 then ()
      else begin
        Buffer.add_char buf (Char.chr c);
        go (i + 1)
      end
  in
  go 0;
  write_stdout k p (Buffer.to_bytes buf);
  K.charge k p (20 + Buffer.length buf)

let do_print_int k p v =
  write_stdout k p (Bytes.of_string (string_of_int v));
  K.charge k p 30

let do_print_char k p c =
  write_stdout k p (Bytes.make 1 (Char.chr (c land 0xff)));
  K.charge k p 10

let do_print_hex k p v =
  write_stdout k p (Bytes.of_string (Printf.sprintf "0x%x" v));
  K.charge k p 30

(* --- Allocator builtins ---------------------------------------------------------------- *)

let do_malloc k p len =
  let addr, cap = alloc k p len in
  ret_alloc k p ~addr ~cap

let do_calloc k p n size =
  let len = n * size in
  let addr, cap = alloc k p len in
  for i = 0 to (len - 1) / 8 do
    let pa = touch k p (addr + (i * 8)) ~write:true in
    Cheri_tagmem.Tagmem.write_int k.K.mem pa ~len:8 0
  done;
  K.charge k p (len / 8);
  ret_alloc k p ~addr ~cap

let do_realloc k (p : Proc.t) r len =
  let old_addr = Uarg.addr_of_uptr r in
  if old_addr = 0 then do_malloc k p len
  else begin
    let old_len =
      match alloc_size k p old_addr with
      | Some l -> l
      | None ->
        if p.Proc.abi = Abi.Cheriabi then
          ptr_fault "realloc of pointer without matching allocation"
        else 0
    in
    let addr, cap = alloc k p len in
    copy_user k p ~dst:addr ~src:old_addr ~len:(min old_len len);
    do_free k p r;
    ret_alloc k p ~addr ~cap
  end

(* --- Dispatch -------------------------------------------------------------------------------- *)

(* Indexed by builtin number; each signature also fixes the compiler's
   argument placement (positional: slot i is a_i, or c(3+i) for a
   CheriABI pointer). *)
let table : (K.t, Proc.t, unit) Uarg.upcall option array =
  let open Uarg in
  table
    [ Rtnum.rt_malloc, upcall "malloc" (A1 Int) do_malloc;
      Rtnum.rt_free, upcall "free" (A1 Ptr) do_free;
      Rtnum.rt_realloc, upcall "realloc" (A2 (Ptr, Int)) do_realloc;
      Rtnum.rt_calloc, upcall "calloc" (A2 (Int, Int)) do_calloc;
      Rtnum.rt_memcpy, upcall "memcpy" (A3 (Ptr, Ptr, Int)) do_memcpy;
      Rtnum.rt_memmove, upcall "memmove" (A3 (Ptr, Ptr, Int)) do_memcpy;
      Rtnum.rt_memset, upcall "memset" (A3 (Ptr, Int, Int)) do_memset;
      Rtnum.rt_print_int, upcall "print_int" (A1 Int) do_print_int;
      Rtnum.rt_print_char, upcall "print_char" (A1 Int) do_print_char;
      Rtnum.rt_print_str, upcall "print_str" (A1 Ptr) do_print_str;
      Rtnum.rt_print_hex, upcall "print_hex" (A1 Int) do_print_hex;
      Rtnum.rt_strlen, upcall "strlen" (A1 Ptr) do_strlen;
      Rtnum.rt_free_revoke, upcall "free_revoke" (A1 Ptr) do_free_revoke ]

let dispatch k (p : Proc.t) n =
  match Uarg.lookup table n with
  | None ->
    Proc.log_fault p (Printf.sprintf "unknown runtime builtin %d" n);
    K.exit_proc k p (Proc.Signaled Signo.sigill)
  | Some u ->
    (try Uarg.call ~split:false p.Proc.abi p.Proc.ctx u k p with
     | Rt_fault (sig_, msg) ->
       Proc.log_fault p msg;
       Proc.post_signal p sig_;
       ignore (Signal_dispatch.deliver_pending k p)
     | Malloc_impl.Alloc_fault e ->
       Proc.log_fault p ("allocator: " ^ Errno.to_string e);
       ret_ptr k p ~addr:0 ~cap:None)

(* Install the dispatcher into a booted kernel. The allocator lifecycle
   hooks (heap eviction on exit/execve, metadata copy on fork) are wired
   eagerly here — and lazily by the allocator itself on first use, for
   callers that drive [Malloc_impl] without a runtime. *)
let install k =
  k.K.rt_handler <- Some dispatch;
  k.K.on_asp_destroy <- Some (fun k pr -> Malloc_impl.evict k ~principal:pr);
  k.K.on_fork <-
    Some (fun k parent child -> Malloc_impl.fork_heap k ~parent ~child);
  (* ASan: freshly mapped heap is entirely poisoned; allocations unpoison
     their payloads. *)
  Malloc_impl.set_on_map k
    (fun k p base len -> if is_asan p then shadow_set k p base len 1)

(* The one way to boot a machine: a kernel on [engine] with timeslice
   [quantum] (the kernel's defaults when omitted) and this runtime
   installed. *)
let boot ?mem_size ?l2_size ?engine ?quantum () =
  let k = K.boot ?mem_size ?l2_size ?engine ?quantum () in
  install k;
  k
