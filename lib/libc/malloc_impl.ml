(* The userspace allocator: a snmalloc-shaped sharded size-class allocator
   (§4, "Dynamic allocations" + the ROADMAP's exact-bounds discipline).

   Shape of the design (docs/ALLOC.md has the full argument):

   - Allocator state is *per machine*: it hangs off [Kstate.rt_alloc]
     (one kernel = one machine = one fleet worker domain), so nothing the
     allocator touches is shared across OCaml domains. The old design
     kept one global arena table for every machine in the process — an
     unsynchronized race once the fleet layer went multicore.
   - Each address space (keyed by principal, so execve gets a fresh heap)
     owns a small array of shards. A process allocates from its affinity
     shard (pid mod nshards); chunks record the shard that carved them.
   - free() from a non-owning shard context does not touch the owner's
     free lists: it enqueues the slot on the owner's lock-free remote
     queue (message-passing frees). The owner drains its queue at its
     next malloc — snmalloc's discipline.
   - Tag sweeps happen when an object *changes owner*, not on every
     free: a locally-freed slot parks dirty on the free list and is swept
     when reused (reuse is an ownership change: old allocation -> new);
     a remotely-freed slot is swept once when the owner drains it and
     parks clean. Either way a recycled allocation can never read a
     capability its previous owner left behind.
   - Every returned capability is rebounded address-only from the chunk
     parent via compression-exact CSetBounds ([Capptr.bound]) — never
     tag amplification — with VMMAP and EXECUTE stripped.
   - Small classes are chosen by *representable* length: the class
     invariant [Compress.crrl len <= class size] is statically asserted,
     so representability rounding can never widen an object's bounds
     into its neighbour. *)

module Cap = Cheri_cap.Cap
module Compress = Cheri_cap.Compress
module Abi = Cheri_core.Abi
module Addr_space = Cheri_vm.Addr_space
module Pmap = Cheri_vm.Pmap
module Tagmem = Cheri_tagmem.Tagmem
module K = Cheri_kernel.Kstate
module Proc = Cheri_kernel.Proc
module Sys_impl = Cheri_kernel.Sys_impl
module Sysno = Cheri_kernel.Sysno
module Uarg = Cheri_kernel.Uarg
module Errno = Cheri_kernel.Errno

let chunk_size = 64 * 1024

(* Each chunk starts with a small header, as jemalloc's do; allocations
   never sit at the very start of a mapping. *)
let chunk_header = 16

(* Small classes now extend past the page: everything up to 32 KiB is
   class-allocated (the >8 KiB classes exercise non-trivial CRRL
   rounding), beyond that an allocation maps its own region. *)
let size_classes =
  [| 16; 32; 48; 64; 96; 128; 192; 256; 384; 512; 768; 1024; 1536; 2048;
     3072; 4096; 6144; 8192; 12288; 16384; 24576; 32768 |]

let nclasses = Array.length size_classes

(* The class-table soundness predicate, exposed so tests can show what a
   bad table (e.g. a non-representable class size) would violate:
   ascending, 16-aligned slots (so every carved base is aligned at least
   as strictly as CRAM demands for any class length), each class size
   exactly representable ([crrl c = c]; this is what makes "pick the
   class by crrl of the request" sound — bounds never exceed the slot),
   and each class must fit a chunk. *)
let class_table_ok tbl =
  let n = Array.length tbl in
  let ok = ref (n > 0) in
  for i = 0 to n - 1 do
    let c = tbl.(i) in
    if c <= 0 || c mod 16 <> 0 then ok := false;
    if Compress.crrl c <> c then ok := false;
    if chunk_header + c > chunk_size then ok := false;
    if i > 0 && tbl.(i - 1) >= c then ok := false;
    (* The CRAM alignment for any length served by this class divides the
       16-byte carve granularity. *)
    if lnot (Compress.cram c) land 15 <> lnot (Compress.cram c) then ok := false
  done;
  !ok

let () = assert (class_table_ok size_classes)

(* Class lookup by *representable* length: callers pass [crrl len], and
   the invariant above guarantees the slot covers the rounded bounds. *)
let class_of_size n =
  let rec go i =
    if i >= nclasses then None
    else if size_classes.(i) >= n then Some i
    else go (i + 1)
  in
  go 0

(* How many shards per heap. Affinity is pid-based, so a forked child
   lands on a different shard than its parent 3 times out of 4 — that is
   what generates cross-shard (remote) frees on inherited objects. *)
let nshards = 4

let affinity (p : Proc.t) = p.Proc.pid mod nshards

type chunk = {
  ck_base : int;
  ck_len : int;
  ck_parent : Capptr.chunk option;  (* the VMMAP-bearing mmap capability *)
  mutable ck_next : int;            (* bump pointer for carving runs *)
  mutable ck_shard : int;           (* owning shard (changes on adoption) *)
}

type alloc_info = {
  ai_size : int;               (* requested size *)
  ai_class : int;              (* -1 = large (own mapping) *)
}

(* Remote-queue entries pack (address, class) into one int so the queue
   is a plain [int list Atomic.t]. *)
let enc_slot addr ci = (addr lsl 6) lor ci
let dec_slot e = (e lsr 6, e land 63)

(* The allocator's work counts. One record serves every level: each shard
   counts its own mallocs, frees, queue traffic, sweeps and adoptions;
   each heap counts the tags its sweeps cleared and its failed unmaps
   (the shard-level fields of a heap's record stay 0, and the reverse);
   the machine's [retired] record holds what evicted heaps counted. *)
type counters = {
  mutable mallocs : int;
  mutable frees : int;            (* frees performed in this shard context *)
  mutable remote_enq : int;       (* slots enqueued TO this shard *)
  mutable remote_drained : int;
  mutable drains : int;           (* non-empty drain batches *)
  mutable owner_sweeps : int;     (* sweeps at ownership change (drain) *)
  mutable reuse_sweeps : int;     (* sweeps of dirty slots at reuse *)
  mutable adoptions : int;        (* chunks adopted from sibling shards *)
  mutable tags_cleared : int;     (* stale capabilities swept *)
  mutable unmap_leaks : int;      (* large frees whose unmap failed *)
}

let zero () =
  { mallocs = 0; frees = 0; remote_enq = 0; remote_drained = 0; drains = 0;
    owner_sweeps = 0; reuse_sweeps = 0; adoptions = 0; tags_cleared = 0;
    unmap_leaks = 0 }

(* [into] += [c], field by field. *)
let add into c =
  into.mallocs <- into.mallocs + c.mallocs;
  into.frees <- into.frees + c.frees;
  into.remote_enq <- into.remote_enq + c.remote_enq;
  into.remote_drained <- into.remote_drained + c.remote_drained;
  into.drains <- into.drains + c.drains;
  into.owner_sweeps <- into.owner_sweeps + c.owner_sweeps;
  into.reuse_sweeps <- into.reuse_sweeps + c.reuse_sweeps;
  into.adoptions <- into.adoptions + c.adoptions;
  into.tags_cleared <- into.tags_cleared + c.tags_cleared;
  into.unmap_leaks <- into.unmap_leaks + c.unmap_leaks

(* The one renderer: every view of the counters is this list plus the
   view's own gauges, in the order fleet snapshots print. *)
let render c =
  [ "mallocs", c.mallocs; "frees", c.frees; "remote_enq", c.remote_enq;
    "remote_drained", c.remote_drained; "drains", c.drains;
    "owner_sweeps", c.owner_sweeps; "reuse_sweeps", c.reuse_sweeps;
    "adoptions", c.adoptions; "tags_cleared", c.tags_cleared;
    "unmap_leaks", c.unmap_leaks ]

type shard = {
  sh_id : int;
  (* Per-class free lists of (address, clean?). A dirty slot still holds
     its previous owner's tags and is swept on reuse; a clean slot was
     swept when it crossed shards. *)
  sh_free : (int * bool) list array;
  (* Lock-free message-passing remote-free queue (Treiber push / swap
     drain): a free from a non-owning shard context lands here. *)
  sh_remote : int list Atomic.t;
  sh_c : counters;
}

let mk_shard id =
  { sh_id = id; sh_free = Array.make nclasses [];
    sh_remote = Atomic.make []; sh_c = zero () }

type heap = {
  h_abi : Abi.t;
  h_shards : shard array;
  mutable h_chunks : chunk list;
  (* Interval index: page number -> owning chunk, so the per-allocation
     parent-capability lookup is O(1) instead of a chunk-list walk. *)
  h_chunk_pages : (int, chunk) Hashtbl.t;
  h_live : (int, alloc_info) Hashtbl.t;
  (* ASan bookkeeping (payload -> redzoned base/len), kept here so it is
     evicted/forked together with the rest of the heap metadata. *)
  h_asan : (int, int * int) Hashtbl.t;
  h_c : counters;
}

let mk_heap abi =
  { h_abi = abi; h_shards = Array.init nshards mk_shard;
    h_chunks = []; h_chunk_pages = Hashtbl.create 64;
    h_live = Hashtbl.create 64; h_asan = Hashtbl.create 16; h_c = zero () }

(* Whole-machine allocator state, anchored in [Kstate.rt_alloc]. *)
type t = {
  heaps : (int, heap) Hashtbl.t;      (* address-space principal -> heap *)
  (* Evicted heaps fold in here, so the machine's counters keep the
     whole history, not just surviving heaps. *)
  retired : counters;
  mutable evicted : int;
  (* Invoked whenever the allocator maps fresh memory (arena chunks,
     large regions). The ASan runtime uses it to poison unallocated
     heap. Per-machine, like everything else here. *)
  mutable on_map : (K.t -> Proc.t -> int -> int -> unit) option;
}

type K.rt_ext += Alloc_state of t

let state (k : K.t) =
  match k.K.rt_alloc with
  | Some (Alloc_state st) -> st
  | _ ->
    let st =
      { heaps = Hashtbl.create 16; retired = zero (); evicted = 0;
        on_map = None }
    in
    k.K.rt_alloc <- Some (Alloc_state st);
    st

let set_on_map k f = (state k).on_map <- Some f

let notify_map k p base len =
  match (state k).on_map with Some f -> f k p base len | None -> ()

let heap_find st (p : Proc.t) =
  Hashtbl.find_opt st.heaps (Addr_space.principal p.Proc.asp)

let heap_of st (p : Proc.t) =
  let key = Addr_space.principal p.Proc.asp in
  match Hashtbl.find_opt st.heaps key with
  | Some h -> h
  | None ->
    let h = mk_heap p.Proc.abi in
    Hashtbl.replace st.heaps key h;
    h

exception Alloc_fault of Errno.t

let page_shift = Cheri_tagmem.Phys.page_shift

(* Register every page of a fresh chunk in the interval index. *)
let index_chunk h ck =
  let first = ck.ck_base lsr page_shift
  and last = (ck.ck_base + ck.ck_len - 1) lsr page_shift in
  for pg = first to last do
    Hashtbl.replace h.h_chunk_pages pg ck
  done

(* O(1) via the page index: a page belongs to at most one chunk. *)
let chunk_for h addr =
  match Hashtbl.find_opt h.h_chunk_pages (addr lsr page_shift) with
  | Some ck when addr >= ck.ck_base && addr < ck.ck_base + ck.ck_len ->
    Some ck
  | _ -> None

let chunk_parent_for h addr =
  match chunk_for h addr with Some ck -> ck.ck_parent | None -> None

(* Sweep stale capabilities off an object: clear every tag covering
   [addr, addr+len). Without this a recycled allocation can read a tagged
   capability left behind by its previous owner — the heap capability-leak
   class that CHERI temporal-safety work (CHERIvoke / Cornucopia) targets.
   Only resident pages can carry tags (zero-fill and swap-in rewrite the
   others), so the sweep never faults anything in. It goes through
   [Pmap.private_pa]: after fork the object's page may still sit on a
   COW frame shared with the peer process, and sweeping through the
   shared frame would strip the *peer's* capabilities too. *)
let sweep_object (p : Proc.t) addr len =
  let pmap = Addr_space.pmap p.Proc.asp in
  let mem = Pmap.mem pmap in
  let page = Addr_space.page_size in
  let cleared = ref 0 in
  let first = addr lsr page_shift and last = (addr + len - 1) lsr page_shift in
  for pg = first to last do
    let va = pg * page in
    match Pmap.private_pa pmap va with
    | None -> ()
    | Some pa ->
      let lo = max addr va and hi = min (addr + len) (va + page) in
      cleared :=
        !cleared + Tagmem.clear_tags_covering_count mem (pa + (lo - va)) (hi - lo)
  done;
  !cleared

(* --- Lock-free remote queue ------------------------------------------------------ *)

let rec rq_push q v =
  let old = Atomic.get q in
  if not (Atomic.compare_and_set q old (v :: old)) then rq_push q v

(* Swap the whole queue out; reversed so drain order is enqueue order. *)
let rq_drain q = List.rev (Atomic.exchange q [])

let rq_pending q = List.length (Atomic.get q)

(* Owner-side drain of [sh]'s remote queue: each slot crossed shards, so
   this is the ownership-change point — sweep it exactly once and park it
   clean on the owner's free list. *)
let drain_shard k p h (sh : shard) =
  match rq_drain sh.sh_remote with
  | [] -> ()
  | items ->
    sh.sh_c.drains <- sh.sh_c.drains + 1;
    List.iter
      (fun e ->
        let addr, ci = dec_slot e in
        h.h_c.tags_cleared <-
          h.h_c.tags_cleared + sweep_object p addr size_classes.(ci);
        sh.sh_c.owner_sweeps <- sh.sh_c.owner_sweeps + 1;
        sh.sh_c.remote_drained <- sh.sh_c.remote_drained + 1;
        sh.sh_free.(ci) <- (addr, true) :: sh.sh_free.(ci);
        K.charge k p 4)
      items

(* --- Growing --------------------------------------------------------------------- *)

(* An anonymous read-write mapping through the mmap syscall path (paying
   its costs and, under CheriABI, receiving a VMMAP capability). *)
let mmap_anon k p len =
  Sys_impl.sys_mmap k p (Uarg.Uaddr 0) len
    (Sysno.prot_read lor Sysno.prot_write) Sysno.map_anon (-1) 0

(* Acquire a chunk owned by [sh]. *)
let grow k (p : Proc.t) h (sh : shard) =
  let mk base parent =
    let ck = { ck_base = base; ck_len = chunk_size; ck_parent = parent;
               ck_next = base + chunk_header; ck_shard = sh.sh_id } in
    h.h_chunks <- ck :: h.h_chunks;
    index_chunk h ck;
    notify_map k p base chunk_size;
    ck
  in
  match mmap_anon k p chunk_size with
  | Sys_impl.RPtr (Uarg.Uaddr base) -> mk base None
  | Sys_impl.RPtr (Uarg.Ucap c) -> mk (Cap.base c) (Some (Capptr.of_mmap c))
  | Sys_impl.RInt _ | Sys_impl.RNone -> raise (Alloc_fault Errno.ENOMEM)

(* Map a dedicated region for a large allocation, CRRL-rounded so the
   bounds are exact. *)
let map_large k p len =
  let rlen = Compress.crrl len in
  match mmap_anon k p rlen with
  | Sys_impl.RPtr (Uarg.Uaddr base) ->
    notify_map k p base (Addr_space.page_align_up rlen);
    base, None
  | Sys_impl.RPtr (Uarg.Ucap c) ->
    notify_map k p (Cap.base c) (Addr_space.page_align_up rlen);
    Cap.base c, Some (Capptr.of_mmap c)
  | Sys_impl.RInt _ | Sys_impl.RNone -> raise (Alloc_fault Errno.ENOMEM)

(* Carve one object of class [ci] out of a chunk owned by [sh]. *)
let carve k p h (sh : shard) ci =
  let size = size_classes.(ci) in
  let rec find = function
    | ck :: rest ->
      if ck.ck_shard = sh.sh_id
         && ck.ck_next + size <= ck.ck_base + ck.ck_len
      then begin
        let addr = ck.ck_next in
        ck.ck_next <- addr + size;
        addr, ck.ck_parent
      end
      else find rest
    | [] ->
      let ck = grow k p h sh in
      let addr = ck.ck_next in
      ck.ck_next <- addr + size;
      addr, ck.ck_parent
  in
  find h.h_chunks

(* Pop a slot off [sh]'s class-[ci] free list; dirty slots (freed locally,
   never crossed shards) are swept here — reuse is the ownership change. *)
let pop_slot p h (sh : shard) ci =
  match sh.sh_free.(ci) with
  | [] -> None
  | (addr, clean) :: rest ->
    sh.sh_free.(ci) <- rest;
    if not clean then begin
      h.h_c.tags_cleared <-
        h.h_c.tags_cleared + sweep_object p addr size_classes.(ci);
      sh.sh_c.reuse_sweeps <- sh.sh_c.reuse_sweeps + 1
    end;
    Some (addr, chunk_parent_for h addr)

(* Does any sibling shard hold state worth adopting? (Pending remote
   slots, parked free slots, or chunks with carve room.) *)
let sibling_has_state h (aff : shard) =
  Array.exists
    (fun (s : shard) ->
      s.sh_id <> aff.sh_id
      && (Atomic.get s.sh_remote <> []
          || Array.exists (fun l -> l <> []) s.sh_free))
    h.h_shards
  || List.exists (fun ck -> ck.ck_shard <> aff.sh_id) h.h_chunks

(* Adopt every sibling shard's state into [aff]. Within one heap only the
   owning process allocates, so sibling shards are "dead allocators" in
   snmalloc terms (they belonged to the pre-fork / pre-exec process):
   when the affinity shard misses its free list it first settles their
   queues (owner-change sweeps) and takes over their chunks and parked
   slots, rather than growing the heap past memory it could recycle. *)
let adopt k p h (aff : shard) =
  Array.iter
    (fun (s : shard) ->
      if s.sh_id <> aff.sh_id then begin
        drain_shard k p h s;
        Array.iteri
          (fun ci l ->
            if l <> [] then begin
              aff.sh_free.(ci) <- aff.sh_free.(ci) @ l;
              s.sh_free.(ci) <- []
            end)
          s.sh_free
      end)
    h.h_shards;
  List.iter
    (fun ck ->
      if ck.ck_shard <> aff.sh_id then begin
        ck.ck_shard <- aff.sh_id;
        aff.sh_c.adoptions <- aff.sh_c.adoptions + 1;
        K.charge k p 12
      end)
    h.h_chunks

(* --- Lifecycle hooks ------------------------------------------------------------- *)

(* A heap's counts: its own record plus its shards'. *)
let fold_heap_into into (h : heap) =
  add into h.h_c;
  Array.iter (fun (s : shard) -> add into s.sh_c) h.h_shards

let heap_pending (h : heap) =
  Array.fold_left (fun acc s -> acc + rq_pending s.sh_remote) 0 h.h_shards

(* Evict the heap of a dying address space (exit or execve). The remote
   queues are drained for accounting — the quiesce invariant is that
   every enqueued slot is eventually drained — but not swept: the whole
   space is being torn down. Counters fold into the retired record so
   they survive the heap. *)
let evict k ~principal =
  match k.K.rt_alloc with
  | Some (Alloc_state st) ->
    (match Hashtbl.find_opt st.heaps principal with
     | None -> ()
     | Some h ->
       Array.iter
         (fun (sh : shard) ->
           let n = List.length (rq_drain sh.sh_remote) in
           if n > 0 then begin
             sh.sh_c.drains <- sh.sh_c.drains + 1;
             sh.sh_c.remote_drained <- sh.sh_c.remote_drained + n
           end)
         h.h_shards;
       fold_heap_into st.retired h;
       Hashtbl.remove st.heaps principal;
       st.evicted <- st.evicted + 1)
  | _ -> ()

(* Fork: the child's pages were just COW'd, so its fresh address-space
   principal must start with a deep copy of the parent's heap metadata —
   chunks (including shard ownership: the child's different affinity is
   what makes frees of inherited objects remote), live table, parked
   free slots and ASan info. Parent queues are settled first so the copy
   starts quiescent; child counters start at zero. *)
let fork_heap k ~(parent : Proc.t) ~(child : Proc.t) =
  let st = state k in
  match heap_find st parent with
  | None -> ()
  | Some h ->
    Array.iter (fun sh -> drain_shard k parent h sh) h.h_shards;
    let ch = mk_heap h.h_abi in
    ch.h_chunks <- List.map (fun ck -> { ck with ck_base = ck.ck_base }) h.h_chunks;
    List.iter (fun ck -> index_chunk ch ck) (List.rev ch.h_chunks);
    Hashtbl.iter (Hashtbl.replace ch.h_live) h.h_live;
    Hashtbl.iter (Hashtbl.replace ch.h_asan) h.h_asan;
    Array.iteri
      (fun i (s : shard) ->
        Array.blit s.sh_free 0 ch.h_shards.(i).sh_free 0 nclasses)
      h.h_shards;
    Hashtbl.replace st.heaps (Addr_space.principal child.Proc.asp) ch

let ensure k =
  let st = state k in
  (match k.K.on_asp_destroy with
   | None -> k.K.on_asp_destroy <- Some (fun k pr -> evict k ~principal:pr)
   | Some _ -> ());
  (match k.K.on_fork with
   | None ->
     k.K.on_fork <- Some (fun k parent child -> fork_heap k ~parent ~child)
   | Some _ -> ());
  st

(* --- malloc / free --------------------------------------------------------------- *)

(* Allocate [len] bytes; returns (address, CheriABI capability option). *)
let malloc k (p : Proc.t) len =
  if len < 0 then raise (Alloc_fault Errno.EINVAL);
  let len = max len 1 in
  let st = ensure k in
  let h = heap_of st p in
  let aff = h.h_shards.(affinity p) in
  (* snmalloc discipline: the owner services its message queue on the
     way into every allocation. *)
  drain_shard k p h aff;
  aff.sh_c.mallocs <- aff.sh_c.mallocs + 1;
  let rlen = Compress.crrl len in
  (* Longer than any capability can bound ([Compress.max_length]): no
     representable rounding exists, and crrl says so by coming out short. *)
  if rlen < len then raise (Alloc_fault Errno.ENOMEM);
  let addr, parent, ci, blen =
    match class_of_size rlen with
    | Some ci ->
      let addr, parent =
        match pop_slot p h aff ci with
        | Some r -> r
        | None ->
          if sibling_has_state h aff then adopt k p h aff;
          (match pop_slot p h aff ci with
           | Some r -> r
           | None -> carve k p h aff ci)
      in
      addr, parent, ci, rlen
    | None ->
      let base, cap = map_large k p len in
      base, cap, -1, rlen
  in
  Hashtbl.replace h.h_live addr { ai_size = len; ai_class = ci };
  K.charge k p (90 + (len / 64));
  match h.h_abi with
  | Abi.Mips64 | Abi.Asan -> addr, None
  | Abi.Cheriabi ->
    let parent =
      match parent with
      | Some c -> c
      | None -> Capptr.of_root (Addr_space.root_cap p.Proc.asp)
    in
    (* Address-only rebound from the chunk parent; bounds match the
       request, rounded only as representability forces, and the class
       invariant guarantees [blen] fits the slot. *)
    addr, Some (Capptr.to_cap (Capptr.bound parent ~addr ~len:blen))

let free k (p : Proc.t) addr =
  let st = ensure k in
  let h = heap_of st p in
  match Hashtbl.find_opt h.h_live addr with
  | None -> raise (Alloc_fault Errno.EINVAL)   (* invalid / double free *)
  | Some info ->
    Hashtbl.remove h.h_live addr;
    K.charge k p 60;
    let aff = h.h_shards.(affinity p) in
    aff.sh_c.frees <- aff.sh_c.frees + 1;
    if info.ai_class >= 0 then begin
      let owner =
        match chunk_for h addr with
        | Some ck -> ck.ck_shard
        | None -> aff.sh_id
      in
      if owner = aff.sh_id then
        (* Local free: park dirty; the sweep happens at reuse. *)
        aff.sh_free.(info.ai_class) <-
          (addr, false) :: aff.sh_free.(info.ai_class)
      else begin
        (* Cross-shard free: message-pass the slot to its owner. *)
        let o = h.h_shards.(owner) in
        rq_push o.sh_remote (enc_slot addr info.ai_class);
        o.sh_c.remote_enq <- o.sh_c.remote_enq + 1
      end
    end
    else begin
      (* Large allocation: its dedicated region dies right now, so this
         *is* the ownership-change point — sweep, then unmap. map_large
         mapped a page-aligned span, so unmap the same page-aligned
         length; a failed unmap is a real leak and is counted, not
         swallowed. *)
      let rlen = Compress.crrl info.ai_size in
      h.h_c.tags_cleared <- h.h_c.tags_cleared + sweep_object p addr rlen;
      let plen = Addr_space.page_align_up rlen in
      (try Addr_space.unmap p.Proc.asp ~start:addr ~len:plen
       with Addr_space.Map_error _ ->
         h.h_c.unmap_leaks <- h.h_c.unmap_leaks + 1)
    end;
    info

(* Look up a live allocation; [None] for addresses malloc never returned. *)
let lookup k (p : Proc.t) addr =
  match heap_find (state k) p with
  | None -> None
  | Some h -> Hashtbl.find_opt h.h_live addr

(* --- ASan bookkeeping ------------------------------------------------------------ *)

let asan_register k (p : Proc.t) payload span =
  Hashtbl.replace (heap_of (state k) p).h_asan payload span

let asan_find k (p : Proc.t) payload =
  match heap_find (state k) p with
  | None -> None
  | Some h -> Hashtbl.find_opt h.h_asan payload

let asan_remove k (p : Proc.t) payload =
  match heap_find (state k) p with
  | None -> ()
  | Some h -> Hashtbl.remove h.h_asan payload

(* --- Statistics ------------------------------------------------------------------ *)

(* Three views, each [render]'s list plus the view's own gauges. [p]'s
   heap: its counters, live allocations and parked remote slots. *)
let stats k (p : Proc.t) =
  let c = zero () in
  let live, pending =
    match heap_find (state k) p with
    | None -> 0, 0
    | Some h -> fold_heap_into c h; Hashtbl.length h.h_live, heap_pending h
  in
  render c @ [ "live", live; "pending_remote", pending ]

(* [p]'s heap, one list per shard, indexed by shard id. *)
let shard_stats k (p : Proc.t) =
  match heap_find (state k) p with
  | None -> [||]
  | Some h ->
    Array.map
      (fun (s : shard) ->
        render s.sh_c @ [ "pending", rq_pending s.sh_remote ])
      h.h_shards

(* Number of heaps currently tracked by this machine (the arena-leak
   regression asserts this returns to baseline after an exec/exit loop). *)
let heap_count k = Hashtbl.length (state k).heaps

(* Machine-lifetime counters (retired record plus live heaps), printed
   into fleet snapshots, so the 1-vs-N-domain equality gate covers
   allocator behaviour bit-for-bit. *)
let machine_counters k =
  let st = state k in
  let c = zero () in
  add c st.retired;
  Hashtbl.iter (fun _ h -> fold_heap_into c h) st.heaps;
  let pending = Hashtbl.fold (fun _ h acc -> acc + heap_pending h) st.heaps 0 in
  render c
  @ [ "pending_remote", pending; "heaps", Hashtbl.length st.heaps;
      "evicted", st.evicted ]
