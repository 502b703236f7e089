(* Per-address-space page tables with demand paging, copy-on-write and
   swap integration.

   [translate] is the hot path installed into the CPU; it raises
   [Trap.Page_fault] for anything it cannot satisfy directly, and the
   kernel then calls [handle_fault] to demand-page / swap-in / break COW,
   retrying the instruction on success.

   Representation: ranges plus touched pages. The mapped set is a short
   sorted list of disjoint page ranges, each carrying the protection its
   untouched pages get. A per-page [entry] exists only once a page is
   touched (faulted in, swapped, or wired by [enter_frame]), and every entry
   lies inside a range. An untouched page is implicitly zero-fill:
   [translate] misses on it like on any absent page, and [handle_fault]
   demand-zeroes it with its range's protection. Mapping, fork and teardown
   therefore cost O(touched pages + ranges), not O(mapped pages): the
   256 MiB ASan shadow is one range.

   Walk order: every walk over touched pages that changes simulated state
   (frames freed or allocated, swap slots discarded, [iter_present]
   callbacks) goes in ascending vpn order, so the simulated physical
   layout never depends on the hash table's internal layout. *)

module Tagmem = Cheri_tagmem.Tagmem
module Phys = Cheri_tagmem.Phys
module Trap = Cheri_isa.Trap

type state =
  | Present of int         (* resident, frame number *)
  | Swapped of int         (* swap slot id *)

type entry = {
  mutable state : state;
  mutable prot : Prot.t;
  mutable cow : bool;      (* write must copy first *)
  mutable accessed : bool; (* for the clock eviction algorithm *)
}

(* Mapped pages [first, last] (vpns, inclusive); [prot] applies to the
   pages of the range that have no entry yet. *)
type range = { first : int; last : int; rprot : Prot.t }

type t = {
  table : (int, entry) Hashtbl.t;   (* touched vpn -> entry *)
  mutable ranges : range list;      (* mapped vpns: sorted, disjoint *)
  mutable mapped : int;             (* pages covered by [ranges] *)
  phys : Phys.t;
  swap : Swap.t;
  mutable root : Cheri_cap.Cap.t;   (* rederivation root for swap-in *)
  mutable faults : int;
  mutable cow_copies : int;
  (* Bumped whenever mappings are removed or re-protected; the block-cache
     engine compares it to decide when decoded blocks may be stale. *)
  mutable generation : int;
  (* Bounded log of the address ranges behind recent generation bumps,
     newest first, each stamped with the generation it produced. Lets
     consumers holding artifacts stamped with an older generation decide
     whether the intervening mutations actually touched the ranges they
     depend on (check-elision facts survive a heap-page munmap this way).
     Bounded: when the window no longer covers a consumer's generation
     gap, [mutations_since] answers None and the consumer must assume the
     worst. *)
  mutable mut_log : (int * int * int) list;   (* (generation, vaddr, len) *)
}

let mut_log_max = 32

let page_size = Phys.page_size
let vpn_of v = v lsr Phys.page_shift

let create ~phys ~swap ~root =
  { table = Hashtbl.create 256; ranges = []; mapped = 0; phys; swap; root;
    faults = 0; cow_copies = 0; generation = 0; mut_log = [] }

(* Record one range mutation: bump the generation and remember the range
   (bounded window). *)
let log_mutation t ~vaddr ~len =
  t.generation <- t.generation + 1;
  let log = (t.generation, vaddr, len) :: t.mut_log in
  t.mut_log <-
    (if List.length log > mut_log_max then List.filteri (fun i _ -> i < mut_log_max) log
     else log)

(* The ranges mutated since generation [gen], if the log window still
   covers every bump in between; None means "unknown, assume anything
   changed". *)
let mutations_since t ~gen =
  let expected = t.generation - gen in
  if expected <= 0 then Some []
  else begin
    let got = List.filter (fun (g, _, _) -> g > gen) t.mut_log in
    if List.length got = expected then
      Some (List.map (fun (_, v, l) -> (v, l)) got)
    else None
  end

(* Mapped pages, touched or not (fork charges per page from this). *)
let entry_count t = t.mapped
(* Pages with a materialized entry. *)
let touched_count t = Hashtbl.length t.table
let fault_count t = t.faults
let generation t = t.generation

(* The physical tagged memory this pmap's frames live in. *)
let mem t = Phys.mem t.phys

(* --- Ranges ------------------------------------------------------------------ *)

let pages rs = List.fold_left (fun n r -> n + r.last - r.first + 1) 0 rs

(* Split [rs] around [first, last]: the parts outside it and the parts
   inside it, each sorted. *)
let split rs ~first ~last =
  let outside = ref [] and inside = ref [] in
  List.iter
    (fun r ->
      if r.last < first || r.first > last then outside := r :: !outside
      else begin
        if r.first < first then outside := { r with last = first - 1 } :: !outside;
        inside := { r with first = max r.first first; last = min r.last last }
                  :: !inside;
        if r.last > last then outside := { r with first = last + 1 } :: !outside
      end)
    rs;
  List.rev !outside, List.rev !inside

(* Insert [r] into sorted ranges it does not overlap, merging it with
   adjacent ranges of the same protection. *)
let rec insert r = function
  | hd :: tl when hd.last < r.first ->
    if hd.last = r.first - 1 && Prot.equal hd.rprot r.rprot then
      insert { r with first = hd.first } tl
    else hd :: insert r tl
  | hd :: tl when hd.first = r.last + 1 && Prot.equal hd.rprot r.rprot ->
    { r with last = hd.last } :: tl
  | rs -> r :: rs

(* Protection of an untouched page, or None if [vpn] is not mapped. *)
let range_prot t vpn =
  let rec go = function
    | [] -> None
    | r :: tl ->
      if vpn < r.first then None
      else if vpn <= r.last then Some r.rprot
      else go tl
  in
  go t.ranges

(* --- Touched pages ----------------------------------------------------------- *)

let by_vpn (a, _) (b, _) = Int.compare a b

(* All touched pages, ascending by vpn. *)
let touched t =
  List.sort by_vpn (Hashtbl.fold (fun vpn e acc -> (vpn, e) :: acc) t.table [])

(* Touched pages in [first, last], ascending by vpn: probes each vpn of a
   short span, filters the table for a long one. *)
let touched_in t ~first ~last =
  if last - first < Hashtbl.length t.table then begin
    let acc = ref [] in
    for vpn = last downto first do
      match Hashtbl.find_opt t.table vpn with
      | Some e -> acc := (vpn, e) :: !acc
      | None -> ()
    done;
    !acc
  end else
    List.sort by_vpn
      (Hashtbl.fold
         (fun vpn e acc ->
           if vpn >= first && vpn <= last then (vpn, e) :: acc else acc)
         t.table [])

(* Give back a touched page's frame or swap slot. *)
let release t e =
  match e.state with
  | Present f -> Phys.decref t.phys f
  | Swapped id -> Swap.discard t.swap id

let drop_touched t ~first ~last =
  List.iter
    (fun (vpn, e) -> release t e; Hashtbl.remove t.table vpn)
    (touched_in t ~first ~last)

(* --- Mapping ----------------------------------------------------------------- *)

(* Map a range of lazy (zero-fill) pages; pages already there are replaced. *)
let enter_range t ~vaddr ~len ~prot =
  let first = vpn_of vaddr and last = vpn_of (vaddr + len - 1) in
  if first <= last then begin
    drop_touched t ~first ~last;
    let outside, inside = split t.ranges ~first ~last in
    t.mapped <- t.mapped - pages inside + (last - first + 1);
    t.ranges <- insert { first; last; rprot = prot } outside
  end

(* Map an existing frame (shared memory, kernel-prepared pages). *)
let enter_frame t ~vaddr ~frame ~prot ~cow =
  let vpn = vpn_of vaddr in
  (match Hashtbl.find_opt t.table vpn with
   | Some e -> release t e
   | None -> ());
  if range_prot t vpn = None then begin
    t.ranges <- insert { first = vpn; last = vpn; rprot = prot } t.ranges;
    t.mapped <- t.mapped + 1
  end;
  Hashtbl.replace t.table vpn
    { state = Present frame; prot; cow; accessed = false }

let protect_range t ~vaddr ~len ~prot =
  log_mutation t ~vaddr ~len;
  let first = vpn_of vaddr and last = vpn_of (vaddr + len - 1) in
  if first <= last then begin
    List.iter (fun (_, e) -> e.prot <- prot) (touched_in t ~first ~last);
    let outside, inside = split t.ranges ~first ~last in
    t.ranges <-
      List.fold_left (fun rs r -> insert { r with rprot = prot } rs) outside inside
  end

let remove_range t ~vaddr ~len =
  log_mutation t ~vaddr ~len;
  let first = vpn_of vaddr and last = vpn_of (vaddr + len - 1) in
  if first <= last then begin
    drop_touched t ~first ~last;
    let outside, inside = split t.ranges ~first ~last in
    t.mapped <- t.mapped - pages inside;
    t.ranges <- outside
  end

(* Under memory pressure, evict resident pages of this space to swap and
   retry — the demand-paging path that makes the tag-scan/rederivation
   machinery load-bearing. *)
let rec alloc_frame_pressured t =
  try Phys.alloc_frame t.phys
  with Phys.Out_of_memory ->
    let evicted = evict_to_swap t ~n:64 in
    if evicted = 0 then raise Phys.Out_of_memory
    else alloc_frame_pressured t

and evict_to_swap t ~n =
  let candidates = ref [] in
  Hashtbl.iter
    (fun vpn e ->
      match e.state with
      | Present f when Phys.refcount t.phys f = 1 && not e.cow ->
        candidates := (e.accessed, vpn, e, f) :: !candidates
      | _ -> ())
    t.table;
  let sorted =
    List.sort
      (fun (a1, v1, _, _) (a2, v2, _, _) -> compare (a1, v1) (a2, v2))
      !candidates
  in
  let evicted = ref 0 in
  List.iter
    (fun (_, _, e, f) ->
      if !evicted < n then begin
        let id = Swap.swap_out t.swap (Phys.mem t.phys) ~pa:(Phys.frame_addr f) in
        Phys.decref t.phys f;
        e.state <- Swapped id;
        e.accessed <- false;
        incr evicted
      end)
    sorted;
  !evicted

let page_fault vaddr ~write ~exec =
  Trap.raise_trap (Trap.Page_fault { vaddr; write; exec })

(* Physical address of [vaddr] if its page is resident, without faulting,
   touching protection, or perturbing any statistic. Used by the allocator
   to sweep tags off freed objects (no tags can live on non-resident
   pages: zero-fill and swap-in both rewrite them). *)
let resident_pa t vaddr =
  match Hashtbl.find_opt t.table (vpn_of vaddr) with
  | Some { state = Present f; _ } ->
    Some (Phys.frame_addr f + (vaddr land (page_size - 1)))
  | _ -> None

(* Like [resident_pa], but safe for callers that intend to *mutate* tags
   (the allocator's freed-object sweeps): a resident COW page whose frame
   is still shared with another address space is privatized (tag-preserving
   copy) first, so the sweep cannot reach through the shared frame and
   strip capabilities out of the peer process. Untouched and swapped pages
   still answer None — no tags can live there. *)
let private_pa t vaddr =
  match Hashtbl.find_opt t.table (vpn_of vaddr) with
  | Some ({ state = Present f; _ } as e) ->
    if e.cow && Phys.refcount t.phys f > 1 then begin
      let nf = alloc_frame_pressured t in
      Tagmem.move (Phys.mem t.phys) ~src:(Phys.frame_addr f)
        ~dst:(Phys.frame_addr nf) ~len:page_size;
      Phys.decref t.phys f;
      e.state <- Present nf;
      e.cow <- false;
      t.cow_copies <- t.cow_copies + 1;
      Some (Phys.frame_addr nf + (vaddr land (page_size - 1)))
    end else begin
      e.cow <- false;   (* sole owner: drop the COW bit like handle_fault *)
      Some (Phys.frame_addr f + (vaddr land (page_size - 1)))
    end
  | _ -> None

(* Hot path: virtual -> physical, raising on anything needing the kernel.
   Uses [Hashtbl.find] rather than [find_opt] to keep the hit path
   allocation-free. An untouched page has no entry, so it faults too. *)
let translate t vaddr ~write ~exec =
  match Hashtbl.find t.table (vpn_of vaddr) with
  | exception Not_found -> page_fault vaddr ~write ~exec
  | e ->
    (match e.state with
     | Present f ->
       if (write && not e.prot.Prot.write)
          || ((not write) && not e.prot.Prot.read)
          || (exec && not e.prot.Prot.exec)
       then page_fault vaddr ~write ~exec
       else if write && e.cow then page_fault vaddr ~write ~exec
       else begin
         e.accessed <- true;
         Phys.frame_addr f + (vaddr land (page_size - 1))
       end
     | Swapped _ -> page_fault vaddr ~write ~exec)

type fault_result =
  | Handled           (* retry the instruction *)
  | Bad_access        (* protection violation: deliver SIGSEGV *)
  | Not_mapped        (* no mapping at all: deliver SIGSEGV *)

let violates (prot : Prot.t) ~write ~exec =
  (write && not prot.Prot.write) || ((not write) && not prot.Prot.read)
  || (exec && not prot.Prot.exec)

(* Service a fault raised by [translate]. *)
let handle_fault t ~vaddr ~write ~exec ?(on_rederive = fun _ -> ()) () =
  t.faults <- t.faults + 1;
  let vpn = vpn_of vaddr in
  match Hashtbl.find_opt t.table vpn with
  | None ->
    (match range_prot t vpn with
     | None -> Not_mapped
     | Some prot when violates prot ~write ~exec -> Bad_access
     | Some prot ->
       (* First touch: demand-zero. *)
       let f = alloc_frame_pressured t in
       Hashtbl.replace t.table vpn
         { state = Present f; prot; cow = false; accessed = false };
       Handled)
  | Some e ->
    if violates e.prot ~write ~exec then Bad_access
    else begin
      match e.state with
      | Swapped id ->
        let f = alloc_frame_pressured t in
        Swap.swap_in t.swap (Phys.mem t.phys) ~id ~pa:(Phys.frame_addr f)
          ~root:t.root ~on_rederive ();
        e.state <- Present f;
        Handled
      | Present f when write && e.cow ->
        if Phys.refcount t.phys f = 1 then begin
          (* Sole owner: just drop the COW bit. *)
          e.cow <- false;
          Handled
        end else begin
          let nf = alloc_frame_pressured t in
          (* The copy preserves tags: abstract capabilities survive COW. *)
          Tagmem.move (Phys.mem t.phys) ~src:(Phys.frame_addr f)
            ~dst:(Phys.frame_addr nf) ~len:page_size;
          Phys.decref t.phys f;
          e.state <- Present nf;
          e.cow <- false;
          t.cow_copies <- t.cow_copies + 1;
          Handled
        end
      | Present _ -> Handled (* racy retry; harmless in a simulator *)
    end

(* Iterate [f vaddr_of_page frame] over resident pages, ascending. *)
let iter_present t f =
  List.iter
    (fun (vpn, e) ->
      match e.state with
      | Present frame -> f (vpn * page_size) frame
      | Swapped _ -> ())
    (touched t)

(* Evict up to [n] resident pages to swap (clock-ish: prefer unaccessed).
   Returns the number evicted. *)
let evict_pages t ~n = evict_to_swap t ~n

(* Clone this pmap into the fresh pmap [child] for fork: the child gets
   the same ranges; resident private pages become COW in both parent and
   child; swapped pages are swapped in first (simplification). *)
let fork_into t child ~on_rederive =
  child.ranges <- t.ranges;
  child.mapped <- t.mapped;
  List.iter
    (fun (vpn, e) ->
      let f =
        match e.state with
        | Present f -> f
        | Swapped id ->
          let f = Phys.alloc_frame t.phys in
          Swap.swap_in t.swap (Phys.mem t.phys) ~id ~pa:(Phys.frame_addr f)
            ~root:t.root ~on_rederive ();
          e.state <- Present f;
          f
      in
      Phys.incref t.phys f;
      e.cow <- e.cow || e.prot.Prot.write;
      Hashtbl.replace child.table vpn
        { state = Present f; prot = e.prot; cow = e.prot.Prot.write;
          accessed = false })
    (touched t)

(* Tear down all mappings (process exit / exec). Logged as a whole-address-
   space mutation: everything any consumer depends on is gone. *)
let destroy t =
  log_mutation t ~vaddr:0 ~len:max_int;
  List.iter (fun (_, e) -> release t e) (touched t);
  Hashtbl.reset t.table;
  t.ranges <- [];
  t.mapped <- 0

(* Direct kernel access to a user page's physical address, faulting it in
   if needed. Returns None on protection violation / unmapped. *)
let kernel_touch t vaddr ~write =
  let rec go tries =
    if tries = 0 then None
    else
      match translate t vaddr ~write ~exec:false with
      | pa -> Some pa
      | exception Trap.Trap (Trap.Page_fault _) ->
        (match handle_fault t ~vaddr ~write ~exec:false () with
         | Handled -> go (tries - 1)
         | Bad_access | Not_mapped -> None)
      | exception Trap.Trap _ -> None
  in
  go 3
