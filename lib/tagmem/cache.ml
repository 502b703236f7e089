(* Set-associative cache model with LRU replacement.

   Used purely for cycle accounting: the benchmark platform in the paper is
   an FPGA CHERI-MIPS with 32 KiB L1 caches and a shared 256 KiB L2, and
   Figure 4 reports L2-miss overheads. We model a two-level hierarchy
   (separate I/D L1s over a shared L2) with fixed hit/miss latencies.

   Geometry is required to be power-of-two (sets and line size), so set and
   tag extraction are a mask and a shift, never a division. Tag/LRU state
   is kept in flat arrays indexed [set * ways + way]; the way scan is
   unrolled for the common 4-way (and smaller) configurations. Replacement
   decisions and hit/miss statistics are bit-identical to the reference
   per-set implementation — bench/micro.ml replays a recorded trace against
   both to assert it. *)

type t = {
  name : string;
  sets : int;
  ways : int;
  set_mask : int;     (* sets - 1 *)
  set_shift : int;    (* log2 sets: line tag = line lsr set_shift *)
  line_shift : int;
  (* tags.(set * ways + way) = line tag, or -1 if invalid. *)
  tags : int array;
  (* lru.(set * ways + way): higher = more recently used. *)
  lru : int array;
  (* One tick per probe and per batched hit. Every tick is one hit or one
     miss, so there is no hit counter: [hits t = clock - misses]. *)
  mutable clock : int;
  mutable misses : int;
}

let line_size = 64
let line_shift = 6

let log2_exact n =
  let rec go i = if 1 lsl i = n then i else go (i + 1) in
  go 0

let create ~name ~size ~ways =
  let lines = size / line_size in
  let sets = lines / ways in
  if sets <= 0 || sets land (sets - 1) <> 0 then
    invalid_arg "Cache.create: set count must be a positive power of two";
  { name; sets; ways; set_mask = sets - 1; set_shift = log2_exact sets;
    line_shift;
    tags = Array.make (sets * ways) (-1);
    lru = Array.make (sets * ways) 0;
    clock = 0; misses = 0 }

let hits t = t.clock - t.misses
let misses t = t.misses
let name t = t.name

(* The probe is split for inlining: the hit path of [data_access]/[ifetch]
   -> [access] -> [access_line] (an L1 hit) is [@inline] and compiles into
   the execution engines' closures; fills, the generic way scan,
   multi-line accesses and the L2/DRAM arms are [@inline never]. *)

(* Miss: evict the LRU way of the row starting at [base]. *)
let[@inline never] fill_line t base tag =
  t.misses <- t.misses + 1;
  let victim = ref base in
  for i = base + 1 to base + t.ways - 1 do
    if Array.unsafe_get t.lru i < Array.unsafe_get t.lru !victim then victim := i
  done;
  Array.unsafe_set t.tags !victim tag;
  Array.unsafe_set t.lru !victim t.clock;
  false

let[@inline] hit_way t w =
  Array.unsafe_set t.lru w t.clock;
  true

(* Way of the row starting at [base] that holds [tag], searching from way
   index [i]; -1 if none. Top level rather than a local closure: without
   flambda a local [let rec] allocates its closure on every call, and this
   search runs on every L2 probe and every batched line group. *)
let rec find_way t base tag i =
  if i >= base + t.ways then -1
  else if Array.unsafe_get t.tags i = tag then i
  else find_way t base tag (i + 1)

(* Probe of a row whose geometry is not 4-way (the L2). *)
let[@inline never] access_row t base tag =
  let w = find_way t base tag base in
  if w < 0 then fill_line t base tag else hit_way t w

(* Probe a single line. Returns true on hit; on miss the line is filled. *)
let[@inline] access_line t line =
  let set = line land t.set_mask in
  let tag = line lsr t.set_shift in
  let base = set * t.ways in
  t.clock <- t.clock + 1;
  if t.ways = 4 then begin
    (* Unrolled scan for the 4-way L1s, the hot geometry. *)
    if Array.unsafe_get t.tags base = tag then hit_way t base
    else if Array.unsafe_get t.tags (base + 1) = tag then hit_way t (base + 1)
    else if Array.unsafe_get t.tags (base + 2) = tag then hit_way t (base + 2)
    else if Array.unsafe_get t.tags (base + 3) = tag then hit_way t (base + 3)
    else fill_line t base tag
  end
  else access_row t base tag

let[@inline never] access_lines t first last =
  let ok = ref true in
  for line = first to last do
    if not (access_line t line) then ok := false
  done;
  !ok

(* Probe an access of [len] bytes at [addr]; true iff all lines hit. *)
let[@inline] access t addr len =
  let first = addr lsr t.line_shift in
  let last = (addr + (if len > 0 then len - 1 else 0)) lsr t.line_shift in
  (* Fast path: a natural-aligned access of <= 64 bytes touches one line. *)
  if first = last then access_line t first else access_lines t first last

(* --- Fixed-geometry L1 probe ----------------------------------------------

   Both L1s are [l1_size] bytes and [l1_ways]-way ([create_hierarchy]), so
   a line's set and tag are a constant mask and shift: no multiply and no
   way-count test. The chain engine's memory closures split a DL1 probe
   in two: [l1_slot] finds the slot (set * ways + way) that holds a line
   and changes nothing, and [hit_slot] then makes exactly the change that
   [access_line]'s hit would have made there. On -1 (a miss) the caller
   probes through [access_line] instead, which fills. Valid only on a
   cache of the L1 geometry. *)

let l1_size = 32 * 1024
let l1_ways = 4
let l1_set_shift = 7
let l1_set_mask = (1 lsl l1_set_shift) - 1
(* [l1_slot]'s way scan is unrolled for four ways. *)
let () =
  assert (l1_ways = 4 && l1_size = (1 lsl l1_set_shift) * l1_ways * line_size)

let[@inline] l1_slot t line =
  let base = (line land l1_set_mask) * l1_ways
  and tag = line lsr l1_set_shift in
  let tags = t.tags in
  if Array.unsafe_get tags base = tag then base
  else if Array.unsafe_get tags (base + 1) = tag then base + 1
  else if Array.unsafe_get tags (base + 2) = tag then base + 2
  else if Array.unsafe_get tags (base + 3) = tag then base + 3
  else -1

(* The hit of a probe whose line [l1_slot] found in [slot]: one clock
   tick, stamped on the slot. *)
let[@inline] hit_slot t slot =
  let c = t.clock + 1 in
  t.clock <- c;
  Array.unsafe_set t.lru slot c

(* --- Two-level hierarchy --------------------------------------------------- *)

type hierarchy = {
  il1 : t;
  dl1 : t;
  l2 : t;
  l1_hit_cycles : int;
  l2_hit_cycles : int;
  dram_cycles : int;
}

(* Geometry from the paper's FPGA platform: 32 KiB L1s, shared 256 KiB L2,
   all set-associative. The L2 size is a parameter so the cache-study
   ablation (paper 6, "Cache studies") can sweep it. *)
let create_hierarchy ?(l2_size = 256 * 1024) () =
  { il1 = create ~name:"IL1" ~size:l1_size ~ways:l1_ways;
    dl1 = create ~name:"DL1" ~size:l1_size ~ways:l1_ways;
    l2 = create ~name:"L2" ~size:l2_size ~ways:8;
    l1_hit_cycles = 1;
    l2_hit_cycles = 9;
    dram_cycles = 36 }

(* Cycle cost of an access that missed its L1: the L2 and DRAM arms. *)
let[@inline never] l2_access h addr len =
  if access h.l2 addr len then h.l2_hit_cycles else h.dram_cycles

(* Cycle cost of a data access. *)
let[@inline] data_access h addr len =
  if access h.dl1 addr len then h.l1_hit_cycles else l2_access h addr len

(* [data_access] of a naturally aligned access of at most [line_size]
   bytes, which touches exactly one line: no span test. *)
let[@inline] data_access_aligned h addr len =
  if access_line h.dl1 (addr lsr line_shift) then h.l1_hit_cycles
  else l2_access h addr len

(* Cycle cost of an instruction fetch. *)
let[@inline] ifetch h addr =
  if access h.il1 addr 4 then h.l1_hit_cycles else l2_access h addr 4

(* --- Batched instruction-fetch hits -------------------------------------------

   The chain engine charges instruction fetches it knows to be IL1 hits
   in batches (lib/isa/bbcache.ml, docs/INTERP.md). A hit bumps the clock
   (and with it the hit count) and stamps its slot's LRU entry with the
   new clock; it never fills or evicts. So [k] hits on lines that stay
   resident are the same arithmetic done at once: the clock grows by [k],
   and each line's slot keeps the clock of its last hit. A slot is an
   index [set * ways + way] into [tags] and [lru]. Batching is exact only
   for resident lines, so an absent line is an invariant failure, never a
   silent re-probe. *)

let[@inline never] not_resident t line =
  failwith (Printf.sprintf "Cache %s: line 0x%x is not resident" t.name line)

(* The slot holding [line], which the caller has just probed. *)
let resident_slot t line =
  let base = (line land t.set_mask) * t.ways in
  let w = find_way t base (line lsr t.set_shift) base in
  if w < 0 then not_resident t line else w

(* Does [slot] (one of [line]'s set, by the caller's bookkeeping) hold
   [line]? *)
let[@inline] slot_holds t slot line =
  Array.unsafe_get t.tags slot = line lsr t.set_shift

(* [k] hits on the resident line in [slot], following its probe. *)
let[@inline] repeat_hits t slot k =
  t.clock <- t.clock + k;
  Array.unsafe_set t.lru slot t.clock

(* [n] hits on resident lines whose slots the caller stamps itself, with
   [stamp]; returns the clock before the first of them. *)
let[@inline] add_hits t n =
  let c = t.clock in
  t.clock <- c + n;
  c

let[@inline] stamp t slot clock = Array.unsafe_set t.lru slot clock

let l2_misses h = misses h.l2
