(* Microbenchmark + parity harness for the memory hot path.

     dune exec bench/micro.exe            -- parity check + ops/sec report
     dune exec bench/micro.exe -- --smoke -- parity check only (runs in CI
                                             via the runtest alias)

   Two halves:

   1. Parity: a deterministic recorded access trace (seeded LCG; mixed
      widths, capability stores, moves, fills, byte-range reads and blits,
      including accesses that straddle or span 4 KiB frame boundaries)
      is replayed against both the
      optimized [Cheri_tagmem] implementation and a reference
      implementation that reproduces the seed's byte-at-a-time /
      side-Hashtbl / mod-indexed algorithms verbatim. Every observable
      statistic must be bit-identical: read-value checksums, tag
      placement, final memory image, and cache hit/miss counters. This is
      the guarantee that the fast paths changed *throughput only*.

   2. Throughput: ops/sec of the optimized vs reference implementations on
      the hot operations (8-byte read/write, tag sweeps, cache probes), in
      interleaved pairs. The target is a median speedup >= 3x on the
      tagmem read/write benchmark. *)

module Cap = Cheri_cap.Cap
module Tagmem = Cheri_tagmem.Tagmem
module Cache = Cheri_tagmem.Cache

(* --- Reference tagmem: the seed implementation, kept verbatim -------------- *)
(* (plus [read_bytes], [blit_bytes] and [is_zero], written the same obvious
   way over one contiguous store). *)

module Ref_tagmem = struct
  type t = {
    bytes : Bytes.t;
    tags : Bytes.t;                       (* one byte per granule: 0/1 *)
    caps : (int, Cap.t) Hashtbl.t;        (* granule index -> capability *)
    size : int;
  }

  let granule = Cap.sizeof

  let create ~size =
    { bytes = Bytes.make size '\000';
      tags = Bytes.make (size / granule) '\000';
      caps = Hashtbl.create 4096;
      size }

  let granule_of addr = addr / granule

  let clear_tag t addr =
    let g = granule_of addr in
    if Bytes.get t.tags g <> '\000' then begin
      Bytes.set t.tags g '\000';
      Hashtbl.remove t.caps g
    end

  let clear_tags_covering t addr len =
    if len > 0 then begin
      let g0 = granule_of addr and g1 = granule_of (addr + len - 1) in
      for g = g0 to g1 do
        if Bytes.get t.tags g <> '\000' then begin
          Bytes.set t.tags g '\000';
          Hashtbl.remove t.caps g
        end
      done
    end

  let scan_tags t addr len =
    let out = ref [] in
    let g0 = granule_of addr and g1 = granule_of (addr + len - 1) in
    for g = g1 downto g0 do
      if Bytes.get t.tags g <> '\000' then out := (g * granule - addr) :: !out
    done;
    !out

  let read_u8 t addr = Char.code (Bytes.get t.bytes addr)

  let write_u8 t addr v =
    clear_tag t addr;
    Bytes.set t.bytes addr (Char.chr (v land 0xff))

  let read_int t addr ~len =
    let v = ref 0 in
    for i = len - 1 downto 0 do
      v := (!v lsl 8) lor Char.code (Bytes.get t.bytes (addr + i))
    done;
    !v

  let write_int t addr ~len v =
    clear_tags_covering t addr len;
    for i = 0 to len - 1 do
      Bytes.set t.bytes (addr + i) (Char.chr ((v lsr (8 * i)) land 0xff))
    done

  let read_cap t addr =
    let g = granule_of addr in
    if Bytes.get t.tags g <> '\000' then Hashtbl.find t.caps g
    else Cap.untagged ~addr:(read_int t addr ~len:8)

  let write_cap t addr cap =
    let g = granule_of addr in
    for i = 0 to granule - 1 do Bytes.set t.bytes (addr + i) '\000' done;
    let cursor = Cap.addr cap in
    for i = 0 to 7 do
      Bytes.set t.bytes (addr + i) (Char.chr ((cursor lsr (8 * i)) land 0xff))
    done;
    if Cap.is_tagged cap then begin
      Bytes.set t.tags g '\001';
      Hashtbl.replace t.caps g cap
    end else begin
      Bytes.set t.tags g '\000';
      Hashtbl.remove t.caps g
    end

  let move t ~src ~dst ~len =
    if len = 0 || src = dst then ()
    else begin
      let aligned =
        src land (granule - 1) = 0 && dst land (granule - 1) = 0
        && len land (granule - 1) = 0
      in
      if aligned then begin
        let n = len / granule in
        let caps = Array.make n None in
        for i = 0 to n - 1 do
          let g = granule_of (src + i * granule) in
          if Bytes.get t.tags g <> '\000' then
            caps.(i) <- Some (Hashtbl.find t.caps g)
        done;
        let tmp = Bytes.sub t.bytes src len in
        clear_tags_covering t dst len;
        Bytes.blit tmp 0 t.bytes dst len;
        for i = 0 to n - 1 do
          match caps.(i) with
          | None -> ()
          | Some c ->
            let g = granule_of (dst + i * granule) in
            Bytes.set t.tags g '\001';
            Hashtbl.replace t.caps g c
        done
      end else begin
        let tmp = Bytes.sub t.bytes src len in
        clear_tags_covering t dst len;
        Bytes.blit tmp 0 t.bytes dst len
      end
    end

  let fill t addr len byte =
    clear_tags_covering t addr len;
    Bytes.fill t.bytes addr len (Char.chr (byte land 0xff))

  let read_bytes t addr len = Bytes.sub t.bytes addr len

  let blit_bytes t ~dst src =
    clear_tags_covering t dst (Bytes.length src);
    Bytes.blit src 0 t.bytes dst (Bytes.length src)

  let is_zero t addr len =
    let z = ref true in
    for i = addr to addr + len - 1 do
      if Bytes.get t.bytes i <> '\000' then z := false
    done;
    !z

  let tag_count t = Hashtbl.length t.caps
end

(* --- Reference cache: the seed's mod/div, per-set-array implementation ----- *)

module Ref_cache = struct
  type t = {
    sets : int;
    ways : int;
    line_shift : int;
    tags : int array array;
    lru : int array array;
    mutable clock : int;
    mutable hits : int;
    mutable misses : int;
  }

  let line_size = 64

  let create ~size ~ways =
    let lines = size / line_size in
    let sets = lines / ways in
    { sets; ways; line_shift = 6;
      tags = Array.init sets (fun _ -> Array.make ways (-1));
      lru = Array.init sets (fun _ -> Array.make ways 0);
      clock = 0; hits = 0; misses = 0 }

  let access_line t line =
    let set = line mod t.sets in
    let tag = line / t.sets in
    let tags = t.tags.(set) and lru = t.lru.(set) in
    t.clock <- t.clock + 1;
    let rec find w =
      if w >= t.ways then -1 else if tags.(w) = tag then w else find (w + 1)
    in
    let w = find 0 in
    if w >= 0 then begin
      lru.(w) <- t.clock;
      t.hits <- t.hits + 1;
      true
    end else begin
      t.misses <- t.misses + 1;
      let victim = ref 0 in
      for i = 1 to t.ways - 1 do
        if lru.(i) < lru.(!victim) then victim := i
      done;
      tags.(!victim) <- tag;
      lru.(!victim) <- t.clock;
      false
    end

  let access t addr len =
    let first = addr lsr t.line_shift in
    let last = (addr + (if len > 0 then len - 1 else 0)) lsr t.line_shift in
    let ok = ref true in
    for line = first to last do
      if not (access_line t line) then ok := false
    done;
    !ok
end

(* --- Recorded trace --------------------------------------------------------- *)

type op =
  | Read of int * int            (* addr, len *)
  | Write of int * int * int     (* addr, len, value *)
  | Read_u8 of int
  | Write_u8 of int * int
  | Write_cap of int * int       (* aligned addr, cap cursor seed *)
  | Read_cap of int
  | Move of int * int * int      (* src, dst, len *)
  | Fill of int * int * int
  | Scan of int * int
  | Read_bytes of int * int
  | Blit of int * int            (* dst, len of a pattern derived from dst *)
  | Is_zero of int * int

(* Deterministic 63-bit LCG; the trace is a pure function of the seed. *)
let lcg state =
  let s = (!state * 25214903917 + 11) land max_int in
  state := s;
  s

let frame = 4096

let record_trace ~mem_size ~n =
  let st = ref 0x9e3779b97f4a7c in
  (* Discard the LCG's low bits (they cycle with a short period). *)
  let rnd bound = (lcg st lsr 16) mod bound in
  let widths = [| 1; 2; 4; 8; 8; 8; 4; 3 |] in
  let nframes = mem_size / frame in
  List.init n (fun _ ->
      let a16 = rnd (mem_size / 16 - 4) * 16 in
      (* An interior frame boundary, for the frame-crossing cases. *)
      let boundary = (1 + rnd (nframes - 1)) * frame in
      match rnd 20 with
      | 0 | 1 | 2 ->
        let len = widths.(rnd (Array.length widths)) in
        Read (rnd (mem_size - 8), len)
      | 3 | 4 | 5 | 6 ->
        let len = widths.(rnd (Array.length widths)) in
        Write (rnd (mem_size - 8), len, lcg st)
      | 7 -> Read_u8 (rnd mem_size)
      | 8 -> Write_u8 (rnd mem_size, rnd 256)
      | 9 | 10 -> Write_cap (a16, a16 + rnd 64)
      | 11 -> Read_cap a16
      | 12 ->
        (* Aligned or unaligned move, sometimes overlapping. *)
        let len = (1 + rnd 16) * 16 in
        let src = rnd (mem_size - 2 * len - 32) in
        let src = if rnd 2 = 0 then src land lnot 15 else src in
        let dst =
          if rnd 3 = 0 then src + ((rnd 3 - 1) * 16)   (* overlap *)
          else rnd (mem_size - len - 32)
        in
        let dst = if rnd 2 = 0 then dst land lnot 15 else dst in
        Move (abs src, abs dst, len)
      | 13 ->
        let flen = (1 + rnd 32) * 16 in
        Fill (rnd ((mem_size - flen) / 16) * 16, flen, rnd 256)
      | 14 | 15 -> Scan (a16 land lnot 4095, 4096)
      | 16 ->
        (* A word access that straddles a frame boundary. *)
        let len = widths.(rnd (Array.length widths)) in
        let a = boundary - 1 - rnd 7 in
        if rnd 2 = 0 then Read (a, len) else Write (a, len, lcg st)
      | 17 ->
        (* A move spanning several frames, sometimes overlapping. *)
        let len = ((1 + rnd 2) * frame) + (rnd 4 * 16) in
        let src = boundary - 16 * (1 + rnd 64) in
        let src = if rnd 4 = 0 then src + 1 + rnd 15 else src in
        let src = min src (mem_size - len) in
        let dst =
          if rnd 2 = 0 then src + ((rnd 5 - 2) * 16)
          else rnd (nframes - 3) * frame + (rnd 256 * 16)
        in
        let dst = max 0 (min dst (mem_size - len)) in
        Move (src, dst, len)
      | 18 ->
        (* Whole frames zeroed (handed back to the zero frame), or a fill
           spanning frames. *)
        if rnd 2 = 0 then
          let k = 1 + rnd 2 in
          Fill (rnd (nframes - k) * frame, k * frame, 0)
        else
          let len = frame + rnd frame in
          Fill (min (boundary - rnd frame) (mem_size - len), len, rnd 256)
      | _ ->
        let len = 1 + rnd (2 * frame) in
        let a = max 0 (min (boundary - rnd frame) (mem_size - len)) in
        (match rnd 3 with
         | 0 -> Read_bytes (a, len)
         | 1 -> Blit (a, len)
         | _ -> Is_zero (a, len)))

let cap_root = Cap.make_root ~base:0 ~top:(1 lsl 40) ()

let cap_for cursor =
  Cap.set_bounds (Cap.set_addr cap_root (cursor land lnot 15)) ~len:64

let blit_pattern dst len =
  Bytes.init len (fun i -> Char.chr ((dst + (i * 13)) land 0xff))

let bytes_hash b = Hashtbl.hash (Digest.bytes b)

(* Replay the trace on the optimized implementation; fold every observable
   value into a checksum. *)
let replay_opt mem trace =
  let acc = ref 0 in
  let mix v = acc := (!acc * 1000003 + v) land max_int in
  List.iter
    (fun op ->
      match op with
      | Read (a, len) -> mix (Tagmem.read_int mem a ~len)
      | Write (a, len, v) -> Tagmem.write_int mem a ~len v
      | Read_u8 a -> mix (Tagmem.read_u8 mem a)
      | Write_u8 (a, v) -> Tagmem.write_u8 mem a v
      | Write_cap (a, cur) -> Tagmem.write_cap mem a (cap_for cur)
      | Read_cap a ->
        let c = Tagmem.read_cap mem a in
        mix (Cap.addr c);
        mix (if Cap.is_tagged c then 1 else 0)
      | Move (src, dst, len) -> Tagmem.move mem ~src ~dst ~len
      | Fill (a, len, b) -> Tagmem.fill mem a len b
      | Scan (a, len) ->
        List.iter mix (Tagmem.scan_tags mem a len)
      | Read_bytes (a, len) -> mix (bytes_hash (Tagmem.read_bytes mem a len))
      | Blit (a, len) -> Tagmem.blit_bytes mem ~dst:a (blit_pattern a len)
      | Is_zero (a, len) -> mix (Bool.to_int (Tagmem.is_zero mem a len)))
    trace;
  !acc

let replay_ref mem trace =
  let acc = ref 0 in
  let mix v = acc := (!acc * 1000003 + v) land max_int in
  List.iter
    (fun op ->
      match op with
      | Read (a, len) -> mix (Ref_tagmem.read_int mem a ~len)
      | Write (a, len, v) -> Ref_tagmem.write_int mem a ~len v
      | Read_u8 a -> mix (Ref_tagmem.read_u8 mem a)
      | Write_u8 (a, v) -> Ref_tagmem.write_u8 mem a v
      | Write_cap (a, cur) -> Ref_tagmem.write_cap mem a (cap_for cur)
      | Read_cap a ->
        let c = Ref_tagmem.read_cap mem a in
        mix (Cap.addr c);
        mix (if Cap.is_tagged c then 1 else 0)
      | Move (src, dst, len) -> Ref_tagmem.move mem ~src ~dst ~len
      | Fill (a, len, b) -> Ref_tagmem.fill mem a len b
      | Scan (a, len) ->
        List.iter mix (Ref_tagmem.scan_tags mem a len)
      | Read_bytes (a, len) -> mix (bytes_hash (Ref_tagmem.read_bytes mem a len))
      | Blit (a, len) -> Ref_tagmem.blit_bytes mem ~dst:a (blit_pattern a len)
      | Is_zero (a, len) -> mix (Bool.to_int (Ref_tagmem.is_zero mem a len)))
    trace;
  !acc

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("FAIL: " ^ s); exit 1) fmt

(* The chain engine's unchecked frame accessors on the replayed memory:
   at [n] aligned addresses, each [peek] equals [read_int] or
   [read_int_signed], and each store is a [poke] where [can_poke] allows
   it (the granule is untagged, and the poke leaves the resident frame
   count alone: the frame had its own buffer) and a [write_int]
   elsewhere, mirrored on the reference by [write_int]; the caller then
   compares the final images. *)
let check_peek_poke opt refm ~mem_size ~n =
  let st = ref 0x5eed in
  let rnd bound = (lcg st lsr 16) mod bound in
  let peeks =
    [| 1, Tagmem.peek_u8, Tagmem.peek_s8;
       2, Tagmem.peek_u16, Tagmem.peek_s16;
       4, Tagmem.peek_u32, Tagmem.peek_s32;
       8, Tagmem.peek_u64, Tagmem.peek_u64 |]
  and pokes =
    [| Tagmem.poke_u8; Tagmem.poke_u16; Tagmem.poke_u32; Tagmem.poke_u64 |]
  in
  let poked = ref 0 in
  for _ = 1 to n do
    let i = rnd 4 in
    let w, peek_u, peek_s = peeks.(i) in
    let a = rnd (mem_size / w) * w in
    let u = Tagmem.read_int opt a ~len:w in
    if peek_u opt a <> u || u <> Ref_tagmem.read_int refm a ~len:w then
      fail "peek u%d at 0x%x differs from read_int" (8 * w) a;
    if peek_s opt a <> Tagmem.read_int_signed opt a ~len:w then
      fail "peek s%d at 0x%x differs from read_int_signed" (8 * w) a;
    let v = lcg st in
    if Tagmem.can_poke opt a then begin
      let resident = Tagmem.resident_frames opt in
      if Tagmem.get_tag opt a then fail "can_poke on a tagged granule 0x%x" a;
      pokes.(i) opt a v;
      if Tagmem.resident_frames opt <> resident then
        fail "can_poke on an unwritten frame at 0x%x" a;
      incr poked
    end
    else Tagmem.write_int opt a ~len:w v;
    Ref_tagmem.write_int refm a ~len:w v
  done;
  if !poked = 0 || !poked = n then
    fail "peek/poke: %d of %d stores poked, want some of each" !poked n;
  !poked

let check_tagmem_parity ~mem_size ~n =
  let trace = record_trace ~mem_size ~n in
  let opt = Tagmem.create ~size:mem_size in
  let refm = Ref_tagmem.create ~size:mem_size in
  let co = replay_opt opt trace in
  let cr = replay_ref refm trace in
  if co <> cr then fail "tagmem read-value checksums differ (%d vs %d)" co cr;
  let poked = check_peek_poke opt refm ~mem_size ~n:(n / 4) in
  (* Final memory images must match byte for byte... *)
  for i = 0 to mem_size - 1 do
    if Tagmem.read_u8 opt i <> Ref_tagmem.read_u8 refm i then
      fail "memory image differs at 0x%x" i
  done;
  (* ...and tag placement granule for granule. *)
  let opt_tags = Tagmem.scan_tags opt 0 mem_size in
  let ref_tags = Ref_tagmem.scan_tags refm 0 mem_size in
  if opt_tags <> ref_tags then
    fail "tag placement differs (%d vs %d tags)"
      (List.length opt_tags) (List.length ref_tags);
  if List.length opt_tags <> Ref_tagmem.tag_count refm then
    fail "tag scan and the reference's capability table disagree";
  List.iter
    (fun off ->
      let a = Tagmem.read_cap opt off and b = Ref_tagmem.read_cap refm off in
      if not (Cap.equal a b) then fail "stored capability differs at 0x%x" off)
    opt_tags;
  Printf.printf
    "tagmem parity: OK (%d ops, %d final tags, checksum %d; %d pokes)\n"
    n (List.length opt_tags) co poked

let check_cache_parity ~n =
  let traces = record_trace ~mem_size:(1 lsl 20) ~n in
  let accesses =
    List.filter_map
      (function
        | Read (a, len) | Write (a, len, _) -> Some (a, len)
        | Read_u8 a | Write_u8 (a, _) -> Some (a, 1)
        | Write_cap (a, _) | Read_cap a -> Some (a, 16)
        | _ -> None)
      traces
  in
  List.iter
    (fun (size, ways) ->
      let opt = Cache.create ~name:"bench" ~size ~ways in
      let refc = Ref_cache.create ~size ~ways in
      List.iter
        (fun (a, len) ->
          let ho = Cache.access opt a len and hr = Ref_cache.access refc a len in
          if ho <> hr then fail "cache %dB/%dway hit/miss divergence" size ways)
        accesses;
      if Cache.hits opt <> refc.Ref_cache.hits
         || Cache.misses opt <> refc.Ref_cache.misses
      then
        fail "cache %dB/%dway counters differ: %d/%d vs %d/%d" size ways
          (Cache.hits opt) (Cache.misses opt) refc.Ref_cache.hits
          refc.Ref_cache.misses;
      Printf.printf "cache parity %7dB %d-way: OK (%d hits / %d misses)\n" size
        ways (Cache.hits opt) (Cache.misses opt))
    [ 32 * 1024, 4; 256 * 1024, 8; 1024, 2 ];
  (* The chain engine's split DL1 probe: [l1_slot], then [hit_slot] on a
     hit or [access_line] on -1, per line, against the reference and
     against the plain probe's whole state. *)
  let split = Cache.create ~name:"l1" ~size:Cache.l1_size ~ways:Cache.l1_ways in
  let plain = Cache.create ~name:"l1" ~size:Cache.l1_size ~ways:Cache.l1_ways in
  let refc = Ref_cache.create ~size:Cache.l1_size ~ways:Cache.l1_ways in
  let slot_hits = ref 0 in
  List.iter
    (fun (a, len) ->
      let ok = ref true in
      for line = a lsr Cache.line_shift to (a + len - 1) lsr Cache.line_shift do
        let s = Cache.l1_slot split line in
        if s >= 0 then begin
          Cache.hit_slot split s;
          incr slot_hits
        end
        else if not (Cache.access_line split line) then ok := false
      done;
      let hr = Ref_cache.access refc a len in
      if !ok <> hr || Cache.access plain a len <> hr then
        fail "split L1 probe hit/miss divergence at 0x%x+%d" a len)
    accesses;
  if Cache.hits split <> refc.Ref_cache.hits
     || Cache.misses split <> refc.Ref_cache.misses
     || split.Cache.clock <> plain.Cache.clock
     || split.Cache.tags <> plain.Cache.tags
     || split.Cache.lru <> plain.Cache.lru
  then fail "split L1 probe state differs from the plain probe's";
  Printf.printf "cache parity   split L1 probe: OK (%d slot hits)\n" !slot_hits

(* --- Throughput ------------------------------------------------------------- *)

(* The parity halves above are deterministic; wall-clock throughput on a
   shared machine is not, and host speed drifts between passes. So each
   comparison interleaves [reps] timed passes of the reference and the
   optimized implementation, alternating which runs first, and reports
   the median per-pair speedup with its quartiles (nearest rank). *)
let reps = 7

let time_once f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

let median_of a =
  let a = Array.copy a in
  Array.sort compare a;
  a.(Array.length a / 2)

(* Print the comparison of [n]-operation passes and return the median
   speedup. *)
let compare_paired label n ~run_ref ~run_opt =
  let t_ref = Array.make reps 0.0 and t_opt = Array.make reps 0.0 in
  for i = 0 to reps - 1 do
    if i land 1 = 0 then begin
      t_ref.(i) <- time_once run_ref;
      t_opt.(i) <- time_once run_opt
    end else begin
      t_opt.(i) <- time_once run_opt;
      t_ref.(i) <- time_once run_ref
    end
  done;
  let ratios = Array.init reps (fun i -> t_ref.(i) /. t_opt.(i)) in
  Array.sort compare ratios;
  let mops t = float_of_int n /. median_of t /. 1e6 in
  let speedup = ratios.(reps / 2) in
  Printf.printf
    "%-16s ref %10.2fM ops/s   opt %10.2fM ops/s   speedup %.2fx \
     (quartiles %.2f-%.2fx, %d pairs)\n"
    label (mops t_ref) (mops t_opt) speedup ratios.(reps / 4)
    ratios.(3 * reps / 4) reps;
  speedup

let bench_tagmem ~mem_size ~iters =
  let opt = Tagmem.create ~size:mem_size in
  let refm = Ref_tagmem.create ~size:mem_size in
  let mask = mem_size - 16 in
  (* 8-byte read/write mix, the CPU interpreter's dominant operations. *)
  let sink = ref 0 in
  let run_opt () =
    for i = 0 to iters - 1 do
      let a = (i * 8) land mask in
      Tagmem.write_int opt a ~len:8 i;
      sink := !sink lxor Tagmem.read_int opt a ~len:8
    done
  in
  let run_ref () =
    for i = 0 to iters - 1 do
      let a = (i * 8) land mask in
      Ref_tagmem.write_int refm a ~len:8 i;
      sink := !sink lxor Ref_tagmem.read_int refm a ~len:8
    done
  in
  run_opt (); run_ref ();       (* warm up *)
  let speedup = compare_paired "tagmem r/w 8B:" (2 * iters) ~run_ref ~run_opt in
  ignore !sink;
  speedup

let bench_tag_sweep ~mem_size ~iters =
  let opt = Tagmem.create ~size:mem_size in
  let refm = Ref_tagmem.create ~size:mem_size in
  (* A sparse tag population, then page-sized sweeps: the free()/fill path. *)
  let page = 4096 in
  for i = 0 to (mem_size / page) - 1 do
    Tagmem.write_cap opt (i * page) (cap_for (i * page));
    Ref_tagmem.write_cap refm (i * page) (cap_for (i * page))
  done;
  let mask = (mem_size / page) - 1 in
  let run_opt () =
    for i = 0 to iters - 1 do
      Tagmem.clear_tags_covering opt ((i land mask) * page) page
    done
  in
  let run_ref () =
    for i = 0 to iters - 1 do
      Ref_tagmem.clear_tags_covering refm ((i land mask) * page) page
    done
  in
  ignore (compare_paired "tag sweep 4KiB:" iters ~run_ref ~run_opt)

let bench_cache ~iters =
  let opt = Cache.create ~name:"bench" ~size:(32 * 1024) ~ways:4 in
  let refc = Ref_cache.create ~size:(32 * 1024) ~ways:4 in
  let st = ref 42 in
  let addrs = Array.init 4096 (fun _ -> lcg st land ((1 lsl 20) - 1)) in
  let run_opt () =
    for i = 0 to iters - 1 do
      ignore (Cache.access opt addrs.(i land 4095) 8)
    done
  in
  let run_ref () =
    for i = 0 to iters - 1 do
      ignore (Ref_cache.access refc addrs.(i land 4095) 8)
    done
  in
  run_opt (); run_ref ();
  ignore (compare_paired "cache probe:" iters ~run_ref ~run_opt)

let () =
  let smoke = ref false in
  Array.iteri
    (fun i arg ->
      if i > 0 then
        match arg with
        | "--smoke" -> smoke := true
        | _ ->
          Printf.eprintf "micro: unknown argument %S\nusage: micro [--smoke]\n"
            arg;
          exit 2)
    Sys.argv;
  if !smoke then begin
    (* CI tier-1: counter parity on a recorded trace, quickly. *)
    check_tagmem_parity ~mem_size:(1 lsl 18) ~n:20_000;
    check_cache_parity ~n:20_000;
    print_endline "micro --smoke: all parity checks passed"
  end else begin
    check_tagmem_parity ~mem_size:(1 lsl 20) ~n:120_000;
    check_cache_parity ~n:120_000;
    print_newline ();
    let speedup = bench_tagmem ~mem_size:(1 lsl 20) ~iters:4_000_000 in
    bench_tag_sweep ~mem_size:(1 lsl 20) ~iters:400_000;
    bench_cache ~iters:4_000_000;
    if speedup < 3.0 then
      fail "tagmem read/write median speedup %.2fx is below the 3x target"
        speedup;
    print_endline "\nmicro: parity + throughput targets met"
  end
