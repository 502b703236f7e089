(* Tests for tagged physical memory, the frame allocator and the caches. *)

module Cap = Cheri_cap.Cap
module Perms = Cheri_cap.Perms
module Tagmem = Cheri_tagmem.Tagmem
module Phys = Cheri_tagmem.Phys
module Cache = Cheri_tagmem.Cache

let mk () = Tagmem.create ~size:(1 lsl 16)

let some_cap ?(base = 0x100) ?(len = 64) () =
  let r = Cap.make_root ~base:0 ~top:(1 lsl 16) () in
  Cap.set_bounds (Cap.set_addr r base) ~len

let test_data_roundtrip () =
  let m = mk () in
  Tagmem.write_int m 0x100 ~len:8 0x1122334455667788;
  Alcotest.(check int) "u64" 0x1122334455667788 (Tagmem.read_int m 0x100 ~len:8);
  Tagmem.write_int m 0x200 ~len:4 0xdeadbeef;
  Alcotest.(check int) "u32" 0xdeadbeef (Tagmem.read_int m 0x200 ~len:4);
  Tagmem.write_u8 m 0x300 0xab;
  Alcotest.(check int) "u8" 0xab (Tagmem.read_u8 m 0x300)

let test_signed_read () =
  let m = mk () in
  Tagmem.write_int m 0x10 ~len:1 0xff;
  Alcotest.(check int) "s8" (-1) (Tagmem.read_int_signed m 0x10 ~len:1);
  Tagmem.write_int m 0x18 ~len:4 0x80000000;
  Alcotest.(check int) "s32" (-2147483648) (Tagmem.read_int_signed m 0x18 ~len:4);
  Tagmem.write_int m 0x20 ~len:2 0x7fff;
  Alcotest.(check int) "s16 positive" 0x7fff (Tagmem.read_int_signed m 0x20 ~len:2)

let test_cap_roundtrip () =
  let m = mk () in
  let c = some_cap () in
  Tagmem.write_cap m 0x400 c;
  Alcotest.(check bool) "tag set" true (Tagmem.get_tag m 0x400);
  let c' = Tagmem.read_cap m 0x400 in
  Alcotest.(check bool) "identical" true (Cap.equal c c')

let test_data_store_clears_tag () =
  let m = mk () in
  Tagmem.write_cap m 0x400 (some_cap ());
  (* Overwriting any byte of the granule with data clears the tag:
     capability integrity. *)
  Tagmem.write_u8 m 0x407 0x42;
  Alcotest.(check bool) "tag cleared" false (Tagmem.get_tag m 0x400);
  let c = Tagmem.read_cap m 0x400 in
  Alcotest.(check bool) "read back untagged" false (Cap.is_tagged c)

let test_untagged_read_sees_cursor () =
  let m = mk () in
  let c = Cap.inc_addr (some_cap ~base:0x100 ~len:64 ()) 8 in
  Tagmem.write_cap m 0x400 c;
  Tagmem.write_u8 m 0x40f 0;  (* strikes the metadata, clears tag *)
  let c' = Tagmem.read_cap m 0x400 in
  Alcotest.(check int) "cursor still visible as data" 0x108 (Cap.addr c')

let test_cap_alignment () =
  let m = mk () in
  Alcotest.check_raises "unaligned write_cap"
    (Cap.Cap_error Cap.Alignment_violation)
    (fun () -> Tagmem.write_cap m 0x404 (some_cap ()))

let test_move_preserves_tags () =
  let m = mk () in
  Tagmem.write_cap m 0x400 (some_cap ());
  Tagmem.write_int m 0x410 ~len:8 77;
  Tagmem.move m ~src:0x400 ~dst:0x800 ~len:32;
  Alcotest.(check bool) "tag moved" true (Tagmem.get_tag m 0x800);
  Alcotest.(check int) "data moved" 77 (Tagmem.read_int m 0x810 ~len:8);
  Alcotest.(check bool) "cap equal" true
    (Cap.equal (some_cap ()) (Tagmem.read_cap m 0x800))

let test_move_unaligned_strips_tags () =
  let m = mk () in
  Tagmem.write_cap m 0x400 (some_cap ());
  Tagmem.move m ~src:0x400 ~dst:0x808 ~len:24;
  Alcotest.(check bool) "dst tag stripped" false (Tagmem.get_tag m 0x808)

(* Overlapping moves exercise the word-granule fast path: capabilities must
   be collected from the source before the destination is rewritten, or an
   overlapping copy reads its own output. *)
let test_move_overlap_aligned_forward () =
  let m = mk () in
  let c0 = some_cap ~base:0x100 () and c1 = some_cap ~base:0x200 () in
  Tagmem.write_cap m 0x400 c0;
  Tagmem.write_cap m 0x410 c1;
  (* memmove with dst = src + 16: the ranges share [0x410, 0x420). *)
  Tagmem.move m ~src:0x400 ~dst:0x410 ~len:32;
  Alcotest.(check bool) "untouched src granule keeps its tag" true
    (Tagmem.get_tag m 0x400);
  Alcotest.(check bool) "cap 0 at dst" true
    (Cap.equal c0 (Tagmem.read_cap m 0x410));
  Alcotest.(check bool) "cap 1 at dst+16" true
    (Cap.equal c1 (Tagmem.read_cap m 0x420))

let test_move_overlap_aligned_backward () =
  let m = mk () in
  let c0 = some_cap ~base:0x100 () and c1 = some_cap ~base:0x200 () in
  Tagmem.write_cap m 0x410 c0;
  Tagmem.write_cap m 0x420 c1;
  (* memmove with dst = src - 16. *)
  Tagmem.move m ~src:0x410 ~dst:0x400 ~len:32;
  Alcotest.(check bool) "cap 0 at dst" true
    (Cap.equal c0 (Tagmem.read_cap m 0x400));
  Alcotest.(check bool) "cap 1 at dst+16" true
    (Cap.equal c1 (Tagmem.read_cap m 0x410));
  (* The source-only tail granule was never written, so it keeps c1. *)
  Alcotest.(check bool) "source-only granule keeps its tag" true
    (Tagmem.get_tag m 0x420)

let test_move_overlap_unaligned () =
  let m = mk () in
  let c0 = some_cap ~base:0x100 () in
  Tagmem.write_cap m 0x400 c0;
  Tagmem.write_int m 0x410 ~len:8 0xabcdef;
  (* Unaligned overlapping memmove: the bytes must still be copied with
     memmove semantics, and every destination granule loses its tag. *)
  Tagmem.move m ~src:0x400 ~dst:0x408 ~len:24;
  Alcotest.(check bool) "dst tags stripped" false
    (Tagmem.get_tag m 0x400 || Tagmem.get_tag m 0x410);
  Alcotest.(check int) "cursor bytes shifted to dst"
    (Cap.addr c0) (Tagmem.read_int m 0x408 ~len:8);
  Alcotest.(check int) "trailing data shifted to dst"
    0xabcdef (Tagmem.read_int m 0x418 ~len:8)

let test_scan_tags () =
  let m = mk () in
  Tagmem.write_cap m 0x1000 (some_cap ());
  Tagmem.write_cap m 0x1040 (some_cap ());
  let offs = Tagmem.scan_tags m 0x1000 4096 in
  Alcotest.(check (list int)) "offsets" [ 0x0; 0x40 ] offs

let test_fill_clears_tags () =
  let m = mk () in
  Tagmem.write_cap m 0x500 (some_cap ());
  Tagmem.fill m 0x500 16 0;
  Alcotest.(check bool) "cleared" false (Tagmem.get_tag m 0x500)

(* --- Frame boundaries ------------------------------------------------------- *)

(* Memory is kept in 4 KiB frames; these accesses cross from one frame into
   the next (or span several) and must behave as on one contiguous store. *)

let frame = 4096

let test_straddle_int () =
  let b = 3 * frame in
  (* Into two unwritten frames: each gets a buffer of its own, and the
     frames nobody wrote still read as zero. *)
  let m = mk () in
  Tagmem.write_int m (b - 4) ~len:8 0x0102030405060708;
  Alcotest.(check int) "into fresh frames" 0x0102030405060708
    (Tagmem.read_int m (b - 4) ~len:8);
  Alcotest.(check int) "both frames resident" 2 (Tagmem.resident_frames m);
  Alcotest.(check bool) "unwritten frames read zero" true
    (Bytes.for_all (fun c -> c = '\000') (Tagmem.read_bytes m 0 (b - frame)));
  List.iter
    (fun (len, v) ->
      for back = 1 to len - 1 do
        let a = b - back in
        Tagmem.write_cap m (b - 16) (some_cap ());
        Tagmem.write_cap m b (some_cap ());
        Tagmem.write_int m a ~len v;
        Alcotest.(check int)
          (Printf.sprintf "len %d at boundary-%d" len back)
          v (Tagmem.read_int m a ~len);
        for i = 0 to len - 1 do
          Alcotest.(check int) "little-endian byte"
            ((v lsr (8 * i)) land 0xff) (Tagmem.read_u8 m (a + i))
        done;
        Alcotest.(check bool) "tag before the boundary cleared" false
          (Tagmem.get_tag m (b - 16));
        Alcotest.(check bool) "tag after the boundary cleared" false
          (Tagmem.get_tag m b)
      done)
    [ 2, 0xbeef; 3, 0xa1b2c3; 4, 0xdeadbeef; 8, 0x1122334455667788 ];
  (* The top bit of an 8-byte store is zero, as in the word path. *)
  Tagmem.write_int m (b - 3) ~len:8 (-1);
  Alcotest.(check int) "top byte" 0x7f (Tagmem.read_u8 m (b + 4));
  Tagmem.write_int m (b - 1) ~len:2 0xfffe;
  Alcotest.(check int) "signed straddling read" (-2)
    (Tagmem.read_int_signed m (b - 1) ~len:2)

let pattern len = Bytes.init len (fun i -> Char.chr (1 + (i * 7) mod 251))

(* A range from the middle of frame 1 to the middle of frame 3. *)
let span_addr = frame + 0x800
let span_len = 2 * frame

let test_span_bytes () =
  let m = mk () in
  let p = pattern span_len in
  Alcotest.(check bool) "fresh range is zero" true
    (Tagmem.is_zero m span_addr span_len);
  Tagmem.write_cap m (2 * frame) (some_cap ());
  Tagmem.blit_bytes m ~dst:span_addr p;
  Alcotest.(check bool) "blit clears a tag it covers" false
    (Tagmem.get_tag m (2 * frame));
  Alcotest.(check bytes) "read back" p (Tagmem.read_bytes m span_addr span_len);
  Alcotest.(check int) "byte before" 0 (Tagmem.read_u8 m (span_addr - 1));
  Alcotest.(check int) "byte after" 0 (Tagmem.read_u8 m (span_addr + span_len));
  Alcotest.(check bool) "not zero" false (Tagmem.is_zero m span_addr span_len);
  Alcotest.(check bool) "zero up to the range" true
    (Tagmem.is_zero m 0 span_addr);
  Tagmem.fill m span_addr span_len 0x5a;
  Alcotest.(check bytes) "filled" (Bytes.make span_len '\x5a')
    (Tagmem.read_bytes m span_addr span_len);
  Tagmem.fill m span_addr span_len 0;
  Alcotest.(check bool) "zero-filled" true (Tagmem.is_zero m span_addr span_len);
  Alcotest.(check bytes) "zero-filled bytes" (Bytes.make span_len '\000')
    (Tagmem.read_bytes m span_addr span_len);
  (* Only the partly covered frames 1 and 3 keep a buffer of their own. *)
  Alcotest.(check int) "whole frame handed back" 2 (Tagmem.resident_frames m);
  Tagmem.fill m 0 (1 lsl 16) 0;
  Alcotest.(check int) "all frames handed back" 0 (Tagmem.resident_frames m)

(* Overlapping moves across frame boundaries, with tagged granules on both
   sides of a boundary, checked against a contiguous copy of the bytes. *)
let test_span_move_overlap () =
  List.iter
    (fun (src, dst) ->
      let m = mk () in
      let p = pattern span_len in
      Tagmem.blit_bytes m ~dst:src p;
      let c0 = some_cap ~base:0x100 () and c1 = some_cap ~base:0x200 () in
      Tagmem.write_cap m (2 * frame - 16) c0;
      Tagmem.write_cap m (2 * frame) c1;
      let expect = Tagmem.read_bytes m src span_len in
      Tagmem.move m ~src ~dst ~len:span_len;
      let name = Printf.sprintf "move 0x%x -> 0x%x" src dst in
      Alcotest.(check bytes) name expect (Tagmem.read_bytes m dst span_len);
      let d = dst - src in
      Alcotest.(check bool) (name ^ ": cap before the boundary") true
        (Cap.equal c0 (Tagmem.read_cap m (2 * frame - 16 + d)));
      Alcotest.(check bool) (name ^ ": cap after the boundary") true
        (Cap.equal c1 (Tagmem.read_cap m (2 * frame + d))))
    [ span_addr, span_addr + 48;       (* forward *)
      span_addr + 48, span_addr;       (* backward *)
      span_addr, span_addr + frame ]   (* forward by a whole frame *)

let test_write_cap_fresh_frame () =
  let m = mk () in
  Alcotest.(check int) "nothing resident" 0 (Tagmem.resident_frames m);
  let c = some_cap ~base:0x240 () in
  Tagmem.write_cap m (5 * frame + 0x30) c;
  Alcotest.(check int) "one frame resident" 1 (Tagmem.resident_frames m);
  Alcotest.(check bool) "tag set" true (Tagmem.get_tag m (5 * frame + 0x30));
  Alcotest.(check bool) "cap back" true
    (Cap.equal c (Tagmem.read_cap m (5 * frame + 0x30)));
  Alcotest.(check int) "cursor as data" 0x240
    (Tagmem.read_int m (5 * frame + 0x30) ~len:8)

(* One sweep across four frames: it starts mid-frame between two tagged
   granules, covers a whole tagged frame and a frame that never held a tag,
   and ends mid-frame between two tagged granules. *)
let test_clear_tags_across_frames () =
  let m = mk () in
  let lo = frame + 0x180 and hi = (4 * frame) + 0x60 in
  let whole = List.init 16 (fun i -> (2 * frame) + (i * 0x100) + 0x10) in
  let tagged =
    [ frame + 0x170; frame + 0x180; frame + 0x200 ]
    @ whole
    @ [ (4 * frame) + 0x50; (4 * frame) + 0x60; (4 * frame) + 0x80 ]
  in
  List.iter (fun a -> Tagmem.write_cap m a (some_cap ~base:a ())) tagged;
  Tagmem.write_int m ((3 * frame) + 0x20) ~len:8 0x77;
  let inside, outside = List.partition (fun a -> a >= lo && a < hi) tagged in
  let size = Tagmem.size m in
  Alcotest.(check (list int)) "all tags before" tagged
    (Tagmem.scan_tags m 0 size);
  Alcotest.(check int) "cleared count" (List.length inside)
    (Tagmem.clear_tags_covering_count m lo (hi - lo));
  Alcotest.(check (list int)) "outside tags after" outside
    (Tagmem.scan_tags m 0 size);
  Alcotest.(check (list int)) "nothing left inside" []
    (Tagmem.scan_tags m lo (hi - lo));
  Alcotest.(check int) "data kept" 0x77
    (Tagmem.read_int m ((3 * frame) + 0x20) ~len:8);
  let a = (2 * frame) + 0xa30 in
  let c = some_cap ~base:a () in
  Tagmem.write_cap m a c;
  Alcotest.(check bool) "tag set in swept frame" true (Tagmem.get_tag m a);
  Alcotest.(check bool) "neighbour untagged" false
    (Tagmem.get_tag m (a + Cap.sizeof));
  Alcotest.(check bool) "cap back" true (Cap.equal c (Tagmem.read_cap m a))

let check_digest name m =
  Alcotest.(check string) name
    (Digest.to_hex (Digest.bytes (Tagmem.read_bytes m 0 (Tagmem.size m))))
    (Digest.to_hex (Tagmem.digest m))

(* Two memories of different sizes (one ending mid-frame) digested in turn,
   each written, re-digested and zeroed back in between: every digest is
   the MD5 of the memory's own bytes, whatever was digested before it, and
   the partial last frame hashes only up to the memory's size. *)
let test_digest_alternating () =
  let small = mk () and big = Tagmem.create ~size:((1 lsl 17) + 0x830) in
  Tagmem.write_int small 0x10 ~len:8 0x1234;
  Tagmem.write_cap big (frame + 0x40) (some_cap ());
  Tagmem.write_int big ((1 lsl 17) + 0x820) ~len:8 0x77;
  check_digest "big" big;
  check_digest "small after big" small;
  Tagmem.blit_bytes small ~dst:(3 * frame - 5) (pattern 9000);
  check_digest "small written" small;
  check_digest "big after small" big;
  Tagmem.fill small 0 (1 lsl 16) 0;
  check_digest "small zeroed back" small;
  Alcotest.(check string) "zeroed digest is the empty image's"
    (Digest.to_hex (Digest.bytes (Bytes.make (1 lsl 16) '\000')))
    (Digest.to_hex (Tagmem.digest small));
  Tagmem.fill big frame frame 0;
  check_digest "big frame zeroed back" big

(* The digest depends on the bytes, not on which frames hold a buffer: a
   frame written and then zeroed byte by byte stays resident, yet hashes
   as the never-written zero frame does. *)
let test_digest_ignores_residency () =
  let hex m = Digest.to_hex (Tagmem.digest m) in
  let untouched = mk () and m = mk () in
  let a = frame + 0x7fc in
  for i = 0 to 7 do Tagmem.write_int m (a + i) ~len:1 (0x10 + i) done;
  Alcotest.(check bool) "written frame changes the digest" true
    (hex m <> hex untouched);
  for i = 0 to 7 do Tagmem.write_int m (a + i) ~len:1 0 done;
  Alcotest.(check int) "zeroed frame stays resident" 1
    (Tagmem.resident_frames m);
  Alcotest.(check string) "digest of the untouched memory" (hex untouched)
    (hex m)

(* The digest streams frames through one MD5 context: hashing a 64 MiB
   memory allocates the context and the result, not a copy of the memory
   (8M words). *)
let test_digest_allocation () =
  let m = Tagmem.create ~size:(64 lsl 20) in
  List.iter
    (fun a -> Tagmem.write_int m a ~len:8 (a + 1))
    [ 0x10; 5 * frame; (64 lsl 20) - 8 ];
  let words () =
    let s = Gc.quick_stat () in
    s.Gc.minor_words +. s.Gc.major_words
  in
  let before = words () in
  ignore (Tagmem.digest m);
  let used = words () -. before in
  if used > 1000. then
    Alcotest.failf "digest of 64 MiB allocated %.0f words (at most 1000)" used

(* --- Phys ------------------------------------------------------------------- *)

let test_phys_alloc_free () =
  let m = Tagmem.create ~size:(64 * 4096) in
  let p = Phys.create m in
  let before = Phys.free_frames p in
  let f = Phys.alloc_frame p in
  Alcotest.(check int) "one fewer" (before - 1) (Phys.free_frames p);
  Alcotest.(check bool) "frame addr page aligned" true
    (Phys.frame_addr f land 4095 = 0);
  Phys.decref p f;
  Alcotest.(check int) "returned" before (Phys.free_frames p)

let test_phys_refcount () =
  let m = Tagmem.create ~size:(64 * 4096) in
  let p = Phys.create m in
  let f = Phys.alloc_frame p in
  Phys.incref p f;
  Alcotest.(check int) "rc 2" 2 (Phys.refcount p f);
  Phys.decref p f;
  Alcotest.(check int) "rc 1" 1 (Phys.refcount p f);
  let free_before = Phys.free_frames p in
  Phys.decref p f;
  Alcotest.(check int) "freed" (free_before + 1) (Phys.free_frames p)

let test_phys_alloc_zeroes () =
  let m = Tagmem.create ~size:(64 * 4096) in
  let p = Phys.create m in
  let f = Phys.alloc_frame p in
  let pa = Phys.frame_addr f in
  Tagmem.write_cap m pa (some_cap ());
  Tagmem.write_int m (pa + 100) ~len:8 999;
  Phys.decref p f;
  let f2 = Phys.alloc_frame p in
  let pa2 = Phys.frame_addr f2 in
  Alcotest.(check int) "same frame" f f2;
  Alcotest.(check int) "zeroed" 0 (Tagmem.read_int m (pa2 + 100) ~len:8);
  Alcotest.(check bool) "tag gone" false (Tagmem.get_tag m pa2)

let test_phys_oom () =
  let m = Tagmem.create ~size:(4 * 4096) in
  let p = Phys.create m in
  (* 3 usable frames (frame 0 reserved). *)
  let _ = Phys.alloc_frame p and _ = Phys.alloc_frame p and _ = Phys.alloc_frame p in
  Alcotest.check_raises "oom" Phys.Out_of_memory (fun () ->
      ignore (Phys.alloc_frame p))

(* --- Cache ------------------------------------------------------------------ *)

let test_cache_hit_after_miss () =
  let c = Cache.create ~name:"t" ~size:1024 ~ways:2 in
  Alcotest.(check bool) "first is miss" false (Cache.access c 0x100 8);
  Alcotest.(check bool) "second is hit" true (Cache.access c 0x100 8);
  Alcotest.(check bool) "same line hit" true (Cache.access c 0x108 8)

let test_cache_eviction () =
  let c = Cache.create ~name:"t" ~size:(2 * 64) ~ways:1 in
  (* Direct-mapped, 2 sets: lines mapping to the same set evict. *)
  ignore (Cache.access c 0 8);
  ignore (Cache.access c 128 8);   (* same set as 0 *)
  Alcotest.(check bool) "evicted" false (Cache.access c 0 8)

let test_cache_straddle () =
  let c = Cache.create ~name:"t" ~size:1024 ~ways:2 in
  ignore (Cache.access c 60 8);    (* straddles two lines *)
  Alcotest.(check bool) "both lines present" true
    (Cache.access c 56 8 && Cache.access c 64 8)

let test_hierarchy_costs () =
  let h = Cache.create_hierarchy () in
  let miss = Cache.data_access h 0x4000 8 in
  let hit = Cache.data_access h 0x4000 8 in
  Alcotest.(check bool) "miss costs more" true (miss > hit);
  Alcotest.(check int) "hit is l1 latency" h.Cache.l1_hit_cycles hit;
  Alcotest.(check bool) "l2 miss counted" true (Cache.l2_misses h >= 1)

(* The batched-hit API the chain engine charges instruction fetches
   with: [k] batched hits on a just-probed line leave the cache exactly as
   [k] real probes do, and asking for the slot of a line that is not
   resident is an invariant failure (a re-probe of the L1 alone would
   skip the L2 that a real missing fetch reaches). *)
let test_cache_batched_hits () =
  let probed = Cache.create ~name:"p" ~size:1024 ~ways:4 in
  let batched = Cache.create ~name:"p" ~size:1024 ~ways:4 in
  let state (c : Cache.t) =
    (Cache.hits c, Cache.misses c, c.Cache.clock, Array.to_list c.Cache.tags,
     Array.to_list c.Cache.lru)
  in
  List.iter
    (fun (line, k) ->
      ignore (Cache.access_line probed line);
      for _ = 1 to k do ignore (Cache.access_line probed line) done;
      ignore (Cache.access_line batched line);
      Cache.repeat_hits batched (Cache.resident_slot batched line) k)
    [ 3, 5; 7, 0; 3, 2; 11, 9; 19, 1; 7, 4 ];
  Alcotest.(check bool) "batched = probed" true (state batched = state probed);
  match Cache.resident_slot batched 1234 with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "slot of an absent line"

(* Every probe advances the clock once and counts one hit or one miss,
   and the batched hits advance the clock and the hit count together, so
   the hit count is always [clock - misses]: over random single-line
   probes, split L1 probes ([l1_slot], then [hit_slot] or
   [access_line]), batched repeats and stamped batches on an L1 and an
   8-way cache, [Cache.hits] equals the hits counted here. *)
let test_cache_hits_invariant () =
  let st = ref 7 in
  let rnd n = (st := (!st * 25214903917 + 11) land max_int; (!st lsr 16) mod n) in
  List.iter
    (fun (c : Cache.t) ->
      let hits = ref 0 in
      for _ = 1 to 20_000 do
        let line = rnd 2048 in
        (match rnd 4 with
         | 0 -> if Cache.access_line c line then incr hits
         | 1 when c.Cache.ways = Cache.l1_ways ->
           (* The chain engine's split DL1 probe. *)
           let s = Cache.l1_slot c line in
           if s >= 0 then (Cache.hit_slot c s; incr hits)
           else if Cache.access_line c line then incr hits
         | 1 -> if Cache.access_line c line then incr hits
         | 2 ->
           if Cache.access_line c line then incr hits;
           let k = rnd 5 in
           Cache.repeat_hits c (Cache.resident_slot c line) k;
           hits := !hits + k
         | _ ->
           if Cache.access_line c line then incr hits;
           let n = 1 + rnd 3 in
           let c0 = Cache.add_hits c n in
           Cache.stamp c (Cache.resident_slot c line) (c0 + n);
           hits := !hits + n);
        if Cache.hits c <> c.Cache.clock - Cache.misses c then
          Alcotest.failf "%s: hits %d <> clock %d - misses %d" (Cache.name c)
            (Cache.hits c) c.Cache.clock (Cache.misses c)
      done;
      Alcotest.(check int) (Cache.name c ^ ": hits counted") !hits
        (Cache.hits c))
    [ Cache.create ~name:"l1" ~size:(32 * 1024) ~ways:4;
      Cache.create ~name:"l2" ~size:(64 * 1024) ~ways:8 ]

(* The chain engine's fixed-width accessors against the generic
   [read_int]/[read_int_signed]/[write_int] the step engine uses, at every
   aligned address of a frame's last granule and of the top granule of
   memory, over values with each width's sign bit set and clear. Each
   store also clears the granule's tag, and the range check still raises
   past the end of memory. The unchecked [peek]/[poke] accessors of the
   chain engine's hit paths agree as well, wherever [can_poke] allows a
   poke: it refuses a tagged granule and an unwritten frame. *)
let test_fixed_width_accessors () =
  let size = 1 lsl 16 in
  let fixed = mk () and generic = mk () and poked = mk () in
  let peeks =
    [ 1, Tagmem.peek_u8, Tagmem.peek_s8, Tagmem.poke_u8;
      2, Tagmem.peek_u16, Tagmem.peek_s16, Tagmem.poke_u16;
      4, Tagmem.peek_u32, Tagmem.peek_s32, Tagmem.poke_u32;
      8, Tagmem.peek_u64, Tagmem.peek_u64, Tagmem.poke_u64 ]
  in
  Alcotest.(check bool) "no poke into an unwritten frame" false
    (Tagmem.can_poke poked 0x4ff0);
  let values = [ 0; 1; 0x7f; 0x80; 0xff82; 0x8000_0001; -0x1234_5678_9abc_de7f;
                 min_int; max_int ] in
  let reads =
    [ 1, Tagmem.read_u8, Tagmem.read_s8;
      2, Tagmem.read_u16, Tagmem.read_s16;
      4, Tagmem.read_u32, Tagmem.read_s32;
      8, Tagmem.read_u64, Tagmem.read_u64 ]
  and writes =
    [ 1, Tagmem.write_u8; 2, Tagmem.write_u16; 4, Tagmem.write_u32;
      8, Tagmem.write_u64 ]
  in
  List.iter
    (fun granule ->
      List.iter
        (fun (w, write) ->
          let _, read_u, read_s =
            List.find (fun (w', _, _) -> w' = w) reads
          in
          for i = 0 to (16 / w) - 1 do
            let a = granule + (i * w) in
            List.iter
              (fun v ->
                let c = some_cap ~base:granule ~len:16 () in
                Tagmem.write_cap fixed granule c;
                Tagmem.write_cap generic granule c;
                write fixed a v;
                Tagmem.write_int generic a ~len:w v;
                let what = Printf.sprintf "w=%d @%x v=%x" w a v in
                Alcotest.(check bool) (what ^ ": tag cleared") false
                  (Tagmem.get_tag fixed granule);
                Alcotest.(check int) (what ^ ": unsigned")
                  (Tagmem.read_int generic a ~len:w) (read_u fixed a);
                Alcotest.(check int) (what ^ ": signed")
                  (Tagmem.read_int_signed generic a ~len:w) (read_s fixed a);
                let _, peek_u, peek_s, poke =
                  List.find (fun (w', _, _, _) -> w' = w) peeks
                in
                Tagmem.write_cap poked granule c;
                Alcotest.(check bool) (what ^ ": no poke over a tag") false
                  (Tagmem.can_poke poked a);
                Tagmem.write_int poked a ~len:w 0;
                Alcotest.(check bool) (what ^ ": can poke") true
                  (Tagmem.can_poke poked a);
                poke poked a v;
                Alcotest.(check int) (what ^ ": peek unsigned")
                  (Tagmem.read_int generic a ~len:w) (peek_u poked a);
                Alcotest.(check int) (what ^ ": peek signed")
                  (Tagmem.read_int_signed generic a ~len:w) (peek_s poked a))
              values
          done)
        writes)
    [ 0x4ff0; size - 16 ];
  Alcotest.(check bool) "same bytes" true
    (Bytes.equal (Tagmem.read_bytes fixed 0 size)
       (Tagmem.read_bytes generic 0 size));
  Alcotest.(check bool) "same bytes poked" true
    (Bytes.equal (Tagmem.read_bytes poked 0 size)
       (Tagmem.read_bytes generic 0 size));
  List.iter
    (fun (w, write) ->
      let _, read_u, read_s = List.find (fun (w', _, _) -> w' = w) reads in
      let raises what f =
        match f () with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.failf "w=%d %s past the end did not raise" w what
      in
      raises "read" (fun () -> ignore (read_u fixed size));
      raises "signed read" (fun () -> ignore (read_s fixed size));
      raises "write" (fun () -> write fixed size 1))
    writes

let suite =
  [ "data roundtrip", `Quick, test_data_roundtrip;
    "signed reads", `Quick, test_signed_read;
    "cap roundtrip", `Quick, test_cap_roundtrip;
    "data store clears tag", `Quick, test_data_store_clears_tag;
    "untagged read sees cursor", `Quick, test_untagged_read_sees_cursor;
    "cap alignment enforced", `Quick, test_cap_alignment;
    "move preserves tags", `Quick, test_move_preserves_tags;
    "unaligned move strips tags", `Quick, test_move_unaligned_strips_tags;
    "overlapping move forward", `Quick, test_move_overlap_aligned_forward;
    "overlapping move backward", `Quick, test_move_overlap_aligned_backward;
    "overlapping move unaligned", `Quick, test_move_overlap_unaligned;
    "scan tags", `Quick, test_scan_tags;
    "fill clears tags", `Quick, test_fill_clears_tags;
    "int access straddling frames", `Quick, test_straddle_int;
    "byte ranges spanning frames", `Quick, test_span_bytes;
    "overlapping moves spanning frames", `Quick, test_span_move_overlap;
    "cap store into an unwritten frame", `Quick, test_write_cap_fresh_frame;
    "tag sweep across frames", `Quick, test_clear_tags_across_frames;
    "fixed-width accessors", `Quick, test_fixed_width_accessors;
    "digest of alternating memories", `Quick, test_digest_alternating;
    "digest ignores frame residency", `Quick, test_digest_ignores_residency;
    "digest allocation is bounded", `Quick, test_digest_allocation;
    "phys alloc/free", `Quick, test_phys_alloc_free;
    "phys refcount", `Quick, test_phys_refcount;
    "phys alloc zeroes", `Quick, test_phys_alloc_zeroes;
    "phys oom", `Quick, test_phys_oom;
    "cache hit after miss", `Quick, test_cache_hit_after_miss;
    "cache eviction", `Quick, test_cache_eviction;
    "cache line straddle", `Quick, test_cache_straddle;
    "hierarchy costs", `Quick, test_hierarchy_costs;
    "cache batched hits", `Quick, test_cache_batched_hits;
    "cache hits = clock - misses", `Quick, test_cache_hits_invariant ]
