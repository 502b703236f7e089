(* Tests for the virtual-memory subsystem: address spaces, demand paging,
   copy-on-write, and — central to the paper — swap with capability
   rederivation. *)

module Cap = Cheri_cap.Cap
module Perms = Cheri_cap.Perms
module Tagmem = Cheri_tagmem.Tagmem
module Phys = Cheri_tagmem.Phys
module Trap = Cheri_isa.Trap
module Prot = Cheri_vm.Prot
module Swap = Cheri_vm.Swap
module Pmap = Cheri_vm.Pmap
module Addr_space = Cheri_vm.Addr_space

let mk ?(principal = 1) () =
  let mem = Tagmem.create ~size:(256 * 4096) in
  let phys = Phys.create mem in
  let swap = Swap.create () in
  let asp = Addr_space.create ~principal ~phys ~swap () in
  mem, phys, swap, asp

(* Write through the pmap, faulting pages in as the kernel would. *)
let touch asp vaddr ~write =
  match Pmap.kernel_touch (Addr_space.pmap asp) vaddr ~write
      ~on_rederive:ignore with
  | Some pa -> pa
  | None -> Alcotest.failf "unexpected fault at 0x%x" vaddr

let test_map_and_touch () =
  let mem, _, _, asp = mk () in
  let _ = Addr_space.map_fixed asp ~start:0x20000 ~len:8192 ~prot:Prot.rw
      ~name:"anon" () in
  let pa = touch asp 0x20010 ~write:true in
  Tagmem.write_int mem pa ~len:8 42;
  let pa2 = touch asp 0x20010 ~write:false in
  Alcotest.(check int) "same translation" pa pa2;
  Alcotest.(check int) "data" 42 (Tagmem.read_int mem pa2 ~len:8)

let test_unmapped_faults () =
  let _, _, _, asp = mk () in
  Alcotest.(check bool) "unmapped" true
    (Pmap.kernel_touch (Addr_space.pmap asp) 0x999000 ~write:false
        ~on_rederive:ignore = None)

let test_prot_enforced () =
  let _, _, _, asp = mk () in
  let _ = Addr_space.map_fixed asp ~start:0x20000 ~len:4096 ~prot:Prot.r
      ~name:"ro" () in
  let _ = touch asp 0x20000 ~write:false in
  Alcotest.(check bool) "write to RO denied" true
    (Pmap.kernel_touch (Addr_space.pmap asp) 0x20000 ~write:true
        ~on_rederive:ignore = None)

let test_mprotect () =
  let _, _, _, asp = mk () in
  let _ = Addr_space.map_fixed asp ~start:0x20000 ~len:4096 ~prot:Prot.rw
      ~name:"x" () in
  let _ = touch asp 0x20000 ~write:true in
  Addr_space.protect asp ~start:0x20000 ~len:4096 ~prot:Prot.r;
  Alcotest.(check bool) "now read-only" true
    (Pmap.kernel_touch (Addr_space.pmap asp) 0x20000 ~write:true
        ~on_rederive:ignore = None)

let test_map_anywhere_no_overlap () =
  let _, _, _, asp = mk () in
  let r1 = Addr_space.map_anywhere asp ~hint:0x20000 ~len:8192 ~prot:Prot.rw
      ~name:"a" () in
  let r2 = Addr_space.map_anywhere asp ~hint:0x20000 ~len:8192 ~prot:Prot.rw
      ~name:"b" () in
  Alcotest.(check bool) "disjoint" true
    (r2.Addr_space.r_start >= r1.Addr_space.r_start + r1.Addr_space.r_len
     || r1.Addr_space.r_start >= r2.Addr_space.r_start + r2.Addr_space.r_len)

let test_unmap () =
  let _, _, _, asp = mk () in
  let r = Addr_space.map_anywhere asp ~hint:0x20000 ~len:4096 ~prot:Prot.rw
      ~name:"a" () in
  let _ = touch asp r.Addr_space.r_start ~write:true in
  Addr_space.unmap asp ~start:r.Addr_space.r_start ~len:4096;
  Alcotest.(check bool) "gone" true
    (Pmap.kernel_touch (Addr_space.pmap asp) r.Addr_space.r_start ~write:false
        ~on_rederive:ignore
     = None)

let test_fixed_overlap_rejected () =
  let _, _, _, asp = mk () in
  let _ = Addr_space.map_fixed asp ~start:0x20000 ~len:8192 ~prot:Prot.rw
      ~name:"a" () in
  Alcotest.(check bool) "overlap raises" true
    (match
       Addr_space.map_fixed asp ~start:0x21000 ~len:4096 ~prot:Prot.rw
         ~name:"b" ()
     with
     | _ -> false
     | exception Addr_space.Map_error _ -> true)

(* The kernel mints principal ids: two spaces it numbers never share one. *)
let test_principals_fresh () =
  let k = Cheri_kernel.Kstate.boot () in
  let fresh () =
    let principal = Cheri_kernel.Kstate.alloc_principal k in
    let _, _, _, asp = mk ~principal () in
    asp
  in
  let a = fresh () in
  let b = fresh () in
  Alcotest.(check bool) "unique principals" true
    (Addr_space.principal a <> Addr_space.principal b)

(* --- Swap: the tag-scan / rederivation cycle ------------------------------- *)

let test_swap_roundtrip_preserves_caps () =
  let mem, _, swap, asp = mk () in
  let root = Addr_space.root_cap asp in
  let _ = Addr_space.map_fixed asp ~start:0x30000 ~len:4096 ~prot:Prot.rw
      ~name:"swapme" () in
  let pa = touch asp 0x30000 ~write:true in
  (* Plant a bounded capability and some data in the page. *)
  let planted =
    Cap.and_perms
      (Cap.set_bounds (Cap.set_addr root 0x30100) ~len:128)
      Perms.data
  in
  Tagmem.write_cap mem (pa + 0x40) planted;
  Tagmem.write_int mem (pa + 0x80) ~len:8 31337;
  (* Evict, then fault back in. *)
  let n = Pmap.evict_pages (Addr_space.pmap asp) ~n:64 in
  Alcotest.(check bool) "evicted some" true (n >= 1);
  let pa' = touch asp 0x30000 ~write:false in
  Alcotest.(check int) "data preserved" 31337 (Tagmem.read_int mem (pa' + 0x80) ~len:8);
  let c = Tagmem.read_cap mem (pa' + 0x40) in
  Alcotest.(check bool) "tag rederived" true (Cap.is_tagged c);
  Alcotest.(check bool) "abstract capability identical" true (Cap.equal planted c);
  let _, _, rederived, lost = Swap.stats swap in
  Alcotest.(check int) "one rederivation" 1 rederived;
  Alcotest.(check int) "none lost" 0 lost

let test_swap_rejects_foreign_caps () =
  (* A capability outside the principal's root must NOT be rederived:
     the rederivation path enforces the abstract-capability boundary. *)
  let root = Cap.make_root ~base:0x10000 ~top:0x20000 () in
  let saved =
    { Swap.s_perms = Perms.data; s_base = 0x30000; s_top = 0x31000;
      s_addr = 0x30000; s_otype = Cap.otype_unsealed }
  in
  let c = Swap.rederive ~root saved in
  Alcotest.(check bool) "not rederived" false (Cap.is_tagged c);
  Alcotest.(check int) "address preserved as data" 0x30000 (Cap.addr c)

let test_swap_rejects_excess_perms () =
  let root = Cap.and_perms (Cap.make_root ~base:0 ~top:0x40000 ()) Perms.data in
  let saved =
    { Swap.s_perms = Perms.all; s_base = 0x1000; s_top = 0x2000;
      s_addr = 0x1000; s_otype = Cap.otype_unsealed }
  in
  Alcotest.(check bool) "perm escalation blocked" false
    (Cap.is_tagged (Swap.rederive ~root saved))

(* --- COW / fork -------------------------------------------------------------- *)

let test_fork_cow () =
  let mem, phys, swap, parent = mk () in
  let _ = Addr_space.map_fixed parent ~start:0x40000 ~len:4096 ~prot:Prot.rw
      ~name:"data" () in
  let pa = touch parent 0x40000 ~write:true in
  Tagmem.write_int mem pa ~len:8 111;
  let root = Addr_space.root_cap parent in
  Tagmem.write_cap mem (pa + 16)
    (Cap.set_bounds (Cap.set_addr root 0x40100) ~len:64);
  let child = Addr_space.fork parent ~principal:2 ~phys ~swap
      ~on_rederive:ignore in
  (* Child writes: must not disturb the parent (COW), and the copied page
     must preserve tags. *)
  let cpa = touch child 0x40000 ~write:true in
  Alcotest.(check bool) "copied to a new frame" true (cpa <> pa);
  Tagmem.write_int mem cpa ~len:8 222;
  Alcotest.(check int) "parent intact" 111 (Tagmem.read_int mem pa ~len:8);
  Alcotest.(check bool) "tag survived COW copy" true (Tagmem.get_tag mem (cpa + 16))

let test_fork_read_shares () =
  let mem, phys, swap, parent = mk () in
  let _ = Addr_space.map_fixed parent ~start:0x40000 ~len:4096 ~prot:Prot.rw
      ~name:"data" () in
  let pa = touch parent 0x40000 ~write:true in
  Tagmem.write_int mem pa ~len:8 7;
  let child = Addr_space.fork parent ~principal:2 ~phys ~swap
      ~on_rederive:ignore in
  let cpa = touch child 0x40000 ~write:false in
  Alcotest.(check int) "read shares the frame" pa cpa

let qcheck_tests =
  let open QCheck in
  [ Test.make ~name:"swap rederivation is exact for in-root caps" ~count:300
      (pair (int_range 0 4000) (int_range 1 4096))
      (fun (off, len) ->
        let root = Cap.make_root ~base:0x10000 ~top:0x80000 () in
        let c =
          try
            Cap.and_perms
              (Cap.set_bounds (Cap.set_addr root (0x10000 + off)) ~len)
              Perms.data
          with Cap.Cap_error _ -> root
        in
        let saved =
          { Swap.s_perms = Cap.perms c; s_base = Cap.base c;
            s_top = Cap.top c; s_addr = Cap.addr c;
            s_otype = Cap.otype_unsealed }
        in
        Cap.equal (Swap.rederive ~root saved) c) ]

let suite =
  [ "map and touch", `Quick, test_map_and_touch;
    "unmapped faults", `Quick, test_unmapped_faults;
    "prot enforced", `Quick, test_prot_enforced;
    "mprotect", `Quick, test_mprotect;
    "map_anywhere no overlap", `Quick, test_map_anywhere_no_overlap;
    "unmap", `Quick, test_unmap;
    "fixed overlap rejected", `Quick, test_fixed_overlap_rejected;
    "fresh principals", `Quick, test_principals_fresh;
    "swap roundtrip preserves caps", `Quick, test_swap_roundtrip_preserves_caps;
    "swap rejects foreign caps", `Quick, test_swap_rejects_foreign_caps;
    "swap rejects excess perms", `Quick, test_swap_rejects_excess_perms;
    "fork COW isolation", `Quick, test_fork_cow;
    "fork read shares frames", `Quick, test_fork_read_shares ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_tests

(* Randomized model check: interleaved user writes (data and capabilities)
   and forced evictions must never lose information — the memory always
   matches a plain in-OCaml model, and planted capabilities keep their
   exact bounds across any number of swap cycles. *)
let qcheck_swap_model =
  let open QCheck in
  let op =
    oneof
      [ map (fun (o, v) -> `Write (o land 0x3ff8, v))
          (pair (int_bound 0xffff) small_int);
        map (fun o -> `Plant (o land 0x3ff0)) (int_bound 0xffff);
        map (fun n -> `Evict (1 + (n mod 4))) small_int;
        always `Evict_all ]
  in
  [ Test.make ~name:"swap/evict interleaving preserves memory and caps"
      ~count:60
      (list_of_size Gen.(int_range 5 40) op)
      (fun ops ->
        let mem = Tagmem.create ~size:(128 * 4096) in
        let phys = Phys.create mem in
        let swap = Swap.create () in
        let asp = Addr_space.create ~principal:1 ~phys ~swap () in
        let base = 0x50000 in
        let _ =
          Addr_space.map_fixed asp ~start:base ~len:(4 * 4096) ~prot:Prot.rw
            ~name:"model" ()
        in
        let pmap = Addr_space.pmap asp in
        let root = Addr_space.root_cap asp in
        (* the model: value map + planted-cap set *)
        let data : (int, int) Hashtbl.t = Hashtbl.create 64 in
        let caps : (int, Cap.t) Hashtbl.t = Hashtbl.create 16 in
        let touch v ~write =
          match Pmap.kernel_touch pmap v ~write ~on_rederive:ignore with
          | Some pa -> pa
          | None -> failwith "unexpected fault"
        in
        List.iter
          (fun op ->
            match op with
            | `Write (off, v) ->
              let va = base + off in
              Tagmem.write_int mem (touch va ~write:true) ~len:8 v;
              Hashtbl.replace data off v;
              (* a data write destroys any planted cap in that granule *)
              Hashtbl.remove caps (off land lnot 15)
            | `Plant off ->
              let va = base + off in
              let c =
                Cap.and_perms
                  (Cap.set_bounds (Cap.set_addr root va) ~len:16)
                  Perms.data
              in
              Tagmem.write_cap mem (touch va ~write:true) c;
              Hashtbl.replace caps off c;
              (* the cap's raw bytes shadow the model data *)
              Hashtbl.replace data off (Cap.addr c);
              Hashtbl.remove data (off + 8)
            | `Evict n -> ignore (Pmap.evict_pages pmap ~n)
            | `Evict_all -> ignore (Pmap.evict_pages pmap ~n:64))
          ops;
        (* verify *)
        Hashtbl.fold
          (fun off v acc ->
            acc
            && Tagmem.read_int mem (touch (base + off) ~write:false) ~len:8 = v)
          data true
        && Hashtbl.fold
             (fun off c acc ->
               let pa = touch (base + off) ~write:false in
               acc && Tagmem.get_tag mem pa
               && Cap.equal (Tagmem.read_cap mem pa) c)
             caps true) ]

let suite = suite @ List.map QCheck_alcotest.to_alcotest qcheck_swap_model
