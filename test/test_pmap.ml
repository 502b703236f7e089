(* Page-table tests: a randomized model check of [Pmap] against a naive
   per-page reference, plus directed checks that the sparse representation
   keeps untouched ASan shadow implicit and leaves fork's charges as they
   were, and a replay of the frame allocator against its list-based
   predecessor. *)

module Cap = Cheri_cap.Cap
module Tagmem = Cheri_tagmem.Tagmem
module Phys = Cheri_tagmem.Phys
module Trap = Cheri_isa.Trap
module Prot = Cheri_vm.Prot
module Swap = Cheri_vm.Swap
module Pmap = Cheri_vm.Pmap
module Addr_space = Cheri_vm.Addr_space
module Abi = Cheri_core.Abi
module Kernel = Cheri_kernel.Kernel
module Sys_impl = Cheri_kernel.Sys_impl
module Proc = Cheri_kernel.Proc
module Malloc_impl = Cheri_libc.Malloc_impl
module Stdlib_src = Cheri_workloads.Stdlib_src

let page = Phys.page_size

(* --- Reference model: one record per mapped page ------------------------------

   The page-table semantics written the obvious way: every mapped page has
   an entry from the moment it is mapped, and every walk goes in ascending
   vpn order. It runs over its own physical memory and swap device, so if
   it and [Pmap] allocate and free frames in the same order, they hand out
   the same physical addresses. *)
module Model = struct
  module M = Map.Make (Int)

  type state = Lazy | Present of int | Swapped of int

  type entry = {
    mutable state : state;
    mutable prot : Prot.t;
    mutable cow : bool;
    mutable accessed : bool;
  }

  type t = {
    mutable pages : entry M.t;
    phys : Phys.t;
    swap : Swap.t;
    root : Cap.t;
    mutable faults : int;
    mutable generation : int;
  }

  let create ~phys ~swap ~root =
    { pages = M.empty; phys; swap; root; faults = 0; generation = 0 }

  let vpn_of v = v / page

  let bump t = t.generation <- t.generation + 1

  let release t e =
    match e.state with
    | Present f -> Phys.decref t.phys f
    | Swapped id -> Swap.discard t.swap id
    | Lazy -> ()

  let vpns ~vaddr ~len =
    let first = vpn_of vaddr in
    List.init (max 0 (vpn_of (vaddr + len - 1) - first + 1)) (fun i -> first + i)

  let set t vpn e =
    Option.iter (release t) (M.find_opt vpn t.pages);
    t.pages <- M.add vpn e t.pages

  let enter_range t ~vaddr ~len ~prot =
    List.iter
      (fun vpn -> set t vpn { state = Lazy; prot; cow = false; accessed = false })
      (vpns ~vaddr ~len)

  let enter_frame t ~vaddr ~frame ~prot ~cow =
    set t (vpn_of vaddr) { state = Present frame; prot; cow; accessed = false }

  let protect_range t ~vaddr ~len ~prot =
    bump t;
    List.iter
      (fun vpn -> Option.iter (fun e -> e.prot <- prot) (M.find_opt vpn t.pages))
      (vpns ~vaddr ~len)

  let remove_range t ~vaddr ~len =
    bump t;
    List.iter
      (fun vpn ->
        Option.iter (release t) (M.find_opt vpn t.pages);
        t.pages <- M.remove vpn t.pages)
      (vpns ~vaddr ~len)

  let evict t ~n =
    let candidates =
      M.fold
        (fun vpn e acc ->
          match e.state with
          | Present f when Phys.refcount t.phys f = 1 && not e.cow ->
            (e.accessed, vpn, e, f) :: acc
          | _ -> acc)
        t.pages []
      |> List.sort compare
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
      candidates;
    !evicted

  let rec alloc t =
    try Phys.alloc_frame t.phys
    with Phys.Out_of_memory ->
      if evict t ~n:64 = 0 then raise Phys.Out_of_memory else alloc t

  let allowed (p : Prot.t) ~write ~exec =
    not ((write && not p.Prot.write) || ((not write) && not p.Prot.read)
         || (exec && not p.Prot.exec))

  let translate t vaddr ~write ~exec =
    match M.find_opt (vpn_of vaddr) t.pages with
    | Some ({ state = Present f; _ } as e)
      when allowed e.prot ~write ~exec && not (write && e.cow) ->
      e.accessed <- true;
      Some (Phys.frame_addr f + (vaddr mod page))
    | _ -> None

  let handle_fault t ~vaddr ~write ~exec : Pmap.fault_result =
    t.faults <- t.faults + 1;
    match M.find_opt (vpn_of vaddr) t.pages with
    | None -> Not_mapped
    | Some e when not (allowed e.prot ~write ~exec) -> Bad_access
    | Some e ->
      (match e.state with
       | Lazy -> e.state <- Present (alloc t)
       | Swapped id ->
         let f = alloc t in
         Swap.swap_in t.swap (Phys.mem t.phys) ~id ~pa:(Phys.frame_addr f)
           ~root:t.root ~on_rederive:ignore;
         e.state <- Present f
       | Present f when write && e.cow ->
         if Phys.refcount t.phys f = 1 then e.cow <- false
         else begin
           let nf = alloc t in
           Tagmem.move (Phys.mem t.phys) ~src:(Phys.frame_addr f)
             ~dst:(Phys.frame_addr nf) ~len:page;
           Phys.decref t.phys f;
           e.state <- Present nf;
           e.cow <- false
         end
       | Present _ -> ());
      Handled

  let resident_pa t vaddr =
    match M.find_opt (vpn_of vaddr) t.pages with
    | Some { state = Present f; _ } -> Some (Phys.frame_addr f + (vaddr mod page))
    | _ -> None

  let fork_into t child =
    M.iter
      (fun vpn e ->
        (match e.state with
         | Swapped id ->
           let f = Phys.alloc_frame t.phys in
           Swap.swap_in t.swap (Phys.mem t.phys) ~id ~pa:(Phys.frame_addr f)
             ~root:t.root ~on_rederive:ignore;
           e.state <- Present f
         | Lazy | Present _ -> ());
        let ce =
          match e.state with
          | Present f ->
            Phys.incref t.phys f;
            e.cow <- e.cow || e.prot.Prot.write;
            { state = Present f; prot = e.prot; cow = e.prot.Prot.write;
              accessed = false }
          | Lazy | Swapped _ ->
            { state = Lazy; prot = e.prot; cow = false; accessed = false }
        in
        child.pages <- M.add vpn ce child.pages)
      t.pages

  let destroy t =
    bump t;
    M.iter (fun _ e -> release t e) t.pages;
    t.pages <- M.empty
end

(* --- Random operation sequences --------------------------------------------------- *)

let base_vpn = 16
let window = 24   (* pages the operations range over *)
let frames = 16   (* small physical memory, so faults evict under pressure *)

type op =
  | Enter_range of int * int * int * Prot.t   (* space, first page, pages *)
  | Enter_frame of int * int * Prot.t * bool
  | Protect of int * int * int * Prot.t
  | Remove of int * int * int
  | Translate of int * int * bool * bool      (* space, page, write, exec *)
  | Fault of int * int * bool * bool
  | Fault_span of int * int * int * bool      (* space, first page, pages, write *)
  | Evict of int * int
  | Fork of int
  | Destroy of int

let pp_op = function
  | Enter_range (s, p, n, pr) ->
    Printf.sprintf "enter_range s%d %d+%d %s" s p n (Prot.to_string pr)
  | Enter_frame (s, p, pr, c) ->
    Printf.sprintf "enter_frame s%d %d %s cow=%b" s p (Prot.to_string pr) c
  | Protect (s, p, n, pr) ->
    Printf.sprintf "protect s%d %d+%d %s" s p n (Prot.to_string pr)
  | Remove (s, p, n) -> Printf.sprintf "remove s%d %d+%d" s p n
  | Translate (s, p, w, x) -> Printf.sprintf "translate s%d %d w=%b x=%b" s p w x
  | Fault (s, p, w, x) -> Printf.sprintf "fault s%d %d w=%b x=%b" s p w x
  | Fault_span (s, p, n, w) -> Printf.sprintf "fault_span s%d %d+%d w=%b" s p n w
  | Evict (s, n) -> Printf.sprintf "evict s%d %d" s n
  | Fork s -> Printf.sprintf "fork s%d" s
  | Destroy s -> Printf.sprintf "destroy s%d" s

let gen_op =
  let open QCheck.Gen in
  let space = int_bound 3 and pg = int_bound (window - 1) in
  (* Mostly short spans, so spans often hold fewer pages than are touched. *)
  let n = frequency [ 3, int_range 1 3; 2, int_range 4 12; 1, int_range 13 window ] in
  let prot = oneofl [ Prot.none; Prot.r; Prot.rw; Prot.rx; Prot.rwx ] in
  frequency
    [ 3, map (fun (s, p, n, pr) -> Enter_range (s, p, n, pr)) (quad space pg n prot);
      1, map (fun (s, p, pr, c) -> Enter_frame (s, p, pr, c)) (quad space pg prot bool);
      2, map (fun (s, p, n, pr) -> Protect (s, p, n, pr)) (quad space pg n prot);
      2, map (fun (s, p, n) -> Remove (s, p, n)) (triple space pg n);
      6, map (fun (s, p, w, x) -> Translate (s, p, w, x)) (quad space pg bool bool);
      6, map (fun (s, p, w, x) -> Fault (s, p, w, x)) (quad space pg bool bool);
      2, map (fun (s, p, n, w) -> Fault_span (s, p, n, w)) (quad space pg n bool);
      1, map (fun (s, n) -> Evict (s, n)) (pair space (int_range 1 8));
      1, map (fun s -> Fork s) space;
      1, map (fun s -> Destroy s) space ]

let arb_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "\n" (List.map pp_op ops))
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_range 1 80) gen_op)

let va p = (base_vpn + p) * page

(* Run [ops] on [Pmap] and on the model side by side; false at the first
   observable difference. *)
let agree ops =
  let root = Cap.make_root ~base:0 ~top:(1 lsl 40) () in
  let side () = Phys.create (Tagmem.create ~size:(frames * page)), Swap.create () in
  let iphys, iswap = side () and mphys, mswap = side () in
  let spaces = ref [| Pmap.create ~phys:iphys ~swap:iswap ~root,
                      Model.create ~phys:mphys ~swap:mswap ~root |] in
  let pick s = !spaces.(s mod Array.length !spaces) in
  let same_space (i, m) =
    Pmap.entry_count i = Model.M.cardinal m.Model.pages
    && Pmap.fault_count i = m.Model.faults
    && Pmap.generation i = m.Model.generation
    && List.for_all
         (fun p -> Pmap.resident_pa i (va p) = Model.resident_pa m (va p))
         (List.init window Fun.id)
  in
  (* The next frames the allocator would hand out: allocated and given
     back in reverse, which leaves the free list as it was. *)
  let next_frames phys =
    let n = min 4 (Phys.free_frames phys) in
    let fs = List.init n (fun _ -> Phys.alloc_frame phys) in
    List.iter (Phys.decref phys) (List.rev fs);
    fs
  in
  let same () =
    Phys.free_frames iphys = Phys.free_frames mphys
    && next_frames iphys = next_frames mphys
    && Array.for_all same_space !spaces
  in
  (* Apply one operation to both sides; the outcomes must match. An
     out-of-memory ends the sequence (fork leaves a half-built child). *)
  let step op =
    let both fi fm =
      let run f =
        match f () with v -> Ok v | exception Phys.Out_of_memory -> Error ()
      in
      let a = run fi in
      let b = run fm in
      match a, b with
      | Ok a, Ok b -> if a = b then `Same else `Differ
      | Error (), Error () -> `Stop
      | _ -> `Differ
    in
    match op with
    | Enter_range (s, p, n, prot) ->
      let i, m = pick s in
      both (fun () -> Pmap.enter_range i ~vaddr:(va p) ~len:(n * page) ~prot)
        (fun () -> Model.enter_range m ~vaddr:(va p) ~len:(n * page) ~prot)
    | Enter_frame (s, p, prot, cow) ->
      let i, m = pick s in
      both
        (fun () ->
          Pmap.enter_frame i ~vaddr:(va p) ~frame:(Phys.alloc_frame iphys) ~prot ~cow)
        (fun () ->
          Model.enter_frame m ~vaddr:(va p) ~frame:(Phys.alloc_frame mphys) ~prot ~cow)
    | Protect (s, p, n, prot) ->
      let i, m = pick s in
      both (fun () -> Pmap.protect_range i ~vaddr:(va p) ~len:(n * page) ~prot)
        (fun () -> Model.protect_range m ~vaddr:(va p) ~len:(n * page) ~prot)
    | Remove (s, p, n) ->
      let i, m = pick s in
      both (fun () -> Pmap.remove_range i ~vaddr:(va p) ~len:(n * page))
        (fun () -> Model.remove_range m ~vaddr:(va p) ~len:(n * page))
    | Translate (s, p, write, exec) ->
      let i, m = pick s in
      let v = va p + (8 * p) in
      both
        (fun () ->
          match Pmap.translate i v ~write ~exec with
          | pa -> Some pa
          | exception Trap.Trap (Trap.Page_fault _) -> None)
        (fun () -> Model.translate m v ~write ~exec)
    | Fault (s, p, write, exec) ->
      let i, m = pick s in
      both (fun () -> Pmap.handle_fault i ~vaddr:(va p) ~write ~exec
          ~on_rederive:ignore)
        (fun () -> Model.handle_fault m ~vaddr:(va p) ~write ~exec)
    | Fault_span (s, p, n, write) ->
      let i, m = pick s in
      let pages = List.init n (fun j -> va (p + j)) in
      both
        (fun () ->
          List.map (fun vaddr -> Pmap.handle_fault i ~vaddr ~write ~exec:false
              ~on_rederive:ignore) pages)
        (fun () ->
          List.map (fun vaddr -> Model.handle_fault m ~vaddr ~write ~exec:false) pages)
    | Evict (s, n) ->
      let i, m = pick s in
      both (fun () -> Pmap.evict_pages i ~n) (fun () -> Model.evict m ~n)
    | Fork s ->
      let i, m = pick s in
      let ci = Pmap.create ~phys:iphys ~swap:iswap ~root
      and cm = Model.create ~phys:mphys ~swap:mswap ~root in
      let r =
        both (fun () -> Pmap.fork_into i ci ~on_rederive:ignore)
          (fun () -> Model.fork_into m cm)
      in
      spaces := Array.append !spaces [| ci, cm |];
      r
    | Destroy s ->
      let i, m = pick s in
      both (fun () -> Pmap.destroy i) (fun () -> Model.destroy m)
  in
  let rec go = function
    | [] -> true
    | op :: rest ->
      (match step op with
       | `Same -> same () && go rest
       | `Stop -> true
       | `Differ -> false)
  in
  go ops

let qcheck_model =
  [ QCheck.Test.make ~name:"pmap agrees with the per-page reference model"
      ~count:800 arb_ops agree ]

(* --- Directed checks on a booted kernel ------------------------------------------ *)

module Runtime = Cheri_libc.Runtime

let spawn_idle k abi =
  Stdlib_src.install k ~path:"/bin/idle" ~abi
    "int main(int argc, char **argv) { return 0; }";
  Kernel.spawn k ~path:"/bin/idle" ~argv:[ "idle" ] ()

(* The ASan shadow is mapped in full (fork charges per mapped page) but
   costs nothing until touched. *)
let test_asan_shadow_untouched () =
  let k = Runtime.boot () in
  let p = spawn_idle k Abi.Asan in
  let asp = p.Proc.asp in
  let pmap = Addr_space.pmap asp in
  let mapped =
    List.fold_left (fun n r -> n + (r.Addr_space.r_len / page)) 0
      (Addr_space.regions asp)
  in
  let shadow = Option.get (Addr_space.region_by_name asp "shadow") in
  Alcotest.(check int) "shadow region pages" 65536 (shadow.Addr_space.r_len / page);
  Alcotest.(check int) "entry_count counts every mapped page" mapped
    (Pmap.entry_count pmap);
  Alcotest.(check bool) "only a few dozen pages touched" true
    (Pmap.touched_count pmap <= 64);
  Addr_space.destroy asp;
  Alcotest.(check int) "nothing left after destroy" 0 (Pmap.entry_count pmap);
  Alcotest.(check int) "no touched page left" 0 (Pmap.touched_count pmap)

(* Fork charges cycles per mapped page. The expected charges were measured
   on the one-entry-per-page page tables this representation replaced. *)
let test_fork_charge_unchanged () =
  List.iter
    (fun (abi, expected) ->
      let k = Runtime.boot () in
      let p = spawn_idle k abi in
      let a, _ = Malloc_impl.malloc k p 200 in
      ignore (Pmap.kernel_touch (Addr_space.pmap p.Proc.asp) a ~write:true
          ~on_rederive:ignore);
      let before = p.Proc.ctx.Cheri_isa.Cpu.cycles in
      (match Sys_impl.sys_fork k p with
       | Sys_impl.RInt _ -> ()
       | _ -> Alcotest.fail "fork did not return a pid");
      Alcotest.(check int)
        (Abi.to_string abi ^ " fork charge")
        expected (p.Proc.ctx.Cheri_isa.Cpu.cycles - before))
    [ Abi.Mips64, 17890; Abi.Cheriabi, 18484; Abi.Asan, 3622480 ]

(* --- Frame allocation order ------------------------------------------------------ *)

(* The frame allocator as it was when it built one list of every free frame
   at creation: allocation pops the head, a frame freed by its last decref
   is pushed back on. *)
module List_phys = struct
  type t = { mutable free : int list; refcount : int array }

  let create total =
    let rec frames i acc = if i < 1 then acc else frames (i - 1) (i :: acc) in
    { free = frames (total - 1) []; refcount = Array.make total 0 }

  let alloc t =
    match t.free with
    | [] -> None
    | f :: rest ->
      t.free <- rest;
      t.refcount.(f) <- 1;
      Some f

  let incref t f = t.refcount.(f) <- t.refcount.(f) + 1

  let decref t f =
    t.refcount.(f) <- t.refcount.(f) - 1;
    if t.refcount.(f) = 0 then t.free <- f :: t.free
end

(* A seeded alloc/incref/decref sequence that runs the pool dry several
   times: [Phys] must hand out the same frame numbers as the list-based
   allocator at every step. *)
let test_phys_order_matches_list () =
  let total = 48 in
  let p = Phys.create (Tagmem.create ~size:(total * page)) in
  let r = List_phys.create total in
  let st = Random.State.make [| 2019 |] in
  (* One entry per reference held. *)
  let held = ref [] in
  let take_held () =
    let i = Random.State.int st (List.length !held) in
    let f = List.nth !held i in
    held := List.filteri (fun j _ -> j <> i) !held;
    f
  in
  for step = 1 to 4000 do
    match Random.State.int st 8 with
    | 0 | 1 | 2 | 3 ->
      let got = try Some (Phys.alloc_frame p) with Phys.Out_of_memory -> None in
      Alcotest.(check (option int)) (Printf.sprintf "step %d alloc" step)
        (List_phys.alloc r) got;
      Option.iter (fun f -> held := f :: !held) got
    | 4 when !held <> [] ->
      let f = List.nth !held (Random.State.int st (List.length !held)) in
      Phys.incref p f;
      List_phys.incref r f;
      held := f :: !held
    | _ when !held <> [] ->
      let f = take_held () in
      Phys.decref p f;
      List_phys.decref r f;
      Alcotest.(check int) (Printf.sprintf "step %d free count" step)
        (List.length r.List_phys.free) (Phys.free_frames p)
    | _ -> ()
  done

let suite =
  [ "asan shadow stays untouched", `Quick, test_asan_shadow_untouched;
    "fork charge unchanged", `Quick, test_fork_charge_unchanged;
    "phys allocation order matches the list allocator", `Quick,
    test_phys_order_matches_list ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_model
