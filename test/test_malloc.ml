(* Sharded-allocator tests: the snmalloc-style choreography (remote-free
   queues, adoption, ownership-change sweeps), the capptr narrowing
   discipline, and the three allocator-state bugfixes from the issue —
   fork losing arena metadata, the arena-table leak across exec/exit,
   and representability-driven class selection. *)

module Cap = Cheri_cap.Cap
module Compress = Cheri_cap.Compress
module Abi = Cheri_core.Abi
module Kernel = Cheri_kernel.Kernel
module Kstate = Cheri_kernel.Kstate
module Sys_impl = Cheri_kernel.Sys_impl
module Proc = Cheri_kernel.Proc
module Malloc_impl = Cheri_libc.Malloc_impl
module Capptr = Cheri_libc.Capptr
module Tagmem = Cheri_tagmem.Tagmem
module Pmap = Cheri_vm.Pmap
module Addr_space = Cheri_vm.Addr_space
module Stdlib_src = Cheri_workloads.Stdlib_src
module Malloc_bench = Cheri_workloads.Malloc_bench

module Runtime = Cheri_libc.Runtime

let proc_for_alloc ?(abi = Abi.Cheriabi) k =
  Stdlib_src.install k ~path:"/bin/idle" ~abi
    "int main(int argc, char **argv) { return 0; }";
  Kernel.spawn k ~path:"/bin/idle" ~argv:[ "idle" ] ()

(* Fork a stopped process through the real syscall path (so the
   [on_fork] allocator hook runs) and return the child. *)
let fork_proc k (p : Proc.t) =
  match Sys_impl.sys_fork k p with
  | Sys_impl.RInt pid -> Option.get (Kstate.find_proc k pid)
  | _ -> Alcotest.fail "fork did not return a pid"

let exited n = function
  | Some (Proc.Exited c), _ when c = n -> ()
  | Some (Proc.Exited c), out -> Alcotest.failf "exit %d (%s)" c out
  | Some (Proc.Signaled s), (out : string) ->
    Alcotest.failf "signal %d (%s)" s out
  | None, _ -> Alcotest.fail "timeout"

(* --- class-table invariant (representable-length class selection) ------- *)

let test_class_table_invariant () =
  Alcotest.(check bool) "shipping table is sound" true
    (Malloc_impl.class_table_ok Malloc_impl.size_classes);
  Alcotest.(check bool) "empty table rejected" false
    (Malloc_impl.class_table_ok [||]);
  Alcotest.(check bool) "non-positive class rejected" false
    (Malloc_impl.class_table_ok [| 0; 16 |]);
  Alcotest.(check bool) "misaligned class rejected" false
    (Malloc_impl.class_table_ok [| 16; 40 |]);
  Alcotest.(check bool) "descending table rejected" false
    (Malloc_impl.class_table_ok [| 32; 16 |]);
  Alcotest.(check bool) "class larger than a chunk rejected" false
    (Malloc_impl.class_table_ok [| 16; Malloc_impl.chunk_size |]);
  (* Every class is exactly representable: picking the class by
     [crrl len] can therefore never overrun the slot. *)
  Array.iter
    (fun c ->
      Alcotest.(check int) "class size crrl-exact" c (Compress.crrl c))
    Malloc_impl.size_classes

(* --- capptr discipline: exact bounds, no tag amplification -------------- *)

let test_capptr_rejects_untagged_parent () =
  Alcotest.(check bool) "untagged root refused" true
    (match Capptr.of_root Cap.null with
     | _ -> false
     | exception Capptr.Discipline _ -> true)

let qcheck_discipline =
  let open QCheck in
  [ Test.make ~count:15 ~name:"every returned capability obeys the capptr discipline"
      (small_list (int_range 1 40_000))
      (fun sizes ->
        let k = Runtime.boot () in
        let p = proc_for_alloc k in
        List.for_all
          (fun len ->
            let addr, cap = Malloc_impl.malloc k p len in
            match cap with
            | None -> false
            | Some c -> Capptr.obeys c ~addr ~len:(Compress.crrl len))
          (1 :: 32_768 :: sizes));
    Test.make ~count:15 ~name:"no two live allocations overlap (representable windows)"
      (small_list (int_range 1 40_000))
      (fun sizes ->
        let k = Runtime.boot () in
        let p = proc_for_alloc k in
        let spans =
          List.map
            (fun len ->
              let addr, _ = Malloc_impl.malloc k p len in
              addr, addr + Compress.crrl len)
            (16 :: 5000 :: 32_768 :: sizes)
        in
        List.for_all
          (fun (b1, t1) ->
            List.for_all
              (fun (b2, t2) -> b1 = b2 || t1 <= b2 || t2 <= b1)
              spans)
          spans) ]

(* --- bugfix: fork must carry allocator metadata to the child ------------ *)

let test_fork_then_free_api () =
  let k = Runtime.boot () in
  let p = proc_for_alloc k in
  let a, _ = Malloc_impl.malloc k p 100 in
  let child = fork_proc k p in
  Alcotest.(check bool) "child lands on a different shard" true
    (Malloc_impl.affinity child <> Malloc_impl.affinity p);
  (* On the buggy allocator the child's principal keyed an empty arena
     and this raised [Alloc_fault EINVAL]. *)
  let info = Malloc_impl.free k child a in
  Alcotest.(check int) "child freed the inherited object" 100
    info.Malloc_impl.ai_size;
  (* The parent's own live table is untouched by the child's free. *)
  Alcotest.(check bool) "parent still owns its allocation" true
    (Malloc_impl.lookup k p a <> None)

let fork_free_src =
  {| int main(int argc, char **argv) {
       char *a = malloc(100);
       char *b = malloc(200);
       a[0] = 7;
       int pid = fork();
       if (pid == 0) {
         free(a);                /* inherited pointer: forked metadata */
         char *c = malloc(50);
         c[0] = 1;
         free(c);
         exit(3);
       }
       int st = 0;
       wait(&st);
       if (a[0] != 7) return 1;  /* child's free stayed in its COW frames */
       free(a);
       free(b);
       if (st == 768) return 0;  /* child exited 3 */
       return 2;
     } |}

let test_fork_then_free_program () =
  List.iter
    (fun abi ->
      let k = Runtime.boot () in
      Stdlib_src.install k ~path:"/bin/t" ~abi fork_free_src;
      let status, out, _ = Kernel.run_program k ~path:"/bin/t" ~argv:[ "t" ] in
      exited 0 (status, out))
    [ Abi.Cheriabi; Abi.Mips64 ]

(* --- remote-free choreography + COW-safe ownership-change sweep --------- *)

let test_remote_free_choreography () =
  let k = Runtime.boot () in
  let p = proc_for_alloc k in
  let a, cap = Malloc_impl.malloc k p 200 in
  let c = Option.get cap in
  (* Plant a capability in the object before forking: the ownership
     change sweep will have a real tag to clear. *)
  let ppmap = Addr_space.pmap p.Proc.asp in
  let mem = Pmap.mem ppmap in
  let parent_pa = Option.get (Pmap.kernel_touch ppmap a ~write:true
      ~on_rederive:ignore) in
  Tagmem.write_cap mem parent_pa c;
  Alcotest.(check bool) "tag planted" true (Tagmem.get_tag mem parent_pa);

  let child = fork_proc k p in
  let cpmap = Addr_space.pmap child.Proc.asp in

  (* 1. The child's free of the inherited object is a cross-shard free:
     it message-passes the slot to the owning shard's queue. *)
  ignore (Malloc_impl.free k child a);
  let st = Malloc_impl.stats k child in
  Alcotest.(check int) "remote free enqueued" 1 (List.assoc "remote_enq" st);
  Alcotest.(check int) "slot parked on the queue" 1
    (List.assoc "pending_remote" st);
  Alcotest.(check int) "no sweep yet" 0 (List.assoc "owner_sweeps" st);
  Alcotest.(check bool) "tag untouched while parked" true
    (Tagmem.get_tag mem parent_pa);

  (* 2. The child's next malloc drains the queue (via adoption of the
     quiescent parent shard), sweeps the slot once at the ownership
     change, and hands the same slot back out. *)
  let a2, _ = Malloc_impl.malloc k child 200 in
  Alcotest.(check int) "drained slot recycled" a a2;
  let st = Malloc_impl.stats k child in
  Alcotest.(check int) "remote slot drained" 1
    (List.assoc "remote_drained" st);
  Alcotest.(check int) "queue empty after drain" 0
    (List.assoc "pending_remote" st);
  Alcotest.(check int) "swept exactly once, at the ownership change" 1
    (List.assoc "owner_sweeps" st);
  Alcotest.(check int) "no reuse sweep for a clean slot" 0
    (List.assoc "reuse_sweeps" st);
  Alcotest.(check bool) "sibling chunks adopted" true
    (List.assoc "adoptions" st > 0);

  (* 3. COW regression: the sweep privatized the child's frame first, so
     the parent — which still shares nothing with the child now — keeps
     its planted capability. A sweep through the shared frame (the old
     [resident_pa] behaviour) would have stripped the parent's tag. *)
  let child_pa = Option.get (Pmap.kernel_touch cpmap a ~write:false
      ~on_rederive:ignore) in
  Alcotest.(check bool) "child frame was privatized" true
    (child_pa <> parent_pa);
  Alcotest.(check bool) "child's recycled memory is untagged" false
    (Tagmem.get_tag mem child_pa);
  Alcotest.(check bool) "parent's capability survived the child's sweep" true
    (Tagmem.get_tag mem parent_pa);

  (* 4. After adoption the chunk belongs to the child's shard: the next
     free is local (parks dirty), and its reuse sweeps — without a new
     ownership-change sweep. *)
  ignore (Malloc_impl.free k child a2);
  let a3, _ = Malloc_impl.malloc k child 200 in
  Alcotest.(check int) "local free list reused" a2 a3;
  let st = Malloc_impl.stats k child in
  Alcotest.(check int) "dirty slot swept at reuse" 1
    (List.assoc "reuse_sweeps" st);
  Alcotest.(check int) "still exactly one ownership-change sweep" 1
    (List.assoc "owner_sweeps" st)

(* --- bugfix: arena table must not leak across exec/exit ----------------- *)

let test_exec_exit_leak_loop () =
  let k = Runtime.boot () in
  Stdlib_src.install k ~path:"/bin/leaf" ~abi:Abi.Cheriabi
    {| int main(int argc, char **argv) {
         char *p = malloc(300);
         p[0] = 1;
         free(p);
         return 0;
       } |};
  Stdlib_src.install k ~path:"/bin/t" ~abi:Abi.Cheriabi
    {| int main(int argc, char **argv) {
         char *p = malloc(64);
         p[0] = 1;              /* heap exists when execve tears us down */
         char *nargv[2];
         nargv[0] = "leaf";
         nargv[1] = 0;
         execve("/bin/leaf", nargv, (char**)0);
         return 99;
       } |};
  let baseline = Malloc_impl.heap_count k in
  for _ = 1 to 100 do
    let status, out, _ = Kernel.run_program k ~path:"/bin/t" ~argv:[ "t" ] in
    exited 0 (status, out)
  done;
  Alcotest.(check int) "heap table back to baseline after 100 exec+exit"
    baseline (Malloc_impl.heap_count k);
  (* Each run evicts twice: the pre-exec heap at execve, the leaf heap at
     exit. The evicted counter proves eviction (not lazy creation) is why
     the table is small. *)
  Alcotest.(check int) "200 evictions recorded" 200
    (List.assoc "evicted" (Malloc_impl.machine_counters k))

(* --- counter conservation across fork, eviction and exec ------------------ *)

(* The names fleet snapshots print on their [alloc=] line, in order. *)
let snapshot_names =
  [ "mallocs"; "frees"; "remote_enq"; "remote_drained"; "drains";
    "owner_sweeps"; "reuse_sweeps"; "adoptions"; "tags_cleared";
    "unmap_leaks"; "pending_remote"; "heaps"; "evicted" ]

(* [machine_counters] must be the retired record plus every live heap's
   and shard's records. The sum is taken here over the rendered records,
   so it does not go through [Malloc_impl.add]. *)
let check_conserved k step =
  let st = Malloc_impl.state k in
  let records =
    Malloc_impl.render st.Malloc_impl.retired
    :: Hashtbl.fold
         (fun _ (h : Malloc_impl.heap) acc ->
           Malloc_impl.render h.Malloc_impl.h_c
           :: Array.fold_left
                (fun acc (s : Malloc_impl.shard) ->
                  Malloc_impl.render s.Malloc_impl.sh_c :: acc)
                acc h.Malloc_impl.h_shards)
         st.Malloc_impl.heaps []
  in
  let sum =
    List.fold_left
      (List.map2 (fun (n, a) (_, b) -> n, a + b))
      (List.hd records) (List.tl records)
  in
  let mc = Malloc_impl.machine_counters k in
  Alcotest.(check (list string)) (step ^ ": snapshot names and order")
    snapshot_names (List.map fst mc);
  List.iter
    (fun (n, v) ->
      Alcotest.(check int) (Printf.sprintf "%s: %s conserved" step n) v
        (List.assoc n mc))
    sum;
  mc

(* Evicting [p]'s heap loses no count: the ten counters carry over into
   the retired record, and the only change is that its parked remote
   slots are counted as drained (one batch per non-empty queue). *)
let evict_checked k (p : Proc.t) step evict =
  let before = Malloc_impl.machine_counters k in
  let pending = List.assoc "pending_remote" (Malloc_impl.stats k p) in
  let batches =
    Array.fold_left
      (fun n s -> if List.assoc "pending" s > 0 then n + 1 else n)
      0 (Malloc_impl.shard_stats k p)
  in
  evict ();
  let after = check_conserved k step in
  let expect =
    List.map
      (fun (n, v) ->
        n,
        match n with
        | "remote_drained" -> v + pending
        | "drains" -> v + batches
        | "pending_remote" -> v - pending
        | "heaps" -> v - 1
        | "evicted" -> v + 1
        | _ -> v)
      before
  in
  List.iter2
    (fun (n, e) (_, a) ->
      Alcotest.(check int) (Printf.sprintf "%s: %s after eviction" step n) e a)
    expect after;
  pending

let test_counters_conserved () =
  let k = Runtime.boot () in
  let p = proc_for_alloc k in
  let objs = Array.init 8 (fun _ -> fst (Malloc_impl.malloc k p 48)) in
  (* A planted capability gives the owner-change sweep a tag to clear. *)
  let _, cap = Malloc_impl.malloc k p 48 in
  let ppmap = Addr_space.pmap p.Proc.asp in
  Tagmem.write_cap (Pmap.mem ppmap)
    (Option.get (Pmap.kernel_touch ppmap objs.(0) ~write:true
        ~on_rederive:ignore))
    (Option.get cap);
  (* A large region unmapped behind the allocator's back: its free
     counts an unmap leak. *)
  let big, _ = Malloc_impl.malloc k p 100_000 in
  Addr_space.unmap p.Proc.asp ~start:big ~len:100_000;
  ignore (Malloc_impl.free k p big);
  ignore (check_conserved k "parent");
  (* Child A frees inherited objects (remote), then allocates: it drains
     and adopts (owner sweeps), and recycles a dirty local slot (reuse
     sweep). *)
  let a = fork_proc k p in
  for i = 0 to 3 do ignore (Malloc_impl.free k a objs.(i)) done;
  ignore (check_conserved k "child A remote frees");
  let x, _ = Malloc_impl.malloc k a 48 in
  ignore (Malloc_impl.free k a x);
  ignore (Malloc_impl.malloc k a 48);
  let mc = check_conserved k "child A churn" in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " exercised") true (List.assoc n mc > 0))
    [ "mallocs"; "frees"; "remote_enq"; "remote_drained"; "drains";
      "owner_sweeps"; "reuse_sweeps"; "adoptions"; "tags_cleared";
      "unmap_leaks" ];
  (* Child B frees inherited objects and exits with them still parked:
     eviction settles its queue. *)
  let b = fork_proc k p in
  for i = 4 to 7 do ignore (Malloc_impl.free k b objs.(i)) done;
  ignore (check_conserved k "child B remote frees");
  let parked =
    evict_checked k b "child B exit" (fun () ->
        ignore (Sys_impl.sys_exit k b 0))
  in
  Alcotest.(check int) "child B exited with slots parked" 4 parked;
  ignore
    (evict_checked k a "child A exit" (fun () ->
         ignore (Sys_impl.sys_exit k a 0)));
  (* The parent's execve evicts its heap; the new image starts a fresh
     one. *)
  let image =
    match Cheri_kernel.Vfs.lookup k.Kstate.vfs "/bin/idle" with
    | Some (Cheri_kernel.Vfs.Exe (_, image)) -> image
    | _ -> Alcotest.fail "/bin/idle not installed"
  in
  ignore
    (evict_checked k p "parent exec" (fun () ->
         Cheri_kernel.Exec.exec_image k p ~abi:Abi.Cheriabi ~image
           ~argv:[ "idle" ] ~envv:[]));
  ignore (Malloc_impl.malloc k p 48);
  ignore (check_conserved k "after exec")

(* --- determinism + quiesce gates over the contention workload ----------- *)

let run_contention () =
  let k = Runtime.boot () in
  Stdlib_src.install k ~path:"/bin/mc" ~abi:Abi.Cheriabi
    (Malloc_bench.contention_src ~objs:24 ~generations:3 ~churn:10 ());
  let status, out, _ = Kernel.run_program k ~path:"/bin/mc" ~argv:[ "mc" ] in
  exited 0 (status, out);
  out, Malloc_impl.machine_counters k

let test_contention_deterministic () =
  let out1, c1 = run_contention () in
  let out2, c2 = run_contention () in
  Alcotest.(check string) "console identical across runs" out1 out2;
  Alcotest.(check bool) "workload produced remote frees" true
    (List.assoc "remote_enq" c1 > 0);
  Alcotest.(check bool) "workload produced ownership-change sweeps" true
    (List.assoc "owner_sweeps" c1 > 0);
  (* Quiesce gates: every enqueued remote slot was drained, and nothing
     is parked at the end. *)
  Alcotest.(check int) "remote queues fully drained at quiesce"
    (List.assoc "remote_enq" c1)
    (List.assoc "remote_drained" c1);
  Alcotest.(check int) "no pending remote slots at quiesce" 0
    (List.assoc "pending_remote" c1);
  List.iter2
    (fun (n1, v1) (n2, v2) ->
      Alcotest.(check string) "counter order" n1 n2;
      Alcotest.(check int) (Printf.sprintf "counter %s identical" n1) v1 v2)
    c1 c2

let suite =
  [ Alcotest.test_case "class table invariant" `Quick test_class_table_invariant;
    Alcotest.test_case "capptr rejects untagged parents" `Quick
      test_capptr_rejects_untagged_parent;
    Alcotest.test_case "fork then free (API)" `Quick test_fork_then_free_api;
    Alcotest.test_case "fork then free (programs, both ABIs)" `Quick
      test_fork_then_free_program;
    Alcotest.test_case "remote-free choreography + COW-safe sweep" `Quick
      test_remote_free_choreography;
    Alcotest.test_case "exec/exit loop does not leak arenas" `Quick
      test_exec_exit_leak_loop;
    Alcotest.test_case "contention workload deterministic + quiesced" `Quick
      test_contention_deterministic;
    Alcotest.test_case "counters conserved across fork, eviction and exec"
      `Quick test_counters_conserved ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_discipline
