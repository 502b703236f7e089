(* C-runtime tests: the allocator's bounds/permissions discipline and the
   capability-preserving memory builtins, exercised through real CheriABI
   programs plus direct allocator checks. *)

module Cap = Cheri_cap.Cap
module Perms = Cheri_cap.Perms
module Compress = Cheri_cap.Compress
module Abi = Cheri_core.Abi
module Kernel = Cheri_kernel.Kernel
module Proc = Cheri_kernel.Proc
module Signo = Cheri_kernel.Signo
module Malloc_impl = Cheri_libc.Malloc_impl
module Tagmem = Cheri_tagmem.Tagmem
module Pmap = Cheri_vm.Pmap
module Addr_space = Cheri_vm.Addr_space

module Runtime = Cheri_libc.Runtime

(* A stopped CheriABI process to allocate against. *)
let proc_for_alloc k =
  Cheri_workloads.Stdlib_src.install k ~path:"/bin/idle" ~abi:Abi.Cheriabi
    "int main(int argc, char **argv) { return 0; }";
  Kernel.spawn k ~path:"/bin/idle" ~argv:[ "idle" ] ()

let test_malloc_bounds_exact () =
  let k = Runtime.boot () in
  let p = proc_for_alloc k in
  List.iter
    (fun len ->
      let addr, cap = Malloc_impl.malloc k p len in
      match cap with
      | Some c ->
        Alcotest.(check int) "cursor at base" addr (Cap.addr c);
        Alcotest.(check int)
          (Printf.sprintf "len %d bounds = crrl" len)
          (Compress.crrl len) (Cap.length c)
      | None -> Alcotest.fail "cheriabi malloc must return a capability")
    [ 1; 16; 24; 100; 4096; 5000; 100_000 ]

let test_malloc_perms_stripped () =
  let k = Runtime.boot () in
  let p = proc_for_alloc k in
  let _, cap = Malloc_impl.malloc k p 64 in
  let c = Option.get cap in
  Alcotest.(check bool) "no VMMAP" false (Perms.has (Cap.perms c) Perms.vmmap);
  Alcotest.(check bool) "no EXECUTE" false
    (Perms.has (Cap.perms c) Perms.execute);
  Alcotest.(check bool) "read/write" true
    (Perms.has (Cap.perms c) Perms.load && Perms.has (Cap.perms c) Perms.store)

let test_free_reuses () =
  let k = Runtime.boot () in
  let p = proc_for_alloc k in
  let a1, _ = Malloc_impl.malloc k p 64 in
  ignore (Malloc_impl.free k p a1);
  let a2, _ = Malloc_impl.malloc k p 64 in
  Alcotest.(check int) "same class reuses the slot" a1 a2

let test_double_free_rejected () =
  let k = Runtime.boot () in
  let p = proc_for_alloc k in
  let a, _ = Malloc_impl.malloc k p 64 in
  ignore (Malloc_impl.free k p a);
  Alcotest.(check bool) "double free faults" true
    (match Malloc_impl.free k p a with
     | _ -> false
     | exception Malloc_impl.Alloc_fault _ -> true)

let test_allocations_disjoint () =
  let k = Runtime.boot () in
  let p = proc_for_alloc k in
  let spans =
    List.init 50 (fun i ->
        let len = 16 + (i * 13 mod 400) in
        let a, _ = Malloc_impl.malloc k p len in
        a, a + len)
  in
  List.iteri
    (fun i (b1, t1) ->
      List.iteri
        (fun j (b2, t2) ->
          if i < j then
            Alcotest.(check bool) "disjoint" true (t1 <= b2 || t2 <= b1))
        spans)
    spans

let test_free_sweeps_tags () =
  let k = Runtime.boot () in
  let p = proc_for_alloc k in
  let addr, cap = Malloc_impl.malloc k p 64 in
  let c = Option.get cap in
  let pmap = Addr_space.pmap p.Proc.asp in
  (* Store a capability into the allocation, then free it. Sweeps are
     deferred to the ownership change: a locally-freed slot parks dirty
     and is swept when the slot is handed out again — the recycled
     allocation can never observe the old owner's capability. *)
  let pa = Option.get (Pmap.kernel_touch pmap addr ~write:true
      ~on_rederive:ignore) in
  let mem = Pmap.mem pmap in
  Tagmem.write_cap mem pa c;
  Alcotest.(check bool) "tag present before free" true (Tagmem.get_tag mem pa);
  ignore (Malloc_impl.free k p addr);
  Alcotest.(check bool) "sweep deferred until reuse" true
    (Tagmem.get_tag mem pa);
  (* The recycled slot hands out untagged memory. *)
  let addr2, _ = Malloc_impl.malloc k p 64 in
  Alcotest.(check int) "slot reused" addr addr2;
  Alcotest.(check bool) "no stale tag after reuse" false (Tagmem.get_tag mem pa);
  let st = Malloc_impl.stats k p in
  Alcotest.(check bool) "sweep counted in stats" true
    (List.assoc "tags_cleared" st >= 1);
  Alcotest.(check int) "counted as a reuse sweep, exactly once" 1
    (List.assoc "reuse_sweeps" st);
  Alcotest.(check int) "no ownership-change sweep for a local free" 0
    (List.assoc "owner_sweeps" st)

let test_double_free_stats_consistent () =
  let k = Runtime.boot () in
  let p = proc_for_alloc k in
  let a, _ = Malloc_impl.malloc k p 64 in
  ignore (Malloc_impl.free k p a);
  let st1 = Malloc_impl.stats k p in
  (* A rejected double free must not perturb any counter. *)
  (try ignore (Malloc_impl.free k p a)
   with Malloc_impl.Alloc_fault _ -> ());
  let st2 = Malloc_impl.stats k p in
  Alcotest.(check int) "frees not double counted"
    (List.assoc "frees" st1) (List.assoc "frees" st2);
  Alcotest.(check int) "tag sweeps not double counted"
    (List.assoc "tags_cleared" st1) (List.assoc "tags_cleared" st2);
  Alcotest.(check int) "nothing live" 0 (List.assoc "live" st2)

let test_large_alloc_unmapped_after_free () =
  let k = Runtime.boot () in
  let p = proc_for_alloc k in
  let a, _ = Malloc_impl.malloc k p 100_000 in
  ignore (Malloc_impl.free k p a);
  (* The dedicated region is gone, and the unmap succeeded (no leak). *)
  Alcotest.(check bool) "unmapped" true
    (Pmap.kernel_touch (Addr_space.pmap p.Proc.asp) a ~write:false
        ~on_rederive:ignore = None);
  let st = Malloc_impl.stats k p in
  Alcotest.(check int) "no unmap leak" 0 (List.assoc "unmap_leaks" st)

(* --- Behaviour through compiled programs ------------------------------------------ *)

let run_c ~abi src =
  let k = Runtime.boot () in
  Cheri_workloads.Stdlib_src.install k ~path:"/bin/t" ~abi src;
  Kernel.run_program k ~path:"/bin/t" ~argv:[ "t" ]

let check_ok ~abi src =
  match run_c ~abi src with
  | Some (Proc.Exited 0), _, _ -> ()
  | Some (Proc.Exited c), out, _ -> Alcotest.failf "exit %d (%s)" c out
  | Some (Proc.Signaled s), _, p ->
    Alcotest.failf "%s (%s)" (Signo.name s)
      (String.concat ";" p.Proc.fault_log)
  | None, _, _ -> Alcotest.fail "timeout"

let test_memcpy_preserves_caps () =
  (* Copying an array of pointers must preserve their tags (the qsort /
     pointer-propagation requirement of §4). *)
  check_ok ~abi:Abi.Cheriabi
    {|
      int a = 1;
      int b = 2;
      int *src[2];
      int *dst[2];
      int main(int argc, char **argv) {
        src[0] = &a;
        src[1] = &b;
        memcpy((char*)dst, (char*)src, 2 * sizeof(int*));
        assert(*dst[0] == 1);
        assert(*dst[1] == 2);
        return 0;
      }
    |}

let test_memcpy_unaligned_strips () =
  (* An unaligned copy of capability bytes strips tags: dereferencing the
     copied "pointer" traps. *)
  let status, _, _ =
    run_c ~abi:Abi.Cheriabi
      {|
        int a = 1;
        int *src[2];
        char raw[64];
        int main(int argc, char **argv) {
          src[0] = &a;
          memcpy(raw + 1, (char*)src, sizeof(int*));
          memcpy((char*)src + 1, raw + 2, sizeof(int*) - 1);
          int **p = (int**)raw;
          /* raw+1 holds the bytes but never a tag *)  */
          memcpy((char*)src, raw + 1, sizeof(int*));
          return **src;
        }
      |}
  in
  match status with
  | Some (Proc.Signaled s) when s = Signo.sigprot -> ()
  | Some (Proc.Exited c) -> Alcotest.failf "survived with exit %d" c
  | _ -> Alcotest.fail "expected SIGPROT"

(* A request longer than any capability can bound has no CRRL rounding:
   malloc must fail with NULL (once, this looped forever in the
   compression model's exponent search). *)
let test_malloc_unrepresentable_null () =
  List.iter
    (fun abi ->
      check_ok ~abi
        {|
          int main(int argc, char **argv) {
            char *p = malloc((1 << 61) + 1);
            assert(p == 0);
            char *q = malloc(16);
            assert(q != 0);
            return 0;
          }
        |})
    [ Abi.Cheriabi; Abi.Mips64 ]

let test_strlen_respects_bounds () =
  let status, _, _ =
    run_c ~abi:Abi.Cheriabi
      {|
        int main(int argc, char **argv) {
          char *p = malloc(8);
          memset(p, 'x', 8);   /* no NUL inside the allocation *)  */
          return strlen(p);
        }
      |}
  in
  match status with
  | Some (Proc.Signaled s) when s = Signo.sigprot -> ()
  | _ -> Alcotest.fail "strlen must fault at the capability boundary"

let test_calloc_and_realloc_chain () =
  List.iter
    (fun abi ->
      check_ok ~abi
        {|
          int main(int argc, char **argv) {
            int *p = (int*)calloc(8, sizeof(int));
            int i;
            for (i = 0; i < 8; i = i + 1) assert(p[i] == 0);
            for (i = 0; i < 8; i = i + 1) p[i] = i * i;
            p = (int*)realloc((char*)p, 64 * sizeof(int));
            for (i = 0; i < 8; i = i + 1) assert(p[i] == i * i);
            p = (int*)realloc((char*)p, 4 * sizeof(int));
            for (i = 0; i < 4; i = i + 1) assert(p[i] == i * i);
            free((char*)p);
            return 0;
          }
        |})
    [ Abi.Mips64; Abi.Cheriabi; Abi.Asan ]

let test_realloc_rebounds () =
  (* After realloc shrinks an allocation, the old wider capability is gone;
     the new one is bounded to the new size. *)
  let status, _, _ =
    run_c ~abi:Abi.Cheriabi
      {|
        int main(int argc, char **argv) {
          char *p = malloc(64);
          p = realloc(p, 16);
          p[16] = 1;
          return 0;
        }
      |}
  in
  match status with
  | Some (Proc.Signaled s) when s = Signo.sigprot -> ()
  | _ -> Alcotest.fail "expected SIGPROT beyond the reallocated bounds"

let test_asan_uaf_detected () =
  (* ASan's poisoned freed payload catches use-after-free — which CheriABI
     (spatial only) does not. *)
  let src =
    {|
      int main(int argc, char **argv) {
        char *p = malloc(32);
        p[0] = 1;
        free(p);
        return p[0];
      }
    |}
  in
  (match run_c ~abi:Abi.Asan src with
   | Some (Proc.Signaled s), _, _ when s = Signo.sigabrt -> ()
   | _ -> Alcotest.fail "asan should catch UAF");
  match run_c ~abi:Abi.Cheriabi src with
  | Some (Proc.Exited _), _, _ -> ()
  | _ -> Alcotest.fail "cheriabi UAF within bounds is not spatial"

let test_tls_isolation_after_exec () =
  (* Arenas are per-principal: a fresh exec gets a fresh heap. *)
  let k = Runtime.boot () in
  let p = proc_for_alloc k in
  let a1, _ = Malloc_impl.malloc k p 64 in
  ignore a1;
  let st = Malloc_impl.stats k p in
  Alcotest.(check int) "one live alloc" 1 (List.assoc "live" st);
  (* run the idle program to completion: its own mallocs are separate *)
  let _ = Kernel.run ~max_steps:1_000_000 k in
  ()

let suite =
  [ "malloc bounds are CRRL-exact", `Quick, test_malloc_bounds_exact;
    "malloc strips VMMAP/EXECUTE", `Quick, test_malloc_perms_stripped;
    "free reuses slots", `Quick, test_free_reuses;
    "double free rejected", `Quick, test_double_free_rejected;
    "free sweeps stale tags", `Quick, test_free_sweeps_tags;
    "double free leaves stats consistent", `Quick,
    test_double_free_stats_consistent;
    "allocations disjoint", `Quick, test_allocations_disjoint;
    "large alloc unmapped after free", `Quick,
    test_large_alloc_unmapped_after_free;
    "memcpy preserves capabilities", `Quick, test_memcpy_preserves_caps;
    "unaligned copies strip tags", `Quick, test_memcpy_unaligned_strips;
    "malloc of an unrepresentable length is NULL", `Quick,
    test_malloc_unrepresentable_null;
    "strlen respects bounds", `Quick, test_strlen_respects_bounds;
    "calloc/realloc chain", `Quick, test_calloc_and_realloc_chain;
    "realloc rebounds", `Quick, test_realloc_rebounds;
    "asan catches UAF; cheriabi does not", `Quick, test_asan_uaf_detected;
    "arenas per principal", `Quick, test_tls_isolation_after_exec ]
