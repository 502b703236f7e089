(* Compiler tests: CSmall programs run end-to-end on the simulated system
   under all three targets. Functional behaviour must agree across ABIs
   for well-defined programs; protection behaviour must differ for the
   buggy ones. *)

module Abi = Cheri_core.Abi
module Kernel = Cheri_kernel.Kernel
module Proc = Cheri_kernel.Proc
module Signo = Cheri_kernel.Signo
module Compile = Cheri_cc.Compile
module Runtime = Cheri_libc.Runtime

let all_abis = [ Abi.Mips64; Abi.Cheriabi; Abi.Asan ]

let run_src ?(abi = Abi.Cheriabi) ?(argv = [ "prog" ]) ?(libs = []) src =
  let k = Runtime.boot () in
  Compile.install k ~path:"/bin/t" ~abi ~libs src;
  let status, out, p = Kernel.run_program k ~path:"/bin/t" ~argv in
  status, out, p

(* Run under every ABI and require the same exit code and output. *)
let check_all ?argv ?libs ~exit_code ~output src =
  List.iter
    (fun abi ->
      let status, out, _ = run_src ~abi ?argv ?libs src in
      (match status with
       | Some (Proc.Exited c) when c = exit_code -> ()
       | Some (Proc.Exited c) ->
         Alcotest.failf "%s: exit %d, expected %d (out=%S)" (Abi.to_string abi)
           c exit_code out
       | Some (Proc.Signaled s) ->
         Alcotest.failf "%s: killed by %s (out=%S)" (Abi.to_string abi)
           (Signo.name s) out
       | None -> Alcotest.failf "%s: did not terminate" (Abi.to_string abi));
      Alcotest.(check string) (Abi.to_string abi ^ " output") output out)
    all_abis

let check_sig ~abi ~signal src =
  let status, out, _ = run_src ~abi src in
  match status with
  | Some (Proc.Signaled s) when s = signal -> ()
  | Some (Proc.Signaled s) ->
    Alcotest.failf "killed by %s, expected %s" (Signo.name s) (Signo.name signal)
  | Some (Proc.Exited c) ->
    Alcotest.failf "exited %d, expected %s (out=%S)" c (Signo.name signal) out
  | None -> Alcotest.fail "did not terminate"

(* --- Functional programs ---------------------------------------------------------- *)

let test_arith () =
  check_all ~exit_code:0 ~output:"42 -7 15 2 1"
    {|
      int main(int argc, char **argv) {
        int a = 6;
        int b = 7;
        print_int(a * b); print_str(" ");
        print_int(a - 13); print_str(" ");
        print_int((a | 8) + (b & 1)); print_str(" ");
        print_int(b / 3); print_str(" ");
        print_int(b % 3);
        return 0;
      }
    |}

let test_control_flow () =
  check_all ~exit_code:55 ~output:""
    {|
      int main(int argc, char **argv) {
        int sum = 0;
        for (int i = 1; i <= 10; i = i + 1) {
          sum = sum + i;
        }
        return sum;
      }
    |}

let test_while_break_continue () =
  check_all ~exit_code:0 ~output:"2 4 8 16"
    {|
      int main(int argc, char **argv) {
        int i = 1;
        int first = 1;
        while (1) {
          i = i * 2;
          if (i > 16) break;
          if (i == 0) continue;
          if (!first) print_str(" ");
          first = 0;
          print_int(i);
        }
        return 0;
      }
    |}

let test_functions_recursion () =
  check_all ~exit_code:0 ~output:"120 13"
    {|
      int fact(int n) {
        if (n <= 1) return 1;
        return n * fact(n - 1);
      }
      int fib(int n) {
        if (n < 2) return n;
        return fib(n - 1) + fib(n - 2);
      }
      int main(int argc, char **argv) {
        print_int(fact(5));
        print_str(" ");
        print_int(fib(7));
        return 0;
      }
    |}

let test_arrays_and_pointers () =
  check_all ~exit_code:0 ~output:"1 3 6 10 |10"
    {|
      int main(int argc, char **argv) {
        int a[4];
        int i;
        int acc = 0;
        for (i = 0; i < 4; i = i + 1) {
          acc = acc + i + 1;
          a[i] = acc;
        }
        for (i = 0; i < 4; i = i + 1) {
          print_int(a[i]);
          print_str(" ");
        }
        print_str("|");
        int *p = &a[3];
        print_int(*p);
        return 0;
      }
    |}

let test_pointer_arith () =
  check_all ~exit_code:0 ~output:"30 3"
    {|
      int main(int argc, char **argv) {
        int a[5];
        int i;
        for (i = 0; i < 5; i = i + 1) a[i] = i * 10;
        int *p = a;
        p = p + 3;
        print_int(*p);
        print_str(" ");
        int *q = a;
        print_int(p - q);
        return 0;
      }
    |}

let test_globals () =
  check_all ~exit_code:0 ~output:"7 49 hello"
    {|
      int counter = 7;
      int table[8];
      char *msg = "hello";
      int main(int argc, char **argv) {
        table[3] = counter * counter;
        print_int(counter);
        print_str(" ");
        print_int(table[3]);
        print_str(" ");
        print_str(msg);
        return 0;
      }
    |}

let test_structs () =
  check_all ~exit_code:0 ~output:"11 22 33"
    {|
      struct point { int x; int y; };
      struct rect { struct point a; struct point b; };
      int main(int argc, char **argv) {
        struct rect r;
        r.a.x = 11;
        r.a.y = 22;
        struct point *p = &r.b;
        p->x = 33;
        print_int(r.a.x); print_str(" ");
        print_int(r.a.y); print_str(" ");
        print_int(r.b.x);
        return 0;
      }
    |}

let test_struct_with_pointers () =
  (* Pointer-shape differences (PS): struct offsets differ per ABI but
     behaviour must not. *)
  check_all ~exit_code:0 ~output:"9 ok"
    {|
      struct node { int v; struct node *next; };
      int main(int argc, char **argv) {
        struct node a;
        struct node b;
        a.v = 4; b.v = 5;
        a.next = &b;
        b.next = 0;
        int sum = 0;
        struct node *p = &a;
        while (p) {
          sum = sum + p->v;
          p = p->next;
        }
        print_int(sum);
        print_str(" ok");
        return 0;
      }
    |}

let test_heap_linked_list () =
  check_all ~exit_code:0 ~output:"0 1 2 3 4"
    {|
      struct node { int v; struct node *next; };
      int main(int argc, char **argv) {
        struct node *head = 0;
        int i;
        for (i = 4; i >= 0; i = i - 1) {
          struct node *n = (struct node*)malloc(sizeof(struct node));
          n->v = i;
          n->next = head;
          head = n;
        }
        int first = 1;
        while (head) {
          if (!first) print_str(" ");
          first = 0;
          print_int(head->v);
          struct node *dead = head;
          head = head->next;
          free((char*)dead);
        }
        return 0;
      }
    |}

let test_strings_chars () =
  check_all ~exit_code:0 ~output:"5 olleh"
    {|
      int main(int argc, char **argv) {
        char buf[16];
        char *s = "hello";
        int n = strlen(s);
        print_int(n);
        print_str(" ");
        int i;
        for (i = 0; i < n; i = i + 1) buf[i] = s[n - 1 - i];
        buf[n] = 0;
        print_str(buf);
        return 0;
      }
    |}

let test_argv_main () =
  List.iter
    (fun abi ->
      let _, out, _ =
        run_src ~abi ~argv:[ "prog"; "alpha"; "beta" ]
          {|
            int main(int argc, char **argv) {
              print_int(argc);
              int i;
              for (i = 1; i < argc; i = i + 1) {
                print_str(" ");
                print_str(argv[i]);
              }
              return 0;
            }
          |}
      in
      Alcotest.(check string) (Abi.to_string abi) "3 alpha beta" out)
    all_abis

let test_shared_library_call () =
  let lib =
    ( "libmath",
      {|
        int square(int x) { return x * x; }
        int cube(int x) { return x * square(x); }
      |} )
  in
  List.iter
    (fun abi ->
      let status, out, _ =
        run_src ~abi ~libs:[ lib ]
          {|
            extern int square(int);
            extern int cube(int);
            int main(int argc, char **argv) {
              print_int(square(9));
              print_str(" ");
              print_int(cube(3));
              return 0;
            }
          |}
      in
      (match status with
       | Some (Proc.Exited 0) -> ()
       | _ -> Alcotest.failf "%s: bad status" (Abi.to_string abi));
      Alcotest.(check string) (Abi.to_string abi) "81 27" out)
    all_abis

let test_function_pointer_via_lib () =
  check_all ~exit_code:0 ~output:"14"
    {|
      int double_it(int x) { return x + x; }
      int main(int argc, char **argv) {
        print_int(double_it(7));
        return 0;
      }
    |}

let test_memcpy_memset () =
  check_all ~exit_code:0 ~output:"7 7 7 0 99"
    {|
      int main(int argc, char **argv) {
        int src[3];
        int dst[3];
        src[0] = 7; src[1] = 7; src[2] = 7;
        memcpy((char*)dst, (char*)src, 3 * sizeof(int));
        print_int(dst[0]); print_str(" ");
        print_int(dst[1]); print_str(" ");
        print_int(dst[2]); print_str(" ");
        memset((char*)dst, 0, sizeof(int));
        print_int(dst[0]); print_str(" ");
        char b[4];
        memset(b, '9', 2);
        b[2] = 0;
        print_str(b);
        return 0;
      }
    |}

let test_tls_globals () =
  check_all ~exit_code:0 ~output:"5 6"
    {|
      tls int tcounter;
      int main(int argc, char **argv) {
        tcounter = 5;
        print_int(tcounter);
        print_str(" ");
        tcounter = tcounter + 1;
        print_int(tcounter);
        return 0;
      }
    |}

let test_global_ptr_reloc () =
  (* Pointer-valued global initializer: an rtld capability relocation
     under CheriABI. *)
  check_all ~exit_code:0 ~output:"31337"
    {|
      int target = 31337;
      int *ptr = &target;
      int main(int argc, char **argv) {
        print_int(*ptr);
        return 0;
      }
    |}

let test_sizeof_differs () =
  (* sizeof(pointer) is ABI-visible: 8 legacy, 16 CheriABI. *)
  let sz abi =
    let _, out, _ =
      run_src ~abi
        "int main(int argc, char **argv) { print_int(sizeof(char*)); return 0; }"
    in
    out
  in
  Alcotest.(check string) "mips64" "8" (sz Abi.Mips64);
  Alcotest.(check string) "cheriabi" "16" (sz Abi.Cheriabi)

let test_syscalls_from_c () =
  check_all ~exit_code:0 ~output:"pid-ok file-ok"
    {|
      int main(int argc, char **argv) {
        if (getpid() > 0) print_str("pid-ok");
        int fd = open("/tmp/x", 0x0200 | 1, 0);
        write(fd, "data", 4);
        close(fd);
        fd = open("/tmp/x", 0, 0);
        char buf[8];
        int n = read(fd, buf, 4);
        buf[n] = 0;
        close(fd);
        if (n == 4) print_str(" file-ok");
        return 0;
      }
    |}

let test_fork_from_c () =
  check_all ~exit_code:3 ~output:"child parent"
    {|
      int main(int argc, char **argv) {
        int pid = fork();
        if (pid == 0) {
          print_str("child ");
          exit(0);
        }
        wait((int*)0);
        print_str("parent");
        return 3;
      }
    |}

(* --- Protection behaviour --------------------------------------------------------- *)

let stack_overflow_src =
  {|
    int main(int argc, char **argv) {
      int buf[4];
      int i;
      for (i = 0; i <= 4; i = i + 1) buf[i] = 7;  /* off by one */
      return buf[0] - 7;
    }
  |}

let test_stack_overflow_cheriabi () =
  check_sig ~abi:Abi.Cheriabi ~signal:Signo.sigprot stack_overflow_src

let test_stack_overflow_asan () =
  check_sig ~abi:Abi.Asan ~signal:Signo.sigabrt stack_overflow_src

let test_stack_overflow_mips64_silent () =
  let status, _, _ = run_src ~abi:Abi.Mips64 stack_overflow_src in
  match status with
  | Some (Proc.Exited 0) -> ()
  | _ -> Alcotest.fail "legacy should run to completion"

let heap_overflow_src =
  {|
    int main(int argc, char **argv) {
      char *p = malloc(24);
      p[24] = 1;   /* one past the end */
      return 0;
    }
  |}

let test_heap_overflow_cheriabi () =
  check_sig ~abi:Abi.Cheriabi ~signal:Signo.sigprot heap_overflow_src

let test_heap_overflow_asan () =
  check_sig ~abi:Abi.Asan ~signal:Signo.sigabrt heap_overflow_src

let test_int_to_ptr_cast_blocked () =
  (* Integer provenance (IP): casting an address through int and back
     works on legacy, traps under CheriABI (NULL DDC). *)
  let src =
    {|
      int g = 77;
      int main(int argc, char **argv) {
        int addr = (int)&g;
        int *p = (int*)addr;
        return *p - 77;
      }
    |}
  in
  let status, _, _ = run_src ~abi:Abi.Mips64 src in
  (match status with
   | Some (Proc.Exited 0) -> ()
   | _ -> Alcotest.fail "legacy roundtrip should work");
  check_sig ~abi:Abi.Cheriabi ~signal:Signo.sigprot src

let test_use_after_free_cheriabi_heap () =
  (* Spatial-only: use-after-free within bounds is NOT caught by CheriABI
     (temporal safety is future work, §6) — document via test. *)
  let src =
    {|
      int main(int argc, char **argv) {
        char *p = malloc(32);
        p[0] = 42;
        free(p);
        return p[0] == 42;
      }
    |}
  in
  let status, _, _ = run_src ~abi:Abi.Cheriabi src in
  match status with
  | Some (Proc.Exited _) -> ()
  | _ -> Alcotest.fail "UAF is not a spatial violation"

let suite =
  [ "arith", `Quick, test_arith;
    "control flow", `Quick, test_control_flow;
    "while/break/continue", `Quick, test_while_break_continue;
    "functions and recursion", `Quick, test_functions_recursion;
    "arrays and pointers", `Quick, test_arrays_and_pointers;
    "pointer arithmetic", `Quick, test_pointer_arith;
    "globals", `Quick, test_globals;
    "structs", `Quick, test_structs;
    "structs with pointers", `Quick, test_struct_with_pointers;
    "heap linked list", `Quick, test_heap_linked_list;
    "strings and chars", `Quick, test_strings_chars;
    "argv in main", `Quick, test_argv_main;
    "shared library call", `Quick, test_shared_library_call;
    "same-unit call", `Quick, test_function_pointer_via_lib;
    "memcpy/memset", `Quick, test_memcpy_memset;
    "tls globals", `Quick, test_tls_globals;
    "global pointer relocation", `Quick, test_global_ptr_reloc;
    "sizeof pointer differs", `Quick, test_sizeof_differs;
    "syscalls from C", `Quick, test_syscalls_from_c;
    "fork from C", `Quick, test_fork_from_c;
    "stack overflow trapped (cheriabi)", `Quick, test_stack_overflow_cheriabi;
    "stack overflow trapped (asan)", `Quick, test_stack_overflow_asan;
    "stack overflow silent (mips64)", `Quick, test_stack_overflow_mips64_silent;
    "heap overflow trapped (cheriabi)", `Quick, test_heap_overflow_cheriabi;
    "heap overflow trapped (asan)", `Quick, test_heap_overflow_asan;
    "int->ptr cast blocked (cheriabi)", `Quick, test_int_to_ptr_cast_blocked;
    "UAF not spatial", `Quick, test_use_after_free_cheriabi_heap ]

(* --- Extensions: indirect calls, revocation, sub-object bounds ------------------- *)

let test_function_pointers_indirect () =
  (* qsort with a comparator callback: the call goes through a data-held
     code capability (CJALR) under CheriABI. *)
  check_all ~exit_code:0 ~output:"1 2 3 9 | 9 3 2 1"
    {|
      int up(int a, int b) { return a - b; }
      int down(int a, int b) { return b - a; }
      int data[4];
      void sort_with(char *cmp) {
        int i; int j;
        for (i = 0; i < 4; i = i + 1)
          for (j = i + 1; j < 4; j = j + 1)
            if (cmp(data[i], data[j]) > 0) {
              int t = data[i]; data[i] = data[j]; data[j] = t;
            }
      }
      void show() {
        int i;
        for (i = 0; i < 4; i = i + 1) {
          if (i) print_str(" ");
          print_int(data[i]);
        }
      }
      int main(int argc, char **argv) {
        data[0] = 3; data[1] = 9; data[2] = 1; data[3] = 2;
        sort_with((char*)up);
        show();
        print_str(" | ");
        sort_with((char*)down);
        show();
        return 0;
      }
    |}

let test_calling_data_cap_traps () =
  (* Jumping through a non-executable capability faults at fetch. *)
  check_sig ~abi:Abi.Cheriabi ~signal:Signo.sigprot
    {|
      int main(int argc, char **argv) {
        char *p = malloc(32);
        p(1, 2);
        return 0;
      }
    |}

let test_free_revoke_temporal () =
  (* The future-work temporal-safety extension: after free_revoke, stale
     capabilities anywhere in the process are untagged, so use-after-free
     traps — unlike plain free. *)
  check_sig ~abi:Abi.Cheriabi ~signal:Signo.sigprot
    {|
      char *stale[1];
      int main(int argc, char **argv) {
        char *p = malloc(32);
        p[0] = 42;
        stale[0] = p;            /* a second copy, in memory *)  */
        free_revoke(p);
        return stale[0][0];      /* revoked: tag is gone *)  */
      }
    |};
  (* and the same program with plain free survives (spatially valid) *)
  let status, _, _ =
    run_src ~abi:Abi.Cheriabi
      {|
        char *stale[1];
        int main(int argc, char **argv) {
          char *p = malloc(32);
          p[0] = 42;
          stale[0] = p;
          free(p);
          return stale[0][0] - 42;
        }
      |}
  in
  match status with
  | Some (Proc.Exited 0) -> ()
  | _ -> Alcotest.fail "plain free leaves the stale capability usable"

let test_free_revoke_keeps_unrelated () =
  check_all ~exit_code:0 ~output:"7"
    {|
      int main(int argc, char **argv) {
        char *keep = malloc(32);
        char *dead = malloc(32);
        keep[0] = 7;
        free_revoke(dead);
        print_int(keep[0]);
        return 0;
      }
    |}

let test_subobject_bounds_optin () =
  let src =
    {|
      struct msg { char buf[16]; char tail[16]; };
      struct msg m;
      int poke(char *f, int i) { f[i] = 1; return 0; }
      int main(int argc, char **argv) {
        poke(m.buf, 16);         /* first byte of tail: intra-object */
        return 0;
      }
    |}
  in
  (* Default (paper's choice): whole-struct bounds, intra-object write OK. *)
  let k = Runtime.boot () in
  Compile.install k ~path:"/bin/t" ~abi:Abi.Cheriabi src;
  (match Kernel.run_program k ~path:"/bin/t" ~argv:[ "t" ] with
   | Some (Proc.Exited 0), _, _ -> ()
   | _ -> Alcotest.fail "default should allow intra-object");
  (* With sub-object bounds: caught. *)
  let k = Runtime.boot () in
  let opts =
    { (Compile.default_options Abi.Cheriabi) with subobject_bounds = true }
  in
  Cheri_kernel.Vfs.add_exe k.Cheri_kernel.Kstate.vfs "/bin/t" ~abi:Abi.Cheriabi
    (Compile.build_image ~opts ~abi:Abi.Cheriabi ~name:"t" src);
  match Kernel.run_program k ~path:"/bin/t" ~argv:[ "t" ] with
  | Some (Proc.Signaled s), _, _ when s = Signo.sigprot -> ()
  | _ -> Alcotest.fail "sub-object bounds should catch the field overflow"

let extension_suite =
  [ "indirect calls via function pointers", `Quick,
    test_function_pointers_indirect;
    "calling a data capability traps", `Quick, test_calling_data_cap_traps;
    "free_revoke provides temporal safety", `Quick, test_free_revoke_temporal;
    "free_revoke keeps unrelated allocations", `Quick,
    test_free_revoke_keeps_unrelated;
    "sub-object bounds opt-in", `Quick, test_subobject_bounds_optin ]
