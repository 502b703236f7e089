(* BOdiagsuite (Table 3): 291 generated buffer-overflow diagnostic
   programs, each in four variants:

   - ok:    no violation (must run to completion everywhere);
   - min:   the smallest possible violation (one element past the end);
   - med:   8 bytes past the end;
   - large: 4096 bytes past the end.

   Detection is whatever the mechanisms produce: a CheriABI capability
   fault (SIGPROT), an ASan redzone hit (SIGABRT) or segfault, a legacy
   page fault (SIGSEGV) — or, for the syscall tests, an EPROT/EFAULT
   error from the kernel's copy path (the program then exits 9, which the
   tally counts as a detection).

   The suite deliberately contains:
   - 12 intra-object tests (buffer inside a struct, the min overflow lands
     in a sibling field): CheriABI bounds are per allocation, not per
     sub-object, so min is not caught (§5.4); 2 of them have a deep tail,
     so even med stays intra-object;
   - 3 system-call tests (getcwd-style wrong lengths on heap buffers):
     caught by the kernel's capability copy path under CheriABI, invisible
     to ASan and (until the copy leaves the mapped arena) to mips64;
   - 2 land-in-neighbor tests whose large overflow lands in another valid
     global beyond the redzone, which ASan cannot see;
   - 4 mmap page-edge tests (buffer ends exactly at a page boundary):
     the legacy ABI's only min detections;
   - 4 malloc region-edge tests (an 8184-byte allocation in an 8192-byte
     mapping): the legacy ABI detects these from med. *)

module Abi = Cheri_core.Abi

type region = Rstack | Rheap | Rglobal
type access = Awrite | Aread
type ety = Echar | Eint

type addr_mode =
  | Mindex        (* buf[i] with a constant index *)
  | Mptr          (* *(p + i) via a pointer variable *)
  | Mloop         (* a loop running too far *)
  | Mmemcpy       (* via the memcpy runtime routine *)
  | Mmemset       (* via memset (write) / memcpy-from (read) *)

type family =
  | Fmatrix of addr_mode * int          (* size *)
  | Funder                              (* underflow before the start *)
  | Ffuncarg                            (* overflow inside a callee *)
  | Findexvar of int                    (* index computed at run time *)
  | F2d of int                          (* flattened 2-D indexing *)
  | Fstructexit                         (* buffer is the last struct field *)
  | Fcopyloop of int                    (* element-copy loop, reads + writes *)
  | Fintra of bool                      (* struct-internal; true = deep tail *)
  | Fneighbor                           (* lands in a valid neighbor global *)
  | Fmmap_edge                          (* buffer ends at a page boundary *)
  | Fmalloc_edge                        (* 8184-byte alloc in 8192-byte map *)
  | Fsyscall of int                     (* 0=getcwd 1=read 2=ioctl *)
  | Fretbuf                             (* heap buffer returned from a helper *)

type test = {
  t_id : int;
  t_family : family;
  t_region : region;
  t_access : access;
  t_ety : ety;
}

type variant = Vok | Vmin | Vmed | Vlarge

let variant_name = function
  | Vok -> "ok"
  | Vmin -> "min"
  | Vmed -> "med"
  | Vlarge -> "large"

let variants = [ Vok; Vmin; Vmed; Vlarge ]

(* --- Test list construction ------------------------------------------------------- *)

let tests : test list =
  let id = ref 0 in
  let out = ref [] in
  let mk family region access ety =
    incr id;
    out :=
      { t_id = !id; t_family = family; t_region = region; t_access = access;
        t_ety = ety }
      :: !out
  in
  let regions = [ Rstack; Rheap; Rglobal ] in
  let accesses = [ Awrite; Aread ] in
  let etys = [ Echar; Eint ] in
  let forall3 f =
    List.iter (fun r -> List.iter (fun a -> List.iter (fun e -> f r a e) etys) accesses)
      regions
  in
  (* core matrix: 3 x 2 x 2 x 5 x 3 = 180 *)
  forall3 (fun r a e ->
      List.iter
        (fun m -> List.iter (fun s -> mk (Fmatrix (m, s)) r a e) [ 8; 64; 256 ])
        [ Mindex; Mptr; Mloop; Mmemcpy; Mmemset ]);
  (* underflow: 12 *)
  forall3 (fun r a e -> mk Funder r a e);
  (* callee overflow: 12 *)
  forall3 (fun r a e -> mk Ffuncarg r a e);
  (* run-time-computed index: 24 *)
  forall3 (fun r a e -> List.iter (fun s -> mk (Findexvar s) r a e) [ 16; 128 ]);
  (* flattened 2-D: 12 *)
  List.iter
    (fun r ->
      List.iter (fun a -> List.iter (fun s -> mk (F2d s) r a Eint) [ 8; 16 ])
        accesses)
    regions;
  (* buffer as last struct field: 12 *)
  forall3 (fun r a e -> mk Fstructexit r a e);
  (* copy loops: 12 *)
  List.iter
    (fun r ->
      List.iter
        (fun e -> List.iter (fun s -> mk (Fcopyloop s) r Awrite e) [ 16; 64 ])
        etys)
    regions;
  (* intra-object: 12 (10 shallow + 2 deep) *)
  List.iter
    (fun (r, a, e) -> mk (Fintra false) r a e)
    [ Rstack, Awrite, Echar; Rstack, Awrite, Eint; Rstack, Aread, Echar;
      Rstack, Aread, Eint; Rglobal, Awrite, Echar; Rglobal, Awrite, Eint;
      Rglobal, Aread, Echar; Rglobal, Aread, Eint; Rheap, Awrite, Echar;
      Rheap, Aread, Echar ];
  mk (Fintra true) Rstack Awrite Echar;
  mk (Fintra true) Rstack Aread Echar;
  (* land-in-neighbor: 2 *)
  mk Fneighbor Rglobal Awrite Echar;
  mk Fneighbor Rglobal Aread Echar;
  (* mmap page edge: 4; malloc region edge: 4 *)
  List.iter
    (fun (a, e) -> mk Fmmap_edge Rheap a e)
    [ Awrite, Echar; Awrite, Eint; Aread, Echar; Aread, Eint ];
  List.iter
    (fun (a, e) -> mk Fmalloc_edge Rheap a e)
    [ Awrite, Echar; Awrite, Eint; Aread, Echar; Aread, Eint ];
  (* system calls: 3 *)
  mk (Fsyscall 0) Rheap Awrite Echar;
  mk (Fsyscall 1) Rheap Awrite Echar;
  mk (Fsyscall 2) Rheap Awrite Echar;
  (* returned heap buffer: 2 *)
  mk Fretbuf Rheap Awrite Echar;
  mk Fretbuf Rheap Aread Echar;
  List.rev !out

let count = List.length tests

(* --- Source generation -------------------------------------------------------------- *)

let esize = function Echar -> 1 | Eint -> 8
let tyname = function Echar -> "char" | Eint -> "int"

(* Index for an overflow test over a buffer of [n] elements. *)
let bad_index ety n = function
  | Vok -> n - 1
  | Vmin -> n
  | Vmed -> n + (8 / esize ety)
  | Vlarge -> n + (4096 / esize ety)

(* Index for an underflow test (relative to element 0). *)
let under_index ety = function
  | Vok -> 0
  | Vmin -> -1
  | Vmed -> -(8 / esize ety)
  | Vlarge -> -(4096 / esize ety)

let buffer_code region ety n =
  let t = tyname ety in
  match region with
  | Rstack -> Printf.sprintf "  %s buf[%d];\n" t n, "buf"
  | Rglobal -> "", "gbuf"
  | Rheap ->
    Printf.sprintf "  %s *buf = (%s*)malloc(%d);\n" t t (n * esize ety), "buf"

let global_decl region ety n =
  match region with
  | Rglobal -> Printf.sprintf "%s gbuf[%d];\n" (tyname ety) n
  | Rstack | Rheap -> ""

let access_stmt access ety buf idx =
  ignore ety;
  match access with
  | Awrite -> Printf.sprintf "  %s[%s] = 7;\n" buf idx
  | Aread -> Printf.sprintf "  sink = sink + %s[%s];\n" buf idx

let source (t : test) variant =
  let n =
    match t.t_family with
    | Fmatrix (_, s) | Findexvar s | Fcopyloop s -> s
    | F2d s -> s * s
    | _ -> 16
  in
  let idx = bad_index t.t_ety n variant in
  let gdecl = global_decl t.t_region t.t_ety n in
  let prelude, buf =
    match t.t_family with
    | Fretbuf -> "  char *buf = makebuf(16);\n", "buf"
    | Fmmap_edge ->
      Printf.sprintf "  %s *buf = (%s*)mmap_anon(4096);\n" (tyname t.t_ety)
        (tyname t.t_ety),
      "buf"
    | Fmalloc_edge ->
      Printf.sprintf "  %s *buf = (%s*)malloc(8184);\n" (tyname t.t_ety)
        (tyname t.t_ety),
      "buf"
    | Fintra _ | Fstructexit -> "", "h.buf"
    | Fsyscall _ -> "  char *small = malloc(32);\n", "small"
    | _ -> buffer_code t.t_region t.t_ety n
  in
  let body =
    match t.t_family with
    | Fmatrix (Mindex, _) | Fretbuf | Fneighbor ->
      access_stmt t.t_access t.t_ety buf (string_of_int idx)
    | Funder ->
      access_stmt t.t_access t.t_ety buf
        (Printf.sprintf "(%d)" (under_index t.t_ety variant))
    | Fmatrix (Mptr, _) ->
      Printf.sprintf "  %s *p = %s;\n" (tyname t.t_ety) buf
      ^ access_stmt t.t_access t.t_ety "p" (string_of_int idx)
    | Fmatrix (Mloop, _) ->
      (* the loop counter is a global so overflow cannot rewind the loop *)
      Printf.sprintf "  for (gi = 0; gi <= %d; gi = gi + 1) {\n  %s  }\n" idx
        (access_stmt t.t_access t.t_ety buf "gi")
    | Fmatrix (Mmemcpy, _) ->
      let bytes = (idx + 1) * esize t.t_ety in
      (match t.t_access with
       | Awrite ->
         Printf.sprintf "  memcpy((char*)%s, (char*)ok_src, %d);\n" buf bytes
       | Aread ->
         Printf.sprintf "  memcpy((char*)ok_src, (char*)%s, %d);\n" buf bytes)
    | Fmatrix (Mmemset, _) ->
      let bytes = (idx + 1) * esize t.t_ety in
      (match t.t_access with
       | Awrite -> Printf.sprintf "  memset((char*)%s, 5, %d);\n" buf bytes
       | Aread ->
         Printf.sprintf "  memcpy((char*)ok_src, (char*)(%s + 1), %d);\n" buf
           (max (bytes - esize t.t_ety) 1))
    | Findexvar _ ->
      (* the index flows through a global, defeating constant reasoning *)
      Printf.sprintf "  n_elems = %d;\n  int i = n_elems + (%d);\n" n (idx - n)
      ^ access_stmt t.t_access t.t_ety buf "i"
    | F2d s ->
      let row = idx / s and col = idx mod s in
      access_stmt t.t_access t.t_ety buf
        (Printf.sprintf "%d * %d + %d" row s col)
    | Ffuncarg -> Printf.sprintf "  victim(%s, %d);\n" buf idx
    | Fstructexit ->
      access_stmt t.t_access t.t_ety "h.buf" (string_of_int idx)
    | Fintra _ ->
      access_stmt t.t_access t.t_ety "h.buf" (string_of_int idx)
    | Fcopyloop _ ->
      Printf.sprintf
        "  for (gi = 0; gi <= %d; gi = gi + 1) { dst_ok[gi %% %d] = %s[gi]; }\n"
        idx n buf
    | Fmmap_edge ->
      (* one page; byte index 4095 is the last valid one *)
      let byte = 4095 + (match variant with Vok -> 0 | Vmin -> 1 | Vmed -> 8
                                          | Vlarge -> 4096) in
      access_stmt t.t_access Echar "((char*)buf)" (string_of_int byte)
    | Fmalloc_edge ->
      (* 8184 bytes allocated inside an 8192-byte mapping: min/med stay in
         the mapped region (mips64-silent) but leave the capability *)
      let byte = 8183 + (match variant with Vok -> 0 | Vmin -> 1 | Vmed -> 9
                                          | Vlarge -> 4097) in
      access_stmt t.t_access Echar "((char*)buf)" (string_of_int byte)
    | Fsyscall which ->
      let ask =
        match variant with Vok -> 32 | Vmin -> 33 | Vmed -> 40 | Vlarge -> 4128
      in
      (match which with
       | 0 ->
         Printf.sprintf
           "  int r = getcwd(small, %d);\n\
           \  if (r < 0) { print_str(\"DETECTED\"); exit(9); }\n" ask
       | 1 ->
         Printf.sprintf
           "  int fd = open(\"/tmp/bo\", 0x0200 | 2, 0);\n\
           \  int i;\n\
           \  for (i = 0; i < 140; i = i + 1) write(fd, \"xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx\", 32);\n\
           \  lseek(fd, 0, 0);\n\
           \  int r = read(fd, small, %d);\n\
           \  if (r < 0) { print_str(\"DETECTED\"); exit(9); }\n\
           \  close(fd);\n" ask
       | _ ->
         Printf.sprintf
           "  char *argbuf[3];\n\
           \  argbuf[0] = small;\n\
           \  int *lp = (int*)((char*)argbuf + sizeof(char*));\n\
           \  *lp = %d;\n\
           \  int r = ioctl(1, %d, (char*)argbuf);\n\
           \  if (r < 0) { print_str(\"DETECTED\"); exit(9); }\n" ask
           Cheri_kernel.Sysno.dioc_getconf)
  in
  let extra_decls =
    match t.t_family with
    | Fmatrix ((Mmemcpy | Mmemset), _) ->
      Printf.sprintf "%s ok_src[%d];\n" (tyname t.t_ety) (n + 4200)
    | Fmatrix (Mloop, _) -> "int gi;\n"
    | Fcopyloop _ -> Printf.sprintf "int gi;\n%s dst_ok[%d];\n" (tyname t.t_ety) n
    | Findexvar _ -> "int n_elems;\n"
    | Ffuncarg ->
      Printf.sprintf "void victim(%s *b, int i) {\n%s}\n" (tyname t.t_ety)
        (access_stmt t.t_access t.t_ety "b" "i")
    | Fstructexit ->
      Printf.sprintf "struct holder { int hdr; %s buf[%d]; };\n"
        (tyname t.t_ety) n
    | Fintra deep ->
      Printf.sprintf "struct holder { %s buf[%d]; char tail[%d]; };\n"
        (tyname t.t_ety) n
        (if deep then 24 else 8)
    | Fneighbor -> "char spill[8192];\n"
    | Fretbuf -> "char *makebuf(int n) { return malloc(n); }\n"
    | _ -> ""
  in
  let struct_local =
    match t.t_family with
    | Fintra _ -> "  struct holder h;\n  h.tail[0] = 1;\n"
    | Fstructexit -> "  struct holder h;\n  h.hdr = 1;\n"
    | _ -> ""
  in
  (* Place the test buffer after the helper globals so that a large
     overflow runs off the end of the data segment (except for the
     land-in-neighbor tests, where the neighbor must follow the buffer). *)
  let first, second =
    match t.t_family with
    | Fneighbor -> gdecl, extra_decls
    | _ -> extra_decls, gdecl
  in
  Printf.sprintf
    "int sink;\n%s%s\nint main(int argc, char **argv) {\n%s%s%s  return 0;\n}\n"
    first second prelude struct_local body

(* --- Running ---------------------------------------------------------------------------- *)

type outcome =
  | Detected of string
  | Missed
  | Error of string

let run_one ~abi (t : test) variant =
  let src = source t variant in
  let k = Cheri_libc.Runtime.boot ~mem_size:(12 * 1024 * 1024) () in
  (try Cheri_cc.Compile.install k ~path:"/bin/bo" ~abi src
   with Cheri_cc.Ast.Compile_error m ->
     failwith
       (Printf.sprintf "bodiag %d %s: %s\nsource:\n%s" t.t_id
          (variant_name variant) m src));
  let status, _out, p =
    Cheri_kernel.Kernel.run_program ~max_steps:6_000_000 k ~path:"/bin/bo"
      ~argv:[ "bo" ]
  in
  match status with
  | Some (Cheri_kernel.Proc.Exited 0) -> Missed
  | Some (Cheri_kernel.Proc.Exited 9) -> Detected "syscall error"
  | Some (Cheri_kernel.Proc.Signaled s) -> Detected (Cheri_kernel.Signo.name s)
  | Some (Cheri_kernel.Proc.Exited c) ->
    Error
      (Printf.sprintf "exit %d (%s)" c
         (String.concat ";" p.Cheri_kernel.Proc.fault_log))
  | None -> Error "did not terminate"

type tally = {
  mutable ok_passed : int;
  mutable ok_failed : int;
  mutable detected_min : int;
  mutable detected_med : int;
  mutable detected_large : int;
  mutable errors : (int * string * string) list;
  mutable missed_min : int list;
  mutable missed_med : int list;
  mutable missed_large : int list;
}

(* Run the whole suite under [abi]. *)
let run_suite ~abi () =
  let tally =
    { ok_passed = 0; ok_failed = 0; detected_min = 0; detected_med = 0;
      detected_large = 0; errors = []; missed_min = []; missed_med = [];
      missed_large = [] }
  in
  List.iter
    (fun t ->
      List.iter
        (fun v ->
          match run_one ~abi t v, v with
          | Missed, Vok -> tally.ok_passed <- tally.ok_passed + 1
          | Detected d, Vok ->
            tally.ok_failed <- tally.ok_failed + 1;
            tally.errors <- (t.t_id, "ok", "spurious: " ^ d) :: tally.errors
          | Error e, Vok ->
            tally.ok_failed <- tally.ok_failed + 1;
            tally.errors <- (t.t_id, "ok", e) :: tally.errors
          | Detected _, Vmin -> tally.detected_min <- tally.detected_min + 1
          | Detected _, Vmed -> tally.detected_med <- tally.detected_med + 1
          | Detected _, Vlarge ->
            tally.detected_large <- tally.detected_large + 1
          | Missed, Vmin -> tally.missed_min <- t.t_id :: tally.missed_min
          | Missed, Vmed -> tally.missed_med <- t.t_id :: tally.missed_med
          | Missed, Vlarge -> tally.missed_large <- t.t_id :: tally.missed_large
          | Error e, v ->
            tally.errors <- (t.t_id, variant_name v, e) :: tally.errors)
        variants)
    tests;
  tally
