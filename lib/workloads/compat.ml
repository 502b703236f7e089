(* Table 2: the CheriABI compatibility study.

   Two analyzers recognize the paper's idiom classes, mirroring the
   compiler warnings the authors added (bitwise math on capabilities,
   remainder on pointers, unprototyped calls):

   - the *semantic* analyzer (lib/analysis/lint.ml): a typed-AST dataflow
     pass run over every source CSmall can parse and type — all of this
     repository's own workload sources;
   - the *textual* patterns below, kept only for idioms CSmall cannot
     type (va_args, preprocessor macros, uintptr_t typedefs) — i.e. the
     synthetic legacy-C corpus standing in for the FreeBSD tree.

   Categories ([Lint.category], the one taxonomy both analyzers count in):

   PP pointer provenance     IP integer provenance   M monotonicity
   PS pointer shape          I  pointer-as-integer   VA virtual address
   BF bit flags              H  hashing              A  alignment
   CC calling convention     U  unsupported

   We cannot analyze the real FreeBSD tree (not available here); the
   analyzers run over (a) a synthetic legacy-C corpus carrying these
   idioms at realistic densities, organized into the paper's four groups,
   and (b) this repository's own CSmall sources. *)

module Lint = Cheri_analysis.Lint

(* --- Pattern machinery ------------------------------------------------------------- *)

(* Count non-overlapping occurrences of [needle] in [hay]. *)
let count_substring hay needle =
  let nl = String.length needle and hl = String.length hay in
  if nl = 0 || nl > hl then 0
  else begin
    let n = ref 0 and i = ref 0 in
    while !i <= hl - nl do
      if String.sub hay !i nl = needle then begin
        incr n;
        i := !i + nl
      end
      else incr i
    done;
    !n
  end

(* Normalize whitespace so that patterns are spacing-insensitive. *)
let normalize src =
  let b = Buffer.create (String.length src) in
  let last_space = ref true in
  String.iter
    (fun c ->
      if c = ' ' || c = '\t' || c = '\n' || c = '\r' then begin
        if not !last_space then Buffer.add_char b ' ';
        last_space := true
      end
      else begin
        Buffer.add_char b c;
        last_space := false
      end)
    src;
  Buffer.contents b

(* Each category is recognized by a list of textual signatures. *)
let signatures : (Lint.category * string list) list =
  [ PP, [ "container_of("; "ipc_send_ptr("; "from unrelated object" ];
    IP, [ "(int)&"; "(long)&"; "(unsigned)"; "(int)ptr"; "(long)ptr";
          "through int" ];
    M, [ "[-1]"; "- HDR_SIZE)"; "widen("; "grow_bounds(" ];
    PS, [ "sizeof(void *) == 8"; "sizeof(char *) == 8"; "== 8 /* ptr"
        ; "PTR_SIZE 8"; "pad to 8" ];
    I, [ "(void *)-1"; "(char *)-1"; "MAP_FAILED"; "(void *)1" ];
    VA, [ "(uintptr_t)"; "(vaddr_t)" ];
    BF, [ "| 1)"; "& ~1)"; "& 1)"; "| TAG_BIT"; "& ~TAG_MASK" ];
    H, [ "hash((uintptr_t)"; ">> 4) %"; "ptr_hash("; ">> PAGE_SHIFT) %" ];
    A, [ "+ 7) & ~7"; "+ 15) & ~15"; "ALIGN("; "roundup2("; "& ~(sizeof" ];
    CC, [ "..."; "va_arg"; "va_start"; "K&R"; "()" ];
    U, [ "sbrk("; "^ (uintptr_t"; "xor_ptr(" ] ]

(* Analyze one source file textually: per-category occurrence counts.
   This is the fallback for sources CSmall cannot type. *)
let analyze src =
  let src = normalize src in
  List.map
    (fun (cat, pats) ->
      cat, List.fold_left (fun acc p -> acc + count_substring src p) 0 pats)
    signatures

let add_counts a b =
  List.map2 (fun (c1, n1) (c2, n2) -> assert (c1 = c2); c1, n1 + n2) a b

let zero_counts = List.map (fun c -> c, 0) Lint.table2_categories

(* --- Semantic analysis (lib/analysis) ----------------------------------------------- *)

(* Run the typed-AST provenance lint over a CSmall source. Returns [None]
   when the source is not typeable CSmall (then only the textual patterns
   apply). Sources referencing libc are retried with the prototypes
   prepended. *)
let analyze_semantic src : (Lint.category * int) list option =
  let count diags =
    List.map
      (fun c ->
        c, List.length (List.filter (fun d -> d.Lint.d_cat = c) diags))
      Lint.table2_categories
  in
  match Lint.analyze_source src with
  | Ok diags -> Some (count diags)
  | Error _ ->
    (match Lint.analyze_source ~externs:Stdlib_src.libc_externs src with
     | Ok diags -> Some (count diags)
     | Error _ -> None)

(* Semantic first, textual fallback: the per-file analysis used for the
   repository's own sources. *)
let analyze_file src =
  match analyze_semantic src with
  | Some counts -> counts
  | None -> analyze src

(* Analyze a group of named files (textual patterns only — the legacy-C
   corpus path). *)
let analyze_group files =
  List.fold_left (fun acc (_, src) -> add_counts acc (analyze src)) zero_counts
    files

(* Analyze a group semantically where possible. *)
let analyze_group_semantic files =
  List.fold_left
    (fun acc (_, src) -> add_counts acc (analyze_file src))
    zero_counts files

(* --- The legacy-C corpus -------------------------------------------------------------- *)
(* Synthetic files standing in for the FreeBSD tree's four groups. The
   idiom densities follow Table 2's relative magnitudes: libraries carry
   by far the most issues, headers few, tests fewest. *)

let headers_group =
  [ "sys/param.h",
    {| #define ALIGN(p) (((uintptr_t)(p) + 7) & ~7)
       #define roundup2(x, y) (((x) + ((y) - 1)) & (~((y) - 1)))
       typedef unsigned long vaddr_t;
       /* legacy: flags live in the low bits of the handle */
       #define HANDLE_FLAGS(h) ((uintptr_t)(h) & 1) |};
    "sys/mman.h",
    {| #define MAP_FAILED ((void *)-1)
       static inline int page_of(void *p) { return ((uintptr_t)p + 15) & ~15; } |};
    "sys/queue_impl.h",
    {| /* intrusive lists recover the container from a field pointer */
       #define container_of(p, type, field) \
         ((type *)((char *)(p) - offsetof(type, field))) |} ]

let libraries_group =
  [ "libc/stdio_impl.c",
    {| static FILE *cache = (FILE *)1;   /* sentinel: (void *)1 *)  */
       int vfprintf(FILE *f, const char *fmt, ...) {
         va_list ap; va_start(ap, fmt);
         long cookie = (long)&f;          /* cast through long *)  */
         int h = hash((uintptr_t)f >> 4) % NBUCKETS;
         return h + (int)va_arg(ap, int);
       } |};
    "libc/malloc_compat.c",
    {| void *old_sbrk_alloc(int n) {
         char *base = sbrk(n);
         uintptr_t a = ((uintptr_t)base + 15) & ~15;  /* ALIGN( *)  */
         return (void *)(a | 1);   /* tag allocated bit: | 1) *)  */
       }
       void *grow(void *p) { return widen(p); } |};
    "libc/locks.c",
    {| /* lock word stores owner pointer with status in the low bits *)  */
       int try_lock(lock_t *l) {
         uintptr_t w = (uintptr_t)l->owner;
         if (w & 1) return 0;
         l->owner = (void *)(w | 1);
         return 1;
       } |};
    "libc/hash_tbl.c",
    {| int bucket_of(void *key) { return ptr_hash(key) % 64; }
       int rehash(void *key) { return hash((uintptr_t)key >> 4) % 128; } |};
    "libc/db_compat.c",
    {| /* BDB-style page records assume pointer-sized slots of 8 *)  */
       #define PTR_SIZE 8
       void put_ptr(char *page, void *p) { memcpy(page + 3, &p, PTR_SIZE); }
       int key_cast(void *p) { return (int)&p ? (unsigned)p : 0; } |};
    "libc/rpc_callback.c",
    {| /* SunRPC callbacks declared K&R-style: () prototypes *)  */
       int (*cb)();
       int do_call() { return cb(); }
       int dispatch(int which, ...) { va_list ap; va_start(ap, which); return 0; } |};
    "libm/frexp_bits.c",
    {| int classify(double *d) {
         long bits = (long)&d;             /* integer provenance *)  */
         return (bits >> 4) % 3;
       } |} ]

let programs_group =
  [ "bin/ls_compat.c",
    {| int main(int argc, char **argv) {
         void *h = MAP_FAILED;
         if (h == (void *)-1) return 1;
         printf("%d", argc, argv);        /* excess variadic args: ... *)  */
         return 0;
       } |};
    "sbin/route_keys.c",
    {| int key_hash(void *dst) { return hash((uintptr_t)dst >> 4) % 256; }
       int aligned(void *p) { return ((uintptr_t)p + 7) & ~7; } |};
    "usr.bin/sort_records.c",
    {| /* records keep a pointer parked in a long field *)  */
       struct rec { long parked; };
       void park(struct rec *r, char *p) { r->parked = (long)&p[0]; }
       char *unpark(struct rec *r) { return (char *)r->parked; } |};
    "usr.sbin/daemon_compat.c",
    {| int spawn(void) {
         char *brk = sbrk(0);
         return (int)&brk;
       } |} ]

let tests_group =
  [ "tests/lib/test_align.c",
    {| int main(void) {
         char buf[64];
         char *p = (char *)(((uintptr_t)buf + 15) & ~15);
         return p != buf;
       } |};
    "tests/sys/test_mmap_sentinel.c",
    {| int main(void) {
         void *p = mmap(0, 4096, 3, 0x1000, -1, 0);
         return p == MAP_FAILED;
       } |};
    "tests/libc/test_variadic.c",
    {| int sum(int n, ...) { va_list ap; va_start(ap, n); return n; }
       int main(void) { return sum(3, 1, 2, 3); } |} ]

let corpus =
  [ "BSD headers", headers_group;
    "BSD libraries", libraries_group;
    "BSD programs", programs_group;
    "BSD tests", tests_group ]

(* The paper's Table 2 counts, for side-by-side printing. *)
let paper_counts =
  [ "BSD headers", [ 0; 8; 0; 4; 2; 1; 1; 0; 3; 2; 0 ];
    "BSD libraries", [ 5; 18; 4; 19; 22; 20; 11; 6; 19; 42; 19 ];
    "BSD programs", [ 1; 11; 1; 3; 13; 0; 0; 0; 7; 11; 2 ];
    "BSD tests", [ 0; 0; 0; 0; 2; 0; 0; 0; 2; 7; 2 ] ]

(* This repository's own sources, grouped analogously. *)
let own_sources () =
  [ "sim headers", [ "libc_externs", Stdlib_src.libc_externs ];
    "sim libraries",
    [ "libc", Stdlib_src.libc_src; "libpq", Minipg.libpq_src;
      "libssl", Openssl_sim.libssl_src ];
    "sim programs",
    ("initdb", Minipg.initdb_src)
    :: ("s_server", Openssl_sim.server_src)
    :: Mibench.benchmarks;
    "sim tests",
    List.map (fun (n, s) -> n, s) Testsuite.sys_tests ]
