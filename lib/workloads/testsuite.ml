(* Test-suite corpora for Table 1.

   Three suites mirroring the paper's: a "system" suite (FreeBSD-style
   functional tests of the C runtime and kernel interfaces), a
   mini-PostgreSQL regression suite (against libpq), and a container-
   library suite standing in for libc++'s.

   Conventions: a test passes by exiting 0; exit 77 means "skipped"
   (a feature the ABI does not provide, like sbrk under CheriABI); any
   other exit or signal is a failure. The suites contain the same idiom
   classes that caused the paper's CheriABI-only failures: integer
   provenance round trips, under-aligned pointer stores, pointer-size
   assumptions, and a library function missing from one build. *)

module Abi = Cheri_core.Abi
module Kernel = Cheri_kernel.Kernel
module Proc = Cheri_kernel.Proc
module Signo = Cheri_kernel.Signo

(* --- The system suite -------------------------------------------------------------------- *)

let t name src = name, src

let sys_tests =
  [ t "string_basics"
      {| int main(int argc, char **argv) {
           char buf[32];
           strcpy(buf, "abc");
           strcat(buf, "def");
           assert(strcmp(buf, "abcdef") == 0);
           assert(strlen(buf) == 6);
           assert(strncmp(buf, "abcxxx", 3) == 0);
           return 0;
         } |};
    t "atoi_itoa"
      {| int main(int argc, char **argv) {
           char buf[32];
           assert(atoi("12345") == 12345);
           assert(atoi("-99") == -99);
           itoa(-31337, buf);
           assert(strcmp(buf, "-31337") == 0);
           return 0;
         } |};
    t "qsort_ints"
      {| int a[64];
         int main(int argc, char **argv) {
           srand(3);
           int i;
           for (i = 0; i < 64; i = i + 1) a[i] = rand();
           qsort_ints(a, 0, 63);
           for (i = 1; i < 64; i = i + 1) assert(a[i - 1] <= a[i]);
           return 0;
         } |};
    t "qsort_strings"
      {| char arena[256];
         char *ptrs[16];
         int main(int argc, char **argv) {
           srand(5);
           int i;
           for (i = 0; i < 16; i = i + 1) {
             ptrs[i] = &arena[i * 16];
             itoa(rand(), ptrs[i]);
           }
           qsort_strs(ptrs, 0, 15);
           for (i = 1; i < 16; i = i + 1) assert(strcmp(ptrs[i-1], ptrs[i]) <= 0);
           return 0;
         } |};
    t "malloc_free_cycle"
      {| int main(int argc, char **argv) {
           int i;
           for (i = 0; i < 200; i = i + 1) {
             char *p = malloc(16 + i % 512);
             p[0] = i & 0xff;
             assert(p[0] == (i & 0xff));
             free(p);
           }
           return 0;
         } |};
    t "realloc_grow"
      {| int main(int argc, char **argv) {
           char *p = malloc(8);
           int i;
           for (i = 0; i < 8; i = i + 1) p[i] = 'a' + i;
           p = realloc(p, 64);
           for (i = 0; i < 8; i = i + 1) assert(p[i] == 'a' + i);
           free(p);
           return 0;
         } |};
    t "calloc_zeroed"
      {| int main(int argc, char **argv) {
           int *p = (int*)calloc(16, sizeof(int));
           int i;
           for (i = 0; i < 16; i = i + 1) assert(p[i] == 0);
           free((char*)p);
           return 0;
         } |};
    t "memcpy_overlap_safe"
      {| int main(int argc, char **argv) {
           char b[32];
           int i;
           for (i = 0; i < 16; i = i + 1) b[i] = 'a' + i;
           memmove(b + 4, b, 8);
           assert(b[4] == 'a');
           assert(b[11] == 'h');
           return 0;
         } |};
    t "struct_linked_list"
      {| struct n { int v; struct n *next; };
         int main(int argc, char **argv) {
           struct n *head = 0;
           int i;
           for (i = 0; i < 10; i = i + 1) {
             struct n *x = (struct n*)malloc(sizeof(struct n));
             x->v = i; x->next = head; head = x;
           }
           int sum = 0;
           while (head) { sum = sum + head->v; head = head->next; }
           assert(sum == 45);
           return 0;
         } |};
    t "file_io_roundtrip"
      {| int main(int argc, char **argv) {
           int fd = open("/tmp/t1", 0x0200 | 2, 0);
           write(fd, "hello world", 11);
           lseek(fd, 6, 0);
           char buf[16];
           int n = read(fd, buf, 5);
           buf[n] = 0;
           assert(strcmp(buf, "world") == 0);
           close(fd);
           unlink("/tmp/t1");
           return 0;
         } |};
    t "pipe_fork_exchange"
      {| int main(int argc, char **argv) {
           int fds[2];
           pipe(fds);
           int pid = fork();
           if (pid == 0) {
             write(fds[1], "ping", 4);
             exit(0);
           }
           char buf[8];
           int n = read(fds[0], buf, 4);
           buf[n] = 0;
           wait((int*)0);
           assert(strcmp(buf, "ping") == 0);
           return 0;
         } |};
    t "socketpair_echo"
      {| int main(int argc, char **argv) {
           int sv[2];
           socketpair(sv);
           int pid = fork();
           if (pid == 0) {
             char b[8];
             int n = read(sv[1], b, 4);
             write(sv[1], b, n);
             exit(0);
           }
           write(sv[0], "echo", 4);
           char r[8];
           int n = read(sv[0], r, 4);
           r[n] = 0;
           wait((int*)0);
           assert(strcmp(r, "echo") == 0);
           return 0;
         } |};
    t "signal_handler"
      {| int fired;
         void on_usr1(int sig) { fired = sig; }
         int main(int argc, char **argv) {
           sigaction_fn(30, on_usr1);
           kill(getpid(), 30);
           assert(fired == 30);
           return 0;
         } |};
    t "select_readiness"
      {| int main(int argc, char **argv) {
           int fds[2];
           pipe(fds);
           char rset[8];
           memset(rset, 0, 8);
           rset[0] = (1 << fds[0]) & 0xff;
           int n = select(8, rset, (char*)0, (char*)0, (char*)0);
           assert(n == 0);
           write(fds[1], "x", 1);
           memset(rset, 0, 8);
           rset[0] = (1 << fds[0]) & 0xff;
           n = select(8, rset, (char*)0, (char*)0, (char*)0);
           assert(n == 1);
           return 0;
         } |};
    t "shm_shared_counter"
      {| int main(int argc, char **argv) {
           int id = shmget(42, 4096);
           int *shared = (int*)shmat(id);
           shared[0] = 0;
           int pid = fork();
           if (pid == 0) {
             int *mine = (int*)shmat(id);
             mine[0] = 1234;
             exit(0);
           }
           wait((int*)0);
           assert(shared[0] == 1234);
           return 0;
         } |};
    t "sysctl_read"
      {| int main(int argc, char **argv) {
           char buf[32];
           int r = sysctl_read("kern.ostype", buf, 32);
           assert(r == 0);
           assert(strncmp(buf, "CheriBSD", 8) == 0);
           return 0;
         } |};
    t "getcwd_fits"
      {| int main(int argc, char **argv) {
           char buf[64];
           int r = getcwd(buf, 64);
           assert(r > 0);
           assert(buf[0] == '/');
           return 0;
         } |};
    t "argv_walk"
      {| int main(int argc, char **argv) {
           assert(argc >= 1);
           assert(strlen(argv[0]) > 0);
           return 0;
         } |};
    t "deep_recursion"
      {| int down(int n) { if (n == 0) return 0; return 1 + down(n - 1); }
         int main(int argc, char **argv) {
           assert(down(300) == 300);
           return 0;
         } |};
    t "tls_counter"
      {| tls int tc;
         int bump() { tc = tc + 1; return tc; }
         int main(int argc, char **argv) {
           bump(); bump();
           assert(bump() == 3);
           return 0;
         } |};
    t "matrix_multiply"
      {| int a[16]; int b[16]; int c[16];
         int main(int argc, char **argv) {
           int i; int j; int k;
           for (i = 0; i < 16; i = i + 1) { a[i] = i; b[i] = 16 - i; }
           for (i = 0; i < 4; i = i + 1)
             for (j = 0; j < 4; j = j + 1) {
               int s = 0;
               for (k = 0; k < 4; k = k + 1) s = s + a[i*4+k] * b[k*4+j];
               c[i*4+j] = s;
             }
           assert(c[0] == 0*16 + 1*12 + 2*8 + 3*4);
           return 0;
         } |};
    t "mmap_munmap"
      {| int main(int argc, char **argv) {
           char *p = mmap_anon(8192);
           p[0] = 1;
           p[8191] = 2;
           assert(p[0] + p[8191] == 3);
           assert(munmap(p, 8192) == 0);
           return 0;
         } |};
    t "exec_replaces_image"
      {| int main(int argc, char **argv) {
           if (argc > 1) return 0;   /* the re-exec'ed instance *)  */
           char *nargv[3];
           nargv[0] = "self";
           nargv[1] = "again";
           nargv[2] = 0;
           execve("/bin/t", nargv, (char**)0);
           return 33;   /* unreachable on success *)  */
         } |};
    (* --- idiom tests: the compatibility classes of Table 2 ------------------ *)
    t "idiom_int_provenance"
      (* IP: cast through a plain integer and back. *)
      {| int g = 7;
         int main(int argc, char **argv) {
           int addr = (int)&g;
           int *p = (int*)addr;
           return *p - 7;
         } |};
    t "idiom_xor_list"
      (* U: XOR-linked list. *)
      {| int main(int argc, char **argv) {
           int a = 1;
           int b = 2;
           int x = (int)&a ^ (int)&b;
           int *p = (int*)(x ^ (int)&b);
           return *p - 1;
         } |};
    t "idiom_underaligned_store"
      (* A/PS: pointer stored at 8-byte (not 16-byte) alignment. *)
      {| char raw[64];
         int g = 5;
         int main(int argc, char **argv) {
           int **slot = (int**)(raw + 8);
           *slot = &g;
           int **back = (int**)(raw + 8);
           return **back - 5;
         } |};
    t "idiom_sbrk"
      (* U: sbrk is not provided under CheriABI. *)
      {| int main(int argc, char **argv) {
           char *p = sbrk(4096);
           if ((int)p < 0) { print_str("skipped: no sbrk"); exit(77); }
           p[0] = 1;
           return 1 - p[0];
         } |};
    t "idiom_ptr_in_int_array"
      (* IP: pointers parked in an int array. *)
      {| int park[4];
         int g = 9;
         int main(int argc, char **argv) {
           park[1] = (int)&g;
           int *p = (int*)park[1];
           return *p - 9;
         } |} ]

(* --- The mini-PostgreSQL regression suite --------------------------------------------------- *)

let pg_prelude =
  {| struct relation { char name[32]; int fd; int oid; int ntuples;
                       int page_used; char *page; };
  |}
  ^ Minipg.libpq_externs

let pg_tests =
  [ t "pg_create_relation"
      {| int main(int argc, char **argv) {
           struct relation *r = rel_create("t_create");
           assert(r->oid >= 16384);
           rel_close(r);
           return 0;
         } |};
    t "pg_insert_tuples"
      {| char tup[64];
         int main(int argc, char **argv) {
           struct relation *r = rel_create("t_ins");
           int i;
           for (i = 0; i < 100; i = i + 1) {
             itoa(i, tup);
             rel_insert(r, tup, strlen(tup) + 1);
           }
           assert(rel_close(r) == 100);
           return 0;
         } |};
    t "pg_catalog_lookup"
      {| int main(int argc, char **argv) {
           struct relation *a = rel_create("t_cat_a");
           struct relation *b = rel_create("t_cat_b");
           assert(catalog_lookup("t_cat_a") == a->oid);
           assert(catalog_lookup("t_cat_b") == b->oid);
           assert(catalog_lookup("t_missing") == 0);
           rel_close(a);
           rel_close(b);
           return 0;
         } |};
    t "pg_index_sorted"
      {| int keys[256];
         int main(int argc, char **argv) {
           srand(7);
           int i;
           for (i = 0; i < 256; i = i + 1) keys[i] = rand();
           index_build(keys, 256);
           for (i = 1; i < 256; i = i + 1) assert(keys[i-1] <= keys[i]);
           return 0;
         } |};
    t "pg_index_duplicates"
      {| int keys[16];
         int main(int argc, char **argv) {
           int i;
           for (i = 0; i < 16; i = i + 1) keys[i] = i / 2;
           assert(index_build(keys, 16) == 8);
           return 0;
         } |};
    t "pg_page_spill"
      {| char tup[200];
         int main(int argc, char **argv) {
           struct relation *r = rel_create("t_spill");
           memset(tup, 'x', 190);
           tup[190] = 0;
           int i;
           for (i = 0; i < 100; i = i + 1) rel_insert(r, tup, 191);
           assert(rel_close(r) == 100);
           return 0;
         } |};
    t "pg_two_phase_flush"
      {| int main(int argc, char **argv) {
           struct relation *r = rel_create("t_flush");
           rel_insert(r, "abc", 4);
           rel_flush(r);
           rel_insert(r, "def", 4);
           assert(rel_close(r) == 2);
           return 0;
         } |};
    t "pg_oid_monotonic"
      {| int main(int argc, char **argv) {
           struct relation *a = rel_create("t_oid_a");
           struct relation *b = rel_create("t_oid_b");
           assert(b->oid == a->oid + 1);
           rel_close(a);
           rel_close(b);
           return 0;
         } |};
    t "pg_hash_distribution"
      {| char name[32];
         int main(int argc, char **argv) {
           int i;
           for (i = 0; i < 40; i = i + 1) {
             strcpy(name, "rel_");
             itoa(i, name + 4);
             catalog_insert(name, 1000 + i);
           }
           strcpy(name, "rel_");
           itoa(17, name + 4);
           assert(catalog_lookup(name) == 1017);
           return 0;
         } |};
    t "pg_tuple_roundtrip"
      {| char tup[64];
         int main(int argc, char **argv) {
           struct relation *r = rel_create("t_rt");
           strcpy(tup, "k1:v1");
           rel_insert(r, tup, 6);
           /* tuple is in the page buffer: header then payload at +8 *)  */
           assert(strcmp(r->page + 16 + 8, "k1:v1") == 0);
           rel_close(r);
           return 0;
         } |};
    t "pg_conf_write"
      {| char line[64];
         int main(int argc, char **argv) {
           int fd = open("/pgdata/t.conf", 0x0200 | 2, 0);
           strcpy(line, "shared_buffers = 128\n");
           write(fd, line, strlen(line));
           lseek(fd, 0, 0);
           char buf[64];
           int n = read(fd, buf, 63);
           buf[n] = 0;
           assert(strncmp(buf, "shared_buffers", 14) == 0);
           close(fd);
           return 0;
         } |};
    t "pg_many_relations"
      {| char name[32];
         int main(int argc, char **argv) {
           int i;
           for (i = 0; i < 20; i = i + 1) {
             strcpy(name, "bulk_");
             itoa(i, name + 5);
             struct relation *r = rel_create(name);
             rel_insert(r, name, strlen(name) + 1);
             rel_close(r);
           }
           return 0;
         } |};
    t "pg_empty_relation"
      {| int main(int argc, char **argv) {
           struct relation *r = rel_create("t_empty");
           assert(rel_close(r) == 0);
           return 0;
         } |};
    t "pg_big_values"
      {| char tup[600];
         int main(int argc, char **argv) {
           struct relation *r = rel_create("t_big");
           memset(tup, 'v', 512);
           tup[512] = 0;
           rel_insert(r, tup, 513);
           assert(rel_close(r) == 1);
           return 0;
         } |};
    (* Failing on CheriABI: serializes a pointer assuming it is 8 bytes. *)
    t "pg_serialize_ptr_size8"
      {| char pagebuf[64];
         int v = 77;
         int main(int argc, char **argv) {
           /* "write" a pointer into the page as 8 raw bytes *)  */
           int *slot = (int*)pagebuf;
           slot[0] = (int)&v;
           /* reconstruct *)  */
           int *back = (int*)slot[0];
           assert(*back == 77);
           assert(sizeof(int*) == 8);   /* pointer-size assumption *)  */
           return 0;
         } |};
    (* Failing on CheriABI: under-aligned pointer inside a page buffer. *)
    t "pg_underaligned_tuple_ptr"
      {| char pagebuf[128];
         char val[8];
         int main(int argc, char **argv) {
           char **slot = (char**)(pagebuf + 8);
           *slot = val;
           char **back = (char**)(pagebuf + 8);
           assert(*back == val);
           return 0;
         } |} ]

(* --- The container suite (libc++ stand-in) --------------------------------------------------- *)

(* The shared library: under CheriABI, the atomics entry point is absent —
   the "missing runtime library function" of §5.1's libc++ results. *)
let libxx_src ~abi =
  let atomics =
    match abi with
    | Abi.Cheriabi -> ""
    | Abi.Mips64 | Abi.Asan ->
      {| int atomic_add(int *cell, int delta) {
           cell[0] = cell[0] + delta;
           return cell[0];
         } |}
  in
  {|
    extern int strcmp(char*, char*);
    extern char *strcpy(char*, char*);

    struct vec { int *data; int len; int cap; };

    struct vec *vec_new() {
      struct vec *v = (struct vec*)malloc(sizeof(struct vec));
      v->data = (int*)malloc(8 * sizeof(int));
      v->len = 0;
      v->cap = 8;
      return v;
    }

    void vec_push(struct vec *v, int x) {
      if (v->len == v->cap) {
        v->cap = v->cap * 2;
        v->data = (int*)realloc((char*)v->data, v->cap * sizeof(int));
      }
      v->data[v->len] = x;
      v->len = v->len + 1;
    }

    int vec_get(struct vec *v, int i) { return v->data[i]; }
    int vec_len(struct vec *v) { return v->len; }
    void vec_free(struct vec *v) { free((char*)v->data); free((char*)v); }

    struct sbuf { char *data; int len; int cap; };
    struct sbuf *sbuf_new() {
      struct sbuf *b = (struct sbuf*)malloc(sizeof(struct sbuf));
      b->data = malloc(16);
      b->len = 0;
      b->cap = 16;
      b->data[0] = 0;
      return b;
    }
    void sbuf_add(struct sbuf *b, char *s) {
      int n = strlen(s);
      while (b->len + n + 1 > b->cap) {
        b->cap = b->cap * 2;
        b->data = realloc(b->data, b->cap);
      }
      strcpy(b->data + b->len, s);
      b->len = b->len + n;
    }
  |}
  ^ atomics

let libxx_externs =
  {|
    struct vec { int *data; int len; int cap; };
    struct sbuf { char *data; int len; int cap; };
    extern struct vec *vec_new();
    extern void vec_push(struct vec*, int);
    extern int vec_get(struct vec*, int);
    extern int vec_len(struct vec*);
    extern void vec_free(struct vec*);
    extern struct sbuf *sbuf_new();
    extern void sbuf_add(struct sbuf*, char*);
    extern int atomic_add(int*, int);
  |}

let xx_tests =
  let atomics_test name body = t name body in
  [ t "vec_push_get"
      {| int main(int argc, char **argv) {
           struct vec *v = vec_new();
           int i;
           for (i = 0; i < 100; i = i + 1) vec_push(v, i * 3);
           assert(vec_len(v) == 100);
           assert(vec_get(v, 99) == 297);
           vec_free(v);
           return 0;
         } |};
    t "vec_growth"
      {| int main(int argc, char **argv) {
           struct vec *v = vec_new();
           int i;
           for (i = 0; i < 1000; i = i + 1) vec_push(v, i);
           for (i = 0; i < 1000; i = i + 1) assert(vec_get(v, i) == i);
           vec_free(v);
           return 0;
         } |};
    t "vec_empty"
      {| int main(int argc, char **argv) {
           struct vec *v = vec_new();
           assert(vec_len(v) == 0);
           vec_free(v);
           return 0;
         } |};
    t "sbuf_append"
      {| int main(int argc, char **argv) {
           struct sbuf *b = sbuf_new();
           sbuf_add(b, "hello");
           sbuf_add(b, ", ");
           sbuf_add(b, "world");
           assert(strcmp(b->data, "hello, world") == 0);
           return 0;
         } |};
    t "sbuf_many_appends"
      {| int main(int argc, char **argv) {
           struct sbuf *b = sbuf_new();
           int i;
           for (i = 0; i < 200; i = i + 1) sbuf_add(b, "x");
           assert(strlen(b->data) == 200);
           return 0;
         } |};
    t "sort_via_vec"
      {| int main(int argc, char **argv) {
           struct vec *v = vec_new();
           srand(11);
           int i;
           for (i = 0; i < 128; i = i + 1) vec_push(v, rand());
           qsort_ints(v->data, 0, vec_len(v) - 1);
           for (i = 1; i < 128; i = i + 1) assert(vec_get(v, i-1) <= vec_get(v, i));
           vec_free(v);
           return 0;
         } |};
    t "nested_vectors"
      {| int main(int argc, char **argv) {
           struct vec *rows[4];
           int i; int j;
           for (i = 0; i < 4; i = i + 1) {
             rows[i] = vec_new();
             for (j = 0; j < 8; j = j + 1) vec_push(rows[i], i * 8 + j);
           }
           int sum = 0;
           for (i = 0; i < 4; i = i + 1)
             for (j = 0; j < 8; j = j + 1) sum = sum + vec_get(rows[i], j);
           assert(sum == 496);
           return 0;
         } |};
    t "vec_as_queue"
      {| int main(int argc, char **argv) {
           struct vec *v = vec_new();
           int head = 0;
           int i;
           for (i = 0; i < 50; i = i + 1) vec_push(v, i);
           int sum = 0;
           while (head < vec_len(v)) { sum = sum + vec_get(v, head); head = head + 1; }
           assert(sum == 1225);
           return 0;
         } |};
    atomics_test "atomic_counter"
      {| int cell;
         int main(int argc, char **argv) {
           int i;
           for (i = 0; i < 10; i = i + 1) atomic_add(&cell, 2);
           assert(cell == 20);
           return 0;
         } |};
    atomics_test "atomic_exchange_like"
      {| int cell;
         int main(int argc, char **argv) {
           assert(atomic_add(&cell, 5) == 5);
           assert(atomic_add(&cell, -5) == 0);
           return 0;
         } |};
    atomics_test "atomic_refcount"
      {| int rc;
         int main(int argc, char **argv) {
           atomic_add(&rc, 1);
           atomic_add(&rc, 1);
           if (atomic_add(&rc, -1) == 1) { }
           assert(rc == 1);
           return 0;
         } |};
    atomics_test "atomic_vec_len"
      {| int n;
         int main(int argc, char **argv) {
           struct vec *v = vec_new();
           vec_push(v, 1);
           atomic_add(&n, vec_len(v));
           assert(n == 1);
           return 0;
         } |};
    atomics_test "atomic_stress"
      {| int c;
         int main(int argc, char **argv) {
           int i;
           for (i = 0; i < 100; i = i + 1) atomic_add(&c, 1);
           assert(c == 100);
           return 0;
         } |} ]

(* --- Runner ---------------------------------------------------------------------------------- *)

type result = Rpass | Rfail of string | Rskip

type counts = {
  mutable passed : int;
  mutable failed : int;
  mutable skipped : int;
  mutable failures : (string * string) list;
}

let run_test ~abi ~extra_libs ~prelude (name, src) =
  let k = Cheri_libc.Runtime.boot ~mem_size:(16 * 1024 * 1024) () in
  (* Link errors (e.g. a function missing from one ABI's library build)
     surface either at install or at image activation: both are test
     failures, like a binary that fails to start. *)
  match
    Stdlib_src.install k ~path:"/bin/t" ~abi ~extra_libs (prelude ^ src);
    Kernel.run_program ~max_steps:30_000_000 k ~path:"/bin/t" ~argv:[ "t" ]
  with
  | exception Cheri_rtld.Rtld.Link_error m -> name, Rfail ("link: " ^ m)
  | exception Cheri_isa.Asm.Undefined_label m ->
    name, Rfail ("link: undefined symbol " ^ m)
  | exception Cheri_cc.Ast.Compile_error m -> name, Rfail ("compile: " ^ m)
  | status, out, _ ->
    (match status with
     | Some (Proc.Exited 0) -> name, Rpass
     | Some (Proc.Exited 77) -> name, Rskip
     | Some (Proc.Exited c) ->
       name, Rfail (Printf.sprintf "exit %d (out=%s)" c out)
     | Some (Proc.Signaled s) -> name, Rfail (Signo.name s)
     | None -> name, Rfail "timeout")

let run_many ~abi ~extra_libs ~prelude tests =
  let c = { passed = 0; failed = 0; skipped = 0; failures = [] } in
  List.iter
    (fun tst ->
      match run_test ~abi ~extra_libs ~prelude tst with
      | _, Rpass -> c.passed <- c.passed + 1
      | _, Rskip -> c.skipped <- c.skipped + 1
      | name, Rfail why ->
        c.failed <- c.failed + 1;
        c.failures <- (name, why) :: c.failures)
    tests;
  c

let run_system_suite ~abi = run_many ~abi ~extra_libs:[] ~prelude:"" sys_tests

let run_pg_suite ~abi =
  run_many ~abi ~extra_libs:[ "libpq", Minipg.libpq_src ] ~prelude:pg_prelude
    pg_tests

let run_xx_suite ~abi =
  run_many ~abi ~extra_libs:[ "libxx", libxx_src ~abi ] ~prelude:libxx_externs
    xx_tests

let total_of c = c.passed + c.failed + c.skipped
