(* The traced workload of §5.5: an openssl-s_server-shaped program.

   Dynamically linked against libc and a TLS-library shared object; it
   accepts a "connection" over a socketpair from a forked client, performs
   a handshake (key-schedule mixing), and exchanges an encrypted file —
   exercising thread-local storage, dynamic linking, heavy allocation and
   pointer manipulation, and system calls, like the original.

   [run_traced] executes it under CheriABI with the ISA tracer attached to
   the server process and returns the collected events for the
   granularity analysis (Fig. 5). *)

module Abi = Cheri_core.Abi
module Kernel = Cheri_kernel.Kernel
module Proc = Cheri_kernel.Proc
module Trace = Cheri_isa.Trace

let libssl_src =
  {|
    extern int strcmp(char*, char*);
    extern char *strcpy(char*, char*);
    extern int strhash(char*);

    struct session {
      int id;
      int state;
      char *rx;
      char *tx;
      int keys[16];
      struct session *next;
    };

    tls int ssl_error;
    struct session *sessions;
    int session_count;

    int rotl32(int x, int n) {
      return ((x << n) | ((x & 0xffffffff) >> (32 - n))) & 0xffffffff;
    }

    struct session *ssl_new(int id) {
      struct session *s = (struct session*)malloc(sizeof(struct session));
      s->id = id;
      s->state = 0;
      s->rx = malloc(512);
      s->tx = malloc(512);
      s->next = sessions;
      sessions = s;
      session_count = session_count + 1;
      ssl_error = 0;
      return s;
    }

    void ssl_free(struct session *s) {
      free(s->rx);
      free(s->tx);
      free((char*)s);
      session_count = session_count - 1;
    }

    int mix_block(int k, int round) {
      int sched[8];
      int j;
      for (j = 0; j < 8; j = j + 1) {
        k = (rotl32(k, 5) + (k ^ ((round + j) * 0x5bd1e995))) & 0xffffffff;
        sched[j] = k;
      }
      int acc = 0;
      for (j = 0; j < 8; j = j + 1) acc = (acc ^ sched[j]) & 0xffffffff;
      return acc;
    }

    int ssl_handshake(struct session *s, int seed) {
      int k = seed & 0xffffffff;
      int i;
      for (i = 0; i < 16; i = i + 1) {
        k = (k ^ rotl32(k + 0x9e3779b9, 13)) & 0xffffffff;
        k = mix_block(k, i);
        k = mix_block(k, i + 7);
        s->keys[i] = k;
      }
      s->state = 1;
      ssl_error = 0;
      return 0;
    }

    /* per-record processing through a bounded stack block, as a real TLS
       record layer does */
    int crypt_record(struct session *s, char *in, char *out, int base, int n) {
      char block[64];
      int i;
      for (i = 0; i < n; i = i + 1) block[i] = in[base + i];
      for (i = 0; i < n; i = i + 1) {
        int key = s->keys[(base + i) & 15];
        block[i] = (block[i] ^ (key >> ((base + i) & 7))) & 0xff;
      }
      for (i = 0; i < n; i = i + 1) out[base + i] = block[i];
      return n;
    }

    int ssl_crypt(struct session *s, char *in, char *out, int n) {
      if (s->state != 1) { ssl_error = 1; return -1; }
      int done = 0;
      while (done < n) {
        int chunk = n - done;
        if (chunk > 64) chunk = 64;
        crypt_record(s, in, out, done, chunk);
        done = done + chunk;
      }
      return n;
    }
  |}

let libssl_externs =
  {|
    struct session { int id; int state; char *rx; char *tx;
                     int keys[16]; struct session *next; };
    extern struct session *ssl_new(int id);
    extern void ssl_free(struct session *s);
    extern int ssl_handshake(struct session *s, int seed);
    extern int ssl_crypt(struct session *s, char *in, char *out, int n);
    extern int mix_block(int k, int round);
  |}

let server_src =
  libssl_externs
  ^ {|
    char fdata[4096];

    int main(int argc, char **argv) {
      int sv[2];
      socketpair(sv);
      /* prepare the "file" to exchange *)  */
      srand(41);
      int flen = 3000;
      int i;
      for (i = 0; i < flen; i = i + 1) fdata[i] = 32 + rand() % 90;

      /* warm-up handshakes: session churn through the allocator */
      for (i = 0; i < 8; i = i + 1) {
        struct session *w = ssl_new(100 + i);
        ssl_handshake(w, 1000 + i * 17);
        ssl_free(w);
      }
      char *scratch = malloc(20000);   /* a large allocation */
      scratch[0] = 1;
      free(scratch);

      int pid = fork();
      if (pid == 0) {
        /* client: request the file, decrypt, verify *)  */
        struct session *cs = ssl_new(1);
        ssl_handshake(cs, 4242);
        char *req = malloc(64);
        strcpy(req, "GET /secret.txt");
        write(sv[1], req, 16);
        char *enc = malloc(4096);
        char *dec = malloc(4096);
        int got = 0;
        while (got < flen) {
          int r = read(sv[1], enc + got, 4096 - got);
          if (r <= 0) break;
          got = got + r;
        }
        ssl_crypt(cs, enc, dec, got);
        int bad = 0;
        for (i = 0; i < got; i = i + 1) {
          if (dec[i] != fdata[i]) bad = bad + 1;
        }
        free(req);
        free(enc);
        free(dec);
        ssl_free(cs);
        exit(bad == 0);
      }
      /* server: accept, handshake, send the encrypted file *)  */
      struct session *s = ssl_new(2);
      ssl_handshake(s, 4242);
      char *reqbuf = malloc(64);
      int r = read(sv[0], reqbuf, 16);
      if (r <= 0) exit(2);
      if (strcmp(reqbuf, "GET /secret.txt") != 0) exit(3);
      char *enc = malloc(4096);
      int pass;
      for (pass = 0; pass < 3; pass = pass + 1) ssl_crypt(s, fdata, enc, flen);
      int sent = 0;
      while (sent < flen) {
        int w = write(sv[0], enc + sent, min_i(1024, flen - sent));
        if (w <= 0) break;
        sent = sent + w;
      }
      free(reqbuf);
      free(enc);
      ssl_free(s);
      int status = 0;
      wait(&status);
      /* child exits 1 on success *)  */
      if ((status >> 8) != 1) return 4;
      print_str("exchange ok");
      return 0;
    }
  |}

(* Multi-round traffic variant for the fleet simulator: the same
   server/client shape as [server_src], but instead of one file exchange
   the forked client issues [rounds] request/response rounds, each a
   16-byte request answered with a [payload]-byte encrypted record. The
   server prints one '#' to its console after serving each round — the
   fleet harness counts these markers between run chunks to timestamp
   request completions in *simulated* cycles, so per-request latency is
   deterministic and independent of host scheduling or domain count. The
   client decrypts and verifies every record and exits 1 on success, which
   the server checks after [wait]; "fleet ok" marks a fully verified run.

   [seed] perturbs both the record contents and the handshake, so
   machines in a mix are genuinely heterogeneous (different data, same
   code — they share one image when [rounds]/[payload]/[seed] agree). *)
let traffic_server_src ~rounds ~payload ~seed =
  libssl_externs
  ^ Printf.sprintf
      {|
    int main(int argc, char **argv) {
      int rounds = %d;
      int plen = %d;
      int sv[2];
      socketpair(sv);
      srand(%d);
      char *data = malloc(plen);
      int i;
      for (i = 0; i < plen; i = i + 1) data[i] = 32 + rand() %% 90;

      int pid = fork();
      if (pid == 0) {
        /* client: [rounds] request/response rounds, verify each record *) */
        struct session *cs = ssl_new(1);
        ssl_handshake(cs, %d + 17);
        char *req = malloc(32);
        strcpy(req, "GET /record");
        char *enc = malloc(plen);
        char *dec = malloc(plen);
        int bad = 0;
        int r;
        for (r = 0; r < rounds; r = r + 1) {
          write(sv[1], req, 16);
          int got = 0;
          while (got < plen) {
            int n = read(sv[1], enc + got, plen - got);
            if (n <= 0) exit(9);
            got = got + n;
          }
          ssl_crypt(cs, enc, dec, plen);
          for (i = 0; i < plen; i = i + 1) {
            if (dec[i] != data[i]) bad = bad + 1;
          }
        }
        ssl_free(cs);
        exit(bad == 0);
      }
      /* server: serve [rounds] records, marking each completion *) */
      struct session *s = ssl_new(2);
      ssl_handshake(s, %d + 17);
      char *reqbuf = malloc(32);
      char *enc = malloc(plen);
      int r;
      for (r = 0; r < rounds; r = r + 1) {
        int n = read(sv[0], reqbuf, 16);
        if (n <= 0) exit(2);
        ssl_crypt(s, data, enc, plen);
        int sent = 0;
        while (sent < plen) {
          int w = write(sv[0], enc + sent, min_i(512, plen - sent));
          if (w <= 0) exit(3);
          sent = sent + w;
        }
        print_str("#");
      }
      free(reqbuf);
      free(enc);
      ssl_free(s);
      int status = 0;
      wait(&status);
      if ((status >> 8) != 1) return 4;
      print_str("fleet ok");
      return 0;
    }
  |}
      rounds payload seed seed seed

(* Run the server under CheriABI with tracing; returns (status, output,
   trace events). *)
let run_traced () =
  let k = Cheri_libc.Runtime.boot () in
  let collector = Trace.collector () in
  k.Cheri_kernel.Kstate.tracer <- Some (Trace.sink_of collector);
  Stdlib_src.install k ~path:"/bin/s_server" ~abi:Abi.Cheriabi
    ~extra_libs:[ "libssl", libssl_src ]
    server_src;
  (* Trace the first process (the server). *)
  k.Cheri_kernel.Kstate.trace_pid <- Some k.Cheri_kernel.Kstate.next_pid;
  let status, out, _p =
    Kernel.run_program ~max_steps:60_000_000 k ~path:"/bin/s_server"
      ~argv:[ "s_server"; "-port"; "4433" ]
  in
  status, out, Trace.to_list collector

(* Stack range for classifying trace derivations. *)
let stack_range = Cheri_kernel.Exec.stack_base, Cheri_kernel.Exec.stack_top
