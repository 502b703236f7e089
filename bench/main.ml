(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§5) on the simulated system.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe table1     -- one experiment
     (table1 table2 table3 fig4 fig5 syscalls initdb ablation
      cachestudy bugs simulator)

   Absolute numbers come from a synthetic cycle model; EXPERIMENTS.md
   records the paper-vs-measured comparison for each experiment. *)

open Cheri_workloads

module Abi = Cheri_core.Abi
module G = Cheri_core.Granularity
module Lint = Cheri_analysis.Lint

let line = String.make 78 '-'

let header title = Printf.printf "\n%s\n%s\n%s\n" line title line

(* --- Table 1: test suites ----------------------------------------------------------- *)

let table1 () =
  header "Table 1: test-suite results (pass / fail / skip / total)";
  let row label (c : Testsuite.counts) =
    Printf.printf "%-26s %5d %5d %5d %6d\n" label c.Testsuite.passed
      c.Testsuite.failed c.Testsuite.skipped (Testsuite.total_of c)
  in
  Printf.printf "%-26s %5s %5s %5s %6s\n" "" "Pass" "Fail" "Skip" "Total";
  let sys_m = Testsuite.run_system_suite ~abi:Abi.Mips64 in
  let sys_c = Testsuite.run_system_suite ~abi:Abi.Cheriabi in
  row "System MIPS" sys_m;
  row "System CheriABI" sys_c;
  let pg_m = Testsuite.run_pg_suite ~abi:Abi.Mips64 in
  let pg_c = Testsuite.run_pg_suite ~abi:Abi.Cheriabi in
  row "PostgreSQL MIPS" pg_m;
  row "PostgreSQL CheriABI" pg_c;
  let xx_m = Testsuite.run_xx_suite ~abi:Abi.Mips64 in
  let xx_c = Testsuite.run_xx_suite ~abi:Abi.Cheriabi in
  row "libc++-like MIPS" xx_m;
  row "libc++-like CheriABI" xx_c;
  Printf.printf "\nCheriABI-only failures, by cause:\n";
  List.iter
    (fun (suite, c) ->
      List.iter
        (fun (n, why) -> Printf.printf "  [%s] %s: %s\n" suite n why)
        c.Testsuite.failures)
    [ "system", sys_c; "postgres", pg_c; "libc++", xx_c ];
  Printf.printf
    "\nPaper: FreeBSD 3501/90/244 -> 3301/122/246; PostgreSQL 167/0/0 ->\n\
     150/16/1; libc++ 5338/29 -> 5333/34 (missing atomics runtime fn).\n\
     Shape: CheriABI adds failures from C idioms and one missing library\n\
     function, plus a skip for sbrk.\n"

(* --- Table 2: compatibility changes --------------------------------------------------- *)

let table2 () =
  header "Table 2: CheriABI compatibility idioms, by category";
  let cats = Lint.table2_categories in
  let print_matrix title rows =
    Printf.printf "\n%s\n%-16s" title "";
    List.iter (fun c -> Printf.printf "%4s" (Lint.cat_name c)) cats;
    print_newline ();
    List.iter
      (fun (group, counts) ->
        Printf.printf "%-16s" group;
        List.iter (fun (_, n) -> Printf.printf "%4d" n) counts;
        print_newline ())
      rows
  in
  print_matrix "Analyzer over the legacy-C corpus:"
    (List.map (fun (g, files) -> g, Compat.analyze_group files) Compat.corpus);
  print_matrix
    "Semantic analyzer (typed-AST lint) over this repository's own CSmall \
     sources:"
    (List.map
       (fun (g, files) -> g, Compat.analyze_group_semantic files)
       (Compat.own_sources ()));
  Printf.printf "\nPaper's counts for the FreeBSD tree:\n%-16s" "";
  List.iter (fun c -> Printf.printf "%4s" (Lint.cat_name c)) cats;
  print_newline ();
  List.iter
    (fun (g, ns) ->
      Printf.printf "%-16s" g;
      List.iter (fun n -> Printf.printf "%4d" n) ns;
      print_newline ())
    Compat.paper_counts;
  Printf.printf "\nCategories: %s\n"
    (String.concat ", "
       (List.map
          (fun c ->
            Printf.sprintf "%s=%s" (Lint.cat_name c) (Lint.cat_description c))
          cats))

(* --- Table 3: BOdiagsuite -------------------------------------------------------------- *)

let table3 () =
  header "Table 3: BOdiagsuite detected errors (of 291 tests)";
  Printf.printf "%-10s %5s %5s %5s   (ok-variant sanity: pass/291)\n" "" "min"
    "med" "large";
  List.iter
    (fun abi ->
      let t = Bodiag.run_suite ~abi () in
      Printf.printf "%-10s %5d %5d %5d   ok=%d/%d\n%!" (Abi.to_string abi)
        t.Bodiag.detected_min t.Bodiag.detected_med t.Bodiag.detected_large
        t.Bodiag.ok_passed Bodiag.count;
      List.iter
        (fun (id, v, e) -> Printf.printf "    error: test %d/%s: %s\n" id v e)
        t.Bodiag.errors)
    [ Abi.Mips64; Abi.Cheriabi; Abi.Asan ];
  Printf.printf "\nPaper:\n";
  List.iter
    (fun (n, (a, b, c)) -> Printf.printf "%-10s %5d %5d %5d\n" n a b c)
    [ "mips64", (4, 8, 175); "cheriabi", (279, 289, 291);
      "asan", (276, 286, 286) ]

(* --- Figure 4: benchmark overheads ------------------------------------------------------ *)

let fig4 () =
  header
    "Figure 4: MiBench / SPEC / initdb overheads, CheriABI vs MIPS baseline";
  Printf.printf "%-22s %12s %8s %19s %8s\n" "benchmark" "base insns" "insns"
    "cycles [IQR]" "L2 miss";
  List.iter
    (fun (name, src) ->
      let s = Harness.compare_abis_spread ~runs:3 ~name src in
      Printf.printf "%-22s %12d %+7.2f%% %+7.2f%% [%+.2f %+.2f] %+7.2f%%\n%!"
        name s.Harness.s_base_insns s.Harness.s_insn_med s.Harness.s_cycle_med
        s.Harness.s_cycle_q1 s.Harness.s_cycle_q3 s.Harness.s_l2_med)
    Mibench.benchmarks;
  let base = Minipg.run ~abi:Abi.Mips64 () in
  let cheri = Minipg.run ~abi:Abi.Cheriabi () in
  let pct a b = 100.0 *. (float_of_int a -. float_of_int b) /. float_of_int b in
  Printf.printf "%-22s %12d %+8.2f%% %+8.2f%% %+8.2f%%\n" "initdb-dynamic"
    base.Harness.m_instructions
    (pct cheri.Harness.m_instructions base.Harness.m_instructions)
    (pct cheri.Harness.m_cycles base.Harness.m_cycles)
    (pct cheri.Harness.m_l2_misses base.Harness.m_l2_misses);
  Printf.printf
    "\nPaper: most benchmarks within compiler/cache noise; pointer-heavy\n\
     workloads see the largest cache-miss growth; initdb +6.8%% cycles.\n"

(* --- Figure 5: capability granularity ---------------------------------------------------- *)

let fig5 () =
  header "Figure 5: cumulative capabilities vs bounds size (openssl s_server)";
  let status, out, events = Openssl_sim.run_traced () in
  (match status with
   | Some (Cheri_kernel.Proc.Exited 0) -> ()
   | _ -> Printf.printf "warning: traced run did not exit cleanly (%s)\n" out);
  let regions =
    G.regions_of_trace ~stack_range:Openssl_sim.stack_range events
  in
  let es = G.entries regions events in
  let all, per_source = G.analyze regions events in
  let buckets = [ 16; 64; 256; 1024; 4096; 16384; 65536; 1 lsl 20; 1 lsl 24 ] in
  Printf.printf "%-12s" "size <=";
  List.iter
    (fun b ->
      let label =
        if b >= 1 lsl 20 then Printf.sprintf "%dM" (b lsr 20)
        else if b >= 1024 then Printf.sprintf "%dK" (b lsr 10)
        else string_of_int b
      in
      Printf.printf "%7s" label)
    buckets;
  print_newline ();
  let count_le (cdf : G.cdf) b =
    List.fold_left
      (fun acc (sz, n) -> if sz <= b then max acc n else acc)
      0 cdf.G.c_points
  in
  let row label (cdf : G.cdf) =
    Printf.printf "%-12s" label;
    List.iter (fun b -> Printf.printf "%7d" (count_le cdf b)) buckets;
    Printf.printf "  (max %d)\n" cdf.G.c_max_size
  in
  row "all" all;
  List.iter
    (fun c ->
      row (match c.G.c_source with Some s -> G.source_name s | None -> "?") c)
    per_source;
  let f = Cheri_core.Provenance.build events in
  Printf.printf "\nDerivation chains: %d roots (kernel grants), max depth %d,\n                 mean depth %.2f; histogram:" f.Cheri_core.Provenance.roots
    f.Cheri_core.Provenance.max_depth f.Cheri_core.Provenance.mean_depth;
  List.iter (fun (d, c) -> Printf.printf " d%d:%d" d c)
    (Cheri_core.Provenance.depth_histogram f);
  print_newline ();
  let s = G.summarize es in
  Printf.printf
    "\nTotal %d capabilities; %.1f%% grant <= 1KiB; largest %d bytes\n\
     (paper: ~90%% under 1KiB, none over 16MiB: %s here).\n"
    s.G.s_total s.G.s_pct_under_1k s.G.s_largest
    (if s.G.s_largest_under_16m then "holds" else "VIOLATED")

(* --- Syscall micro-benchmarks -------------------------------------------------------------- *)

let syscalls () =
  header "System-call micro-benchmarks (cycles per call)";
  Printf.printf "%-10s %10s %10s %9s\n" "syscall" "mips64" "cheriabi" "delta";
  List.iter
    (fun r ->
      Printf.printf "%-10s %10.1f %10.1f %+8.2f%%\n" r.Sysbench.r_name
        r.Sysbench.r_cycles_legacy r.Sysbench.r_cycles_cheri r.Sysbench.r_pct)
    (Sysbench.run_all ());
  Printf.printf
    "\nPaper: from +3.4%% (fork) to -9.8%% (select); select is faster under\n\
     CheriABI because the legacy kernel must construct capabilities from\n\
     four integer pointer arguments.\n"

(* --- initdb macro-benchmark + CLC ablation --------------------------------------------------- *)

let initdb () =
  header "PostgreSQL initdb macro-benchmark";
  let base = Minipg.run ~abi:Abi.Mips64 () in
  let cheri = Minipg.run ~abi:Abi.Cheriabi () in
  let asan = Minipg.run ~abi:Abi.Asan () in
  let pct a b = 100.0 *. (float_of_int a -. float_of_int b) /. float_of_int b in
  Printf.printf "%-18s %12s %12s %9s\n" "" "insns" "cycles" "vs mips64";
  let row name (m : Harness.measurement) =
    Printf.printf "%-18s %12d %12d %+8.2f%%\n" name m.Harness.m_instructions
      m.Harness.m_cycles
      (pct m.Harness.m_cycles base.Harness.m_cycles)
  in
  row "mips64" base;
  row "cheriabi" cheri;
  row "asan" asan;
  Printf.printf
    "\nASan/mips64 cycle ratio: %.2fx (paper: 3.29x more cycles).\n\
     Paper: CheriABI initdb +6.8%% cycles.\n"
    (float_of_int asan.Harness.m_cycles /. float_of_int base.Harness.m_cycles)

let ablation () =
  header "CLC immediate-range ablation (the paper's ISA extension, 5.2)";
  let base = Minipg.run ~abi:Abi.Mips64 () in
  let big = Minipg.run ~abi:Abi.Cheriabi () in
  let small =
    Minipg.run
      ~opts:
        { (Cheri_cc.Compile.default_options Abi.Cheriabi) with clc_large_imm = false }
      ~abi:Abi.Cheriabi ()
  in
  let pct a b = 100.0 *. (float_of_int a -. float_of_int b) /. float_of_int b in
  Printf.printf "%-24s %12s %10s %11s\n" "configuration" "cycles" "vs mips64"
    "code bytes";
  Printf.printf "%-24s %12d %10s %11d\n" "mips64 baseline" base.Harness.m_cycles
    "" base.Harness.m_code_bytes;
  Printf.printf "%-24s %12d %+9.2f%% %11d\n" "cheriabi, small CLC imm"
    small.Harness.m_cycles
    (pct small.Harness.m_cycles base.Harness.m_cycles)
    small.Harness.m_code_bytes;
  Printf.printf "%-24s %12d %+9.2f%% %11d\n" "cheriabi, large CLC imm"
    big.Harness.m_cycles
    (pct big.Harness.m_cycles base.Harness.m_cycles)
    big.Harness.m_code_bytes;
  Printf.printf
    "\nLarge-immediate CLC shrinks code by %.1f%% and cuts the overhead\n\
     (paper: initdb 11%% -> 6.8%%; >10%% code-size reduction).\n"
    (100.0
    *. float_of_int (small.Harness.m_code_bytes - big.Harness.m_code_bytes)
    /. float_of_int small.Harness.m_code_bytes)

(* --- Cache study ----------------------------------------------------------------------------------

   The paper's 6 proposes trace-based cache analysis as future work: here
   we sweep the shared L2 over the pointer-heavy patricia benchmark. *)

let cachestudy () =
  header "Cache study (6): CheriABI overhead vs L2 size, network-patricia";
  Printf.printf "%-8s %12s %14s %14s\n" "L2" "cycle ovh" "L2miss mips64"
    "L2miss cheri";
  List.iter
    (fun (kib, ovh, bm, cm) ->
      Printf.printf "%5dK %+10.2f%% %14d %14d\n" kib ovh bm cm)
    (Harness.cache_study ~name:"patricia"
       (Option.get (Mibench.find "network-patricia")));
  Printf.printf
    "\nLarger pointers enlarge the working set: the overhead is a cache\n\
     phenomenon and fades once the L2 holds both ABIs' footprints.\n"

(* --- Real-bug census ---------------------------------------------------------------------------- *)

let bugs () =
  header "Bug census (5.4): FreeBSD bugs found by CheriABI, re-created";
  Printf.printf "%-28s %-12s %-24s\n" "bug" "mips64" "cheriabi";
  List.iter
    (fun v ->
      Printf.printf "%-28s %-12s %-24s\n" v.Bugs.v_name v.Bugs.v_mips64
        v.Bugs.v_cheriabi)
    (Bugs.run_all ());
  Printf.printf "\nAll are detected under CheriABI; the legacy ABI runs on.\n"

(* --- Wall-clock legs: engine, fleet, malloc ----------------------------------------------------------

   Host wall-clock throughput of the interpreters (docs/INTERP.md), of
   the multi-domain fleet (docs/FLEET.md) and of the sharded allocator
   under it (docs/ALLOC.md). Images are compiled outside the timed
   region. These legs print tables only: every host-independent gate on
   the same runs (engine parity, chain counters, 1-vs-N-domain snapshot
   equality, the allocator choreography) lives in test/, and speed
   claims come from simbench/.

   With --perf each leg runs its small mix and enforces its throughput
   floor. The floors measure the host as much as the code, so they run
   only under `dune build @perf`, never under `runtest`. *)

module Fleet = Cheri_fleet.Fleet

let opt_perf = ref false
let domains = 4

(* Print a leg's measured ratio against its floor. Under --perf a ratio
   below the floor is recorded, and the run fails once every selected
   leg has run. *)
let perf_failures = ref []

let perf_floor leg ~speedup ~floor ~what =
  Printf.printf "%s: %.2fx %s (@perf floor %.2fx)\n" leg speedup what floor;
  if !opt_perf && speedup < floor then
    perf_failures :=
      Printf.sprintf "%s: %s %.2fx is under the %.2fx floor" leg what speedup
        floor
      :: !perf_failures

let engine_bench () =
  let module B = Cheri_isa.Bbcache in
  header "Execution-engine throughput: step vs chain (host wall-clock)";
  let workloads =
    if !opt_perf then [ List.hd Mibench.benchmarks ] else Mibench.benchmarks
  in
  let images =
    List.concat_map
      (fun (name, src) ->
        List.map
          (fun abi ->
            ( abi, [ "bench" ], Stdlib_src.build_image ~abi ~name src ))
          [ Abi.Mips64; Abi.Cheriabi ])
      workloads
    @
    (if !opt_perf then []
     else
       [ ( Abi.Cheriabi, [ "s_server"; "-port"; "4433" ],
           Stdlib_src.build_image ~abi:Abi.Cheriabi ~name:"s_server"
             ~extra_libs:[ "libssl", Openssl_sim.libssl_src ]
             Openssl_sim.server_src ) ])
  in
  (* One pass over the mix: retired instructions, host seconds inside
     [run_program] only, and every machine's chain counters. *)
  let run_pass engine =
    List.fold_left
      (fun (insns, secs, chs) (abi, argv, image) ->
        let k = Cheri_libc.Runtime.boot ~engine () in
        Cheri_kernel.Vfs.add_exe k.Cheri_kernel.Kstate.vfs "/bin/bench" ~abi
          image;
        let t0 = Unix.gettimeofday () in
        let _, _, p =
          Cheri_kernel.Kernel.run_program k ~path:"/bin/bench" ~argv
        in
        ( insns + p.Cheri_kernel.Proc.ctx.Cheri_isa.Cpu.instret,
          secs +. (Unix.gettimeofday () -. t0),
          B.chain_stats k.Cheri_kernel.Kstate.bb :: chs ))
      (0, 0.0, []) images
  in
  (* Host wall-clock is noisy: keep the best of [reps] passes. Counters
     are deterministic, so the first pass's stand for all of them. The
     small mix is ~40 ms a pass, where one descheduling is a
     multi-percent outlier, so it takes best-of-7; the full mix runs
     seconds per pass and takes best-of-3. *)
  let best_of reps engine =
    let i, s, chs = run_pass engine in
    let best = ref s in
    for _ = 2 to reps do
      let _, s, _ = run_pass engine in
      best := Float.min !best s
    done;
    (i, !best, chs)
  in
  let step = best_of 1 Cheri_isa.Cpu.Step in
  let chain = best_of (if !opt_perf then 7 else 3) Cheri_isa.Cpu.Chain in
  let mips (i, s, _) = float_of_int i /. s /. 1e6 in
  let sum chs f = List.fold_left (fun acc c -> acc + f c) 0 chs in
  let pct n d = if d = 0 then 0.0 else 100.0 *. float_of_int n /. float_of_int d in
  let _, _, chain_chs = chain in
  let dtlb_hits = sum chain_chs (fun c -> c.B.ch_dtlb_hits) in
  let dtlb_misses = sum chain_chs (fun c -> c.B.ch_dtlb_misses) in
  Printf.printf
    "data-TLB (chain leg, 2x2 set-assoc): %d hits, %d misses (%.1f%% hit)\n"
    dtlb_hits dtlb_misses (pct dtlb_hits (dtlb_hits + dtlb_misses));
  Printf.printf "build profile: %s\n" Build_info.profile;
  Printf.printf "%-18s %14s %10s %10s %10s %8s\n" "engine" "sim insns"
    "host s" "sim-MIPS/s" "chain-len" "IC-hit";
  (* Chain length = blocks executed per dispatch-loop entry; IC hit rate =
     inline-cache key matches over all keyed (non-fall-through) lookups. *)
  List.iter
    (fun (name, ((insns, secs, chs) as leg)) ->
      let entries = sum chs (fun c -> c.B.ch_entries) in
      if entries = 0 then
        Printf.printf "%-18s %14d %10.3f %10.2f %10s %8s\n" name insns secs
          (mips leg) "-" "-"
      else
        let hits = sum chs (fun c -> c.B.ch_ic_hits) in
        Printf.printf "%-18s %14d %10.3f %10.2f %10.2f %7.1f%%\n" name insns
          secs (mips leg)
          (float_of_int (entries + sum chs (fun c -> c.B.ch_chained))
           /. float_of_int entries)
          (pct hits
             (hits + sum chs (fun c -> c.B.ch_ic_misses + c.ch_ic_mega))))
    [ "step", step; "chain", chain ];
  (* Chaining exists to beat per-instruction dispatch: under twice the
     step engine's throughput, the links or inline caches stopped
     carrying the hot loops. *)
  perf_floor "engine" ~speedup:(mips chain /. mips step) ~floor:2.0
    ~what:"chain over step"

(* Paired wall-clock runs of [specs] on 1 and on [domains] domains,
   alternating so host stalls land on both sides, keeping each side's
   best throughput. Simulated results are identical across repetitions
   (the determinism contract, test/test_fleet.ml), so "best" only
   selects a wall clock. The printed ratio is held to 0.625x per usable
   domain: 2.5x for 4 domains on >= 4 host cores, and "stay within
   0.625x of one domain" on a 1-core host, which guards multi-domain
   overhead without demanding what the hardware cannot give
   (docs/FLEET.md). *)
let paired_scaling leg ?oversubscribe specs =
  let best a b = if b.Fleet.f_mips > a.Fleet.f_mips then b else a in
  let run_pair () =
    let s = Fleet.run ~domains:1 specs in
    (s, Fleet.run ~domains ?oversubscribe specs)
  in
  let rec go n (s0, f0) =
    if n = 0 then (s0, f0)
    else
      let s, f = run_pair () in
      go (n - 1) (best s0 s, best f0 f)
  in
  let single, fleet = go (if !opt_perf then 2 else 0) (run_pair ()) in
  Printf.printf
    "aggregate: 1 domain %.2f sim-MIPS; %d domains (%d workers) %.2f \
     sim-MIPS\n"
    single.Fleet.f_mips domains fleet.Fleet.f_workers fleet.Fleet.f_mips;
  let usable = min domains (Domain.recommended_domain_count ()) in
  perf_floor leg
    ~speedup:(fleet.Fleet.f_mips /. single.Fleet.f_mips)
    ~floor:(0.625 *. float_of_int usable)
    ~what:(Printf.sprintf "%d domains over 1 (usable parallelism %d)" domains
             usable);
  fleet

let fleet_bench () =
  header "Fleet: whole-machine sharding across OCaml domains (TLS traffic)";
  (* The small mix is sized for a narrow host; the full mix is the
     EXPERIMENTS.md scaling configuration. *)
  let machines, rounds = if !opt_perf then 4, 30 else 8, 150 in
  Printf.printf
    "mix: %d s_server machines in 3 service classes (base rounds %d), %d \
     domains on %d host cores\n%!"
    machines rounds domains (Domain.recommended_domain_count ());
  let fleet =
    paired_scaling "fleet" (Fleet.traffic_mix ~machines ~rounds ())
  in
  Printf.printf "%-20s %6s %12s %9s %8s\n" "machine" "domain"
    "sim insns" "requests" "host s";
  Array.iter
    (fun (m : Fleet.machine_result) ->
      Printf.printf "%-20s %6d %12d %9d %8.3f\n" m.Fleet.mr_label
        m.Fleet.mr_domain m.Fleet.mr_insns m.Fleet.mr_requests
        m.Fleet.mr_host_seconds)
    fleet.Fleet.f_results;
  Printf.printf "utilization: %s\n"
    (String.concat " "
       (Array.to_list
          (Array.mapi
             (fun d u -> Printf.sprintf "d%d=%.0f%%" d (100.0 *. u))
             fleet.Fleet.f_util)));
  Printf.printf
    "request latency (sim cycles over %d requests): p50=%d p95=%d p99=%d\n"
    fleet.Fleet.f_requests fleet.Fleet.f_p50 fleet.Fleet.f_p95
    fleet.Fleet.f_p99

(* --- Malloc contention: the sharded allocator under cross-shard frees (docs/ALLOC.md) ---

   The directed leg drives the allocator API through a real fork, so the
   per-shard counters (remote frees message-passed between shards, queue
   drains, sweeps at ownership change) can be sampled live: a C
   program's heap is evicted into machine totals at exit. The fleet leg
   then runs the contention workload as whole machines across domains. *)

let malloc_contention () =
  let module MI = Cheri_libc.Malloc_impl in
  header "Malloc contention: sharded allocator, remote-free queues, sweeps";
  let k = Cheri_libc.Runtime.boot () in
  Stdlib_src.install k ~path:"/bin/idle" ~abi:Abi.Cheriabi
    "int main(int argc, char **argv) { return 0; }";
  let p =
    Cheri_kernel.Kernel.spawn k ~path:"/bin/idle" ~argv:[ "idle" ] ()
  in
  let ptrs =
    Array.init 96 (fun i -> fst (MI.malloc k p (16 + ((i * 53) mod 2600))))
  in
  let child =
    match Cheri_kernel.Sys_impl.sys_fork k p with
    | Cheri_kernel.Sys_impl.RInt pid ->
      Option.get (Cheri_kernel.Kstate.find_proc k pid)
    | _ -> failwith "malloc bench: fork failed"
  in
  (* The child frees every other inherited object before its first
     allocation: its affinity shard does not own those chunks, so each
     free is message-passed to the owner's remote queue. Then churn over
     a few repeating classes: the first malloc drains and adopts
     (ownership-change sweeps), later rounds recycle dirty local slots
     (reuse sweeps). *)
  Array.iteri (fun i a -> if i mod 2 = 0 then ignore (MI.free k child a)) ptrs;
  for i = 0 to 63 do
    let a, _ = MI.malloc k child (16 + ((i mod 8) * 37)) in
    ignore (MI.free k child a)
  done;
  ignore (MI.malloc k child 64);
  Printf.printf "%-6s %8s %7s %8s %8s %7s %7s %7s %6s %8s\n" "shard"
    "mallocs" "frees" "rem-enq" "rem-drn" "drains" "own-sw" "reuse"
    "adopt" "pending";
  Array.iteri
    (fun id s ->
      let v n = List.assoc n s in
      Printf.printf "%-6d %8d %7d %8d %8d %7d %7d %7d %6d %8d\n" id
        (v "mallocs") (v "frees") (v "remote_enq") (v "remote_drained")
        (v "drains") (v "owner_sweeps") (v "reuse_sweeps") (v "adoptions")
        (v "pending"))
    (MI.shard_stats k child);
  let machines, src =
    if !opt_perf then
      2, Malloc_bench.contention_src ~objs:24 ~generations:4 ~churn:12 ()
    else 4, Malloc_bench.contention_src ()
  in
  Printf.printf "fleet leg: %d contention machines, %d domains on %d host \
                 cores\n%!"
    machines domains (Domain.recommended_domain_count ());
  let image = Stdlib_src.build_image ~abi:Abi.Cheriabi ~name:"malloc_mc" src in
  let specs =
    List.init machines (fun i ->
        { Fleet.ms_label = Printf.sprintf "malloc_mc%d" i;
          ms_abi = Abi.Cheriabi; ms_image = image; ms_path = "/bin/malloc_mc";
          ms_argv = [ "malloc_mc" ]; ms_max_steps = 200_000_000;
          ms_marker = '#' })
  in
  let fleet = paired_scaling "malloc" ~oversubscribe:true specs in
  Printf.printf "%-14s %9s %9s %9s %9s %8s %8s %8s\n" "machine" "mallocs"
    "frees" "rem-enq" "rem-drn" "own-sw" "reuse" "adopt";
  Array.iter
    (fun (m : Fleet.machine_result) ->
      let ma n = List.assoc n m.Fleet.mr_alloc in
      Printf.printf "%-14s %9d %9d %9d %9d %8d %8d %8d\n" m.Fleet.mr_label
        (ma "mallocs") (ma "frees") (ma "remote_enq") (ma "remote_drained")
        (ma "owner_sweeps") (ma "reuse_sweeps") (ma "adoptions"))
    fleet.Fleet.f_results

(* --- Driver ------------------------------------------------------------------------------------------ *)

let experiments =
  [ "table1", table1; "table2", table2; "table3", table3; "fig4", fig4;
    "fig5", fig5; "syscalls", syscalls; "initdb", initdb;
    "ablation", ablation; "cachestudy", cachestudy; "bugs", bugs;
    "engine", engine_bench; "fleet", fleet_bench;
    "malloc", malloc_contention ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  opt_perf := List.mem "--perf" args;
  let selected =
    match List.filter (( <> ) "--perf") args with
    | [] when !opt_perf -> [ "engine"; "fleet"; "malloc" ]
    | [] | [ "all" ] -> List.map fst experiments
    | picks -> picks
  in
  List.iter
    (fun name ->
      if not (List.mem_assoc name experiments) then begin
        Printf.eprintf "unknown experiment %S; available: %s [--perf]\n" name
          (String.concat " " (List.map fst experiments));
        exit 2
      end)
    selected;
  List.iter
    (fun name ->
      let t0 = Unix.gettimeofday () in
      (List.assoc name experiments) ();
      Printf.printf "[%s: %.1fs]\n%!" name (Unix.gettimeofday () -. t0))
    selected;
  if !perf_failures <> [] then begin
    List.iter (Printf.eprintf "@perf: %s\n") (List.rev !perf_failures);
    exit 1
  end
