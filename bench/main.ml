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
  let cats = Compat.categories in
  let print_matrix title rows =
    Printf.printf "\n%s\n%-16s" title "";
    List.iter (fun c -> Printf.printf "%4s" (Compat.cat_name c)) cats;
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
  List.iter (fun c -> Printf.printf "%4s" (Compat.cat_name c)) cats;
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
            Printf.sprintf "%s=%s" (Compat.cat_name c)
              (Compat.cat_description c))
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

(* --- Bechamel micro-benchmarks of the simulator itself -------------------------------------------- *)

let simulator () =
  header "Simulator micro-benchmarks (Bechamel)";
  let open Bechamel in
  let cap_test =
    Test.make ~name:"cap-derive"
      (Staged.stage (fun () ->
           let root = Cheri_cap.Cap.make_root ~base:0 ~top:(1 lsl 30) () in
           let c =
             Cheri_cap.Cap.set_bounds (Cheri_cap.Cap.set_addr root 4096)
               ~len:256
           in
           ignore (Cheri_cap.Cap.and_perms c Cheri_cap.Perms.data)))
  in
  let mem = Cheri_tagmem.Tagmem.create ~size:(1 lsl 16) in
  let tag_test =
    Test.make ~name:"tagmem-rw"
      (Staged.stage (fun () ->
           Cheri_tagmem.Tagmem.write_int mem 256 ~len:8 42;
           ignore (Cheri_tagmem.Tagmem.read_int mem 256 ~len:8)))
  in
  let compile_test =
    Test.make ~name:"compile-unit"
      (Staged.stage (fun () ->
           ignore
             (Cheri_cc.Compile.compile_source ~name:"bench"
                ~opts:(Cheri_cc.Compile.default_options Abi.Cheriabi)
                "int main(int argc, char **argv) { return argc; }")))
  in
  let exec_test =
    Test.make ~name:"sim-hello"
      (Staged.stage (fun () ->
           let k = Cheri_kernel.Kernel.boot ~mem_size:(8 * 1024 * 1024) () in
           Cheri_libc.Runtime.install k;
           Cheri_cc.Compile.install k ~path:"/bin/t" ~abi:Abi.Cheriabi
             "int main(int argc, char **argv) { return 0; }";
           ignore
             (Cheri_kernel.Kernel.run_program k ~path:"/bin/t" ~argv:[ "t" ])))
  in
  let run test =
    let results =
      Benchmark.all
        (Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ())
        Toolkit.Instance.[ monotonic_clock ]
        test
    in
    Hashtbl.iter
      (fun name result ->
        let stats =
          Analyze.one
            (Analyze.ols ~bootstrap:0 ~r_square:false
               ~predictors:[| Measure.run |])
            Toolkit.Instance.monotonic_clock result
        in
        match Analyze.OLS.estimates stats with
        | Some [ est ] -> Printf.printf "%-16s %12.1f ns/run\n" name est
        | _ -> Printf.printf "%-16s (no estimate)\n" name)
      results
  in
  List.iter run [ cap_test; tag_test; compile_test; exec_test ]

(* --- Execution-engine throughput (docs/INTERP.md) ----------------------------------------------------

   Host wall-clock comparison of the interpreters over the Fig. 4 /
   Fig. 5 workload mix: the reference step engine and the chaining block
   engine (blocks entered through patched links and inline caches, never
   returning to dispatch inside hot loops). Images are compiled outside
   the timed region, so the timer wraps pure simulation; every engine must retire exactly the same
   instruction count (bit-identical contract), which the run asserts. *)

let opt_json = ref false
let opt_smoke = ref false
(* With --smoke, also enforce the wall-clock throughput floors. They depend
   on host timing, so they run under the opt-in `@perf` alias, never under
   `runtest`. *)
let opt_perf = ref false

let engine_bench () =
  header "Execution-engine throughput: step vs chain (host wall-clock)";
  let workloads =
    if !opt_smoke then [ List.hd Mibench.benchmarks ] else Mibench.benchmarks
  in
  let images =
    List.concat_map
      (fun (name, src) ->
        List.map
          (fun abi ->
            ( Printf.sprintf "%s/%s" name (Abi.to_string abi),
              abi, [ "bench" ],
              Stdlib_src.build_image ~abi ~name src ))
          [ Abi.Mips64; Abi.Cheriabi ])
      workloads
    @
    (if !opt_smoke then []
     else
       [ ( "openssl-s_server/cheriabi", Abi.Cheriabi,
           [ "s_server"; "-port"; "4433" ],
           Stdlib_src.build_image ~abi:Abi.Cheriabi ~name:"s_server"
             ~extra_libs:[ "libssl", Openssl_sim.libssl_src ]
             Openssl_sim.server_src ) ])
  in
  (* One full pass over the mix. *)
  let zero_ch =
    { Cheri_isa.Bbcache.ch_entries = 0; ch_chained = 0;
      ch_ic_hits = 0; ch_ic_misses = 0; ch_ic_mega = 0;
      ch_dtlb_hits = 0; ch_dtlb_misses = 0; ch_fused_insns = 0 }
  in
  let add_ch a b =
    let open Cheri_isa.Bbcache in
    { ch_entries = a.ch_entries + b.ch_entries;
      ch_chained = a.ch_chained + b.ch_chained;
      ch_ic_hits = a.ch_ic_hits + b.ch_ic_hits;
      ch_ic_misses = a.ch_ic_misses + b.ch_ic_misses;
      ch_ic_mega = a.ch_ic_mega + b.ch_ic_mega;
      ch_dtlb_hits = a.ch_dtlb_hits + b.ch_dtlb_hits;
      ch_dtlb_misses = a.ch_dtlb_misses + b.ch_dtlb_misses;
      ch_fused_insns = 0 }
  in
  let run_pass engine =
    List.fold_left
      (fun (insns, secs, ch) (label, abi, argv, image) ->
        let k = Cheri_kernel.Kernel.boot () in
        k.Cheri_kernel.Kstate.config.Cheri_kernel.Kstate.engine <- engine;
        Cheri_libc.Runtime.install k;
        Cheri_kernel.Vfs.add_exe k.Cheri_kernel.Kstate.vfs "/bin/bench" ~abi
          image;
        let t0 = Unix.gettimeofday () in
        let status, _out, p =
          Cheri_kernel.Kernel.run_program k ~path:"/bin/bench" ~argv
        in
        let dt = Unix.gettimeofday () -. t0 in
        (match status with
         | Some _ -> ()
         | None -> failwith (Printf.sprintf "engine bench: %s ran away" label));
        ( insns + p.Cheri_kernel.Proc.ctx.Cheri_isa.Cpu.instret,
          secs +. dt,
          add_ch ch (Cheri_isa.Bbcache.chain_stats k.Cheri_kernel.Kstate.bb) ))
      (0, 0.0, zero_ch) images
  in
  (* Host wall-clock is noisy: take the best of [reps] passes per leg so
     the chain-vs-step comparison (and the @perf gate built on it) is not
     decided by scheduler jitter. *)
  let run_engine ~reps engine =
    let rec go n acc =
      if n = 0 then acc
      else begin
        let i, s, ch = run_pass engine in
        (match acc with
         | Some (i0, _, _) when i0 <> i ->
           failwith
             (Printf.sprintf
                "engine bench: repeated pass retired %d insns, expected %d" i
                i0)
         | _ -> ());
        let best =
          match acc with Some (_, s0, _) -> Float.min s0 s | None -> s
        in
        (* The chain stats are deterministic across passes of one leg
           (same images, same schedule), so keeping the latest pass's
           totals is keeping any pass's. *)
        go (n - 1) (Some (i, best, ch))
      end
    in
    match go reps None with
    | Some r -> r
    | None -> assert false
  in
  (* Smoke legs are ~40ms a pass, where a single descheduling event is a
     multi-percent outlier; best-of-7 there keeps the smoke gates from
     being decided by one noisy pass while staying under a second per
     leg. The full mix runs seconds per pass and keeps best-of-3. *)
  let chain_reps = if !opt_smoke then 7 else 3 in
  let legs =
    List.map
      (fun (name, reps, engine) ->
        let i, s, ch = run_engine ~reps engine in
        (name, i, s, ch))
      [ ("step", 1, Cheri_isa.Cpu.Step);
        ("chain", chain_reps, Cheri_isa.Cpu.Chain) ]
  in
  let mips insns secs = float_of_int insns /. secs /. 1e6 in
  let leg name = List.find (fun (n, _, _, _) -> n = name) legs in
  let leg_mips name = let _, i, s, _ = leg name in mips i s in
  (* Chain length = blocks executed per dispatch-loop entry; IC hit rate =
     inline-cache key matches over all keyed (non-fall-through) lookups. *)
  let chain_len ch =
    let open Cheri_isa.Bbcache in
    if ch.ch_entries = 0 then 0.0
    else
      float_of_int (ch.ch_entries + ch.ch_chained)
      /. float_of_int ch.ch_entries
  in
  let ic_rate ch =
    let open Cheri_isa.Bbcache in
    let total = ch.ch_ic_hits + ch.ch_ic_misses + ch.ch_ic_mega in
    if total = 0 then 0.0
    else float_of_int ch.ch_ic_hits /. float_of_int total
  in
  let dtlb_rate ch =
    let open Cheri_isa.Bbcache in
    let total = ch.ch_dtlb_hits + ch.ch_dtlb_misses in
    if total = 0 then 0.0
    else float_of_int ch.ch_dtlb_hits /. float_of_int total
  in
  let _, _, _, chain_ch = leg "chain" in
  Printf.printf
    "data-TLB (chain leg, 2x2 set-assoc): %d hits, %d misses (%.1f%% hit)\n"
    chain_ch.Cheri_isa.Bbcache.ch_dtlb_hits
    chain_ch.Cheri_isa.Bbcache.ch_dtlb_misses
    (100.0 *. dtlb_rate chain_ch);
  Printf.printf "build profile: %s\n" Build_info.profile;
  Printf.printf "%-18s %14s %10s %10s %10s %8s\n" "engine" "sim insns"
    "host s" "sim-MIPS/s" "chain-len" "IC-hit";
  List.iter
    (fun (name, insns, secs, ch) ->
      if ch.Cheri_isa.Bbcache.ch_entries = 0 then
        Printf.printf "%-18s %14d %10.3f %10.2f %10s %8s\n" name insns secs
          (mips insns secs) "-" "-"
      else
        Printf.printf "%-18s %14d %10.3f %10.2f %10.2f %7.1f%%\n" name
          insns secs (mips insns secs) (chain_len ch) (100.0 *. ic_rate ch))
    legs;
  let _, i1, s1, _ = leg "step" and _, i2, _, _ = leg "chain" in
  if i2 <> i1 then
    failwith
      (Printf.sprintf
         "engine parity violated: step retired %d insns, chain %d" i1 i2);
  let speedup = leg_mips "chain" /. mips i1 s1 in
  Printf.printf "chain/step speedup: %.2fx (identical %d retired insns)\n"
    speedup i1;
  (* Regression gates (wired into @bench-smoke). Chaining exists to beat
     per-instruction dispatch — a chain leg under twice the step engine's
     throughput means the links or inline caches stopped carrying the hot
     loops (it measures several times step), as does an inline-cache hit
     count of zero on this mix (every workload has monomorphic hot back
     edges). The throughput comparison is wall-clock, so it runs only
     under [--perf]; the counter gates are exact. *)
  if !opt_smoke then begin
    let c = leg_mips "chain" and st = leg_mips "step" in
    if !opt_perf && c < 2.0 *. st then
      failwith
        (Printf.sprintf
           "bench-smoke: chain regressed below 2x step (%.2f < 2 x %.2f \
            sim-MIPS)" c st);
    if chain_ch.Cheri_isa.Bbcache.ch_ic_hits = 0 then
      failwith "bench-smoke: chain leg never hit an inline cache";
    if chain_ch.Cheri_isa.Bbcache.ch_chained = 0 then
      failwith "bench-smoke: chain leg never chained a block";
    (* The widened data-side TLB must actually serve the chain leg. *)
    if chain_ch.Cheri_isa.Bbcache.ch_dtlb_hits = 0 then
      failwith "bench-smoke: chain leg never hit the data-side TLB"
  end;
  if !opt_json then begin
    let oc = open_out "BENCH_simulator.json" in
    Printf.fprintf oc
      "{\n\
      \  \"benchmark\": \"mibench+spec x {mips64,cheriabi} + openssl \
       s_server\",\n\
      \  \"build_profile\": %S,\n\
      \  \"engines\": [\n%s\n  ],\n\
      \  \"speedup_chain_over_step\": %.3f,\n\
      \  \"chain\": { \"entries\": %d, \"chained\": %d, \
       \"avg_chain_length\": %.3f, \"ic_hits\": %d, \"ic_misses\": %d, \
       \"ic_megamorphic\": %d, \"ic_hit_rate\": %.3f, \
       \"dtlb_hits\": %d, \"dtlb_misses\": %d, \"dtlb_hit_rate\": %.3f }\n\
       }\n"
      Build_info.profile
      (String.concat ",\n"
         (List.map
            (fun (name, insns, secs, ch) ->
              Printf.sprintf
                "    { \"engine\": %S, \"instructions\": %d, \
                 \"host_seconds\": %.3f, \"sim_mips\": %.3f, \
                 \"chain_length\": %.3f, \"ic_hit_rate\": %.3f }"
                name insns secs (mips insns secs) (chain_len ch) (ic_rate ch))
            legs))
      speedup
      chain_ch.Cheri_isa.Bbcache.ch_entries
      chain_ch.Cheri_isa.Bbcache.ch_chained
      (chain_len chain_ch)
      chain_ch.Cheri_isa.Bbcache.ch_ic_hits
      chain_ch.Cheri_isa.Bbcache.ch_ic_misses
      chain_ch.Cheri_isa.Bbcache.ch_ic_mega
      (ic_rate chain_ch)
      chain_ch.Cheri_isa.Bbcache.ch_dtlb_hits
      chain_ch.Cheri_isa.Bbcache.ch_dtlb_misses
      (dtlb_rate chain_ch);
    close_out oc;
    Printf.printf "wrote BENCH_simulator.json\n"
  end

(* --- Fleet: multicore machine sharding (docs/FLEET.md) ----------------------------- *)

let opt_domains = ref 4

(* Insert or replace one top-level member of BENCH_simulator.json. The
   engine bench writes the file wholesale (its own members only); the
   fleet and malloc legs each own one member and must not clobber the
   others, so the replacement is brace-aware: an existing member is
   located by its key and spliced out over its exact object extent
   (string-aware brace matching), while a missing member is appended as
   the last member before the closing brace. [obj] carries the full
   '"key": { ... }' text. *)
let upsert_member path ~key obj =
  let find_sub s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = if i + m > n then None
      else if String.sub s i m = sub then Some i
      else go (i + 1)
    in
    go 0
  in
  let base =
    if Sys.file_exists path then begin
      let ic = open_in_bin path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      s
    end
    else "{\n}\n"
  in
  let n = String.length base in
  let out =
    match find_sub base (Printf.sprintf "\"%s\":" key) with
    | Some i ->
      (* Replace in place: skip to the value's opening brace, then match
         it, skipping over string literals (keys can contain braces). *)
      let j = ref i in
      while !j < n && base.[!j] <> '{' do incr j done;
      if !j >= n then failwith (Printf.sprintf "upsert %S: no object" key);
      let depth = ref 0 and fin = ref (-1) and instr = ref false in
      let p = ref !j in
      while !fin < 0 && !p < n do
        let c = base.[!p] in
        if !instr then begin
          if c = '\\' then incr p else if c = '"' then instr := false
        end
        else if c = '"' then instr := true
        else if c = '{' then incr depth
        else if c = '}' then begin
          decr depth;
          if !depth = 0 then fin := !p
        end;
        incr p
      done;
      if !fin < 0 then
        failwith (Printf.sprintf "upsert %S: unbalanced braces" key);
      String.sub base 0 i ^ obj ^ String.sub base (!fin + 1) (n - !fin - 1)
    | None ->
      (* Append as the last member before the final brace. *)
      let cut =
        match String.rindex_opt base '}' with Some i -> i | None -> 0
      in
      let j = ref (cut - 1) in
      while !j >= 0
            && (match base.[!j] with
                | ' ' | '\n' | '\t' | '\r' | ',' -> true
                | _ -> false)
      do decr j done;
      let prefix = String.sub base 0 (!j + 1) in
      let sep =
        if String.length prefix = 0 || prefix.[String.length prefix - 1] = '{'
        then "\n  "
        else ",\n  "
      in
      prefix ^ sep ^ obj ^ "\n}\n"
  in
  let oc = open_out path in
  output_string oc out;
  close_out oc

(* Minimal schema check over the rendered fleet object: the keys the
   scaling analysis depends on must be present, and the latency
   percentiles must parse and be monotone. Runs on the exact text that
   goes into BENCH_simulator.json. *)
let validate_fleet_json text =
  let find_sub s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = if i + m > n then None
      else if String.sub s i m = sub then Some i
      else go (i + 1)
    in
    go 0
  in
  let require key =
    if find_sub text (Printf.sprintf "%S:" key) = None then
      failwith (Printf.sprintf "fleet json: missing key %S" key)
  in
  List.iter require
    [ "domains"; "workers"; "host_cores"; "machines"; "requests";
      "single_domain_mips";
      "aggregate_mips"; "speedup"; "steals"; "utilization"; "latency_cycles";
      "p50"; "p95"; "p99" ];
  let int_after key =
    match find_sub text (Printf.sprintf "%S:" key) with
    | None -> failwith (Printf.sprintf "fleet json: missing key %S" key)
    | Some i ->
      let j = ref (i + String.length key + 3) in
      while !j < String.length text && text.[!j] = ' ' do incr j done;
      let s = ref 0 and any = ref false in
      while !j < String.length text
            && text.[!j] >= '0' && text.[!j] <= '9' do
        s := (!s * 10) + (Char.code text.[!j] - Char.code '0');
        any := true;
        incr j
      done;
      if not !any then
        failwith (Printf.sprintf "fleet json: key %S is not an integer" key);
      !s
  in
  let p50 = int_after "p50" and p95 = int_after "p95" in
  let p99 = int_after "p99" in
  if not (p50 <= p95 && p95 <= p99) then
    failwith
      (Printf.sprintf
         "fleet json: latency percentiles not monotone (p50=%d p95=%d p99=%d)"
         p50 p95 p99)

let fleet_bench () =
  let module Fleet = Cheri_fleet.Fleet in
  header "Fleet: whole-machine sharding across OCaml domains (TLS traffic)";
  let domains = max 1 !opt_domains in
  let cores = Domain.recommended_domain_count () in
  (* The smoke mix is sized for CI on one core; the full mix is the
     EXPERIMENTS.md scaling configuration. *)
  let machines, rounds = if !opt_smoke then 4, 30 else 8, 150 in
  Printf.printf
    "mix: %d s_server machines in 3 service classes (base rounds %d), %d \
     domain%s on %d host core%s\n%!"
    machines rounds domains
    (if domains = 1 then "" else "s")
    cores
    (if cores = 1 then "" else "s");
  let specs = Fleet.traffic_mix ~machines ~rounds () in
  (* The scaling gate compares two wall-clock rates, so measure them
     PAIRED (alternating single-domain and sharded runs — host stalls
     land on both sides) and keep each side's best-throughput report.
     Simulated results are identical across repetitions by the
     determinism contract, so "best" only selects a wall clock; the
     snapshot assertions below hold for whichever report is kept. *)
  let reps = if !opt_smoke then 3 else 1 in
  let best a b = if b.Fleet.f_mips > a.Fleet.f_mips then b else a in
  let rec measure n (s_acc, f_acc) =
    if n = 0 then (s_acc, f_acc)
    else begin
      let s = Fleet.run ~domains:1 specs in
      let f = if domains = 1 then s else Fleet.run ~domains specs in
      let acc =
        match s_acc, f_acc with
        | None, None -> (Some s, Some f)
        | Some s0, Some f0 -> (Some (best s0 s), Some (best f0 f))
        | _ -> assert false
      in
      measure (n - 1) acc
    end
  in
  let single, fleet =
    match measure reps (None, None) with
    | Some s, Some f -> s, f
    | _ -> assert false
  in
  let check_ok tag (r : Fleet.report) =
    Array.iter
      (fun (m : Fleet.machine_result) ->
        (match m.Fleet.mr_status with
         | Some (Cheri_kernel.Proc.Exited 0) -> ()
         | s ->
           failwith
             (Printf.sprintf "fleet(%s): %s finished %s" tag m.Fleet.mr_label
                (Fleet.status_str s)));
        if not (String.ends_with ~suffix:"fleet ok" m.Fleet.mr_output) then
          failwith
            (Printf.sprintf "fleet(%s): %s did not verify its exchange" tag
               m.Fleet.mr_label))
      r.Fleet.f_results
  in
  check_ok "single" single;
  check_ok "sharded" fleet;
  (* The determinism contract, asserted on every bench run (the test suite
     carries the fork/mprotect differential): per-machine snapshots must be
     bit-identical whatever the domain count. *)
  Array.iteri
    (fun i (m : Fleet.machine_result) ->
      let s = single.Fleet.f_results.(i) in
      if not (String.equal s.Fleet.mr_snapshot m.Fleet.mr_snapshot) then
        failwith
          (Printf.sprintf
             "fleet: machine %s diverged between 1 and %d domains"
             m.Fleet.mr_label domains))
    fleet.Fleet.f_results;
  Printf.printf "%-20s %6s %6s %12s %9s %8s\n" "machine" "domain" "stolen"
    "sim insns" "requests" "host s";
  Array.iter
    (fun (m : Fleet.machine_result) ->
      Printf.printf "%-20s %6d %6s %12d %9d %8.3f\n" m.Fleet.mr_label
        m.Fleet.mr_domain
        (if m.Fleet.mr_stolen then "yes" else "no")
        m.Fleet.mr_insns m.Fleet.mr_requests m.Fleet.mr_host_seconds)
    fleet.Fleet.f_results;
  let speedup = fleet.Fleet.f_mips /. single.Fleet.f_mips in
  Printf.printf
    "aggregate: 1 domain %.2f sim-MIPS; %d domains (%d workers) %.2f \
     sim-MIPS (%.2fx), %d steals\n"
    single.Fleet.f_mips domains fleet.Fleet.f_workers fleet.Fleet.f_mips
    speedup fleet.Fleet.f_steals;
  Printf.printf "utilization: %s\n"
    (String.concat " "
       (Array.to_list
          (Array.mapi
             (fun d u -> Printf.sprintf "d%d=%.0f%%" d (100.0 *. u))
             fleet.Fleet.f_util)));
  Printf.printf
    "request latency (sim cycles over %d requests): p50=%d p95=%d p99=%d\n"
    fleet.Fleet.f_requests fleet.Fleet.f_p50 fleet.Fleet.f_p95
    fleet.Fleet.f_p99;
  let fleet_obj =
    Printf.sprintf
      "\"fleet\": {\n\
      \    \"domains\": %d,\n\
      \    \"workers\": %d,\n\
      \    \"host_cores\": %d,\n\
      \    \"machines\": %d,\n\
      \    \"requests\": %d,\n\
      \    \"single_domain_mips\": %.3f,\n\
      \    \"aggregate_mips\": %.3f,\n\
      \    \"speedup\": %.3f,\n\
      \    \"steals\": %d,\n\
      \    \"utilization\": [ %s ],\n\
      \    \"latency_cycles\": { \"p50\": %d, \"p95\": %d, \"p99\": %d },\n\
      \    \"machines_detail\": [\n%s\n    ]\n\
      \  }"
      domains fleet.Fleet.f_workers cores machines fleet.Fleet.f_requests
      single.Fleet.f_mips
      fleet.Fleet.f_mips speedup fleet.Fleet.f_steals
      (String.concat ", "
         (Array.to_list
            (Array.map (Printf.sprintf "%.3f") fleet.Fleet.f_util)))
      fleet.Fleet.f_p50 fleet.Fleet.f_p95 fleet.Fleet.f_p99
      (String.concat ",\n"
         (Array.to_list
            (Array.map
               (fun (m : Fleet.machine_result) ->
                 Printf.sprintf
                   "      { \"machine\": %S, \"domain\": %d, \"stolen\": %b, \
                    \"instructions\": %d, \"requests\": %d, \
                    \"host_seconds\": %.3f }"
                   m.Fleet.mr_label m.Fleet.mr_domain m.Fleet.mr_stolen
                   m.Fleet.mr_insns m.Fleet.mr_requests
                   m.Fleet.mr_host_seconds)
               fleet.Fleet.f_results)))
  in
  if !opt_smoke then begin
    validate_fleet_json fleet_obj;
    if fleet.Fleet.f_requests = 0 then
      failwith "fleet-smoke: traffic generator completed no requests";
    if fleet.Fleet.f_insns <> single.Fleet.f_insns then
      failwith
        (Printf.sprintf
           "fleet-smoke: instruction totals diverged (%d vs %d)"
           single.Fleet.f_insns fleet.Fleet.f_insns);
    (* Scaling gate, host-parallelism-aware: the ISSUE's 2.5x floor for 4
       domains assumes >= 4 host cores (0.625x per domain of usable
       parallelism). On narrower hosts wall-clock parallelism is bounded by
       the core count, so the same per-core floor is applied to
       min(domains, cores) — on a 1-core CI host that degenerates to "4
       domains must stay within 0.625x of 1 domain", guarding against
       multi-domain overhead regressions while demanding nothing the
       hardware cannot give. docs/FLEET.md records this policy. *)
    let usable = min domains cores in
    let floor_x = 0.625 *. float_of_int usable in
    if !opt_perf && fleet.Fleet.f_mips < floor_x *. single.Fleet.f_mips then
      failwith
        (Printf.sprintf
           "fleet-smoke: %d-domain aggregate %.2f sim-MIPS under the %.2fx \
            floor over single-domain %.2f (usable parallelism %d)"
           domains fleet.Fleet.f_mips floor_x single.Fleet.f_mips usable)
  end;
  if !opt_json then begin
    upsert_member "BENCH_simulator.json" ~key:"fleet" fleet_obj;
    Printf.printf "updated BENCH_simulator.json (fleet object)\n"
  end

(* --- Malloc contention: the sharded allocator under cross-shard frees (docs/ALLOC.md) ---

   Two legs. The directed leg drives the allocator API through a real
   fork so the per-shard counters (remote frees message-passed between
   shards, queue drains, sweeps at ownership change) are observable at
   shard granularity — a C program's heap is evicted into machine totals
   at exit, so shard-level numbers can only be sampled live. The fleet
   leg then runs the contention workload as whole machines across
   domains and holds the allocator to the same determinism contract as
   everything else: bit-identical per-machine snapshots (which embed the
   alloc= counter line) whatever the domain count — an unsynchronized
   arena access anywhere would diverge exactly here. *)

let malloc_contention () =
  let module Fleet = Cheri_fleet.Fleet in
  let module MI = Cheri_libc.Malloc_impl in
  header "Malloc contention: sharded allocator, remote-free queues, sweeps";
  (* --- Directed leg: per-shard choreography --------------------------- *)
  let k = Cheri_kernel.Kernel.boot () in
  Cheri_libc.Runtime.install k;
  Stdlib_src.install k ~path:"/bin/idle" ~abi:Abi.Cheriabi
    "int main(int argc, char **argv) { return 0; }";
  let p =
    Cheri_kernel.Kernel.spawn k ~path:"/bin/idle" ~argv:[ "idle" ] ()
  in
  let nobj = 96 in
  let ptrs =
    Array.init nobj (fun i -> fst (MI.malloc k p (16 + ((i * 53) mod 2600))))
  in
  let child =
    match Cheri_kernel.Sys_impl.sys_fork k p [] with
    | Cheri_kernel.Sys_impl.RInt pid ->
      Option.get (Cheri_kernel.Kstate.find_proc k pid)
    | _ -> failwith "malloc bench: fork failed"
  in
  (* The child frees every other inherited object before its first
     allocation: its affinity shard does not own those chunks, so each
     free is message-passed to the owner's remote queue. *)
  Array.iteri (fun i a -> if i mod 2 = 0 then ignore (MI.free k child a)) ptrs;
  (* Churn over a small set of repeating classes: the first malloc
     drains and adopts (ownership-change sweeps), later rounds recycle
     dirty local slots (reuse sweeps). *)
  for i = 0 to 63 do
    let a, _ = MI.malloc k child (16 + ((i mod 8) * 37)) in
    ignore (MI.free k child a)
  done;
  ignore (MI.malloc k child 64);
  let shards = MI.shard_stats k child in
  Printf.printf "%-6s %8s %7s %8s %8s %7s %7s %7s %6s %8s\n" "shard"
    "mallocs" "frees" "rem-enq" "rem-drn" "drains" "own-sw" "reuse"
    "adopt" "pending";
  Array.iter
    (fun (s : MI.shard_stats) ->
      Printf.printf "%-6d %8d %7d %8d %8d %7d %7d %7d %6d %8d\n" s.MI.ss_id
        s.MI.ss_mallocs s.MI.ss_frees s.MI.ss_remote_enq
        s.MI.ss_remote_drained s.MI.ss_drains s.MI.ss_owner_sweeps
        s.MI.ss_reuse_sweeps s.MI.ss_adoptions s.MI.ss_pending)
    shards;
  let ssum f = Array.fold_left (fun acc s -> acc + f s) 0 shards in
  let enq = ssum (fun s -> s.MI.ss_remote_enq) in
  let drn = ssum (fun s -> s.MI.ss_remote_drained) in
  let pend = ssum (fun s -> s.MI.ss_pending) in
  let osw = ssum (fun s -> s.MI.ss_owner_sweeps) in
  let rsw = ssum (fun s -> s.MI.ss_reuse_sweeps) in
  Printf.printf
    "directed: %d remote frees enqueued, %d drained (%d pending), %d \
     ownership-change sweeps, %d reuse sweeps\n"
    enq drn pend osw rsw;
  if !opt_smoke then begin
    if enq = 0 then
      failwith "malloc-smoke: directed leg produced no remote frees";
    if enq <> drn || pend <> 0 then
      failwith
        (Printf.sprintf
           "malloc-smoke: remote queues not drained at quiesce (enq=%d \
            drained=%d pending=%d)" enq drn pend);
    if osw = 0 then
      failwith "malloc-smoke: no sweeps at ownership change";
    if rsw = 0 then
      failwith "malloc-smoke: no reuse sweeps of dirty local slots"
  end;
  (* --- Fleet leg: determinism + throughput ---------------------------- *)
  let domains = max 1 !opt_domains in
  let cores = Domain.recommended_domain_count () in
  let machines, src =
    if !opt_smoke then
      2, Malloc_bench.contention_src ~objs:24 ~generations:4 ~churn:12 ()
    else 4, Malloc_bench.contention_src ()
  in
  let gens = if !opt_smoke then 4 else Malloc_bench.default_generations in
  Printf.printf
    "fleet leg: %d contention machines, %d domain%s on %d host core%s\n%!"
    machines domains
    (if domains = 1 then "" else "s")
    cores
    (if cores = 1 then "" else "s");
  let image = Stdlib_src.build_image ~abi:Abi.Cheriabi ~name:"malloc_mc" src in
  let specs =
    List.init machines (fun i ->
        { Fleet.ms_label = Printf.sprintf "malloc_mc%d" i;
          ms_abi = Abi.Cheriabi; ms_image = image; ms_path = "/bin/malloc_mc";
          ms_argv = [ "malloc_mc" ]; ms_max_steps = 200_000_000;
          ms_marker = '#' })
  in
  (* Paired wall-clock measurement, exactly as the fleet bench: simulated
     results are identical across reps, "best" only picks a clock. *)
  let reps = if !opt_smoke then 3 else 1 in
  let best a b = if b.Fleet.f_mips > a.Fleet.f_mips then b else a in
  let rec measure n acc =
    if n = 0 then acc
    else begin
      let s = Fleet.run ~domains:1 specs in
      let f =
        if domains = 1 then s
        else Fleet.run ~domains ~oversubscribe:true specs
      in
      let acc =
        match acc with
        | None -> Some (s, f)
        | Some (s0, f0) -> Some (best s0 s, best f0 f)
      in
      measure (n - 1) acc
    end
  in
  let single, fleet = Option.get (measure reps None) in
  Array.iteri
    (fun i (m : Fleet.machine_result) ->
      let s = single.Fleet.f_results.(i) in
      (match m.Fleet.mr_status with
       | Some (Cheri_kernel.Proc.Exited 0) -> ()
       | st ->
         failwith
           (Printf.sprintf "malloc fleet: %s finished %s" m.Fleet.mr_label
              (Fleet.status_str st)));
      if not (String.ends_with ~suffix:" malloc ok" m.Fleet.mr_output) then
        failwith
          (Printf.sprintf "malloc fleet: %s did not verify its heap"
             m.Fleet.mr_label);
      if m.Fleet.mr_requests <> Malloc_bench.expected_markers ~generations:gens ()
      then
        failwith
          (Printf.sprintf "malloc fleet: %s reaped %d children, expected %d"
             m.Fleet.mr_label m.Fleet.mr_requests gens);
      (* The determinism contract, allocator edition: the snapshot embeds
         the alloc= counter line, so any unsynchronized arena access
         under the multi-domain fleet diverges exactly here. *)
      if not (String.equal s.Fleet.mr_snapshot m.Fleet.mr_snapshot) then
        failwith
          (Printf.sprintf
             "malloc fleet: %s diverged between 1 and %d domains \
              (unsynchronized arena access?)" m.Fleet.mr_label domains);
      (* Quiesce gates per machine: remote queues fully drained. *)
      let ma n = List.assoc n m.Fleet.mr_alloc in
      if ma "remote_enq" = 0 then
        failwith
          (Printf.sprintf "malloc fleet: %s saw no remote frees"
             m.Fleet.mr_label);
      if ma "remote_enq" <> ma "remote_drained" || ma "pending_remote" <> 0
      then
        failwith
          (Printf.sprintf
             "malloc fleet: %s queues not drained (enq=%d drained=%d \
              pending=%d)" m.Fleet.mr_label (ma "remote_enq")
             (ma "remote_drained") (ma "pending_remote")))
    fleet.Fleet.f_results;
  let asum name =
    Array.fold_left
      (fun acc (m : Fleet.machine_result) ->
        acc + List.assoc name m.Fleet.mr_alloc)
      0 fleet.Fleet.f_results
  in
  Printf.printf "%-14s %9s %9s %9s %9s %8s %8s %8s\n" "machine" "mallocs"
    "frees" "rem-enq" "rem-drn" "own-sw" "reuse" "adopt";
  Array.iter
    (fun (m : Fleet.machine_result) ->
      let ma n = List.assoc n m.Fleet.mr_alloc in
      Printf.printf "%-14s %9d %9d %9d %9d %8d %8d %8d\n" m.Fleet.mr_label
        (ma "mallocs") (ma "frees") (ma "remote_enq") (ma "remote_drained")
        (ma "owner_sweeps") (ma "reuse_sweeps") (ma "adoptions"))
    fleet.Fleet.f_results;
  let speedup = fleet.Fleet.f_mips /. single.Fleet.f_mips in
  Printf.printf
    "aggregate: 1 domain %.2f sim-MIPS; %d domains %.2f sim-MIPS (%.2fx)\n"
    single.Fleet.f_mips domains fleet.Fleet.f_mips speedup;
  if !opt_smoke then begin
    (* Aggregate-vs-single throughput floor, host-parallelism-aware like
       the fleet gate: sharding the contention machines must not cost
       throughput the hardware can deliver. *)
    let usable = min domains cores in
    let floor_x = 0.625 *. float_of_int usable in
    if !opt_perf && fleet.Fleet.f_mips < floor_x *. single.Fleet.f_mips then
      failwith
        (Printf.sprintf
           "malloc-smoke: %d-domain aggregate %.2f sim-MIPS under the %.2fx \
            floor over single-domain %.2f (usable parallelism %d)"
           domains fleet.Fleet.f_mips floor_x single.Fleet.f_mips usable)
  end;
  if !opt_json then begin
    let obj =
      Printf.sprintf
        "\"malloc_contention\": {\n\
        \    \"machines\": %d,\n\
        \    \"domains\": %d,\n\
        \    \"workers\": %d,\n\
        \    \"requests\": %d,\n\
        \    \"single_domain_mips\": %.3f,\n\
        \    \"aggregate_mips\": %.3f,\n\
        \    \"speedup\": %.3f,\n\
        \    \"alloc_totals\": { \"mallocs\": %d, \"frees\": %d, \
         \"remote_enq\": %d, \"remote_drained\": %d, \"drains\": %d, \
         \"owner_sweeps\": %d, \"reuse_sweeps\": %d, \"adoptions\": %d, \
         \"tags_cleared\": %d, \"pending_remote\": %d },\n\
        \    \"directed_shards\": [\n%s\n    ]\n\
        \  }"
        machines domains fleet.Fleet.f_workers fleet.Fleet.f_requests
        single.Fleet.f_mips fleet.Fleet.f_mips speedup (asum "mallocs")
        (asum "frees") (asum "remote_enq") (asum "remote_drained")
        (asum "drains") (asum "owner_sweeps") (asum "reuse_sweeps")
        (asum "adoptions") (asum "tags_cleared") (asum "pending_remote")
        (String.concat ",\n"
           (Array.to_list
              (Array.map
                 (fun (s : MI.shard_stats) ->
                   Printf.sprintf
                     "      { \"shard\": %d, \"mallocs\": %d, \"frees\": %d, \
                      \"remote_enq\": %d, \"remote_drained\": %d, \
                      \"drains\": %d, \"owner_sweeps\": %d, \
                      \"reuse_sweeps\": %d, \"adoptions\": %d }"
                     s.MI.ss_id s.MI.ss_mallocs s.MI.ss_frees
                     s.MI.ss_remote_enq s.MI.ss_remote_drained s.MI.ss_drains
                     s.MI.ss_owner_sweeps s.MI.ss_reuse_sweeps
                     s.MI.ss_adoptions)
                 shards)))
    in
    upsert_member "BENCH_simulator.json" ~key:"malloc_contention" obj;
    Printf.printf "updated BENCH_simulator.json (malloc_contention object)\n"
  end

(* --- Driver ------------------------------------------------------------------------------------------ *)

let experiments =
  [ "table1", table1; "table2", table2; "table3", table3; "fig4", fig4;
    "fig5", fig5; "syscalls", syscalls; "initdb", initdb;
    "ablation", ablation; "cachestudy", cachestudy; "bugs", bugs;
    "simulator", simulator; "engine", engine_bench; "fleet", fleet_bench;
    "malloc", malloc_contention ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let flags, args =
    List.partition
      (fun a ->
        a = "--json" || a = "--smoke" || a = "--perf"
        || String.starts_with ~prefix:"--domains=" a)
      args
  in
  opt_json := List.mem "--json" flags;
  opt_smoke := List.mem "--smoke" flags;
  opt_perf := List.mem "--perf" flags;
  List.iter
    (fun a ->
      if String.starts_with ~prefix:"--domains=" a then
        opt_domains :=
          (match
             int_of_string_opt (String.sub a 10 (String.length a - 10))
           with
           | Some n when n >= 1 -> n
           | _ -> failwith (Printf.sprintf "bad flag %S" a)))
    flags;
  let selected =
    match args with
    | [] when flags <> [] -> [ "engine" ]
    | [] | [ "all" ] -> List.map fst experiments
    | picks -> picks
  in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f ->
        let t0 = Unix.gettimeofday () in
        f ();
        Printf.printf "[%s: %.1fs]\n%!" name (Unix.gettimeofday () -. t0)
      | None ->
        Printf.printf "unknown experiment %S; available: %s\n" name
          (String.concat " " (List.map fst experiments)))
    selected
