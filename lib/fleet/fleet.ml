(* Multicore fleet simulation: shard whole simulated machines across OCaml 5
   domains.

   The per-machine model stays exactly what it was — one kernel, one pmap,
   one tagged memory, one block/chain cache, all mutable and owned by a
   single simulation. Scaling comes from isolation, not from parallelizing
   the model: each domain runs complete machines end to end, so nothing
   inside the deterministic simulation is ever touched by two domains.
   Workers claim machines in spec order from one atomic cursor ([run]).

   Shared BY REFERENCE across domains (immutable or internally locked):
   - compiled program images ([Sobj.image]): built up front in the
     spawning domain, read-only afterwards.

   OWNED per machine (never shared): kernel state, processes, address
   spaces, tagged memory, cache hierarchy, the block/chain cache and its
   software TLBs, consoles, fault logs.

   Determinism: a machine's execution depends only on its spec (image,
   argv, chunk size) — never on the domain count, the scheduler's
   machine-to-domain assignment, or what other machines run concurrently.
   [run] with 1 domain and with N domains must produce bit-identical
   per-machine snapshots; test/test_fleet.ml enforces this differentially.

   Request latency is measured in SIMULATED cycles, not host time: the
   traffic workload's server prints one marker character per served
   request round, and the runner executes each machine in fixed-size
   instruction chunks, timestamping newly appeared markers with the server
   context's cycle counter. The chunk size is part of the simulated result
   (a chunk that ends mid-quantum is charged a context switch and restarts
   the quantum, see [Kernel.run_chunked]), but it is a constant of the
   runner, so cycles and latencies are deterministic and
   domain-count-independent too. *)

module Cpu = Cheri_isa.Cpu
module Bbcache = Cheri_isa.Bbcache
module Cache = Cheri_tagmem.Cache
module Abi = Cheri_core.Abi
module Kernel = Cheri_kernel.Kernel
module Kstate = Cheri_kernel.Kstate
module Proc = Cheri_kernel.Proc
module Vfs = Cheri_kernel.Vfs
module Runtime = Cheri_libc.Runtime
module Snapshot = Cheri_libc.Snapshot
module Malloc_impl = Cheri_libc.Malloc_impl
module Stdlib_src = Cheri_workloads.Stdlib_src
module Openssl_sim = Cheri_workloads.Openssl_sim

(* --- Machine specification ------------------------------------------------- *)

type machine_spec = {
  ms_label : string;
  ms_abi : Abi.t;
  ms_image : Cheri_rtld.Sobj.image;  (* prebuilt in the spawning domain *)
  ms_path : string;
  ms_argv : string list;
  ms_max_steps : int;                (* runaway bound, in instructions *)
  ms_marker : char;                  (* request-completion console marker *)
}

(* Executing in fixed chunks (rather than one [Loop.run] to quiescence)
   exists to sample the console between chunks for latency stamps. The
   value is a runner constant — part of the deterministic contract, so
   it must not depend on domain count or host behavior — and it moves
   simulated cycles: every chunk that ends mid-quantum costs the running
   process a context switch ([Kernel.run_chunked]). One timeslice
   (Kstate default quantum 20k) keeps stamp quantization near the
   scheduler's own granularity. *)
let chunk_insns = 20_000

type machine_result = {
  mr_label : string;
  mr_domain : int;                 (* domain that ran it (reporting only) *)
  mr_status : Proc.exit_status option;
  mr_output : string;
  mr_insns : int;                  (* all processes, via Loop.run *)
  mr_cycles : int;                 (* server context cycles at the end *)
  mr_l2_misses : int;
  mr_syscalls : int;
  mr_requests : int;               (* marker count *)
  mr_latencies : int array;        (* sim cycles between completions *)
  mr_host_seconds : float;
  mr_snapshot : string;            (* full architectural state rendering *)
  mr_alloc : (string * int) list;  (* machine-lifetime allocator counters *)
}

(* Kept for simbench, which renders its traced fleet machines with it. *)
let snapshot = Snapshot.machine

(* --- Running one machine ---------------------------------------------------- *)

let count_marker s c =
  let n = ref 0 in
  String.iter (fun ch -> if ch = c then incr n) s;
  !n

(* Boot, run to completion in [chunk_insns] chunks, stamp request markers,
   snapshot. [engine] configures the kernel exactly as the engine bench
   does. *)
let run_machine ?(engine = Cpu.Chain) spec =
  let host0 = Unix.gettimeofday () in
  let k = Runtime.boot ~engine () in
  Vfs.add_exe k.Kstate.vfs spec.ms_path ~abi:spec.ms_abi spec.ms_image;
  let p = Kernel.spawn k ~path:spec.ms_path ~argv:spec.ms_argv () in
  let stamps = ref [] in                     (* newest first *)
  let seen = ref 0 in
  let executed =
    Kernel.run_chunked ~chunk:chunk_insns ~max_steps:spec.ms_max_steps k p
      ~on_chunk:(fun () ->
        let total =
          count_marker (Buffer.contents p.Proc.console) spec.ms_marker
        in
        if total > !seen then begin
          let cyc = p.Proc.ctx.Cpu.cycles in
          for _ = !seen + 1 to total do stamps := cyc :: !stamps done;
          seen := total
        end)
  in
  let status =
    match p.Proc.state with Proc.Zombie s -> Some s | _ -> None
  in
  (* Completion stamps -> per-request latencies (delta from the previous
     completion; the first request is charged from machine start, so it
     includes boot + handshake — deterministically). *)
  let ordered = Array.of_list (List.rev !stamps) in
  let lats =
    Array.mapi
      (fun i s -> if i = 0 then s else s - ordered.(i - 1))
      ordered
  in
  { mr_label = spec.ms_label;
    mr_domain = 0;
    mr_status = status;
    mr_output = Buffer.contents p.Proc.console;
    mr_insns = executed;
    mr_cycles = p.Proc.ctx.Cpu.cycles;
    mr_l2_misses = Cache.l2_misses (Kstate.hierarchy k);
    mr_syscalls = p.Proc.syscall_count;
    mr_requests = !seen;
    mr_latencies = lats;
    mr_host_seconds = Unix.gettimeofday () -. host0;
    mr_snapshot = Snapshot.machine k p status;
    mr_alloc = Malloc_impl.machine_counters k }

(* --- Fleet run -------------------------------------------------------------- *)

type report = {
  f_domains : int;                    (* requested sharding width *)
  f_workers : int;                    (* domains actually spawned (see [run]) *)
  f_results : machine_result array;   (* in spec order *)
  f_insns : int;                      (* total simulated instructions *)
  f_host_seconds : float;             (* wall clock for the whole fleet *)
  f_mips : float;                     (* aggregate sim-MIPS *)
  f_util : float array;               (* per-domain busy / wall *)
  (* Inert, always 0: workers share one cursor, so no machine changes
     hands. Kept only because simbench/simbench.ml still reads it. *)
  f_steals : int;
  f_requests : int;
  f_p50 : int;                        (* request latency percentiles, *)
  f_p95 : int;                        (*   in simulated cycles *)
  f_p99 : int;
}

(* Nearest-rank percentile over all machines' latencies. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0
  else
    let rank = int_of_float (ceil (q *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

(* Run every spec to completion across [domains] domains and aggregate.
   Worker 0 runs on the calling domain; the rest are spawned. The workers
   share one atomic cursor over the spec array: each claims the next
   unclaimed index with [Atomic.fetch_and_add] and runs that machine,
   until the cursor passes the end. Every task is a whole machine and a
   fleet holds a handful of them, so claiming in spec order balances
   heterogeneous run lengths without per-worker queues. The claim decides
   only WHICH domain runs a machine, never how it runs. Each result goes
   to its spec's slot, and [Domain.join] publishes all of them before
   aggregation reads them.

   By default live workers are capped at the host's recommended domain
   count: OCaml 5 minor collections are stop-the-world rendezvous across
   every running domain, so oversubscribing domains past the core count
   does not just serialize — each collection waits for descheduled domains
   to reach their safepoint, and measured throughput collapses well below
   the single-domain baseline. Requesting more domains than cores then
   runs [min domains cores] workers over the same cursor (machine results
   are identical either way — that is the determinism contract).
   [~oversubscribe:true] disables the cap: the differential tests use it
   to force REAL cross-domain execution even on a one-core host, where
   correctness, not throughput, is being tested. *)
let run ?(engine = Cpu.Chain) ?(oversubscribe = false)
    ~domains specs =
  if domains < 1 then invalid_arg "Fleet.run: domains < 1";
  let workers =
    if oversubscribe then domains
    else max 1 (min domains (Domain.recommended_domain_count ()))
  in
  let specs = Array.of_list specs in
  let n = Array.length specs in
  let next = Atomic.make 0 in
  let results : machine_result option array = Array.make n None in
  let busy = Array.make workers 0.0 in
  let wall0 = Unix.gettimeofday () in
  let rec worker d =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      let r = run_machine ~engine specs.(i) in
      results.(i) <- Some { r with mr_domain = d };
      busy.(d) <- busy.(d) +. r.mr_host_seconds;
      worker d
    end
  in
  let others =
    Array.init (workers - 1) (fun j -> Domain.spawn (fun () -> worker (j + 1)))
  in
  worker 0;
  Array.iter Domain.join others;
  let wall = Unix.gettimeofday () -. wall0 in
  let results =
    Array.mapi
      (fun i -> function
        | Some r -> r
        | None ->
          failwith
            (Printf.sprintf "Fleet.run: machine %d (%s) never ran" i
               specs.(i).ms_label))
      results
  in
  let insns = Array.fold_left (fun a r -> a + r.mr_insns) 0 results in
  let requests = Array.fold_left (fun a r -> a + r.mr_requests) 0 results in
  let all_lats = Array.concat (List.map (fun r -> r.mr_latencies)
                                 (Array.to_list results)) in
  Array.sort compare all_lats;
  { f_domains = domains;
    f_workers = workers;
    f_results = results;
    f_insns = insns;
    f_host_seconds = wall;
    f_mips = float_of_int insns /. wall /. 1e6;
    f_util = Array.map (fun b -> if wall > 0.0 then b /. wall else 0.0) busy;
    f_steals = 0;
    f_requests = requests;
    f_p50 = percentile all_lats 0.50;
    f_p95 = percentile all_lats 0.95;
    f_p99 = percentile all_lats 0.99 }

(* --- Standard mixes --------------------------------------------------------- *)

(* Heterogeneous s_server traffic mix: three service classes (short,
   medium, long — the long class serves 3x the rounds of the short one at
   double the record size), machines assigned round-robin. Machines of one
   class share a single prebuilt, read-only image; classes differ in code
   (distinct images) as well as load. Every machine forks its client
   (fork-time COW and wait/reap) and talks to it over a socket pair. All
   images are built here, in the calling domain, before any domain
   spawns. *)
let traffic_classes ~rounds =
  [ ("short", rounds, 256, 11);
    ("medium", rounds * 2, 384, 23);
    ("long", rounds * 3, 512, 37) ]

let traffic_mix ?(abi = Abi.Cheriabi) ~machines ~rounds () =
  let classes =
    List.map
      (fun (cname, r, payload, seed) ->
        let src = Openssl_sim.traffic_server_src ~rounds:r ~payload ~seed in
        let image =
          Stdlib_src.build_image ~abi ~name:("s_server_" ^ cname)
            ~extra_libs:[ "libssl", Openssl_sim.libssl_src ]
            src
        in
        (cname, image))
      (traffic_classes ~rounds)
  in
  let classes = Array.of_list classes in
  List.init machines (fun i ->
      let cname, image = classes.(i mod Array.length classes) in
      { ms_label = Printf.sprintf "s_server/%s/%d" cname i;
        ms_abi = abi;
        ms_image = image;
        ms_path = "/bin/s_server";
        ms_argv = [ "s_server"; "-port"; string_of_int (4433 + i) ];
        ms_max_steps = 400_000_000;
        ms_marker = '#' })
