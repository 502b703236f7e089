(* Multicore fleet simulation: shard whole simulated machines across OCaml 5
   domains.

   The per-machine model stays exactly what it was — one kernel, one pmap,
   one tagged memory, one block/chain cache, all mutable and owned by a
   single simulation. Scaling comes from isolation, not from parallelizing
   the model: each domain runs complete machines end to end, so nothing
   inside the deterministic simulation is ever touched by two domains.

   Shared BY REFERENCE across domains (immutable or internally locked):
   - compiled program images ([Sobj.image]): built up front in the
     spawning domain, read-only afterwards;
   - the image-keyed fact tables and the interprocedural summary cache
     ([Absint.cached_facts]/[Absint.cached_ipa]): mutex-guarded memo
     tables, with the per-table [Facts.t] lock serializing lazy
     resolution. Masks are deterministic functions of the entry pc, so
     whichever domain resolves an entry first, every machine observes the
     same facts — the phys-eq [Bbcache.set_facts] contract that already
     let one domain's processes share a table extends unchanged across
     domains.

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
   context's cycle counter. The chunk size quantizes the timestamps but is
   a constant of the runner, so latencies are deterministic and
   domain-count-independent too. *)

module Cap = Cheri_cap.Cap
module Cpu = Cheri_isa.Cpu
module Bbcache = Cheri_isa.Bbcache
module Tagmem = Cheri_tagmem.Tagmem
module Cache = Cheri_tagmem.Cache
module Abi = Cheri_core.Abi
module Kernel = Cheri_kernel.Kernel
module Kstate = Cheri_kernel.Kstate
module Proc = Cheri_kernel.Proc
module Vfs = Cheri_kernel.Vfs
module Absint = Cheri_analysis.Absint
module Runtime = Cheri_libc.Runtime
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
   exists solely to sample the console between chunks for latency stamps.
   The value is a runner constant — part of the deterministic contract, so
   it must not depend on domain count or host behavior. One timeslice
   (Kstate default quantum 20k) keeps stamp quantization near the
   scheduler's own granularity at ~zero re-dispatch overhead. *)
let chunk_insns = 20_000

type machine_result = {
  mr_label : string;
  mr_domain : int;                 (* domain that ran it (reporting only) *)
  mr_stolen : bool;                (* arrived via work stealing *)
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

(* --- Snapshot --------------------------------------------------------------- *)

let status_str = function
  | None -> "running"
  | Some (Proc.Exited n) -> Printf.sprintf "exited %d" n
  | Some (Proc.Signaled n) -> Printf.sprintf "signaled %d" n

(* Everything 1-domain and N-domain runs must agree on, rendered printable
   so a divergence shows up as a readable diff (same spirit as the engine
   fuzzer's snapshot): final architectural state of the driven process,
   console, fault log, cache-hierarchy counters, and digests of the whole
   physical memory and tag map. *)
let snapshot k (p : Proc.t) status =
  let b = Buffer.create 1024 in
  let ctx = p.Proc.ctx in
  Printf.bprintf b "status=%s\n" (status_str status);
  Printf.bprintf b "instret=%d cycles=%d\n" ctx.Cpu.instret ctx.Cpu.cycles;
  Printf.bprintf b "pcc=%s\nddc=%s\n" (Cap.to_string ctx.Cpu.pcc)
    (Cap.to_string ctx.Cpu.ddc);
  for r = 1 to 31 do
    if ctx.Cpu.gpr.(r) <> 0 then Printf.bprintf b "r%d=%x " r ctx.Cpu.gpr.(r)
  done;
  Buffer.add_char b '\n';
  for r = 1 to 31 do
    if not (Cap.equal ctx.Cpu.creg.(r) Cap.null) then
      Printf.bprintf b "c%d=%s\n" r (Cap.to_string ctx.Cpu.creg.(r))
  done;
  let h = Kstate.hierarchy k in
  Printf.bprintf b "il1=%d/%d dl1=%d/%d l2=%d/%d\n"
    (Cache.hits h.Cache.il1) (Cache.misses h.Cache.il1)
    (Cache.hits h.Cache.dl1) (Cache.misses h.Cache.dl1)
    (Cache.hits h.Cache.l2) (Cache.misses h.Cache.l2);
  Printf.bprintf b "syscalls=%d\n" p.Proc.syscall_count;
  (* Machine-lifetime allocator counters: shard traffic (remote frees,
     drains, ownership-change sweeps) must be bit-identical across domain
     counts, so it belongs in the differential snapshot. *)
  Printf.bprintf b "alloc=%s\n"
    (String.concat " "
       (List.map
          (fun (name, v) -> Printf.sprintf "%s:%d" name v)
          (Malloc_impl.machine_counters k)));
  Printf.bprintf b "faults=%s\n" (String.concat "|" p.Proc.fault_log);
  Printf.bprintf b "console=%s\n" (String.escaped (Buffer.contents p.Proc.console));
  let mem = k.Kstate.mem in
  Printf.bprintf b "data=%s\n" (Digest.to_hex (Tagmem.digest mem));
  (* The tag map renders as the comma-separated tagged offsets. *)
  let tags = Buffer.create 4096 in
  Tagmem.iter_tags mem 0 (Tagmem.size mem) (fun off ->
      if Buffer.length tags > 0 then Buffer.add_char tags ',';
      Buffer.add_string tags (string_of_int off));
  Printf.bprintf b "tags=%s\n"
    (Digest.to_hex (Digest.string (Buffer.contents tags)));
  Buffer.contents b

(* --- Running one machine ---------------------------------------------------- *)

let count_marker s c =
  let n = ref 0 in
  String.iter (fun ch -> if ch = c then incr n) s;
  !n

(* Boot, run to completion in [chunk_insns] chunks, stamp request markers,
   snapshot. [engine]/[elide] configure the kernel exactly as the engine
   bench does; the fact provider hits the shared (domain-safe) Absint
   caches. *)
let run_machine ?(engine = Cpu.Chain) ?(elide = true) spec =
  let host0 = Unix.gettimeofday () in
  let k = Kernel.boot () in
  k.Kstate.config.Kstate.engine <- engine;
  if elide then
    k.Kstate.config.Kstate.fact_provider <- Some (Absint.provider ());
  Runtime.install k;
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
    mr_stolen = false;
    mr_status = status;
    mr_output = Buffer.contents p.Proc.console;
    mr_insns = executed;
    mr_cycles = p.Proc.ctx.Cpu.cycles;
    mr_l2_misses = Cache.l2_misses (Kstate.hierarchy k);
    mr_syscalls = p.Proc.syscall_count;
    mr_requests = !seen;
    mr_latencies = lats;
    mr_host_seconds = Unix.gettimeofday () -. host0;
    mr_snapshot = snapshot k p status;
    mr_alloc = Malloc_impl.machine_counters k }

(* --- Work-stealing scheduler ------------------------------------------------ *)

(* One mutex-guarded deque of spec indices per domain, seeded round-robin.
   Owners pop from the head; a domain whose deque drains steals from the
   TAIL of the first non-empty victim (classic owner-head/thief-tail
   split, so thieves take the work the owner would reach last). The locks
   are per-deque and never nested, so there is no ordering concern.
   Stealing only changes WHICH domain runs a machine — never how the
   machine runs — so heterogeneous run lengths load-balance without
   touching determinism. *)
type deque = { dq_lock : Mutex.t; mutable dq : int list }

type sched = {
  deques : deque array;
  steals : int Atomic.t;
}

let make_sched ~domains specs_n =
  let deques =
    Array.init domains (fun _ -> { dq_lock = Mutex.create (); dq = [] })
  in
  for i = specs_n - 1 downto 0 do
    let d = deques.(i mod domains) in
    d.dq <- i :: d.dq
  done;
  { deques; steals = Atomic.make 0 }

let pop_own sc d =
  let q = sc.deques.(d) in
  Mutex.protect q.dq_lock (fun () ->
      match q.dq with
      | [] -> None
      | i :: rest ->
        q.dq <- rest;
        Some i)

let steal sc d =
  let n = Array.length sc.deques in
  let rec try_victim k =
    if k >= n then None
    else
      let v = (d + k) mod n in
      let q = sc.deques.(v) in
      let got =
        Mutex.protect q.dq_lock (fun () ->
            match List.rev q.dq with
            | [] -> None
            | last :: rev_rest ->
              q.dq <- List.rev rev_rest;
              Some last)
      in
      match got with
      | Some i ->
        Atomic.incr sc.steals;
        Some i
      | None -> try_victim (k + 1)
  in
  try_victim 1

let next_task sc d =
  match pop_own sc d with
  | Some i -> Some (i, false)
  | None -> (match steal sc d with Some i -> Some (i, true) | None -> None)

(* --- Fleet run -------------------------------------------------------------- *)

type report = {
  f_domains : int;                    (* requested sharding width *)
  f_workers : int;                    (* domains actually spawned (see [run]) *)
  f_results : machine_result array;   (* in spec order *)
  f_insns : int;                      (* total simulated instructions *)
  f_host_seconds : float;             (* wall clock for the whole fleet *)
  f_mips : float;                     (* aggregate sim-MIPS *)
  f_util : float array;               (* per-domain busy / wall *)
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
   Worker 0 runs on the calling domain; the rest are spawned. All results
   are published by [Domain.join] before aggregation reads them.

   By default live workers are capped at the host's recommended domain
   count: OCaml 5 minor collections are stop-the-world rendezvous across
   every running domain, so oversubscribing domains past the core count
   does not just serialize — each collection waits for descheduled domains
   to reach their safepoint, and measured throughput collapses well below
   the single-domain baseline. Requesting more domains than cores then
   runs [min domains cores] workers over the same work-stealing deques
   (machine results are identical either way — that is the determinism
   contract). [~oversubscribe:true] disables the cap: the differential
   tests use it to force REAL cross-domain execution even on a one-core
   host, where correctness, not throughput, is being tested. *)
let run ?(engine = Cpu.Chain) ?(elide = true) ?(oversubscribe = false)
    ~domains specs =
  if domains < 1 then invalid_arg "Fleet.run: domains < 1";
  let workers =
    if oversubscribe then domains
    else max 1 (min domains (Domain.recommended_domain_count ()))
  in
  let specs = Array.of_list specs in
  let n = Array.length specs in
  let sc = make_sched ~domains:workers n in
  let results : machine_result option array = Array.make n None in
  let busy = Array.make workers 0.0 in
  let wall0 = Unix.gettimeofday () in
  let worker d =
    let rec loop () =
      match next_task sc d with
      | None -> ()
      | Some (i, stolen) ->
        let r = run_machine ~engine ~elide specs.(i) in
        results.(i) <- Some { r with mr_domain = d; mr_stolen = stolen };
        busy.(d) <- busy.(d) +. r.mr_host_seconds;
        loop ()
    in
    loop ()
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
    f_steals = Atomic.get sc.steals;
    f_requests = requests;
    f_p50 = percentile all_lats 0.50;
    f_p95 = percentile all_lats 0.95;
    f_p99 = percentile all_lats 0.99 }

(* --- Standard mixes --------------------------------------------------------- *)

(* Heterogeneous s_server traffic mix: three service classes (short,
   medium, long — the long class serves 3x the rounds of the short one at
   double the record size), machines assigned round-robin. Machines of one
   class share a single prebuilt image, so the fleet also exercises
   cross-domain sharing of the image-keyed analysis caches; classes differ
   in code (distinct images) as well as load. All images are built here,
   in the calling domain, before any domain spawns. *)
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
