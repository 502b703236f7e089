(* Fleet determinism: sharding whole machines across OCaml domains must
   not change what any machine computes.

   The contract (docs/FLEET.md): a machine's execution depends only on
   its spec — never on the domain count, which domain claims a machine
   from the runner's shared cursor, or what other machines run
   concurrently.
   The differential here runs the SAME machine set with 1 domain and with
   4 genuinely concurrent domains ([~oversubscribe:true] defeats the
   host-core cap, so even a one-core CI host really interleaves four
   mutator domains and their stop-the-world collections) and demands
   bit-identical per-machine snapshots plus identical per-machine stats
   and latency stamps.

   The mix deliberately includes the hard cases alongside the TLS
   traffic servers:
   - a fork-heavy machine (process-tree churn, fork-time COW of the
     parent's address space, zombie reaping);
   - an mprotect machine that flips a hot region read-only and back
     between hot loops (chain severing and pmap generation bumps, racing
     nothing, because each machine owns its kernel outright).

   A quick test pins the scheduler's own contract: more workers than
   machines, and no machines at all. *)

module Fleet = Cheri_fleet.Fleet
module Abi = Cheri_core.Abi
module Proc = Cheri_kernel.Proc
module Stdlib_src = Cheri_workloads.Stdlib_src
module Malloc_bench = Cheri_workloads.Malloc_bench

(* --- Custom hard-case machines ---------------------------------------------- *)

(* Six sequential fork/wait generations; each child churns the allocator
   and exits with a checksum the parent ignores. One '#' per reaped
   child gives the latency stamper something to chew on. *)
let fork_heavy_src =
  {|
    int main(int argc, char **argv) {
      int kids = 6;
      int i;
      for (i = 0; i < kids; i = i + 1) {
        int pid = fork();
        if (pid == 0) {
          int j;
          int acc = i + 1;
          char *buf = malloc(2048);
          for (j = 0; j < 2048; j = j + 1) {
            buf[j] = acc % 251;
            acc = acc * 7 + j;
          }
          int sum = 0;
          for (j = 0; j < 2048; j = j + 1) sum = sum + buf[j];
          free(buf);
          exit(sum % 31);
        }
        int status = 0;
        wait(&status);
        print_str("#");
      }
      print_str("forks done");
      return 0;
    }
  |}

(* Hot write loop, mprotect the region read-only, hot read loop, restore
   read|write — four passes. The protection flips sever block chains and
   bump the pmap generation between hot loops, so the chain engine
   rebuilds its links mid-run: the pattern that must stay deterministic
   whichever domain runs the machine. *)
let mprotect_src =
  {|
    int main(int argc, char **argv) {
      char *buf = mmap_anon(8192);
      int pass;
      int i;
      int sum = 0;
      for (pass = 0; pass < 4; pass = pass + 1) {
        for (i = 0; i < 8192; i = i + 1) buf[i] = (i + pass) % 127;
        if (mprotect(buf, 8192, 1) < 0) return 1;
        for (i = 0; i < 8192; i = i + 1) sum = sum + buf[i];
        if (mprotect(buf, 8192, 3) < 0) return 2;
        print_str("#");
      }
      if (munmap(buf, 8192) < 0) return 3;
      if (sum < 0) return 4;
      print_str("mprotect done");
      return 0;
    }
  |}

let custom_spec ~label ~name src =
  let abi = Abi.Cheriabi in
  { Fleet.ms_label = label;
    ms_abi = abi;
    ms_image = Stdlib_src.build_image ~abi ~name src;
    ms_path = "/bin/" ^ name;
    ms_argv = [ name ];
    ms_max_steps = 200_000_000;
    ms_marker = '#' }

(* Small but heterogeneous: three TLS traffic servers (one per service
   class, shared images with the fleet bench path) plus the hard-case
   machines above. *)
let traffic_machines = 3

(* Cross-shard allocator traffic: remote-free queues, adoption and
   ownership-change sweeps, all folded into the snapshot's alloc= line. *)
let contention_spec () =
  custom_spec ~label:"malloc_contention" ~name:"malloc_mc"
    (Malloc_bench.contention_src ~objs:24 ~generations:4 ~churn:12 ())

let mixed_specs () =
  Fleet.traffic_mix ~machines:traffic_machines ~rounds:3 ()
  @ [ custom_spec ~label:"fork_heavy" ~name:"fork_heavy" fork_heavy_src;
      custom_spec ~label:"mprotect_loops" ~name:"mprotect_hot" mprotect_src;
      (* So the 1-vs-4 equality below is also the allocator determinism
         gate. *)
      contention_spec () ]

(* --- 1 vs 4 domains: bit-identical machines ---------------------------------- *)

let check_machine_equal i (a : Fleet.machine_result)
    (b : Fleet.machine_result) =
  let tag fmt = Printf.sprintf ("machine %d (%s): " ^^ fmt) i a.Fleet.mr_label in
  Alcotest.(check string) (tag "label") a.Fleet.mr_label b.Fleet.mr_label;
  Alcotest.(check bool) (tag "status")
    true (a.Fleet.mr_status = b.Fleet.mr_status);
  Alcotest.(check string) (tag "console") a.Fleet.mr_output b.Fleet.mr_output;
  Alcotest.(check int) (tag "instructions") a.Fleet.mr_insns b.Fleet.mr_insns;
  Alcotest.(check int) (tag "cycles") a.Fleet.mr_cycles b.Fleet.mr_cycles;
  Alcotest.(check int) (tag "l2 misses")
    a.Fleet.mr_l2_misses b.Fleet.mr_l2_misses;
  Alcotest.(check int) (tag "syscalls")
    a.Fleet.mr_syscalls b.Fleet.mr_syscalls;
  Alcotest.(check int) (tag "requests")
    a.Fleet.mr_requests b.Fleet.mr_requests;
  Alcotest.(check (array int)) (tag "latency stamps")
    a.Fleet.mr_latencies b.Fleet.mr_latencies;
  Alcotest.(check string) (tag "snapshot")
    a.Fleet.mr_snapshot b.Fleet.mr_snapshot;
  List.iter2
    (fun (n1, v1) (n2, v2) ->
      Alcotest.(check string) (tag "alloc counter order") n1 n2;
      Alcotest.(check int) (tag "alloc counter " ^ n1) v1 v2)
    a.Fleet.mr_alloc b.Fleet.mr_alloc

let test_one_vs_four_domains () =
  let specs = mixed_specs () in
  let r1 = Fleet.run ~domains:1 specs in
  let r4 = Fleet.run ~domains:4 ~oversubscribe:true specs in
  Alcotest.(check int) "requested domains recorded" 4 r4.Fleet.f_domains;
  Alcotest.(check int) "oversubscribe forces 4 workers" 4 r4.Fleet.f_workers;
  Alcotest.(check int) "same machine count"
    (Array.length r1.Fleet.f_results) (Array.length r4.Fleet.f_results);
  Array.iteri
    (fun i a -> check_machine_equal i a r4.Fleet.f_results.(i))
    r1.Fleet.f_results;
  Alcotest.(check int) "aggregate instructions identical"
    r1.Fleet.f_insns r4.Fleet.f_insns;
  Alcotest.(check int) "aggregate requests identical"
    r1.Fleet.f_requests r4.Fleet.f_requests;
  (* every machine must have finished cleanly, or the equalities above
     are vacuous *)
  Array.iter
    (fun (m : Fleet.machine_result) ->
      match m.Fleet.mr_status with
      | Some (Proc.Exited 0) -> ()
      | s ->
        Alcotest.failf "machine %s finished %s" m.Fleet.mr_label
          (Cheri_libc.Snapshot.status_str s))
    r1.Fleet.f_results;
  (* every traffic server verified its exchange with the client *)
  let traffic =
    List.filter
      (fun (m : Fleet.machine_result) ->
        String.starts_with ~prefix:"s_server/" m.Fleet.mr_label)
      (Array.to_list r4.Fleet.f_results)
  in
  Alcotest.(check int) "one traffic machine per service class"
    traffic_machines (List.length traffic);
  List.iter
    (fun (m : Fleet.machine_result) ->
      Alcotest.(check bool) (m.Fleet.mr_label ^ " completed") true
        (String.ends_with ~suffix:"fleet ok" m.Fleet.mr_output))
    traffic;
  (* and the hard cases must actually have exercised their hard paths *)
  let by_label l =
    let found = ref None in
    Array.iter
      (fun (m : Fleet.machine_result) ->
        if m.Fleet.mr_label = l then found := Some m)
      r4.Fleet.f_results;
    match !found with
    | Some m -> m
    | None -> Alcotest.failf "machine %s missing from results" l
  in
  let fh = by_label "fork_heavy" in
  Alcotest.(check int) "fork machine reaped 6 children" 6
    fh.Fleet.mr_requests;
  Alcotest.(check bool) "fork machine completed" true
    (String.ends_with ~suffix:"forks done" fh.Fleet.mr_output);
  let mp = by_label "mprotect_loops" in
  Alcotest.(check int) "mprotect machine ran 4 passes" 4
    mp.Fleet.mr_requests;
  Alcotest.(check bool) "mprotect machine completed" true
    (String.ends_with ~suffix:"mprotect done" mp.Fleet.mr_output);
  let mc = by_label "malloc_contention" in
  Alcotest.(check int) "contention machine reaped its generations"
    (Malloc_bench.expected_markers ~generations:4 ()) mc.Fleet.mr_requests;
  Alcotest.(check bool) "contention machine completed" true
    (String.ends_with ~suffix:" malloc ok" mc.Fleet.mr_output);
  (* Allocator quiesce gates on the contention machine: remote traffic
     actually happened, every enqueued slot was drained, nothing parked. *)
  let ma n = List.assoc n mc.Fleet.mr_alloc in
  Alcotest.(check bool) "contention produced remote frees" true
    (ma "remote_enq" > 0);
  Alcotest.(check int) "remote queues drained at quiesce" (ma "remote_enq")
    (ma "remote_drained");
  Alcotest.(check int) "no pending remote slots at quiesce" 0
    (ma "pending_remote");
  Alcotest.(check bool) "ownership-change sweeps happened" true
    (ma "owner_sweeps" > 0)

(* --- Snapshot format ----------------------------------------------------------- *)

(* The snapshot's exact bytes are a contract: simbench/expected.tsv holds
   digests of them, and every differential check compares them. Pinned
   here as the MD5s of two fixed machines' snapshots: a TLS server
   (registers, syscalls, console) and the allocator contention machine
   (remote-free and sweep counters on the alloc= line). A renderer change
   that moves one byte fails this test. *)
let test_snapshot_pinned () =
  List.iter
    (fun (spec, want) ->
      let m = Fleet.run_machine spec in
      Alcotest.(check string) (spec.Fleet.ms_label ^ ": snapshot MD5") want
        (Digest.to_hex (Digest.string m.Fleet.mr_snapshot)))
    [ List.hd (Fleet.traffic_mix ~machines:1 ~rounds:3 ()),
      "cd159ab891aacf9e8244f22c965cb304";
      contention_spec (), "575ef89d46a54673ba9d364ad038bb0d" ]

(* --- Worker cap and report hygiene ------------------------------------------- *)

let test_worker_cap () =
  let specs =
    [ custom_spec ~label:"cap_probe" ~name:"cap_probe" mprotect_src ]
  in
  let cores = Domain.recommended_domain_count () in
  let r = Fleet.run ~domains:8 specs in
  Alcotest.(check int) "f_domains echoes the request" 8 r.Fleet.f_domains;
  Alcotest.(check int) "workers capped at host cores"
    (max 1 (min 8 cores)) r.Fleet.f_workers;
  Alcotest.(check int) "one utilization slot per worker"
    r.Fleet.f_workers (Array.length r.Fleet.f_util)

(* More workers than machines, then no machines: every spec is claimed
   exactly once, results come back in spec order, and idle workers
   neither crash nor show up in the results. Busy time is summed per
   worker from [mr_host_seconds], so a machine run twice would leave the
   workers' total busy time above the machines' total host time. *)
let test_cursor_contract () =
  let specs = Fleet.traffic_mix ~machines:2 ~rounds:3 () in
  let r = Fleet.run ~domains:4 ~oversubscribe:true specs in
  Alcotest.(check int) "4 workers" 4 r.Fleet.f_workers;
  Alcotest.(check (list string)) "results in spec order"
    (List.map (fun (s : Fleet.machine_spec) -> s.Fleet.ms_label) specs)
    (Array.to_list
       (Array.map (fun (m : Fleet.machine_result) -> m.Fleet.mr_label)
          r.Fleet.f_results));
  Array.iter
    (fun (m : Fleet.machine_result) ->
      Alcotest.(check bool) (m.Fleet.mr_label ^ " exited 0") true
        (m.Fleet.mr_status = Some (Proc.Exited 0));
      Alcotest.(check bool) (m.Fleet.mr_label ^ " domain below workers")
        true (m.Fleet.mr_domain >= 0 && m.Fleet.mr_domain < r.Fleet.f_workers))
    r.Fleet.f_results;
  Alcotest.(check int) "one utilization slot per worker"
    r.Fleet.f_workers (Array.length r.Fleet.f_util);
  let busy =
    Array.fold_left (fun a u -> a +. (u *. r.Fleet.f_host_seconds)) 0.0
      r.Fleet.f_util
  in
  let host =
    Array.fold_left (fun a (m : Fleet.machine_result) ->
        a +. m.Fleet.mr_host_seconds) 0.0 r.Fleet.f_results
  in
  Alcotest.(check (float 1e-6)) "each machine ran exactly once" host busy;
  let e = Fleet.run ~domains:4 ~oversubscribe:true [] in
  Alcotest.(check int) "empty fleet: no results" 0
    (Array.length e.Fleet.f_results);
  Alcotest.(check int) "empty fleet: no requests" 0 e.Fleet.f_requests;
  Alcotest.(check (list int)) "empty fleet: zero percentiles" [ 0; 0; 0 ]
    [ e.Fleet.f_p50; e.Fleet.f_p95; e.Fleet.f_p99 ]

let test_percentiles_monotone () =
  let specs = Fleet.traffic_mix ~machines:2 ~rounds:3 () in
  let r = Fleet.run ~domains:2 ~oversubscribe:true specs in
  Alcotest.(check bool) "completed requests" true (r.Fleet.f_requests > 0);
  Alcotest.(check bool) "p50 positive" true (r.Fleet.f_p50 > 0);
  Alcotest.(check bool) "p50 <= p95" true (r.Fleet.f_p50 <= r.Fleet.f_p95);
  Alcotest.(check bool) "p95 <= p99" true (r.Fleet.f_p95 <= r.Fleet.f_p99)

let suite =
  [ "fleet: 1 vs 4 domains bit-identical", `Slow, test_one_vs_four_domains;
    "fleet: worker cap respects host cores", `Quick, test_worker_cap;
    "fleet: latency percentiles monotone", `Quick, test_percentiles_monotone;
    "fleet: cursor runs each machine once", `Quick, test_cursor_contract;
    "fleet: snapshot format pinned", `Quick, test_snapshot_pinned ]
