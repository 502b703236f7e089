(* simbench: the layered simulator benchmark.

   One process runs one workload. One operation is one simulated program
   or one fleet machine.

   - kernels-mips64: the 12 Fig. 4 MiBench/SPEC kernels, each on a freshly
     booted machine. Images are built during set-up. Execution through
     integer pointers and DDC does most of the work.
   - kernels-cheriabi: the same kernels plus the Fig. 5 openssl s_server
     under CheriABI: capability registers, tagged CLC/CSC, bounds checks.
     A gain on one pointer path that costs the other shows up as a split
     between the two kernels workloads.
   - tls-fleet: Fleet.traffic_mix ~machines:8 ~rounds:150 run by Fleet.run
     on min 2 nproc domains: sockets, fork/wait, chunked scheduling,
     per-machine boot and the snapshot digest.
   - cold-corpus: the Table 3 BOdiagsuite programs (tests x variants) under
     mips64, cheriabi and asan. Each is compiled, linked, booted, exec'd
     and run inside the timed region, so compile, link, boot, exec and
     cold analysis dominate and execution is small.

   Every machine uses Fleet's default kernel configuration: the Chain
   engine with Absint.provider () installed. Every timed operation (one
   program, or one fleet run) starts with a cleared fact cache and a
   collected heap (see [fresh]).

   --trace 0 reports the end-to-end metrics. One untimed pass warms up,
   then passes repeat for --seconds; each operation's median time is taken
   over the passes, after scaling every time to a reference host speed
   (see [Hostref]). --trace 1 alternates untraced and traced passes over
   the same operations and reports per-layer metrics: spans are taken
   here, around calls into each layer's public functions (no span lives
   inside the simulator), and the untraced twin of each traced pass gives
   the tracing overhead. Every operation's simulated statistics are
   checked against the recorded expectations (--expected); a mismatch
   counts as a failed operation.

   The seed only orders the operations, so every operation has one
   recorded expectation whatever the seed. *)

module Abi = Cheri_core.Abi
module Cpu = Cheri_isa.Cpu
module Bbcache = Cheri_isa.Bbcache
module Cache = Cheri_tagmem.Cache
module Sobj = Cheri_rtld.Sobj
module Rtld = Cheri_rtld.Rtld
module Kernel = Cheri_kernel.Kernel
module Kstate = Cheri_kernel.Kstate
module Proc = Cheri_kernel.Proc
module Vfs = Cheri_kernel.Vfs
module Signo = Cheri_kernel.Signo
module Absint = Cheri_analysis.Absint
module Runtime = Cheri_libc.Runtime
module Malloc_impl = Cheri_libc.Malloc_impl
module Compile = Cheri_cc.Compile
module Fleet = Cheri_fleet.Fleet
module Mibench = Cheri_workloads.Mibench
module Bodiag = Cheri_workloads.Bodiag
module Stdlib_src = Cheri_workloads.Stdlib_src
module Openssl_sim = Cheri_workloads.Openssl_sim

let now = Unix.gettimeofday

let median = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let ratio a b = if b = 0.0 then 0.0 else a /. b
let fratio a b = ratio (float_of_int a) (float_of_int b)

(* --- Host speed reference -------------------------------------------------- *)

(* This host's speed drifts by up to a half for minutes at a time (other
   tenants share its cores and caches), which no statistic over a run of
   a few tens of seconds removes, and which a plain integer loop does not
   see. A fixed reference interpreter does: a random program over sixteen
   registers, an 8 MiB data buffer and a hash table, decoded and dispatched
   the way the simulator's engines work. On a shared 2-vCPU VM, over six
   minutes of kernel passes, its speed tracked the simulator's with
   correlation 0.94. It runs before
   timed operations (at most every [interval] seconds), and each timed
   operation's host seconds are scaled by the reference's measured rate
   over [nominal_msteps]: the end-to-end times are seconds of a host that
   runs the reference at its nominal rate. The reference is part of the
   benchmark, so no change to the simulator moves it. *)
module Hostref = struct
  type op =
    | Add of int * int * int
    | Load of int * int
    | Store of int * int
    | Branch of int * int
    | Lookup of int * int
    | Mul of int * int

  let mem_mask = (8 lsl 20) - 1
  let max_domains = 2
  let mems = Array.init max_domains (fun _ -> Bytes.make (mem_mask + 1) 'a')
  let table = Hashtbl.create 8192
  let () = for i = 0 to 8191 do Hashtbl.replace table i (i * 31) done
  let code_len = 512

  let code =
    let rng = Random.State.make [| 9 |] in
    let reg () = Random.State.int rng 16 in
    Array.init code_len (fun i ->
        match Random.State.int rng 10 with
        | 0 | 1 | 2 -> Add (reg (), reg (), reg ())
        | 3 | 4 -> Load (reg (), reg ())
        | 5 -> Store (reg (), reg ())
        | 6 | 7 -> Branch (reg (), (i + 1 + Random.State.int rng 40) land (code_len - 1))
        | 8 -> Lookup (reg (), reg ())
        | _ -> Mul (reg (), reg ()))

  let steps = 300_000
  let nominal_msteps = 50.0
  let interval = 0.1

  (* Million reference steps per host second, on one core. *)
  let rate mem =
    let regs = Array.init 16 (fun i -> i * 7919) in
    let pc = ref 0 in
    let t0 = now () in
    for _ = 1 to steps do
      (match code.(!pc) with
       | Add (d, a, b) -> regs.(d) <- regs.(a) + regs.(b) + 1; incr pc
       | Load (d, a) ->
         regs.(d) <-
           regs.(d) + Char.code (Bytes.unsafe_get mem ((regs.(a) * 64) land mem_mask));
         incr pc
       | Store (d, a) ->
         Bytes.unsafe_set mem ((regs.(a) * 64) land mem_mask)
           (Char.unsafe_chr (regs.(d) land 255));
         incr pc
       | Branch (a, t) -> if regs.(a) land 2 = 0 then pc := t else incr pc
       | Lookup (d, a) ->
         regs.(d) <- regs.(d) + Hashtbl.find table (regs.(a) land 8191);
         incr pc
       | Mul (d, a) ->
         regs.(d) <- ((regs.(a) * 1103515245) + 12345) land 0xFFFFFF;
         incr pc);
      if !pc >= code_len then pc := 0
    done;
    float_of_int steps /. (now () -. t0) /. 1e6

  (* The mean rate of [domains] cores running the reference at once: a
     fleet's wall time follows the speed of every core it runs on. *)
  let rate_on ~domains =
    let others =
      List.init (min domains max_domains - 1) (fun i ->
          Domain.spawn (fun () -> rate mems.(i + 1)))
    in
    let r = rate mems.(0) in
    let rs = r :: List.map Domain.join others in
    List.fold_left ( +. ) 0.0 rs /. float_of_int (List.length rs)

  (* Host seconds times [scale] are reference-host seconds. *)
  let scale = ref 1.0
  let rates = ref []
  let last = ref neg_infinity

  let probe ~domains =
    if now () -. !last >= interval then begin
      let r = rate_on ~domains in
      rates := r :: !rates;
      scale := r /. nominal_msteps;
      last := now ()
    end
end

(* --- Spans ------------------------------------------------------------------- *)

(* Aggregated spans per layer. A layer's self time (and self minor words)
   is its span's total minus what its child spans cover. The open-span
   stack lives in preallocated arrays so entering and leaving a span
   allocates nothing beyond the two clock reads, whose words are measured
   once ([span_words]) and charged to no layer. *)
module Tr = struct
  type layer = Compile | Link | Boot | Spawn | Run | Rt | Provider | Snapshot

  let index = function
    | Compile -> 0 | Link -> 1 | Boot -> 2 | Spawn -> 3 | Run -> 4 | Rt -> 5
    | Provider -> 6 | Snapshot -> 7

  let layers = 8
  let max_depth = 16

  type t = {
    incl : float array;
    self : float array;
    words : float array;                 (* self minor words *)
    calls : int array;
    st_l : int array;
    st_t0 : float array;
    st_w0 : float array;
    st_ct : float array;                 (* child seconds *)
    st_cw : float array;                 (* child words, raw *)
    mutable depth : int;
    mutable span_words : float;
  }

  let make () =
    { incl = Array.make layers 0.0; self = Array.make layers 0.0;
      words = Array.make layers 0.0; calls = Array.make layers 0;
      st_l = Array.make max_depth 0; st_t0 = Array.make max_depth 0.0;
      st_w0 = Array.make max_depth 0.0; st_ct = Array.make max_depth 0.0;
      st_cw = Array.make max_depth 0.0; depth = 0; span_words = 0.0 }

  let enter t l =
    let d = t.depth in
    t.st_l.(d) <- index l;
    t.st_ct.(d) <- 0.0;
    t.st_cw.(d) <- 0.0;
    t.depth <- d + 1;
    t.st_w0.(d) <- Gc.minor_words ();
    t.st_t0.(d) <- now ()

  let leave t =
    let t1 = now () in
    let w1 = Gc.minor_words () in
    let d = t.depth - 1 in
    t.depth <- d;
    let l = t.st_l.(d) in
    let dt = t1 -. t.st_t0.(d) and dw = w1 -. t.st_w0.(d) in
    t.incl.(l) <- t.incl.(l) +. dt;
    t.self.(l) <- t.self.(l) +. dt -. t.st_ct.(d);
    t.words.(l) <- t.words.(l) +. dw -. t.span_words -. t.st_cw.(d);
    t.calls.(l) <- t.calls.(l) + 1;
    if d > 0 then begin
      t.st_ct.(d - 1) <- t.st_ct.(d - 1) +. dt;
      t.st_cw.(d - 1) <- t.st_cw.(d - 1) +. dw
    end

  let create () =
    let t = make () in
    let probe = make () in
    let w = ref infinity in
    for _ = 1 to 8 do
      let before = probe.words.(0) in
      enter probe Compile;
      leave probe;
      w := Float.min !w (probe.words.(0) -. before)
    done;
    t.span_words <- !w;
    t

  (* Charge [dt]/[dw], measured by a probe call outside the span, to
     [child] as part of [parent]'s self time (see [link_probe]). *)
  let attribute t ~parent ~child ~dt ~dw =
    let p = index parent and c = index child in
    t.self.(p) <- t.self.(p) -. dt;
    t.words.(p) <- t.words.(p) -. dw;
    t.incl.(c) <- t.incl.(c) +. dt;
    t.self.(c) <- t.self.(c) +. dt;
    t.words.(c) <- t.words.(c) +. dw;
    t.calls.(c) <- t.calls.(c) + 1

  let self t l = t.self.(index l)
  let incl t l = t.incl.(index l)
  let words t l = t.words.(index l)
  let calls t l = t.calls.(index l)
  let total_self t = Array.fold_left ( +. ) 0.0 t.self
end

let span tr l f =
  match tr with
  | None -> f ()
  | Some t ->
    Tr.enter t l;
    (match f () with
     | v -> Tr.leave t; v
     | exception e -> Tr.leave t; raise e)

(* --- Per-pass counters --------------------------------------------------------- *)

(* Exact counters summed over the machines of one traced pass. *)
type agg = {
  sys : (string, int) Hashtbl.t;
  alloc : (string, int) Hashtbl.t;
  mutable built : int;
  mutable flushes : int;
  mutable entries : int;
  mutable chained : int;
  mutable ic_hits : int;
  mutable ic_keyed : int;
  mutable dtlb_hits : int;
  mutable dtlb_all : int;
  mutable fused_insns : int;
  mutable checked : int;
  mutable elided : int;
  mutable boot_major : float;
}

let new_agg () =
  { sys = Hashtbl.create 32; alloc = Hashtbl.create 16; built = 0;
    flushes = 0; entries = 0; chained = 0; ic_hits = 0; ic_keyed = 0;
    dtlb_hits = 0; dtlb_all = 0; fused_insns = 0; checked = 0; elided = 0;
    boot_major = 0.0 }

let bump h name v =
  Hashtbl.replace h name (v + Option.value ~default:0 (Hashtbl.find_opt h name))

let absorb a k =
  Hashtbl.iter (fun n v -> bump a.sys n v) k.Kstate.syscall_stats;
  List.iter (fun (n, v) -> bump a.alloc n v) (Malloc_impl.machine_counters k);
  let bb = k.Kstate.bb in
  let ch = Bbcache.chain_stats bb in
  a.built <- a.built + bb.Bbcache.built;
  a.flushes <- a.flushes + bb.Bbcache.flushes;
  a.entries <- a.entries + ch.Bbcache.ch_entries;
  a.chained <- a.chained + ch.Bbcache.ch_chained;
  a.ic_hits <- a.ic_hits + ch.Bbcache.ch_ic_hits;
  a.ic_keyed <-
    a.ic_keyed + ch.Bbcache.ch_ic_hits + ch.Bbcache.ch_ic_misses
    + ch.Bbcache.ch_ic_mega;
  a.dtlb_hits <- a.dtlb_hits + ch.Bbcache.ch_dtlb_hits;
  a.dtlb_all <- a.dtlb_all + ch.Bbcache.ch_dtlb_hits + ch.Bbcache.ch_dtlb_misses;
  a.fused_insns <- a.fused_insns + ch.Bbcache.ch_fused_insns;
  a.checked <- a.checked + bb.Bbcache.checked_probes;
  a.elided <- a.elided + bb.Bbcache.elided_probes

(* --- Fidelity gate ------------------------------------------------------------- *)

(* What one operation must reproduce exactly. [status] is the exit status,
   or for BOdiag programs the Table 3 verdict. Console and snapshot are MD5
   digests ("-" when there is no snapshot). *)
type outcome = {
  label : string;
  status : string;
  instret : int;
  cycles : int;
  l2 : int;
  insns : int;
  console : string;
  snapshot : string;
}

let digest s = Digest.to_hex (Digest.string s)

let outcome_line o =
  Printf.sprintf "%s\t%s\t%d\t%d\t%d\t%d\t%s\t%s" o.label o.status o.instret
    o.cycles o.l2 o.insns o.console o.snapshot

let load_expected path =
  let h = Hashtbl.create 4096 in
  if Sys.file_exists path then
    In_channel.with_open_text path (fun ic ->
        let rec go () =
          match In_channel.input_line ic with
          | None -> ()
          | Some line ->
            (match String.split_on_char '\t' line with
             | [ label; status; instret; cycles; l2; insns; console; snapshot ] ->
               Hashtbl.replace h label
                 { label; status; instret = int_of_string instret;
                   cycles = int_of_string cycles; l2 = int_of_string l2;
                   insns = int_of_string insns; console; snapshot }
             | _ -> failwith ("simbench: malformed expectation line: " ^ line));
            go ()
        in
        go ());
  h

let expected : (string, outcome) Hashtbl.t ref = ref (Hashtbl.create 1)
let recording : outcome list ref option ref = ref None
let attempted = ref 0
let failed = ref 0

let check o =
  incr attempted;
  match !recording with
  | Some acc -> acc := o :: !acc
  | None ->
    let bad =
      match Hashtbl.find_opt !expected o.label with
      | None -> Some "no recorded expectation"
      | Some e when e = o -> None
      | Some e ->
        Some (Printf.sprintf "expected [%s] got [%s]" (outcome_line e)
                (outcome_line o))
    in
    (match bad with
     | None -> ()
     | Some why ->
       incr failed;
       if !failed <= 5 then Printf.eprintf "simbench: %s: %s\n%!" o.label why)

let status_string = function
  | Some (Proc.Exited c) -> Printf.sprintf "exit %d" c
  | Some (Proc.Signaled s) -> Signo.name s
  | None -> "running"

(* Table 3 classification, as Bodiag.run_one makes it. *)
let verdict = function
  | Some (Proc.Exited 0) -> "missed"
  | Some (Proc.Exited 9) -> "detected:syscall-error"
  | Some (Proc.Signaled s) -> "detected:" ^ Signo.name s
  | Some (Proc.Exited c) -> Printf.sprintf "error:exit-%d" c
  | None -> "error:did-not-terminate"

let zombie_status (p : Proc.t) =
  match p.Proc.state with Proc.Zombie s -> Some s | _ -> None

(* --- One machine ----------------------------------------------------------------- *)

let provider tr =
  let f = Absint.provider () in
  match tr with
  | None -> f
  | Some t ->
    fun ~image ~ddc ~entries ~got regions ->
      Tr.enter t Tr.Provider;
      (match f ~image ~ddc ~entries ~got regions with
       | v -> Tr.leave t; v
       | exception e -> Tr.leave t; raise e)

(* Kernel.boot plus the configuration every workload shares, plus
   Runtime.install (the kernel.boot layer). *)
let boot ?tr ?agg ?mem_size () =
  let major0 = (Gc.quick_stat ()).Gc.major_words in
  let k =
    span tr Tr.Boot (fun () ->
        let k = Kernel.boot ?mem_size () in
        k.Kstate.config.Kstate.engine <- Cpu.Chain;
        k.Kstate.config.Kstate.fact_provider <- Some (provider tr);
        Runtime.install k;
        k)
  in
  (match agg with
   | Some a ->
     a.boot_major <- a.boot_major +. (Gc.quick_stat ()).Gc.major_words -. major0
   | None -> ());
  (match tr, k.Kstate.rt_handler with
   | Some t, Some h ->
     k.Kstate.rt_handler <-
       Some
         (fun k p n ->
           Tr.enter t Tr.Rt;
           match h k p n with
           | () -> Tr.leave t
           | exception e -> Tr.leave t; raise e)
   | _ -> ());
  k

let spawn ?tr k ~abi ~image ~path ~argv =
  span tr Tr.Spawn (fun () ->
      Vfs.add_exe k.Kstate.vfs path ~abi image;
      Kernel.spawn k ~path ~argv ())

(* Rtld.link runs inside Kernel.spawn, out of reach of a span taken here.
   The traced pass therefore times one more call of the same (pure) link
   after the operation, outside its wall time, and moves that time from
   kernel.spawn's self time to rtld.link. *)
let link_probe tr ~abi image =
  match tr with
  | None -> ()
  | Some t ->
    let w0 = Gc.minor_words () in
    let t0 = now () in
    ignore (Sys.opaque_identity (Rtld.link ~abi image));
    let dt = now () -. t0 in
    let dw = Gc.minor_words () -. w0 in
    Tr.attribute t ~parent:Tr.Spawn ~child:Tr.Link ~dt ~dw

type prog = {
  p_label : string;
  p_abi : Abi.t;
  p_image : Sobj.image;
  p_path : string;
  p_argv : string list;
}

(* Boot to exit of one program; returns (insns, host seconds). *)
let run_prog ?tr ?agg ?mem_size ?(t0 = now ()) ~max_steps ~status_of pr =
  let k = boot ?tr ?agg ?mem_size () in
  let p =
    spawn ?tr k ~abi:pr.p_abi ~image:pr.p_image ~path:pr.p_path ~argv:pr.p_argv
  in
  let insns = span tr Tr.Run (fun () -> Kernel.run ~max_steps k) in
  let secs = now () -. t0 in
  let status = zombie_status p in
  let ctx = p.Proc.ctx in
  check
    { label = pr.p_label; status = status_of status;
      instret = ctx.Cpu.instret; cycles = ctx.Cpu.cycles;
      l2 = Cache.l2_misses (Kstate.hierarchy k); insns;
      console = digest (Buffer.contents p.Proc.console); snapshot = "-" };
  Option.iter (fun a -> absorb a k) agg;
  link_probe tr ~abi:pr.p_abi pr.p_image;
  insns, secs

(* --- Workloads -------------------------------------------------------------------- *)

(* One timing sample: operations done, simulated instructions, host
   seconds from boot to exit, and the Hostref scale in force when it ran.
   A pass is a list of samples: one per program, or one per fleet run
   (whose machines overlap in time). *)
type sample = {
  s_label : string;
  ops : int;
  s_insns : int;
  secs : float;
  scale : float;
}

let total_secs pass = List.fold_left (fun a s -> a +. s.secs) 0.0 pass

(* Called before every timed operation (a program, or a whole fleet run),
   outside its timing. Clearing the fact cache makes the operation pay for
   analysis as a cheri_run invocation does. Collecting the heap starts it
   from the state of a fresh process: the machines of earlier operations
   are garbage no cheri_run process carries, and collecting them inside
   the next operation (or counting them in the peak RSS) would measure
   this loop rather than the simulator. The host speed probe runs before
   the collection, so whatever it leaves on the heap is gone too; it runs
   on as many cores as the operation's [domains]. *)
let fresh ?(domains = 1) () =
  Absint.clear_fact_cache ();
  Hostref.probe ~domains;
  Gc.full_major ()

type fleet_sched = { util : float; steals : int; gap : float }

type instance = {
  timed : unit -> sample list;           (* one untraced batch *)
  baseline : unit -> sample list;        (* untraced twin of [traced] *)
  traced : Tr.t -> agg -> sample list;
  domains : int;
  sched : unit -> fleet_sched option;    (* last fleet run's scheduling *)
}

type size = Full | Tiny

let kernel_max_steps = 200_000_000

let kernels ~abi ~size ~rng tr =
  let names =
    match size with
    | Full -> Mibench.benchmarks
    | Tiny -> [ List.hd Mibench.benchmarks ]
  in
  let abis = Abi.to_string abi in
  let progs =
    List.map
      (fun (name, src) ->
        { p_label = Printf.sprintf "kernel/%s/%s" name abis; p_abi = abi;
          p_image =
            span tr Tr.Compile (fun () -> Stdlib_src.build_image ~abi ~name src);
          p_path = "/bin/bench"; p_argv = [ "bench" ] })
      names
  in
  let progs =
    match abi with
    | Abi.Cheriabi ->
      progs
      @ [ { p_label = "kernel/openssl-s_server/cheriabi"; p_abi = abi;
            p_image =
              span tr Tr.Compile (fun () ->
                  Stdlib_src.build_image ~abi ~name:"s_server"
                    ~extra_libs:[ "libssl", Openssl_sim.libssl_src ]
                    Openssl_sim.server_src);
            p_path = "/bin/s_server";
            p_argv = [ "s_server"; "-port"; "4433" ] } ]
    | Abi.Mips64 | Abi.Asan -> progs
  in
  let progs = Array.of_list progs in
  shuffle rng progs;
  (* A program's speed depends a little (about 5%) on which programs ran
     before it, so every timed pass draws a new order and each program's
     median time spans several orders. Traced passes keep the first. *)
  let traced_order = Array.copy progs in
  let pass ?tr ?agg progs =
    List.map
      (fun pr ->
        fresh ();
        let insns, secs =
          run_prog ?tr ?agg ~max_steps:kernel_max_steps ~status_of:status_string
            pr
        in
        { s_label = pr.p_label; ops = 1; s_insns = insns; secs;
          scale = !Hostref.scale })
      (Array.to_list progs)
  in
  { timed = (fun () -> shuffle rng progs; pass progs);
    baseline = (fun () -> pass traced_order);
    traced = (fun t a -> pass ~tr:t ~agg:a traced_order);
    domains = 1;
    sched = (fun () -> None) }

let fleet_outcome ~label ~status ~instret ~cycles ~l2 ~insns ~console ~snapshot =
  { label = "fleet/" ^ label; status = status_string status; instret; cycles;
    l2; insns; console = digest console; snapshot = digest snapshot }

(* The server's retired instructions, read back from a Fleet snapshot. *)
let snapshot_instret snap =
  match String.split_on_char '\n' snap with
  | _ :: line :: _ -> Scanf.sscanf line "instret=%d" (fun n -> n)
  | _ -> failwith "simbench: unexpected fleet snapshot layout"

let tls_fleet ~size ~rng tr =
  let specs =
    span tr Tr.Compile (fun () -> Fleet.traffic_mix ~machines:8 ~rounds:150 ())
  in
  let specs =
    match size with
    | Full -> Array.of_list specs
    | Tiny -> [| List.hd specs |]
  in
  (* Machines trade places only with machines of their own class (same
     image): the class sequence, and with it how the work balances over
     the domains, stays that of Fleet.traffic_mix for every seed. *)
  let cls (s : Fleet.machine_spec) = Sobj.image_id s.Fleet.ms_image in
  for i = Array.length specs - 1 downto 1 do
    let same =
      List.filter (fun j -> cls specs.(j) = cls specs.(i)) (List.init (i + 1) Fun.id)
    in
    let j = List.nth same (Random.State.int rng (List.length same)) in
    let t = specs.(i) in
    specs.(i) <- specs.(j);
    specs.(j) <- t
  done;
  let specs = Array.to_list specs in
  let domains = min 2 (Domain.recommended_domain_count ()) in
  let last_sched = ref None in
  let fleet_run ~domains =
    fresh ~domains ();
    let r = Fleet.run ~domains specs in
    Array.iter
      (fun m ->
        check
          (fleet_outcome ~label:m.Fleet.mr_label ~status:m.Fleet.mr_status
             ~instret:(snapshot_instret m.Fleet.mr_snapshot)
             ~cycles:m.Fleet.mr_cycles ~l2:m.Fleet.mr_l2_misses
             ~insns:m.Fleet.mr_insns ~console:m.Fleet.mr_output
             ~snapshot:m.Fleet.mr_snapshot))
      r.Fleet.f_results;
    let wall = r.Fleet.f_host_seconds in
    last_sched :=
      Some
        { util =
            ratio (Array.fold_left ( +. ) 0.0 r.Fleet.f_util)
              (float_of_int (Array.length r.Fleet.f_util));
          steals = r.Fleet.f_steals;
          gap = wall *. (1.0 -. Array.fold_left Float.max 0.0 r.Fleet.f_util) };
    [ { s_label = "fleet"; ops = Array.length r.Fleet.f_results;
        s_insns = r.Fleet.f_insns; secs = wall; scale = !Hostref.scale } ]
  in
  (* The traced path: Fleet.run_machine rebuilt from public calls (boot,
     install, spawn, run_chunked, snapshot) on this domain. Its snapshots
     are checked against the same recorded digests as Fleet.run's, so it
     reproduces Fleet.run bit for bit or counts as failed. *)
  let traced t a =
    fresh ();
    List.map
      (fun (spec : Fleet.machine_spec) ->
        let tr = Some t in
        let t0 = now () in
        let k = boot ?tr ~agg:a () in
        let p =
          spawn ?tr k ~abi:spec.Fleet.ms_abi ~image:spec.Fleet.ms_image
            ~path:spec.Fleet.ms_path ~argv:spec.Fleet.ms_argv
        in
        let stamps = ref [] and seen = ref 0 in
        let insns =
          span tr Tr.Run (fun () ->
              Kernel.run_chunked ~chunk:Fleet.chunk_insns
                ~max_steps:spec.Fleet.ms_max_steps k p ~on_chunk:(fun () ->
                  let total =
                    Fleet.count_marker (Buffer.contents p.Proc.console)
                      spec.Fleet.ms_marker
                  in
                  if total > !seen then begin
                    let cyc = p.Proc.ctx.Cpu.cycles in
                    for _ = !seen + 1 to total do stamps := cyc :: !stamps done;
                    seen := total
                  end))
        in
        let status = zombie_status p in
        let snap = span tr Tr.Snapshot (fun () -> Fleet.snapshot k p status) in
        let secs = now () -. t0 in
        check
          (fleet_outcome ~label:spec.Fleet.ms_label ~status
             ~instret:p.Proc.ctx.Cpu.instret ~cycles:p.Proc.ctx.Cpu.cycles
             ~l2:(Cache.l2_misses (Kstate.hierarchy k)) ~insns
             ~console:(Buffer.contents p.Proc.console) ~snapshot:snap);
        absorb a k;
        link_probe tr ~abi:spec.Fleet.ms_abi spec.Fleet.ms_image;
        { s_label = spec.Fleet.ms_label; ops = 1; s_insns = insns; secs;
          scale = !Hostref.scale })
      specs
  in
  { timed = (fun () -> fleet_run ~domains);
    baseline = (fun () -> fleet_run ~domains:1);
    traced;
    domains;
    sched = (fun () -> !last_sched) }

let bodiag_abis = [ Abi.Mips64; Abi.Cheriabi; Abi.Asan ]

(* Table 3's machine: a 12 MiB kernel and a 6M-instruction bound. *)
let bodiag_mem = 12 * 1024 * 1024
let bodiag_max_steps = 6_000_000

(* Every 12th test: 25 tests from all families, 300 programs. A run cannot
   reach all 3492 programs, and a seed-drawn subset would not do: the
   tests' instruction counts span three orders of magnitude, so the draw
   would move the metrics more than the simulator does. The seed orders
   the tests; timed batches cycle through them one test (4 variants x 3
   ABIs, 12 programs) at a time, so every program is timed several times
   in a run. *)
let cold_corpus ~size ~rng _tr =
  let stride = match size with Full -> 12 | Tiny -> Bodiag.count in
  let tests =
    Array.of_list (List.filteri (fun i _ -> i mod stride = 0) Bodiag.tests)
  in
  shuffle rng tests;
  let batch (t : Bodiag.test) =
    List.concat_map
      (fun abi ->
        List.map
          (fun v ->
            ( Printf.sprintf "bodiag/%d/%s/%s" t.Bodiag.t_id
                (Bodiag.variant_name v) (Abi.to_string abi),
              abi, Bodiag.source t v ))
          Bodiag.variants)
      bodiag_abis
  in
  let batches = Array.map batch tests in
  let run_batch ?tr ?agg progs =
    List.map
      (fun (label, abi, src) ->
        fresh ();
        let t0 = now () in
        let image =
          span tr Tr.Compile (fun () ->
              Compile.build_image ~abi ~name:"/bin/bo" src)
        in
        let pr =
          { p_label = label; p_abi = abi; p_image = image; p_path = "/bin/bo";
            p_argv = [ "bo" ] }
        in
        let insns, secs =
          run_prog ?tr ?agg ~mem_size:bodiag_mem ~t0 ~max_steps:bodiag_max_steps
            ~status_of:verdict pr
        in
        { s_label = label; ops = 1; s_insns = insns; secs;
          scale = !Hostref.scale })
      progs
  in
  let cursor = ref 0 in
  let timed () =
    let n = Array.length batches in
    (* A new order for every cycle, as for the kernels. *)
    if !cursor > 0 && !cursor mod n = 0 then shuffle rng batches;
    let b = batches.(!cursor mod n) in
    incr cursor;
    run_batch b
  in
  let all = List.concat (Array.to_list batches) in
  { timed;
    baseline = (fun () -> run_batch all);
    traced = (fun t a -> run_batch ~tr:t ~agg:a all);
    domains = 1;
    sched = (fun () -> None) }

let workloads =
  [ "kernels-mips64", kernels ~abi:Abi.Mips64;
    "kernels-cheriabi", kernels ~abi:Abi.Cheriabi;
    "tls-fleet", tls_fleet;
    "cold-corpus", cold_corpus ]

(* --- Metrics ------------------------------------------------------------------------ *)

(* The syscalls the workloads make; any other lands in "other". *)
let syscall_names = [ "read"; "write"; "fork"; "wait4"; "exit"; "socketpair" ]

let malloc_names =
  [ "mallocs"; "frees"; "remote_enq"; "remote_drained"; "drains";
    "owner_sweeps"; "reuse_sweeps"; "adoptions"; "tags_cleared";
    "unmap_leaks"; "pending_remote"; "heaps"; "evicted" ]

(* Per-layer metrics of one traced [pass] (and its untraced twin [base]),
   with units. Counts and word figures repeat exactly from run to run;
   times do not. *)
let layer_metrics ~setup_tr ~t ~a ~sched ~pass ~base =
  let find h n = float_of_int (Option.value ~default:0 (Hashtbl.find_opt h n)) in
  let compile_tr = if Tr.calls t Tr.Compile > 0 then t else setup_tr in
  let insns = float_of_int (List.fold_left (fun n s -> n + s.s_insns) 0 pass) in
  let wall = total_secs pass in
  let syscalls = Hashtbl.fold (fun _ v s -> s + v) a.sys 0 in
  let sched = Option.value sched ~default:{ util = 0.0; steals = 0; gap = 0.0 } in
  [ "cc.compile_s", Tr.self compile_tr Tr.Compile, "s";
    "cc.compile_words", Tr.words compile_tr Tr.Compile, "words";
    "rtld.link_s", Tr.self t Tr.Link, "s";
    "kernel.boot_s", Tr.self t Tr.Boot, "s";
    "kernel.boot_major_words", a.boot_major, "words";
    "kernel.spawn_s", Tr.self t Tr.Spawn, "s";
    "kernel.syscalls", float_of_int syscalls, "count" ]
  @ List.map (fun n -> "kernel.syscalls." ^ n, find a.sys n, "count")
      syscall_names
  @ [ "kernel.syscalls.other",
      float_of_int syscalls
      -. List.fold_left (fun s n -> s +. find a.sys n) 0.0 syscall_names,
      "count" ]
  @ [ "isa.run_s", Tr.incl t Tr.Run, "s";
      "isa.run_self_s", Tr.self t Tr.Run, "s";
      "isa.run_sim_mips", ratio insns (Tr.incl t Tr.Run) /. 1e6, "Minsn/s";
      "isa.minor_words_per_insn", ratio (Tr.words t Tr.Run) insns, "words/insn";
      "isa.insns", insns, "count";
      "isa.blocks_built", float_of_int a.built, "count";
      "isa.bb_flushes", float_of_int a.flushes, "count";
      "isa.chain_len", fratio (a.entries + a.chained) a.entries, "blocks";
      "isa.ic_hit_rate", fratio a.ic_hits a.ic_keyed, "frac";
      "isa.dtlb_hit_rate", fratio a.dtlb_hits a.dtlb_all, "frac";
      "isa.fused_insn_rate", ratio (float_of_int a.fused_insns) insns, "frac";
      "isa.elide_rate", fratio a.elided (a.checked + a.elided), "frac";
      "libc.rt_s", Tr.self t Tr.Rt, "s";
      "libc.rt_calls", float_of_int (Tr.calls t Tr.Rt), "count";
      "libc.rt_words_per_call",
      ratio (Tr.words t Tr.Rt) (float_of_int (Tr.calls t Tr.Rt)), "words/call" ]
  @ List.map (fun n -> "libc.malloc." ^ n, find a.alloc n, "count") malloc_names
  @ [ "analysis.provider_s", Tr.self t Tr.Provider, "s";
      "analysis.fact_misses", float_of_int Absint.stats.Absint.cs_misses, "count";
      "analysis.lazy_superblocks", float_of_int Absint.stats.Absint.cs_lazy_sb,
      "count";
      "fleet.snapshot_s", Tr.self t Tr.Snapshot, "s";
      "fleet.utilization", sched.util, "frac";
      "fleet.steals", float_of_int sched.steals, "count";
      "fleet.sched_gap_s", sched.gap, "s";
      "trace.wall_s", wall, "s";
      "trace.coverage", ratio (Tr.total_self t) wall, "frac";
      "trace_overhead_frac", ratio wall (total_secs base) -. 1.0, "frac" ]

(* Metrics that must repeat exactly between two traced runs of one seed. *)
let deterministic name unit =
  (match unit with
   | "count" | "words" | "words/insn" | "words/call" | "blocks" -> true
   | "frac" -> String.starts_with ~prefix:"isa." name
   | _ -> false)
  && name <> "fleet.steals"

let peak_rss_mb () =
  let from_proc =
    try
      In_channel.with_open_text "/proc/self/status" (fun ic ->
          let rec go () =
            match In_channel.input_line ic with
            | None -> None
            | Some l when String.starts_with ~prefix:"VmHWM:" l ->
              Scanf.sscanf l "VmHWM: %d kB" (fun kb -> Some (float_of_int kb /. 1024.0))
            | Some _ -> go ()
          in
          go ())
    with Sys_error _ -> None
  in
  match from_proc with
  | Some mb -> mb
  | None ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.0

(* --- Output ----------------------------------------------------------------------- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let json_obj fields =
  "{" ^ String.concat ", "
    (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

(* --- Recording --------------------------------------------------------------------- *)

(* Run every operation of every workload once and write the expectations
   file. Refuses to record a run in which a kernel or fleet machine did not
   exit 0 or a BOdiag program ended in an error verdict. *)
let record path =
  let acc = ref [] in
  recording := Some acc;
  List.iter
    (fun (_, make) ->
      ignore ((make ~size:Full ~rng:(Random.State.make [| 0 |]) None).baseline ()))
    workloads;
  let outs = List.sort (fun a b -> compare a.label b.label) !acc in
  let bad =
    List.filter
      (fun o ->
        if String.starts_with ~prefix:"bodiag/" o.label then
          String.starts_with ~prefix:"error" o.status
        else o.status <> "exit 0")
      outs
  in
  List.iter (fun o -> Printf.eprintf "bad: %s\n" (outcome_line o)) bad;
  if bad <> [] then exit 1;
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun o -> output_string oc (outcome_line o ^ "\n")) outs);
  Printf.eprintf "recorded %d operations to %s\n" (List.length outs) path

(* --- Main --------------------------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and size = ref Full and commit = ref "unknown" in
  let expected_path = ref "simbench/expected.tsv" and record_path = ref "" in
  Arg.parse
    [ "--workload", Arg.Set_string workload, " workload name";
      "--seed", Arg.Set_int seed, " input seed";
      "--seconds", Arg.Set_float seconds, " measuring time";
      "--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer";
      "--tiny", Arg.Unit (fun () -> size := Tiny), " smoke-test sizes";
      "--commit", Arg.Set_string commit, " source revision (provenance)";
      "--expected", Arg.Set_string expected_path, " expectations file";
      "--record", Arg.Set_string record_path, " re-record expectations" ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "simbench --workload W --seed N --seconds S --trace 0|1";
  if !record_path <> "" then (record !record_path; exit 0);
  let make =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None ->
      Printf.eprintf "simbench: unknown workload %S (one of %s)\n" !workload
        (String.concat ", " (List.map fst workloads));
      exit 2
  in
  let traced = !trace = 1 in
  (* Set-up, each time from a collected heap. An untraced run sets up at
     least nine times and for at least half a second (a set-up can take
     well under a millisecond, where single readings jitter); the median is
     setup_s and the last instance is the one measured. A traced run sets
     up once, traced, which gives cc.compile_* where compiling is set-up: a
     time-dependent number of set-ups would leave the heap in a different
     state and move its exact counters. Set-up times are scaled by Hostref
     like the operations' (the raw median goes to the provenance line). *)
  let setup_tr = Tr.create () in
  expected := load_expected !expected_path;
  let inst = ref None in
  let setup_once () =
    inst := None;
    fresh ();
    let t0 = now () in
    inst :=
      Some
        (make ~size:!size ~rng:(Random.State.make [| !seed |])
           (if traced then Some setup_tr else None));
    let dt = now () -. t0 in
    dt, dt *. !Hostref.scale
  in
  let setup_start = now () in
  let rec setups acc =
    let acc = setup_once () :: acc in
    if traced || (List.length acc >= 9 && now () -. setup_start >= 0.5) then acc
    else setups acc
  in
  let setup_times = setups [] in
  let setup_s = median (List.map snd setup_times) in
  let raw_setup_s = median (List.map fst setup_times) in
  let inst = Option.get !inst in
  (* The first pass runs measurably slower than the rest while the heap
     grows to its working size: it is checked but not timed. *)
  if not traced then ignore (inst.timed ());
  let t_start = now () in
  let remaining () = !seconds -. (now () -. t_start) in
  let metrics, passes, raw =
    if not traced then begin
      let samples = Hashtbl.create 64 and passes = ref 0 in
      while remaining () > 0.0 do
        List.iter
          (fun s ->
            Hashtbl.replace samples s.s_label
              (s :: Option.value ~default:[] (Hashtbl.find_opt samples s.s_label)))
          (inst.timed ());
        incr passes
      done;
      (* Each operation's median boot-to-exit time, summed: a host stall
         hits a few samples of a few operations and moves no median. *)
      let ops, insns, secs, raw_secs =
        Hashtbl.fold
          (fun _ ss (o, i, t, r) ->
            let s = List.hd ss in
            ( o + s.ops, i + s.s_insns,
              t +. median (List.map (fun s -> s.secs *. s.scale) ss),
              r +. median (List.map (fun s -> s.secs) ss) ))
          samples (0, 0, 0.0, 0.0)
      in
      let rates secs =
        [ "sim_mips", float_of_int insns /. secs /. 1e6, "Minsn/s";
          "progs_per_s", float_of_int ops /. secs, "progs/s" ]
      in
      ( rates secs
        @ [ "setup_s", setup_s, "s"; "peak_rss_mb", peak_rss_mb (), "MB" ],
        !passes,
        rates raw_secs @ [ "setup_s", raw_setup_s, "s" ] )
    end
    else begin
      ignore (inst.timed ());
      let sched = inst.sched () in
      let per_pass = ref [] in
      let last = ref 0.0 in
      while !per_pass = [] || remaining () > !last do
        let t0 = now () in
        let base = inst.baseline () in
        let t = Tr.create () and a = new_agg () in
        Absint.reset_stats ();
        let pass = inst.traced t a in
        per_pass := layer_metrics ~setup_tr ~t ~a ~sched ~pass ~base :: !per_pass;
        last := now () -. t0
      done;
      (* Exact counters come from the first traced pass, so two runs agree
         however many passes they fit; everything else is a median. *)
      let first = List.hd (List.rev !per_pass) in
      let med name =
        median
          (List.map
             (fun ms ->
               let _, v, _ = List.find (fun (n, _, _) -> n = name) ms in
               v)
             !per_pass)
      in
      ( List.map
          (fun (name, v, unit) ->
            name, (if deterministic name unit then v else med name), unit)
          first,
        List.length !per_pass,
        [] )
    end
  in
  let fail_frac = fratio !failed !attempted in
  let metrics =
    if traced then metrics @ [ "fail_frac", fail_frac, "frac" ] else metrics
  in
  print_endline
    (json_obj
       [ "provenance",
         json_obj
           [ "workload", json_string !workload;
             "seed", string_of_int !seed;
             "seconds", json_float !seconds;
             "trace", string_of_int !trace;
             "size", json_string (if !size = Tiny then "tiny" else "full");
             "commit", json_string !commit;
             "ocaml", json_string Sys.ocaml_version;
             "nproc", string_of_int (Domain.recommended_domain_count ());
             "domains", string_of_int inst.domains;
             "hostref_msteps", json_float (median !Hostref.rates);
             "passes", string_of_int passes;
             "raw",
             json_obj (List.map (fun (n, v, _) -> n, json_float v) raw) ];
         "deterministic",
         "["
         ^ String.concat ", "
             (List.filter_map
                (fun (n, _, u) -> if deterministic n u then Some (json_string n) else None)
                metrics)
         ^ "]" ]);
  print_endline
    (json_obj
       [ "correct", string_of_bool (!failed = 0);
         "attempted", string_of_int !attempted;
         "failed", string_of_int !failed;
         "metrics",
         json_obj
           (List.map
              (fun (n, v, u) ->
                n, json_obj [ "value", json_float v; "unit", json_string u ])
              metrics) ])
