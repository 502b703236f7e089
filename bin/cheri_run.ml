(* cheri_run: compile a CSmall source file and run it on the simulated
   CheriABI system.

     dune exec bin/cheri_run.exe -- prog.c
     dune exec bin/cheri_run.exe -- --abi mips64 --stats prog.c
     dune exec bin/cheri_run.exe -- --trace --abi cheriabi prog.c
     dune exec bin/cheri_run.exe -- --dump-asm prog.c *)

open Cmdliner

module Abi = Cheri_core.Abi
module Kernel = Cheri_kernel.Kernel
module Proc = Cheri_kernel.Proc
module Signo = Cheri_kernel.Signo
module Cpu = Cheri_isa.Cpu
module Cache = Cheri_tagmem.Cache
module Trace = Cheri_isa.Trace
module G = Cheri_core.Granularity

let abi_conv =
  let parse = function
    | "mips64" -> Ok Abi.Mips64
    | "cheriabi" -> Ok Abi.Cheriabi
    | "asan" -> Ok Abi.Asan
    | s -> Error (`Msg (Printf.sprintf "unknown ABI %S" s))
  in
  Arg.conv (parse, fun ppf a -> Fmt.string ppf (Abi.to_string a))

let engine_conv =
  let parse = function
    | "step" -> Ok Cpu.Step
    | "chain" -> Ok Cpu.Chain
    | s -> Error (`Msg (Printf.sprintf "unknown engine %S" s))
  in
  Arg.conv
    ( parse,
      fun ppf e ->
        Fmt.string ppf
          (match e with
           | Cpu.Step -> "step"
           | Cpu.Chain -> "chain") )

(* An integer of at least [lo]: --fleet takes N >= 0 (0 is "no fleet"), and
   --domains D >= 1, since a fleet needs at least one worker domain. *)
let int_at_least lo =
  let parse s =
    match int_of_string_opt s with
    | Some d when d >= lo -> Ok d
    | _ ->
      Error (`Msg (Printf.sprintf "expected an integer >= %d, got %S" lo s))
  in
  Arg.conv (parse, Fmt.int)

(* Lines the libc prototypes add in front of the user's source: compile
   errors are re-biased so they name lines of [file] itself. *)
let externs_lines =
  String.fold_left
    (fun n c -> if c = '\n' then n + 1 else n)
    0 Cheri_workloads.Stdlib_src.libc_externs

(* Run [f], the compile-and-link (and possibly run) of [file]. A source
   that does not compile, or compiles but does not link (no [main], say),
   prints one line naming [file] and exits 2. Under CheriABI an unresolved
   symbol surfaces at exec, from the GOT; under the legacy ABIs the
   assembler rejects the label. *)
let or_reject ~file ~no_libc f =
  try f () with
  | Cheri_cc.Ast.Compile_error msg ->
    let bias = if no_libc then 0 else externs_lines in
    Printf.eprintf "%s: %s\n" file (Cheri_analysis.Lint.shift_line ~bias msg);
    2
  | Cheri_rtld.Rtld.Link_error msg ->
    Printf.eprintf "%s: link error: %s\n" file msg;
    2
  | Cheri_isa.Asm.Undefined_label l ->
    Printf.eprintf "%s: link error: undefined symbol %s\n" file l;
    2

(* --fleet N: run N instances of the compiled program as whole simulated
   machines sharded across OCaml domains (docs/FLEET.md) and print the
   aggregate report. Request-latency percentiles are measured over '#'
   markers the program prints per completed unit of work (as the TLS
   traffic workload does); programs that print none simply report no
   requests. *)
let run_fleet ~abi ~engine ~no_libc ~opts ~file ~args ~fleet_n ~domains
    src =
  let module Fleet = Cheri_fleet.Fleet in
  let image =
    if no_libc then Cheri_cc.Compile.build_image ~opts ~abi ~name:"prog" src
    else Cheri_workloads.Stdlib_src.build_image ~opts ~abi ~name:"prog" src
  in
  let base = Filename.basename file in
  let specs =
    List.init fleet_n (fun i ->
        { Fleet.ms_label = Printf.sprintf "%s/%d" base i;
          ms_abi = abi;
          ms_image = image;
          ms_path = "/bin/prog";
          ms_argv = base :: args;
          ms_max_steps = 400_000_000;
          ms_marker = '#' })
  in
  let r = Fleet.run ~engine ~domains specs in
  Printf.printf "%-24s %6s %12s %9s %8s  %s\n" "machine" "domain"
    "sim insns" "requests" "host s" "status";
  Array.iter
    (fun (m : Fleet.machine_result) ->
      Printf.printf "%-24s %6d %12d %9d %8.3f  %s\n" m.Fleet.mr_label
        m.Fleet.mr_domain m.Fleet.mr_insns m.Fleet.mr_requests
        m.Fleet.mr_host_seconds
        (Cheri_libc.Snapshot.status_str m.Fleet.mr_status))
    r.Fleet.f_results;
  Printf.printf
    "aggregate: %.2f sim-MIPS over %d machines, %d domains (%d workers)\n"
    r.Fleet.f_mips fleet_n r.Fleet.f_domains r.Fleet.f_workers;
  if r.Fleet.f_requests > 0 then
    Printf.printf
      "request latency (sim cycles over %d requests): p50=%d p95=%d p99=%d\n"
      r.Fleet.f_requests r.Fleet.f_p50 r.Fleet.f_p95 r.Fleet.f_p99;
  if
    Array.for_all
      (fun (m : Fleet.machine_result) ->
        m.Fleet.mr_status = Some (Proc.Exited 0))
      r.Fleet.f_results
  then 0
  else 1

(* --verify: compile and link exactly as execve would, then run the
   capability abstract interpreter over the linked image. A GOT symbol the
   image does not define is rejected here, as execve rejects it when it
   fills the GOT. *)
let verify_file ~abi ~opts ~no_libc ~file src =
  let module Rtld = Cheri_rtld.Rtld in
  let link =
    let image =
      if no_libc then
        Cheri_cc.Compile.build_image ~opts ~abi ~name:"prog" src
      else Cheri_workloads.Stdlib_src.build_image ~opts ~abi ~name:"prog" src
    in
    Rtld.link ~abi image
  in
  List.iter
    (fun (s, _) ->
      if not (Hashtbl.mem link.Rtld.lk_symtab s) then
        raise (Rtld.Link_error ("unresolved GOT symbol " ^ s)))
    link.Rtld.lk_got;
  let module Absint = Cheri_analysis.Absint in
  let r = Cheri_workloads.Harness.verify_image ~abi link in
  if r.Absint.r_diags = [] then begin
    Printf.printf
      "%s: no verifier diagnostics (%d of %d checks provable in %d \
       iters)\n"
      file r.Absint.r_flow_elided r.Absint.r_flow_sites r.Absint.r_iters;
    0
  end
  else begin
    List.iter
      (fun d -> Printf.printf "%s: %s\n" file (Absint.pp_diag d))
      r.Absint.r_diags;
    Printf.printf "%s: %d diagnostic%s (%d of %d checks provable in %d \
                   iters)\n"
      file
      (List.length r.Absint.r_diags)
      (if List.length r.Absint.r_diags = 1 then "" else "s")
      r.Absint.r_flow_elided r.Absint.r_flow_sites r.Absint.r_iters;
    1
  end

let run file abi engine args dump_asm stats trace no_libc clc_small lint
    verify astats fleet_n domains =
  let src =
    match Cheri_cc.Compile.read_source file with
    | Ok src -> src
    | Error msg -> prerr_endline msg; exit 2
  in
  let opts =
    { (Cheri_cc.Compile.default_options abi) with clc_large_imm = not clc_small }
  in
  if fleet_n > 0 then
    or_reject ~file ~no_libc (fun () ->
        run_fleet ~abi ~engine ~no_libc ~opts ~file ~args ~fleet_n ~domains
          src)
  else if verify then
    or_reject ~file ~no_libc (fun () ->
        verify_file ~abi ~opts ~no_libc ~file src)
  else if lint then begin
    let externs =
      if no_libc then "" else Cheri_workloads.Stdlib_src.libc_externs
    in
    match Cheri_analysis.Lint.analyze_source ~externs src with
    | Error msg ->
      Printf.eprintf "%s: %s\n" file msg;
      2
    | Ok [] ->
      Printf.printf "%s: no lint diagnostics\n" file;
      0
    | Ok diags ->
      List.iter
        (fun d ->
          Printf.printf "%s: %s\n" file (Cheri_analysis.Lint.pp_diag d))
        diags;
      Printf.printf "%s: %d diagnostic%s\n" file (List.length diags)
        (if List.length diags = 1 then "" else "s");
      1
  end
  else
  or_reject ~file ~no_libc @@ fun () ->
  if dump_asm then begin
    let obj =
      Cheri_cc.Compile.compile_source ~name:"prog" ~opts
        (if no_libc then src
         else Cheri_workloads.Stdlib_src.libc_externs ^ src)
    in
    let asmd = Cheri_isa.Asm.assemble ~extern:(fun _ -> Some 0) ~base:0
        obj.Cheri_rtld.Sobj.so_code in
    Fmt.pr "%a" Cheri_isa.Asm.pp asmd;
    0
  end
  else begin
    let k = Cheri_libc.Runtime.boot ~engine () in
    let collector = Trace.collector () in
    if trace then begin
      k.Cheri_kernel.Kstate.tracer <- Some (Trace.sink_of collector);
      k.Cheri_kernel.Kstate.trace_pid <- Some k.Cheri_kernel.Kstate.next_pid
    end;
    (if no_libc then Cheri_cc.Compile.install k ~path:"/bin/prog" ~abi src
     else
       Cheri_workloads.Stdlib_src.install k ~path:"/bin/prog" ~abi
         ~opts src);
    let argv = Filename.basename file :: args in
    let status, out, p = Kernel.run_program k ~path:"/bin/prog" ~argv in
    print_string out;
    if out <> "" && out.[String.length out - 1] <> '\n' then print_newline ();
    let code =
      match status with
      | Some (Proc.Exited c) -> c
      | Some (Proc.Signaled s) ->
        Printf.eprintf "killed by %s%s\n" (Signo.name s)
          (match List.rev p.Proc.fault_log with
           | m :: _ -> ": " ^ m
           | [] -> "");
        128 + s
      | None ->
        prerr_endline "did not terminate";
        124
    in
    if stats then begin
      Printf.eprintf
        "--- stats (%s) ---\ninstructions: %d\ncycles:       %d\n\
         syscalls:     %d\nL2 misses:    %d\n"
        (Abi.to_string abi) p.Proc.ctx.Cpu.instret p.Proc.ctx.Cpu.cycles
        p.Proc.syscall_count
        (Cache.l2_misses (Cheri_kernel.Kstate.hierarchy k));
      let mem = k.Cheri_kernel.Kstate.mem in
      let resident = Cheri_tagmem.Tagmem.resident_frames mem in
      Printf.eprintf "resident frames: %d of %d (%d KiB)\n" resident
        (Cheri_tagmem.Phys.total_frames k.Cheri_kernel.Kstate.phys)
        (resident * Cheri_tagmem.Phys.page_size / 1024)
    end;
    (* Static lines come from the analysis run on the spawned image
       itself, as --verify runs it; the probe line is the chain engine's
       dynamic count. *)
    (match astats, p.Proc.linked with
     | true, Some link ->
       let module Absint = Cheri_analysis.Absint in
       let r = Cheri_workloads.Harness.verify_image ~abi link in
       Printf.eprintf
         "--- analysis stats ---\n\
          functions summarized:  %d (%d fixpoint iterations)\n\
          checks provable:       %d of %d\n\
          dynamic probes:        %d checked\n"
         r.Absint.r_funcs r.Absint.r_iters r.Absint.r_flow_elided
         r.Absint.r_flow_sites
         k.Cheri_kernel.Kstate.bb.Cheri_isa.Bbcache.checked_probes
     | _ -> ());
    if trace then begin
      let events = Trace.to_list collector in
      let regions =
        G.regions_of_trace
          ~stack_range:
            (Cheri_kernel.Exec.stack_base, Cheri_kernel.Exec.stack_top)
          events
      in
      let es = G.entries regions events in
      let s = G.summarize es in
      Printf.eprintf
        "--- capability trace ---\nevents: %d, capabilities created: %d\n\
         <=1KiB: %.1f%%, largest: %d bytes\n"
        (List.length events) s.G.s_total s.G.s_pct_under_1k s.G.s_largest;
      List.iter
        (fun src ->
          let c = G.cdf_of ~source:src es in
          if c.G.c_total > 0 then
            Printf.eprintf "  %-12s %6d caps, max %d bytes\n"
              (G.source_name src) c.G.c_total c.G.c_max_size)
        G.all_sources
    end;
    code
  end

let cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let abi =
    Arg.(value & opt abi_conv Abi.Cheriabi
         & info [ "abi" ] ~doc:"Target ABI: mips64, cheriabi or asan.")
  in
  let engine =
    Arg.(value & opt engine_conv Cpu.Chain
         & info [ "engine" ]
             ~doc:"Execution engine: $(b,step) (reference per-instruction \
                   interpreter) or $(b,chain) (decoded block cache with \
                   superblock chaining and inline caches; the default). \
                   Both produce bit-identical statistics.")
  in
  let args =
    Arg.(value & opt_all string [] & info [ "arg" ] ~doc:"Program argument.")
  in
  let dump = Arg.(value & flag & info [ "dump-asm" ] ~doc:"Print assembly.") in
  let stats = Arg.(value & flag & info [ "stats" ] ~doc:"Print run statistics.") in
  let trace =
    Arg.(value & flag
         & info [ "trace" ] ~doc:"Trace capability creation (Fig. 5 style).")
  in
  let no_libc =
    Arg.(value & flag & info [ "no-libc" ] ~doc:"Do not link the CSmall libc.")
  in
  let clc_small =
    Arg.(value & flag
         & info [ "clc-small-imm" ]
             ~doc:"Use the pre-extension CLC with a small immediate.")
  in
  let lint =
    Arg.(value & flag
         & info [ "lint" ]
             ~doc:"Run the capability provenance lint instead of executing. \
                   Exits 0 if clean, 1 with diagnostics, 2 on compile errors.")
  in
  let verify =
    Arg.(value & flag
         & info [ "verify" ]
             ~doc:"Run the machine-level capability abstract interpreter over \
                   the linked image instead of executing: report statically \
                   provable capability violations and statically provable \
                   check counts. \
                   Exits 0 if clean, 1 with diagnostics, 2 on compile or \
                   link errors.")
  in
  let astats =
    Arg.(value & flag
         & info [ "analysis-stats" ]
             ~doc:"After the run, print the capability abstract \
                   interpreter's statistics for the program's image \
                   (functions summarized, fixpoint iterations, statically \
                   provable checks) and the chain engine's dynamic count \
                   of capability checks.")
  in
  let fleet =
    Arg.(value & opt (int_at_least 0) 0
         & info [ "fleet" ] ~docv:"N"
             ~doc:"Run $(docv) instances of the program as whole simulated \
                   machines sharded across OCaml domains, and print the \
                   aggregate fleet report instead of the program's output. \
                   Request latency percentiles are computed over '#' markers \
                   the program prints. Exits 0 iff every machine exits 0.")
  in
  let domains =
    Arg.(value & opt (int_at_least 1) 1
         & info [ "domains" ] ~docv:"D"
             ~doc:"Number of domains requested for $(b,--fleet) (capped at \
                   the host's core count; see docs/FLEET.md).")
  in
  Cmd.v
    (Cmd.info "cheri_run" ~doc:"Run a CSmall program on the CheriABI simulator")
    Term.(const run $ file $ abi $ engine $ args $ dump $ stats $ trace
          $ no_libc $ clc_small $ lint $ verify $ astats $ fleet
          $ domains)

let () = exit (Cmd.eval' cmd)
