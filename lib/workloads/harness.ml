(* Measurement harness: run one workload in a fresh system and collect the
   metrics Figure 4 reports — retired instructions, cycles, L2 misses —
   plus static code size (for the CLC ablation). *)

module Abi = Cheri_core.Abi
module Kernel = Cheri_kernel.Kernel
module Proc = Cheri_kernel.Proc
module Signo = Cheri_kernel.Signo
module Cpu = Cheri_isa.Cpu
module Cache = Cheri_tagmem.Cache

type measurement = {
  m_abi : Abi.t;
  m_status : Proc.exit_status option;
  m_output : string;
  m_instructions : int;
  m_cycles : int;
  m_l2_misses : int;
  m_code_bytes : int;
  m_syscalls : int;
  m_faults : string list;
}

let ok m = m.m_status = Some (Proc.Exited 0)

let status_string m =
  match m.m_status with
  | Some (Proc.Exited c) -> Printf.sprintf "exit %d" c
  | Some (Proc.Signaled s) -> Signo.name s
  | None -> "running"

(* The capability abstract interpreter over a linked image, under the
   initial DDC the kernel installs for [abi] (Exec.exec_image): NULL under
   CheriABI — the heart of the ABI — and the narrowed user root as legacy
   DDC otherwise ([Kstate.narrowed_user_root]). User PCC never carries
   System_regs ([Kstate.user_perms]), which is what makes a concrete DDC
   sound: CWriteDDC must trap. This is what [cheri_run --verify],
   [cheri_run --analysis-stats] and cheri_verify report. *)
let verify_image ~abi link =
  let module Kstate = Cheri_kernel.Kstate in
  let ddc =
    match abi with
    | Abi.Cheriabi -> Cheri_cap.Cap.null
    | Abi.Mips64 | Abi.Asan -> Kstate.narrowed_user_root
  in
  let entries, got = Cheri_analysis.Absint.linkage link in
  Cheri_analysis.Absint.verify ~ddc ~pcc_may:Kstate.user_perms ~entries ~got
    link.Cheri_rtld.Rtld.lk_code

(* Run [src] (linked against libc) under [abi] on a fresh machine with
   the kernel's default engine and timeslice, and measure. *)
let run ?opts ?(extra_libs = []) ?(argv = [ "prog" ])
    ?(max_steps = 400_000_000) ?l2_size ~abi src =
  let k = Cheri_libc.Runtime.boot ?l2_size () in
  let image =
    Stdlib_src.build_image ?opts ~abi ~name:"bench" ~extra_libs src
  in
  Cheri_kernel.Vfs.add_exe k.Cheri_kernel.Kstate.vfs "/bin/bench" ~abi image;
  let status, out, p = Kernel.run_program ~max_steps k ~path:"/bin/bench" ~argv in
  { m_abi = abi;
    m_status = status;
    m_output = out;
    m_instructions = p.Proc.ctx.Cpu.instret;
    m_cycles = p.Proc.ctx.Cpu.cycles;
    m_l2_misses = Cache.l2_misses (Kernel.Kstate.hierarchy k);
    m_code_bytes = Cheri_cc.Compile.image_code_size image;
    m_syscalls = p.Proc.syscall_count;
    m_faults = p.Proc.fault_log }

(* Percentage overhead of [value] relative to [base]. A zero baseline has
   no meaningful overhead: returning 0.0 here used to silently report "no
   overhead" (a real measurement-harness bug when a counter is dead);
   [nan] poisons every downstream aggregate instead of hiding it. The
   fig4-style comparison paths assert their baselines are live before
   calling this. *)
let overhead_pct ~base value =
  if base = 0 then Float.nan
  else 100.0 *. (float_of_int value -. float_of_int base) /. float_of_int base

type comparison = {
  c_name : string;
  c_base : measurement;            (* mips64 *)
  c_cheri : measurement;
  c_insn_pct : float;
  c_cycle_pct : float;
  c_l2_pct : float;
}

(* Vary every srand() seed in the source by [k]: the benchmark computes a
   different (still deterministic) instance, giving Fig. 4 its spread. *)
let perturb_seeds src k =
  if k = 0 then src
  else begin
    let b = Buffer.create (String.length src + 64) in
    let n = String.length src in
    let pat = "srand(" in
    let pl = String.length pat in
    let i = ref 0 in
    while !i < n do
      if !i + pl <= n && String.sub src !i pl = pat then begin
        Buffer.add_string b (Printf.sprintf "srand(%d + " k);
        i := !i + pl
      end
      else begin
        Buffer.add_char b src.[!i];
        incr i
      end
    done;
    Buffer.contents b
  end

let compare_abis ?(argv = [ "prog" ]) ?(extra_libs = []) ~name src =
  let base = run ~abi:Abi.Mips64 ~argv ~extra_libs src in
  let cheri = run ~abi:Abi.Cheriabi ~argv ~extra_libs src in
  if not (ok base) then
    failwith
      (Printf.sprintf "%s: mips64 run failed: %s (%s)" name
         (status_string base)
         (String.concat "; " base.m_faults));
  if not (ok cheri) then
    failwith
      (Printf.sprintf "%s: cheriabi run failed: %s (%s)" name
         (status_string cheri)
         (String.concat "; " cheri.m_faults));
  if base.m_output <> cheri.m_output then
    failwith (Printf.sprintf "%s: output mismatch between ABIs" name);
  (* The comparison columns divide by these: a dead counter would turn the
     whole fig4 row into nan, so fail loudly at the source instead. *)
  if base.m_instructions = 0 || base.m_cycles = 0 || base.m_l2_misses = 0 then
    failwith
      (Printf.sprintf
         "%s: dead mips64 baseline (insns=%d cycles=%d l2=%d): overhead \
          undefined" name base.m_instructions base.m_cycles base.m_l2_misses);
  { c_name = name;
    c_base = base;
    c_cheri = cheri;
    c_insn_pct = overhead_pct ~base:base.m_instructions cheri.m_instructions;
    c_cycle_pct = overhead_pct ~base:base.m_cycles cheri.m_cycles;
    c_l2_pct = overhead_pct ~base:base.m_l2_misses cheri.m_l2_misses }

(* The cache-study ablation (paper 6): the same benchmark across L2
   sizes, exposing how CheriABI's larger pointer footprint interacts with
   cache capacity. *)
let cache_study ~name ?(l2_sizes = [ 64; 128; 256; 512; 1024 ]) src =
  List.map
    (fun kib ->
      let l2 = kib * 1024 in
      let base = run ~l2_size:l2 ~abi:Abi.Mips64 src in
      let cheri = run ~l2_size:l2 ~abi:Abi.Cheriabi src in
      if not (ok base && ok cheri) then
        failwith (Printf.sprintf "%s failed at L2=%dK" name kib);
      ( kib,
        overhead_pct ~base:base.m_cycles cheri.m_cycles,
        base.m_l2_misses,
        cheri.m_l2_misses ))
    l2_sizes

(* Median and interquartile range of a float list. *)
let median_iqr xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  let at q =
    let i = int_of_float (q *. float_of_int (n - 1)) in
    a.(i)
  in
  at 0.5, at 0.25, at 0.75

type spread = {
  s_name : string;
  s_base_insns : int;
  s_insn_med : float;
  s_cycle_med : float;
  s_cycle_q1 : float;
  s_cycle_q3 : float;
  s_l2_med : float;
}

(* Run [runs] seed-perturbed instances and summarize, as the paper's
   Fig. 4 does with medians and IQR error bars. *)
let compare_abis_spread ?(runs = 3) ~name src =
  let cs =
    List.init runs (fun k -> compare_abis ~name (perturb_seeds src k))
  in
  let cycle = List.map (fun c -> c.c_cycle_pct) cs in
  let insn = List.map (fun c -> c.c_insn_pct) cs in
  let l2 = List.map (fun c -> c.c_l2_pct) cs in
  let cm, cq1, cq3 = median_iqr cycle in
  let im, _, _ = median_iqr insn in
  let lm, _, _ = median_iqr l2 in
  { s_name = name;
    s_base_insns = (List.hd cs).c_base.m_instructions;
    s_insn_med = im; s_cycle_med = cm; s_cycle_q1 = cq1; s_cycle_q3 = cq3;
    s_l2_med = lm }
