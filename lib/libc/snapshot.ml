(* The one renderer of a machine's observable state. Every differential
   check compares these strings: 1-domain against N-domain fleet runs
   (docs/FLEET.md), the chain engine against the step interpreter on
   random programs and on booted kernels (docs/INTERP.md), and simbench
   against its recorded digests. They are printable so that a divergence
   shows up as a readable diff.

   It lives in the C runtime library, not the kernel, because [machine]
   reads the allocator's counters ([Malloc_impl.machine_counters]) and the
   kernel cannot depend on libc. The parts take a bare register file,
   cache hierarchy or memory, so the engine fuzzer can render a machine
   that has no kernel at all. *)

module Cap = Cheri_cap.Cap
module Cpu = Cheri_isa.Cpu
module Cache = Cheri_tagmem.Cache
module Tagmem = Cheri_tagmem.Tagmem
module Kstate = Cheri_kernel.Kstate
module Proc = Cheri_kernel.Proc

let status_str = function
  | None -> "running"
  | Some (Proc.Exited n) -> Printf.sprintf "exited %d" n
  | Some (Proc.Signaled n) -> Printf.sprintf "signaled %d" n

(* Retired instructions and cycles, PCC and DDC, then the non-zero GPRs on
   one line and every non-NULL capability register on its own. *)
let regs (ctx : Cpu.ctx) =
  let b = Buffer.create 1024 in
  Printf.bprintf b "instret=%d cycles=%d\n" ctx.Cpu.instret ctx.Cpu.cycles;
  Printf.bprintf b "pcc=%s\nddc=%s\n" (Cap.to_string ctx.Cpu.pcc)
    (Cap.to_string ctx.Cpu.ddc);
  for r = 1 to 31 do
    if ctx.Cpu.gpr.(r) <> 0 then Printf.bprintf b "r%d=%x " r ctx.Cpu.gpr.(r)
  done;
  Buffer.add_char b '\n';
  for r = 1 to 31 do
    let c = Cpu.rd_creg ctx r in
    if not (Cap.equal c Cap.null) then
      Printf.bprintf b "c%d=%s\n" r (Cap.to_string c)
  done;
  Buffer.contents b

(* Each cache level's whole state, not just its totals: the chain engine
   batches instruction-fetch hits, and a batch that left one LRU stamp or
   the clock off shows here. *)
let caches (h : Cache.hierarchy) =
  let b = Buffer.create 512 in
  let digest a = Digest.to_hex (Digest.string (Marshal.to_string a [])) in
  List.iter
    (fun (c : Cache.t) ->
      Printf.bprintf b "%s=%d/%d clock=%d tags=%s lru=%s\n" (Cache.name c)
        (Cache.hits c) (Cache.misses c) c.Cache.clock (digest c.Cache.tags)
        (digest c.Cache.lru))
    [ h.Cache.il1; h.Cache.dl1; h.Cache.l2 ];
  Buffer.contents b

(* Digests of the whole physical memory and of its tag map. The tag map
   hashes as the comma-separated tagged offsets. *)
let memory mem =
  let tags = Buffer.create 4096 in
  Tagmem.iter_tags mem 0 (Tagmem.size mem) (fun off ->
      if Buffer.length tags > 0 then Buffer.add_char tags ',';
      Buffer.add_string tags (string_of_int off));
  Printf.sprintf "data=%s\ntags=%s\n"
    (Digest.to_hex (Tagmem.digest mem))
    (Digest.to_hex (Digest.string (Buffer.contents tags)))

(* A finished machine as seen from process [p], which ended in [status]:
   its registers, the hierarchy's hit/miss totals, its syscall count, the
   machine-lifetime allocator counters (shard traffic must not depend on
   the domain count either), fault log, console and memory. *)
let machine k (p : Proc.t) status =
  let b = Buffer.create 1024 in
  Printf.bprintf b "status=%s\n" (status_str status);
  Buffer.add_string b (regs p.Proc.ctx);
  let h = Kstate.hierarchy k in
  let counts (c : Cache.t) =
    Printf.sprintf "%d/%d" (Cache.hits c) (Cache.misses c)
  in
  Printf.bprintf b "il1=%s dl1=%s l2=%s\n" (counts h.Cache.il1)
    (counts h.Cache.dl1) (counts h.Cache.l2);
  Printf.bprintf b "syscalls=%d\n" p.Proc.syscall_count;
  Printf.bprintf b "alloc=%s\n"
    (String.concat " "
       (List.map
          (fun (name, v) -> Printf.sprintf "%s:%d" name v)
          (Malloc_impl.machine_counters k)));
  Printf.bprintf b "faults=%s\n" (String.concat "|" p.Proc.fault_log);
  Printf.bprintf b "console=%s\n"
    (String.escaped (Buffer.contents p.Proc.console));
  Buffer.add_string b (memory k.Kstate.mem);
  Buffer.contents b
