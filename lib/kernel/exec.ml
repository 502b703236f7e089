(* execve: process image construction (Fig. 1).

   The kernel maps each shared object's text and data, the capability
   table, the TLS region, the stack and the signal trampoline page; the
   run-time linker initializes data and the capability table; and the
   initial register file receives exactly the capabilities the new process
   is entitled to:

   - CheriABI: PCC bounded to the entry object's text, $csp bounded to the
     stack, $c3 a capability to the argument header, $cgp the capability
     table — and DDC is NULL, so no legacy load or store can ever succeed.
   - Legacy: DDC and PCC cover the whole user address space, as on a
     conventional MIPS. *)

module Cap = Cheri_cap.Cap
module Perms = Cheri_cap.Perms
module Cpu = Cheri_isa.Cpu
module Insn = Cheri_isa.Insn
module Reg = Cheri_isa.Reg
module Abi = Cheri_core.Abi
module Prot = Cheri_vm.Prot
module Addr_space = Cheri_vm.Addr_space
module Rtld = Cheri_rtld.Rtld
module Sobj = Cheri_rtld.Sobj

let stack_top = 0x7f10_0000
let stack_size = 0x10_0000
let stack_base = stack_top - stack_size
let sigcode_base = 0x7fe0_0000

let page = 4096
let align_up v a = (v + a - 1) land lnot (a - 1)
let align_down v a = v land lnot (a - 1)

(* The signal-return trampoline: a read-only shared page mapped by execve;
   under CheriABI the return capability handed to handlers is tightly
   bounded to this page (§4, "Signal handling"). *)
let sigcode_insns = function
  | Abi.Mips64 | Abi.Asan ->
    [| Insn.Move (Reg.a0, Reg.sp);
       Insn.Li (Reg.v0, Sysno.sys_sigreturn);
       Insn.Syscall;
       Insn.Break 99 |]
  | Abi.Cheriabi ->
    [| Insn.CMove (Reg.ca0, Reg.csp);
       Insn.Li (Reg.v0, Sysno.sys_sigreturn);
       Insn.Syscall;
       Insn.Break 99 |]

(* ASan shadow memory: shadow(addr) = shadow_base + (addr >> 3). Covers
   user addresses below 0x8000_0000 (all our mappings). *)
let shadow_base = 0x10_0000_0000
let shadow_of addr = shadow_base + (addr lsr 3)
let shadow_size = 0x8000_0000 lsr 3

let data_cap ~root ~addr ~len =
  Cap.and_perms (Cap.set_bounds (Cap.set_addr root addr) ~len) Perms.data

(* Build argument strings, argv/envv arrays, and (CheriABI) the argument
   header, at the top of the stack. Returns the register setup. *)
let build_args k (p : Proc.t) ~abi ~argv ~envv =
  let root = Addr_space.root_cap p.Proc.asp in
  let cursor = ref stack_top in
  let push_str s =
    let len = String.length s + 1 in
    cursor := !cursor - len;
    Kstate.kwrite_bytes k p !cursor (Bytes.of_string (s ^ "\000"));
    !cursor, String.length s
  in
  (* Strings for argv then envv. *)
  let argv_strs = List.map push_str argv in
  let envv_strs = List.map push_str envv in
  cursor := align_down !cursor 16;
  match abi with
  | Abi.Cheriabi ->
    let write_cap_array entries =
      let n = List.length entries in
      cursor := !cursor - ((n + 1) * Cap.sizeof);
      let base = !cursor in
      List.iteri
        (fun i (addr, slen) ->
          let c = data_cap ~root ~addr ~len:(slen + 1) in
          Kstate.trace_grant k p ~origin:"exec" c;
          Kstate.kwrite_cap k p (base + (i * Cap.sizeof)) c)
        entries;
      Kstate.kwrite_cap k p (base + (n * Cap.sizeof)) Cap.null;
      base, (n + 1) * Cap.sizeof
    in
    let env_base, env_len = write_cap_array envv_strs in
    let arg_base, arg_len = write_cap_array argv_strs in
    (* Argument header: argc, argv cap, envv cap (the "ELF aux args"). *)
    cursor := !cursor - 48;
    let hdr = !cursor in
    Kstate.kwrite_int k p hdr ~len:8 (List.length argv);
    let argv_cap = data_cap ~root ~addr:arg_base ~len:arg_len in
    let envv_cap = data_cap ~root ~addr:env_base ~len:env_len in
    Kstate.trace_grant k p ~origin:"exec" argv_cap;
    Kstate.trace_grant k p ~origin:"exec" envv_cap;
    Kstate.kwrite_cap k p (hdr + 16) argv_cap;
    Kstate.kwrite_cap k p (hdr + 32) envv_cap;
    p.Proc.ps_strings <- hdr;
    `Cheri hdr
  | Abi.Mips64 | Abi.Asan ->
    let write_addr_array entries =
      let n = List.length entries in
      cursor := !cursor - ((n + 1) * 8);
      let base = !cursor in
      List.iteri
        (fun i (addr, _) -> Kstate.kwrite_int k p (base + (i * 8)) ~len:8 addr)
        entries;
      Kstate.kwrite_int k p (base + (n * 8)) ~len:8 0;
      base
    in
    let env_base = write_addr_array envv_strs in
    let arg_base = write_addr_array argv_strs in
    p.Proc.ps_strings <- arg_base;
    `Legacy (List.length argv, arg_base, env_base, align_down (!cursor - 32) 16)

(* Replace [p]'s image with [image] built for [abi]. *)
let exec_image k (p : Proc.t) ~abi ~(image : Sobj.image) ~argv ~envv =
  (* Exec destroys the old address space: give the runtime library a
     chance to evict per-space allocator state keyed by its principal. *)
  (match k.Kstate.on_asp_destroy with
   | Some f -> f k (Addr_space.principal p.Proc.asp)
   | None -> ());
  Addr_space.destroy p.Proc.asp;
  let asp = Addr_space.create ~root:k.Kstate.user_root ~phys:k.Kstate.phys
      ~swap:k.Kstate.swap () in
  p.Proc.asp <- asp;
  p.Proc.abi <- abi;
  p.Proc.ctx <- Cpu.create_ctx ();
  p.Proc.comm <- image.Sobj.img_name;
  Proc.clear_code p;
  (* The old image's decoded blocks die with it. Reset [p]'s own table,
     never the engine's running one: a spawn execs outside [p]'s dispatch.
     Replacing an image that had a fact table starts a new analysis epoch,
     so the old program's chain and probe rates do not leak into the new
     one's. *)
  let bb_space = p.Proc.bb_space in
  if Option.is_some bb_space.Cheri_isa.Bbcache.facts then
    Cheri_isa.Bbcache.reset_dyn_counters k.Kstate.bb;
  Cheri_isa.Bbcache.reset_space bb_space;
  let link = Rtld.link ~abi image in
  p.Proc.linked <- Some link;
  (* Map text and data for every object. *)
  List.iter
    (fun (pl : Rtld.placed) ->
      let tlen = align_up (max pl.Rtld.pl_text_size 4) page in
      ignore
        (Addr_space.map_fixed asp ~start:pl.Rtld.pl_text_base ~len:tlen
           ~prot:Prot.rx ~name:("text:" ^ pl.Rtld.pl_obj.Sobj.so_name) ());
      if pl.Rtld.pl_data_size > 0 then
        ignore
          (Addr_space.map_fixed asp ~start:pl.Rtld.pl_data_base
             ~len:(align_up pl.Rtld.pl_data_size page) ~prot:Prot.rw
             ~name:("data:" ^ pl.Rtld.pl_obj.Sobj.so_name) ()))
    link.Rtld.lk_placed;
  (* Capability table (CheriABI only). *)
  (match abi with
   | Abi.Cheriabi ->
     ignore
       (Addr_space.map_fixed asp ~start:link.Rtld.lk_got_base
          ~len:link.Rtld.lk_got_size ~prot:Prot.rw ~name:"got" ())
   | Abi.Mips64 | Abi.Asan -> ());
  (* TLS block. *)
  ignore
    (Addr_space.map_fixed asp ~start:link.Rtld.lk_tls_base
       ~len:link.Rtld.lk_tls_size ~prot:Prot.rw ~name:"tls" ());
  (* Stack. *)
  ignore
    (Addr_space.map_fixed asp ~start:stack_base ~len:stack_size ~prot:Prot.rw
       ~name:"stack" ());
  (* Signal trampoline. *)
  ignore
    (Addr_space.map_fixed asp ~start:sigcode_base ~len:page ~prot:Prot.rx
       ~name:"sigcode" ());
  Proc.install_code p ~base:sigcode_base (sigcode_insns abi);
  (* ASan shadow region. *)
  (match abi with
   | Abi.Asan ->
     ignore
       (Addr_space.map_fixed asp ~start:shadow_base ~len:shadow_size
          ~prot:Prot.rw ~name:"shadow" ())
   | Abi.Mips64 | Abi.Cheriabi -> ());
  (* Install decoded code. *)
  List.iter (fun (base, insns) -> Proc.install_code p ~base insns)
    link.Rtld.lk_code;
  (* Run-time linker: data templates, relocations, capability table. *)
  let root = Addr_space.root_cap asp in
  let tracer =
    match k.Kstate.tracer, k.Kstate.trace_pid with
    | Some sink, Some pid when pid = p.Proc.pid -> Some sink
    | _ -> None
  in
  let writers =
    { Rtld.w_bytes = (fun a b -> Kstate.kwrite_bytes k p a b);
      w_int = (fun a ~len v -> Kstate.kwrite_int k p a ~len v);
      w_cap = (fun a c -> Kstate.kwrite_cap k p a c) }
  in
  Rtld.initialize link ~root ~writers ?tracer ();
  (* ASan: poison the compiler-declared global redzones. *)
  (match abi with
   | Abi.Asan ->
     List.iter
       (fun (pl : Rtld.placed) ->
         List.iter
           (fun (off, len) ->
             let addr = pl.Rtld.pl_data_base + off in
             let s0 = shadow_of addr and s1 = shadow_of (addr + len - 1) in
             for s = s0 to s1 do
               Kstate.kwrite_int k p s ~len:1 1
             done)
           pl.Rtld.pl_obj.Sobj.so_shadow_poison)
       link.Rtld.lk_placed
   | Abi.Mips64 | Abi.Cheriabi -> ());
  (* Arguments and initial registers. *)
  let ctx = p.Proc.ctx in
  (match build_args k p ~abi ~argv ~envv with
   | `Cheri hdr ->
     let stack_cap =
       Cap.and_perms
         (Cap.set_bounds (Cap.set_addr root stack_base) ~len:stack_size)
         Perms.data
     in
     let entry_pl =
       List.find
         (fun (pl : Rtld.placed) ->
           link.Rtld.lk_entry >= pl.Rtld.pl_text_base
           && link.Rtld.lk_entry < pl.Rtld.pl_text_base + pl.Rtld.pl_text_size)
         link.Rtld.lk_placed
     in
     let pcc = Cap.set_addr (Rtld.object_text_cap ~root entry_pl)
         link.Rtld.lk_entry in
     let args_cap = data_cap ~root ~addr:hdr ~len:48 in
     let cgp = Rtld.cgp_cap link ~root in
     List.iter (Kstate.trace_grant k p ~origin:"exec")
       [ stack_cap; pcc; args_cap; cgp ];
     ctx.Cpu.pcc <- pcc;
     ctx.Cpu.ddc <- Cap.null;   (* the heart of CheriABI *)
     ctx.Cpu.creg.(Reg.csp) <- Cap.set_addr stack_cap (align_down hdr 16);
     ctx.Cpu.creg.(Reg.ca0) <- args_cap;
     ctx.Cpu.creg.(Reg.cgp) <- cgp
   | `Legacy (argc, argv_base, envv_base, sp) ->
     ctx.Cpu.pcc <- Cap.set_addr root link.Rtld.lk_entry;
     ctx.Cpu.ddc <- root;
     ctx.Cpu.gpr.(Reg.sp) <- sp;
     ctx.Cpu.gpr.(Reg.a0) <- argc;
     ctx.Cpu.gpr.(Reg.a1) <- argv_base;
     ctx.Cpu.gpr.(Reg.a2) <- envv_base;
     (match abi with
      | Abi.Asan -> ctx.Cpu.gpr.(Reg.s5) <- shadow_base
      | Abi.Mips64 | Abi.Cheriabi -> ()));
  (* Static check-elision facts over the fresh image, computed under the
     process's actual initial DDC (the provider may answer from its
     image-keyed cache). Stamped with the pmap generation and the code
     ranges they were proved against, so Loop can invalidate them exactly
     when a later address-space mutation actually touches analyzed code. *)
  (match k.Kstate.config.Kstate.fact_provider with
   | Some f ->
     let code = List.map (fun (base, _, insns) -> (base, insns)) p.Proc.code in
     (* Linkage view for the provider's interprocedural layer: function
        entry points (exec entry + every exported function) and the GOT
        map (byte offset -> resolved function address). Sorted so the
        provider's caches can key on them structurally. *)
     let entries =
       link.Rtld.lk_entry
       :: Hashtbl.fold
            (fun _ d acc ->
              match d with Rtld.Dfunc (_, a) -> a :: acc | _ -> acc)
            link.Rtld.lk_symtab []
       |> List.sort_uniq compare
     in
     let got =
       List.filter_map
         (fun (name, off) ->
           match Hashtbl.find_opt link.Rtld.lk_symtab name with
           | Some (Rtld.Dfunc (_, a)) -> Some (off, a)
           | _ -> None)
         link.Rtld.lk_got
       |> List.sort compare
     in
     p.Proc.facts <- Some (f ~image ~ddc:ctx.Cpu.ddc ~entries ~got code);
     p.Proc.facts_gen <-
       Cheri_vm.Pmap.generation (Addr_space.pmap p.Proc.asp);
     p.Proc.fact_regions <-
       List.map (fun (base, top, _) -> (base, top)) p.Proc.code
   | None ->
     p.Proc.facts <- None;
     p.Proc.fact_regions <- []);
  Kstate.charge k p 4000  (* image setup cost *)

(* Create a process running the executable at [path]. *)
let spawn k ~path ~argv ?(envv = []) () =
  match Vfs.lookup k.Kstate.vfs path with
  | Some (Vfs.Exe (abi, image)) ->
    let pid = Kstate.alloc_pid k in
    let asp = Addr_space.create ~root:k.Kstate.user_root ~phys:k.Kstate.phys
        ~swap:k.Kstate.swap () in
    let p = Proc.create ~pid ~parent:0 ~abi ~asp in
    (* Standard descriptors: 0 = empty input, 1/2 = per-process console. *)
    let console_dev =
      { Vfs.d_name = "console";
        d_read = (fun _ -> Some (Bytes.create 0));
        d_write = (fun b -> Kstate.console_write k p b; Bytes.length b);
        d_ioctl = (fun cmd arg ->
            if cmd = Sysno.tiocgwinsz then begin
              let out = Bytes.create 8 in
              Bytes.set out 0 (Char.chr 80);
              Bytes.set out 1 (Char.chr 24);
              Ok out
            end else (ignore arg; Error Errno.ENOTTY)) }
    in
    p.Proc.fds.(0) <- Some (Vfs.open_entry (Vfs.ODev console_dev) ~flags:0);
    p.Proc.fds.(1) <- Some (Vfs.open_entry (Vfs.ODev console_dev) ~flags:1);
    p.Proc.fds.(2) <- Some (Vfs.open_entry (Vfs.ODev console_dev) ~flags:1);
    Kstate.add_proc k p;
    exec_image k p ~abi ~image ~argv ~envv;
    p
  | Some _ -> Errno.raise_errno Errno.EACCES
  | None -> Errno.raise_errno Errno.ENOENT
