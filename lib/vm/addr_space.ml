(* Process address spaces.

   An address space is a sorted list of regions over a pmap, plus the
   *abstract principal*: a principal id and a root user capability
   created at address-space creation (execve). All capabilities visible to
   the process must derive from this root — the central invariant of the
   paper's abstract-capability model (§3). The kernel mints the ids
   ([Kstate.alloc_principal]), so each machine numbers its own. *)

module Cap = Cheri_cap.Cap
module Phys = Cheri_tagmem.Phys

type region = {
  r_start : int;
  r_len : int;
  mutable r_prot : Prot.t;
  r_name : string;            (* "text:libc", "stack", "heap", "shm:3", ... *)
  r_shared : bool;
}

let region_end r = r.r_start + r.r_len

type t = {
  mutable regions : region list;    (* sorted by start, disjoint *)
  pmap : Pmap.t;
  principal : int;                  (* principal id, unique per kernel *)
  root_cap : Cap.t;                 (* userspace root for this principal *)
  user_base : int;
  user_top : int;
}

let user_base_default = 0x10000          (* NULL page is never mapped *)
let user_top_default = 1 lsl 40

(* [root], when given, is the kernel's boot-narrowed userspace capability;
   the new space's root derives from it (so the whole-system provenance
   chain is rooted at machine reset). Without it a fresh root is made
   (unit tests). *)
let create ?root ~principal ~phys ~swap () =
  let user_base = user_base_default and user_top = user_top_default in
  let root_cap =
    match root with
    | Some r -> Cap.and_perms r (Cap.perms r)  (* a fresh derivation step *)
    | None -> Cap.make_root ~base:user_base ~top:user_top ()
  in
  let pmap = Pmap.create ~phys ~swap ~root:root_cap in
  { regions = []; pmap; principal; root_cap;
    user_base; user_top }

let pmap t = t.pmap
let principal t = t.principal
let root_cap t = t.root_cap
let regions t = t.regions

let page_size = Phys.page_size
let page_align_down v = v land lnot (page_size - 1)
let page_align_up v = (v + page_size - 1) land lnot (page_size - 1)

let find_region t addr =
  List.find_opt (fun r -> addr >= r.r_start && addr < region_end r) t.regions

let region_by_name t name =
  List.find_opt (fun r -> r.r_name = name) t.regions

let overlaps t start len =
  List.exists
    (fun r -> start < region_end r && start + len > r.r_start)
    t.regions

let insert_sorted t r =
  let rec go = function
    | [] -> [ r ]
    | hd :: tl when r.r_start < hd.r_start -> r :: hd :: tl
    | hd :: tl -> hd :: go tl
  in
  t.regions <- go t.regions

exception Map_error of string

(* Map [len] bytes at a fixed [start]; fails on overlap unless [replace]. *)
let map_fixed t ~start ~len ~prot ~name ?(shared = false) ?(replace = false) () =
  let start = page_align_down start and len = page_align_up len in
  if len <= 0 then raise (Map_error "zero length");
  if start < t.user_base || start + len > t.user_top then
    raise (Map_error "outside user range");
  if overlaps t start len then begin
    if not replace then raise (Map_error "overlap")
    else begin
      (* Unmap the overlapped portion (whole-region granularity for
         simplicity; sub-region punching is not needed by our workloads). *)
      let keep, drop =
        List.partition
          (fun r -> start >= region_end r || start + len <= r.r_start)
          t.regions
      in
      List.iter
        (fun r -> Pmap.remove_range t.pmap ~vaddr:r.r_start ~len:r.r_len)
        drop;
      t.regions <- keep
    end
  end;
  let r = { r_start = start; r_len = len; r_prot = prot; r_name = name;
            r_shared = shared } in
  insert_sorted t r;
  Pmap.enter_range t.pmap ~vaddr:start ~len ~prot;
  r

(* Find a free gap of [len] bytes at or above [hint]. *)
let find_space t ~hint ~len =
  let len = page_align_up len in
  let hint = max t.user_base (page_align_down hint) in
  let rec go addr = function
    | [] ->
      if addr + len <= t.user_top then addr
      else raise (Map_error "address space exhausted")
    | r :: rest ->
      if addr + len <= r.r_start then addr
      else go (max addr (region_end r)) rest
  in
  go hint (List.filter (fun r -> region_end r > hint) t.regions)

let map_anywhere t ~hint ~len ~prot ~name ?(shared = false) () =
  let start = find_space t ~hint ~len in
  map_fixed t ~start ~len ~prot ~name ~shared ()

let unmap t ~start ~len =
  let start = page_align_down start and len = page_align_up len in
  let keep, drop =
    List.partition
      (fun r -> start > r.r_start || start + len < region_end r)
      t.regions
  in
  if drop = [] then raise (Map_error "no region fully covered");
  List.iter
    (fun r -> Pmap.remove_range t.pmap ~vaddr:r.r_start ~len:r.r_len)
    drop;
  t.regions <- keep

let protect t ~start ~len ~prot =
  let start = page_align_down start and len = page_align_up len in
  (match find_region t start with
   | Some r -> r.r_prot <- prot
   | None -> raise (Map_error "mprotect of unmapped range"));
  Pmap.protect_range t.pmap ~vaddr:start ~len ~prot

(* Destroy all mappings (exit / exec replacement). *)
let destroy t =
  Pmap.destroy t.pmap;
  t.regions <- []

(* Clone for fork: new principal, same layout, COW pages. *)
let fork t ~principal ~phys ~swap ~on_rederive =
  let child = create ~root:t.root_cap ~principal ~phys ~swap () in
  List.iter
    (fun r ->
      insert_sorted child
        { r_start = r.r_start; r_len = r.r_len; r_prot = r.r_prot;
          r_name = r.r_name; r_shared = r.r_shared })
    (List.rev t.regions);
  Pmap.fork_into t.pmap child.pmap ~on_rederive;
  child

let pp_region ppf r =
  Fmt.pf ppf "%-14s 0x%08x-0x%08x %a%s" r.r_name r.r_start (region_end r)
    Prot.pp r.r_prot (if r.r_shared then " shared" else "")

let pp ppf t =
  Fmt.pf ppf "address space (principal %d):@." t.principal;
  List.iter (fun r -> Fmt.pf ppf "  %a@." pp_region r) t.regions
