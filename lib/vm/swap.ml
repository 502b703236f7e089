(* Swap device with capability preservation.

   External storage does not preserve tags. As in the paper (§3,
   "Swapping"): on swap-out the subsystem scans the evicted page,
   recording, for each tagged granule, the capability's architectural
   fields in swap metadata; the raw bytes are stored tag-free. On swap-in,
   a new architectural capability is rederived from the saved values and an
   appropriate root capability — preserving the *abstract* capability
   despite the break in the architectural derivation chain. *)

module Cap = Cheri_cap.Cap
module Perms = Cheri_cap.Perms
module Tagmem = Cheri_tagmem.Tagmem
module Phys = Cheri_tagmem.Phys

type saved_cap = {
  s_perms : Perms.t;
  s_base : int;
  s_top : int;
  s_addr : int;
  s_otype : int;
}

type slot = {
  data : Bytes.t;                    (* page contents, tag-free *)
  caps : (int * saved_cap) list;     (* granule offset within page -> saved *)
}

type t = {
  slots : (int, slot) Hashtbl.t;
  mutable next_id : int;
  mutable swapped_out : int;         (* statistics *)
  mutable swapped_in : int;
  mutable caps_rederived : int;
  mutable caps_lost : int;           (* saved caps that no longer rederive *)
}

let create () =
  { slots = Hashtbl.create 64; next_id = 0;
    swapped_out = 0; swapped_in = 0; caps_rederived = 0; caps_lost = 0 }

let stats t = (t.swapped_out, t.swapped_in, t.caps_rederived, t.caps_lost)

let save_cap c =
  { s_perms = Cap.perms c; s_base = Cap.base c; s_top = Cap.top c;
    s_addr = Cap.addr c; s_otype = Cap.otype c }

(* Rederive a saved capability from [root] using only monotonic operations.
   Returns an untagged capability if the saved value does not derive from
   the root (which would indicate a kernel invariant violation). *)
let rederive ~root saved =
  if saved.s_otype <> Cap.otype_unsealed then
    (* Sealed userspace capabilities in swap would require the sealing root;
       our userspace never swaps sealed caps. Conservatively drop the tag. *)
    Cap.untagged ~addr:saved.s_addr
  else if saved.s_base < Cap.base root || saved.s_top > Cap.top root
          || not (Perms.subset saved.s_perms (Cap.perms root))
  then Cap.untagged ~addr:saved.s_addr
  else
    try
      let c = Cap.set_addr root saved.s_base in
      let c = Cap.set_bounds c ~len:(saved.s_top - saved.s_base) in
      if Cap.base c <> saved.s_base || Cap.top c <> saved.s_top then
        (* The saved bounds must themselves have been representable. *)
        Cap.untagged ~addr:saved.s_addr
      else
        let c = Cap.and_perms c saved.s_perms in
        Cap.set_addr c saved.s_addr
    with Cap.Cap_error _ -> Cap.untagged ~addr:saved.s_addr

(* Evict the page at physical address [pa]: returns the slot id. *)
let swap_out t mem ~pa =
  let caps =
    List.map
      (fun off -> off, save_cap (Tagmem.read_cap mem (pa + off)))
      (Tagmem.scan_tags mem pa Phys.page_size)
  in
  let data = Tagmem.read_bytes mem pa Phys.page_size in
  let id = t.next_id in
  t.next_id <- id + 1;
  Hashtbl.replace t.slots id { data; caps };
  t.swapped_out <- t.swapped_out + 1;
  id

(* Restore slot [id] into the frame at [pa], rederiving capabilities from
   [root]; [on_rederive] is the kernel's check-and-trace step for each. *)
let swap_in t mem ~id ~pa ~root ~on_rederive =
  let slot =
    match Hashtbl.find_opt t.slots id with
    | Some s -> s
    | None -> invalid_arg "Swap.swap_in: bad slot"
  in
  Hashtbl.remove t.slots id;
  Tagmem.blit_bytes mem ~dst:pa slot.data;
  List.iter
    (fun (off, saved) ->
      let c = rederive ~root saved in
      Tagmem.write_cap mem (pa + off) c;
      if Cap.is_tagged c then begin
        t.caps_rederived <- t.caps_rederived + 1;
        on_rederive c
      end else t.caps_lost <- t.caps_lost + 1)
    slot.caps;
  t.swapped_in <- t.swapped_in + 1

let discard t id = Hashtbl.remove t.slots id
