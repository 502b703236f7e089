(** Swap device with capability preservation (§3, "Swapping").

    External storage does not preserve tags: on swap-out the subsystem
    scans the evicted page and records each tagged granule's architectural
    fields in swap metadata; on swap-in it {e rederives} fresh
    capabilities from the owning process's root — preserving the abstract
    capability across the break in the architectural chain. Rederivation
    refuses anything outside the root: swap cannot be used to smuggle or
    amplify authority. *)

type saved_cap = {
  s_perms : Cheri_cap.Perms.t;
  s_base : int;
  s_top : int;
  s_addr : int;
  s_otype : int;
}

type slot

type t

val create : unit -> t

(** (swapped out, swapped in, capabilities rederived, capabilities lost). *)
val stats : t -> int * int * int * int

val save_cap : Cheri_cap.Cap.t -> saved_cap

(** Rederive a saved capability from [root] using only monotonic
    operations; returns an untagged value if the saved fields do not
    derive from the root. *)
val rederive : root:Cheri_cap.Cap.t -> saved_cap -> Cheri_cap.Cap.t

(** Evict the page at physical address [pa]; returns the slot id. *)
val swap_out : t -> Cheri_tagmem.Tagmem.t -> pa:int -> int

(** Restore slot [id] into the frame at [pa], rederiving capabilities
    from [root]; [on_rederive] is the kernel's check-and-trace step
    ([Kstate.admit]) for each tagged one. *)
val swap_in :
  t ->
  Cheri_tagmem.Tagmem.t ->
  id:int ->
  pa:int ->
  root:Cheri_cap.Cap.t ->
  on_rederive:(Cheri_cap.Cap.t -> unit) ->
  unit

val discard : t -> int -> unit
