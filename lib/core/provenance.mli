(** Provenance-chain reconstruction (§5.5): link every capability created
    during a traced run to its most plausible parent — the tightest
    earlier capability containing it — producing a derivation forest
    rooted at the kernel's grants. *)

type node = {
  n_cap : Cheri_cap.Cap.t;
  n_origin : Cheri_isa.Trace.origin option;  (** [None]: a user derivation *)
  n_parent : int option;      (** index into {!forest.nodes} *)
  n_depth : int;              (** roots have depth 1 *)
}

type forest = {
  nodes : node array;
  max_depth : int;
  mean_depth : float;
  roots : int;                (** kernel grants *)
  orphans : int;              (** derivations with no containing parent *)
}

(** Does [parent] contain [child] (bounds and permissions)? *)
val contains : Cheri_cap.Cap.t -> Cheri_cap.Cap.t -> bool

val build : Cheri_isa.Trace.event list -> forest

(** [(depth, count)] pairs, in depth order. *)
val depth_histogram : forest -> (int * int) list
