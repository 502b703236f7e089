(* Per-superblock check-elision fact table.

   A fact [(entry, index)] records that the capability check guarding the
   memory access at instruction [index] of the straight-line run starting at
   [entry] is statically discharged: *if* execution proceeds straight-line
   from [entry] through [index], the tag/seal/permission/bounds probe of
   that access cannot fail. The claim is conditional only on the prefix, so
   it holds no matter how control reached [entry] — which is exactly the
   keying the block engine uses for its decoded superblocks.

   Facts are represented as a bitmask per entry PC. OCaml ints give us 63
   usable bits; index 62 is the last elidable slot (a 64-instruction block's
   index 63 is its terminator, which never carries an elidable check).

   A table can be *lazy*: instead of being populated up front for every
   potential entry PC, it carries a [resolve] thunk that computes one
   entry's mask on first demand ([mask] is the single pull-through point —
   the block engine calls it exactly once per block build). The resolver
   returns *both* tiers at once: the unconditional mask and the guarded
   mask + predicates come out of one straight-line scan, so the guarded
   pre-scan no longer re-runs the superblock fixpoint a second time on the
   block-build path ([guarded] right after [mask] is a pure hash hit).
   Resolved entries are memoized, zero or not, so a superblock's fixpoint
   runs at most once for the lifetime of the table no matter how often its
   block is rebuilt (a forked child's fresh block table, pmap-generation
   flushes). Lazy resolution only ever *adds* memoized entries; it never
   changes a mask already handed out, so compiled blocks that baked a
   mask in stay consistent with the table.

   Domain safety: tables are shared by reference across OCaml domains (the
   fleet layer runs one simulated machine per domain against the same
   image-keyed cached table — the phys-eq [Bbcache.set_facts] contract
   already allows sharing within one domain). All reads and memoizing
   writes go through [t.lock]: resolution is serialized per table, so a
   fixpoint still runs at most once per entry *globally*, and concurrent
   lookups never observe a resizing hashtable. Masks are deterministic
   functions of the entry pc, so which domain resolves first is
   unobservable. The lock is uncontended outside block builds, which are
   rare relative to execution. *)

(* Guarded facts (tier 2). A guard predicate is a sufficient condition on
   the *entry-time* register state under which additional checks in the
   superblock are discharged. The block engine evaluates the predicate
   conjunction on every entry; when it holds, the guarded bits join the
   unconditional mask, and when it fails the block is not run in its
   elided form (execution falls back to the exact single-step path).

   Two forms, selected by [gp_ddc]:
   - capability form ([gp_ddc = false]): let c = creg[gp_reg]; the guard
     holds iff c is tagged, unsealed, carries at least [gp_perms], and
     addr(c)+gp_lo >= base(c) && addr(c)+gp_hi <= top(c);
   - DDC form ([gp_ddc = true], legacy accesses): let a = gpr[gp_reg];
     the guard holds iff DDC is tagged, unsealed, carries [gp_perms], and
     a+gp_lo >= base(ddc) && a+gp_hi <= top(ddc).

   [gp_hi] is an inclusive cursor bound: access windows demand their
   end-exclusive limit (end <= top) and intermediate cursor positions
   demand addr <= top, both of which [a + gp_hi <= top] expresses. *)
type gpred = {
  gp_reg : int;    (* capability register, or gpr when [gp_ddc] *)
  gp_ddc : bool;
  gp_perms : int;  (* Perms.t is int; facts stays dependency-free *)
  gp_lo : int;     (* window low offset from the entry cursor *)
  gp_hi : int;     (* window high offset, inclusive (see above) *)
}

(* Mask of additionally-elidable checks plus the predicates that license
   them. The mask is valid only when *all* predicates hold. *)
type guard = int * gpred array

let no_guard : guard = (0, [||])

(* --- Tier 3: trap-freedom certificates and access runs --------------------

   An *access run* records a maximal sequence of consecutive data accesses
   in one superblock body proven (syntactically, by the analyzer) to touch
   one 64-byte line whenever the head access does: every member's virtual
   address is the head's plus a compile-time byte delta, the whole window
   [ar_lo, ar_hi) spans at most a line, members are homogeneous in kind
   (all reads or all writes) and no other memory access intervenes. The
   chain engine then performs one real translation + cache probe at the
   head and retires each tail as a guaranteed DL1 hit — guarded by a
   runtime check that the head's window actually fits its physical line.

   A *trap-freedom certificate* [ct_prefix] is the length of the maximal
   body prefix in which every instruction either cannot raise any trap at
   all (given the entry-time abstract state and the tier-2 guard, which
   the engine evaluates before running the body) or is a data access whose
   capability check is discharged by tiers 1-2 — those remain *repair
   points* for the residual dynamic faults (page faults, alignment,
   value-dependent CSC checks). The engine fuses instruction groups that
   lie wholly inside the prefix into single closures, maintaining its
   trap-attribution cursor only at the repair points. *)
type arun = {
  ar_head : int;                 (* body index of the head access *)
  ar_tail : (int * int) array;   (* (body index, byte delta from head) *)
  ar_lo : int;                   (* window low bound rel. head vaddr, <= 0 *)
  ar_hi : int;                   (* window high bound rel. head vaddr, excl. *)
}

type cert = { ct_prefix : int; ct_runs : arun array }

let no_cert = { ct_prefix = 0; ct_runs = [||] }

type t = {
  tbl : (int, int) Hashtbl.t;     (* superblock entry pc -> bitmask *)
  gtbl : (int, guard) Hashtbl.t;  (* entry pc -> guarded mask + predicates *)
  ctbl : (int, cert) Hashtbl.t;   (* entry pc -> tier-3 certificate *)
  (* Lazy: entry pc -> (tier-1 mask, guarded tier, tier-3 cert), on first
     use. One scan produces all three tiers; [mask] memoizes them all, so
     the following [guarded] and [cert] are hash hits. Must be
     deterministic and total (return (0, no_guard, no_cert) for unknown
     PCs). *)
  resolve : (int -> int * guard * cert) option;
  lock : Mutex.t;                 (* guards every table access (see above) *)
  mutable resolved : int;         (* entries materialized through [resolve] *)
  mutable gresolved : int;        (* guard pulls that had to run their own
                                     scan (guarded-before-mask order; 0 on
                                     the block-build path) *)
  mutable lookups : int;          (* total [mask] queries — one per block
                                     build, however control reached it *)
}

let max_index = 62

let create () = { tbl = Hashtbl.create 256; resolve = None; resolved = 0;
                  gtbl = Hashtbl.create 64; ctbl = Hashtbl.create 64;
                  gresolved = 0; lookups = 0;
                  lock = Mutex.create () }

(* A pull-through table: every entry is computed by [resolve] on first
   lookup — all three tiers from one scan (see above). *)
let create_lazy ~resolve () =
  { tbl = Hashtbl.create 256; resolve = Some resolve; resolved = 0;
    gtbl = Hashtbl.create 64; ctbl = Hashtbl.create 64;
    gresolved = 0; lookups = 0;
    lock = Mutex.create () }

let is_lazy t = t.resolve <> None

let with_lock t f =
  Mutex.lock t.lock;
  match f () with
  | v -> Mutex.unlock t.lock; v
  | exception e -> Mutex.unlock t.lock; raise e

let resolved_lazily t = with_lock t (fun () -> t.resolved)
let gresolved_lazily t = with_lock t (fun () -> t.gresolved)

(* How many times the block engine consulted this table. Every decode goes
   through [mask] — including blocks first reached as a *chained*
   successor, never seen by the dispatch loop — so tests use this to pin
   down that chaining cannot bypass the facts keying. *)
let lookups t = with_lock t (fun () -> t.lookups)

let add t ~entry ~index =
  if index >= 0 && index <= max_index then
    with_lock t (fun () ->
        let cur =
          match Hashtbl.find_opt t.tbl entry with Some m -> m | None -> 0
        in
        Hashtbl.replace t.tbl entry (cur lor (1 lsl index)))

(* Or a whole precomputed mask in (used by the eager whole-image scan;
   never stores an empty mask so [blocks] stays meaningful). *)
let add_mask t ~entry mask =
  let mask = mask land ((1 lsl (max_index + 1)) - 1) in
  if mask <> 0 then
    with_lock t (fun () ->
        let cur =
          match Hashtbl.find_opt t.tbl entry with Some m -> m | None -> 0
        in
        Hashtbl.replace t.tbl entry (cur lor mask))

(* Memoize a resolver result for [entry]: all three tiers land in their
   tables (zero or not — a re-decoded block must not re-run the fixpoint).
   Caller holds the lock. *)
let memoize_resolved t entry (m, g, c) =
  Hashtbl.replace t.tbl entry m;
  Hashtbl.replace t.gtbl entry g;
  Hashtbl.replace t.ctbl entry c;
  t.resolved <- t.resolved + 1;
  m, g, c

let fst3 (m, _, _) = m
let snd3 (_, g, _) = g
let trd3 (_, _, c) = c

let mask t entry =
  with_lock t (fun () ->
      t.lookups <- t.lookups + 1;
      match Hashtbl.find_opt t.tbl entry with
      | Some m -> m
      | None ->
        (match t.resolve with
         | None -> 0
         | Some f -> fst3 (memoize_resolved t entry (f entry))))

let elidable t ~entry ~index =
  index >= 0 && index <= max_index && (mask t entry lsr index) land 1 = 1

(* Entries carrying at least one fact. Lazy tables memoize zero masks too,
   so count only the non-empty ones. *)
let blocks t =
  with_lock t (fun () ->
      Hashtbl.fold (fun _ m acc -> if m <> 0 then acc + 1 else acc) t.tbl 0)

let popcount m =
  let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
  go m 0

let checks t =
  with_lock t (fun () ->
      Hashtbl.fold (fun _ m acc -> acc + popcount m) t.tbl 0)

(* --- Guarded tier -------------------------------------------------------- *)

(* Record guarded facts for an entry. Empty masks are dropped (a guard
   that licenses nothing is pure entry-time overhead). *)
let add_guarded t ~entry mask preds =
  let mask = mask land ((1 lsl (max_index + 1)) - 1) in
  if mask <> 0 && Array.length preds > 0 then
    with_lock t (fun () -> Hashtbl.replace t.gtbl entry (mask, preds))

(* Guarded mask + predicates for [entry]. On the block-build path this
   always follows [mask] for the same entry, so the combined resolver has
   already memoized it and this is a hash hit; a guarded-before-mask call
   order runs the scan here instead (counted separately — tests pin the
   tier-1 [resolved] count and the guarded tier must not disturb it). *)
let guarded t entry : guard =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.gtbl entry with
      | Some g -> g
      | None ->
        (match t.resolve with
         | None -> no_guard
         | Some f ->
           let g = snd3 (memoize_resolved t entry (f entry)) in
           t.gresolved <- t.gresolved + 1;
           g))

let guarded_blocks t =
  with_lock t (fun () ->
      Hashtbl.fold (fun _ (m, _) acc -> if m <> 0 then acc + 1 else acc)
        t.gtbl 0)

let guarded_checks t =
  with_lock t (fun () ->
      Hashtbl.fold (fun _ (m, _) acc -> acc + popcount m) t.gtbl 0)

(* --- Tier 3 accessors ----------------------------------------------------- *)

(* Record an eagerly-computed certificate. Trivial certificates are
   dropped so [cert_blocks] counts only superblocks that license fusion. *)
let add_cert t ~entry (c : cert) =
  if c.ct_prefix > 0 then
    with_lock t (fun () -> Hashtbl.replace t.ctbl entry c)

(* Certificate for [entry]. On the block-build path this follows [mask]
   for the same entry, so the combined resolver has already memoized it
   and this is a hash hit; a cert-before-mask call order runs the scan
   here (counted in [gresolved] together with guarded-first pulls — both
   violate the one-scan-per-build discipline that tests pin at zero). *)
let cert t entry : cert =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.ctbl entry with
      | Some c -> c
      | None ->
        (match t.resolve with
         | None -> no_cert
         | Some f ->
           let c = trd3 (memoize_resolved t entry (f entry)) in
           t.gresolved <- t.gresolved + 1;
           c))

let cert_blocks t =
  with_lock t (fun () ->
      Hashtbl.fold (fun _ c acc -> if c.ct_prefix > 0 then acc + 1 else acc)
        t.ctbl 0)

let cert_insns t =
  with_lock t (fun () ->
      Hashtbl.fold (fun _ c acc -> acc + c.ct_prefix) t.ctbl 0)

let cert_runs t =
  with_lock t (fun () ->
      Hashtbl.fold (fun _ c acc -> acc + Array.length c.ct_runs) t.ctbl 0)

(* Accesses covered by runs: each run covers its head plus its tails. *)
let cert_run_accesses t =
  with_lock t (fun () ->
      Hashtbl.fold
        (fun _ c acc ->
           Array.fold_left
             (fun acc r -> acc + 1 + Array.length r.ar_tail) acc c.ct_runs)
        t.ctbl 0)
