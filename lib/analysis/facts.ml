(* Per-superblock check-discharge facts: the static result of the
   superblock scan in absint.ml, reported by [Absint.verify]
   (cheri_verify, @verify) and replayed by the soundness oracle in
   test/test_absint.ml. No execution engine consumes them: the chain
   engine checks every access, as the CHERI hardware does.

   Two tiers: unconditional facts (tier 1, this paragraph and the next)
   and guarded facts (tier 2, below), which hold only under a predicate
   on the entry-time registers.

   A fact [(entry, index)] records that the capability check guarding the
   memory access at instruction [index] of the straight-line run starting
   at [entry] is statically discharged: *if* execution proceeds
   straight-line from [entry] through [index], the tag/seal/permission/
   bounds probe of that access cannot fail. The claim is conditional only
   on the prefix, so it holds no matter how control reached [entry].

   Facts are a bitmask per entry pc. OCaml ints give 63 usable bits; index
   62 is the last slot (a 64-instruction superblock's index 63 is its
   terminator, which never carries a dischargeable check). *)

(* Guarded facts (tier 2). A guard predicate is a sufficient condition on
   the *entry-time* register state under which additional checks in the
   superblock are discharged.

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
  gp_perms : int;  (* Perms.t *)
  gp_lo : int;     (* window low offset from the entry cursor *)
  gp_hi : int;     (* window high offset, inclusive (see above) *)
}

(* Mask of additionally dischargeable checks plus the predicates that
   license them. The mask is valid only when *all* predicates hold. *)
type guard = int * gpred array

let no_guard : guard = (0, [||])

type t = {
  tbl : (int, int) Hashtbl.t;     (* superblock entry pc -> bitmask *)
  gtbl : (int, guard) Hashtbl.t;  (* entry pc -> guarded mask + predicates *)
}

let max_index = 62

let create () =
  { tbl = Hashtbl.create 256; gtbl = Hashtbl.create 64 }

(* Or a whole mask in. Empty masks are not stored, so [blocks] counts
   only entries carrying a fact. *)
let add_mask t ~entry mask =
  let mask = mask land ((1 lsl (max_index + 1)) - 1) in
  if mask <> 0 then
    let cur = Option.value (Hashtbl.find_opt t.tbl entry) ~default:0 in
    Hashtbl.replace t.tbl entry (cur lor mask)

let mask t entry = Option.value (Hashtbl.find_opt t.tbl entry) ~default:0

let elidable t ~entry ~index =
  index >= 0 && index <= max_index && (mask t entry lsr index) land 1 = 1

(* Entries carrying at least one fact. *)
let blocks t = Hashtbl.length t.tbl

let popcount m =
  let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
  go m 0

(* Record guarded facts for an entry. Empty masks are dropped (a guard
   that licenses nothing claims nothing). *)
let add_guarded t ~entry mask preds =
  let mask = mask land ((1 lsl (max_index + 1)) - 1) in
  if mask <> 0 && Array.length preds > 0 then
    Hashtbl.replace t.gtbl entry (mask, preds)

let guarded t entry : guard =
  Option.value (Hashtbl.find_opt t.gtbl entry) ~default:no_guard
