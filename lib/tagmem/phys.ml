(* Physical frame allocator: a free-list over 4 KiB frames with reference
   counts (shared mappings and copy-on-write hold extra references).

   The kernel draws frames from here for demand paging; the swap subsystem
   returns frames when pages are evicted. *)

let page_size = 4096
let page_shift = 12

type t = {
  mem : Tagmem.t;
  mutable free : int list;   (* freed frame numbers, most recent first *)
  mutable next_fresh : int;  (* frames [next_fresh, total) were never handed out *)
  mutable free_count : int;
  refcount : int array;
  total : int;
}

(* Allocation order is that of one list holding the freed frames, newest
   first, followed by the never-used frames in ascending order: the fresh
   tail is a bump pointer, so creation does not build it. *)
let create mem =
  let total = Tagmem.size mem / page_size in
  (* Frame 0 is reserved so that physical address 0 is never handed out. *)
  { mem; free = []; next_fresh = 1; free_count = total - 1;
    refcount = Array.make total 0; total }

let mem t = t.mem
let total_frames t = t.total
let free_frames t = t.free_count

exception Out_of_memory

let alloc_frame t =
  let f =
    match t.free with
    | f :: rest -> t.free <- rest; f
    | [] ->
      if t.next_fresh >= t.total then raise Out_of_memory;
      let f = t.next_fresh in
      t.next_fresh <- f + 1;
      f
  in
  t.free_count <- t.free_count - 1;
  t.refcount.(f) <- 1;
  Tagmem.fill t.mem (f * page_size) page_size 0;
  f

let incref t f =
  if f <= 0 || f >= t.total || t.refcount.(f) = 0 then invalid_arg "Phys.incref";
  t.refcount.(f) <- t.refcount.(f) + 1

let refcount t f = t.refcount.(f)

(* Drop one reference; frees the frame when the count reaches zero. *)
let decref t f =
  if f <= 0 || f >= t.total || t.refcount.(f) = 0 then invalid_arg "Phys.decref";
  t.refcount.(f) <- t.refcount.(f) - 1;
  if t.refcount.(f) = 0 then begin
    t.free <- f :: t.free;
    t.free_count <- t.free_count + 1
  end

let frame_addr f = f * page_size
