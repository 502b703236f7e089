(* In-memory filesystem, pipes and devices.

   Executables are stored as linked-object images (see [Cheri_rtld.Sobj]);
   each is built for a specific ABI, like the separate mips64 and CheriABI
   binaries of the paper's system. *)

type file = {
  mutable f_data : Bytes.t;
  mutable f_len : int;
}

(* A unidirectional pipe. *)
type pipe = {
  p_id : int;
  mutable p_buf : Bytes.t list;      (* FIFO of chunks *)
  mutable p_readers : int;
  mutable p_writers : int;
}

(* Devices operate on already-copied buffers; the kernel performs all user
   memory access around them. [d_ioctl] receives the copied-in argument
   struct and returns the bytes to copy out. *)
type dev = {
  d_name : string;
  d_read : int -> Bytes.t option;            (* len -> data (None = EOF) *)
  d_write : Bytes.t -> int;
  d_ioctl : int -> Bytes.t -> (Bytes.t, Errno.t) result;
}

type node =
  | Dir of (string, node) Hashtbl.t
  | File of file
  | Exe of Cheri_core.Abi.t * Cheri_rtld.Sobj.image

type t = {
  root : (string, node) Hashtbl.t;
  mutable next_pipe_id : int;
}

let create () = { root = Hashtbl.create 64; next_pipe_id = 0 }

let split_path path =
  List.filter (fun s -> s <> "") (String.split_on_char '/' path)

let rec lookup_in dir = function
  | [] -> Some (Dir dir)
  | [ last ] -> Hashtbl.find_opt dir last
  | seg :: rest ->
    (match Hashtbl.find_opt dir seg with
     | Some (Dir d) -> lookup_in d rest
     | _ -> None)

let lookup t path = lookup_in t.root (split_path path)

(* Create all intermediate directories and bind [node] at [path]. *)
let bind t path node =
  let rec go dir = function
    | [] -> Errno.raise_errno Errno.EINVAL
    | [ last ] -> Hashtbl.replace dir last node
    | seg :: rest ->
      let sub =
        match Hashtbl.find_opt dir seg with
        | Some (Dir d) -> d
        | Some _ -> Errno.raise_errno Errno.ENOTDIR
        | None ->
          let d = Hashtbl.create 8 in
          Hashtbl.replace dir seg (Dir d);
          d
      in
      go sub rest
  in
  go t.root (split_path path)

let unlink t path =
  let rec go dir = function
    | [] -> Errno.raise_errno Errno.EINVAL
    | [ last ] ->
      if not (Hashtbl.mem dir last) then Errno.raise_errno Errno.ENOENT;
      Hashtbl.remove dir last
    | seg :: rest ->
      (match Hashtbl.find_opt dir seg with
       | Some (Dir d) -> go d rest
       | _ -> Errno.raise_errno Errno.ENOENT)
  in
  go t.root (split_path path)

let new_file () = { f_data = Bytes.create 0; f_len = 0 }

let add_file t path =
  let f = new_file () in
  bind t path (File f);
  f

let add_exe t path ~abi image = bind t path (Exe (abi, image))

(* --- File I/O ----------------------------------------------------------------- *)

let file_read f ~off ~len =
  if off >= f.f_len then Bytes.create 0
  else begin
    let n = min len (f.f_len - off) in
    Bytes.sub f.f_data off n
  end

let file_write f ~off data =
  let len = Bytes.length data in
  let needed = off + len in
  if needed > Bytes.length f.f_data then begin
    let cap = max needed (max 64 (2 * Bytes.length f.f_data)) in
    let nd = Bytes.make cap '\000' in
    Bytes.blit f.f_data 0 nd 0 f.f_len;
    f.f_data <- nd
  end;
  Bytes.blit data 0 f.f_data off len;
  if needed > f.f_len then f.f_len <- needed;
  len

let file_truncate f len =
  if len < f.f_len then f.f_len <- max 0 len
  else ignore (file_write f ~off:len (Bytes.create 0))

(* --- Pipes ----------------------------------------------------------------------- *)

let new_pipe t =
  let p = { p_id = t.next_pipe_id; p_buf = []; p_readers = 1; p_writers = 1 } in
  t.next_pipe_id <- t.next_pipe_id + 1;
  p

let pipe_write p data =
  if p.p_readers = 0 then Errno.raise_errno Errno.EPIPE;
  if Bytes.length data > 0 then p.p_buf <- p.p_buf @ [ Bytes.copy data ];
  Bytes.length data

(* Read up to [len] bytes. [None] means "would block"; empty bytes means
   EOF (no writers left). *)
let pipe_read p ~len =
  match p.p_buf with
  | [] -> if p.p_writers = 0 then Some (Bytes.create 0) else None
  | chunk :: rest ->
    if Bytes.length chunk <= len then begin
      p.p_buf <- rest;
      Some chunk
    end else begin
      let out = Bytes.sub chunk 0 len in
      p.p_buf <- Bytes.sub chunk len (Bytes.length chunk - len) :: rest;
      Some out
    end

let pipe_readable p = p.p_buf <> [] || p.p_writers = 0
let pipe_writable p = p.p_readers > 0

(* --- Open-file descriptions ------------------------------------------------------ *)

type open_obj =
  | OFile of file
  | OPipe_r of pipe
  | OPipe_w of pipe
  | OSock of pipe * pipe   (* bidirectional: read from first, write to second *)
  | ODev of dev

type fd_entry = {
  fo_obj : open_obj;
  mutable fo_off : int;
  fo_flags : int;
}

let open_entry obj ~flags = { fo_obj = obj; fo_off = 0; fo_flags = flags }

(* Drop one reference when a descriptor is closed (pipe bookkeeping). *)
let close_entry e =
  match e.fo_obj with
  | OPipe_r p -> p.p_readers <- p.p_readers - 1
  | OPipe_w p -> p.p_writers <- p.p_writers - 1
  | OSock (r, w) ->
    r.p_readers <- r.p_readers - 1;
    w.p_writers <- w.p_writers - 1
  | OFile _ | ODev _ -> ()

(* An extra reference for fork's descriptor-table duplication. *)
let ref_entry e =
  match e.fo_obj with
  | OPipe_r p -> p.p_readers <- p.p_readers + 1
  | OPipe_w p -> p.p_writers <- p.p_writers + 1
  | OSock (r, w) ->
    r.p_readers <- r.p_readers + 1;
    w.p_writers <- w.p_writers + 1
  | OFile _ | ODev _ -> ()
