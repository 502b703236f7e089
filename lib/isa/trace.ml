(* Execution tracing.

   The paper reconstructs the *abstract capability* of a process from an
   ISA-level trace (§5.5, Fig. 5). We emit an event for every capability
   derivation visible in userspace (CSetBounds/CAndPerm/CFromPtr executed
   by user code) and for every capability granted by privileged code (exec
   image setup, system-call returns, the run-time linker, the allocator,
   swap rederivation). Offline analysis classifies each event by source. *)

type event =
  | Derive of { pc : int; op : string; result : Cheri_cap.Cap.t }
      (* a user instruction produced a new, tagged capability *)
  | Grant of { origin : string; result : Cheri_cap.Cap.t }
      (* privileged code installed a capability; origin names the path:
         "exec", "syscall", "kern", "rtld", "malloc", "swap", "signal",
         "ptrace" *)
  | Fault of { pc : int; cause : string }
  | Marker of { pc : int; text : string }

type sink = event -> unit

let event_cap = function
  | Derive { result; _ } | Grant { result; _ } -> Some result
  | Fault _ | Marker _ -> None

(* A simple accumulating collector. *)
type collector = {
  mutable events : event list;  (* reversed *)
  mutable count : int;
}

let collector () = { events = []; count = 0 }

let emit c e =
  c.events <- e :: c.events;
  c.count <- c.count + 1

let sink_of c : sink = emit c

let to_list c = List.rev c.events
let count c = c.count
