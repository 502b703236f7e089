(* Execution tracing.

   The paper reconstructs the *abstract capability* of a process from an
   ISA-level trace (§5.5, Fig. 5). We emit an event for every capability
   derivation visible in userspace (CSetBounds/CAndPerm/CFromPtr executed
   by user code) and for every capability granted by privileged code,
   which only the kernel's door ([Kstate.grant]/[Kstate.admit]) emits. A
   grant's origin names the path that made it: [Exec] (execve's registers
   and argument arrays), [Rtld] (relocations, the capability table),
   [Syscall] (what mmap or shmat returns, to a process or the allocator),
   [Malloc] (an allocation), [Signal] (the signal trampoline), [Ptrace]
   (PT_POKECAP) and [Swap] (a swap-in rederivation: page fault, kernel
   access or fork). Offline analysis classifies each event by source. *)

type origin = Exec | Rtld | Syscall | Malloc | Signal | Ptrace | Swap

let origin_name = function
  | Exec -> "exec" | Rtld -> "rtld" | Syscall -> "syscall" | Malloc -> "malloc"
  | Signal -> "signal" | Ptrace -> "ptrace" | Swap -> "swap"

type event =
  | Derive of { pc : int; op : string; result : Cheri_cap.Cap.t }
      (* a user instruction produced a new, tagged capability *)
  | Grant of { origin : origin; result : Cheri_cap.Cap.t }
      (* privileged code installed a capability *)
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
