(* Signal numbers and dispositions.

   SIGPROT is CheriBSD's capability-protection signal: it is delivered for
   capability faults (tag, bounds, permission, monotonicity violations)
   raised by user instructions. *)

let sighup = 1
let sigint = 2
let sigquit = 3
let sigill = 4
let sigabrt = 6
let sigfpe = 8
let sigkill = 9
let sigbus = 10
let sigsegv = 11
let sigpipe = 13
let sigalrm = 14
let sigterm = 15
let sigstop = 17
let sigchld = 20
let sigusr1 = 30
let sigusr2 = 31
let sigprot = 34
let nsig = 35

let name = function
  | 1 -> "SIGHUP" | 2 -> "SIGINT" | 3 -> "SIGQUIT" | 4 -> "SIGILL"
  | 6 -> "SIGABRT" | 8 -> "SIGFPE" | 9 -> "SIGKILL" | 10 -> "SIGBUS"
  | 11 -> "SIGSEGV" | 13 -> "SIGPIPE" | 14 -> "SIGALRM" | 15 -> "SIGTERM"
  | 17 -> "SIGSTOP" | 20 -> "SIGCHLD" | 30 -> "SIGUSR1" | 31 -> "SIGUSR2"
  | 34 -> "SIGPROT"
  | n -> Printf.sprintf "SIG%d" n

(* Default action when no handler is installed. *)
type default_action = Terminate | Ignore | Stop

let default_action = function
  | 20 (* SIGCHLD *) -> Ignore
  | 17 (* SIGSTOP *) -> Stop
  | _ -> Terminate
