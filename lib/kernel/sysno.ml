(* System-call numbers and the constants of their arguments. Each call's
   name, signature and handler live in [Sys_impl.table]. *)

let sys_exit = 1
let sys_fork = 2
let sys_read = 3
let sys_write = 4
let sys_open = 5
let sys_close = 6
let sys_wait4 = 7
let sys_unlink = 10
let sys_getpid = 20
let sys_ptrace = 26
let sys_kill = 37
let sys_pipe = 42
let sys_sigaction = 46
let sys_ioctl = 54
let sys_execve = 59
let sys_sbrk = 69
let sys_munmap = 73
let sys_mprotect = 74
let sys_getcwd = 81
let sys_select = 93
let sys_sigreturn = 103
let sys_gettime = 116
let sys_socketpair = 135
let sys_lseek = 199
let sys_sysctl = 202
let sys_ftruncate = 201
let sys_shmat = 228
let sys_shmdt = 230
let sys_shmget = 231
let sys_mmap = 477
let sys_kevent_reg = 560
let sys_kevent_poll = 561

(* open(2) flags *)
let o_rdonly = 0
let o_wronly = 1
let o_rdwr = 2
let o_creat = 0x0200
let o_trunc = 0x0400
let o_append = 0x0008

(* mmap flags *)
let map_anon = 0x1000
let map_fixed = 0x0010
let map_shared = 0x0001
let map_private = 0x0002
let map_failed = -1

(* mmap prot bits *)
let prot_read = 1
let prot_write = 2
let prot_exec = 4

let prot_of_bits bits =
  { Cheri_vm.Prot.read = bits land prot_read <> 0;
    write = bits land prot_write <> 0;
    exec = bits land prot_exec <> 0 }

(* ptrace requests *)
let pt_attach = 10
let pt_detach = 11
let pt_peek = 1
let pt_poke = 2
let pt_getregs = 33
let pt_setregs = 34
let pt_getcap = 40   (* read a capability register: CheriABI extension *)
let pt_pokecap = 41  (* inject a capability into target memory *)
let pt_continue = 7

(* ioctl commands: bits 0..15 = size of the argument struct copied in/out;
   bit 30 = copy-in, bit 31 = copy-out (BSD-style encoding). *)
let ioc_in = 1 lsl 30
let ioc_out = 1 lsl 31
let ioc cmd ~size ~dir =
  cmd lor (size lsl 16)
  lor (match dir with `In -> ioc_in | `Out -> ioc_out | `InOut -> ioc_in lor ioc_out
                    | `None -> 0)
let ioc_size cmd = (cmd lsr 16) land 0x3fff
let ioc_dir cmd =
  (if cmd land ioc_in <> 0 then [ `In ] else [])
  @ (if cmd land ioc_out <> 0 then [ `Out ] else [])

(* Our device ioctls. *)
let tiocgwinsz = ioc 1 ~size:8 ~dir:`Out        (* tty window size *)
let dioc_getconf = ioc 2 ~size:32 ~dir:`InOut   (* struct with an embedded pointer *)
