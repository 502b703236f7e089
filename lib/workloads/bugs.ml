(* §5.4's real-bug census: programs modeled on the bugs CheriABI exposed
   in FreeBSD, each run under mips64 (silent or survivable) and CheriABI
   (detected). *)

module Abi = Cheri_core.Abi
module Kernel = Cheri_kernel.Kernel
module Proc = Cheri_kernel.Proc
module Signo = Cheri_kernel.Signo

type bug = {
  b_name : string;
  b_paper : string;        (* what the paper found *)
  b_src : string;
}

let bugs =
  [ { b_name = "tcsh-history-underrun";
      b_paper = "buffer underrun read in tcsh history expansion on an \
                 empty command line";
      b_src =
        {| int hist_count;
           char hist[32];
           int expand(char *line, int len) {
             /* scans backwards from the "end of the previous word";
                on an empty line this reads hist[-1] *)  */
             int j = len - 1;
             return line[j];
           }
           int main(int argc, char **argv) {
             hist[0] = 0;
             return expand(hist, 0) & 0;
           } |} };
    { b_name = "dhclient-ioctl-underalloc";
      b_paper = "out-of-bounds read by the kernel in the FreeBSD DHCP \
                 client due to underallocation of the data argument to an \
                 ioctl call";
      b_src =
        Printf.sprintf
          {| int main(int argc, char **argv) {
               char *small = malloc(16);        /* underallocated *)  */
               char *argbuf[3];
               argbuf[0] = small;
               int *lp = (int*)((char*)argbuf + sizeof(char*));
               *lp = 64;                        /* kernel told: 64 bytes *)  */
               int r = ioctl(1, %d, (char*)argbuf);
               if (r < 0) { print_str("EPROT"); exit(9); }
               return 0;
             } |}
          Cheri_kernel.Sysno.dioc_getconf };
    { b_name = "ttyname-overflow";
      b_paper = "small buffer overflow in the ttyname function";
      b_src =
        {| char devname[8];
           int ttyname_r(char *out) {
             /* writes the full name including the NUL: 9 bytes into 8 *)  */
             strcpy(out, "/dev/pts");
             out[8] = 0;
             return 0;
           }
           int main(int argc, char **argv) {
             ttyname_r(devname);
             return 0;
           } |} };
    { b_name = "humanize-number-overflow";
      b_paper = "small buffer overflow in the humanize_number function";
      b_src =
        {| int humanize(char *buf, int len, int v) {
             int i = 0;
             while (v > 0) { buf[i] = '0' + v % 10; v = v / 10; i = i + 1; }
             buf[i] = 'K';           /* suffix may land one past the end *)  */
             buf[i + 1] = 0;
             return i;
           }
           int main(int argc, char **argv) {
             char b[4];
             humanize(b, 4, 1024);   /* "4201K" needs 6 bytes *)  */
             return 0;
           } |} };
    { b_name = "strvis-test-overflow";
      b_paper = "small buffer overflow in a test case for the strvis \
                 function";
      b_src =
        {| char dst[8];
           int vis(char *out, char *in) {
             int i = 0;
             int o = 0;
             while (in[i]) {
               if (in[i] < 32) { out[o] = '\\'; o = o + 1; }
               out[o] = in[i];
               o = o + 1;
               i = i + 1;
             }
             out[o] = 0;
             return o;
           }
           int main(int argc, char **argv) {
             vis(dst, "ab\ncd\tef");   /* escapes double the control chars *)  */
             return 0;
           } |} } ]

type verdict = {
  v_name : string;
  v_paper : string;
  v_mips64 : string;
  v_cheriabi : string;
  v_detected_by_cheri : bool;
}

let run_one (b : bug) =
  let status_of abi =
    let k = Cheri_libc.Runtime.boot ~mem_size:(16 * 1024 * 1024) () in
    Stdlib_src.install k ~path:"/bin/bug" ~abi b.b_src;
    let status, _out, _ =
      Kernel.run_program ~max_steps:3_000_000 k ~path:"/bin/bug"
        ~argv:[ "bug" ]
    in
    match status with
    | Some (Proc.Exited 0) -> "silent", false
    | Some (Proc.Exited 9) -> "EPROT from kernel copy", true
    | Some (Proc.Exited c) -> Printf.sprintf "exit %d" c, true
    | Some (Proc.Signaled s) -> Signo.name s, true
    | None -> "hang", false
  in
  let m, _ = status_of Abi.Mips64 in
  let c, det = status_of Abi.Cheriabi in
  { v_name = b.b_name; v_paper = b.b_paper; v_mips64 = m; v_cheriabi = c;
    v_detected_by_cheri = det }

let run_all () = List.map run_one bugs
