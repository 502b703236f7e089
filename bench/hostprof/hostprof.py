#!/usr/bin/env python3
"""Host-time profile of one command, by instruction-pointer sampling.

Run from the root of the repository:

  python3 bench/hostprof/hostprof.py [--interval-us 500] [--top 30]
      [--function SYMBOL|FILE:LINE] -- COMMAND [ARGS...]

Builds the ptrace sampler (bench/hostprof/sampler.c, an opt-in dune
rule), starts COMMAND with its output sent to stderr, and samples the
instruction pointer of COMMAND's main thread every --interval-us
microseconds until it exits. Then it prints:

  - a flat profile: samples per symbol, from `nm -n` of each executable
    mapping seen in /proc/PID/maps, with the source line of the symbol's
    first instruction (`addr2line`), which names OCaml's anonymous
    closures (`fun_NNNN`). A stripped file (the system libc) has no
    symbol table; its samples go to the nearest dynamic symbol below
    them (`nm -D`), printed as `~name` because the sample may lie in an
    internal function after that export;
  - with --function, per-instruction sample counts for the symbol (an
    exact name, a substring that names one symbol, or FILE:LINE, e.g.
    bbcache.ml:507, the source line of the symbol's first instruction,
    which names an anonymous closure across builds that renumber
    `fun_NNNN`): `objdump -d` of it, each line prefixed with its count
    and source line.

Linux on x86-64 only; it needs ptrace permission over the command.
"""

import argparse
import bisect
import collections
import os
import re
import struct
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SAMPLER = os.path.join(ROOT, "_build", "default", "bench", "hostprof", "sampler")


def build_sampler():
    env = dict(os.environ, HOSTPROF="1")
    subprocess.run(["dune", "build", "./bench/hostprof/sampler"], cwd=ROOT,
                   env=env, check=True)


def read_maps(pid, maps):
    """Add the executable file mappings of [pid] to [maps]."""
    try:
        with open("/proc/%d/maps" % pid) as f:
            for line in f:
                parts = line.split(None, 5)
                if len(parts) < 6 or "x" not in parts[1]:
                    continue
                path = parts[5].strip()
                if not path.startswith("/"):
                    continue
                lo, hi = (int(x, 16) for x in parts[0].split("-"))
                maps[(lo, hi)] = (int(parts[2], 16), path)
    except OSError:
        pass


def load_segments(path):
    """(p_offset, p_vaddr, p_filesz) of each PT_LOAD segment of a 64-bit
    little-endian ELF file."""
    with open(path, "rb") as f:
        hdr = f.read(64)
        phoff, = struct.unpack_from("<Q", hdr, 32)
        phentsize, phnum = struct.unpack_from("<HH", hdr, 54)
        segs = []
        for i in range(phnum):
            f.seek(phoff + i * phentsize)
            ptype, _, off, vaddr, _, filesz = struct.unpack("<IIQQQQ", f.read(40))
            if ptype == 1:
                segs.append((off, vaddr, filesz))
        return segs


def text_symbols(path, dynamic):
    """(addresses, names) of the text symbols of [path], in address order:
    from its symbol table, or with [dynamic] from its dynamic one."""
    out = subprocess.run(["nm", "-n", "--defined-only"] +
                         (["-D"] if dynamic else []) + [path],
                         capture_output=True, text=True).stdout
    addrs, names = [], []
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[1] in "TtWwi":
            addrs.append(int(parts[0], 16))
            names.append(parts[2])
    return addrs, names


class Image:
    """One mapped file: its text symbols, and file-relative addresses."""

    def __init__(self, path):
        self.path = path
        self.segs = load_segments(path)
        self.addrs, self.names = text_symbols(path, False)
        if not self.addrs:
            # A stripped file (the system libc) keeps only its dynamic
            # symbols, the exported entry points: a sample in an internal
            # function is charged to the nearest export below it. Such
            # names are approximate and print as "~name".
            self.addrs, names = text_symbols(path, True)
            self.names = ["~" + n for n in names]

    def vaddr(self, rip, map_lo, map_off):
        """The link-time address of [rip], inside a mapping of this file
        that starts at [map_lo] and maps file offset [map_off]."""
        foff = rip - map_lo + map_off
        for off, va, size in self.segs:
            if off <= foff < off + size:
                return foff - off + va
        return None

    def symbol(self, va):
        i = bisect.bisect_right(self.addrs, va) - 1
        return (self.names[i], self.addrs[i]) if i >= 0 else ("?", 0)

    def next_symbol(self, start):
        i = bisect.bisect_right(self.addrs, start)
        return self.addrs[i] if i < len(self.addrs) else start + 0x10000


def source_lines(path, addrs):
    """addr -> "file:line" through one addr2line run."""
    addrs = list(addrs)
    if not addrs:
        return {}
    out = subprocess.run(["addr2line", "-e", path] + ["%x" % a for a in addrs],
                         capture_output=True, text=True).stdout.splitlines()
    return {a: os.path.basename(l) for a, l in zip(addrs, out)}


def named_symbols(spec, counts, images):
    """The sampled (path, symbol, start) keys that --function [spec]
    names: FILE:LINE matches the source line of a symbol's first
    instruction; anything else is an exact symbol name or, failing that,
    a substring of one."""
    if re.fullmatch(r"[^:\s]+:\d+", spec):
        want = os.path.basename(spec)
        hits = []
        for path in {p for (p, _, _) in counts if p in images}:
            keys = [k for k in counts if k[0] == path]
            lines = source_lines(path, {s for (_, _, s) in keys})
            hits += [k for k in keys if lines[k[2]].split(" ")[0] == want]
        return sorted(hits)
    return [k for k in counts if k[1] == spec] or sorted(
        {k for k in counts if spec in k[1]})


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--interval-us", type=int, default=500)
    ap.add_argument("--top", type=int, default=30)
    ap.add_argument("--function")
    ap.add_argument("command", nargs=argparse.REMAINDER)
    a = ap.parse_args()
    cmd = a.command[1:] if a.command[:1] == ["--"] else a.command
    if not cmd:
        ap.error("no command")
    build_sampler()
    t0 = time.time()
    proc = subprocess.Popen(cmd, stdout=sys.stderr)
    # The samples go to a file: a pipe nobody reads until the end would
    # fill, block the sampler and leave the command stopped for good.
    with tempfile.TemporaryFile(mode="w+") as out:
        sampler = subprocess.Popen(
            [SAMPLER, str(proc.pid), str(a.interval_us)], stdout=out)
        maps = {}
        while proc.poll() is None:
            read_maps(proc.pid, maps)
            time.sleep(0.2)
        sampler.wait()
        wall = time.time() - t0
        out.seek(0)
        rips = out.read()

    images = {}
    counts = collections.Counter()       # (path, symbol, start) -> samples
    by_addr = collections.Counter()      # (path, vaddr) -> samples
    spans = sorted(maps.items())
    los = [lo for (lo, _), _ in spans]
    n = 0
    for line in rips.split():
        rip = int(line, 16)
        n += 1
        i = bisect.bisect_right(los, rip) - 1
        if i < 0 or rip >= spans[i][0][1]:
            counts[("?", "[unmapped]", 0)] += 1
            continue
        (lo, _), (off, path) = spans[i]
        img = images.get(path) or images.setdefault(path, Image(path))
        va = img.vaddr(rip, lo, off)
        if va is None:
            counts[(path, "?", 0)] += 1
            continue
        name, start = img.symbol(va)
        counts[(path, name, start)] += 1
        by_addr[(path, va)] += 1
    if n == 0:
        sys.exit("hostprof: no samples")

    print("# %d samples every %d us over %.1f s: %s" %
          (n, a.interval_us, wall, " ".join(cmd)))
    print("%8s %6s  %s" % ("samples", "%", "symbol [source] (file)"))
    top = counts.most_common(a.top)
    lines = {}
    for path in {p for (p, _, _), _ in top if p in images}:
        lines.update({(path, s): l for s, l in source_lines(
            path, [s for (p, _, s), _ in top if p == path]).items()})
    for (path, name, start), c in top:
        src = lines.get((path, start), "")
        src = "" if src.startswith("??") else " [%s]" % src
        print("%8d %5.1f%%  %s%s (%s)" %
              (c, 100.0 * c / n, name, src, os.path.basename(path)))

    if a.function:
        hits = named_symbols(a.function, counts, images)
        if len(hits) != 1:
            sys.exit("hostprof: --function %s names %d sampled symbols%s" %
                     (a.function, len(hits),
                      "" if not hits else ": " + ", ".join(h[1] for h in hits)))
        path, name, start = hits[0]
        stop = images[path].next_symbol(start)
        dis = subprocess.run(
            ["objdump", "-d", "--no-show-raw-insn",
             "--start-address=0x%x" % start, "--stop-address=0x%x" % stop,
             path], capture_output=True, text=True).stdout.splitlines()
        insns = []
        for l in dis:
            head = l.split(":", 1)
            try:
                insns.append((int(head[0].strip(), 16), head[1].strip()))
            except (ValueError, IndexError):
                continue
        src = source_lines(path, [va for va, _ in insns])
        total = counts[(path, name, start)]
        print("\n# %s: %d samples (%.1f%% of all)" %
              (name, total, 100.0 * total / n))
        for va, text in insns:
            c = by_addr.get((path, va), 0)
            print("%8s %6s  %x  %-24s %s" %
                  (c or "", "%.1f%%" % (100.0 * c / total) if c else "", va,
                   src.get(va, ""), text))


if __name__ == "__main__":
    main()
