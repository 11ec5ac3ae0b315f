#!/usr/bin/env python3
"""Rank the PCs tools/profile_sampler wrote by function: self time.

Each sampled PC is resolved against `nm -C -S` of the module it fell in
(its offset is the address nm prints) and charged to the function whose
[address, address + size) holds it. Functions of the profiled program are
listed by name, without their parameter lists; every other module (libm,
libc, libstdc++, the vDSO) is one row under its file name. Inlined code
counts toward the function it was inlined into.

Usage:
  python3 tools/rank_profile.py PCS [PCS...] [--top=25]

Several files (say, one per scenario, all from one build) are summed.

Prints one line per function: share of all samples, samples, name.
"""

import argparse
import bisect
import collections
import os
import re
import subprocess
import sys

NM_LINE = re.compile(r"^([0-9a-fA-F]+) ([0-9a-fA-F]+) ([tTwWiI]) (.+)$")


def read_samples(paths):
    """Return (headers, program path or None, {(module, offset): count})
    summed over every file (runs of one program binary)."""
    headers = []
    program = None
    counts = collections.Counter()
    for path in paths:
        with open(path) as f:
            for line in f:
                line = line.rstrip("\n")
                if line.startswith("# program "):
                    program = line[len("# program "):]
                elif line.startswith("#"):
                    headers.append(line.lstrip("# "))
                elif line.strip():
                    count, offset, module = line.split(" ", 2)
                    counts[(module, int(offset, 16))] += int(count)
    return headers, program, counts


def text_symbols(module):
    """Sorted [(address, size, name)] of the module's sized text symbols."""
    symbols = []
    for extra in ([], ["-D"]):
        try:
            out = subprocess.run(["nm", "-C", "-S", "--defined-only", *extra, module],
                                 capture_output=True, text=True, check=False).stdout
        except OSError:
            return []
        for line in out.splitlines():
            match = NM_LINE.match(line)
            if match:
                symbols.append((int(match.group(1), 16), int(match.group(2), 16),
                                match.group(4)))
        if symbols:
            break
    symbols.sort()
    return symbols


def short_name(name):
    """Drop the parameter list (and a trailing const) from a demangled name."""
    if name.endswith(" const"):
        name = name[:-len(" const")]
    if not name.endswith(")"):
        return name
    depth = 0
    for i in range(len(name) - 1, -1, -1):
        if name[i] == ")":
            depth += 1
        elif name[i] == "(":
            depth -= 1
            if depth == 0:
                return name[:i] if i > 0 else name
    return name


def resolve(module, offsets, symbols):
    """{offset: function name} for one module."""
    starts = [s[0] for s in symbols]
    names = {}
    for offset in offsets:
        i = bisect.bisect_right(starts, offset) - 1
        name = None
        if i >= 0:
            start, size, symbol = symbols[i]
            if offset < start + max(size, 1):
                name = short_name(symbol)
        names[offset] = name or f"[{os.path.basename(module)}]"
    return names


def rank(counts, program):
    by_module = collections.defaultdict(dict)
    for (module, offset), count in counts.items():
        by_module[module][offset] = count
    if program is None and by_module:
        # The program is the module with the most samples.
        program = max(by_module, key=lambda m: sum(by_module[m].values()))
    functions = collections.Counter()
    for module, offsets in by_module.items():
        if module != program:
            functions[f"[{os.path.basename(module)}]"] += sum(offsets.values())
            continue
        names = resolve(module, offsets, text_symbols(module))
        for offset, count in offsets.items():
            functions[names[offset]] += count
    return functions


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pcs", nargs="+", help="files written by tools/profile_sampler")
    parser.add_argument("--top", type=int, default=25, help="rows to print (default 25)")
    args = parser.parse_args(argv)

    headers, program, counts = read_samples(args.pcs)
    total = sum(counts.values())
    if total == 0:
        print(f"rank_profile: no samples in {' '.join(args.pcs)}", file=sys.stderr)
        return 1
    functions = rank(counts, program)
    for header in headers:
        print(f"rank_profile: {header}")
    print(f"rank_profile: {total} samples in all")
    print(f"{'share':>7} {'samples':>8}  function")
    for name, count in functions.most_common(args.top):
        print(f"{100.0 * count / total:6.1f}% {count:8d}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
