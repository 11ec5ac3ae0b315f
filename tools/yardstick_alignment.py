#!/usr/bin/env python3
"""Report where perfbench's yardstick function sits in a built mcbench.

perfbench calibrates its timings against `heap_hold_s` in
perfbench/mcbench.cpp. The linker places it right after all cold
(exception) code, so a change to cold code anywhere can move it, and the
alignment of its loop changes the yardstick's speed by several percent.
This prints the function's address, that address mod 64 and the binary's
.text size, and fails when the offset is not the expected one.

    python3 tools/yardstick_alignment.py .bench_build/cmake/mcbench [--expect 16]

Exit status: 0 when the offset matches, 1 when it differs, when the symbol
or the .text section is missing or when nm or size fails, 2 on a usage
error.
"""

import argparse
import re
import subprocess
import sys

SYMBOL = "heap_hold_s"
ALIGNMENT = 64

# `nm -C` line: address, type letter, demangled name. The function may sit
# in an anonymous namespace; its `[clone .cold]` part is not the function.
NM_LINE = re.compile(r"^([0-9a-fA-F]+)\s+[tT]\s+(.*)$")


def yardstick_address(nm_output):
    """Address of heap_hold_s() in `nm -C` output, or None."""
    for line in nm_output.splitlines():
        match = NM_LINE.match(line.strip())
        if match and re.search(r"(^|::)" + SYMBOL + r"\(\)$", match.group(2)):
            return int(match.group(1), 16)
    return None


def text_size(size_output):
    """Size in bytes of the .text section in `size -A` output, or None."""
    for line in size_output.splitlines():
        fields = line.split()
        if len(fields) >= 2 and fields[0] == ".text":
            return int(fields[1])
    return None


def tool_output(command):
    """Standard output of `command`, or None (with the reason on stderr)."""
    try:
        return subprocess.run(command, check=True, capture_output=True, text=True).stdout
    except (OSError, subprocess.CalledProcessError) as error:
        detail = getattr(error, "stderr", None) or error
        print(f"{' '.join(command)}: {str(detail).strip()}", file=sys.stderr)
        return None


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("binary", help="a built mcbench")
    parser.add_argument("--expect", type=int, default=16,
                        help="expected address mod 64 (default 16)")
    parser.add_argument("--nm", default="nm", help="nm program")
    parser.add_argument("--size", default="size", help="size program")
    args = parser.parse_args(argv[1:])

    symbols = tool_output([args.nm, "-C", args.binary])
    sections = tool_output([args.size, "-A", args.binary])
    if symbols is None or sections is None:
        return 1
    address = yardstick_address(symbols)
    if address is None:
        print(f"{args.binary}: no {SYMBOL}() symbol", file=sys.stderr)
        return 1
    text = text_size(sections)
    if text is None:
        print(f"{args.binary}: no .text section", file=sys.stderr)
        return 1
    offset = address % ALIGNMENT
    print(f"{SYMBOL}: {address:#x} ({offset} mod {ALIGNMENT})")
    print(f".text: {text} bytes")
    if offset != args.expect:
        print(f"{SYMBOL} is at {offset} mod {ALIGNMENT}, expected {args.expect}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
