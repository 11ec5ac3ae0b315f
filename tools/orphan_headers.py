#!/usr/bin/env python3
"""Fail on library headers that nothing outside their own .cpp includes.

A header under src/ that only its own .cpp and the tests include is code
the program does not use. Each src/**/*.hpp must be included by at least
one file under src/, tools/, bench/, examples/ or perfbench/ other than
the .cpp of the same name next to it. There is no allowlist.

    python3 tools/orphan_headers.py [repo root]

Exit status: 0 when every header has an includer, 1 otherwise (each
orphan is named on stderr).
"""

import pathlib
import re
import sys

INCLUDER_DIRS = ("src", "tools", "bench", "examples", "perfbench")
SOURCE_SUFFIXES = {".hpp", ".cpp"}
INCLUDE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)


def orphan_headers(root):
    """The src/**/*.hpp paths (relative to root) with no includer."""
    src = root / "src"
    headers = {path.resolve() for path in src.rglob("*.hpp")}
    included = set()
    for directory in INCLUDER_DIRS:
        for source in (root / directory).rglob("*"):
            if source.suffix not in SOURCE_SUFFIXES or not source.is_file():
                continue
            for name in INCLUDE.findall(source.read_text(errors="replace")):
                # Quoted includes resolve against src/ (the include root)
                # or against the including file's own directory.
                for target in ((src / name).resolve(), (source.parent / name).resolve()):
                    own_cpp = target.with_suffix(".cpp") == source.resolve()
                    if target in headers and not own_cpp:
                        included.add(target)
    return sorted(str(path.relative_to(root.resolve())) for path in headers - included)


def main(argv):
    root = (pathlib.Path(argv[1]) if len(argv) > 1
            else pathlib.Path(__file__).resolve().parent.parent)
    if not (root / "src").is_dir():
        print(f"no src/ directory under {root}", file=sys.stderr)
        return 1
    orphans = orphan_headers(root)
    for header in orphans:
        print(f"{header}: no #include outside its own .cpp "
              f"(searched {', '.join(INCLUDER_DIRS)})", file=sys.stderr)
    return 1 if orphans else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
