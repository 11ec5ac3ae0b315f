#!/usr/bin/env python3
"""Fail on library headers and symbols that nothing outside the tests uses.

Two rules, both over src/, with no allowlist:

1. Headers. Each src/**/*.hpp must be included by at least one file under
   src/, tools/, bench/, examples/ or perfbench/ other than the .cpp of the
   same name next to it.
2. Symbols. Each class and free function declared at namespace scope in a
   src/**/*.hpp must be named somewhere in those directories outside its
   own declaration. The declaration (a class's whole body, a function's
   whole statement) and the column-0 definition lines of the matching .cpp
   (`double f(...)`, `Foo::Foo(...)`, `int Foo::g() const`) do not count;
   every other mention does, including one inside the declaring header (a
   macro there that calls the function, a derived class naming its base).
   Comments and string literals are ignored. Members, enums, aliases,
   operators and forward declarations are out of scope.

    python3 tools/orphan_headers.py [repo root]

Exit status: 0 when every header has an includer and every symbol a user,
1 otherwise (each orphan is named on stderr).
"""

import bisect
import collections
import pathlib
import re
import sys

INCLUDER_DIRS = ("src", "tools", "bench", "examples", "perfbench")
SOURCE_SUFFIXES = {".hpp", ".cpp"}
INCLUDE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)
IDENTIFIER = re.compile(r"[A-Za-z_]\w*")
NOT_FUNCTIONS = {"alignas", "decltype", "noexcept", "sizeof", "static_assert", "operator"}
SKIPPED_HEADS = {"enum", "using", "typedef", "namespace", "static_assert", "friend", "extern"}


def sources(root):
    """Every .hpp/.cpp under the includer directories."""
    for directory in INCLUDER_DIRS:
        for source in sorted((root / directory).rglob("*")):
            if source.suffix in SOURCE_SUFFIXES and source.is_file():
                yield source


def orphan_headers(root):
    """The src/**/*.hpp paths (relative to root) with no includer."""
    src = root / "src"
    headers = {path.resolve() for path in src.rglob("*.hpp")}
    included = set()
    for source in sources(root):
        for name in INCLUDE.findall(source.read_text(errors="replace")):
            # Quoted includes resolve against src/ (the include root)
            # or against the including file's own directory.
            for target in ((src / name).resolve(), (source.parent / name).resolve()):
                own_cpp = target.with_suffix(".cpp") == source.resolve()
                if target in headers and not own_cpp:
                    included.add(target)
    return sorted(str(path.relative_to(root.resolve())) for path in headers - included)


def strip_comments_and_strings(text):
    """`text` with comments and string/char literals blanked, newlines kept."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        previous = text[i - 1] if i else " "
        if text.startswith("//", i):
            end = text.find("\n", i)
            end = n if end < 0 else end
        elif text.startswith("/*", i):
            end = text.find("*/", i + 2)
            end = n if end < 0 else end + 2
        elif text.startswith('R"', i) and not (previous.isalnum() or previous == "_"):
            open_paren = text.find("(", i + 2)
            delimiter = ")" + text[i + 2:open_paren] + '"'
            end = text.find(delimiter, open_paren)
            end = n if end < 0 else end + len(delimiter)
        elif c == '"' or (c == "'" and not previous.isalnum()):
            # A quote after an alphanumeric is a digit separator (1'000).
            end = i + 1
            while end < n and text[end] != c and text[end] != "\n":
                end += 2 if text[end] == "\\" else 1
            end = min(end + 1, n)
        else:
            out.append(c)
            i += 1
            continue
        out.append("".join(ch if ch == "\n" else " " for ch in text[i:end]))
        i = end
    return "".join(out)


def blank_preprocessor(text):
    """`text` with preprocessor lines (and their continuations) blanked."""
    lines = text.split("\n")
    continued = False
    for index, line in enumerate(lines):
        if continued or line.lstrip().startswith("#"):
            continued = line.rstrip().endswith("\\")
            lines[index] = ""
    return "\n".join(lines)


def drop_balanced(text, open_char, close_char):
    """`text` from just past the bracket group it starts with."""
    depth = 0
    for index, c in enumerate(text):
        depth += c == open_char
        depth -= c == close_char
        if depth == 0:
            return text[index + 1:]
    return ""


def declared_name(statement):
    """("class"|"function", name) for a namespace-scope statement, or None.

    `statement` runs from the previous `;`, `{` or `}` to the `;` or `{`
    that ends it (inclusive)."""
    text = statement.strip()
    while True:
        text = re.sub(r"^\[\[.*?\]\]\s*", "", text, flags=re.DOTALL)
        if text.startswith("template"):
            text = drop_balanced(text[len("template"):].lstrip(), "<", ">").lstrip()
        elif text.startswith("inline ") or text.startswith("constexpr "):
            text = text.split(None, 1)[1]
        else:
            break
    words = IDENTIFIER.findall(text)
    if not words or words[0] in SKIPPED_HEADS:
        return None
    if words[0] in ("class", "struct", "union"):
        match = re.match(r"(?:class|struct|union)\s+(?:\[\[.*?\]\]\s*)?([A-Za-z_]\w*)", text)
        if match and text.endswith("{"):
            return ("class", match.group(1))
        return None
    paren = text.find("(")
    if paren < 0 or "=" in text[:paren]:
        return None
    match = re.search(r"(::\s*~?\s*)?([A-Za-z_]\w*)\s*$", text[:paren])
    if not match or match.group(1) or match.group(2) in NOT_FUNCTIONS:
        return None  # a qualified name, an operator, or no name at all
    if not text[:match.start()].strip():
        return None  # a macro invocation has no return type
    return ("function", match.group(2))


def namespace_scope_declarations(code):
    """[[kind, name, first_line, last_line]] declared at namespace scope.

    Lines are 1-based; a class spans its whole body."""
    newlines = [index for index, c in enumerate(code) if c == "\n"]

    def line(offset):
        return bisect.bisect_left(newlines, offset) + 1

    declarations = []
    stack = []  # per open brace: True for a namespace, the entry for a class
    start = 0
    for index, c in enumerate(code):
        if c not in "{};":
            continue
        statement = code[start:index + 1]
        start = index + 1
        if c == "}":
            closed = stack.pop() if stack else True
            if isinstance(closed, list):
                closed[3] = line(index)
            continue
        at_namespace_scope = all(entry is True for entry in stack)
        declared = declared_name(statement) if at_namespace_scope else None
        entry = None
        if declared:
            entry = [*declared, line(index + 1 - len(statement.lstrip())), line(index)]
            declarations.append(entry)
        if c == "{":
            if re.search(r"\bnamespace\b[\w\s:]*\{$", statement.strip()):
                stack.append(True)
            else:
                stack.append(entry if entry and entry[0] == "class" else None)
    return declarations


def definition_mentions(line, name):
    """Mentions of `name` in the head of a column-0 definition of it.

    The head is the text before the line's first `(`: `int f`, `Foo::Foo`,
    `Foo Foo::make`, `double Foo::g`. Mentions after it (parameters, a body
    on the same line) are uses."""
    head = line.split("(", 1)[0]
    if not line[:1].strip() or "=" in head:
        return 0
    if not re.search(rf"\b{re.escape(name)}\s*(::|$)", head.rstrip()):
        return 0
    return len(re.findall(rf"\b{re.escape(name)}\b", head))


def orphan_symbols(root):
    """["path:line: kind name"] for namespace-scope symbols nobody uses."""
    root = root.resolve()
    lines = {source.resolve(): strip_comments_and_strings(
                 source.read_text(errors="replace")).split("\n")
             for source in sources(root)}
    mentions = collections.Counter()
    for text in lines.values():
        for line in text:
            mentions.update(IDENTIFIER.findall(line))

    orphans = []
    headers = sorted(path for path in lines
                     if path.suffix == ".hpp" and root / "src" in path.parents)
    for header in headers:
        code = blank_preprocessor("\n".join(lines[header]))
        spans = collections.defaultdict(list)
        for kind, name, first, last in namespace_scope_declarations(code):
            spans[(kind, name)].append((first, last))
        own_cpp = lines.get(header.with_suffix(".cpp"), [])
        for (kind, name), declared in spans.items():
            word = re.compile(rf"\b{re.escape(name)}\b")
            uses = mentions[name]
            for first, last in declared:
                uses -= sum(len(word.findall(line)) for line in lines[header][first - 1:last])
            uses -= sum(definition_mentions(line, name) for line in own_cpp)
            if uses <= 0:
                orphans.append(f"{header.relative_to(root)}:{declared[0][0]}: {kind} {name}")
    return orphans


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
    symbols = orphan_symbols(root)
    for symbol in symbols:
        print(f"{symbol}: not used outside its declaration and definition "
              f"(searched {', '.join(INCLUDER_DIRS)})", file=sys.stderr)
    return 1 if orphans or symbols else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
