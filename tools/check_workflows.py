#!/usr/bin/env python3
"""Load every GitHub Actions workflow with yaml.safe_load.

A workflow file that no longer parses disables its whole pipeline without
a failing job to show for it, so the suite checks that each one parses and
holds a jobs mapping.

    python3 tools/check_workflows.py [repo root]

Exit status: 0 when every workflow parses, 1 when one does not (or none
is found), 77 when PyYAML is missing (ctest reports that as skipped).
"""

import pathlib
import sys

SKIP = 77


def main(argv):
    root = (pathlib.Path(argv[1]) if len(argv) > 1
            else pathlib.Path(__file__).resolve().parent.parent)
    try:
        import yaml
    except ImportError:
        print("PyYAML is not installed; workflows not checked", file=sys.stderr)
        return SKIP

    workflows = sorted((root / ".github" / "workflows").glob("*.y*ml"))
    if not workflows:
        print(f"no workflow files under {root / '.github' / 'workflows'}",
              file=sys.stderr)
        return 1
    failed = 0
    for path in workflows:
        name = path.relative_to(root)
        try:
            document = yaml.safe_load(path.read_text())
        except yaml.YAMLError as error:
            print(f"{name}: {error}", file=sys.stderr)
            failed += 1
            continue
        if not isinstance(document, dict) or not isinstance(document.get("jobs"), dict):
            print(f"{name}: parses, but holds no jobs mapping", file=sys.stderr)
            failed += 1
            continue
        print(f"{name}: ok ({len(document['jobs'])} jobs)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
