#!/usr/bin/env python3
"""Tests for tools/orphan_headers.py on small fixture trees.

The negative case is the point: a tree with one orphan header MUST exit 1
and name it, or the check on the real tree protects nothing. Registered in
ctest (tests/CMakeLists.txt).
"""

import pathlib
import subprocess
import sys
import tempfile
import unittest

SCRIPT = pathlib.Path(__file__).resolve().parent / "orphan_headers.py"


class OrphanHeadersTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.root = pathlib.Path(self.tmp.name)

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, relative, text):
        path = self.root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)

    def run_check(self):
        return subprocess.run([sys.executable, str(SCRIPT), str(self.root)],
                              capture_output=True, text=True)

    def used_tree(self):
        self.write("src/a/used.hpp", "#pragma once\n")
        self.write("src/a/used.cpp", '#include "a/used.hpp"\n')
        self.write("src/b/user.hpp", '#pragma once\n#include "a/used.hpp"\n')
        self.write("src/b/user.cpp", '#include "b/user.hpp"\n')
        self.write("tools/main.cpp", '#include "b/user.hpp"\n')

    def test_every_header_included_passes(self):
        self.used_tree()
        result = self.run_check()
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertEqual(result.stderr, "")

    def test_one_orphan_fails_and_is_named(self):
        self.used_tree()
        self.write("src/c/orphan.hpp", "#pragma once\n")
        self.write("src/c/orphan.cpp", '#include "c/orphan.hpp"\n')
        # Tests do not count as includers.
        self.write("tests/orphan_test.cpp", '#include "c/orphan.hpp"\n')
        result = self.run_check()
        self.assertEqual(result.returncode, 1)
        self.assertIn("src/c/orphan.hpp", result.stderr)
        self.assertNotIn("used.hpp", result.stderr)

    def test_same_directory_include_counts(self):
        self.used_tree()
        self.write("src/c/helper.hpp", "#pragma once\n")
        self.write("src/c/other.cpp", '#include "helper.hpp"\n')
        self.assertEqual(self.run_check().returncode, 0)

    def test_bench_examples_and_perfbench_count(self):
        self.used_tree()
        for directory in ("bench", "examples", "perfbench"):
            self.write(f"src/{directory}_only.hpp", "#pragma once\n")
            self.write(f"{directory}/main.cpp", f'#include "{directory}_only.hpp"\n')
        self.assertEqual(self.run_check().returncode, 0)


if __name__ == "__main__":
    unittest.main()
