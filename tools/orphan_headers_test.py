#!/usr/bin/env python3
"""Tests for tools/orphan_headers.py on small fixture trees.

The negative cases are the point: a tree with one orphan header, or one
class or free function nothing outside the tests uses, MUST exit 1 and
name it, or the check on the real tree protects nothing. Registered in
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


class OrphanSymbolsTest(unittest.TestCase):
    """The symbol rule: namespace-scope classes and free functions."""

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

    def library(self, header, source, user):
        """src/lib/lib.{hpp,cpp}, a tools/ user and a test that calls all."""
        self.write("src/lib/lib.hpp", "#pragma once\nnamespace ns {\n" + header + "}\n")
        self.write("src/lib/lib.cpp",
                   '#include "lib/lib.hpp"\nnamespace ns {\n' + source + "}\n")
        self.write("tools/main.cpp",
                   '#include "lib/lib.hpp"\nint main() {\n' + user + "  return 0;\n}\n")
        self.write("tests/lib_test.cpp",
                   '#include "lib/lib.hpp"\nvoid t() { ns::used(1); ns::unused(1); '
                   "ns::Unused u; u.f(); }\n")

    def test_every_symbol_used_passes(self):
        self.library("int used(int x);\nclass Used {\n public:\n  Used();\n};\n",
                     "int used(int x) { return x; }\nUsed::Used() {}\n",
                     "  ns::Used u;\n  return ns::used(2);\n")
        result = self.run_check()
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertEqual(result.stderr, "")

    def test_unreferenced_free_function_fails_and_is_named(self):
        # Its declaration, its column-0 definition and a test call do not
        # count; neither does a mention in a comment or a string.
        self.library("int used(int x);\n[[nodiscard]] int unused(int x);\n",
                     "int used(int x) { return x; }\nint unused(int x) { return x; }\n",
                     '  // unused(1)\n  const char* s = "unused(1)";\n  (void)s;\n'
                     "  return ns::used(2);\n")
        result = self.run_check()
        self.assertEqual(result.returncode, 1)
        self.assertIn("src/lib/lib.hpp:4: function unused", result.stderr)
        self.assertNotIn("function used", result.stderr)

    def test_unreferenced_class_fails_and_is_named(self):
        # Its own body names it (the constructor), and so do the member
        # definitions in its .cpp; none of that is a use.
        self.library("int used(int x);\nclass Unused final {\n public:\n  Unused();\n"
                     "  void f() const;\n  static Unused make();\n};\n",
                     "int used(int x) { return x; }\nUnused::Unused() {}\n"
                     "void Unused::f() const {}\nUnused Unused::make() { return {}; }\n",
                     "  return ns::used(2);\n")
        result = self.run_check()
        self.assertEqual(result.returncode, 1)
        self.assertIn("src/lib/lib.hpp:4: class Unused", result.stderr)

    def test_function_used_only_through_a_macro_in_its_own_header_passes(self):
        self.library("void emit(int x);\nint used(int x);\n"
                     "#define LIB_EMIT(x) ::ns::emit(x)\n",
                     "void emit(int) {}\nint used(int x) { return x; }\n",
                     "  LIB_EMIT(1);\n  return ns::used(2);\n")
        result = self.run_check()
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_base_class_named_only_by_a_derived_class_in_its_header_passes(self):
        self.library("class Base {\n public:\n  virtual ~Base() = default;\n};\n"
                     "class Derived final : public Base {};\nint used(int x);\n",
                     "int used(int x) { return x; }\n",
                     "  ns::Derived d;\n  (void)d;\n  return ns::used(2);\n")
        result = self.run_check()
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_a_call_inside_its_own_cpp_counts(self):
        self.library("int helper(int x);\nint used(int x);\n",
                     "int helper(int x) { return x; }\nint used(int x) { return helper(x); }\n",
                     "  return ns::used(2);\n")
        self.assertEqual(self.run_check().returncode, 0)


if __name__ == "__main__":
    unittest.main()
