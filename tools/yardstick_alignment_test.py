#!/usr/bin/env python3
"""Tests for tools/yardstick_alignment.py on canned nm and size output.

Registered in ctest (tests/CMakeLists.txt). No binary is built: stand-in
nm and size scripts print the canned text.
"""

import pathlib
import stat
import subprocess
import sys
import tempfile
import unittest

TOOLS = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(TOOLS))

import yardstick_alignment  # noqa: E402

NM_AT_16 = """\
0000000000021a40 t (anonymous namespace)::sampled_yardstick(std::vector<int, std::allocator<int> > const&)
000000000000f3c2 t (anonymous namespace)::heap_hold_s() [clone .cold]
0000000000021b10 t (anonymous namespace)::heap_hold_s()
0000000000021c80 t (anonymous namespace)::heap_hold_s_probe()
                 U operator delete(void*, unsigned long)
"""

SIZE_A = """\
mcbench  :
section                size      addr
.interp                  28       792
.init                    27    126976
.text                525122    128768
.fini                    13    653892
Total               1043207
"""


def write_tool(directory, name, text):
    """A stand-in for `name` that prints `text` whatever its arguments."""
    path = pathlib.Path(directory) / name
    canned = pathlib.Path(directory) / (name + ".txt")
    canned.write_text(text)
    path.write_text(f"#!/bin/sh\ncat '{canned}'\n")
    path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return path


class ParseTest(unittest.TestCase):
    def test_finds_the_function_not_its_cold_clone(self):
        self.assertEqual(yardstick_alignment.yardstick_address(NM_AT_16), 0x21b10)

    def test_finds_a_global_symbol(self):
        self.assertEqual(
            yardstick_alignment.yardstick_address("0000000000021bb0 T heap_hold_s()\n"),
            0x21bb0)

    def test_missing_symbol(self):
        self.assertIsNone(yardstick_alignment.yardstick_address("0000 T main\n"))

    def test_text_size(self):
        self.assertEqual(yardstick_alignment.text_size(SIZE_A), 525122)
        self.assertIsNone(yardstick_alignment.text_size("section size addr\n"))


class CommandTest(unittest.TestCase):
    def run_tool(self, nm_text, *extra):
        with tempfile.TemporaryDirectory() as directory:
            nm = write_tool(directory, "nm", nm_text)
            size = write_tool(directory, "size", SIZE_A)
            return subprocess.run(
                [sys.executable, str(TOOLS / "yardstick_alignment.py"), "mcbench",
                 f"--nm={nm}", f"--size={size}", *extra],
                capture_output=True, text=True)

    def test_expected_offset_passes_and_reports(self):
        result = self.run_tool(NM_AT_16)
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("heap_hold_s: 0x21b10 (16 mod 64)", result.stdout)
        self.assertIn(".text: 525122 bytes", result.stdout)

    def test_moved_yardstick_fails(self):
        result = self.run_tool(NM_AT_16.replace("21b10", "21bb0"))
        self.assertEqual(result.returncode, 1)
        self.assertIn("heap_hold_s: 0x21bb0 (48 mod 64)", result.stdout)
        self.assertIn("at 48 mod 64, expected 16", result.stderr)

    def test_expect_option(self):
        result = self.run_tool(NM_AT_16.replace("21b10", "21bb0"), "--expect=48")
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_unreadable_binary_fails_without_a_traceback(self):
        result = subprocess.run(
            [sys.executable, str(TOOLS / "yardstick_alignment.py"), "no-such-mcbench",
             "--nm=/bin/false"], capture_output=True, text=True)
        self.assertEqual(result.returncode, 1)
        self.assertNotIn("Traceback", result.stderr)

    def test_missing_symbol_fails(self):
        result = self.run_tool("0000000000001000 T main\n")
        self.assertEqual(result.returncode, 1)
        self.assertIn("no heap_hold_s() symbol", result.stderr)


if __name__ == "__main__":
    unittest.main()
