#!/usr/bin/env python3
"""Tests for tools/mwsj_check.py against the golden check fixtures.

Run via ctest (tools_mwsj_check_test) or directly:
    python3 tests/tools/mwsj_check_test.py

The fixtures under tests/tools/check_fixtures/ are analyzer inputs, never
compiled by the build. Each rule has a violating, a clean, and a suppressed
fixture. The suite always runs the textual frontend (available everywhere);
when the python clang bindings are importable it re-runs the bad/clean
fixtures under the libclang frontend against a generated compilation
database and asserts the two frontends agree.
"""

import json
import pathlib
import re
import subprocess
import sys
import tempfile
import unittest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent.parent
CHECK = REPO_ROOT / "tools" / "mwsj_check.py"
FIXTURES = REPO_ROOT / "tests" / "tools" / "check_fixtures"
BASELINE = REPO_ROOT / "tools" / "mwsj_check_baseline.txt"

DIAG_RE = re.compile(
    r"^(?P<path>[^:]+):(?P<line>\d+): \[(?P<rule>[a-z0-9\-]+)\] ")

# fixture (relative to the fixture root) -> the one rule it violates.
BAD_FIXTURES = {
    "alloc_free_bad.cc": "alloc-free-reach",
    "emit_determinism_bad.cc": "emit-determinism",
    "blocking_bad.cc": "blocking-reach",
    "lock_order_bad.cc": "lock-order",
    "hot_shared_rmw_bad.cc": "hot-shared-rmw",
    "hot_shared_rmw_member_bad.cc": "hot-shared-rmw",
    "bad_suppression.cc": "bad-suppression",
}

CLEAN_FIXTURES = [
    "alloc_free_clean.cc",
    "alloc_free_suppressed.cc",
    "emit_determinism_clean.cc",
    "emit_determinism_suppressed.cc",
    "blocking_clean.cc",
    "blocking_suppressed.cc",
    "lock_order_clean.cc",
    "lock_order_suppressed.cc",
    "hot_shared_rmw_clean.cc",
    "hot_shared_rmw_suppressed.cc",
]


def run_check(*args):
    return subprocess.run(
        [sys.executable, str(CHECK), "--frontend=textual", *args],
        capture_output=True, text=True, cwd=REPO_ROOT, check=False)


def parse_diags(stdout):
    diags = []
    for line in stdout.splitlines():
        m = DIAG_RE.match(line)
        if m:
            diags.append((m.group("path"), int(m.group("line")),
                          m.group("rule")))
    return diags


def have_libclang():
    probe = ("import tools.mwsj_check as mc, sys; "
             "sys.exit(0 if mc.load_cindex() is not None else 1)")
    return subprocess.run([sys.executable, "-c", probe], cwd=REPO_ROOT,
                          capture_output=True).returncode == 0


class MwsjCheckFixtureTest(unittest.TestCase):
    def check_fixture(self, rel, *extra):
        return run_check("--root", str(FIXTURES), *extra, rel)

    def test_each_bad_fixture_violates_exactly_its_rule(self):
        for rel, rule in BAD_FIXTURES.items():
            with self.subTest(fixture=rel):
                proc = self.check_fixture(rel)
                self.assertEqual(proc.returncode, 1,
                                 f"{rel}: expected exit 1, got "
                                 f"{proc.returncode}\n{proc.stdout}"
                                 f"{proc.stderr}")
                diags = parse_diags(proc.stdout)
                self.assertEqual(len(diags), 1,
                                 f"{rel}: expected exactly one diagnostic, "
                                 f"got: {proc.stdout}")
                path, line, got_rule = diags[0]
                self.assertEqual(got_rule, rule, f"{rel}: wrong rule id")
                self.assertTrue(path.endswith(rel),
                                f"{rel}: diagnostic names wrong file {path}")
                self.assertGreater(line, 0)

    def test_clean_and_suppressed_fixtures_pass(self):
        for rel in CLEAN_FIXTURES:
            with self.subTest(fixture=rel):
                proc = self.check_fixture(rel)
                self.assertEqual(proc.returncode, 0,
                                 f"{rel}: expected exit 0\n{proc.stdout}"
                                 f"{proc.stderr}")
                self.assertEqual(parse_diags(proc.stdout), [],
                                 f"{rel}: unexpected diagnostics: "
                                 f"{proc.stdout}")

    def test_disabling_a_rule_silences_exactly_its_fixture(self):
        # Proves each bad fixture's diagnostic comes from its rule alone —
        # and pins that the rule is what keeps the fixture failing: if the
        # rule stopped firing, test_each_bad_fixture... would fail too.
        for rel, rule in BAD_FIXTURES.items():
            if rule == "bad-suppression":
                continue  # not disableable; it guards the allow grammar
            with self.subTest(fixture=rel):
                proc = self.check_fixture(rel, "--disable", rule)
                self.assertEqual(proc.returncode, 0,
                                 f"{rel}: still failing with {rule} "
                                 f"disabled:\n{proc.stdout}{proc.stderr}")
                self.assertEqual(parse_diags(proc.stdout), [])

    def test_unknown_disable_rule_is_a_usage_error(self):
        proc = self.check_fixture("alloc_free_clean.cc",
                                  "--disable", "no-such-rule")
        self.assertEqual(proc.returncode, 2)

    def test_baseline_suppresses_justified_findings(self):
        with tempfile.TemporaryDirectory() as td:
            bl = pathlib.Path(td) / "baseline.txt"
            bl.write_text(
                "# fixture baseline\n"
                "alloc-free-reach|alloc_free_bad.cc|Accumulate|"
                "fixture: growth is bounded by the test harness\n")
            proc = self.check_fixture("alloc_free_bad.cc",
                                      "--baseline", str(bl))
            self.assertEqual(proc.returncode, 0,
                             f"baselined finding still reported:\n"
                             f"{proc.stdout}{proc.stderr}")

    def test_baseline_wildcard_function_matches(self):
        with tempfile.TemporaryDirectory() as td:
            bl = pathlib.Path(td) / "baseline.txt"
            bl.write_text("emit-determinism|emit_determinism_bad.cc|*|"
                          "fixture: wildcard entry\n")
            proc = self.check_fixture("emit_determinism_bad.cc",
                                      "--baseline", str(bl))
            self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_stale_baseline_entry_fails_the_run(self):
        with tempfile.TemporaryDirectory() as td:
            bl = pathlib.Path(td) / "baseline.txt"
            bl.write_text("lock-order|no_such_file.cc|*|stale entry\n")
            proc = self.check_fixture("alloc_free_clean.cc",
                                      "--baseline", str(bl))
            self.assertEqual(proc.returncode, 1,
                             "stale baseline entry must fail the run")
            self.assertIn("stale-baseline", proc.stdout)

    def test_baseline_entry_without_justification_is_rejected(self):
        with tempfile.TemporaryDirectory() as td:
            bl = pathlib.Path(td) / "baseline.txt"
            bl.write_text("alloc-free-reach|alloc_free_bad.cc|Accumulate|\n")
            proc = self.check_fixture("alloc_free_bad.cc",
                                      "--baseline", str(bl))
            self.assertNotEqual(proc.returncode, 0)
            self.assertIn("justification", proc.stdout + proc.stderr)

    def test_report_file_is_written(self):
        with tempfile.TemporaryDirectory() as td:
            rp = pathlib.Path(td) / "report.txt"
            proc = self.check_fixture("lock_order_bad.cc",
                                      "--report", str(rp))
            self.assertEqual(proc.returncode, 1)
            self.assertTrue(rp.exists())
            self.assertIn("lock-order", rp.read_text())

    def test_real_tree_is_clean_under_baseline(self):
        # The same gate CI applies (and the mwsj_check_tree ctest): src/
        # analyzes clean modulo the justified baseline.
        proc = run_check("--baseline", str(BASELINE), "src")
        self.assertEqual(proc.returncode, 0,
                         f"src/ has unbaselined findings:\n{proc.stdout}"
                         f"{proc.stderr}")

    def test_list_rules_names_all_five_graph_rules(self):
        proc = run_check("--list-rules")
        self.assertEqual(proc.returncode, 0)
        for rule in ("alloc-free-reach", "emit-determinism",
                     "blocking-reach", "hot-shared-rmw", "lock-order"):
            self.assertIn(rule, proc.stdout)


@unittest.skipUnless(have_libclang(),
                     "python clang bindings / libclang unavailable")
class MwsjCheckLibclangParityTest(unittest.TestCase):
    """The libclang frontend must agree with the textual one on fixtures."""

    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        compdb = []
        for cc in sorted(FIXTURES.glob("*.cc")):
            compdb.append({
                "directory": str(FIXTURES),
                "file": str(cc),
                "command": (f"clang++ -std=c++20 -I{REPO_ROOT / 'src'} "
                            f"-c {cc}"),
            })
        cls.compdb_path = pathlib.Path(cls.tmp.name)
        (cls.compdb_path / "compile_commands.json").write_text(
            json.dumps(compdb))

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def check_libclang(self, rel):
        return subprocess.run(
            [sys.executable, str(CHECK), "--frontend=libclang",
             "--compdb", str(self.compdb_path),
             "--root", str(FIXTURES), rel],
            capture_output=True, text=True, cwd=REPO_ROOT, check=False)

    def test_frontends_agree_on_fixtures(self):
        for rel, rule in BAD_FIXTURES.items():
            with self.subTest(fixture=rel):
                proc = self.check_libclang(rel)
                self.assertEqual(proc.returncode, 1,
                                 f"{rel}: libclang frontend disagrees:\n"
                                 f"{proc.stdout}{proc.stderr}")
                rules = {r for _p, _l, r in parse_diags(proc.stdout)}
                self.assertEqual(rules, {rule}, f"{rel}: {proc.stdout}")
        for rel in CLEAN_FIXTURES:
            with self.subTest(fixture=rel):
                proc = self.check_libclang(rel)
                self.assertEqual(proc.returncode, 0,
                                 f"{rel}: libclang frontend disagrees:\n"
                                 f"{proc.stdout}{proc.stderr}")


if __name__ == "__main__":
    unittest.main(verbosity=2)
