#!/usr/bin/env python3
"""Fixture suite for tools/ssr_analyze.py.

Every analyzer rule has a deliberately-broken fixture it must flag and a
clean fixture it must pass; the repo-sweep fixture exclusion and the
command line are covered too.  Runs under ctest as
`analyze.ssr_analyze_fixtures` (stdlib unittest; no pytest dependency in the
container).
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent.parent
ANALYZE = REPO / "tools" / "ssr_analyze.py"
FIXTURES = REPO / "tests" / "analyze" / "fixtures"

RULES = [
    "nondet-iteration",
    "pointer-keyed-order",
    "lock-discipline",
    "observer-schema",
    "sim-time-arith",
    "nondet-api",
    "no-assert",
    "pragma-once",
]

# rule -> minimum number of findings its bad fixture must produce.
EXPECTED_MIN = {
    "nondet-iteration": 3,
    "pointer-keyed-order": 2,
    "lock-discipline": 1,
    "observer-schema": 3,
    "sim-time-arith": 3,
    "nondet-api": 6,
    "no-assert": 3,
    "pragma-once": 1,
}

# Extra fixture pairs that exercise one rule beyond its primary fixture:
# fixture stem -> (rule, minimum findings in the bad variant).  The
# policy_selector pair pins the StageSelector dispatch-path closure — a
# selector override (or a helper below it) iterating an unordered container
# must be flagged even though it never calls a sink itself.
EXTRA_PAIRS = {
    "policy_selector": ("nondet-iteration", 3),
}


def run_analyzer(*args):
    """Returns (exit_code, findings list, raw stdout)."""
    proc = subprocess.run(
        [sys.executable, str(ANALYZE), "--json", "-", "--root", str(REPO),
         *[str(a) for a in args]],
        capture_output=True, text=True, cwd=REPO)
    findings = []
    if proc.stdout:
        # --json - prints the JSON doc after the human lines; the doc is the
        # last {...} block.
        start = proc.stdout.find('{\n  "schema"')
        if start != -1:
            findings = json.loads(proc.stdout[start:])["findings"]
    return proc.returncode, findings, proc.stdout + proc.stderr


def fixture(kind, stem):
    """`<kind>/<stem>.cpp`, or `<stem>.h` for a rule that checks headers."""
    path = FIXTURES / kind / (stem + ".cpp")
    return path if path.is_file() else path.with_suffix(".h")


class BadFixturesAreFlagged(unittest.TestCase):
    def check_bad(self, stem, rule, expected_min):
        path = fixture("bad", stem)
        self.assertTrue(path.is_file(), f"missing fixture {path}")
        code, findings, out = run_analyzer(path)
        hits = [f for f in findings if f["rule"] == rule]
        self.assertEqual(code, 1, f"{stem}: expected exit 1, got {code}\n{out}")
        self.assertGreaterEqual(
            len(hits), expected_min,
            f"{stem}: expected >= {expected_min} findings, "
            f"got {len(hits)}\n{out}")
        wrong = [f for f in findings if f["rule"] != rule]
        self.assertEqual(
            wrong, [], f"{stem}: unexpected cross-rule findings\n{out}")


# One test method per rule so a broken rule names itself in the ctest log.
for _rule in RULES:
    def _make(rule):
        return lambda self: self.check_bad(
            rule.replace("-", "_"), rule, EXPECTED_MIN[rule])
    setattr(BadFixturesAreFlagged, f"test_{_rule.replace('-', '_')}",
            _make(_rule))

for _stem, (_rule, _min) in EXTRA_PAIRS.items():
    def _make_extra(stem, rule, expected_min):
        return lambda self: self.check_bad(stem, rule, expected_min)
    setattr(BadFixturesAreFlagged, f"test_{_stem}",
            _make_extra(_stem, _rule, _min))


class CleanFixturesPass(unittest.TestCase):
    def check_clean(self, stem):
        path = fixture("clean", stem)
        self.assertTrue(path.is_file(), f"missing fixture {path}")
        code, findings, out = run_analyzer(path)
        self.assertEqual(code, 0, f"{stem}: clean fixture flagged\n{out}")
        self.assertEqual(findings, [])


for _stem in [r.replace("-", "_") for r in RULES] + sorted(EXTRA_PAIRS):
    def _make_clean(stem):
        return lambda self: self.check_clean(stem)
    setattr(CleanFixturesPass, f"test_{_stem}", _make_clean(_stem))


class RepoSweep(unittest.TestCase):
    def test_fixture_corpus_is_excluded_from_sweeps(self):
        # A directory sweep over tests/ must skip the deliberately-broken
        # corpus — if it didn't, the seeded bugs above would all fire here.
        code, findings, out = run_analyzer("tests")
        self.assertEqual(code, 0, out)
        self.assertEqual(findings, [])

    def test_list_rules(self):
        proc = subprocess.run(
            [sys.executable, str(ANALYZE), "--list-rules"],
            capture_output=True, text=True, cwd=REPO)
        self.assertEqual(proc.returncode, 0)
        for rule in RULES:
            self.assertIn(rule, proc.stdout)

    def test_baseline_flags_are_usage_errors(self):
        # Findings are the gate: there is no baseline to record them in.
        for flag in ("--baseline", "--update-baseline"):
            proc = subprocess.run(
                [sys.executable, str(ANALYZE), flag, "x.json", "src"],
                capture_output=True, text=True, cwd=REPO)
            self.assertEqual(proc.returncode, 2, flag)


if __name__ == "__main__":
    unittest.main()
