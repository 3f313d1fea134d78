"""Self-tests for detlint: every rule proven on bad/good fixture pairs.

Each DET rule must (a) fire on its bad fixture with the right code and line,
(b) stay silent on the good fixture, and (c) respect its path scoping.  The
pragma machinery (justified suppression, DET000 for unjustified pragmas) and
the JSON report round-trip are covered here too, plus the gate that the
*real* tree stays clean — the test-suite twin of ``make lint-det``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import RULES, Report, check_file, check_paths

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]


def codes_and_lines(path):
    findings, suppressed = check_file(path)
    return [(f.code, f.line) for f in findings], suppressed


def codes(path):
    return [code for code, _ in codes_and_lines(path)[0]]


class TestRuleFixtures:
    def test_det001_bad_fixture_fires(self):
        found, _ = codes_and_lines(FIXTURES / "det001_bad.py")
        assert found == [
            ("DET001", 9),   # default_rng()
            ("DET001", 13),  # default_rng(None)
            ("DET001", 17),  # np.random.seed
            ("DET001", 18),  # np.random.uniform (legacy global state)
            ("DET001", 22),  # random.randint
        ]

    def test_det001_good_fixture_is_silent(self):
        assert codes(FIXTURES / "det001_good.py") == []

    def test_det002_bad_fixture_fires(self):
        found, _ = codes_and_lines(FIXTURES / "det002_bad.py")
        assert found == [("DET002", 8), ("DET002", 9), ("DET002", 10)]

    def test_det002_good_fixture_is_silent(self):
        assert codes(FIXTURES / "det002_good.py") == []

    def test_det003_bad_fixture_fires(self):
        found, _ = codes_and_lines(FIXTURES / "det003_bad.py")
        assert found == [("DET003", 7), ("DET003", 11)]

    def test_det003_good_fixture_is_silent(self):
        assert codes(FIXTURES / "det003_good.py") == []

    def test_det004_bad_fixture_fires(self):
        found, _ = codes_and_lines(FIXTURES / "det004" / "core" / "bad.py")
        assert found == [
            ("DET004", 6),   # for worker in set(workers)
            ("DET004", 8),   # for flag in {"cpu", "disk"}
            ("DET004", 10),  # comprehension over queues.keys()
        ]

    def test_det004_good_fixture_is_silent(self):
        assert codes(FIXTURES / "det004" / "core" / "good.py") == []

    def test_det004_fires_where_knob_order_is_draw_order(self):
        # In configspace/ and optimizers/ the knob-iteration order is the
        # candidate pool's RNG draw order.
        found, _ = codes_and_lines(FIXTURES / "det004" / "configspace" / "bad.py")
        assert found == [("DET004", 6)]  # for name in set(space.names)
        found, _ = codes_and_lines(FIXTURES / "det004" / "optimizers" / "bad.py")
        assert found == [("DET004", 5)]  # comprehension over base.keys()

    def test_det004_is_scoped_to_ordering_sensitive_trees(self):
        assert codes(FIXTURES / "det004" / "elsewhere" / "unscoped.py") == []

    def test_det005_bad_fixture_fires(self):
        found, _ = codes_and_lines(FIXTURES / "det005" / "scheduler.py")
        assert found == [("DET005", 7), ("DET005", 8)]

    def test_det005_good_fixture_is_silent(self):
        assert codes(FIXTURES / "det005" / "good" / "scheduler.py") == []

    def test_det005_is_scoped_to_tiebreak_sensitive_modules(self):
        assert codes(FIXTURES / "det005" / "unscoped" / "helpers.py") == []

    def test_det006_bad_fixture_fires(self):
        found, _ = codes_and_lines(FIXTURES / "det006_bad.py")
        assert found == [("DET006", 5), ("DET006", 6), ("DET006", 7)]

    def test_det006_good_fixture_is_silent(self):
        assert codes(FIXTURES / "det006_good.py") == []

    def test_det007_bad_fixture_fires(self):
        found, _ = codes_and_lines(FIXTURES / "det007" / "core" / "bad.py")
        assert found == [
            ("DET007", 7),   # bare except
            ("DET007", 14),  # except Exception: pass
            ("DET007", 21),  # tuple containing BaseException, body = ...
        ]

    def test_det007_good_fixture_is_silent(self):
        assert codes(FIXTURES / "det007" / "core" / "good.py") == []

    def test_det007_is_scoped_to_core_and_faults(self):
        assert codes(FIXTURES / "det007" / "elsewhere" / "unscoped.py") == []


class TestPragmas:
    def test_justified_pragma_suppresses_and_is_counted(self):
        found, suppressed = codes_and_lines(FIXTURES / "det002_pragma.py")
        assert found == []
        assert suppressed == 1

    def test_unjustified_pragma_suppresses_nothing_and_reports_det000(self):
        found, suppressed = codes_and_lines(FIXTURES / "det000_unjustified.py")
        assert suppressed == 0
        assert ("DET002", 7) in found
        assert ("DET000", 7) in found

    def test_pragma_on_preceding_line_covers_the_next_line(self):
        source = (
            "import time\n"
            "\n"
            "\n"
            "def stamp():\n"
            "    # detlint: allow[DET002] -- provenance only\n"
            "    return time.time()\n"
        )
        findings, suppressed = check_file("virtual.py", source=source)
        assert findings == []
        assert suppressed == 1

    def test_wildcard_pragma_covers_every_code(self):
        source = (
            "import time\n"
            "\n"
            "\n"
            "def stamp():\n"
            "    return time.time()  # detlint: allow[*] -- fixture for wildcard\n"
        )
        findings, suppressed = check_file("virtual.py", source=source)
        assert findings == []
        assert suppressed == 1


class TestScopedPragmas:
    """DET002's exemption surface inside ``obs/`` is one file: ``clock.py``."""

    def test_bare_wall_clock_in_obs_fires(self):
        found, suppressed = codes_and_lines(FIXTURES / "obs" / "bad_timer.py")
        assert found == [("DET002", 7)]
        assert suppressed == 0

    def test_justified_pragma_outside_clock_py_is_refused(self):
        found, suppressed = codes_and_lines(FIXTURES / "obs" / "pragma_refused.py")
        assert ("DET002", 8) in found
        assert suppressed == 0

    def test_clock_py_pragma_still_suppresses(self):
        found, suppressed = codes_and_lines(FIXTURES / "obs" / "clock.py")
        assert found == []
        assert suppressed == 1

    def test_real_clock_shim_is_the_only_obs_suppression(self):
        shim = REPO_ROOT / "src" / "repro" / "obs" / "clock.py"
        findings, suppressed = check_file(shim)
        assert findings == []
        assert suppressed == 1


class TestReport:
    def test_json_report_round_trip(self):
        report = check_paths([FIXTURES / "det001_bad.py", FIXTURES / "det002_bad.py"])
        assert not report.ok
        assert report.n_files == 2
        clone = Report.from_json(report.to_json())
        assert clone.findings == report.findings
        assert clone.n_suppressed == report.n_suppressed
        assert clone.n_files == report.n_files

    def test_report_dict_schema(self):
        report = check_paths([FIXTURES / "det006_bad.py"])
        data = json.loads(report.to_json())
        assert data["version"] == 1
        assert data["n_findings"] == len(data["findings"]) == 3
        for finding in data["findings"]:
            assert set(finding) == {"path", "line", "col", "code", "message"}

    def test_directory_walks_skip_fixtures_but_explicit_files_do_not(self):
        walked = check_paths([FIXTURES.parent])  # tests/analysis/
        assert walked.ok  # the fixture violations are excluded from walks
        explicit = check_paths([FIXTURES / "det001_bad.py"])
        assert not explicit.ok

    def test_syntax_error_is_reported_not_raised(self):
        findings, _ = check_file("broken.py", source="def broken(:\n")
        assert [f.code for f in findings] == ["DET999"]


class TestCommandLine:
    def _run(self, *args):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        return subprocess.run(
            [sys.executable, "-m", "repro.analysis", *args],
            capture_output=True,
            text=True,
            env=env,
            cwd=str(REPO_ROOT),
        )

    def test_cli_exits_nonzero_on_findings_and_writes_json(self, tmp_path):
        out = tmp_path / "report.json"
        proc = self._run(
            str(FIXTURES / "det005" / "scheduler.py"), "--json", str(out)
        )
        assert proc.returncode == 1
        assert "DET005" in proc.stdout
        data = json.loads(out.read_text())
        assert data["n_findings"] == 2

    def test_cli_exits_zero_on_clean_input(self):
        proc = self._run(str(FIXTURES / "det002_good.py"))
        assert proc.returncode == 0
        assert "clean" in proc.stdout

    def test_cli_lists_every_registered_rule(self):
        proc = self._run("--list-rules")
        assert proc.returncode == 0
        for rule_cls in RULES:
            assert rule_cls.code in proc.stdout

    def test_cli_rejects_missing_paths(self):
        proc = self._run("does/not/exist.py")
        assert proc.returncode == 2


class TestRegistry:
    def test_rule_codes_are_unique_and_ordered(self):
        rule_codes = [rule_cls.code for rule_cls in RULES]
        assert rule_codes == sorted(set(rule_codes))
        assert rule_codes == [f"DET00{i}" for i in range(1, 8)]

    def test_every_rule_documents_itself(self):
        for rule_cls in RULES:
            assert rule_cls.title and rule_cls.rationale


@pytest.mark.filterwarnings("ignore")
def test_the_real_tree_is_clean():
    """The merge gate: detlint over src/tests/benchmarks finds nothing.

    Every intentional exception must carry a justified allow-pragma —
    an unjustified one resurfaces here as DET000.
    """
    report = check_paths(
        [REPO_ROOT / "src", REPO_ROOT / "tests", REPO_ROOT / "benchmarks"]
    )
    assert report.ok, "\n" + "\n".join(f.render() for f in report.findings)
    assert report.n_suppressed >= 1  # the eventlog provenance stamp, at least
