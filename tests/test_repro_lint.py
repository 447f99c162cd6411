"""Unit tests for the determinism lint (tools/lint/repro_lint.py).

Each custom rule (RL001-RL004, RL006) gets a minimal violating snippet
and a matching compliant one, plus the scoping exemptions (exec in the
compiler, re-raising handlers, ``__del__``) and the suppression comment
grammar.  The final test runs
the real linter over the real tree -- the codebase itself must be clean.
"""

import importlib.util
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SPEC = importlib.util.spec_from_file_location(
    "repro_lint", os.path.join(REPO_ROOT, "tools", "lint", "repro_lint.py")
)
repro_lint = importlib.util.module_from_spec(_SPEC)
sys.modules["repro_lint"] = repro_lint  # dataclasses resolve the module
_SPEC.loader.exec_module(repro_lint)

lint_source = repro_lint.lint_source


def rules_of(violations):
    return sorted({v.rule for v in violations})


class TestRL001Sha1:
    def test_hashlib_sha1_call(self):
        src = "import hashlib\nh = hashlib.sha1(b'x')\n"
        assert rules_of(lint_source(src, "src/repro/x.py")) == ["RL001"]

    def test_from_import(self):
        src = "from hashlib import sha1\n"
        assert rules_of(lint_source(src, "tools/x.py")) == ["RL001"]

    def test_sha256_is_fine(self):
        src = "import hashlib\nh = hashlib.sha256(b'x')\n"
        assert lint_source(src, "src/repro/x.py") == []


class TestRL002ModuleLevelRandom:
    def test_module_level_call(self):
        src = "import random\nSEED = random.randint(0, 10)\n"
        assert "RL002" in rules_of(lint_source(src, "src/repro/x.py"))

    def test_from_import_of_function(self):
        src = "from random import randint\n"
        assert "RL002" in rules_of(lint_source(src, "src/repro/x.py"))

    def test_random_class_is_fine(self):
        src = "from random import Random\nrng = Random(7)\n"
        assert lint_source(src, "src/repro/x.py") == []

    def test_outside_repro_is_fine(self):
        src = "import random\nx = random.random()\n"
        assert lint_source(src, "tests/x.py") == []


class TestRL003WallClock:
    def test_time_time_in_suite(self):
        src = "import time\nstamp = time.time()\n"
        assert rules_of(lint_source(src, "src/repro/suite/x.py")) == ["RL003"]

    def test_datetime_now_in_suite(self):
        src = "import datetime\nd = datetime.datetime.now()\n"
        assert rules_of(lint_source(src, "src/repro/suite/x.py")) == ["RL003"]

    def test_wall_clock_elsewhere_is_fine(self):
        src = "import time\nstamp = time.time()\n"
        assert lint_source(src, "src/repro/faults/x.py") == []

    def test_monotonic_is_fine(self):
        src = "import time\nstamp = time.monotonic()\n"
        assert lint_source(src, "src/repro/suite/x.py") == []


class TestRL004Exec:
    def test_exec_flagged(self):
        src = "exec('x = 1')\n"
        assert rules_of(lint_source(src, "src/repro/x.py")) == ["RL004"]

    def test_exec_allowed_in_compiler(self):
        src = "exec('x = 1')\n"
        assert lint_source(src, "src/repro/netlist/compiled.py") == []


class TestRL006SwallowedExceptions:
    def test_bare_except_pass(self):
        src = "try:\n    x = 1\nexcept Exception:\n    pass\n"
        assert rules_of(lint_source(src, "src/repro/x.py")) == ["RL006"]

    def test_bare_except_anywhere(self):
        src = "try:\n    x = 1\nexcept:\n    pass\n"
        assert rules_of(lint_source(src, "tools/x.py")) == ["RL006"]

    def test_reraise_is_fine(self):
        src = "try:\n    x = 1\nexcept Exception:\n    raise\n"
        assert lint_source(src, "src/repro/x.py") == []

    def test_narrow_except_is_fine(self):
        src = "try:\n    x = 1\nexcept ValueError:\n    pass\n"
        assert lint_source(src, "src/repro/x.py") == []

    def test_del_method_exempt(self):
        src = (
            "class A:\n"
            "    def __del__(self):\n"
            "        try:\n"
            "            x = 1\n"
            "        except Exception:\n"
            "            pass\n"
        )
        assert lint_source(src, "src/repro/x.py") == []


class TestSuppressions:
    def test_specific_rule_suppressed(self):
        src = "exec('x = 1')  # repro-lint: disable=RL004\n"
        assert lint_source(src, "src/repro/x.py") == []

    def test_all_suppressed(self):
        src = "exec('x = 1')  # repro-lint: disable=all\n"
        assert lint_source(src, "src/repro/x.py") == []

    def test_wrong_rule_does_not_suppress(self):
        src = "exec('x = 1')  # repro-lint: disable=RL001\n"
        assert rules_of(lint_source(src, "src/repro/x.py")) == ["RL004"]

    def test_comma_list(self):
        src = (
            "import hashlib\n"
            "h = hashlib.sha1(exec('x'))"
            "  # repro-lint: disable=RL001, RL004\n"
        )
        assert lint_source(src, "src/repro/x.py") == []


class TestViolationShape:
    def test_str_and_dict(self):
        violations = lint_source("exec('x = 1')\n", "src/repro/x.py")
        assert len(violations) == 1
        violation = violations[0]
        assert str(violation).startswith("src/repro/x.py:1: RL004")
        payload = violation.to_dict()
        assert payload["rule"] == "RL004"
        assert payload["line"] == 1

    def test_sorted_by_line(self):
        src = "x = 1\nexec('a')\nexec('b')\n"
        violations = lint_source(src, "src/repro/x.py")
        assert [v.line for v in violations] == [2, 3]


class TestWholeTree:
    def test_repository_is_clean(self, capsys):
        code = repro_lint.main([])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "repro-lint ok" in out

    def test_rules_table_covers_rl001_to_rl006(self):
        # Rule ids are never reused, so a retired rule leaves a gap.
        assert sorted(repro_lint.RULES) == [
            "RL001", "RL002", "RL003", "RL004", "RL006"
        ]
