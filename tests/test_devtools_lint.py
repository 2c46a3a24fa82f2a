"""Self-tests for the ``repro.devtools.lint`` AST + dataflow rule suite.

Each rule RS001-RS012 is demonstrated by a pair of fixture files under
``tests/fixtures/lint/``: a ``*_bad.py`` that must produce true
positives and a ``*_good.py`` that must lint clean.  Bad fixtures are
linted under a synthetic ``src/`` display path so the test-code
relaxations (RS001/RS003) do not apply to them; the RS007/RS008/RS009/
RS011/RS012 pairs are linted under a ``src/repro/service/`` path, a
package those rules patrol.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.devtools.lint import (
    FAST_RULE_CODES,
    FLOW_RULE_CODES,
    RULES,
    RULES_BY_CODE,
    Finding,
    lint_paths,
    lint_source,
    main,
    parse_rule_spec,
)

FIXTURES = Path(__file__).parent / "fixtures" / "lint"
REPO_ROOT = Path(__file__).parent.parent

#: Display path under which fixtures are linted: library code, every
#: rule active.
SRC_PATH = "src/repro/under_test.py"

#: Display path for the RS007/RS008 pairs: those rules only patrol the
#: service package (async server code sharing one event loop).
SERVICE_PATH = "src/repro/service/under_test.py"

#: (code, bad fixture, expected true positives, good fixture).
CASES = [
    ("RS001", "rs001_bad.py", 6, "rs001_good.py"),
    ("RS002", "rs002_bad.py", 5, "rs002_good.py"),
    ("RS003", "rs003_bad.py", 5, "rs003_good.py"),
    ("RS004", "rs004_bad.py", 4, "rs004_good.py"),
    ("RS005", "rs005_bad.py", 6, "rs005_good.py"),
    ("RS006", "rs006_bad.py", 5, "rs006_good.py"),
    ("RS007", "rs007_bad.py", 5, "rs007_good.py"),
    ("RS008", "rs008_bad.py", 6, "rs008_good.py"),
    ("RS009", "rs009_bad.py", 5, "rs009_good.py"),
    ("RS010", "rs010_bad.py", 5, "rs010_good.py"),
    ("RS011", "rs011_bad.py", 4, "rs011_good.py"),
    ("RS012", "rs012_bad.py", 4, "rs012_good.py"),
]

#: Rules scoped to one package lint their fixtures under that path.
CASE_PATHS = {
    "RS007": SERVICE_PATH,
    "RS008": SERVICE_PATH,
    "RS009": SERVICE_PATH,
    "RS011": SERVICE_PATH,
    "RS012": SERVICE_PATH,
}


def lint_fixture(name: str, path: str = SRC_PATH) -> list[Finding]:
    return lint_source((FIXTURES / name).read_text(), path)


class TestRuleCatalogue:
    def test_twelve_rules_with_stable_codes(self):
        assert [rule.code for rule in RULES] == [
            "RS001", "RS002", "RS003", "RS004",
            "RS005", "RS006", "RS007", "RS008",
            "RS009", "RS010", "RS011", "RS012",
        ]

    def test_fast_flow_partition(self):
        assert tuple(FAST_RULE_CODES) + tuple(FLOW_RULE_CODES) == tuple(
            rule.code for rule in RULES
        )

    def test_every_rule_has_name_summary_hint(self):
        for rule in RULES:
            assert rule.name
            assert rule.summary
            assert rule.hint

    def test_every_rule_has_fixture_pair(self):
        codes = {code for code, *_ in CASES}
        assert codes == set(RULES_BY_CODE)
        for code, bad, _, good in CASES:
            assert (FIXTURES / bad).is_file(), bad
            assert (FIXTURES / good).is_file(), good


class TestFixtures:
    @pytest.mark.parametrize("code,bad,expected,good", CASES)
    def test_bad_fixture_true_positives(self, code, bad, expected, good):
        findings = lint_fixture(bad, path=CASE_PATHS.get(code, SRC_PATH))
        hits = [f for f in findings if f.code == code]
        assert len(hits) == expected, [f.format_human() for f in findings]

    @pytest.mark.parametrize("code,bad,expected,good", CASES)
    def test_good_fixture_clean(self, code, bad, expected, good):
        findings = lint_fixture(good, path=CASE_PATHS.get(code, SRC_PATH))
        assert findings == [], [f.format_human() for f in findings]

    def test_cross_rule_overlap_on_raw_merge(self):
        # `a._counters += b._counters` is both a mutation (RS002) and an
        # unchecked merge (RS004); the suite reports both.
        codes = {f.code for f in lint_fixture("rs004_bad.py")}
        assert {"RS002", "RS004"} <= codes


class TestTestCodeRelaxations:
    def test_rs001_skipped_in_test_files(self):
        findings = lint_fixture("rs001_bad.py", path="tests/test_x.py")
        assert [f for f in findings if f.code == "RS001"] == []

    def test_rs003_skipped_in_test_files(self):
        findings = lint_fixture("rs003_bad.py", path="tests/test_x.py")
        assert [f for f in findings if f.code == "RS003"] == []

    def test_rs002_still_active_in_test_files(self):
        findings = lint_fixture("rs002_bad.py", path="tests/test_x.py")
        assert any(f.code == "RS002" for f in findings)


class TestSuppression:
    def test_noqa_fixture_fully_suppressed(self):
        assert lint_fixture("noqa_suppressed.py") == []

    def test_single_code_noqa(self):
        source = "import random\nx = random.random()  # repro: noqa-RS001\n"
        assert lint_source(source, SRC_PATH) == []

    def test_noqa_for_other_code_does_not_suppress(self):
        source = "import random\nx = random.random()  # repro: noqa-RS005\n"
        findings = lint_source(source, SRC_PATH)
        assert [f.code for f in findings] == ["RS001"]

    def test_blanket_noqa(self):
        source = "import random\nx = random.random()  # repro: noqa\n"
        assert lint_source(source, SRC_PATH) == []

    def test_suppressed_count_reported(self):
        result = lint_paths([FIXTURES / "noqa_suppressed.py"])
        assert result.ok
        assert result.files_checked == 1
        assert result.suppressed == 7


class TestRS001Details:
    def test_seeded_constructors_pass(self):
        source = (
            "import random\nimport numpy as np\n"
            "a = random.Random(7)\n"
            "b = np.random.default_rng(7)\n"
        )
        assert lint_source(source, SRC_PATH) == []

    def test_unseeded_constructors_flagged(self):
        source = "import numpy as np\nrng = np.random.default_rng()\n"
        findings = lint_source(source, SRC_PATH)
        assert [f.code for f in findings] == ["RS001"]

    def test_aliased_numpy_import_detected(self):
        source = "import numpy\nx = numpy.random.randint(0, 5)\n"
        findings = lint_source(source, SRC_PATH)
        assert [f.code for f in findings] == ["RS001"]

    def test_from_import_detected(self):
        source = "from random import shuffle\nshuffle([1, 2])\n"
        findings = lint_source(source, SRC_PATH)
        assert [f.code for f in findings] == ["RS001"]


class TestRS004Details:
    def test_merge_implementation_exempt(self):
        source = (
            "class S:\n"
            "    def merge(self, other):\n"
            "        if self.width != other.width:\n"
            "            raise ValueError('incompatible')\n"
            "        self._counters += other._counters\n"
        )
        findings = lint_source(source, SRC_PATH)
        assert findings == [], [f.format_human() for f in findings]

    def test_core_modules_exempt(self):
        source = "def peek(sketch):\n    return sketch._counters\n"
        assert lint_source(source, "src/repro/core/x.py") == []
        assert [f.code for f in lint_source(source, SRC_PATH)] == ["RS004"]


class TestRS006Details:
    def test_store_package_exempt(self):
        source = (
            "import json\n"
            "def snap(sketch):\n"
            "    return json.dumps(sketch.state_dict())\n"
        )
        assert lint_source(source, "src/repro/store/codec.py") == []
        assert [f.code for f in lint_source(source, SRC_PATH)] == ["RS006"]

    def test_from_import_detected(self):
        source = (
            "from pickle import dumps as freeze\n"
            "def snap(sketch):\n"
            "    return freeze(sketch.state_dict())\n"
        )
        assert [f.code for f in lint_source(source, SRC_PATH)] == ["RS006"]

    def test_serializing_plain_data_clean(self):
        source = (
            "import json\n"
            "def report(stats):\n"
            "    return json.dumps(stats, sort_keys=True)\n"
        )
        assert lint_source(source, SRC_PATH) == []

    def test_state_nested_in_argument_tree_detected(self):
        source = (
            "import json\n"
            "def snap(sketch):\n"
            "    return json.dumps({'c': sketch.counters.tolist()})\n"
        )
        assert [f.code for f in lint_source(source, SRC_PATH)] == ["RS006"]

    def test_active_in_test_files(self):
        # Unlike RS001/RS003 there is no test relaxation: ad-hoc dumps in
        # tests would ossify an unversioned format just the same.
        findings = lint_fixture("rs006_bad.py", path="tests/test_x.py")
        assert [f.code for f in findings] == ["RS006"] * 5


class TestRS007Details:
    BLOCKING_ASYNC = (
        "import time\n"
        "async def apply_batch():\n"
        "    time.sleep(0.01)\n"
    )

    def test_active_only_under_repro_service(self):
        findings = lint_source(self.BLOCKING_ASYNC, SERVICE_PATH)
        assert [f.code for f in findings] == ["RS007"]
        assert lint_source(self.BLOCKING_ASYNC, SRC_PATH) == []

    def test_sync_functions_exempt(self):
        source = "import time\ndef flush():\n    time.sleep(0.01)\n"
        assert lint_source(source, SERVICE_PATH) == []

    def test_sync_helper_nested_in_async_exempt(self):
        # The innermost function decides: a sync closure's body runs
        # wherever it is later called, not on the awaiting coroutine.
        source = (
            "import time\n"
            "async def outer():\n"
            "    def helper():\n"
            "        time.sleep(0.01)\n"
            "    return helper\n"
        )
        assert lint_source(source, SERVICE_PATH) == []

    def test_awaited_namesakes_exempt(self):
        # `await x.read_text()` is an async implementation (anyio-style),
        # not the blocking pathlib call.
        source = (
            "async def manifest(path):\n"
            "    return await path.read_text()\n"
        )
        assert lint_source(source, SERVICE_PATH) == []

    def test_store_io_from_import_detected(self):
        source = (
            "from repro.store import save\n"
            "async def snap(summary, path):\n"
            "    save(summary, path)\n"
        )
        assert [f.code for f in lint_source(source, SERVICE_PATH)] == [
            "RS007"
        ]

    def test_builtin_open_detected(self):
        source = (
            "async def manifest():\n"
            "    with open('service.json') as handle:\n"
            "        return handle.read()\n"
        )
        assert [f.code for f in lint_source(source, SERVICE_PATH)] == [
            "RS007"
        ]

    def test_run_in_executor_handoff_clean(self):
        source = (
            "import asyncio\n"
            "from repro.store import save\n"
            "async def snap(summary, path):\n"
            "    loop = asyncio.get_running_loop()\n"
            "    await loop.run_in_executor(None, save, summary, path)\n"
        )
        assert lint_source(source, SERVICE_PATH) == []


class TestRS008Details:
    STRUCT_IN_HANDLER = (
        "import struct\n"
        "def decode(payload):\n"
        "    return struct.unpack_from('<I', payload)\n"
    )

    def test_active_only_under_repro_service(self):
        findings = lint_source(self.STRUCT_IN_HANDLER, SERVICE_PATH)
        assert [f.code for f in findings] == ["RS008"]
        assert lint_source(self.STRUCT_IN_HANDLER, SRC_PATH) == []

    def test_protocol_module_exempt(self):
        path = "src/repro/service/protocol.py"
        assert lint_source(self.STRUCT_IN_HANDLER, path) == []

    def test_frombuffer_detected_tolist_clean(self):
        source = (
            "import numpy as np\n"
            "def weights(buf):\n"
            "    return np.frombuffer(buf, dtype='<i8')\n"
        )
        assert [f.code for f in lint_source(source, SERVICE_PATH)] == [
            "RS008"
        ]
        clean = (
            "import numpy as np\n"
            "def weights(counts):\n"
            "    return np.asarray(counts, dtype=np.int64).tolist()\n"
        )
        assert lint_source(clean, SERVICE_PATH) == []

    def test_int_byte_methods_detected(self):
        source = (
            "def tag(request_id, payload):\n"
            "    head = request_id.to_bytes(8, 'little')\n"
            "    return head, int.from_bytes(payload[:4], 'little')\n"
        )
        findings = lint_source(source, SERVICE_PATH)
        assert [f.code for f in findings] == ["RS008", "RS008"]

    def test_delegating_to_protocol_clean(self):
        source = (
            "from repro.service.protocol import pack_frame\n"
            "def encode(message):\n"
            "    return pack_frame(message)\n"
        )
        assert lint_source(source, SERVICE_PATH) == []


class TestRS009Details:
    RACE = (
        "import asyncio\n"
        "class T:\n"
        "    async def bump(self, key):\n"
        "        cur = self._counters[key]\n"
        "        await asyncio.sleep(0)\n"
        "        self._counters[key] = cur + 1\n"
    )

    def test_active_only_in_async_tiers(self):
        assert [f.code for f in lint_source(self.RACE, SERVICE_PATH)] == [
            "RS009"
        ]
        cluster = "src/repro/cluster/under_test.py"
        assert [f.code for f in lint_source(self.RACE, cluster)] == [
            "RS009"
        ]
        assert lint_source(self.RACE, SRC_PATH) == []

    def test_sync_function_exempt(self):
        source = self.RACE.replace("async def", "def").replace(
            "await asyncio.sleep(0)", "asyncio.get_event_loop()"
        )
        assert lint_source(source, SERVICE_PATH) == []

    def test_await_before_read_clean(self):
        source = (
            "import asyncio\n"
            "class T:\n"
            "    async def bump(self, key):\n"
            "        await asyncio.sleep(0)\n"
            "        cur = self._counters[key]\n"
            "        self._counters[key] = cur + 1\n"
        )
        assert lint_source(source, SERVICE_PATH) == []

    def test_wait_applied_barrier_exempt(self):
        source = self.RACE.replace(
            "asyncio.sleep(0)", "self.wait_applied(seq)"
        )
        assert lint_source(source, SERVICE_PATH) == []

    def test_async_with_lock_exempt(self):
        source = (
            "import asyncio\n"
            "class T:\n"
            "    async def bump(self, key):\n"
            "        async with self._lock:\n"
            "            cur = self._counters[key]\n"
            "            await asyncio.sleep(0)\n"
            "            self._counters[key] = cur + 1\n"
        )
        assert lint_source(source, SERVICE_PATH) == []

    def test_race_on_one_branch_detected(self):
        source = (
            "import asyncio\n"
            "class T:\n"
            "    async def bump(self, key, slow):\n"
            "        cur = self._counters[key]\n"
            "        if slow:\n"
            "            await asyncio.sleep(0)\n"
            "        self._counters[key] = cur + 1\n"
        )
        assert [f.code for f in lint_source(source, SERVICE_PATH)] == [
            "RS009"
        ]


class TestRS010Details:
    def test_taint_through_rebinding_chain(self):
        source = (
            "def f(sketch, n):\n"
            "    a = n / 2\n"
            "    b = a\n"
            "    sketch.update('x', b)\n"
        )
        assert [f.code for f in lint_source(source, SRC_PATH)] == ["RS010"]

    def test_int_cast_sanitizes(self):
        source = (
            "def f(sketch, n):\n"
            "    a = n / 2\n"
            "    sketch.update('x', int(a))\n"
        )
        assert lint_source(source, SRC_PATH) == []

    def test_literal_at_sink_is_rs005_not_rs010(self):
        source = "def f(sketch):\n    sketch.update('x', 1.5)\n"
        assert [f.code for f in lint_source(source, SRC_PATH)] == ["RS005"]

    def test_numpy_alias_resolved(self):
        source = (
            "import numpy as xp\n"
            "def f(sketch):\n"
            "    c = xp.float64(2)\n"
            "    sketch.update('x', c)\n"
        )
        assert [f.code for f in lint_source(source, SRC_PATH)] == ["RS010"]

    def test_taint_cleared_by_loop_rebinding(self):
        source = (
            "def f(sketch, items):\n"
            "    count = 0.5\n"
            "    for count in items:\n"
            "        sketch.update('x', count)\n"
        )
        assert lint_source(source, SRC_PATH) == []

    def test_inactive_in_test_code(self):
        source = (
            "def f(sketch, n):\n"
            "    w = n / 2\n"
            "    sketch.update('x', w)\n"
        )
        assert lint_source(source, "tests/test_x.py") == []


class TestRS011Details:
    LEAK = (
        "def f(path):\n"
        "    handle = open(path)\n"
        "    data = handle.read()\n"
        "    handle.close()\n"
        "    return data\n"
    )

    def test_active_only_in_resource_tiers(self):
        for scoped in (
            SERVICE_PATH,
            "src/repro/cluster/under_test.py",
            "src/repro/store/under_test.py",
        ):
            assert [f.code for f in lint_source(self.LEAK, scoped)] == [
                "RS011"
            ], scoped
        assert lint_source(self.LEAK, SRC_PATH) == []

    def test_try_finally_clean(self):
        source = (
            "def f(path):\n"
            "    handle = open(path)\n"
            "    try:\n"
            "        return handle.read()\n"
            "    finally:\n"
            "        handle.close()\n"
        )
        assert lint_source(source, SERVICE_PATH) == []

    def test_with_statement_clean(self):
        source = (
            "def f(path):\n"
            "    with open(path) as handle:\n"
            "        return handle.read()\n"
        )
        assert lint_source(source, SERVICE_PATH) == []

    def test_finding_reported_at_acquisition(self):
        findings = lint_source(self.LEAK, SERVICE_PATH)
        assert [f.line for f in findings] == [2]


class TestRS012Details:
    def test_dotted_exception_type_resolved(self):
        source = (
            "import errors\n"
            "class S:\n"
            "    def _op_drop(self, name):\n"
            "        raise errors.ShardFault(name)\n"
        )
        assert [f.code for f in lint_source(source, SERVICE_PATH)] == [
            "RS012"
        ]

    def test_inactive_outside_service_and_cluster(self):
        source = (
            "class S:\n"
            "    def _op_drop(self, name):\n"
            "        raise ValueError(name)\n"
        )
        assert lint_source(source, SRC_PATH) == []

    def test_raise_from_stays_in_vocabulary(self):
        source = (
            "class S:\n"
            "    def _op_drop(self, name):\n"
            "        try:\n"
            "            self._drop(name)\n"
            "        except KeyError as error:\n"
            "            raise _NoSuchTable(name) from error\n"
        )
        assert lint_source(source, SERVICE_PATH) == []


class TestRuleSelection:
    def test_parse_single_and_list(self):
        assert parse_rule_spec("RS005") == frozenset({"RS005"})
        assert parse_rule_spec("RS001,RS003") == frozenset(
            {"RS001", "RS003"}
        )

    def test_parse_range(self):
        assert parse_rule_spec("RS009-RS012") == frozenset(
            {"RS009", "RS010", "RS011", "RS012"}
        )

    def test_parse_rejects_unknown_and_malformed(self):
        with pytest.raises(ValueError):
            parse_rule_spec("RS099")
        with pytest.raises(ValueError):
            parse_rule_spec("bogus")
        with pytest.raises(ValueError):
            parse_rule_spec("")

    def test_select_filters_findings(self):
        bad = FIXTURES / "rs005_bad.py"
        selected = lint_paths([bad], select=frozenset({"RS001"}))
        assert selected.ok
        kept = lint_paths([bad], select=frozenset({"RS005"}))
        assert {f.code for f in kept.findings} == {"RS005"}

    def test_ignore_filters_findings(self):
        bad = FIXTURES / "rs005_bad.py"
        result = lint_paths([bad], ignore=frozenset({"RS005"}))
        assert result.ok

    def test_cli_select_and_ignore(self, capsys):
        bad = str(FIXTURES / "rs005_bad.py")
        assert main(["--select", "RS001-RS004", bad]) == 0
        assert main(["--ignore", "RS005", bad]) == 0
        assert main(["--select", "RS005", bad]) == 1
        capsys.readouterr()

    def test_cli_bad_spec_exits_two(self, capsys):
        assert main(["--select", "RS099", "src"]) == 2
        assert "unknown rule code" in capsys.readouterr().err


class TestBaseline:
    def test_baseline_allowlists_known_findings(self, capsys, tmp_path):
        bad = str(FIXTURES / "rs005_bad.py")
        assert main(["--format", "json", bad]) == 1
        baseline = tmp_path / "baseline.json"
        baseline.write_text(capsys.readouterr().out)
        code = main(["--baseline", str(baseline), bad])
        captured = capsys.readouterr()
        assert code == 0
        assert "baselined" in captured.err

    def test_baseline_does_not_hide_new_findings(self, capsys, tmp_path):
        assert main(["--format", "json", str(FIXTURES / "rs002_bad.py")]) == 1
        baseline = tmp_path / "baseline.json"
        baseline.write_text(capsys.readouterr().out)
        code = main(["--baseline", str(baseline),
                     str(FIXTURES / "rs005_bad.py")])
        capsys.readouterr()
        assert code == 1

    def test_bare_findings_array_accepted(self, capsys, tmp_path):
        bad = str(FIXTURES / "rs005_bad.py")
        assert main(["--format", "json", bad]) == 1
        payload = json.loads(capsys.readouterr().out)
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(payload["findings"]))
        assert main(["--baseline", str(baseline), bad]) == 0
        capsys.readouterr()

    def test_invalid_baseline_exits_two(self, capsys, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text("not json")
        assert main(["--baseline", str(baseline), "src"]) == 2
        assert "baseline" in capsys.readouterr().err

    def test_missing_baseline_exits_two(self, capsys, tmp_path):
        missing = tmp_path / "nope.json"
        assert main(["--baseline", str(missing), "src"]) == 2
        capsys.readouterr()


class TestRepoIsClean:
    """The acceptance gate, as a tier-1 test: the repo lints clean."""

    def test_src_and_tests_lint_clean(self):
        result = lint_paths([REPO_ROOT / "src", REPO_ROOT / "tests"])
        assert result.ok, "\n".join(
            f.format_human() for f in result.findings
        )
        assert result.files_checked > 100

    def test_flow_rules_clean_on_repo(self):
        result = lint_paths(
            [REPO_ROOT / "src", REPO_ROOT / "tests"],
            select=frozenset(FLOW_RULE_CODES),
        )
        assert result.ok, "\n".join(
            f.format_human() for f in result.findings
        )

    def test_fixtures_excluded_from_directory_walks(self):
        result = lint_paths([REPO_ROOT / "tests"])
        paths = {f.path for f in result.findings}
        assert not any("fixtures" in p for p in paths)
        included = lint_paths(
            [REPO_ROOT / "tests" / "fixtures" / "lint"],
            include_fixtures=True,
        )
        assert not included.ok


class TestCommandLine:
    def test_human_output_and_exit_code(self, capsys):
        code = main([str(FIXTURES / "rs005_bad.py")])
        captured = capsys.readouterr()
        assert code == 1
        assert "RS005" in captured.out
        assert "fix:" in captured.out
        assert "finding(s)" in captured.err

    def test_json_output(self, capsys):
        code = main(["--format", "json", str(FIXTURES / "rs005_bad.py")])
        captured = capsys.readouterr()
        assert code == 1
        payload = json.loads(captured.out)
        assert payload["version"] == 1
        assert payload["files_checked"] == 1
        findings = payload["findings"]
        assert findings and all(f["code"] == "RS005" for f in findings)
        for field in ("path", "line", "col", "rule", "message", "hint"):
            assert field in findings[0]

    def test_clean_run_exits_zero(self, capsys):
        code = main([str(FIXTURES / "rs005_good.py")])
        assert code == 0
        assert "0 finding(s)" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in RULES:
            assert rule.code in out

    def test_module_invocation(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro.devtools.lint", "src", "tests"],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
            check=False,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "RuntimeWarning" not in proc.stderr
