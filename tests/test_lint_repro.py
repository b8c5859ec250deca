"""The repo lint (``scripts/lint_repro.py``): clean on ``src/`` and
able to catch a seeded instance of each bug class it exists for."""

import importlib.util
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
LINT_PATH = REPO_ROOT / "scripts" / "lint_repro.py"

spec = importlib.util.spec_from_file_location("lint_repro", LINT_PATH)
lint_repro = importlib.util.module_from_spec(spec)
spec.loader.exec_module(lint_repro)


def lint_source(tmp_path, source, name="mod.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return lint_repro.lint_file(path)


def rules(findings):
    return sorted({f.rule for f in findings})


class TestCleanOnRepo:
    def test_src_is_clean(self):
        findings = lint_repro.lint_paths([str(REPO_ROOT / "src")])
        assert findings == [], "\n".join(str(f) for f in findings)

    def test_scripts_are_clean(self):
        findings = lint_repro.lint_paths([str(REPO_ROOT / "scripts")])
        assert findings == [], "\n".join(str(f) for f in findings)

    def test_default_paths_cover_src_and_scripts(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        assert lint_repro.main([]) == 0
        assert "scripts" in capsys.readouterr().out


class TestFalsyCacheRule:
    def test_catches_seeded_falsy_cache_regression(self, tmp_path):
        # The exact PR 3/4/5 bug class: `cache or GLOBAL_CACHE` silently
        # replaces an injected *empty* cache with the global one.
        findings = lint_source(
            tmp_path,
            """
            GLOBAL_CACHE = {}

            def lookup(key, cache: dict | None = None):
                cache = cache or GLOBAL_CACHE
                return cache.get(key)
            """,
        )
        assert rules(findings) == ["REPRO001"]
        assert "is not None" in findings[0].message
        assert findings[0].line == 5

    def test_container_name_without_annotation_still_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def drain(entries=None):
                return entries or default_entries()
            """,
        )
        assert rules(findings) == ["REPRO001"]

    def test_empty_literal_fallback_allowed(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def merge(overrides: dict | None = None, items: list | None = None):
                a = overrides or {}
                b = items or []
                c = overrides or dict()
                return a, b, c
            """,
        )
        assert findings == []

    def test_non_container_param_not_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def greet(name: str | None = None):
                return name or "anonymous"
            """,
        )
        assert findings == []


class TestFrozenDataclassRule:
    def test_catches_field_mutation(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class Point:
                x: int

                def shift(self):
                    self.x += 1
            """,
        )
        assert rules(findings) == ["REPRO002"]

    def test_unfrozen_dataclass_allowed(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            from dataclasses import dataclass

            @dataclass
            class Point:
                x: int

                def shift(self):
                    self.x += 1
            """,
        )
        assert findings == []


class TestBareExceptRule:
    def test_catches_bare_except(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            try:
                work()
            except:
                pass
            """,
        )
        assert rules(findings) == ["REPRO003"]

    def test_typed_except_allowed(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            try:
                work()
            except Exception:
                pass
            """,
        )
        assert findings == []


class TestDeterminismRule:
    def test_catches_wall_clock_in_journal_module(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import time

            def stamp():
                return time.time()
            """,
            name="journal_store.py",
        )
        assert rules(findings) == ["REPRO004"]
        assert "replay determinism" in findings[0].message

    def test_catches_uuid_in_codec_module(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import uuid

            def fresh_id():
                return uuid.uuid4()
            """,
            name="codec.py",
        )
        assert rules(findings) == ["REPRO004"]

    def test_wall_clock_fine_outside_critical_modules(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import time

            def stamp():
                return time.time()
            """,
            name="bench.py",
        )
        assert findings == []


class TestWallclockRule:
    """REPRO006: direct wall-clock reads in ``repro`` outside the
    telemetry package must route through ``repro.telemetry.clock``."""

    def lint_at(self, tmp_path, source, parts):
        directory = tmp_path.joinpath(*parts[:-1])
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / parts[-1]
        path.write_text(textwrap.dedent(source))
        return lint_repro.lint_file(path)

    WALLCLOCK = """
    import time

    def stamp():
        return time.perf_counter()
    """

    def test_wallclock_in_repro_flagged(self, tmp_path):
        findings = self.lint_at(
            tmp_path, self.WALLCLOCK, ("src", "repro", "core", "mod.py")
        )
        assert rules(findings) == ["REPRO006"]
        assert "repro.telemetry.clock" in findings[0].message

    def test_datetime_now_flagged(self, tmp_path):
        findings = self.lint_at(
            tmp_path,
            """
            from datetime import datetime

            def stamp():
                return datetime.now()
            """,
            ("src", "repro", "serve", "mod.py"),
        )
        assert rules(findings) == ["REPRO006"]

    def test_telemetry_package_exempt(self, tmp_path):
        findings = self.lint_at(
            tmp_path, self.WALLCLOCK, ("src", "repro", "telemetry", "clock.py")
        )
        assert findings == []

    def test_outside_repro_exempt(self, tmp_path):
        findings = self.lint_at(
            tmp_path, self.WALLCLOCK, ("scripts", "bench.py")
        )
        assert findings == []

    def test_inline_waiver_respected(self, tmp_path):
        findings = self.lint_at(
            tmp_path,
            """
            import time

            def deadline(wait_s):
                return time.monotonic() + wait_s  # lint: allow-wallclock
            """,
            ("src", "repro", "serve", "mod.py"),
        )
        assert findings == []

    def test_live_waivers_stay_narrow(self):
        """The sanctioned exception stays enumerable: the resource
        profiler's process-CPU reads (``time.process_time`` is what it
        *measures*, not a timestamp it could source from the telemetry
        clock).  The micro-batcher reads no clock at all."""
        waived = []
        for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
            for number, line in enumerate(
                path.read_text().splitlines(), start=1
            ):
                if lint_repro.WALLCLOCK_WAIVER in line:
                    waived.append((path.name, number))
        names = sorted({name for name, _ in waived})
        assert names == ["resource.py"]


class TestAssertValidationRule:
    def test_catches_assert_on_parameter(self, tmp_path):
        # The trainer.py bug class: input validation that disappears
        # under `python -O`.
        findings = lint_source(
            tmp_path,
            """
            def batches(order, lengths, config):
                assert lengths is not None
                return [order, config]
            """,
        )
        assert rules(findings) == ["REPRO005"]
        assert "'lengths'" in findings[0].message
        assert "repro.errors" in findings[0].message

    def test_assert_on_local_allowed(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def total(values):
                acc = sum(values)
                assert acc >= 0
                return acc
            """,
        )
        assert findings == []

    def test_assert_on_self_attribute_allowed(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            class Runner:
                def go(self):
                    assert self.predictor is not None
                    return self.predictor
            """,
        )
        assert findings == []

    def test_compound_test_naming_parameter_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def clamp(value, low, high):
                assert low <= value <= high, "out of range"
                return value
            """,
        )
        assert rules(findings) == ["REPRO005"]

    def test_test_files_exempt(self, tmp_path):
        source = """
        def test_helper(thing):
            assert thing is not None
        """
        assert lint_source(tmp_path, source, name="test_mod.py") == []
        assert lint_source(tmp_path, source, name="conftest.py") == []
        nested = tmp_path / "tests"
        nested.mkdir()
        nested_file = nested / "helpers.py"
        nested_file.write_text(textwrap.dedent(source))
        assert lint_repro.lint_file(nested_file) == []

    def test_module_level_assert_allowed(self, tmp_path):
        # No enclosing function → no parameters to validate.
        findings = lint_source(
            tmp_path,
            """
            FLAG = True
            assert FLAG
            """,
        )
        assert findings == []


class TestBenchRegistryRule:
    def bench_file(self, tmp_path, source, name="bench_thing.py"):
        scripts = tmp_path / "scripts"
        scripts.mkdir(exist_ok=True)
        path = scripts / name
        path.write_text(textwrap.dedent(source))
        return lint_repro.lint_file(path)

    def test_json_dump_in_bench_script_flagged(self, tmp_path):
        findings = self.bench_file(
            tmp_path,
            """
            import json
            from repro.obs.bench import register_suite

            def save(results):
                with open("BENCH_thing.json", "w") as handle:
                    json.dump(results, handle)
            """,
        )
        assert rules(findings) == ["REPRO007"]
        assert "bypasses the bench registry" in findings[0].message

    def test_bench_script_without_obs_import_flagged(self, tmp_path):
        findings = self.bench_file(
            tmp_path,
            """
            def run():
                return {"speedup": 2.0}
            """,
        )
        assert rules(findings) == ["REPRO007"]
        assert "never imports repro.obs" in findings[0].message

    def test_registered_bench_script_clean(self, tmp_path):
        findings = self.bench_file(
            tmp_path,
            """
            from repro.obs.bench import BenchSuite, register_suite

            def run(config):
                return None

            register_suite(BenchSuite(
                name="thing", description="d", metrics=(), run=run
            ))
            """,
        )
        assert findings == []

    def test_non_bench_scripts_exempt(self, tmp_path):
        # Same json.dump, but not a scripts/bench_*.py entry point.
        scripts = tmp_path / "scripts"
        scripts.mkdir()
        other = scripts / "make_report.py"
        other.write_text("import json\njson.dump({}, open('x', 'w'))\n")
        assert lint_repro.lint_file(other) == []
        elsewhere = tmp_path / "bench_thing.py"  # no scripts/ in its path
        elsewhere.write_text("import json\njson.dump({}, open('x', 'w'))\n")
        assert lint_repro.lint_file(elsewhere) == []


class TestOutputContract:
    def test_findings_print_file_line_rule(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            try:
                work()
            except:
                pass
            """,
        )
        line = str(findings[0])
        path, lineno, rest = line.split(":", 2)
        assert path.endswith("mod.py")
        assert lineno.isdigit()
        assert rest.strip().startswith("REPRO003")

    def test_main_exit_codes(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("try:\n    pass\nexcept:\n    pass\n")
        assert lint_repro.main([str(bad)]) == 1
        good = tmp_path / "good.py"
        good.write_text("x = 1\n")
        assert lint_repro.main([str(good)]) == 0
