import io
import json
import re

import pytest

from hirotaverify.cli import RunConfig, cmd_bench, cmd_build, cmd_verify, main
from hirotaverify.laurent import ONE, ExactDivisionError
from hirotaverify.wronskian import DeterminantError, TauFamily


def run_verify(**kwargs) -> tuple[int, str]:
    stream = io.StringIO()
    code = cmd_verify(RunConfig(**kwargs), stream=stream)
    return code, stream.getvalue()


def strip_timings(payload: dict) -> dict:
    for check in payload["checks"]:
        check["elapsed"] = None
    payload["summary"]["elapsed_total"] = None
    return payload


class TestVerifyCommand:
    def test_conjecture_json_has_twelve_passes(self):
        code, out = run_verify(
            n_max=3, suites=["conjecture"], report_format="json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"] == {
            "pass": 12, "fail": 0,
            "elapsed_total": payload["summary"]["elapsed_total"],
        }
        assert len(payload["checks"]) == 12
        assert {c["status"] for c in payload["checks"]} == {"pass"}

    def test_invalid_n_max_exits_two(self):
        assert main(["verify", "--suite", "all", "--n-max", "0"]) == 2

    def test_unknown_suite_exits_two(self):
        assert main(["verify", "--suite", "wrong", "--n-max", "2"]) == 2

    def test_text_format_summary_line(self):
        code, out = run_verify(n_max=2, suites=["mixed"], report_format="text")
        assert code == 0
        assert out.strip().endswith("s total")
        assert "PASS mixed" in out

    def test_json_deterministic_modulo_timing(self):
        outputs = []
        for _ in range(2):
            _, out = run_verify(n_max=2, suites=["toda", "symmetries"],
                                report_format="json")
            payload = strip_timings(json.loads(out))
            outputs.append(json.dumps(payload, sort_keys=True))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "error", [DeterminantError("zero pivot"), ExactDivisionError("inexact", ONE),
                  OSError("disk full")],
    )
    def test_harness_error_exits_two(self, monkeypatch, capsys, error):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(TauFamily, "build", classmethod(fail))
        assert main(["verify", "--suite", "toda", "--n-max", "1"]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestCacheContract:
    def test_build_then_verify_reuses_cache(self, tmp_path, monkeypatch):
        cache = tmp_path / "out.tau"
        stream = io.StringIO()
        assert cmd_build(4, str(cache), stream=stream) == 0
        assert cache.exists()

        # Corrupting the build path proves verify reads the cache instead.
        def boom(*args, **kwargs):
            raise AssertionError("verify rebuilt instead of loading the cache")

        monkeypatch.setattr(TauFamily, "build", classmethod(boom))
        code, out = run_verify(
            n_max=3, suites=["toda"], cache_path=str(cache), report_format="text"
        )
        assert code == 0 and "9 pass" in out

    def test_verify_populates_missing_cache(self, tmp_path):
        cache = tmp_path / "fresh.tau"
        code, _ = run_verify(n_max=1, suites=["mixed"], cache_path=str(cache),
                             report_format="text")
        assert code == 0
        assert cache.exists()
        assert TauFamily.load(cache).n_max >= 2

    def test_damaged_cache_is_rebuilt_not_failed(self, tmp_path, capsys):
        # Dropping the last term of tau_3 once made toda n=2 report a false FAIL.
        cache = tmp_path / "out.tau"
        assert main(["build", "--n-max", "3", "--cache", str(cache)]) == 0
        lines = cache.read_text().splitlines(keepends=True)
        (k,) = [k for k, line in enumerate(lines) if line.startswith("tau n=3: ")]
        lines[k] = lines[k].rstrip("\n").rsplit(" + ", 1)[0] + "\n"
        cache.write_text("".join(lines))
        assert main(["verify", "--suite", "toda", "--n-max", "2",
                     "--cache", str(cache)]) == 0
        assert "rebuilding" in capsys.readouterr().err
        assert TauFamily.load(cache).n_max == 3

    def test_truncated_cache_never_exits_one(self, tmp_path):
        cache = tmp_path / "out.tau"
        assert main(["build", "--n-max", "2", "--cache", str(cache)]) == 0
        lines = cache.read_text().splitlines(keepends=True)
        for end in range(len(lines) + 1):
            cache.write_text("".join(lines[:end]))
            code = main(["verify", "--suite", "toda", "--n-max", "1",
                         "--cache", str(cache), "--format", "json"])
            assert code == 0, end

    def test_env_var_default_location(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HV_CACHE_DIR", str(tmp_path))
        code, _ = run_verify(n_max=1, suites=["conjecture"], report_format="text")
        assert code == 0
        assert (tmp_path / "family-n1.tau").exists()

    def test_build_without_path_or_env(self, monkeypatch):
        monkeypatch.delenv("HV_CACHE_DIR", raising=False)
        assert main(["build", "--n-max", "2"]) == 2


class TestBenchCommand:
    def test_emits_row_per_site(self):
        stream = io.StringIO()
        assert cmd_bench(3, stream=stream) == 0
        out = stream.getvalue()
        rows = [line for line in out.splitlines() if re.match(r"\s+\d+\s+\d+", line)]
        assert len(rows) == 3
        first = rows[0].split()
        assert first[:2] == ["1", "4"]  # site 1 has a four-term tau
        counts = [int(r.split()[1]) for r in rows]
        assert counts == sorted(counts)

    def test_invalid_depth(self):
        assert main(["bench", "--n-max", "0"]) == 2


def test_exit_code_one_on_failure(tmp_path):
    # A cache with a corrupted top tau makes the toda suite fail.
    fam = TauFamily.build(3)
    from hirotaverify.laurent import parse

    fam.tau[3] = fam.tau[3] + parse("1")
    cache = tmp_path / "broken.tau"
    fam.save(cache)
    code, out = run_verify(n_max=2, suites=["toda"], cache_path=str(cache),
                           report_format="text")
    assert code == 1
    assert "FAIL" in out
