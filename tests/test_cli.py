import io
import json
import re
import zlib

import pytest

from hirotaverify import laurent, verifier, wronskian
from hirotaverify.cli import RunConfig, cmd_bench, cmd_build, cmd_verify, main
from hirotaverify.laurent import ONE, ExactDivisionError, serialize
from hirotaverify.wronskian import CACHE_MAGIC, CACHE_VERSION, DeterminantError, TauFamily

from conftest import run_fresh, with_stray_term


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
            "pass": 12, "fail": 0, "error": 0,
            "elapsed_total": payload["summary"]["elapsed_total"],
        }
        assert len(payload["checks"]) == 12
        assert {c["status"] for c in payload["checks"]} == {"pass"}

    def test_invalid_n_max_exits_two(self):
        assert main(["verify", "--suite", "all", "--n-max", "0"]) == 2

    def test_unknown_format_refused_before_any_check(self):
        # On the command line argparse's choices refuse it first; a caller of cmd_verify meets validate.
        stream = io.StringIO()
        with pytest.raises(ValueError, match="format must be 'json' or 'text'"):
            cmd_verify(RunConfig(suites=["weyl"], report_format="xml"), stream=stream)
        assert stream.getvalue() == ""

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
                  OSError("disk full"), OverflowError("t^1024 is outside the exponent fields")],
    )
    def test_harness_error_exits_two(self, monkeypatch, capsys, error):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(TauFamily, "build", classmethod(fail))
        assert main(["verify", "--suite", "toda", "--n-max", "1"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_crash_outside_the_checks_exits_two(self, monkeypatch, capsys):
        # Exit 1 is only for a counterexample: a MemoryError while building the family,
        # outside every check, is a harness error with its type named.
        def fail(*args, **kwargs):
            raise MemoryError("out of memory")

        monkeypatch.setattr(TauFamily, "build", classmethod(fail))
        assert main(["verify", "--suite", "toda", "--n-max", "1"]) == 2
        assert capsys.readouterr().err == "error: MemoryError: out of memory\n"

    def test_error_in_one_check_keeps_the_report(self, monkeypatch, capsys):
        def fail(fam, n_max):
            raise DeterminantError("zero pivot")

        monkeypatch.setattr(verifier, "check_jacobi", fail)
        code = main(["verify", "--suite", "jacobi", "--suite", "mixed", "--n-max", "1",
                     "--format", "json"])
        assert code == 2
        payload = json.loads(capsys.readouterr().out)
        rows = {c["equation_id"]: c for c in payload["checks"]}
        assert (rows["jacobi"]["n"], rows["jacobi"]["status"]) == (0, "error")
        assert rows["jacobi"]["witness"] == "DeterminantError: zero pivot"
        assert rows["mixed"]["status"] == "pass"
        assert payload["summary"]["error"] == 1

    @pytest.mark.parametrize("suites, alone", [(["toda", "toda"], "toda"), (["toda", "all"], "all")])
    def test_each_selected_suite_runs_once(self, suites, alone):
        reports = lambda names: strip_timings(json.loads(run_verify(
            n_max=1, suites=names, report_format="json")[1]))
        named = reports(suites)
        assert named["config"]["suites"] == suites
        assert named["checks"] == reports([alone])["checks"]

    @pytest.mark.parametrize("stray", [None, "t*x"])
    def test_jacobi_and_toda_in_either_order(self, built5, tmp_path, stray):
        # Both suites share the site table's records, whichever suite forms them.
        # The load check recomputes sites 0..2, so the stray term goes on tau_3.
        cache = tmp_path / "f5.tau"
        (with_stray_term(built5, "tau", 3, stray) if stray else built5).save(cache)
        rows = lambda suites: strip_timings(json.loads(run_verify(
            n_max=4, suites=suites, cache_path=str(cache), report_format="json")[1]))["checks"]
        jacobi_first = rows(["jacobi", "toda"])
        assert jacobi_first == rows(["toda", "jacobi"])
        assert any(r["status"] == "fail" for r in jacobi_first) == bool(stray)


    def test_fail_fast_stops_after_every_jacobi_row(self, built5, tmp_path, capsys):
        # The jacobi suite is one task, so --fail-fast keeps all of its rows
        # and stops before the next suite.  tau_3 enters the row at site 3 only.
        cache = tmp_path / "f5.tau"
        with_stray_term(built5, "tau", 3, "1").save(cache)
        code = main(["verify", "--suite", "jacobi", "--suite", "mixed", "--n-max", "4",
                     "--fail-fast", "--cache", str(cache), "--format", "json"])
        assert code == 1
        rows = json.loads(capsys.readouterr().out)["checks"]
        assert [(r["equation_id"], r["n"], r["status"]) for r in rows] == [
            ("jacobi", n, "fail" if n == 3 else "pass") for n in (1, 2, 3, 4)]

    def test_verify_converts_no_family_polynomial(self, tmp_path, monkeypatch, capsys):
        # The site table reads the loaded u,v sequences as they are, and a passing
        # row reads no residual in x, y: the run makes no basis change at all.
        cache = tmp_path / "f4.tau"
        assert main(["build", "--n-max", "4", "--cache", str(cache)]) == 0
        calls = []
        for module, name in ((laurent, "to_uv"), (laurent, "from_uv"), (wronskian, "from_uv"),
                             (verifier, "to_uv"), (verifier, "from_uv")):
            convert = getattr(module, name)
            monkeypatch.setattr(module, name, lambda p, name=name, convert=convert:
                                calls.append(name) or convert(p))
        suites = ["toda", "mixed", "jacobi", "conjecture", "symmetries",
                  "orderwise-A", "orderwise-B"]
        code, _ = run_verify(n_max=3, suites=suites, cache_path=str(cache), report_format="json")
        assert code == 0 and "rebuilding" not in capsys.readouterr().err
        assert calls == []


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

    def test_short_cache_is_rebuilt_with_a_note(self, tmp_path, capsys):
        # A valid cache that ends before the sites the run reads.
        cache = tmp_path / "short.tau"
        assert main(["build", "--n-max", "2", "--cache", str(cache)]) == 0
        capsys.readouterr()
        assert main(["verify", "--suite", "toda", "--n-max", "3", "--cache", str(cache)]) == 0
        assert capsys.readouterr().err == (
            f"note: {cache} holds sites to n=2, the run reads to n=4; rebuilding the cache\n")
        assert TauFamily.load(cache).n_max == 4

    def test_truncated_cache_never_exits_one(self, tmp_path):
        # Depth 3: the u,v text of a depth-2 family has too few terms for 40 cuts.
        cache = tmp_path / "out.tau"
        assert main(["build", "--n-max", "3", "--cache", str(cache)]) == 0
        lines = cache.read_text().splitlines(keepends=True)
        # Cuts at every line boundary, and at every term boundary of every
        # line both with and without the lines that follow.
        damaged = ["".join(lines[:end]) for end in range(len(lines) + 1)]
        for k, line in enumerate(lines):
            start = 0
            while (cut := line.find(" + ", start)) >= 0:
                damaged.append("".join(lines[:k]) + line[:cut])
                damaged.append("".join(lines[:k]) + line[:cut] + "\n" + "".join(lines[k + 1:]))
                start = cut + 1
        for damage in damaged:
            cache.write_text(damage)
            code = main(["verify", "--suite", "toda", "--n-max", "1",
                         "--cache", str(cache), "--format", "json"])
            assert code == 0, damage
        assert len(damaged) > 40

    def test_flipped_byte_never_exits_one(self, tmp_path, capsys):
        cache = tmp_path / "out.tau"
        assert main(["build", "--n-max", "2", "--cache", str(cache)]) == 0
        data = cache.read_bytes()
        positions = sorted(set(range(0, len(data), max(1, len(data) // 40))) | {len(data) - 2})
        for pos in positions:
            for flip in (0x01, 0x20):
                damage = bytearray(data)
                damage[pos] ^= flip
                cache.write_bytes(bytes(damage))
                code = main(["verify", "--suite", "toda", "--n-max", "1",
                             "--cache", str(cache), "--format", "json"])
                assert code == 0, (pos, flip)
                assert "rebuilding" in capsys.readouterr().err, (pos, flip)

    def test_valid_looking_wrong_cache_is_rebuilt(self, tmp_path, capsys):
        # A well-formed cache with a correct CRC, written by a faulty build.
        built = TauFamily.build(2)
        fam = TauFamily(2, tau_uv=[*built.tau_uv[:2], built.tau_uv[2] + 1], f_uv=built.f_uv)
        cache = tmp_path / "wrong.tau"
        fam.save(cache)
        assert main(["verify", "--suite", "toda", "--n-max", "1",
                     "--cache", str(cache)]) == 0
        err = capsys.readouterr().err
        assert f"{cache}: tau_2 disagree with the seed; rebuilding" in err
        assert TauFamily.load(cache).tau[2] == TauFamily.build(2).tau[2]

    def test_v1_cache_is_refused_and_rebuilt(self, tmp_path, capsys):
        # A v1 cache holds the same family as x,y text, which read as u, v is another family.
        fam = TauFamily.build(2)
        body = "".join(f"{key} n={k}: {serialize(p)}\n"
                       for key, seq in (("tau", fam.tau), ("f", fam.f)) for k, p in enumerate(seq))
        cache = tmp_path / "v1.tau"
        cache.write_text(f"{CACHE_MAGIC} v1 crc32={zlib.crc32(body.encode()):08x}\n{body}")
        with pytest.raises(ValueError, match=r"v1\.tau: cache format v1, expected v2$"):
            TauFamily.load(cache)
        assert main(["verify", "--suite", "toda", "--n-max", "1", "--cache", str(cache)]) == 0
        assert "cache format v1, expected v2; rebuilding the cache" in capsys.readouterr().err
        assert cache.read_text().startswith(f"{CACHE_MAGIC} v2 crc32=")
        assert TauFamily.load(cache) == fam

    def test_exponent_outside_its_field_is_rebuilt(self, tmp_path, capsys):
        # The CRC matches, but the exponent does not fit the packed monomial key.
        cache = tmp_path / "out.tau"
        assert main(["build", "--n-max", "4", "--cache", str(cache)]) == 0
        body = "".join("tau n=4: (1)*t^5000000\n" if line.startswith("tau n=4: ") else line
                       for line in cache.read_text().splitlines(keepends=True)[1:])
        cache.write_text(f"{CACHE_MAGIC} v{CACHE_VERSION} "
                         f"crc32={zlib.crc32(body.encode()):08x}\n{body}")
        assert main(["verify", "--suite", "toda", "--n-max", "3",
                     "--cache", str(cache)]) == 0
        err = capsys.readouterr().err
        assert "rebuilding" in err and "outside the exponent fields" in err
        assert TauFamily.load(cache).tau[4] == TauFamily.build(4).tau[4]

    def test_env_var_default_location(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HV_CACHE_DIR", str(tmp_path))
        code, _ = run_verify(n_max=1, suites=["conjecture"], report_format="text")
        assert code == 0
        assert (tmp_path / "family-n1.tau").exists()

    def test_build_without_path_or_env(self, monkeypatch):
        monkeypatch.delenv("HV_CACHE_DIR", raising=False)
        assert main(["build", "--n-max", "2"]) == 2

    def test_unknown_suite_refused_before_any_family(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("HV_CACHE_DIR", str(tmp_path))
        builds = []
        monkeypatch.setattr(TauFamily, "build", classmethod(lambda cls, n: builds.append(n)))
        assert main(["verify", "--suite", "nope", "--suite", "toda", "--n-max", "2"]) == 2
        assert list(tmp_path.iterdir()) == [] and builds == []
        assert "unknown suite 'nope'" in capsys.readouterr().err

    def test_inexact_pivot_division_exits_two_before_writing(self, tmp_path, monkeypatch, capsys):
        def inexact(num, den):
            raise ExactDivisionError("inexact", den)

        monkeypatch.setattr(wronskian, "exact_divide", inexact)
        assert main(["build", "--n-max", "3", "--cache", str(tmp_path / "f3.tau")]) == 2
        assert capsys.readouterr().err == "error: inexact pivot division at step 1\n"
        assert list(tmp_path.iterdir()) == []

    def test_weyl_run_obtains_no_family(self, tmp_path, monkeypatch):
        # The weyl rows read no family site, so the run loads, builds and writes none.
        monkeypatch.setenv("HV_CACHE_DIR", str(tmp_path / "hv"))
        for name in ("build", "load"):
            monkeypatch.setattr(TauFamily, name, classmethod(
                lambda cls, *args, name=name: pytest.fail(f"TauFamily.{name} called")))
        assert main(["verify", "--suite", "weyl", "--n-max", "7"]) == 0
        assert main(["verify", "--suite", "weyl", "--cache", str(tmp_path / "none.tau")]) == 0
        assert list(tmp_path.iterdir()) == []


class TestBenchCommand:
    def test_emits_row_per_site(self):
        stream = io.StringIO()
        assert cmd_bench(3, stream=stream) == 0
        out = stream.getvalue()
        rows = [line for line in out.splitlines() if re.match(r"\s+\d+\s+\d+", line)]
        assert len(rows) == 3
        first = rows[0].split()
        assert first[:2] == ["1", "2"]  # site 1's tau, t v + u/t, has two terms in u, v
        counts = [int(r.split()[1]) for r in rows]
        assert counts == sorted(counts)

    def test_invalid_depth(self):
        assert main(["bench", "--n-max", "0"]) == 2

    def test_each_suite_line_on_its_own_site_table(self, monkeypatch):
        import hirotaverify.cli as cli

        tables = []

        def recording(tasks, fam, fail_fast=False):
            tables.append(fam.sites)
            return run_checks(tasks, fam, fail_fast)

        run_checks = verifier.run_checks
        monkeypatch.setattr(verifier, "run_checks", recording)
        assert cmd_bench(2, stream=io.StringIO()) == 0
        assert len({id(sites) for sites in tables}) == len(cli._BENCH_SUITES)

    def test_one_build_per_run(self, monkeypatch):
        dims = []

        def counting(seed, n):
            dims.append(n)
            return wronskian_matrix(seed, n)

        wronskian_matrix = wronskian.wronskian_matrix
        monkeypatch.setattr(wronskian, "wronskian_matrix", counting)
        assert cmd_bench(2, stream=io.StringIO()) == 0
        assert dims == [3]  # the tau Wronskian of one depth-3 family; f's is its block


class TestImportSet:
    @staticmethod
    def loaded(argv, tmp_path) -> set:
        """Modules that main(argv) loads in a fresh interpreter, imports included."""
        code = ("import sys\n"
                "before = set(sys.modules)\n"
                "from hirotaverify.cli import main\n"
                f"assert main({argv!r}) == 0\n"
                "open('loaded.txt', 'w').write(' '.join(set(sys.modules) - before))\n")
        assert run_fresh(["-c", code], tmp_path).returncode == 0
        return set((tmp_path / "loaded.txt").read_text().split())

    @pytest.mark.parametrize("argv, closedform", [
        (["verify", "--suite", "orderwise-A", "--n-max", "1"], False),
        (["verify", "--suite", "orderwise-B", "--n-max", "1"], False),
        (["build", "--n-max", "2", "--cache", "family.tau"], False),
        (["verify", "--suite", "closedforms", "--n-max", "1"], True),
    ], ids=["orderwise-A", "orderwise-B", "build", "closedforms"])
    def test_run_loads_only_what_it_executes(self, argv, closedform, tmp_path):
        loaded = self.loaded(argv, tmp_path)
        assert "hirotaverify.cli" in loaded
        assert not {"dataclasses", "inspect"} & loaded
        assert ("hirotaverify.closedform" in loaded) == closedform

    def test_build_command_leaves_the_verifier_unimported(self, tmp_path):
        # -X importtime lists on stderr every module the command imports.
        run = run_fresh(["-X", "importtime", "-m", "hirotaverify", "build", "--n-max", "2",
                         "--cache", "f2.tau"], tmp_path)
        assert run.returncode == 0
        imported = {line.rsplit("|", 1)[-1].strip() for line in run.stderr.splitlines()
                    if line.startswith("import time:")}
        assert "hirotaverify.wronskian" in imported and (tmp_path / "f2.tau").exists()
        assert "hirotaverify.verifier" not in imported

