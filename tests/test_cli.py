import importlib.util
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from phrmt import blockcirc, circulant, cli, walk


def run(*argv) -> int:
    return cli.main(list(argv))


def _read_bytes(d: Path, names) -> dict[str, bytes]:
    return {n: (d / n).read_bytes() for n in names}


def _load_schema(name: str) -> dict:
    return json.loads(resources.files("phrmt").joinpath(f"schemas/{name}").read_text())


class TestSpacingCyclic:
    def test_scalar_run_outputs(self, tmp_path):
        out = tmp_path / "run"
        assert run(
            "spacing-cyclic", "--n", "3", "--count", "500", "--class", "all",
            "--seed", "5", "--out", str(out),
        ) == cli.EXIT_OK
        assert (out / "spacing_cc.csv").exists()
        assert (out / "spacing_rc.csv").exists()
        assert not (out / "spacing_generic.csv").exists()  # none at N=3
        assert (out / "manifest.json").exists()
        header = (out / "spacing_cc.csv").read_text().splitlines()[0]
        assert header == "bin_center,empirical_density,analytic_density"

    @pytest.mark.parametrize("n, count", [(7, 300), (100, 20)])
    def test_reports_count_every_pair(self, tmp_path, capsys, n, count):
        # a scalar rc or generic value is stored once for its two twin
        # pairs, and the reports count pairs: with r real and c = n - r
        # complex eigenvalues, c/2 cc, r c rc and c(c-1)/2 - c/2 generic
        # pairs a realization
        out = tmp_path / "run"
        argv = ["--n", str(n), "--count", str(count), "--seed", "3", "--out", str(out)]
        assert run("spacing-cyclic", *argv) == cli.EXIT_OK
        c = n - (2 - n % 2)
        pairs = {"cc": c // 2, "rc": (n - c) * c, "generic": c * (c - 1) // 2 - c // 2}
        printed = capsys.readouterr().out
        for klass, per_row in pairs.items():
            rep = json.loads((out / f"gof_{klass}.json").read_text())
            assert rep["n"] == count * per_row, klass
            assert f"spacing_{klass}: ks={rep['ks_distance']:.5f} n={count * per_row} " in printed

    @pytest.mark.parametrize("n", ["3", "4"])
    def test_generic_at_small_n_fails_before_sampling(self, tmp_path, monkeypatch, capsys, n):
        # a scalar circulant with N <= 4 has at most one conjugate pair
        def never(*args):
            raise AssertionError("sampled before the generic-pair check")

        monkeypatch.setattr(circulant, "sample_rows", never)
        out = tmp_path / "x"
        code = run(
            "spacing-cyclic", "--n", n, "--count", "2000000", "--class", "generic",
            "--out", str(out),
        )
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "no generic pairs" in err
        assert not out.exists()

    def test_chain_at_n3_fails_before_sampling(self, tmp_path, monkeypatch, capsys):
        # the chain's row (A, B, B^dagger) is Hermitian at N = 3, so no
        # eigenvalue is complex at any --block-scale
        def never(*args, **kwargs):
            raise AssertionError("sampled before the N = 3 check")

        monkeypatch.setattr(blockcirc, "sample_ising_blocks", never)
        out = tmp_path / "x"
        code = run(
            "spacing-cyclic", "--n", "3", "--count", "2000000", "--blocks", "ising",
            "--out", str(out),
        )
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--n" in err and "--block-scale" not in err
        assert not out.exists()

    @pytest.mark.parametrize("blocks", ["gaussian", "ising"])
    @pytest.mark.parametrize(
        "scale", ["2.2e-308", "1e-309", "1e-310", "1e-311", "1e-312", "1e-313", "1e-320"]
    )
    def test_subnormal_block_scale_fails_before_sampling(
        self, tmp_path, monkeypatch, capsys, blocks, scale
    ):
        # a scale below the smallest normal float (2.2250738585072014e-308) is
        # refused: most of its draws are subnormal
        def never(*args, **kwargs):
            raise AssertionError("sampled before the --block-scale check")

        monkeypatch.setattr(blockcirc, f"sample_{blocks}_blocks", never)
        out = tmp_path / "x"
        code = run(
            "spacing-cyclic", "--n", "25", "--count", "50", "--blocks", blocks,
            "--block-scale", scale, "--out", str(out),
        )
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "smallest normal float" in err and "--block-scale" in err
        assert not out.exists()

    @pytest.mark.parametrize("blocks", ["gaussian", "ising"])
    def test_one_realization_block_run(self, tmp_path, blocks):
        # a one-row batch keeps every cc pair and one of each rc and generic
        # twin pair, and its reports count every pair: both ensembles draw
        # 48 complex and 2 real eigenvalues at N = 25 and seed 7
        out = tmp_path / blocks
        assert run(
            "spacing-cyclic", "--n", "25", "--count", "1", "--blocks", blocks,
            "--seed", "7", "--out", str(out),
        ) == cli.EXIT_OK
        n = {k: json.loads((out / f"gof_{k}.json").read_text())["n"] for k in ("cc", "rc", "generic")}
        assert n == {"cc": 24, "rc": 96, "generic": 1104}

    def test_block_run_and_ising_reference_flag(self, tmp_path):
        out = tmp_path / "blocks"
        assert run(
            "spacing-cyclic", "--n", "4", "--count", "300", "--blocks", "ising",
            "--seed", "3", "--out", str(out),
        ) == cli.EXIT_OK
        rc = json.loads((out / "gof_rc.json").read_text())
        cc = json.loads((out / "gof_cc.json").read_text())
        assert rc["reference_only"] is True
        assert cc["reference_only"] is True  # the chain's cc law is not the half-Gaussian

    def test_ising_cc_is_reported_not_asserted(self, tmp_path, capsys):
        # the chain's cc spacings sit about 0.32 from the half-Gaussian law on
        # a correct ensemble, so --assert must not turn that into exit 4
        code = run(
            "spacing-cyclic", "--n", "25", "--count", "100", "--blocks", "ising",
            "--seed", "7", "--assert", "--out", str(tmp_path / "chain"),
        )
        assert code == cli.EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        cc = [line for line in lines if line.startswith("spacing_cc:")]
        assert len(cc) == 1 and cc[0].endswith("[ref]")

    @pytest.mark.parametrize(
        "scale",
        ["1e-6", "1e-9", "1e-12", "1e-170", "1e-200", "1e-300", "2.2250738585072014e-308"],
    )
    def test_gaussian_blocks_are_scale_free(self, tmp_path, scale):
        # the real tolerance is relative and each 2x2 eigensolve is scaled
        # by a power of two, so shrinking every block entry moves no
        # eigenvalue between the classes, even where the unscaled products in
        # the discriminant would underflow (below about 1e-160), down to the
        # smallest normal float, below which the scale is refused
        def reports(block_scale):
            out = tmp_path / block_scale
            assert run(
                "spacing-cyclic", "--n", "25", "--count", "50", "--blocks", "gaussian",
                "--seed", "1", "--block-scale", block_scale, "--out", str(out),
            ) == cli.EXIT_OK
            return {k: json.loads((out / f"gof_{k}.json").read_text()) for k in ("cc", "rc", "generic")}

        want, got = reports("1"), reports(scale)
        for klass in want:
            assert got[klass]["n"] == want[klass]["n"], klass
            assert abs(got[klass]["ks_distance"] - want[klass]["ks_distance"]) <= 1e-12, klass

    def test_reports_validate_against_schema(self, tmp_path):
        out = tmp_path / "v"
        run("spacing-cyclic", "--n", "5", "--count", "200", "--seed", "1", "--out", str(out))
        gof_schema = _load_schema("gof_report.schema.json")
        manifest_schema = _load_schema("run_manifest.schema.json")
        for name in ("gof_cc.json", "gof_rc.json", "gof_generic.json"):
            jsonschema.validate(json.loads((out / name).read_text()), gof_schema)
        jsonschema.validate(json.loads((out / "manifest.json").read_text()), manifest_schema)

    def test_assert_mode_numeric_failure(self, tmp_path):
        code = run(
            "spacing-cyclic", "--n", "3", "--count", "200", "--class", "cc",
            "--out", str(tmp_path / "y"), "--ks-threshold", "1e-9", "--assert",
        )
        assert code == cli.EXIT_NUMERIC


class TestDeterminism:
    def test_same_seed_byte_identical(self, tmp_path):
        args = ["spacing-cyclic", "--n", "5", "--count", "400", "--seed", "11"]
        run(*args, "--out", str(tmp_path / "a"))
        run(*args, "--out", str(tmp_path / "b"))
        names = ["spacing_cc.csv", "spacing_rc.csv", "spacing_generic.csv"]
        assert _read_bytes(tmp_path / "a", names) == _read_bytes(tmp_path / "b", names)

    @pytest.mark.parametrize("family", ["f1", "f2", "f3", "f4", "f5"])
    def test_thread_count_does_not_change_output(self, tmp_path, family):
        # 20000 draws are three sampling chunks, each with its own
        # family_matrix and eigenvalues2 calls
        args = ["spacing2x2", "--family", family, "--count", "20000", "--seed", "4"]
        assert run(*args, "--out", str(tmp_path / "t1"), "--threads", "1") == cli.EXIT_OK
        assert run(*args, "--out", str(tmp_path / "t4"), "--threads", "4") == cli.EXIT_OK
        a = (tmp_path / "t1" / f"spacing2x2_{family}.csv").read_bytes()
        b = (tmp_path / "t4" / f"spacing2x2_{family}.csv").read_bytes()
        assert a == b

    def test_decay_worker_count_does_not_change_output(self, tmp_path, monkeypatch):
        # rmt-decay splits its steps over one worker per CPU
        args = ["rmt-decay", "--t-max", "7", "--n", "9", "--realizations", "50", "--seed", "6"]
        csvs = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(cli, "_cpu_threads", lambda: cpus)
            assert run(*args, "--out", str(tmp_path / f"w{cpus}")) == cli.EXIT_OK
            csvs.append((tmp_path / f"w{cpus}" / "decay.csv").read_bytes())
        assert csvs[0] == csvs[1] == csvs[2]

    def test_decay_estimates_one_step_per_call(self, tmp_path, monkeypatch):
        # the benchmark's tracer counts calls by wrapping these module
        # attributes: one estimate and one moduli draw per step, on any
        # worker count
        calls = []
        names = ["rmt_decay_monte_carlo", "sample_decay_moduli"]
        for name in names:

            def counting(*a, _fn=getattr(walk, name), _name=name):
                calls.append(_name)  # one append is atomic across the workers
                return _fn(*a)

            monkeypatch.setattr(walk, name, counting)
        monkeypatch.setattr(cli, "_cpu_threads", lambda: 2)
        args = ["rmt-decay", "--t-max", "7", "--n", "9", "--realizations", "50", "--seed", "6"]
        assert run(*args, "--out", str(tmp_path / "out")) == cli.EXIT_OK
        assert sorted(calls) == [names[0]] * 8 + [names[1]] * 8

    def test_replay_reproduces_csv(self, tmp_path):
        out = tmp_path / "orig"
        run("spacing-cyclic", "--n", "5", "--count", "300", "--seed", "9", "--out", str(out))
        replayed = tmp_path / "replayed"
        assert run(
            "replay", "--manifest", str(out / "manifest.json"), "--out", str(replayed)
        ) == cli.EXIT_OK
        for name in ("spacing_cc.csv", "spacing_rc.csv", "spacing_generic.csv"):
            assert (out / name).read_bytes() == (replayed / name).read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [
            ["rmt-decay", "--t-max", "12", "--n", "8", "--realizations", "300", "--seed", "2"],
            ["walk", "--row", "0.2,0.24,0,0,0.56", "--start", "3", "--t-max", "40"],
        ],
        ids=["rmt-decay", "walk"],
    )
    def test_replay_reproduces_other_commands(self, tmp_path, argv):
        out, replayed = tmp_path / "orig", tmp_path / "replayed"
        assert run(*argv, "--out", str(out)) == cli.EXIT_OK
        assert run(
            "replay", "--manifest", str(out / "manifest.json"), "--out", str(replayed)
        ) == cli.EXIT_OK
        (csv,) = [p.name for p in out.glob("*.csv")]
        assert (out / csv).read_bytes() == (replayed / csv).read_bytes()

    def test_replay_ignores_options_walk_no_longer_takes(self, tmp_path):
        # walk manifests of earlier versions record bins, ks_threshold and
        # threads, which walk never used
        out = tmp_path / "orig"
        argv = ["walk", "--sites", "22", "--w", "0.8", "--p", "0.3", "--t-max", "50"]
        assert run(*argv, "--out", str(out)) == cli.EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["params"].update(bins=50, ks_threshold=0.05, threads=1)
        old = tmp_path / "old.json"
        old.write_text(json.dumps(manifest))
        replayed = tmp_path / "replayed"
        assert run("replay", "--manifest", str(old), "--out", str(replayed)) == cli.EXIT_OK
        assert (out / "walk.csv").read_bytes() == (replayed / "walk.csv").read_bytes()


class TestCpuThreads:
    def test_cpu_count_is_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        assert cli._cpu_threads() == 3
        # where the platform has no affinity call, every CPU
        monkeypatch.delattr(cli.os, "sched_getaffinity")
        assert cli._cpu_threads() == 64


class TestEntry:
    """The process entry blocks ``_hashlib`` only where CPython's own hashes
    stand in for OpenSSL's, and never replaces a loaded one."""

    def test_blocks_openssl_only_with_builtin_hashes(self, monkeypatch):
        argvs = []
        monkeypatch.setattr(cli, "main", lambda argv=None: argvs.append(argv) or cli.EXIT_OK)
        # restored on teardown, whether or not this session loaded _hashlib
        monkeypatch.setitem(sys.modules, "_hashlib", None)
        monkeypatch.delitem(sys.modules, "_hashlib")
        monkeypatch.setattr(cli, "_builtin_hashes", lambda: False)
        assert cli.entry(["a"]) == cli.EXIT_OK
        assert "_hashlib" not in sys.modules
        monkeypatch.setattr(cli, "_builtin_hashes", lambda: True)
        loaded = object()
        sys.modules["_hashlib"] = loaded
        assert cli.entry(["b"]) == cli.EXIT_OK
        assert sys.modules["_hashlib"] is loaded
        del sys.modules["_hashlib"]
        assert cli.entry(["c"]) == cli.EXIT_OK
        assert sys.modules["_hashlib"] is None
        assert argvs == [["a"], ["b"], ["c"]]

    @pytest.mark.parametrize(
        "version, sha2",
        [((3, 11, 0), ["_sha256", "_sha512"]), ((3, 12, 0), ["_sha2"])],
        ids=["3.11", "3.12"],
    )
    def test_builtin_hashes_need_every_module(self, monkeypatch, version, sha2):
        # 3.12 and later keep the sha2 family in one module; both branches
        # run on any interpreter
        monkeypatch.setattr(sys, "version_info", version)
        names = ["_md5", "_sha1", *sha2, "_sha3", "_blake2"]
        present = set(names)
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: name in present)
        assert cli._builtin_hashes()
        for name in names:
            present = set(names) - {name}
            assert not cli._builtin_hashes(), name


class TestBadArguments:
    """Invalid numbers exit 2 with one stderr line, before anything is drawn."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["spacing-cyclic", "--n", "5", "--count", "0"], "--count"),
            (["spacing-cyclic", "--n", "5", "--count", "10", "--bins", "0"], "--bins"),
            (["spacing-cyclic", "--n", "5", "--count", "10", "--seed", "-3"], "--seed"),
            (["spacing-cyclic", "--n", "5", "--count", "10", "--weight", "-1"], "--weight"),
            (["spacing2x2", "--family", "f1", "--count", "10", "--sigma", "0"], "--sigma"),
            (["spacing-cyclic", "--n", "5", "--count", "10", "--threads", "0"], "--threads"),
            (
                ["spacing-cyclic", "--n", "5", "--count", "10", "--blocks", "gaussian",
                 "--block-scale", "0"],
                "--block-scale",
            ),
            (["rmt-decay", "--n", "2", "--realizations", "10"], "--n"),
            (["rmt-decay", "--realizations", "-4"], "--realizations"),
            (["rmt-decay", "--t-max", "0"], "--t-max"),
            (["walk", "--sites", "5", "--w", "0.5", "--p", "0.5", "--t-max", "-1"], "--t-max"),
            (["walk", "--sites", "1", "--w", "0.5", "--p", "0.5"], "--sites"),
            (["spacing2x2", "--family", "f3", "--count", "10", "--epsilon", "0"], "--epsilon"),
            (["spacing2x2", "--family", "f3", "--count", "10", "--epsilon", "nan"], "--epsilon"),
            (["spacing-cyclic", "--n", "2", "--count", "10"], "--n"),
            (["spacing-cyclic", "--n", "5", "--count", "10", "--ks-threshold", "nan"],
             "--ks-threshold"),
            (["spacing-cyclic", "--n", "5", "--count", "10", "--ks-threshold", "inf"],
             "--ks-threshold"),
            (["spacing2x2", "--family", "f1", "--count", "10", "--ks-threshold", "-0.1"],
             "--ks-threshold"),
            (["spacing2x2", "--family", "f9", "--count", "10"], "--family"),
            # past the closed form's float range
            (["rmt-decay", "--t-max", "5870", "--realizations", "10"], "--t-max"),
            (["rmt-decay", "--t-max", "6000", "--realizations", "10"], "--t-max"),
            # one realization has no standard error
            (["rmt-decay", "--t-max", "3", "--n", "3", "--realizations", "1"], "--realizations"),
        ],
    )
    def test_exit_2_with_one_line(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "never"
        with pytest.raises(SystemExit) as exc:
            run(*argv, "--out", str(out))
        assert exc.value.code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"argument {flag}:" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, what, flag",
        [
            # the entry width underflows to 0, so every spacing is 0
            (["spacing-cyclic", "--n", "8", "--count", "200", "--weight", "1e308"],
             "cc spacings", "--weight"),
            # the block sums overflow, so the pairing refuses the non-finite rows
            (["spacing-cyclic", "--n", "5", "--count", "200", "--blocks", "gaussian",
              "--block-scale", "1e308"], "spectrum row", "--block-scale"),
            # the chain's draws overflow; its zero entry parts stay zero, so
            # the rows pass the block-form check and the pairing refuses them
            (["spacing-cyclic", "--n", "25", "--count", "200", "--blocks", "ising",
              "--block-scale", "1e308"], "spectrum row", "--block-scale"),
            # b c overflows, so the f1 spacings are infinite
            (["spacing2x2", "--family", "f1", "--count", "2000", "--sigma", "1e200"],
             "f1 spacings", "--sigma"),
            # f2 spacings are finite here, but count times the bin width is
            # not, so the densities would all be 0
            (["spacing2x2", "--family", "f2", "--count", "2000", "--sigma", "1e307"],
             "f2 histogram bins", "--sigma"),
            # bins 8 sigma / 50 wide are subnormal, so the densities overflow
            (["spacing2x2", "--family", "f2", "--count", "100", "--sigma", "1e-320"],
             "f2 histogram bins", "--sigma"),
            # b c would underflow to 0, so no count could give a draw in the
            # real sector: refused before sampling
            (["spacing2x2", "--family", "f1", "--count", "1000", "--sigma", "1e-200"],
             "f1 products bc", "--sigma"),
            (["spacing2x2", "--family", "f1", "--count", "1000", "--sigma", "1e-300"],
             "f1 products bc", "--sigma"),
            # the chain's fixed -1/2 entries keep max|E| >= (N-1)/2, so at a
            # tiny scale every eigenvalue is within the relative tolerance of
            # the real axis and all three classes are empty
            (["spacing-cyclic", "--n", "25", "--count", "50", "--blocks", "ising",
              "--block-scale", "1e-150"], "no cc, rc or generic spacings", "--block-scale"),
            (["spacing-cyclic", "--n", "25", "--count", "50", "--blocks", "ising",
              "--block-scale", "1e-150", "--class", "cc"],
             "no cc, rc or generic spacings", "--block-scale"),
            # a scale below the smallest normal float: refused before sampling
            (["spacing-cyclic", "--n", "25", "--count", "50", "--blocks", "gaussian",
              "--block-scale", "1e-320"], "smallest normal float", "--block-scale"),
            # f3's c width divides by e^2 + 1/e^2, which e^2 = 0 or inf breaks
            (["spacing2x2", "--family", "f3", "--count", "20", "--epsilon", "1e-200"],
             "its square", "--epsilon"),
            (["spacing2x2", "--family", "f3", "--count", "20", "--epsilon", "1e200"],
             "its square", "--epsilon"),
        ],
        ids=["weight", "block-scale", "block-scale-chain", "sigma", "sigma-wide-bins",
             "sigma-subnormal-bins", "f1-bc-underflow-200",
             "f1-bc-underflow-300", "block-scale-all-real", "block-scale-all-real-cc",
             "block-scale-underflow", "epsilon-underflow", "epsilon-overflow"],
    )
    def test_spacings_out_of_range_exit_2(self, tmp_path, capsys, argv, what, flag):
        # the values or bins are found unusable: no file may be written
        out = tmp_path / "never"
        assert run(*argv, "--out", str(out)) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and what in err and flag in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command",
        [["walk", "--sites", "5", "--w", "0.5", "--p", "0.5"], ["rmt-decay", "--t-max", "3"]],
        ids=["walk", "rmt-decay"],
    )
    @pytest.mark.parametrize(
        "option",
        [["--bins", "7"], ["--ks-threshold", "0.1"], ["--assert"], ["--threads", "2"]],
        ids=lambda option: option[0],
    )
    def test_spacing_options_rejected_elsewhere(self, tmp_path, capsys, command, option):
        # walk and rmt-decay write no histogram and no fit report
        out = tmp_path / "never"
        with pytest.raises(SystemExit) as exc:
            run(*command, *option, "--out", str(out))
        assert exc.value.code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"unrecognized arguments: {option[0]}" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "content",
        [b"{", b"\xff\xfe", b'{"command": "walk"}', b"[1]"],
        ids=["not-json", "not-utf8", "no-params", "not-an-object"],
    )
    def test_malformed_manifest_replay_exit_2(self, tmp_path, capsys, content):
        manifest = tmp_path / "manifest.json"
        manifest.write_bytes(content)
        out = tmp_path / "never"
        code = run("replay", "--manifest", str(manifest), "--out", str(out))
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "manifest" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, key, value, flag",
        [
            (["spacing-cyclic", "--n", "5", "--count", "50"], "bins", 0, "--bins"),
            (["rmt-decay", "--t-max", "3", "--realizations", "10"], "n", 2, "--n"),
        ],
    )
    def test_edited_manifest_replay_exit_2(self, tmp_path, capsys, argv, key, value, flag):
        # replay parses the recorded options like a command line, so an
        # edited manifest fails before anything is drawn
        orig = tmp_path / "orig"
        assert run(*argv, "--out", str(orig)) == cli.EXIT_OK
        manifest = json.loads((orig / "manifest.json").read_text())
        manifest["params"][key] = value
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(manifest))
        capsys.readouterr()
        out = tmp_path / "never"
        with pytest.raises(SystemExit) as exc:
            run("replay", "--manifest", str(edited), "--out", str(out))
        assert exc.value.code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"argument {flag}:" in err
        assert not out.exists()


class TestNothingWrittenOnError:
    def test_failed_write_rolls_back(self, tmp_path, monkeypatch):
        write_text = cli.OutputDir.write_text
        names = []

        def fail_on_second(self, name, text):
            names.append(name)
            if len(names) == 2:
                raise OSError("no space left on device")
            return write_text(self, name, text)

        monkeypatch.setattr(cli.OutputDir, "write_text", fail_on_second)
        out = tmp_path / "run"
        code = run("spacing-cyclic", "--n", "5", "--count", "50", "--seed", "1", "--out", str(out))
        assert code == cli.EXIT_IO
        assert names == ["spacing_cc.csv", "gof_cc.json"]
        assert not out.exists()

    def test_rollback_removes_only_what_the_run_made(self, tmp_path, monkeypatch):
        def fail(self, name, text):
            raise OSError("no space left on device")

        monkeypatch.setattr(cli.OutputDir, "write_text", fail)
        existing = tmp_path / "existing"
        existing.mkdir()
        (existing / "keep.txt").write_text("kept")
        code = run("spacing-cyclic", "--n", "5", "--count", "50", "--out", str(existing))
        assert code == cli.EXIT_IO
        assert [f.name for f in existing.iterdir()] == ["keep.txt"]
        assert (existing / "keep.txt").read_text() == "kept"
        # directories the run created are removed, deepest first, up to the
        # one that existed before it
        code = run(
            "spacing-cyclic", "--n", "5", "--count", "50",
            "--out", str(existing / "new" / "deeper"),
        )
        assert code == cli.EXIT_IO
        assert [f.name for f in existing.iterdir()] == ["keep.txt"]

    def test_unwritable_out_fails_before_computing(self, tmp_path, monkeypatch, capsys):
        def never(args):
            raise AssertionError("the command ran before the output check")

        monkeypatch.setattr(cli, "cmd_rmt_decay", never)
        blocker = tmp_path / "blocker.txt"
        blocker.write_text("")
        code = run(
            "rmt-decay", "--t-max", "100", "--n", "32", "--realizations", "2000",
            "--out", str(blocker / "sub"),
        )
        assert code == cli.EXIT_IO
        assert "not writable" in capsys.readouterr().err
        assert blocker.read_text() == ""

    def test_usage_error_creates_no_directory(self, tmp_path):
        # the coupled chain at N = 3 has no conjugate pairs: refused before
        # sampling, so before anything is written
        out = tmp_path / "never"
        code = run(
            "spacing-cyclic", "--n", "3", "--count", "10", "--blocks", "ising",
            "--class", "cc", "--out", str(out),
        )
        assert code == cli.EXIT_USAGE
        assert not out.exists()

    # A run fails after its first file is staged: spacing_cc.csv is staged,
    # then writing gof_cc.json fails.  The earlier run in the same directory
    # must come through byte for byte, manifest included.
    RUN = ("spacing-cyclic", "--n", "5", "--count", "50", "--class", "cc")

    @staticmethod
    def _files(d: Path) -> dict[str, bytes]:
        return {p.name: p.read_bytes() for p in d.iterdir() if p.is_file()}

    def _earlier_run(self, out: Path) -> dict[str, bytes]:
        assert run(*self.RUN, "--seed", "1", "--out", str(out)) == cli.EXIT_OK
        files = self._files(out)
        assert sorted(files) == ["gof_cc.json", "manifest.json", "spacing_cc.csv"]
        return files

    def _fail_on_second_write(self, monkeypatch):
        write_text = cli.OutputDir.write_text
        names = []

        def fail_on_second(self, name, text):
            names.append(name)
            if len(names) == 2:
                raise OSError("no space left on device")
            return write_text(self, name, text)

        monkeypatch.setattr(cli.OutputDir, "write_text", fail_on_second)
        return names

    def test_failed_rerun_keeps_the_earlier_run(self, tmp_path, monkeypatch):
        out = tmp_path / "run"
        before = self._earlier_run(out)
        names = self._fail_on_second_write(monkeypatch)
        # another seed, so every file it would write differs from the earlier one
        assert run(*self.RUN, "--seed", "2", "--out", str(out)) == cli.EXIT_IO
        assert names == ["spacing_cc.csv", "gof_cc.json"]
        assert self._files(out) == before

    def test_rollback_leaves_a_directory_in_the_way(self, tmp_path, capsys):
        out = tmp_path / "run"
        before = self._earlier_run(out)
        blocker = out / "gof_cc.json.tmp"
        blocker.mkdir()
        (blocker / "keep.txt").write_text("kept")
        assert run(*self.RUN, "--seed", "2", "--out", str(out)) == cli.EXIT_IO
        assert "gof_cc.json.tmp" in capsys.readouterr().err
        assert self._files(out) == before
        # the run staged spacing_cc.csv.tmp, and removed it
        assert sorted(p.name for p in out.iterdir()) == sorted([*before, blocker.name])
        assert [p.name for p in blocker.iterdir()] == ["keep.txt"]
        assert (blocker / "keep.txt").read_text() == "kept"

    def test_failed_replay_in_place_keeps_the_run(self, tmp_path, monkeypatch):
        out = tmp_path / "run"
        before = self._earlier_run(out)
        self._fail_on_second_write(monkeypatch)
        # no --out: the replay writes back into the run it replays
        assert run("replay", "--manifest", str(out / "manifest.json")) == cli.EXIT_IO
        assert self._files(out) == before

    def test_failed_rename_keeps_the_earlier_manifest(self, tmp_path):
        # a rename that fails mid-publish leaves the files published before
        # it, and the earlier manifest, which is renamed last
        out = tmp_path / "run"
        before = self._earlier_run(out)
        (out / "gof_cc.json").unlink()
        (out / "gof_cc.json").mkdir()
        assert run(*self.RUN, "--seed", "2", "--out", str(out)) == cli.EXIT_IO
        after = self._files(out)
        assert sorted(p.name for p in out.iterdir()) == sorted(before)
        assert after["manifest.json"] == before["manifest.json"]
        assert after["spacing_cc.csv"] != before["spacing_cc.csv"]
        assert not any((out / "gof_cc.json").iterdir())

    def test_a_write_probe_in_out_survives_a_run(self, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        (out / ".write_probe").write_text("mine")
        assert run(*self.RUN, "--seed", "1", "--out", str(out)) == cli.EXIT_OK
        assert (out / ".write_probe").read_text() == "mine"


class TestSpacing2x2:
    def test_f1_writes_analytic_column_and_report(self, tmp_path):
        out = tmp_path / "f1"
        assert run(
            "spacing2x2", "--family", "f1", "--count", "2000", "--seed", "2",
            "--out", str(out), "--ks-threshold", "0.05",
        ) == cli.EXIT_OK
        header = (out / "spacing2x2_f1.csv").read_text().splitlines()[0]
        assert header.endswith("analytic_density")
        rep = json.loads((out / "gof_spacing2x2_f1.json").read_text())
        assert rep["passed"] is True

    def test_f4_has_no_analytic_column(self, tmp_path):
        out = tmp_path / "f4"
        assert run(
            "spacing2x2", "--family", "f4", "--count", "500", "--seed", "2", "--out", str(out)
        ) == cli.EXIT_OK
        header = (out / "spacing2x2_f4.csv").read_text().splitlines()[0]
        assert header == "bin_center,empirical_density"
        assert not (out / "gof_spacing2x2_f4.json").exists()

    @pytest.mark.parametrize("seed", ["0", "1", "3"])
    def test_f1_without_real_draws_is_usage_error(self, tmp_path, capsys, seed):
        # one draw with bc <= 0 leaves the K0 law's real sector empty
        out = tmp_path / "never"
        code = run("spacing2x2", "--family", "f1", "--count", "1", "--seed", seed, "--out", str(out))
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "bc > 0" in err
        assert not out.exists()

    def test_unwritable_out_is_io_error(self, tmp_path):
        blocker = tmp_path / "blocker.txt"
        blocker.write_text("")
        # a path whose parent is a file cannot be created
        code = run(
            "spacing2x2", "--family", "f1", "--count", "10",
            "--out", str(blocker / "sub"),
        )
        assert code == cli.EXIT_IO


class TestWalkCommand:
    def test_ring22_saturates_at_log22(self, tmp_path):
        out = tmp_path / "w"
        cfgfile = tmp_path / "ring.cfg"
        cfgfile.write_text("# 22-site ring\nsites = 22\nw = 0.8\np = 0.3\nstart = 0\n")
        assert run(
            "walk", "--config", str(cfgfile), "--t-max", "700", "--out", str(out)
        ) == cli.EXIT_OK
        rows = np.loadtxt(out / "walk.csv", delimiter=",", skiprows=1)
        assert rows.shape == (701, 3)
        assert rows[0, 1] == 0.0  # delta start has zero entropy
        assert abs(rows[-1, 1] - np.log(22.0)) < 1e-9

    def test_row_config_equivalent(self, tmp_path):
        # literal row vs the (w, p) parameterization: equal up to the float
        # noise of building 1 - w, so compare values, not bytes
        row = ",".join(["0.2", "0.24"] + ["0"] * 19 + ["0.56"])
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        run("walk", "--row", row, "--t-max", "50", "--out", str(out1))
        run("walk", "--sites", "22", "--w", "0.8", "--p", "0.3", "--t-max", "50", "--out", str(out2))
        a = np.loadtxt(out1 / "walk.csv", delimiter=",", skiprows=1)
        b = np.loadtxt(out2 / "walk.csv", delimiter=",", skiprows=1)
        assert np.allclose(a, b, rtol=0, atol=1e-12)

    def test_flags_override_config(self, tmp_path):
        cfgfile = tmp_path / "ring.cfg"
        cfgfile.write_text("sites = 10\nw = 0.8\np = 0.3\n")
        out = tmp_path / "o"
        run("walk", "--config", str(cfgfile), "--sites", "5", "--t-max", "3", "--out", str(out))
        rows = np.loadtxt(out / "walk.csv", delimiter=",", skiprows=1)
        # uniform deviation column starts at 1 - 1/5 for a delta start
        assert rows[0, 2] == pytest.approx(1.0 - 0.2)

    def test_frozen_walk_entropy_is_flat(self, tmp_path):
        out = tmp_path / "frozen"
        run("walk", "--sites", "8", "--w", "0", "--p", "0.5", "--t-max", "20", "--out", str(out))
        rows = np.loadtxt(out / "walk.csv", delimiter=",", skiprows=1)
        assert rows[0, 1] == 0.0
        assert np.all(rows[:, 1] < 1e-10)  # spectral round-trip noise only

    def test_invalid_row_is_usage_error(self, tmp_path):
        code = run("walk", "--row", "0.5,0.2", "--t-max", "5", "--out", str(tmp_path / "b"))
        assert code == cli.EXIT_USAGE

    def test_row_sum_message_prints_a_float(self, tmp_path, capsys):
        out = tmp_path / "never"
        assert run("walk", "--row", "0.5,0.2", "--t-max", "3", "--out", str(out)) == cli.EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: invalid walk configuration: hop row must sum to 1, got 0.7\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_nan_row_is_usage_error(self, tmp_path, capsys, source):
        # NaN passes the sign and sum checks, and would write nan deviations
        if source == "flag":
            argv = ["--row", "0.5,nan,0.5"]
        else:
            cfgfile = tmp_path / "nan.cfg"
            cfgfile.write_text("row = 0.5, nan, 0.5\n")
            argv = ["--config", str(cfgfile)]
        out = tmp_path / "never"
        assert run("walk", *argv, "--t-max", "3", "--out", str(out)) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "finite" in err
        assert not out.exists()

    def test_long_ring_walk_runs(self, tmp_path):
        # the ring's evolved mass drifts by 1.1e-16 a step, past a fixed
        # 1e-12 at t = 9009 but inside the round-off bound of the evolution
        out = tmp_path / "w"
        argv = ["--sites", "22", "--w", "0.8", "--p", "0.3", "--t-max", "10000"]
        assert run("walk", *argv, "--out", str(out)) == cli.EXIT_OK
        rows = np.loadtxt(out / "walk.csv", delimiter=",", skiprows=1)
        assert rows.shape == (10001, 3)
        assert abs(rows[-1, 1] - np.log(22.0)) < 1e-9

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_drifting_row_is_usage_error(self, tmp_path, capsys, source):
        # the row passes WalkConfig's 1e-12 sum check, but its mass drifts
        # past round-off at step 2: one line naming the hop row, no output
        if source == "flag":
            argv = ["--row", "0.5,0.5000000000009"]
        else:
            cfgfile = tmp_path / "drift.cfg"
            cfgfile.write_text("row = 0.5, 0.5000000000009\n")
            argv = ["--config", str(cfgfile)]
        out = tmp_path / "never"
        assert run("walk", *argv, "--t-max", "10", "--out", str(out)) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "hop row" in err and "--t-max 10" in err
        assert not out.exists()

    def test_bad_config_line_is_usage_error(self, tmp_path):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("sites 22\n")
        code = run("walk", "--config", str(cfgfile), "--out", str(tmp_path / "c"))
        assert code == cli.EXIT_USAGE

    def test_non_utf8_config_is_usage_error(self, tmp_path, capsys):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_bytes(b"sites = 22\n\xff\n")
        out = tmp_path / "never"
        assert run("walk", "--config", str(cfgfile), "--out", str(out)) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"config file {cfgfile} is not UTF-8" in err
        assert not out.exists()

    def test_unknown_config_key_names_the_line(self, tmp_path, capsys):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("sites = 22\nsteps = 3\n")
        code = run("walk", "--config", str(cfgfile), "--out", str(tmp_path / "c"))
        assert code == cli.EXIT_USAGE
        assert f"{cfgfile}:2: unknown key 'steps'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, flag",
        [("sites = 1\nw = 0.5\np = 0.5\n", "--sites"), ("sites = 5\nw = high\np = 0.5\n", "--w")],
        ids=["sites", "w"],
    )
    def test_bad_config_value_names_the_flag(self, tmp_path, capsys, text, flag):
        # file values are the walk options' defaults, so argparse checks them
        # with each flag's own type
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(text)
        out = tmp_path / "never"
        with pytest.raises(SystemExit) as exc:
            run("walk", "--config", str(cfgfile), "--out", str(out))
        assert exc.value.code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"argument {flag}:" in err
        assert not out.exists()

    def test_config_run_equals_flag_run_and_records_its_values(self, tmp_path):
        cfgfile = tmp_path / "ring.cfg"
        cfgfile.write_text("sites = 22\nw = 0.8\np = 0.3\nstart = 4\n")
        by_file, by_flags = tmp_path / "file", tmp_path / "flags"
        argv = ["--sites", "22", "--w", "0.8", "--p", "0.3", "--start", "4"]
        assert run("walk", *argv, "--t-max", "60", "--out", str(by_flags)) == cli.EXIT_OK
        argv = ["--config", str(cfgfile)]
        assert run("walk", *argv, "--t-max", "60", "--out", str(by_file)) == cli.EXIT_OK
        assert (by_file / "walk.csv").read_bytes() == (by_flags / "walk.csv").read_bytes()
        params = json.loads((by_file / "manifest.json").read_text())["params"]
        assert [params[k] for k in ("sites", "w", "p", "start")] == [22, 0.8, 0.3, 4]

    def test_config_run_replays_without_its_file(self, tmp_path, monkeypatch):
        # the manifest records every value the file gave, so a replay from
        # another directory, after the file is gone, reproduces the run
        first, other = tmp_path / "first", tmp_path / "other"
        first.mkdir()
        other.mkdir()
        monkeypatch.chdir(first)
        Path("ring.cfg").write_text("sites = 22\nw = 0.8\np = 0.3\nstart = 4\n")
        assert run("walk", "--config", "ring.cfg", "--t-max", "60", "--out", "run") == cli.EXIT_OK
        Path("ring.cfg").unlink()
        monkeypatch.chdir(other)
        manifest = first / "run" / "manifest.json"
        assert run("replay", "--manifest", str(manifest), "--out", "again") == cli.EXIT_OK
        assert (other / "again" / "walk.csv").read_bytes() == (first / "run" / "walk.csv").read_bytes()


class TestDecayCommand:
    def test_columns_and_percent_difference(self, tmp_path):
        out = tmp_path / "d"
        assert run("rmt-decay", "--t-max", "120", "--out", str(out)) == cli.EXIT_OK
        text = (out / "decay.csv").read_text().splitlines()
        assert text[0] == "t,closed_form_scaled,asymptotic_scaled,percent_difference"
        rows = np.loadtxt(out / "decay.csv", delimiter=",", skiprows=1)
        pdiff = np.abs(rows[:, 3])
        assert np.all(np.diff(pdiff) < 0.0)  # series closes in monotonically

    def test_monte_carlo_columns(self, tmp_path):
        out = tmp_path / "dm"
        assert run(
            "rmt-decay", "--t-max", "5", "--n", "16", "--realizations", "2000",
            "--seed", "8", "--out", str(out),
        ) == cli.EXIT_OK
        rows = np.loadtxt(out / "decay.csv", delimiter=",", skiprows=1)
        assert rows.shape[1] == 6
        # Monte Carlo tracks the closed form within a loose multiple of stderr
        for t in (2, 4):
            assert abs(rows[t, 4] - rows[t, 1]) < 6.0 * rows[t, 5]

    def test_scaled_curve_collapses_across_ring_sizes(self, tmp_path):
        # per-site curves from different ring sizes collapse once rescaled
        out = tmp_path / "dc"
        run("rmt-decay", "--t-max", "10", "--out", str(out))
        rows = np.loadtxt(out / "decay.csv", delimiter=",", skiprows=1)
        for n in (16, 64):
            per_site = rows[:, 1] / n
            assert np.allclose(n * per_site, rows[:, 1], rtol=1e-15)


_MODULE_PROBE = """
import json, sys
from phrmt import cli
code = None
if sys.argv[2:]:
    try:
        code = getattr(cli, sys.argv[1])(sys.argv[2:])
    except SystemExit as exc:
        code = exc.code
phrmt = sorted(m.removeprefix("phrmt.") for m in sys.modules if m.startswith("phrmt."))
seen = {
    "concurrent.futures": "concurrent.futures" in sys.modules,
    "_hashlib": sys.modules.get("_hashlib") is not None,
}
import hashlib, hmac
seen["digests"] = [
    hashlib.sha256(b"x").hexdigest(),
    hmac.new(b"key", b"The quick brown fox jumps over the lazy dog", "sha256").hexdigest(),
]
print(json.dumps([code, phrmt, seen]))
"""

# SHA-256 of b"x", and HMAC-SHA256 of the pangram under the key b"key", as
# every correct implementation gives them
_STANDARD_DIGESTS = [
    "2d711642b726b04401627ca9fbac32f5c8530fb1903cc4db02258717921a4881",
    "f7bc83f430538424b13298e6aa6fb143ef4d59a14946175997479dbc2d1a3cd8",
]


class TestModuleSets:
    """A CLI process loads only the library modules its subcommand runs.

    Each case runs in a fresh interpreter: this one has loaded every module.
    """

    NEVER_FOR_WALK = {"blockcirc", "circulant", "stats", "pseudo2x2"}

    @staticmethod
    def probe(tmp_path, *argv, call="entry") -> tuple[int | None, set[str], dict]:
        """Exit code, library modules loaded besides ``cli``, and what else
        was seen, after ``import phrmt.cli`` and, given argv,
        ``cli.entry(argv)`` (the process entry) or ``cli.main(argv)``:
        whether ``concurrent.futures`` and ``_hashlib`` (OpenSSL) are loaded,
        and then the digests of ``hashlib.sha256`` and ``hmac.new`` in that
        process."""
        src = str(Path(cli.__file__).parents[1])
        path = [src, os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        proc = subprocess.run(
            [sys.executable, "-c", _MODULE_PROBE, call, *argv], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=120, check=True,
        )
        code, modules, seen = json.loads(proc.stdout.splitlines()[-1])
        assert "cli" in modules
        return code, set(modules) - {"cli"}, seen

    def test_import_loads_no_library_module(self, tmp_path):
        code, loaded, seen = self.probe(tmp_path)
        assert loaded == set()
        assert not seen["concurrent.futures"]  # it imports logging

    @pytest.mark.parametrize(
        "argv, never",
        [
            (["walk", "--sites", "22", "--w", "0.8", "--p", "0.3", "--t-max", "50"],
             NEVER_FOR_WALK),
            (["rmt-decay", "--t-max", "7", "--n", "9", "--realizations", "50"], NEVER_FOR_WALK),
            (["rmt-decay", "--t-max", "7"], NEVER_FOR_WALK | {"seeding"}),
            (["spacing2x2", "--family", "f1", "--count", "500"], {"blockcirc", "walk"}),
            (["spacing2x2", "--family", "f2", "--count", "500"], {"blockcirc", "walk"}),
            (["spacing-cyclic", "--n", "7", "--count", "50"], {"blockcirc", "pseudo2x2", "walk"}),
            (["spacing-cyclic", "--n", "5", "--count", "50", "--blocks", "gaussian"], {"walk"}),
            (["spacing-cyclic", "--n", "5", "--count", "50", "--blocks", "ising"], {"walk"}),
        ],
        ids=["walk", "rmt-decay", "rmt-decay-closed-form", "f1", "f2", "scalar", "gaussian",
             "ising"],
    )
    def test_command_loads_only_what_it_runs(self, tmp_path, argv, never):
        code, loaded, seen = self.probe(tmp_path, *argv, "--out", "run")
        assert code == cli.EXIT_OK
        assert (tmp_path / "run" / "manifest.json").exists()
        assert loaded and loaded.isdisjoint(never), loaded & never
        # numpy.random would load OpenSSL through secrets and hmac; the
        # process entry blocks it where CPython's own hashes stand in, and
        # hashing still gives the standard digests
        if cli._builtin_hashes():
            assert not seen["_hashlib"]
        assert seen["digests"] == _STANDARD_DIGESTS

    def test_main_keeps_openssl(self, tmp_path):
        # a program that calls main, not the process entry, keeps its hashing
        argv = ["spacing-cyclic", "--n", "5", "--count", "50", "--blocks", "gaussian"]
        code, _, seen = self.probe(tmp_path, *argv, "--out", "run", call="main")
        assert code == cli.EXIT_OK
        assert seen["_hashlib"] == (importlib.util.find_spec("_hashlib") is not None)
        assert seen["digests"] == _STANDARD_DIGESTS

    def test_replay_loads_only_what_the_command_runs(self, tmp_path):
        argv = ["walk", "--sites", "22", "--w", "0.8", "--p", "0.3", "--t-max", "50"]
        assert self.probe(tmp_path, *argv, "--out", "run")[0] == cli.EXIT_OK
        code, loaded, _ = self.probe(tmp_path, "replay", "--manifest", "run/manifest.json",
                                     "--out", "again")
        assert code == cli.EXIT_OK
        assert loaded.isdisjoint(self.NEVER_FOR_WALK), loaded & self.NEVER_FOR_WALK

    @pytest.mark.parametrize(
        "argv",
        [
            ["spacing-cyclic", "--n", "2", "--count", "10"],
            ["spacing2x2", "--count", "0", "--family", "f1"],
            ["walk", "--sites", "1", "--w", "0.5", "--p", "0.5"],
            ["rmt-decay", "--realizations", "1"],
        ],
        ids=["spacing-cyclic", "spacing2x2", "walk", "rmt-decay"],
    )
    def test_usage_error_loads_no_library_module(self, tmp_path, argv):
        code, loaded, _ = self.probe(tmp_path, *argv, "--out", "never")
        assert code == cli.EXIT_USAGE
        assert loaded == set()

    @pytest.mark.parametrize(
        "argv, never",
        [
            (["spacing2x2", "--family", "f9", "--count", "10"], {"blockcirc", "seeding", "walk"}),
            (["rmt-decay", "--t-max", "6000"], NEVER_FOR_WALK | {"seeding"}),
        ],
        ids=["family", "t-max"],
    )
    def test_flag_checked_by_its_module_loads_only_that_module(self, tmp_path, argv, never):
        # the family names and the decay bound are each written once, in
        # pseudo2x2 and walk, so checking the flag loads that module and what
        # it imports, and nothing else
        code, loaded, _ = self.probe(tmp_path, *argv, "--out", "never")
        assert code == cli.EXIT_USAGE
        assert loaded and loaded.isdisjoint(never), loaded & never
