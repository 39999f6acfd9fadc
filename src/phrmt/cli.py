"""Command-line experiment runner.

Each subcommand samples an ensemble (or evaluates a law) and returns the
text of its plot-ready CSV files and JSON goodness-of-fit reports.  Only once
everything is computed does ``_dispatch`` write them, plus a run manifest
that can be replayed to reproduce the outputs byte for byte; a failed write
removes every file of the run.

Subcommands
-----------
spacing2x2      level-spacing histogram of a 2x2 family (analytic K0-law
                column and KS report for family f1)
spacing-cyclic  cc / rc / generic spacing histograms of scalar or 2x2-block
                circulant ensembles against the exact laws
walk            entropy relaxation of a biased ring walk from a config file
rmt-decay       closed-form, asymptotic and optional Monte Carlo decay curves
replay          re-run a recorded manifest

Exit codes: 0 success, 2 usage or configuration error, 3 I/O error,
4 numeric failure (a KS report under --assert).
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import functools
import json
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import __version__

# Each command imports the library modules it runs, so a process loads only
# those (see docs/decisions.md, "What a CLI process loads").
if TYPE_CHECKING:
    from . import stats, walk

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


class UsageError(Exception):
    pass


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


def _check_writable(path: Path) -> None:
    """Raise IOError unless the nearest existing ancestor of ``path`` is a
    writable directory; creates nothing, so it can run before computing."""
    ancestor = next(p for p in (path, *path.absolute().parents) if p.exists())
    if not (ancestor.is_dir() and os.access(ancestor, os.W_OK | os.X_OK)):
        raise IOError(
            f"output directory {path} is not writable: {ancestor} is not a writable directory"
        )


class OutputDir:
    """Collects output files; everything is written via a temp file and
    renamed, and if the run fails its files, and the directories it created,
    are removed."""

    def __init__(self, path: Path):
        self.path = path
        self.written: list[Path] = []
        # deepest first, so rollback can remove them in this order
        self.created = [p for p in (path, *path.absolute().parents) if not p.exists()]
        try:
            self.path.mkdir(parents=True, exist_ok=True)
            probe = self.path / ".write_probe"
            probe.write_text("")
            probe.unlink()
        except OSError as exc:
            self.rollback()
            raise IOError(f"output directory {path} is not writable: {exc}") from exc

    def write_text(self, name: str, text: str) -> Path:
        target = self.path / name
        tmp = self.path / (name + ".tmp")
        try:
            tmp.write_text(text)
            tmp.replace(target)
        except OSError:
            tmp.unlink(missing_ok=True)
            raise
        self.written.append(target)
        return target

    def rollback(self):
        for f in self.written:
            f.unlink(missing_ok=True)
        for d in self.created:
            try:
                d.rmdir()
            except FileNotFoundError:  # the failed mkdir never made it
                continue
            except OSError:  # not empty, so neither are its parents
                break


def _csv_text(header: list[str], columns: list[np.ndarray]) -> str:
    rows = zip(*[np.asarray(col) for col in columns])
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write_manifest(out: OutputDir, args) -> None:
    manifest = {
        "command": args.command,
        "params": _params_dict(args),
        "seed": args.seed,
        "version": __version__,
        "created_at": _utc_now(),
        "outputs": [p.name for p in out.written],
    }
    out.write_text("manifest.json", _json_text(manifest))


def _cpu_threads() -> int:
    """Worker count of the sampling pools: the CPUs this process may run on,
    read when called.  That is the size of its affinity mask where the
    platform has one (``taskset`` or a cpuset makes it smaller than the
    machine's CPU count), else ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool_map(fn, threads: int, *iterables) -> list:
    """``list(map(fn, *iterables))`` over a pool of ``threads`` workers; one
    item or one thread runs on the calling thread (see docs/decisions.md)."""
    items = list(zip(*iterables))
    if threads <= 1 or len(items) <= 1:
        return [fn(*item) for item in items]
    import concurrent.futures  # it imports logging, which one thread never needs

    with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda item: fn(*item), items))


def _chunked_sample(sampler, count: int, seed: int, threads: int) -> np.ndarray:
    """Run ``sampler(size, rng)`` over fixed chunks with spawned streams.

    The chunk layout depends only on ``count``, so the concatenated result is
    identical for any thread count.  Overflow is not warned about: the
    commands check their spacings and name the flag that caused it.
    """
    from . import seeding

    def quiet(size, rng):
        with np.errstate(over="ignore", invalid="ignore"):
            return sampler(size, rng)

    sizes = seeding.chunk_sizes(count)
    rngs = seeding.spawn_generators(seed, len(sizes))
    return np.concatenate(_pool_map(quiet, threads, sizes, rngs), axis=0)


def _sort_finite(values: np.ndarray, what: str, flag: str) -> None:
    """Sort ``values`` in place; UsageError unless all are finite.  Sorted,
    they are finite exactly when the last one is: NaN sorts last and +inf is
    the maximum."""
    values.sort()
    if not math.isfinite(values[-1]):
        raise UsageError(f"{what} are not finite; {flag} is out of range")


def _histogram_csv(values: np.ndarray, bins: int, hi: float, analytic_pdf=None) -> str:
    from . import stats

    hist = stats.histogram(values, np.linspace(0.0, hi, bins + 1))
    cols = [hist.centers, hist.densities()]
    header = ["bin_center", "empirical_density"]
    if analytic_pdf is not None:
        cols.append(analytic_pdf(hist.centers))
        header.append("analytic_density")
    return _csv_text(header, cols)


# ---------------------------------------------------------------------------
# spacing2x2
# ---------------------------------------------------------------------------

def cmd_spacing2x2(args) -> tuple[dict[str, str], list[stats.GofReport]]:
    from . import pseudo2x2, stats

    tag = pseudo2x2.FamilyTag(args.family)
    try:
        family = pseudo2x2.Family2x2(tag, epsilon=args.epsilon)
    except ValueError as exc:
        raise UsageError(f"{exc}; --epsilon is out of range")
    # the densities divide by the bin widths, which overflows once a width is
    # subnormal, and by the count times the width, which must stay finite
    width = 8.0 * args.sigma / args.bins
    if not np.finfo(float).tiny <= width <= np.finfo(float).max / args.count:
        raise UsageError(
            f"{args.family} histogram bins are narrower than the smallest normal float "
            "or wider than the largest over --count; --sigma is out of range"
        )
    name = f"spacing2x2_{args.family}"
    pdf = cdf = None
    if tag is pseudo2x2.FamilyTag.F1_ANTIDIAG_IMAG:
        # b and c have width sigma, so below this the products b c, whose
        # sign picks the real sector, underflow to 0 or lose their precision
        if args.sigma * args.sigma < np.finfo(float).tiny:
            raise UsageError(
                "f1 products bc are below the smallest normal float; --sigma is out of range"
            )
        def draw(sz, rng):
            return pseudo2x2.spacing_samples_f1(sz, args.sigma, rng)
        pdf = functools.partial(pseudo2x2.spacing_pdf_f1, sigma=args.sigma)
        cdf = functools.partial(pseudo2x2.spacing_cdf_f1, sigma=args.sigma)
    else:
        def draw(sz, rng):
            params = pseudo2x2.sample_params(family, args.sigma, sz, rng)
            e1, e2 = pseudo2x2.eigenvalues2(pseudo2x2.family_matrix(family, **params))
            return np.abs(e1 - e2)

    spac = _chunked_sample(draw, args.count, args.seed, args.threads)
    # only f1 drops draws: those outside the real sector
    if spac.size == 0:
        raise UsageError("no f1 draws with real eigenvalues (bc > 0); raise --count")
    _sort_finite(spac, f"{args.family} spacings", "--sigma")
    files = {f"{name}.csv": _histogram_csv(spac, args.bins, 8.0 * args.sigma, pdf)}
    if cdf is None:
        return files, []
    rep = stats.ks_statistic(spac, cdf, pass_threshold=args.ks_threshold, label=name)
    files[f"gof_{name}.json"] = _json_text(dataclasses.asdict(rep))
    return files, [rep]


# ---------------------------------------------------------------------------
# spacing-cyclic
# ---------------------------------------------------------------------------

def cmd_spacing_cyclic(args) -> tuple[dict[str, str], list[stats.GofReport]]:
    from . import circulant, stats

    classes = ["cc", "rc", "generic"] if args.klass == "all" else [args.klass]
    if args.blocks == "none" and args.n <= 4 and args.klass == "generic":
        # at most two complex eigenvalues, which are one conjugate pair
        raise UsageError("no generic pairs for a scalar circulant with N <= 4")
    if args.blocks == "ising" and args.n == 3:
        # the chain's row (A, B, B^dagger) is that of a Hermitian matrix
        raise UsageError(
            "the coupled chain with N = 3 is Hermitian, so every eigenvalue is real and "
            "no class has a spacing; --n must be at least 4 with --blocks ising"
        )
    if args.blocks != "none" and args.block_scale < np.finfo(float).tiny:
        # most draws at such a scale are subnormal, with too few bits to tell
        # eigenvalues apart (near the smallest normal float some still are)
        raise UsageError(
            "--block-scale is below the smallest normal float (about 2.2e-308); "
            "it is out of range"
        )

    if args.blocks == "none":
        scale_flag = "--weight"
        classify = circulant.classify_spacings_batch
        def draw(sz, rng):
            return circulant.batch_spectra(circulant.sample_rows(args.n, args.weight, sz, rng))
    else:
        from . import blockcirc

        scale_flag = "--block-scale"
        classify = blockcirc.classify_block_batch
        sampler = (
            blockcirc.sample_gaussian_blocks
            if args.blocks == "gaussian"
            else blockcirc.sample_ising_blocks
        )
        def draw(sz, rng):
            return blockcirc.batch_block_spectra(sampler(args.n, sz, rng, scale=args.block_scale))
    spectra = _chunked_sample(draw, args.count, args.seed, args.threads)
    try:
        samples = dict(zip(("cc", "rc", "generic"), classify(spectra)))
    except ValueError as exc:
        # a block draw that overflows leaves a row with a non-finite entry,
        # which cannot be paired
        raise UsageError(f"{exc}; {scale_flag} is out of range")
    del spectra  # only the split reads the spectra
    if not any(sample.size for sample in samples.values()):
        # the real tolerance is relative to the largest eigenvalue, so this
        # needs a spectrum whose imaginary parts are tiny against it: the
        # coupled chain at a tiny scale, whose fixed -1/2 entries do not scale
        raise UsageError(
            f"no cc, rc or generic spacings for this configuration; {scale_flag} is out of range"
        )

    # each law is read from its module when the command runs, so a wrapper
    # set on the module attribute (the benchmark's tracer) sees every call
    laws = {
        "cc": (circulant.pdf_cc, stats.cdf_cc),
        "rc": (circulant.pdf_rc, stats.cdf_rc),
        "generic": (circulant.pdf_generic, stats.cdf_generic),
    }
    files: dict[str, str] = {}
    reports: list[stats.GofReport] = []
    for klass in classes:
        pdf, cdf = laws[klass]
        sample = samples[klass]
        if sample.size == 0:
            if args.klass == "all":
                continue  # e.g. scalar N <= 4 has at most one conjugate pair
            raise UsageError(f"no {klass} pairs for this configuration")
        # one array per class: normalised and sorted in place, then read by
        # both the histogram and the KS distance
        try:
            values = stats.normalize_unit_mean(sample)
        except ValueError as exc:
            raise UsageError(f"{klass} spacings: {exc}; {scale_flag} is out of range")
        _sort_finite(values, f"{klass} spacings", scale_flag)
        files[f"spacing_{klass}.csv"] = _histogram_csv(values, args.bins, 5.0, pdf)
        rep = stats.ks_statistic(
            values, cdf, pass_threshold=args.ks_threshold, label=f"spacing_{klass}"
        )
        # a cc pair is its own twin, and each rc or generic value stands for
        # a pair and its twin; the report counts pairs, and repeating each
        # value would not move a bit of the distance or the densities
        # (docs/decisions.md).  The coupled-chain ensemble does not follow
        # the scalar laws (its cc law is derived there too), so its reports
        # are reference-only
        rep = dataclasses.replace(
            rep, n=(1 if klass == "cc" else 2) * rep.n, reference_only=args.blocks == "ising"
        )
        reports.append(rep)
        files[f"gof_{klass}.json"] = _json_text(dataclasses.asdict(rep))
    return files, reports


# ---------------------------------------------------------------------------
# walk
# ---------------------------------------------------------------------------


def _read_walk_config(path: Path) -> dict[str, str]:
    """The ``key = value`` lines of a walk config file, as strings."""
    if not path.exists():
        raise UsageError(f"config file {path} does not exist")
    try:
        text = path.read_text()
    except UnicodeDecodeError as exc:
        raise UsageError(f"config file {path} is not UTF-8 text: {exc}")
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip().lower()
        if key not in ("sites", "w", "p", "row", "start"):
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = val.strip()
    return values


def _walk_config_from(args) -> walk.WalkConfig:
    from . import walk

    try:
        if args.row is not None:
            return walk.WalkConfig([float(tok) for tok in args.row.split(",") if tok.strip()])
        if None not in (args.sites, args.w, args.p):
            return walk.WalkConfig.ring(args.sites, args.w, args.p)
    except ValueError as exc:
        raise UsageError(f"invalid walk configuration: {exc}")
    raise UsageError("walk needs a hop row or a site count with w and p")


def cmd_walk(args) -> tuple[dict[str, str], list[stats.GofReport]]:
    from . import walk

    cfg = _walk_config_from(args)
    if not 0 <= args.start < cfg.n_sites:
        raise UsageError(f"start site {args.start} outside 0..{cfg.n_sites - 1}")
    state0 = walk.WalkState.delta(cfg.n_sites, args.start)
    ts = np.arange(args.t_max + 1)
    ent = np.empty(ts.size)
    dev = np.empty(ts.size)
    uniform = 1.0 / cfg.n_sites
    try:
        for i, state in enumerate(walk.evolve_spectral(cfg, state0, ts)):
            ent[i] = walk.entropy(state)
            dev[i] = float(np.max(np.abs(state.probs - uniform)))
    except ValueError as exc:
        # the start is a valid state, so only the row can fail an evolved one
        raise UsageError(
            f"hop row sums to {float(cfg.row.sum())!r}, too far from 1 for "
            f"--t-max {args.t_max}: {exc}"
        )
    header = ["t", "entropy_kb", "max_abs_dev_from_uniform"]
    return {"walk.csv": _csv_text(header, [ts, ent, dev])}, []


# ---------------------------------------------------------------------------
# rmt-decay
# ---------------------------------------------------------------------------


def cmd_rmt_decay(args) -> tuple[dict[str, str], list[stats.GofReport]]:
    from . import walk

    ts = np.arange(args.t_max + 1)
    closed = np.array([walk.rmt_decay_closed_form(int(t)) for t in ts])
    asym = np.array([walk.rmt_decay_asymptotic(int(t)) for t in ts])
    pdiff = 100.0 * (closed - asym) / closed
    header = ["t", "closed_form_scaled", "asymptotic_scaled", "percent_difference"]
    cols = [ts, closed, asym, pdiff]
    if args.realizations > 0:
        from . import seeding

        mc = np.empty(ts.size)
        se = np.empty(ts.size)
        # every step draws from its own stream, so how the steps are split
        # over workers does not change a bit of the output
        rngs = seeding.spawn_generators(args.seed, ts.size)
        w = min(_cpu_threads(), ts.size)

        def run(k):
            return [
                walk.rmt_decay_monte_carlo(args.n, int(t), args.realizations, g)
                for t, g in zip(ts[k::w], rngs[k::w])
            ]

        for k, part in enumerate(_pool_map(run, w, range(w))):
            mc[k::w], se[k::w] = zip(*part)
        header += ["monte_carlo_scaled", "monte_carlo_stderr"]
        cols += [mc, se]
    return {"decay.csv": _csv_text(header, cols)}, []


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------


def _replay_args(args) -> argparse.Namespace:
    """The recorded command's arguments, parsed from a manifest."""
    path = Path(args.manifest)
    if not path.exists():
        raise UsageError(f"manifest {path} does not exist")
    try:
        manifest = json.loads(path.read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise UsageError(f"manifest {path} is not JSON: {exc}")
    if not isinstance(manifest, dict):
        raise UsageError(f"manifest {path} is not a JSON object")
    command = manifest.get("command")
    if command not in _COMMANDS:
        raise UsageError(f"manifest names unknown command {command!r}")
    if not isinstance(manifest.get("params"), dict):
        raise UsageError(f"manifest {path} has no 'params' object")
    params = dict(manifest["params"])
    params["out"] = args.out if args.out else str(path.parent)
    # a walk's config file is not read again: the manifest records every
    # value the run took from it, and the file may since have moved
    params.pop("config", None)
    # re-parse the recorded options, so a replay meets the same argument
    # checks as the original command line before anything is sampled
    parser = _build_parser()
    options = _subparser(parser, command)._actions
    flags = {a.dest: a.option_strings[0] for a in options if a.option_strings}
    argv = [command]
    argv += [f"{flags[k]}={v}" for k, v in params.items() if k in flags and v is not None]
    return _parse_args(parser, argv)


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

# the commands that write a manifest, and so can be replayed
_COMMANDS = ("spacing2x2", "spacing-cyclic", "walk", "rmt-decay")


def _params_dict(args) -> dict:
    skip = {"func", "assert_mode", "command"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _subparser(parser: argparse.ArgumentParser, command: str) -> argparse.ArgumentParser:
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return subparsers.choices[command]


def _parse_args(parser: argparse.ArgumentParser, argv) -> argparse.Namespace:
    """Parse a command line.  With a walk ``--config`` file, its values
    become the walk options' defaults and the line is parsed again, so they
    meet each flag's own type and the flags given override them."""
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        _subparser(parser, "walk").set_defaults(**_read_walk_config(Path(args.config)))
        args = parser.parse_args(argv)
    return args


class _Parser(argparse.ArgumentParser):
    """Argument parser whose errors are one line on stderr and exit 2."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _int_at_least(low: int, at_most: int | None = None):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if at_most is not None and value > at_most:
            raise argparse.ArgumentTypeError(f"must be <= {at_most}, got {value}")
        return value

    parse.__name__ = "integer"  # argparse names the type in "invalid integer value"
    return parse


def _realization_count(text: str) -> int:
    """0 (closed form only) or at least 2: one realization has no standard
    error, so its ``monte_carlo_stderr`` column would be all inf."""
    value = _int_at_least(0)(text)
    if value == 1:
        raise argparse.ArgumentTypeError("must be 0 or >= 2 (one has no standard error), got 1")
    return value


_realization_count.__name__ = "integer"


def _positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text}")
    return value


_positive_float.__name__ = "number"


def _family(text: str) -> str:
    """A 2x2 family name, checked against ``pseudo2x2.FamilyTag`` only when
    ``--family`` is parsed, so building the parser loads no library module."""
    from . import pseudo2x2

    names = [tag.value for tag in pseudo2x2.FamilyTag]
    if text not in names:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {text!r} (choose from {', '.join(map(repr, names))})"
        )
    return text


def _decay_t_max(text: str) -> int:
    """The final decay step: 1 up to ``walk.DECAY_T_MAX``, read only when
    ``--t-max`` is given."""
    from . import walk

    return _int_at_least(1, at_most=walk.DECAY_T_MAX)(text)


_decay_t_max.__name__ = "integer"


def _add_common(sp):
    sp.add_argument("--out", required=True, help="output directory")
    sp.add_argument("--seed", type=_int_at_least(0), default=0, help="root seed (u64)")


def _add_spacing_options(sp):
    """Options of the commands that sample spacings and test them for fit."""
    sp.add_argument(
        "--threads",
        type=_int_at_least(1),
        default=_cpu_threads(),
        help="worker pool size (default: the CPUs the process may use)",
    )
    sp.add_argument("--bins", type=_int_at_least(1), default=50, help="histogram bins")
    sp.add_argument(
        "--assert",
        dest="assert_mode",
        action="store_true",
        help="turn failed goodness-of-fit reports into exit code 4",
    )
    sp.add_argument(
        "--ks-threshold", type=_positive_float, default=0.05, help="KS pass threshold for reports"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="phrmt", description="spectral statistics of pseudo-Hermitian ensembles"
    )
    parser.add_argument("--version", action="version", version=f"phrmt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spacing2x2", help="2x2 family level-spacing run")
    sp.add_argument("--family", required=True, type=_family, help="2x2 family")
    sp.add_argument("--sigma", type=_positive_float, default=1.0, help="ensemble width")
    sp.add_argument("--epsilon", type=_positive_float, default=1.0, help="f3 scaling parameter")
    sp.add_argument("--count", type=_int_at_least(1), required=True, help="number of draws")
    _add_common(sp)
    _add_spacing_options(sp)
    sp.set_defaults(func=cmd_spacing2x2)

    sp = sub.add_parser("spacing-cyclic", help="circulant spacing-class run")
    sp.add_argument(
        "--n", type=_int_at_least(3), required=True, help="matrix size (or block count)"
    )
    sp.add_argument("--weight", type=_positive_float, default=1.0, help="Gaussian weight A")
    sp.add_argument(
        "--count", type=_int_at_least(1), required=True, help="number of realizations"
    )
    sp.add_argument(
        "--class",
        dest="klass",
        default="all",
        choices=["cc", "rc", "generic", "all"],
        help="spacing class to report",
    )
    sp.add_argument(
        "--blocks",
        default="none",
        choices=["none", "gaussian", "ising"],
        help="scalar entries or 2x2-block ensembles",
    )
    sp.add_argument(
        "--block-scale", type=_positive_float, default=1.0, help="block parameter width"
    )
    _add_common(sp)
    _add_spacing_options(sp)
    sp.set_defaults(func=cmd_spacing_cyclic)

    sp = sub.add_parser("walk", help="ring-walk entropy relaxation")
    sp.add_argument("--config", help="flat key=value config file")
    sp.add_argument("--sites", type=_int_at_least(2), help="number of ring sites")
    sp.add_argument("--w", type=float, help="jump probability")
    sp.add_argument("--p", type=float, help="right-bias probability")
    sp.add_argument("--row", help="comma-separated hop row (overrides sites/w/p)")
    sp.add_argument("--start", type=int, default=0, help="delta-start site")
    sp.add_argument("--t-max", type=_int_at_least(0), default=400, help="final time step")
    _add_common(sp)
    sp.set_defaults(func=cmd_walk)

    sp = sub.add_parser("rmt-decay", help="ensemble decay-law curves")
    sp.add_argument(
        "--t-max",
        type=_decay_t_max,
        default=200,
        help="final time step",
    )
    sp.add_argument("--n", type=_int_at_least(3), default=32, help="ring size for Monte Carlo")
    sp.add_argument(
        "--realizations",
        type=_realization_count,
        default=0,
        help="Monte Carlo realizations per time step: 0 (closed form only) or at least 2",
    )
    _add_common(sp)
    sp.set_defaults(func=cmd_rmt_decay)

    sp = sub.add_parser("replay", help="re-run a recorded manifest")
    sp.add_argument("--manifest", required=True, help="path to manifest.json")
    sp.add_argument("--out", help="output directory (default: beside the manifest)")
    sp.set_defaults(assert_mode=False)

    return parser


def _dispatch(args) -> list[stats.GofReport]:
    """Run a command, then write its outputs and manifest to ``args.out``.

    A command returns the name and text of each output file, in write order,
    and its goodness-of-fit reports; it writes nothing itself.  So nothing
    is created before everything is computed, an output path that cannot be
    written fails before computing, and if a write fails the files and
    directories the run made are removed.
    """
    if args.command == "replay":
        args = _replay_args(args)
    _check_writable(Path(args.out))
    files, reports = args.func(args)
    out = OutputDir(Path(args.out))
    try:
        for name, text in files.items():
            out.write_text(name, text)
        _write_manifest(out, args)
    except BaseException:
        out.rollback()
        raise
    return reports


def main(argv=None) -> int:
    try:
        args = _parse_args(_build_parser(), argv)
        reports = _dispatch(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except IOError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    for rep in reports:
        status = "pass" if rep.passed else ("ref" if rep.reference_only else "FAIL")
        print(f"{rep.label}: ks={rep.ks_distance:.5f} n={rep.n} [{status}]")
    if getattr(args, "assert_mode", False):
        failed = [r for r in reports if not r.passed and not r.reference_only]
        if failed:
            print(
                f"numeric failure: {len(failed)} goodness-of-fit report(s) above threshold",
                file=sys.stderr,
            )
            return EXIT_NUMERIC
    return EXIT_OK


def _builtin_hashes() -> bool:
    """Whether this CPython build has its own md5, sha1, sha2, sha3 and
    blake2 modules, which ``hashlib`` and ``hmac`` use when ``_hashlib`` is
    absent (3.12 and later keep the sha2 family in one module).  A build
    configured without some of them, as FIPS-oriented ones may be, needs
    OpenSSL for those hashes, and ``random`` needs sha512."""
    from importlib.util import find_spec

    sha2 = ("_sha2",) if sys.version_info >= (3, 12) else ("_sha256", "_sha512")
    return all(find_spec(name) for name in ("_md5", "_sha1", *sha2, "_sha3", "_blake2"))


def entry(argv=None) -> int:
    """Process entry of ``python -m phrmt.cli`` and the ``phrmt`` script:
    ``main``, with OpenSSL kept out where CPython's own hashes stand in."""
    # numpy.random.bit_generator imports secrets, for the entropy of seedless
    # generators (every stream here is seeded); secrets imports hmac, and hmac
    # imports _hashlib, which maps OpenSSL's libcrypto: 3.4 MiB of peak RSS.
    # Blocked, hashlib and hmac fall back to CPython's built-in hashes.  Only
    # the process entry blocks it, so a program that calls main keeps its
    # OpenSSL (see docs/decisions.md, "What a CLI process loads")
    if _builtin_hashes():
        sys.modules.setdefault("_hashlib", None)
    return main(argv)


if __name__ == "__main__":
    sys.exit(entry())
