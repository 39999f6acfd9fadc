"""Per-layer spans for one phrmt CLI command, recorded from outside the program.

The program carries no instrumentation.  ``install`` replaces the public
functions of each phrmt module (looked up by module attribute, the way the
modules call each other) with wrappers that record a span around the call,
then ``cli.main(argv)`` runs the command as usual.  Spans are kept in memory
and written when the command ends.

Run one traced command (``src`` must be on PYTHONPATH)::

    python perfbench/spans.py [--spans FILE] -- spacing-cyclic --n 25 ...

With ``--spans`` the spans go to FILE as JSON; without it a per-layer table
(calls, total and self seconds) is printed.

``_chunked_sample`` runs samplers on a thread pool, so every thread keeps its
own span stack.  A span opened on a pool thread with an empty stack gets as
parent the innermost open span of the main thread, which is the
``cli.sample`` span waiting for the pool.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

# (module, attribute, span name).  Two attributes may share a span name; a
# span nested in a span of the same name adds nothing to that name's total.
SPANS = (
    ("cli", "_dispatch", "cli.cmd"),
    ("cli", "_chunked_sample", "cli.sample"),
    ("seeding", "spawn_generators", "seeding.spawn_generators"),
    ("blockcirc", "sample_gaussian_blocks", "blockcirc.sample"),
    ("blockcirc", "sample_ising_blocks", "blockcirc.sample"),
    ("blockcirc", "batch_block_spectra", "blockcirc.batch_block_spectra"),
    ("blockcirc", "classify_block_batch", "blockcirc.classify_block_batch"),
    ("blockcirc", "pair_conjugates", "blockcirc.pair_conjugates"),
    ("circulant", "sample_rows", "circulant.sample_rows"),
    ("circulant", "batch_spectra", "circulant.batch_spectra"),
    ("circulant", "classify_spacings_batch", "circulant.classify_spacings_batch"),
    ("pseudo2x2", "sample_params", "pseudo2x2.sample"),
    ("pseudo2x2", "spacing_samples_f1", "pseudo2x2.sample"),
    ("pseudo2x2", "spacing_cdf_f1", "pseudo2x2.spacing_cdf_f1"),
    ("stats", "normalize_unit_mean", "stats.normalize_unit_mean"),
    ("stats", "histogram", "stats.histogram"),
    ("stats", "ks_statistic", "stats.ks_statistic"),
    ("stats", "cdf_cc", "stats.cdf_cc"),
    ("stats", "cdf_rc", "stats.cdf_rc"),
    ("stats", "cdf_generic", "stats.cdf_generic"),
    ("walk", "evolve_spectral", "walk.evolve_spectral"),
    ("walk", "rmt_decay_closed_form", "walk.rmt_decay_closed_form"),
    ("walk", "rmt_decay_monte_carlo", "walk.rmt_decay_monte_carlo"),
    ("walk", "sample_decay_moduli", "walk.sample_decay_moduli"),
)
# Called once per draw in the spacing2x2 per-draw loop: counted, not spanned,
# because a span per call would cost more than the call.
COUNTED = (
    ("pseudo2x2", "family_matrix", "pseudo2x2.family_matrix.calls"),
    ("pseudo2x2", "eigenvalues2", "pseudo2x2.eigenvalues2.calls"),
)
# Spans around the sampler chunks that _chunked_sample hands to its pool.
CHUNK = "cli.chunk"
DRAW_LOOP = "pseudo2x2.draw_loop"  # the chunks of spacing2x2 families other than f1
WRITE = "cli.write"
COUNTERS = (
    "stats.ks.values",
    "stats.n.cc",
    "stats.n.rc",
    "stats.n.generic",
    "stats.histogram.n_out",
    "cli.write.bytes",
) + tuple(name for _, _, name in COUNTED)
SPAN_NAMES = tuple(dict.fromkeys([name for _, _, name in SPANS] + [CHUNK, DRAW_LOOP, WRITE]))


class Tracer:
    """Spans ``(id, name, start, end, parent id, thread id)`` and counters."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._thread_counts: list[Counter] = []
        self._main = self._stack()

    def _stack(self) -> list[int]:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.counts = Counter()
            with self._lock:
                self._thread_counts.append(local.counts)
        return local.stack

    def count(self, name: str, n: int = 1) -> None:
        self._stack()
        self._local.counts[name] += n

    def counts(self) -> Counter:
        total = Counter()
        with self._lock:
            for c in self._thread_counts:
                total.update(c)
        return total

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main[-1] if self._main else None
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, threading.get_ident()))


def _spanned(tracer: Tracer, name: str, fn, on_result=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if on_result is not None:
            on_result(result, *args, **kwargs)
        return result

    return wrapper


def _counted(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(name)
        return fn(*args, **kwargs)

    return wrapper


def chunk_span_name(argv: list[str]) -> str:
    if argv and argv[0] == "spacing2x2" and "--family" in argv:
        if argv[argv.index("--family") + 1] != "f1":
            return DRAW_LOOP
    return CHUNK


def install(tracer: Tracer, chunk_name: str = CHUNK) -> None:
    """Wrap the phrmt functions in SPANS and COUNTED, wherever they are bound.

    Besides each module attribute, module-level aliases and dict entries
    holding the original (``cli._CLASS_CDFS`` holds ``stats.cdf_*``) are
    replaced too; otherwise calls through them would be missed.  A function
    the program no longer has is skipped, and its metrics read 0.
    """
    mods = {
        name: importlib.import_module(f"phrmt.{name}")
        for name in ("cli", "seeding", "blockcirc", "circulant", "pseudo2x2", "stats", "walk")
    }

    def on_ks(rep, *args, **kwargs):
        tracer.count("stats.ks.values", rep.n)
        klass = rep.label.removeprefix("spacing_")
        if klass in ("cc", "rc", "generic"):
            tracer.count(f"stats.n.{klass}", rep.n)

    def on_histogram(hist, *args, **kwargs):
        tracer.count("stats.histogram.n_out", hist.n_out)

    def on_write(path, out, name, text):
        tracer.count("cli.write.bytes", len(text.encode()))

    hooks = {"ks_statistic": on_ks, "histogram": on_histogram}
    replaced = {}  # id of original -> wrapper
    for mod, attr, name in SPANS:
        fn = getattr(mods[mod], attr, None)
        if fn is None:
            continue
        if attr == "_chunked_sample":
            replaced[id(fn)] = _sampling(tracer, name, chunk_name, fn)
        else:
            replaced[id(fn)] = _spanned(tracer, name, fn, hooks.get(attr))
    for mod, attr, name in COUNTED:
        fn = getattr(mods[mod], attr, None)
        if fn is not None:
            replaced[id(fn)] = _counted(tracer, name, fn)

    for module in mods.values():
        for key, value in list(vars(module).items()):
            if id(value) in replaced:
                setattr(module, key, replaced[id(value)])
            elif isinstance(value, dict):
                for k, v in value.items():
                    if id(v) in replaced:
                        value[k] = replaced[id(v)]

    out_dir = getattr(mods["cli"], "OutputDir", None)
    if out_dir is not None:
        out_dir.write_text = _spanned(tracer, WRITE, out_dir.write_text, on_write)


def _sampling(tracer: Tracer, name: str, chunk_name: str, fn):
    """_chunked_sample(sampler, ...) with every sampler chunk spanned too."""

    @functools.wraps(fn)
    def wrapper(sampler, *args, **kwargs):
        with tracer.span(name):
            return fn(_spanned(tracer, chunk_name, sampler), *args, **kwargs)

    return wrapper


# ---------------------------------------------------------------------------
# Self time and per-layer totals
# ---------------------------------------------------------------------------


def _covered(lo: float, hi: float, intervals: list[tuple[float, float]]) -> float:
    """Length of the part of [lo, hi] that the union of intervals covers."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover.

    Children on different threads may overlap; the overlap counts once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, _, start, end, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return {
        sid: (end - start) - _covered(start, end, children.get(sid, []))
        for sid, _, start, end, _, _ in spans
    }


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, total seconds ``s`` and ``self_s``.

    ``s`` adds only spans with no ancestor of the same name, so a wrapped
    function that calls another wrapped under the same name is not counted
    twice.
    """
    by_id = {s[0]: s for s in spans}
    selfs = self_times(spans)
    totals: dict[str, dict[str, float]] = {}
    for sid, name, start, end, parent, _ in spans:
        t = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        t["calls"] += 1
        t["self_s"] += selfs[sid]
        while parent is not None and by_id[parent][1] != name:
            parent = by_id[parent][4]
        if parent is None:
            t["s"] += end - start
    return totals


def layer_metric(name: str, totals: dict, counts: dict) -> float:
    """Value of a per-layer metric ``<span>.<s|calls|self_s>`` or counter."""
    if name in COUNTERS:
        return counts.get(name, 0)
    span, _, kind = name.rpartition(".")
    if span not in SPAN_NAMES or kind not in ("s", "calls", "self_s"):
        raise KeyError(f"unknown per-layer metric {name!r}")
    return totals.get(span, {}).get(kind, 0)


def _report(totals: dict, counts: dict, wall: float) -> str:
    lines = [f"wall {wall:.3f} s", f"{'span':38s} {'calls':>8s} {'total_s':>9s} {'self_s':>9s}"]
    for name, t in sorted(totals.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"{name:38s} {t['calls']:8d} {t['s']:9.3f} {t['self_s']:9.3f}")
    lines.extend(f"{name:38s} {counts[name]:8d}" for name in sorted(counts))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", help="write spans and counters here as JSON")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER, help="-- phrmt arguments")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    from phrmt import cli

    tracer = Tracer()
    install(tracer, chunk_span_name(cli_args))
    start = time.perf_counter()
    code = None
    try:
        code = cli.main(cli_args)
    finally:
        wall = time.perf_counter() - start
        counts = tracer.counts()
        if args.spans:
            payload = {"argv": cli_args, "exit": code, "wall_s": wall,
                       "spans": tracer.spans, "counts": counts}
            Path(args.spans).write_text(json.dumps(payload))
        else:
            print(_report(layer_totals(tracer.spans), counts, wall))
    return code


if __name__ == "__main__":
    sys.exit(main())
