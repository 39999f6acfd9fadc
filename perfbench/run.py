"""phrmt benchmark: time fixed CLI workloads end to end, check their outputs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload blocks-ising --seed 3 --seconds 25 --trace 0

Each pass runs the workload's commands one after another, each in a fresh
``python -m phrmt.cli`` process built from the checkout's ``src``.  Passes
repeat until ``--seconds`` have gone by (at least three passes).  Every
command's outputs are compared with the reference outputs in
``reference.json`` after the pass, outside the timed region; a nonzero exit
or a mismatch counts the command as failed.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer ones: after the untraced passes it makes one traced pass, in
which each command runs under ``spans.py`` with the phrmt modules'
functions wrapped.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from outputs import compare, read_outputs, unpack
from spans import layer_metric, layer_totals
from workloads import REFERENCE_SEEDS, WORKLOADS, Workload, cli_seed

HERE = Path(__file__).resolve().parent
MIN_PASSES = 3
# Children still running this long after the start are killed and count as
# failed, so the benchmark ends well within its 180-second limit.
DEADLINE_S = 150.0
SETUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import phrmt.cli\n"
    "print('import_s', time.perf_counter() - t, phrmt.cli.__file__)\n"
)


class BenchError(Exception):
    pass


@dataclass
class Pass:
    wall_s: float
    samples: int = 0
    peak_rss_kib: int = 0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)


def run_child(argv: list[str], cwd: Path, env: dict, log: Path, deadline: float):
    """Run argv to completion; return (exit code, peak RSS in KiB).

    The peak RSS is the child's own, read from its rusage when it is reaped.
    A child still running at ``deadline`` (a perf_counter time) is killed.
    """
    with open(log, "wb") as sink:
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=sink, stderr=subprocess.STDOUT)
    timer = threading.Timer(max(0.0, deadline - time.perf_counter()), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


def import_seconds(root: Path, env: dict, work: Path, deadline: float) -> float:
    """Seconds a fresh interpreter takes to ``import phrmt.cli``.

    The import must resolve to the checkout's ``src``.
    """
    log = work / "setup.log"
    code, _ = run_child([sys.executable, "-c", SETUP_CODE], root, env, log, deadline)
    text = log.read_text()
    found = [line.split(" ", 2) for line in text.splitlines() if line.startswith("import_s ")]
    if code != 0 or not found:
        raise BenchError(f"import phrmt.cli failed:\n{text}")
    _, seconds, path = found[0]
    src = (root / "src").resolve()
    if not Path(path).resolve().is_relative_to(src):
        raise BenchError(f"phrmt imported from {path}, not from {src}")
    return float(seconds)


def run_pass(workload: Workload, seed: int, root: Path, env: dict, work: Path,
             deadline: float, reference: dict, traced: bool = False) -> tuple[Pass, list[Path]]:
    """One pass over the workload's commands, then the output checks."""
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    seed_index = REFERENCE_SEEDS.index(seed)
    runs, span_files = [], []
    start = time.perf_counter()
    for i, cmd in enumerate(workload.commands):
        out = work / f"out{i}"
        argv = cmd.argv(seed, str(out))
        if traced:
            span_files.append(work / f"spans{i}.json")
            child = [sys.executable, str(HERE / "spans.py"), "--spans", str(span_files[-1]), "--", *argv]
        else:
            child = [sys.executable, "-m", "phrmt.cli", *argv]
        log = work / f"log{i}.txt"
        runs.append((cmd, out, log, *run_child(child, root, env, log, deadline)))
    result = Pass(wall_s=time.perf_counter() - start)
    for cmd, out, log, code, rss in runs:
        result.attempted += 1
        result.peak_rss_kib = max(result.peak_rss_kib, rss)
        if code != 0:
            result.failures.append(f"{cmd.key}: exit {code}\n{log.read_text()[-2000:]}")
            continue
        got = read_outputs(out)
        result.samples += cmd.samples([g["n"] for g in got["gof"].values()])
        want = unpack(reference["commands"][cmd.key], seed_index)
        problems = compare(got, want)
        if problems:
            result.failures.append(f"{cmd.key}: " + "; ".join(problems[:5]))
    return result, span_files


def traced_layers(span_files: list[Path]) -> tuple[dict, dict]:
    """Per-layer totals and counters summed over the traced commands."""
    totals: dict[str, dict[str, float]] = {}
    counts: dict[str, int] = {}
    for path in span_files:
        if not path.exists():
            continue
        data = json.loads(path.read_text())
        for name, t in layer_totals([tuple(s) for s in data["spans"]]).items():
            acc = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for k, v in t.items():
                acc[k] += v
        for name, n in data["counts"].items():
            counts[name] = counts.get(name, 0) + n
    return totals, counts


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="phrmt CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "phrmt" / "cli.py").is_file():
        print(f"error: no phrmt sources under {root / 'src'}; run from a checkout's root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    reference = json.loads((HERE / "reference.json").read_text())
    workload = WORKLOADS[args.workload]
    seed = cli_seed(args.seed)
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    work = root / ".perfbench_out" / str(os.getpid())
    t0 = time.perf_counter()
    deadline = t0 + DEADLINE_S
    try:
        work.mkdir(parents=True)
        import_seconds(root, env, work, deadline)  # unrecorded: may compile bytecode
        setup: list[float] = []
        passes: list[Pass] = []
        measure_start = time.perf_counter()
        while len(passes) < MIN_PASSES or time.perf_counter() - measure_start < args.seconds:
            if not args.trace:
                # one import per pass, so a slow spell of the machine hits
                # set-up and passes alike
                setup.append(import_seconds(root, env, work, deadline))
            p, _ = run_pass(workload, seed, root, env, work / "pass", deadline, reference)
            passes.append(p)
            if time.perf_counter() > deadline:
                break
        traced = None
        if args.trace:
            traced, span_files = run_pass(workload, seed, root, env, work / "traced",
                                          deadline, reference, traced=True)
            totals, counts = traced_layers(span_files)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is using it

    all_passes = passes + ([traced] if traced else [])
    attempted = sum(p.attempted for p in all_passes)
    failures = [f for p in all_passes for f in p.failures]
    for f in failures:
        print(f"FAILED {f}", file=sys.stderr)

    walls = [p.wall_s for p in passes]
    q1, run_s, q3 = quartiles(walls)
    print(f"{workload.name}: seed {args.seed} -> CLI seed {seed}, {len(passes)} passes, "
          f"run_s median {run_s:.3f} s (quartiles {q1:.3f}, {q3:.3f}; "
          f"passes {', '.join(f'{w:.3f}' for w in walls)}), "
          f"{len(failures)} of {attempted} commands failed")

    if args.trace:
        values = {"trace.overhead_s": traced.wall_s - run_s}
        for m in spec["per_layer"]:
            if m["name"] not in values:
                values[m["name"]] = layer_metric(m["name"], totals, counts)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        values = {
            "run_s": run_s,
            "setup_s": statistics.median(setup),
            "samples_per_s": statistics.median(p.samples / p.wall_s for p in passes),
            "peak_rss_mb": statistics.median(p.peak_rss_kib / 1024 for p in passes),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  failed_frac = {len(failures) / attempted:g} (failed commands / commands run)")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
