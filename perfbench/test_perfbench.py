"""Tests of the benchmark's own code.  Run: python -m pytest perfbench"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from outputs import compare, pack, unpack
from spans import Tracer, layer_totals, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ISING = "spacing-cyclic --n 25 --count 2000 --blocks ising"


def test_self_time_subtracts_children_once_across_threads():
    # cmd [0, 10] on the main thread; two pool chunks under it overlap in
    # [2, 4]; one chunk has a child of its own on its thread.
    spans = [
        (0, "cmd", 0.0, 10.0, None, 1),
        (1, "chunk", 1.0, 4.0, 0, 2),
        (2, "chunk", 2.0, 6.0, 0, 3),
        (3, "spectra", 2.5, 3.5, 1, 2),
        (4, "write", 8.0, 9.0, 0, 1),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 1.0)  # children cover [1, 6] and [8, 9]
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(4.0)
    assert selfs[3] == pytest.approx(1.0)
    totals = layer_totals(spans)
    assert totals["chunk"] == {"calls": 2, "s": pytest.approx(7.0), "self_s": pytest.approx(6.0)}


def test_nested_span_of_same_name_counts_once_in_total():
    spans = [
        (0, "sample", 0.0, 4.0, None, 1),
        (1, "sample", 1.0, 3.0, 0, 1),
    ]
    totals = layer_totals(spans)["sample"]
    assert totals["s"] == pytest.approx(4.0)
    assert totals["self_s"] == pytest.approx(4.0)
    assert totals["calls"] == 2


def test_tracer_keeps_one_stack_per_thread():
    tracer = Tracer()
    barrier = threading.Barrier(2)

    def chunk(i):
        with tracer.span("chunk"):
            barrier.wait(timeout=10)  # both chunks are open at once
            with tracer.span("inner"):
                pass

    with tracer.span("cmd"):
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(chunk, range(2)))
    by_name = {}
    for sid, name, start, end, parent, thread in tracer.spans:
        by_name.setdefault(name, []).append((sid, parent, thread))
    (cmd_id, _, main_thread), = by_name["cmd"]
    chunk_ids = {sid: thread for sid, _, thread in by_name["chunk"]}
    assert all(parent == cmd_id for _, parent, _ in by_name["chunk"])
    assert set(chunk_ids.values()) != {main_thread} and len(set(chunk_ids.values())) == 2
    # each inner span's parent is the chunk open on its own thread
    for _, parent, thread in by_name["inner"]:
        assert chunk_ids[parent] == thread


@pytest.fixture(scope="module")
def ising_reference():
    reference = json.loads((HERE / "reference.json").read_text())
    return reference["commands"][ISING]


def test_reference_matches_itself(ising_reference):
    want = unpack(ising_reference, 0)
    assert compare(copy.deepcopy(want), want) == []


def test_output_check_rejects_changed_class_count(ising_reference):
    # positional pairing moves eigenvalues near the tolerance from real to
    # conjugate, which changes the cc count
    want = unpack(ising_reference, 0)
    got = copy.deepcopy(want)
    got["gof"]["gof_cc.json"]["n"] += 36
    problems = compare(got, want)
    assert len(problems) == 1 and "gof_cc.json: n" in problems[0]


def test_output_check_tolerates_low_order_bits_only(ising_reference):
    want = unpack(ising_reference, 0)
    got = copy.deepcopy(want)
    col = got["csv"]["spacing_cc.csv"]["empirical_density"]
    col[:] = [v * (1 + 1e-13) for v in col]
    got["gof"]["gof_rc.json"]["ks_distance"] += 1e-12
    assert compare(got, want) == []
    # one more count in one 0.1-wide bin of the cc histogram
    col[3] += 1.0 / (want["gof"]["gof_cc.json"]["n"] * 0.1)
    problems = compare(got, want)
    assert len(problems) == 1 and "spacing_cc.csv:empirical_density: row 3" in problems[0]


def test_output_check_rejects_missing_file(ising_reference):
    want = unpack(ising_reference, 0)
    got = copy.deepcopy(want)
    got["files"].remove("gof_rc.json")
    del got["gof"]["gof_rc.json"]
    assert len(compare(got, want)) == 1


def test_pack_stores_seed_independent_columns_once():
    records = [
        {"files": ["a.csv"], "gof": {}, "csv": {"a.csv": {"x": [1.0, 2.0], "y": [float(s), 0.5]}}}
        for s in range(3)
    ]
    entry = pack(records)
    assert entry["csv"]["a.csv"]["x"] == {"all": [1.0, 2.0]}
    assert entry["csv"]["a.csv"]["y"] == {"by_seed": [[0.0, 0.5], [1.0, 0.5], [2.0, 0.5]]}
    assert unpack(entry, 2) == records[2]


def test_traced_command_records_every_layer(tmp_path):
    # small ising run: the CDF spans are reached only through cli._CLASS_CDFS
    spans_file = tmp_path / "spans.json"
    argv = [sys.executable, str(HERE / "spans.py"), "--spans", str(spans_file), "--",
            "spacing-cyclic", "--n", "5", "--count", "300", "--blocks", "ising",
            "--seed", "1", "--threads", "2", "--out", str(tmp_path / "out")]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(argv, cwd=ROOT, env=env, check=True, timeout=120, stdout=subprocess.DEVNULL)
    data = json.loads(spans_file.read_text())
    totals = layer_totals([tuple(s) for s in data["spans"]])
    assert totals["blockcirc.pair_conjugates"]["calls"] == 300
    for name in ("cli.cmd", "cli.sample", "cli.chunk", "blockcirc.sample",
                 "blockcirc.batch_block_spectra", "blockcirc.classify_block_batch",
                 "stats.cdf_cc", "stats.cdf_rc", "stats.cdf_generic",
                 "stats.ks_statistic", "stats.histogram", "cli.write"):
        assert totals[name]["calls"] >= 1, name
    counts = data["counts"]
    assert counts["stats.ks.values"] == counts["stats.n.cc"] + counts["stats.n.rc"] + counts["stats.n.generic"]
    assert counts["cli.write.bytes"] > 0
