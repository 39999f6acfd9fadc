"""The benchmark's workloads: fixed phrmt CLI commands run at a seed.

Each command runs in a fresh ``python -m phrmt.cli`` process.  Commands that
draw random numbers also get ``--threads 2`` (the reference machine has two
cores); ``walk`` and ``rmt-decay`` take no ``--threads`` flag.  The benchmark's
``--seed`` picks one of ``REFERENCE_SEEDS`` as the CLI seed, because outputs
are checked against reference outputs recorded for exactly those seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

# CLI seeds whose outputs are recorded in reference.json.
REFERENCE_SEEDS = tuple(range(10))
THREADS = 2


@dataclass(frozen=True)
class Command:
    """One CLI invocation.  ``args`` excludes --seed, --threads and --out."""

    args: tuple[str, ...]
    threaded: bool = True

    @property
    def key(self) -> str:
        return " ".join(self.args)

    def argv(self, cli_seed: int, out: str) -> list[str]:
        argv = [*self.args, "--seed", str(cli_seed), "--out", out]
        if self.threaded:
            argv += ["--threads", str(THREADS)]
        return argv

    def option(self, flag: str) -> str:
        return self.args[self.args.index(flag) + 1]

    def samples(self, gof_counts: list[int]) -> int:
        """Statistical samples the command delivers.

        Spacing commands: the spacings histogrammed and KS-tested (the
        ``n`` of each GoF report).  Commands without GoF reports:
        ``spacing2x2`` counts draws, ``rmt-decay`` realizations times
        time steps, ``walk`` time steps.
        """
        if gof_counts:
            return sum(gof_counts)
        name = self.args[0]
        if name == "spacing2x2":
            return int(self.option("--count"))
        if name == "rmt-decay":
            return int(self.option("--realizations")) * (int(self.option("--t-max")) + 1)
        if name == "walk":
            return int(self.option("--t-max")) + 1
        raise ValueError(f"no sample count defined for {self.key!r}")


def _cmd(text: str, threaded: bool = True) -> Command:
    return Command(tuple(text.split()), threaded)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple[Command, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "blocks-gaussian",
            "greedy conjugate pairing of Gaussian 2x2-block spectra dominates; "
            "a 2.3M-value generic sample sets peak RSS",
            (_cmd("spacing-cyclic --n 25 --count 2000 --blocks gaussian"),),
        ),
        Workload(
            "blocks-ising",
            "same pairing layer on the coupled chain, whose eigenvalues sit near "
            "the real/complex tolerance, so a wrong pairing shortcut fails here",
            (_cmd("spacing-cyclic --n 25 --count 2000 --blocks ising"),),
        ),
        Workload(
            "scalar",
            "scalar circulants and 2x2 families bypass blockcirc: transforms, "
            "the f2 per-draw loop, GridCdf builds, cdf_cc; start-up is a large share",
            (
                _cmd("spacing-cyclic --n 100 --count 500 --class all"),
                _cmd("spacing-cyclic --n 3 --count 50000 --class cc"),
                _cmd("spacing2x2 --family f1 --count 50000"),
                _cmd("spacing2x2 --family f2 --count 50000"),
            ),
        ),
        Workload(
            "decay",
            "ring-walk layer only: Monte Carlo decay law dominates, no spacing or "
            "KS code runs; the README decay run scaled down 100x",
            (
                _cmd("rmt-decay --t-max 200 --n 32 --realizations 1000", threaded=False),
                _cmd("walk --sites 22 --w 0.8 --p 0.3 --t-max 700", threaded=False),
            ),
        ),
    )
}


def cli_seed(seed: int) -> int:
    """Map the benchmark's seed onto a seed with recorded reference outputs."""
    return REFERENCE_SEEDS[seed % len(REFERENCE_SEEDS)]
