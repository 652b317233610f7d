"""End-to-end accelerator throughput (the PR 3 perf-regression harness).

Runs the same measurement ``repro bench`` records into
``BENCH_throughput.json``: bit-pack kernel latencies, XNOR GEMM at
Table I layer shapes, per-stage wall time and end-to-end FPS of the
default engine for each prototype.

Marked ``perf`` so tier-1 never pays for wall-clock measurement; run
with ``pytest benchmarks/bench_e2e.py -m perf`` (or just use the CLI:
``PYTHONPATH=src python -m repro.cli bench``).
"""

import pytest

from repro.benchmarking import BENCH_ARCHS, render_run, run_bench

pytestmark = pytest.mark.perf


def test_e2e_throughput(capsys):
    """One full harness run, rendered the way ``repro bench`` prints it."""
    run = run_bench(archs=BENCH_ARCHS, images=16, repeats=2)
    with capsys.disabled():
        print()
        print(render_run(run))
    for arch in BENCH_ARCHS:
        assert run["e2e"][arch]["fps"] > 0
