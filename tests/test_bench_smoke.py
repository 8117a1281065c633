"""One pass of each benchmark workload, with every answer checked.

bench/run.py checks each task's answer against oracles computed apart from
the program (mpmath or exact rationals), so an edit that changes an answer
fails here as well as in the benchmark.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from exactreal import analysis, enclosures, expr

BENCH = Path(__file__).resolve().parent.parent / "bench"
RUN = BENCH / "run.py"


@pytest.mark.parametrize("workload", ["constants", "integrals", "roots"])
def test_bench_workload_answers_correctly(workload):
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "1", "--seconds", "0"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, done.stderr
    assert result["failed"] == 0


def test_tracer_finds_what_it_wraps():
    # The tracer rebinds the enclosure kernels where expr imported them; a
    # binding that goes missing would zero the enclosures counters silently.
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for name in tracer.ENCLOSURES_IN_EXPR:
        assert getattr(expr, name) is getattr(enclosures, name), name
    assert callable(analysis._grid_sum)
    # install() looks up every constructor and spanned name by attribute.
    for table in (tracer.CONSTRUCTORS, tracer.SPANNED):
        for module, names in table.items():
            for name in names:
                assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
