"""Benchmark of exactreal: one workload per process, one JSON line out.

    python3 bench/run.py --workload constants --seed 1 --seconds 20 --trace 0

With --trace 0 the run times whole passes over the workload's tasks until
another pass would overrun --seconds (at least one pass) and reports the
end-to-end metrics.  With --trace 1 it makes three passes whatever
--seconds says: one untraced, one under the tracer (which also covers the
rebuilding of the pass's inputs), and one under cProfile; it reports the
per-layer metrics.  Every answer of every pass is checked after the timed
work, against oracles computed apart from the program.

The last line of standard output is a JSON object with the keys
correct, attempted, failed and metrics.  Raw per-task timings, the trace
dump and the profile are written under bench/out/.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("constants", "integrals", "roots"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Raised:
    """An exception a task raised instead of answering."""

    def __init__(self, exc: BaseException) -> None:
        self.text = f"{type(exc).__name__}: {exc}"


def run_pass(tasks, tracer=None) -> list[tuple[str, float, object]]:
    """Run every task once, emptying the list; (name, seconds, answer) each.

    Each task is dropped once it has run, so its reals and their memos are
    freed and the peak resident memory is that of the largest task, not of
    the whole pass.  Garbage is collected before each task and the
    collector stays off inside it, so no timing carries a collection of
    earlier garbage.
    """
    results = []
    tasks.reverse()
    while tasks:
        task = tasks.pop()
        gc.collect()
        gc.disable()
        if tracer is not None:
            tracer.enter("bench.task")
        start = time.perf_counter()
        try:
            answer = task.run()
        except Exception as exc:  # a failed task is reported, not fatal
            answer = Raised(exc)
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.leave()
        gc.enable()
        results.append((task.name, seconds, answer))
        del task
    return results


def pass_wall(results) -> float:
    return sum(seconds for _, seconds, _ in results)


def pass_max(results) -> float:
    return max(seconds for _, seconds, _ in results)


def judge(specs, passes) -> tuple[int, int, list[str], list[str]]:
    """Check every answer; (attempted, failed, wrong answers, raised).

    A task fails when it raised, or when its answer fails a check; only
    the second makes the run incorrect.
    """
    from checks import mp_context

    mp = mp_context()
    targets = {name: (oracle(mp) if oracle else None) for name, oracle, _ in specs}
    verdicts = {name: verdict for name, _, verdict in specs}
    attempted = failed = 0
    wrong, raised = [], []
    for index, results in enumerate(passes):
        for name, _, answer in results:
            attempted += 1
            if isinstance(answer, Raised):
                failed += 1
                raised.append(f"pass {index} | {name} | raised {answer.text}")
                continue
            problems = verdicts[name](answer, targets[name])
            if problems:
                failed += 1
                wrong.extend(f"pass {index} | {name} | {p}" for p in problems)
    return attempted, failed, wrong, raised


def timed_passes(workload, seed, seconds, tasks):
    """Passes until the next one would end past `seconds`; at least one."""
    import workloads

    passes = []
    began = time.perf_counter()
    while True:
        lap = time.perf_counter()
        if passes:
            tasks = workloads.build(workload, seed)
        passes.append(run_pass(tasks))
        now = time.perf_counter()
        if now - began + (now - lap) > seconds:
            return passes


def traced_passes(workload, seed, tasks):
    """Untraced, traced and profiled passes, and the per-layer metrics."""
    import cProfile
    import pstats

    import workloads
    from checks import check_tallies
    from tracer import Tracer

    untraced = run_pass(tasks)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.enter("bench.build")
        tasks = workloads.build(workload, seed)
        tracer.leave()
        traced = run_pass(tasks, tracer)
    finally:
        tracer.uninstall()
    tasks = workloads.build(workload, seed)
    # Without builtins, time in C helpers such as math.gcd stays with the
    # Fraction method that called them, and the pass runs faster.
    profile = cProfile.Profile(builtins=False)
    profile.enable()
    profiled = run_pass(tasks)
    profile.disable()
    stats = pstats.Stats(profile).stats
    fraction_s = sum(
        row[2] for (filename, _, _), row in stats.items() if filename.endswith("fractions.py")
    )
    metrics = tracer.metrics()
    metrics["rational.fraction_self_s"] = (fraction_s, "s")
    metrics["trace.overhead_s"] = (pass_wall(traced) - pass_wall(untraced), "s")
    problems = check_tallies(dict(tracer.tallies), tracer.evaluations)
    OUT.mkdir(exist_ok=True)
    profile.dump_stats(str(OUT / f"profile-{workload}-seed{seed}.pstats"))
    dump = tracer.dump()
    dump["untraced_wall_s"] = pass_wall(untraced)
    dump["traced_wall_s"] = pass_wall(traced)
    (OUT / f"trace-{workload}-seed{seed}.json").write_text(json.dumps(dump, indent=1))
    return [untraced, traced, profiled], metrics, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "exactreal" / "__init__.py").is_file():
        print(f"error: no exactreal sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))

    import workloads

    sys.setrecursionlimit(max(sys.getrecursionlimit(), workloads.RECURSION_LIMIT))
    tasks = workloads.build(args.workload, args.seed)
    setup_s = time.perf_counter() - _START
    specs = [(t.name, t.oracle, t.verdict) for t in tasks]

    if args.trace:
        passes, metrics, problems = traced_passes(args.workload, args.seed, tasks)
    else:
        passes = timed_passes(args.workload, args.seed, args.seconds, tasks)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "wall_s": (statistics.median(pass_wall(p) for p in passes), "s"),
            "max_task_s": (statistics.median(pass_max(p) for p in passes), "s"),
            "peak_rss_mb": (peak_mb, "MB"),
            "setup_s": (setup_s, "s"),
        }
        problems = []
        OUT.mkdir(exist_ok=True)
        raw = [[{"task": n, "seconds": s} for n, s, _ in p] for p in passes]
        (OUT / f"run-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps({"setup_s": setup_s, "passes": raw}, indent=1)
        )

    attempted, failed, wrong, raised = judge(specs, passes)
    for line in wrong + raised + problems:
        print(line, file=sys.stderr)
    result = {
        "correct": not wrong and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
