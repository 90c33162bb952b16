"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload route_object --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric named in BENCHMARK.json;
``--trace 1`` runs the traced per-layer pass instead and prints every
per-layer metric.  Earlier lines report the environment, the sample
counts, the simulated-statistics digest and any failed check; the last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, ".out")


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished
    child (Linux reports ``ru_maxrss`` in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def environment() -> dict:
    from repro.obs.manifest import git_sha

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": git_sha(ROOT),
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
        "machine": platform.machine(),
    }


def parse_args(argv: list, workloads: list) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(
    name: str, seed: int, seconds: float, trace: bool, params: dict, out_dir: str = OUT
) -> dict:
    """Run one workload with ``params`` as its inputs; print the report
    lines and return the result object (not yet printed).  Spans and
    campaign stores go under ``out_dir``."""
    from checks import Tally
    from harness import run_e2e, run_traced
    from suite import make_workload

    benchmark = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    print("perfbench env " + json.dumps(environment(), sort_keys=True))
    print(f"perfbench workload {name} seed {seed} " + json.dumps(params))
    os.makedirs(out_dir, exist_ok=True)
    tally = Tally()
    workload = make_workload(name, params, seed, out_dir)
    try:
        if trace:
            declared = benchmark["per_layer"]
            spans_path = os.path.join(out_dir, f"spans-{name}-{seed}.jsonl")
            values = run_traced(
                workload, tally, [m["name"] for m in declared], spans_path
            )
            print(f"perfbench spans written to {spans_path}")
        else:
            declared = benchmark["end_to_end"]
            values, report = run_e2e(workload, seconds, tally)
            print("perfbench samples " + json.dumps(report["samples"]))
            print("perfbench unit_s " + json.dumps(report["unit_s"]))
            print("perfbench unit_packet_steps " + json.dumps(report["unit_packet_steps"]))
            print("perfbench digest " + json.dumps(report["digest"], sort_keys=True))
            print(f"perfbench digest_sha256 {report['digest_sha256']}")
    finally:
        workload.close()
    if not trace:
        values["peak_rss_mb"] = peak_rss_mb()
    metrics = {}
    for metric in declared:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"perfbench metric {metric['name']} = {value!r} {metric['unit']}")
    print(
        f"perfbench failed_frac = {tally.failed_frac!r} "
        f"({tally.failed} of {tally.attempted} operations)"
    )
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def main(argv: list) -> int:
    benchmark_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isdir(os.path.join(SRC, "repro")) or not os.path.isfile(
        benchmark_path
    ):
        print(
            f"perfbench: {SRC}/repro or {benchmark_path} is missing; "
            "run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, SRC)
    workloads = [w["name"] for w in load_json(benchmark_path)["workloads"]]
    args = parse_args(argv, workloads)
    catalogue = load_json(os.path.join(HERE, "workloads.json"))
    params = catalogue["workloads"][args.workload]["inputs"]
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), params)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
