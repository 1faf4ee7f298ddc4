"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload fleet-dense --seed 0 --seconds 20 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
traced variant and reports the per-layer metrics plus the tracing
overhead.  Every metric is printed by name with its unit, then the last
line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Each run also appends a record with its provenance to
``perfbench/out/results.jsonl``.  See ``perfbench/README.md``.
"""

import argparse
import datetime
import json
import os
import platform
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

WORKLOADS = ("fleet-dense", "agility", "broker-rpc", "live-bulk")

#: End-to-end metrics every workload reports: (name, unit).  What one
#: "op" is depends on the workload; see README.md.
END_TO_END = (
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_program():
    """Put ``src/`` on the path and import the program, or exit 2."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    try:
        import repro
        import repro.broker  # noqa: F401
        import repro.fleet  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {src}: {exc}",
              file=sys.stderr)
        sys.exit(2)
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, not from "
              f"{src}", file=sys.stderr)
        sys.exit(2)


def commit():
    """The checked-out commit, read from ``.git`` when there is one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                sha, _, name = line.strip().partition(" ")
                if name == ref:
                    return sha
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def next_run_order():
    """1 + the number of runs recorded in this checkout before this one."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "run_order")
    try:
        with open(path) as fh:
            order = int(fh.read().strip() or 0) + 1
    except (OSError, ValueError):
        order = 1
    with open(path, "w") as fh:
        fh.write(f"{order}\n")
    return order


def provenance(args):
    from repro.parallel.cache import code_fingerprint

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "run_order": next_run_order(),
        "started_utc": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
        "commit": commit(),
        "source_digest": code_fingerprint(),
        "python": f"{platform.python_implementation()} "
                  f"{platform.python_version()}",
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def units(trace):
    if not trace:
        return dict(END_TO_END)
    import layers

    return {name: unit for name, unit, _ in layers.PER_LAYER}


def main(argv=None):
    args = parse_args(argv)
    import_program()
    prov = provenance(args)
    if args.workload in ("fleet-dense", "agility"):
        import sim_workloads as workloads
    else:
        import live_workloads as workloads
    result = workloads.run(args.workload, args.seed, args.seconds,
                           args.trace, OUT_DIR)

    expected = units(args.trace)
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        raise RuntimeError(f"metric set mismatch: {sorted(metrics)} vs "
                           f"{sorted(expected)}")
    attempted, failed = result["attempted"], result["failed"]
    correct = failed == 0 and not result["problems"]

    for key in ("workload", "seed", "run_order", "commit", "python", "cpu",
                "nproc"):
        print(f"# {key:12} {prov[key]}")
    for key, value in result["info"].items():
        if key not in ("outputs", "quality"):
            print(f"# {key:12} {value}")
    for name in expected:
        print(f"{name:32} {metrics[name]!r:>24} {expected[name]}")
    print(f"{'error_rate':32} {failed / attempted!r:>24} failed/attempted")
    quality = result["info"].get("quality")
    for name in quality[0] if quality else ():
        median = statistics.median(q[name] for q in quality)
        print(f"{name:32} {median!r:>24} median of repetitions")
    for problem in result["problems"]:
        print(f"! {problem}")

    record = {"provenance": prov, "correct": correct, "attempted": attempted,
              "failed": failed, "problems": result["problems"],
              "metrics": metrics, "info": result["info"]}
    with open(os.path.join(OUT_DIR, "results.jsonl"), "a") as fh:
        fh.write(json.dumps(record, default=str) + "\n")

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": expected[name]}
                    for name in expected},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
