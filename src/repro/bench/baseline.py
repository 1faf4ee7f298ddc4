"""Capture benchmark headline metrics and compare runs against a baseline.

pytest-benchmark writes a run report (``--benchmark-json``) containing
timing stats plus whatever each benchmark stored in ``extra_info``.  This
module reduces such a report to a flat ``{metric_name: value}`` mapping
(:func:`headline_metrics`), freezes one into a *baseline document* with
per-metric tolerance bands (:func:`capture_baseline`), and judges a later
run against it (:func:`compare_metrics`).

A baseline document looks like::

    {
      "schema": "repro-bench-baseline/1",
      "captured_at": "2026-08-05",
      "provenance": {"commit": "4b80288...", "python": "CPython 3.11.7",
                     "cpu": "Intel(R) Xeon(R) ...", "cores": 2},
      "metrics": {
        "test_event_loop_throughput.min_seconds":
            {"value": 0.029, "tolerance": 2.0, "direction": "lower"},
        ...
      }
    }

``direction`` says which way is good: ``"lower"`` (timings — regression
when ``current > value * tolerance``) or ``"higher"`` (rates — regression
when ``current < value / tolerance``).  Tolerances are multiplicative so
one committed baseline survives both runner-to-runner speed differences
and ordinary noise; CI scales them further via ``tolerance_scale``.

``provenance`` records where the numbers came from (:func:`run_provenance`);
it is informational, and loading and comparing ignore it.

Failure semantics: a metric present in the baseline but absent from the
run is a failure (a renamed or deleted benchmark must be re-baselined
deliberately, never silently), while a metric present in the run but not
in the baseline is merely reported as new.
"""

import json
import math
import os
import platform
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import BenchmarkError

#: Default multiplicative tolerance band captured into new baselines.
DEFAULT_TOLERANCE = 2.0

#: Tighter band for ``.min_seconds`` metrics: min-of-rounds is the stable
#: stat (least scheduler noise), and two independent captures agreeing
#: justify holding it to 1.5x.  ``.mean_seconds`` keeps the 2x band for
#: CI noise.
MIN_SECONDS_TOLERANCE = 1.5

#: Baseline document schema tag (bump on incompatible changes).
SCHEMA = "repro-bench-baseline/1"

#: Timing stats lifted from every benchmark.  ``min`` is the stable one
#: (least scheduler noise); ``mean`` is kept for trajectory plots.
_TIMING_STATS = ("min", "mean")

_DIRECTIONS = ("lower", "higher")

#: Metric-name suffixes where bigger is better.  Everything else in a
#: capture defaults to ``"lower"`` (timings, counts whose growth signals
#: a regression).  A "lower" gate on these would fail a run for being
#: *too fast* (clients/s on a quicker CI runner) and never catch the
#: real regression (a fidelity or fairness drop).
HIGHER_IS_BETTER_SUFFIXES = (
    "_speedup",
    "_clients_per_second",
    "_mean_fidelity",
    "_fairness",
    "_fidelity_floor",
    "_drill_deferred_ops",
)

#: Tolerances are multiplicative bands around the baseline value; below
#: unity they would demand the run beat its own baseline.
_MIN_TOLERANCE = 1.0


#: The checkout whose commit a capture records (``src/repro/bench`` up three).
_REPO_ROOT = Path(__file__).resolve().parents[3]


def _git_commit(root):
    """The commit checked out at ``root``, read from ``.git``; None if absent."""
    git = Path(root) / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.strip().partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_provenance():
    """Where a capture was taken: commit, Python, CPU model and core count.

    Timings only compare across captures taken on like hosts; this is what
    lets a reader tell.
    """
    return {
        "commit": _git_commit(_REPO_ROOT),
        "python": f"{platform.python_implementation()} "
                  f"{platform.python_version()}",
        "cpu": _cpu_model(),
        "cores": os.cpu_count(),
    }


def _numeric(value):
    """True for real numbers usable as metrics (bools excluded)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and math.isfinite(value)


def headline_metrics(report):
    """Flatten a pytest-benchmark JSON report to ``{metric: value}``.

    Per benchmark ``<name>``: ``<name>.min_seconds`` / ``<name>.mean_seconds``
    from the timing stats, plus every numeric ``extra_info`` entry as
    ``<name>.<key>`` (one level of nested dicts is flattened to
    ``<name>.<key>.<subkey>``).  Raises :class:`BenchmarkError` on a
    malformed report.
    """
    if not isinstance(report, dict) or not isinstance(report.get("benchmarks"), list):
        raise BenchmarkError(
            "not a pytest-benchmark report: missing 'benchmarks' list"
        )
    metrics = {}
    for bench in report["benchmarks"]:
        if not isinstance(bench, dict) or "name" not in bench:
            raise BenchmarkError(f"malformed benchmark entry: {bench!r}")
        name = bench["name"]
        stats = bench.get("stats") or {}
        for stat in _TIMING_STATS:
            if _numeric(stats.get(stat)):
                metrics[f"{name}.{stat}_seconds"] = float(stats[stat])
        for key, value in (bench.get("extra_info") or {}).items():
            if _numeric(value):
                metrics[f"{name}.{key}"] = float(value)
            elif isinstance(value, dict):
                for subkey, subvalue in value.items():
                    if _numeric(subvalue):
                        metrics[f"{name}.{key}.{subkey}"] = float(subvalue)
    return metrics


def load_report(path):
    """Read a pytest-benchmark JSON report file."""
    try:
        with open(path) as fh:
            report = json.load(fh)
    except OSError as exc:
        raise BenchmarkError(f"cannot read benchmark report {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise BenchmarkError(f"benchmark report {path!r} is not JSON: {exc}") from exc
    return report


def default_tolerances(metrics):
    """Per-metric tolerance overrides for a capture: tighter ``min_seconds``.

    Returns ``{name: MIN_SECONDS_TOLERANCE}`` for every ``.min_seconds``
    metric in ``metrics``; everything else keeps the capture's default
    band.
    """
    return {name: MIN_SECONDS_TOLERANCE for name in metrics
            if name.endswith(".min_seconds")}


def default_directions(metrics):
    """Per-metric direction overrides for a capture.

    Returns ``{name: "higher"}`` for every metric whose name ends in one
    of :data:`HIGHER_IS_BETTER_SUFFIXES`; everything else keeps the
    capture's default ``"lower"``.
    """
    return {name: "higher" for name in metrics
            if name.endswith(HIGHER_IS_BETTER_SUFFIXES)}


def capture_baseline(metrics, tolerance=DEFAULT_TOLERANCE, captured_at=None,
                     directions=None, notes=None, tolerances=None):
    """Freeze ``metrics`` into a baseline document.

    ``directions`` optionally maps metric names (exact) to ``"higher"`` for
    metrics where bigger is better; everything else defaults to
    ``"lower"``.  ``tolerances`` optionally maps metric names (exact) to a
    per-metric band overriding ``tolerance`` — see
    :func:`default_tolerances`.
    """
    if tolerance < _MIN_TOLERANCE:
        raise BenchmarkError(f"tolerance must be >= 1, got {tolerance!r}")
    tolerances = tolerances or {}
    for name, band in tolerances.items():
        if band < _MIN_TOLERANCE:
            raise BenchmarkError(
                f"tolerance for {name!r} must be >= 1, got {band!r}"
            )
    directions = directions or {}
    doc = {
        "schema": SCHEMA,
        "captured_at": captured_at,
        "metrics": {
            name: {
                "value": float(value),
                "tolerance": float(tolerances.get(name, tolerance)),
                "direction": directions.get(name, "lower"),
            }
            for name, value in sorted(metrics.items())
        },
    }
    if notes:
        doc["notes"] = notes
    return doc


def capture_run(metrics, tolerance=DEFAULT_TOLERANCE, captured_at=None,
                notes=None):
    """Freeze a run's ``metrics`` with the standard per-metric settings.

    The one capture path for run reports: :func:`capture_baseline` with
    :func:`default_directions` (so higher-is-better metrics gate drops)
    and :func:`default_tolerances`, stamped with :func:`run_provenance`.
    Both ``repro bench`` and ``benchmarks/baseline.py capture`` go through
    here.
    """
    doc = capture_baseline(
        metrics, tolerance=tolerance, captured_at=captured_at,
        directions=default_directions(metrics), notes=notes,
        tolerances=default_tolerances(metrics),
    )
    doc["provenance"] = run_provenance()
    return doc


def write_baseline(doc, path):
    """Write a baseline document as stable, diffable JSON."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_baseline(path):
    """Read and validate a baseline document.

    Raises :class:`BenchmarkError` on unreadable files, non-JSON content,
    or a structurally invalid document — the perf gate must fail loudly on
    a corrupt baseline, not pass vacuously.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise BenchmarkError(f"cannot read baseline {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise BenchmarkError(f"baseline {path!r} is not JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("metrics"), dict):
        raise BenchmarkError(f"baseline {path!r}: missing 'metrics' mapping")
    for name, entry in doc["metrics"].items():
        if not isinstance(entry, dict) or not _numeric(entry.get("value")):
            raise BenchmarkError(
                f"baseline {path!r}: metric {name!r} needs a numeric 'value'"
            )
        tolerance = entry.get("tolerance", DEFAULT_TOLERANCE)
        if not _numeric(tolerance) or tolerance < _MIN_TOLERANCE:
            raise BenchmarkError(
                f"baseline {path!r}: metric {name!r} tolerance must be >= 1, "
                f"got {tolerance!r}"
            )
        if entry.get("direction", "lower") not in _DIRECTIONS:
            raise BenchmarkError(
                f"baseline {path!r}: metric {name!r} direction must be one of "
                f"{_DIRECTIONS}, got {entry.get('direction')!r}"
            )
    return doc


@dataclass(frozen=True, slots=True)
class MetricCheck:
    """The verdict on one baseline metric."""

    metric: str
    status: str  # "ok" | "regression" | "missing"
    baseline: float
    current: float = None  # None when missing
    allowed: float = None  # the bound current was held to
    ratio: float = None  # current / baseline


@dataclass(slots=True)
class ComparisonReport:
    """Every per-metric verdict from one comparison."""

    checks: list = field(default_factory=list)
    new_metrics: list = field(default_factory=list)  # in run, not in baseline

    @property
    def regressions(self):
        return [c for c in self.checks if c.status == "regression"]

    @property
    def missing(self):
        return [c for c in self.checks if c.status == "missing"]

    @property
    def ok(self):
        """True when every baseline metric was present and within band."""
        return not self.regressions and not self.missing


def compare_metrics(current, baseline_doc, tolerance_scale=1.0, only=None):
    """Judge ``current`` (``{metric: value}``) against a baseline document.

    ``tolerance_scale`` multiplies every per-metric tolerance — CI uses a
    generous scale so shared-runner noise cannot fail the gate while a
    genuine slowdown still does.  ``only`` restricts the judgement to the
    named baseline metrics (the strict kernel gate runs a handful of
    metrics at scale 1.0 while the rest keep their bands); naming a
    metric the baseline lacks is an error, not a vacuous pass.
    """
    if tolerance_scale < _MIN_TOLERANCE:
        raise BenchmarkError(
            f"tolerance_scale must be >= 1, got {tolerance_scale!r}"
        )
    report = ComparisonReport()
    baseline_metrics = baseline_doc["metrics"]
    if only is not None:
        unknown = sorted(set(only) - set(baseline_metrics))
        if unknown:
            raise BenchmarkError(
                f"--metrics names absent from the baseline: {unknown}"
            )
        baseline_metrics = {name: baseline_metrics[name] for name in only}
        current = {name: value for name, value in current.items()
                   if name in baseline_metrics}
    for name, entry in sorted(baseline_metrics.items()):
        value = entry["value"]
        tolerance = entry.get("tolerance", DEFAULT_TOLERANCE) * tolerance_scale
        direction = entry.get("direction", "lower")
        observed = current.get(name)
        if observed is None:
            report.checks.append(MetricCheck(name, "missing", value))
            continue
        if direction == "lower":
            allowed = value * tolerance
            bad = observed > allowed
        else:
            allowed = value / tolerance
            bad = observed < allowed
        ratio = observed / value if value else math.inf
        report.checks.append(MetricCheck(
            name, "regression" if bad else "ok", value, observed, allowed, ratio,
        ))
    report.new_metrics = sorted(set(current) - set(baseline_metrics))
    return report


def format_report(report):
    """Human-readable comparison summary, worst news first."""
    lines = []
    for check in report.regressions:
        lines.append(
            f"REGRESSION {check.metric}: {check.current:.6g} vs baseline "
            f"{check.baseline:.6g} ({check.ratio:.2f}x, allowed "
            f"{check.allowed:.6g})"
        )
    for check in report.missing:
        lines.append(
            f"MISSING    {check.metric}: in baseline ({check.baseline:.6g}) "
            "but absent from this run — re-baseline deliberately if the "
            "benchmark was renamed or removed"
        )
    for check in report.checks:
        if check.status == "ok":
            lines.append(
                f"ok         {check.metric}: {check.current:.6g} vs "
                f"{check.baseline:.6g} ({check.ratio:.2f}x)"
            )
    for name in report.new_metrics:
        lines.append(f"new        {name}: not in baseline (not gated)")
    verdict = "PASS" if report.ok else "FAIL"
    lines.append(
        f"{verdict}: {len(report.regressions)} regression(s), "
        f"{len(report.missing)} missing, "
        f"{sum(1 for c in report.checks if c.status == 'ok')} ok, "
        f"{len(report.new_metrics)} new"
    )
    return "\n".join(lines)
