"""The simulated workloads: ``fleet-dense`` and ``agility``.

Both run in the benchmark process, serially (``jobs=1``) and with the
result cache off, so every timed unit really executes.  A run measures
repetitions until ``--seconds`` have passed, rotating through the input
seeds the run seed selects (see :func:`inputs_for`).  It reports
throughput over all repetitions and latency percentiles over all timed
operations, in reference seconds (see ``calibration.py``).

Each repetition's output is checked against the goldens recorded for its
input seed (``goldens.json``, written by ``record_goldens.py``).
"""

import gc
import hashlib
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

import calibration
from stats import peak_rss_mb, percentile
from tracing import Tracer
import layers

#: Goldens cover this many run seeds; a run seed selects slot ``seed % SLOTS``.
SLOTS = 32
#: Input seeds per run seed.  A run rotates through them, so each run
#: times and checks several scenarios, not one.
INPUTS_PER_RUN = 4
#: Trials per agility cell, as in the paper ("the mean of five trials").
TRIALS = 5
#: Set-up is timed this many times per run; the median is reported.
SETUP_REPEATS = 7

FLEET_CLIENTS = 256
FLEET_DURATION = 30.0

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDENS_PATH = os.path.join(HERE, "goldens.json")


def inputs_for(seed):
    """The input seeds a run seed selects (same seed, same inputs)."""
    slot = seed % SLOTS
    return [slot * INPUTS_PER_RUN + k for k in range(INPUTS_PER_RUN)]


def load_goldens():
    with open(GOLDENS_PATH) as fh:
        return json.load(fh)


def series_fingerprint(series):
    """sha256 over the rounded (time, value) pairs of one series.

    The same rounding the tier-1 determinism tests pin, so the goldens for
    the pinned trials equal the tier-1 constants.
    """
    rounded = [(round(t, 9), round(v, 6)) for t, v in series]
    return hashlib.sha256(repr(rounded).encode()).hexdigest()


class CacheProbe:
    """Counts result-cache lookups; a timed unit must never be a cache hit."""

    def __init__(self):
        from repro.parallel import config
        from repro.parallel.cache import ResultCache

        self.config = config
        self.lookups = 0
        self._cls = ResultCache
        self._get = ResultCache.get
        probe = self

        def get(cache, *args, **kwargs):
            probe.lookups += 1
            return probe._get(cache, *args, **kwargs)

        ResultCache.get = get

    def close(self):
        self._cls.get = self._get

    def problems(self):
        found = []
        if self.lookups:
            found.append(f"{self.lookups} result-cache lookups during timing")
        if self.config.current_cache() is not None:
            found.append("a process-wide result cache is configured")
        if self.config.current_jobs() != 1:
            found.append("the trial runner is not serial")
        return found


class RefClock:
    """Timed operations in host and reference seconds (see calibration).

    An operation is scaled by the median of the last :data:`SMOOTHING`
    kernel runs, its own included: a single run is now and then slowed by
    an interrupt, and would otherwise move that operation alone.
    """

    SMOOTHING = 3

    def __init__(self, calibrator):
        self.calibrator = calibrator
        self.host = []  # host seconds per operation
        self.reference = []  # reference seconds per operation
        self.speeds = []  # kernel speed after each operation
        self.calibrating = 0.0  # host seconds spent in the kernel

    def record(self, host_seconds):
        """Calibrate now and record one operation that just finished."""
        started = perf_counter()
        self.speeds.append(self.calibrator.speed())
        self.calibrating += perf_counter() - started
        speed = statistics.median(self.speeds[-self.SMOOTHING:])
        self.host.append(host_seconds)
        self.reference.append(host_seconds * speed)


class SimSlicer:
    """Runs ``Simulator.run(until=t)`` one simulated second at a time,
    recording each slice as an operation on ``clock``.

    Slicing a run at whole seconds processes exactly the same events in
    the same order (``run`` stops after the events at the deadline); the
    goldens, recorded without slicing, check that.
    """

    def __init__(self, clock, step=1.0):
        from repro.sim.kernel import Simulator

        self._cls = Simulator
        self._run = Simulator.run
        run = self._run

        def sliced(sim, until=None):
            if until is None or not isinstance(until, (int, float)):
                return run(sim, until)
            deadline = float(until)
            while sim.now < deadline:
                started = perf_counter()
                run(sim, min(sim.now + step, deadline))
                clock.record(perf_counter() - started)
            return None

        Simulator.run = sliced

    def close(self):
        self._cls.run = self._run


# -- fleet-dense ------------------------------------------------------------


def _fleet_world(master_seed):
    from repro.fleet.harness import shard_seeds
    from repro.fleet.shard import build_shard_world

    return build_shard_world(FLEET_CLIENTS, FLEET_DURATION,
                             seed=shard_seeds(1, master_seed)[0], shard=0)


def fleet_report(master_seed):
    """One fleet run, serial and uncached; returns its ``FleetReport``."""
    from repro.fleet.harness import run_fleet

    return run_fleet(FLEET_CLIENTS, shards=1, duration=FLEET_DURATION,
                     master_seed=master_seed, jobs=1, cache=None)


def fleet_client_seconds():
    from repro.experiments.harness import PRIME_SECONDS

    return FLEET_CLIENTS * (PRIME_SECONDS + FLEET_DURATION)


# -- agility ----------------------------------------------------------------


def agility_units(input_seed):
    """The fig8 and fig9 trial units of one input seed, in a fixed order."""
    from repro.experiments.demand import UTILIZATIONS
    from repro.experiments.supply import REFERENCE_WAVEFORMS
    from repro.parallel.runner import TrialUnit

    seeds = [TRIALS * input_seed + i for i in range(TRIALS)]
    units = [TrialUnit("supply", {"waveform_name": name}, seed)
             for name in REFERENCE_WAVEFORMS for seed in seeds]
    units += [TrialUnit("demand", {"utilization": u}, seed)
              for u in UTILIZATIONS for seed in seeds]
    return units


def unit_key(unit):
    """A trial's name in the goldens, e.g. ``supply/step-up/0``."""
    param = next(iter(unit.params.values()))
    return f"{unit.experiment}/{param}/{unit.seed}"


def unit_fingerprints(unit, result):
    """``{key: sha256}`` for every series a trial produces."""
    key = unit_key(unit)
    if unit.experiment == "supply":
        return {key: series_fingerprint(result.series)}
    return {f"{key}/total": series_fingerprint(result.total_series),
            f"{key}/second": series_fingerprint(result.second_series)}


def unit_client_seconds(unit):
    """Simulated client-seconds one agility trial covers."""
    from repro.experiments.demand import SECOND_STREAM_AT, TAIL_SECONDS
    from repro.experiments.harness import PRIME_SECONDS
    from repro.trace.waveforms import WAVEFORM_DURATION

    if unit.experiment == "supply":
        return PRIME_SECONDS + WAVEFORM_DURATION
    # The first stream runs throughout; the second joins for the tail.
    return PRIME_SECONDS + SECOND_STREAM_AT + TAIL_SECONDS + TAIL_SECONDS


def agility_rep(input_seed, clock):
    """Run one agility set, each trial an operation on ``clock``; returns
    ``(digest, per-trial prints, step-down settling times)``."""
    from repro.parallel.runner import run_units

    prints = {}
    settling = []
    for unit in agility_units(input_seed):
        started = perf_counter()
        (result,) = run_units([unit], jobs=1, cache=None)
        clock.record(perf_counter() - started)
        prints.update(unit_fingerprints(unit, result))
        if unit.params.get("waveform_name") == "step-down":
            settling.append(result.settling)
    return agility_digest(prints), prints, settling


def agility_digest(prints):
    """One sha256 over every series fingerprint of a set, in key order."""
    digest = hashlib.sha256()
    for key in sorted(prints):
        digest.update(f"{key}={prints[key]}\n".encode())
    return digest.hexdigest()


def agility_world(unit):
    """Build (without running) the world of one agility trial."""
    from repro.apps.bitstream import build_bitstream
    from repro.experiments.demand import SECOND_STREAM_AT, TAIL_SECONDS
    from repro.experiments.harness import ExperimentWorld
    from repro.trace.waveforms import HIGH_BANDWIDTH, constant

    if unit.experiment == "supply":
        world = ExperimentWorld(unit.params["waveform_name"], seed=unit.seed)
    else:
        world = ExperimentWorld(
            constant(HIGH_BANDWIDTH,
                     duration=SECOND_STREAM_AT + TAIL_SECONDS + 5),
            seed=unit.seed)
    build_bitstream(world.sim, world.viceroy, world.network)
    return world


def agility_client_seconds(input_seed):
    return sum(unit_client_seconds(u) for u in agility_units(input_seed))


# -- the shared measuring loop ---------------------------------------------


class SimOutcome:
    """What one measured phase of a sim workload saw."""

    def __init__(self, calibrator):
        self.clock = RefClock(calibrator)
        self.client_seconds = 0.0  # simulated client-seconds, all reps
        self.host_seconds = 0.0  # host seconds of all reps
        self.reference_seconds = 0.0  # the same in reference seconds
        self.reps = 0
        self.outputs = []  # (input seed, digest) per rep
        self.quality = []  # deterministic output figures per rep
        self.layer_reps = []  # per-layer snapshots of traced reps
        self.attempted = 0
        self.failed = 0
        self.problems = []


def _check(workload, goldens, input_seed, digest, outcome):
    outcome.attempted += 1
    expected = goldens[workload].get(str(input_seed))
    if expected != digest:
        outcome.failed += 1
        outcome.problems.append(
            f"{workload} input seed {input_seed}: output {digest[:16]} "
            f"!= golden {str(expected)[:16]}")


def _check_tier1(goldens, prints, outcome):
    for key, value in prints.items():
        pinned = goldens["tier1"].get(key)
        if pinned is not None:
            outcome.attempted += 1
            if pinned != value:
                outcome.failed += 1
                outcome.problems.append(f"{key}: {value[:16]} != tier-1 "
                                        f"constant {pinned[:16]}")


def run_reps(workload, inputs, goldens, calibrator, seconds, min_reps,
             max_reps=None, tracer=None):
    """Measure repetitions until ``seconds`` pass (at least ``min_reps``).

    With a ``tracer``, per-rep counts and self times are collected too.
    """
    outcome = SimOutcome(calibrator)
    clock = outcome.clock
    probe = CacheProbe()
    slicer = SimSlicer(clock) if workload == "fleet-dense" else None
    started = perf_counter()
    try:
        while outcome.reps < min_reps or (
                perf_counter() - started < seconds
                and (max_reps is None or outcome.reps < max_reps)):
            input_seed = inputs[outcome.reps % len(inputs)]
            if tracer is not None:
                tracer.reset()
            # Untimed: the last repetition's worlds hold reference cycles;
            # collected now, they cannot add to this repetition's peak RSS.
            gc.collect()
            first = len(clock.host)
            calibrating = clock.calibrating
            rep_started = perf_counter()
            if workload == "fleet-dense":
                report = fleet_report(input_seed)
                digest = report.fingerprint()
                outcome.client_seconds += fleet_client_seconds()
                outcome.quality.append({
                    "mean_fidelity": report.mean_fidelity,
                    "jain_fairness": report.fairness})
            else:
                digest, prints, settling = agility_rep(input_seed, clock)
                _check_tier1(goldens, prints, outcome)
                outcome.client_seconds += agility_client_seconds(input_seed)
                outcome.quality.append(
                    {"settling_s": statistics.median(settling)})
            elapsed = (perf_counter() - rep_started
                       - (clock.calibrating - calibrating))
            # Time outside the timed operations (a fleet run's world build
            # and reduction) is scaled at the rep's mean speed.
            host = sum(clock.host[first:])
            reference = sum(clock.reference[first:])
            outcome.host_seconds += elapsed
            outcome.reference_seconds += reference \
                + (elapsed - host) * reference / host
            outcome.reps += 1
            _check(workload, goldens, input_seed, digest, outcome)
            outcome.outputs.append((input_seed, digest))
            if tracer is not None:
                outcome.layer_reps.append(_layer_snapshot(tracer, elapsed))
    finally:
        if slicer is not None:
            slicer.close()
        probe.close()
    cache_problems = probe.problems()
    outcome.attempted += 1
    if cache_problems:
        outcome.failed += 1
        outcome.problems.extend(cache_problems)
    return outcome


def _layer_snapshot(tracer, wall):
    return {
        "wall": wall,
        "counts": dict(tracer.counts),
        "self": tracer.layer_self_time(),
        "log_query_s": tracer.name_self_time(*layers.LOG_QUERY_SPANS),
        "spans": tracer.spans,
    }


def build_worlds(workload, input_seed, limit=None):
    """Build (without running) the worlds one repetition starts from, or
    the first ``limit`` of them."""
    if workload == "fleet-dense":
        return [_fleet_world(input_seed)]
    return [agility_world(unit)
            for unit in agility_units(input_seed)[:limit]]


def timed_setup(workload, input_seed, calibrator):
    """Reference seconds, in each of :data:`SETUP_REPEATS` fresh
    interpreters, to import the program and build one repetition's worlds;
    each is scaled at the host speed measured right after it."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), workload,
             str(input_seed)],
            check=True, capture_output=True, text=True, timeout=120)
        host = json.loads(done.stdout.splitlines()[-1])["seconds"]
        times.append(host * calibrator.speed())
    return times


def end_to_end(outcome, setup_times):
    """Throughput, latency and set-up in reference seconds (see
    calibration)."""
    reference = outcome.clock.reference
    return {
        "ops_per_s": outcome.client_seconds / outcome.reference_seconds,
        "op_p50_ms": 1000.0 * percentile(reference, 0.50),
        "op_p90_ms": 1000.0 * percentile(reference, 0.90),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
    }


def run(workload, seed, seconds, trace, out_dir):
    """Run a sim workload; returns a result dict for ``run.py``."""
    goldens = load_goldens()
    inputs = inputs_for(seed)
    # One CPU for the work, the set-up probes and the calibration helper,
    # so the helper always times the CPU the work ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with calibration.Calibrator() as calibrator:
        setup_times = timed_setup(workload, inputs[0], calibrator)
        info = {"inputs": inputs, "setup_samples_s": setup_times}
        # Untimed: the program's lazy imports happen here, not in the first
        # timed repetition.  One world at a time, as a timed repetition
        # holds them, so the warm-up does not set the peak RSS.
        build_worlds(workload, inputs[0], limit=1)
        if not trace:
            outcome = run_reps(workload, inputs, goldens, calibrator, seconds,
                               min_reps=2)
            metrics = end_to_end(outcome, setup_times)
            clock = outcome.clock
            info["reps"] = outcome.reps
            info["latency_samples"] = len(clock.reference)
            info["host_ops_per_s"] = \
                outcome.client_seconds / outcome.host_seconds
            info["host_op_p50_ms"] = 1000.0 * percentile(clock.host, 0.5)
            info["host_op_p90_ms"] = 1000.0 * percentile(clock.host, 0.9)
        else:
            outcome, metrics, spans = traced_run(
                workload, inputs[0], goldens, calibrator, seconds,
                setup_times, out_dir)
            info["spans"] = spans
    info["quality"] = outcome.quality
    info["outputs"] = outcome.outputs
    return {"metrics": metrics, "attempted": outcome.attempted,
            "failed": outcome.failed, "problems": outcome.problems,
            "info": info}


def traced_run(workload, input_seed, goldens, calibrator, seconds,
               setup_times, out_dir):
    """Untraced first (the reference for the overhead), then two traced
    repetitions, all of one input seed; the traced counts must agree
    exactly.  Returns ``(outcome, per-layer metrics, spans)``."""
    plain = run_reps(workload, [input_seed], goldens, calibrator,
                     seconds / 3, min_reps=1)
    tracer = Tracer()
    layers.install_sim(tracer)
    try:
        traced = run_reps(workload, [input_seed], goldens, calibrator, 0,
                          min_reps=2, max_reps=2, tracer=tracer)
    finally:
        tracer.uninstall()
    tracer.write_spans(os.path.join(out_dir, f"spans-{workload}.jsonl"))
    first, second = traced.layer_reps
    traced.attempted += 1
    if first["counts"] != second["counts"]:
        traced.failed += 1
        traced.problems.append(
            f"per-layer counts differ between traced runs: "
            f"{first['counts']} vs {second['counts']}")
    metrics = sim_layer_metrics(traced.layer_reps)
    metrics.update(layers.zero_live_metrics())
    metrics.update(overhead_metrics(end_to_end(plain, setup_times),
                                    end_to_end(traced, setup_times)))
    plain.attempted += traced.attempted
    plain.failed += traced.failed
    plain.problems += traced.problems
    plain.quality += traced.quality
    return plain, metrics, second["spans"]


def sim_layer_metrics(reps):
    """Per-layer metrics, averaged over the traced repetitions."""
    n = len(reps)
    wall = sum(r["wall"] for r in reps) / n
    counts = reps[0]["counts"]
    metrics = {name: counts.get(name, 0) for name in layers.SIM_COUNTS}
    for layer in layers.SIM_LAYERS:
        self_s = sum(r["self"].get(layer, 0.0) for r in reps) / n
        metrics[f"{layer}.self_s"] = self_s
        metrics[f"{layer}.share"] = self_s / wall
    metrics["rpc.log_query_s"] = sum(r["log_query_s"] for r in reps) / n
    rechecks = counts.get("core.rechecks", 0)
    metrics["core.upcalls_per_recheck"] = \
        counts.get("core.upcalls", 0) / rechecks if rechecks else 0.0
    return metrics


def overhead_metrics(plain, traced):
    """Traced minus untraced end-to-end figures."""
    return {f"overhead.{name}": traced[name] - plain[name]
            for name in ("ops_per_s", "op_p50_ms", "op_p90_ms")}
