"""Record the sim workloads' output goldens into ``goldens.json``.

Usage, from the repository root::

    python3 perfbench/record_goldens.py

Runs every input seed the benchmark can select (``SLOTS`` run-seed slots
times ``INPUTS_PER_RUN``) through the program's own entry points, with
no benchmark instrumentation, and stores:

- ``fleet-dense``: ``FleetReport.fingerprint()`` per input seed;
- ``agility``: one sha256 per input seed over the fingerprints of every
  fig8/fig9 series of the set;
- ``tier1``: the four series constants the tier-1 determinism tests pin,
  which the agility set of input seed 0 reproduces; recording fails if
  it does not.

Re-record only when a change is meant to alter simulated behaviour.
"""

import ast
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import sim_workloads as sw  # noqa: E402

TIER1_TEST = os.path.join(ROOT, "tests", "test_sim_determinism.py")
#: Tier-1 constant name -> the agility series key it pins.
TIER1_KEYS = {
    "GOLDEN_FIG8_STEP_UP_SEED0": "supply/step-up/0",
    "GOLDEN_FIG8_STEP_DOWN_SEED1": "supply/step-down/1",
    "GOLDEN_FIG9_TOTAL_SEED0": "demand/0.45/0/total",
    "GOLDEN_FIG9_SECOND_SEED0": "demand/0.45/0/second",
}


def tier1_constants():
    """The pinned constants, read from the tier-1 test module's source."""
    with open(TIER1_TEST) as fh:
        tree = ast.parse(fh.read())
    found = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in TIER1_KEYS:
                found[TIER1_KEYS[name]] = ast.literal_eval(node.value)
    missing = set(TIER1_KEYS.values()) - set(found)
    if missing:
        raise SystemExit(f"tier-1 constants not found: {sorted(missing)}")
    return found


def main():
    tier1 = tier1_constants()
    goldens = {"tier1": tier1, "fleet-dense": {}, "agility": {}}
    seeds = range(sw.SLOTS * sw.INPUTS_PER_RUN)
    for input_seed in seeds:
        digest, prints, _ = sw.agility_rep(input_seed, sw.RefClock())
        goldens["agility"][str(input_seed)] = digest
        for key, pinned in tier1.items():
            if key in prints and prints[key] != pinned:
                raise SystemExit(f"{key}: {prints[key]} != tier-1 {pinned}")
        goldens["fleet-dense"][str(input_seed)] = \
            sw.fleet_report(input_seed).fingerprint()
        print(f"input seed {input_seed}: recorded", flush=True)
    reproduced = sw.agility_rep(0, sw.RefClock())[1]
    if any(reproduced[key] != value for key, value in tier1.items()):
        raise SystemExit("agility input seed 0 does not reproduce tier-1")
    with open(sw.GOLDENS_PATH, "w") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
