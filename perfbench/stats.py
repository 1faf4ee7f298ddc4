"""Small statistics shared by the workloads."""

import math
import resource
import sys


def percentile(values, q):
    """Nearest-rank percentile (``q`` in [0, 1]) of unsorted ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def peak_rss_mb():
    """Peak resident set size of this process, MB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return peak / (1024.0 * 1024.0) if sys.platform == "darwin" \
        else peak / 1024.0
