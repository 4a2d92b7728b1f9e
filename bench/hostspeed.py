"""Host speed, measured next to the work so that times can be scaled to a reference host.

On a shared virtual machine the same pure-Python work runs up to about 40%
slower for minutes at a time while other tenants are busy, and CPU time
slows with it (the slowdown is not time spent descheduled).  A fixed
integer loop, timed between instances, slows by a similar factor to the
package's own code.  Over two to three minutes of passes on one pool,
scaling each instance by the loop's times just before and just after it
cut the pass-to-pass variation of a pass's total time from 12% to 4.3% on
`thin-long` and from 8.1% to 4.3% on `partitioned`.  One scale per pass
did worse (5.3% and 6.4%), and so did loops that allocate or walk larger
containers (8-28%).

The package slows somewhat more than the loop does.  Over 40 runs of ten
seeds each on both gated workloads, times scaled by the loop's slowdown
alone still read about 15% (`thin-long`) and 8% (`partitioned`) slower in
runs whose scale was 30% lower: the package's slowdown went as the loop's
to a power of about 1.4 and 1.25.  ``scale()`` therefore is
``(REFERENCE_S / loop time) ** SENSITIVITY``, so a time multiplied by it
reads as it would on a host where the loop takes ``REFERENCE_S``.  The loop
is the benchmark's own code and calls nothing in the package, so a faster
package still shows as faster.
"""

import statistics
from time import perf_counter

# About the loop's best time on a 2-vCPU x86-64 virtual machine with
# Python 3.11.7 when the host is quiet.
REFERENCE_S = 0.005
# Between the two workloads' measured powers (README.md, "Baseline").
SENSITIVITY = 1.3
REPEATS = 2


def loop():
    x = 0
    for i in range(60000):
        x = (x * 31 + i) % 1000003
    return x


def sample():
    """The loop's best time over ``REPEATS`` runs, in seconds."""
    best = float("inf")
    for _ in range(REPEATS):
        start = perf_counter()
        loop()
        best = min(best, perf_counter() - start)
    return best


def scale(samples):
    """Factor that turns times measured alongside ``samples`` into reference-host times."""
    return (REFERENCE_S / statistics.median(samples)) ** SENSITIVITY
