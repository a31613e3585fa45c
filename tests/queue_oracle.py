"""The harness of the queueing oracles (``tests/test_*_queue_oracle.py``).

Each oracle offers one substrate seeded Poisson arrivals and holds its
mean wait in queue to a closed form. The tolerance is batch means: the
waits after a warm-up tenth are cut into ``BATCHES`` consecutive
batches, each many relaxation times of the busiest queue here, so their
means are close to independent. The grand mean must lie within ``Z``
standard errors of the formula, and the standard error below a tenth of
the expected wait, so the bound sees a substrate serving two at once.
"""

import statistics

#: The offered loads every oracle runs at.
RHOS = [0.3, 0.6, 0.8]
#: Batches for the batch-means standard error.
BATCHES = 20
#: Two-sided bound in standard errors (about t(19) at 0.9995).
Z = 4.0


def arrivals(rng, rate, count):
    """*count* Poisson instants at *rate*, each drawn when asked for, so
    a caller's own draws per customer interleave with them."""
    arrival = 0.0
    for _ in range(count):
        arrival += rng.expovariate(rate)
        yield arrival


def md1(rho, service):
    """The M/D/1 mean wait in queue (Pollaczek–Khinchine)."""
    return rho * service / (2 * (1 - rho))


def mm1(rho, hold):
    """The M/M/1 mean wait in queue."""
    return rho * hold / (1 - rho)


def check_mean_wait(waits, expected, label):
    """The batch-means mean of *waits* is within ``Z`` standard errors
    of *expected*."""
    kept = waits[len(waits) // 10:]
    size = len(kept) // BATCHES
    means = [statistics.fmean(kept[i * size:(i + 1) * size])
             for i in range(BATCHES)]
    mean = statistics.fmean(means)
    error = statistics.stdev(means) / BATCHES ** 0.5
    assert error < 0.1 * expected, f"{label}: standard error {error:.3e} s"
    assert abs(mean - expected) <= Z * error, (
        f"{label}: mean wait {mean:.3e} s, expected {expected:.3e} s, "
        f"standard error {error:.3e} s"
    )
