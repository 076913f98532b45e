"""Machine-speed probe for turning wall seconds into reference seconds.

On a shared virtual machine the speed of one core changes from one second
to the next, by up to a factor of two, as neighbours load the host.  Over a
20 s run that drift moves throughput by 10 to 35 percent between runs of
the same code, more than any bound a regression check could use.  The
probe times a fixed piece of NumPy and Python work, which shares no code
with the program, between jobs; the mean probe time during a run measures
how fast the machine was.  A reference second is a wall second scaled by
``REFERENCE_S / mean probe time``, that is, a second of a core on which the
probe takes ``REFERENCE_S``.
"""

import statistics
import time

import numpy as np

# The probe's typical time on the 2-vCPU Xeon VM the benchmark was tuned
# on (2.8 ms when the host is idle, 5 ms when it is busy), so that a
# reference second is close to a wall second there.
REFERENCE_S = 0.004

# Probe time spent before a job, as a share of the previous job's time.
SHARE = 0.02


class SpeedProbe:
    """Fixed work timed between jobs: small complex QR and SVD (the shapes
    ``corr_compress`` sees most), a dense inverse (the shape of a resolvent)
    and an interpreter loop.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = (rng.standard_normal((40, 8))
                      + 1j * rng.standard_normal((40, 8)))
        self.square = rng.standard_normal((120, 120)) + 20.0 * np.eye(120)
        # Bound now, so the probe calls the kernels even while a tracer has
        # replaced them.
        self.qr, self.svd, self.inv = (np.linalg.qr, np.linalg.svd,
                                       np.linalg.inv)
        self.times = []

    def sample(self):
        start = time.perf_counter()
        for _ in range(40):
            self.svd(self.qr(self.small)[1])
        self.inv(self.square)
        total = 0
        for i in range(20000):
            total += i
        elapsed = time.perf_counter() - start
        self.times.append(elapsed)
        return elapsed

    def before_job(self, last_job_s):
        """Probe for SHARE of the last job's time, at least once."""
        spent = self.sample()
        while spent < SHARE * last_job_s:
            spent += self.sample()
        return spent

    @property
    def factor(self):
        """Reference seconds per wall second during the probed run."""
        return REFERENCE_S / statistics.fmean(self.times)
