"""A fixed calibration probe that measures how fast the machine runs right now.

A shared host can change speed by 20-50% over seconds to minutes (measured
on a 2-vCPU VM with OpenBLAS 0.3.31), which moves every wall time with it.
The loop runs this probe between requests and divides each request's wall
time by the mean of the probes on either side, giving a request cost in
*probe* units that stays put when the whole machine slows down.  The probe uses no
opframes code, so a change to the program cannot change the probe.  Its mix
follows the program's: the pure-Python JSON encoder, small complex BLAS
products and passes over a freshly allocated 4 MB array.
"""

import json
import time

import numpy as np


class Probe:
    def __init__(self):
        rng = np.random.default_rng(20230117)
        self._doc = rng.standard_normal((16, 4, 4, 4, 2)).tolist()
        self._matrix = rng.standard_normal((96, 96)) + 1j * rng.standard_normal((96, 96))

    def __call__(self):
        """Wall time, in seconds, of one fixed unit of work."""
        start = time.perf_counter()
        json.loads(json.dumps(self._doc, indent=2, sort_keys=True))
        for _ in range(10):
            self._matrix @ self._matrix
        # allocated per call and freed again, so it never raises the peak RSS
        # that a request reaches on its own
        buffer = np.full(1 << 19, 1.0)
        for _ in range(4):
            buffer *= 1.0001
        return time.perf_counter() - start
