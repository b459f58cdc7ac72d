"""Host-speed sampling, so that chain times read the same on a slow host and a fast one.

The benchmark runs on small shared virtual machines whose core speed swings
by 20% and more within seconds, as other tenants come and go. A chain's raw
time carries those swings; timing a fixed reference piece of work next to it
measures them, and dividing by that cancels them.

While a chain runs, an interval timer interrupts it every PERIOD_S seconds
and runs `piece`, a fixed mix of small numpy calls, a pure-Python loop over
vector dots, and elementwise work on small matrices (the kinds of work the
workloads do), which touches nothing in disentlab. One piece runs just before
the chain and one just after it, so every chain has at least two. The pieces
run during the chain are taken out of its time, and the chain's net time is
scaled to the reference speed:

    ref_wall_s = net chain wall * REFERENCE_PIECE_S / mean piece wall

and likewise for CPU time. Set-up time, which ends before any chain, is
scaled by the speed of SETUP_PIECES pieces run right after it. A program
change cannot change the pieces' work, only the host's speed while they run.
The pieces add about 1.5% to a chain's raw time.
"""
from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.2
SETUP_PIECES = 16
# A piece's time on the 2-vCPU Intel Xeon virtual machine the benchmark was
# written on, while a chain runs; it sets the scale of the reported times.
REFERENCE_PIECE_S = 0.0028

# Fixed inputs, from sines rather than a random generator so that importing
# this module loads nothing the workloads do not.
_PROBS = 0.5 + 0.5 * np.sin(np.arange(144.0)).reshape(24, 6) ** 2
_MASS = float(_PROBS.sum(axis=0).mean())
_X = np.sin(np.arange(12000.0) * 0.37).reshape(1000, 12)
_Y = np.cos(np.arange(1000.0) * 0.11)
_V = np.sin(np.arange(100.0) * 0.73)


def piece() -> float:
    """A fixed amount of reference work, about 2.8 ms on the machine above.

    Every array is under 100 KiB; the pieces add about 0.3 MiB to a
    workload's peak RSS.
    """
    logits = np.zeros((24, 6))
    for _ in range(120):
        top = logits.max(axis=1, keepdims=True)
        e = np.exp(logits - top)
        h = e / e.sum(axis=1, keepdims=True)
        logits += 0.1 * (_PROBS - h * _MASS) / 6
    weights = np.zeros(12)
    residual = _Y.copy()
    for _ in range(4):
        for j in range(12):
            rho = float(_X[:, j] @ residual) / 1000 + weights[j]
            delta = 0.5 * rho - weights[j]
            residual -= delta * _X[:, j]
            weights[j] += delta
    acc = np.ones((100, 100))
    kernel = np.empty((100, 100))
    for col in range(6):
        np.subtract.outer(_V, _V * (col + 1), out=kernel)
        np.abs(kernel, out=kernel)
        np.negative(kernel, out=kernel)
        np.exp(kernel, out=kernel)
        acc *= kernel
    return float(acc.sum() + weights.sum() + logits.sum())


def host_speed(count: int) -> float:
    """Seconds of reference work per second here, from `count` pieces in a row.

    One piece runs first, untimed, so that the first calls' set-up in a fresh
    process is not counted.
    """
    piece()
    start = time.perf_counter()
    for _ in range(count):
        piece()
    return REFERENCE_PIECE_S * count / (time.perf_counter() - start)


class Sampler:
    """Runs reference pieces before, during and after a timed call."""

    def __init__(self):
        self.pieces: list[tuple[float, float, float]] = []  # (start, wall s, CPU s)

    def _piece(self, *_signal_args) -> None:
        start, cpu0 = time.perf_counter(), time.process_time()
        piece()
        self.pieces.append((start, time.perf_counter() - start, time.process_time() - cpu0))

    def timed(self, fn, *args):
        """Return fn(*args) and its raw and reference-speed wall and CPU seconds."""
        self.pieces.clear()
        self._piece()
        previous = signal.signal(signal.SIGALRM, self._piece)
        wall0, cpu0 = time.perf_counter(), time.process_time()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            signal.signal(signal.SIGALRM, previous)
        self._piece()
        inner = [p for p in self.pieces if wall0 <= p[0] < wall0 + wall]
        wall -= sum(p[1] for p in inner)
        cpu -= sum(p[2] for p in inner)
        # Seconds of a reference piece per second of its time here.
        count = len(self.pieces)
        speed = REFERENCE_PIECE_S * count / sum(p[1] for p in self.pieces)
        cpu_speed = REFERENCE_PIECE_S * count / sum(p[2] for p in self.pieces)
        return result, {"wall_s": wall, "cpu_s": cpu, "ref_wall_s": wall * speed,
                        "ref_cpu_s": cpu * cpu_speed, "host_speed": speed,
                        "pieces": count}
