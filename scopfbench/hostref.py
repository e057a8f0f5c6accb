"""Host-speed reference for drift-proof timing.

The throughput of a shared host drifts by up to 2x within seconds, and CPU
time tracks wall time, so the drift cannot be filtered from inside the
process.  Every timed block of program work is therefore scaled by the speed
of a fixed reference workload that calls no program code, measured around and
during the block:

* a reference block of ``REF_LOOPS`` loops (about 10 ms) runs before the
  first block and after every block;
* a probe of ``PROBE_LOOPS`` loops (about 0.8 ms) runs between the small steps
  of a block (requests, sampled instances, optimizer steps) once
  ``PROBE_PERIOD_S`` has passed since the last one, so it samples the speed
  changes inside long blocks such as one outer iteration of ``train_pdl``,
  which the public API offers no way to cut.  It runs in the program's
  thread, on the same CPU and after the same work as the program: probes run
  from a thread of their own, woken by a timer, over-corrected some slow
  spells by up to 40% (see the README).

Each block's slow-down factor is the mean, over the probes inside it and
the two adjacent reference blocks, of each sample's time relative to its
nominal time, leaving out the slowest quarter of the samples: a sample can
be stretched by an interruption that hits it and not the block as a whole.

Only the user-mode part of a block is divided by that factor.  The kernel
time the program's thread spends in a block, nearly all of it faulting in
and zeroing the pages of large fresh arrays, does not slow with the
reference: on ``mesh-lines`` batched serving it is about 40% of the time and
stays put while the user-mode part follows the reference, and scaling the
whole block over-corrected by up to 15% between runs.  Each block's time,
less the probes' share of it, is split by a kernel share taken over all
blocks of one kind in a meter.  The thread's system time comes from a
tick-sampled clock, so it gives that share only over ``KERNEL_CLOCK_MIN_S``
of blocks or more; over the few milliseconds of a set-up block it reads 0 or
the whole block at random, and the kernel time is taken instead as the
block's page faults at ``NOMINAL_FAULT_S`` each.

The results read as seconds on a host where the references take their
nominal times.  The nominal values are the medians measured on the 2-vCPU
host the README quotes, so the figures stay close to raw seconds there.

The two parts of set-up, the cold set-up chain and the first checkpoint load,
are each timed once, as the single block of a meter of their own: repeating
them would time a warm set-up, which is another thing.

The reference mixes the operations the program's hot paths are made of:
element-wise ufuncs, reductions, small matrix products, a 3x3 eigensolve and
random draws, on arrays of a few to a few dozen entries, where interpreter
and numpy call overhead dominate.
"""

from __future__ import annotations

import resource
import time

import numpy as np

REF_LOOPS = 200
NOMINAL_REF_S = 0.011
PROBE_LOOPS = 12
NOMINAL_PROBE_S = 0.00078
PROBE_PERIOD_S = 0.02
KERNEL_CLOCK_MIN_S = 1.0
NOMINAL_FAULT_S = 4e-6   # system time per minor fault, mesh-lines batched serving


def reference_block(loops: int = REF_LOOPS) -> float:
    """Fixed small-array numpy work; REF_LOOPS loops take about 10 ms on the
    README's host."""
    x = np.linspace(0.0, 1.0, 9)
    y = np.linspace(1.0, 2.0, 9)
    w = np.linspace(-1.0, 1.0, 9 * 12).reshape(9, 12)
    batch = np.linspace(0.0, 1.0, 8 * 9).reshape(8, 9)
    corr = np.full((3, 3), 0.5) + 0.5 * np.eye(3)
    rng = np.random.default_rng(0)
    acc = 0.0
    for _ in range(loops):
        vals, vecs = np.linalg.eigh(corr)
        acc += float(((vecs * np.sqrt(vals)) @ rng.standard_normal(3)).sum())
        z = np.maximum(x * 1.5 - y, 0.0)
        y = np.where(z > 0.2, z, y * 0.5 + 0.1)
        h = np.maximum(batch @ w, 0.0)
        mu = h.mean(-1, keepdims=True)
        h = (h - mu) / np.sqrt(h.var(-1, keepdims=True) + 1e-5)
        acc += float(h.sum()) + float(z.sum())
        x = np.minimum(x + 0.01, 1.0)
        batch = np.clip(batch + 1e-3, 0.0, 1.0)
    return acc


def _kernel_usage() -> tuple[float, int]:
    """This thread's system time and minor page faults so far."""
    usage = resource.getrusage(resource.RUSAGE_THREAD)
    return usage.ru_stime, usage.ru_minflt


class Meter:
    """Times consecutive blocks of program work and scales each to nominal
    host speed.

    Use as a context manager, which runs the first reference block; call
    ``tick()`` between the small steps of a block (requests, optimizer
    steps), which runs a probe when one is due, and ``mark(kind)`` at the
    end of each block; read the results after the ``with`` block.  Blocks of
    several kinds may be interleaved; each kind gets its own kernel share.
    ``normalized(kind)`` gives the nominal-host time of each block of a kind
    without the probes inside it, and ``factor(i)`` the factor applied to
    block i.
    """

    def __init__(self):
        self.raw: list[float] = []
        self.windows: list[tuple[float, float]] = []
        self.refs: list[tuple[float, float]] = []
        self.probes: list[tuple[float, float]] = []
        self.kernel: list[tuple[float, int]] = []   # (system s, faults) per block
        self.kinds: list[str] = []
        self._t0 = 0.0
        self._k0 = (0.0, 0)
        self._next_probe = 0.0
        self.kernel_share: dict[str, float] = {}   # set on exit, per kind of block

    def tick(self) -> None:
        """Run a probe if PROBE_PERIOD_S has passed since the last one."""
        t0 = time.perf_counter()
        if t0 >= self._next_probe:
            reference_block(PROBE_LOOPS)
            t1 = time.perf_counter()
            self.probes.append((t0, t1))
            self._next_probe = t1 + PROBE_PERIOD_S

    def _reference(self) -> None:
        t0 = time.perf_counter()
        reference_block()
        self.refs.append((t0, time.perf_counter()))
        self._k0 = _kernel_usage()
        self._t0 = time.perf_counter()
        self._next_probe = self._t0 + PROBE_PERIOD_S

    def __enter__(self) -> "Meter":
        self._reference()
        return self

    def __exit__(self, *exc) -> bool:
        for kind in set(self.kinds):
            idx = self.blocks_of(kind)
            busy = [self._busy(i) for i in idx]
            if sum(busy) >= KERNEL_CLOCK_MIN_S:
                kernel = sum(self.kernel[i][0] for i in idx)
            else:
                kernel = sum(min(b, self.kernel[i][1] * NOMINAL_FAULT_S)
                             for b, i in zip(busy, idx))
            self.kernel_share[kind] = min(1.0, kernel / sum(busy)) if sum(busy) > 0 else 0.0
        return False

    def mark(self, kind: str = "") -> None:
        """End the current block, of the given kind, run a reference block,
        start the next."""
        t1 = time.perf_counter()
        k1 = _kernel_usage()
        self.kinds.append(kind)
        self.kernel.append((k1[0] - self._k0[0], k1[1] - self._k0[1]))
        self.raw.append(t1 - self._t0)
        self.windows.append((self._t0, t1))
        self._reference()

    def _probes_in(self, i: int) -> list[float]:
        """Durations of the probes that ran in block i."""
        a, b = self.windows[i]
        return [p1 - p0 for p0, p1 in self.probes if a <= p0 < b]

    def _speed(self, i: int) -> float:
        samples = sorted([p / NOMINAL_PROBE_S for p in self._probes_in(i)]
                         + [(b - a) / NOMINAL_REF_S for a, b in self.refs[i:i + 2]])
        kept = samples[:max(1, (3 * len(samples)) // 4)]
        return len(kept) / sum(kept)

    def _busy(self, i: int) -> float:
        return self.raw[i] - sum(self._probes_in(i))

    def factor(self, i: int) -> float:
        """Nominal-host seconds per busy second of block i: its user-mode
        share scaled by the reference's speed, its kernel share as is."""
        share = self.kernel_share[self.kinds[i]]
        return (1.0 - share) * self._speed(i) + share

    def blocks_of(self, kind: str = "") -> list[int]:
        return [i for i, k in enumerate(self.kinds) if k == kind]

    def normalized(self, kind: str = "") -> list[float]:
        """Scaled times of the blocks of one kind, in order."""
        return [self._busy(i) * self.factor(i) for i in self.blocks_of(kind)]
