"""Host-speed meter: a short pure-Python kernel timed every SAMPLE_EVERY_S.

Started by run.py for the whole run, pinned to the one CPU the workload
repetitions run on (it inherits run.py's CPU affinity).  The host's speed
drifts by tens of percent within seconds and differs between its two CPUs
at the same moment, so only a sample taken on the repetitions' own CPU, in
the same second, tells how fast that CPU was.  The meter is a process of
its own: it never imports permbinom and shares no interpreter state
(allocator, garbage collector) with a repetition, and each timed kernel
run follows an untimed one that brings the kernel's small working set back
into the CPU's caches, so the state the program leaves there hardly moves
the reading.  The timed run is kept well under one scheduler time slice,
and a run during which the scheduler switched to the repetition is taken
again, so the repetition's own time never enters a sample.

On SIGTERM it prints one JSON list of ``[start, end, cpu, seconds]``
samples: ``start`` and ``end`` are ``time.monotonic()`` readings
(system-wide, so run.py can match samples to the intervals a repetition
reports), ``cpu`` the CPU time the sample took from the repetitions and
``seconds`` the timed kernel run.
"""

import json
import os
import resource
import signal
import time

SAMPLE_EVERY_S = 0.02
KERNEL_STEPS = 1000  # about 0.35 ms
RETRIES = 5
_TABLE = list(range(1021))
_stop = False


def _ref_step(x, tab):
    return tab[(x * 7 + 3) % 1021]


def reference_s(n=KERNEL_STEPS):
    """Time of the fixed reference kernel: calls, list indexing, divmod."""
    acc = 0
    t0 = time.perf_counter()
    for i in range(n):
        acc = (acc + _ref_step(i, _TABLE)) % 1000003
        q, r = divmod(i, 13)
        acc ^= q + r
    return time.perf_counter() - t0


def _preemptions() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_nivcsw


def _on_term(signum, frame):
    global _stop
    _stop = True


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _on_term)
    print("ready", flush=True)
    samples = []
    parent = os.getppid()
    tick = time.monotonic()
    while not _stop and os.getppid() == parent:  # never outlive run.py
        start, cpu = time.monotonic(), time.thread_time()
        reference_s(KERNEL_STEPS // 5)  # warm-up, untimed
        for _ in range(RETRIES):
            before = _preemptions()
            dt = reference_s()
            if _preemptions() == before:
                samples.append((start, time.monotonic(), time.thread_time() - cpu, dt))
                break
        tick = max(tick + SAMPLE_EVERY_S, time.monotonic())  # no catch-up bursts
        time.sleep(max(0.0, tick - time.monotonic()))
    print(json.dumps(samples))
