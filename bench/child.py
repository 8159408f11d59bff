"""One repetition of one workload, in a fresh interpreter.

Started by run.py as ``child.py WORKLOAD SEED SCALE MODE WORKDIR`` with
MODE one of ``setup`` (stop once the inputs exist), ``plain`` (timed body)
or ``traced`` (timed body under the tracer, then the kernel probe).  Prints
one JSON object as its last stdout line.  ``setup_done``, ``body_start``
and ``body_end`` are ``time.monotonic()`` readings, which are system-wide,
so the parent can subtract the moment it started this process and match
the intervals to the host-speed meter's samples (meter.py).
"""

import json
import os
import resource
import sys
import time

import workloads  # imports permbinom

workload, seed, scale, mode, workdir = sys.argv[1:6]
inputs = workloads.make_inputs(workload, int(seed), scale, workdir)
setup_done = time.monotonic()
if mode == "setup":
    print(json.dumps({"setup_done": setup_done}))
    sys.exit(0)

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json"),
          encoding="utf-8") as fh:
    pins = json.load(fh)[scale][workload]
checks = workloads.Checks()
tracer = None
if mode == "traced":
    import tracer as tracing
    from permbinom.ff import build_tower

    tracer = tracing.Tracer()
    tracer.install()
    tracer.root(f"bench.{workload}")
body_start = time.monotonic()
observables = workloads.run_body(workload, inputs, pins, checks)
body_end = time.monotonic()
peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

result = {
    "setup_done": setup_done,
    "body_start": body_start,
    "body_end": body_end,
    "peak_rss_mb": peak_rss_mb,
    "attempted": checks.attempted,
    "failures": checks.failures,
}
if tracer is not None:
    tracer.close_root()
    tracer.uninstall()
    layer = tracer.layer_metrics()
    layer["search.records"] = observables.get("search.records", 0)
    layer["search.catalog_bytes"] = observables.get("search.catalog_bytes", 0)
    # kernel probe, outside the timed body and with the wrappers removed;
    # the large field is probed only where the workload already built it
    size = workloads.SIZES[scale]
    fields = {"q49": size["probe"]["small_field"]}
    if workload == "bigfield":
        fields["q1009"] = (size["bigfield"]["p"], 1)
    for label in ("q49", "q1009"):
        probe = {"add_mops": 0.0, "mul_mops": 0.0, "table_entries": 0, "table_bytes": 0}
        if label in fields:
            _, fq2 = build_tower(*fields[label])
            probe = tracing.kernel_probe(fq2, int(seed), size["probe"]["ops"])
        for key, value in probe.items():
            layer[f"ff.{key}.{label}"] = value
    result["layer"] = layer
    result["trace"] = tracer.dump()
print(json.dumps(result))
