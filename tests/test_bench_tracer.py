"""Guard for the benchmark's traced mode: bench/tracer.py wraps package
functions by name, so a rename or deletion in the package breaks traced runs.
Installing and removing the wrappers catches that in milliseconds."""

import os

from permbinom import ff, powersum, ppcheck, search
from permbinom.ff import build_tower

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def test_tracer_installs_over_the_package(monkeypatch):
    monkeypatch.syspath_prepend(BENCH_DIR)
    import tracer

    originals = (ff.FieldCtx.__init__, powersum.bracket_coeffs, ppcheck.t2_z_first_failure)
    t = tracer.Tracer()
    t.install()
    try:
        assert powersum.bracket_coeffs is not originals[1]
        assert ppcheck.t2_z_first_failure is not originals[2]
    finally:
        t.uninstall()
    assert (ff.FieldCtx.__init__, powersum.bracket_coeffs, ppcheck.t2_z_first_failure) == originals


def test_tracer_sees_the_bracket_layer(monkeypatch):
    # the tracer times bracket_coeffs and bracket_coeffs_deficient by name,
    # so a bracket built around them would read 0 bracket rows; the memo is
    # cleared so the sweep builds its brackets under the tracer
    monkeypatch.syspath_prepend(BENCH_DIR)
    import tracer

    powersum.bracket.cache_clear()
    t = tracer.Tracer()
    t.install()
    try:
        search.thm21_desk_sweep(5, 10**4)
    finally:
        t.uninstall()
    assert t.hot["powersum.bracket_rows"][0] > 0
    assert t.hot["ppcheck.z_test"][0] > 0


def test_tracer_counts_closed_dispatch_once(monkeypatch):
    # power_sum_closed resolves both closed forms at call time, so the
    # wrapped ones count each call once under powersum.closed
    monkeypatch.syspath_prepend(BENCH_DIR)
    import tracer

    _, fq2 = build_tower(5, 1)
    a = fq2.element(fq2.exp(1))
    s = powersum.PowerSumIndex.useful(1, 5)
    t = tracer.Tracer()
    t.install()
    try:
        for calls, tt in enumerate((1, 2), 1):
            powersum.power_sum_closed(3, tt, a, s)
            assert t.hot["powersum.closed"][0] == calls
    finally:
        t.uninstall()


def test_kernel_probe_reads_the_field_tables(monkeypatch):
    # bench/run.py --trace 1 probes F_{q^2} add/mul and reads _exp and _log,
    # so a table rename or layout change fails here first
    monkeypatch.syspath_prepend(BENCH_DIR)
    import tracer

    _, fq2 = build_tower(7, 2)
    probe = tracer.kernel_probe(fq2, 0, 100)
    assert probe["add_mops"] > 0 and probe["mul_mops"] > 0
    assert probe["table_entries"] == 2 * fq2.order - 1  # exp has n entries, log n + 1
    assert probe["table_bytes"] > 4 * probe["table_entries"]
