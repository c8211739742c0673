"""One benchmark repetition in a fresh interpreter.

Usage: ``python rep.py REQUEST_JSON``; prints one JSON object as the
last line of standard output.  ``run.py`` starts one of these per
repetition, so every repetition pays the same cold start a ``repro
analyze`` run pays.

A request names the netlist (``bench``) and the ``DetectorOptions``
fields (``options``).  Its ``mode`` is

* ``"analyze"`` (default) — ``import repro`` and load the netlist
  (``setup_s``), then run the analysis call untraced (``analyze_s``,
  ``cpu_s``, ``peak_rss_mb``) and digest the verdicts.  Times leave out
  the hypervisor's steal and are reported at a reference CPU speed
  (:class:`SpeedProbe`).  With ``prior`` the call replays ``repro
  analyze --incremental-from``: load the prior
  netlist, load its pair-record bundle from the store named by
  ``options["cache_dir"]``, then ``incremental_detect``.  With
  ``trace`` set to a path the layer functions are wrapped
  (:mod:`spans`), the spans are written there as JSON lines and the
  per-layer metrics are returned;
* ``"sat"`` — decide the pairs in ``pairs`` with the independent SAT
  formulation (``repro.sat.mc_sat.SatMcDetector``) and report those
  whose classification differs.

For ``--check`` an analysis request may add ``records`` (report the
sha256 of ``pair_records()``) and ``sat_seed`` (draw the SAT sample;
pairs in ``ref_undecided`` that are decided now go first).

Only the standard library is imported before the setup clock starts.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import statistics
import sys
import time
from typing import Any

#: Wall seconds between two runs of the speed probe's loop.  One run
#: takes about 1 ms, so the probe takes about 2 % of a repetition.
PROBE_PERIOD_S = 0.05
#: Seconds one run of the probe's loop takes at the reference speed.
PROBE_REFERENCE_S = 0.001


def _probe_loop() -> int:
    """The fixed work the speed probe times: interpreter arithmetic only."""
    total = 0
    for i in range(10_000):
        total += i * i % 7
    return total


class SpeedProbe:
    """Samples how fast this process's CPU runs while a repetition works.

    On a shared host a CPU's speed drifts by about 15 % (inter-quartile)
    over seconds to minutes, so times of the same work taken minutes
    apart differ by more than the regression bounds.  While the probe is
    active an interval timer interrupts the main thread every
    :data:`PROBE_PERIOD_S` and times one run of :func:`_probe_loop`.
    :meth:`scale` turns seconds measured meanwhile into seconds at the
    reference speed, at which the loop takes :data:`PROBE_REFERENCE_S`.
    The median of the samples ignores those that a steal or a decision
    worker interrupts.
    """

    def __init__(self) -> None:
        #: (start, end) ``perf_counter`` readings of each run of the loop.
        self.samples: list[tuple[float, float]] = []
        self._previous: Any = None

    def _sample(self, signum: int, frame: Any) -> None:
        start = time.perf_counter()
        _probe_loop()
        self.samples.append((start, time.perf_counter()))

    def __enter__(self) -> "SpeedProbe":
        for _ in range(20):  # let the interpreter specialise the loop first
            _probe_loop()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def spent(self, start: float, end: float) -> float:
        """Seconds the probe itself ran between two ``perf_counter`` readings."""
        return sum(e - s for s, e in self.samples if start <= s and e <= end)

    def loop_seconds(self) -> float:
        """The median run of the loop; the reference time without samples."""
        if not self.samples:
            return PROBE_REFERENCE_S
        return statistics.median(e - s for s, e in self.samples)

    def scale(self) -> float:
        """Reference seconds per measured second."""
        return PROBE_REFERENCE_S / self.loop_seconds()


def _steal_seconds() -> float:
    """Seconds the hypervisor has held this machine's CPUs back, summed.

    The ``steal`` column of ``/proc/stat``; 0 where it is missing.  CPU
    time leaves it out, wall time does not.
    """
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def _reading() -> tuple[float, float]:
    """A ``perf_counter`` reading and the steal so far."""
    return time.perf_counter(), _steal_seconds()


def _net_seconds(probe: SpeedProbe, start: tuple[float, float],
                 end: tuple[float, float], busy: int = 1) -> float:
    """Wall seconds from ``start`` to ``end`` at the reference speed.

    Less the probe's own runs and the steal meanwhile; ``busy`` CPUs
    share the steal, one per process the interval keeps running.
    """
    wall = end[0] - start[0] - probe.spent(start[0], end[0])
    return (wall - (end[1] - start[1]) / busy) * probe.scale()


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime
            + children.ru_utime + children.ru_stime)


def _peak_rss_mb(workers: int) -> float:
    """This process's peak RSS plus ``workers`` x the largest child peak.

    The same aggregate rule as ``benchmarks/scale_runner.py``: shared
    backplane pages count once per process that touched them, so the
    figure bounds the fleet from above.
    """
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workers > 1:
        peak_kb += workers * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak_kb / 1024


def _analyze(bench: Any, circuit: Any, options: Any, prior: str | None) -> Any:
    if prior is None:
        from repro.core.detector import MultiCycleDetector

        return MultiCycleDetector(circuit, options).run()
    from repro.core.incremental import incremental_detect, load_result_bundle
    from repro.store.runtime import store_enabled

    prior_circuit = bench.load(prior)
    with store_enabled(options.cache_dir, options.cache_max_bytes) as store:
        bundle = load_result_bundle(store, prior_circuit, options)
    return incremental_detect(circuit, options, bundle)


def _sat_disagreements(circuit: Any, pairs: list[list[str]]) -> list[list[str]]:
    from repro.circuit.topology import FFPair
    from repro.sat.mc_sat import SatMcDetector

    index = {name: node for node, name in enumerate(circuit.names)}
    detector = SatMcDetector(circuit)
    wrong = []
    for source, sink, kind in pairs:
        sat = detector.analyze(FFPair(index[source], index[sink]))
        sat_kind = "multi-cycle" if sat.is_multi_cycle else "single-cycle"
        if sat.unknown or sat_kind != kind:
            wrong.append([source, sink, kind, "unknown" if sat.unknown else sat_kind])
    return wrong


def run(request: dict[str, Any]) -> dict[str, Any]:
    """Execute one request in this process; see the module docstring."""
    mode = request.get("mode", "analyze")
    trace_path = request.get("trace")
    with SpeedProbe() as probe:
        setup_start = _reading()
        import repro  # noqa: F401  (part of the measured set-up)
        from repro.circuit import bench

        import spans

        recorder = installation = None
        if trace_path:
            recorder = spans.Recorder()
            installation = spans.install(recorder)
        else:
            # The modules a traced run imports to wrap them: with these in
            # the set-up of every run, traced and untraced calls compare.
            spans.import_modules()
        try:
            circuit = bench.load(request["bench"])
            setup_end = _reading()
            if mode == "sat":
                return {"disagreements": _sat_disagreements(circuit, request["pairs"])}

            from repro.core.detector import DetectorOptions

            options = DetectorOptions(**request.get("options", {}))
            cpu_before = _cpu_seconds()
            started = _reading()
            if recorder is not None:
                with recorder.span(spans.ANALYZE, "pipeline"):
                    result = _analyze(bench, circuit, options, request.get("prior"))
            else:
                result = _analyze(bench, circuit, options, request.get("prior"))
            ended = _reading()
            cpu_s = _cpu_seconds() - cpu_before
            peak_rss_mb = _peak_rss_mb(options.workers)
        finally:
            if installation is not None:
                installation.restore()

    import verdicts

    busy = min(max(1, options.workers), os.cpu_count() or 1)
    out: dict[str, Any] = {
        "setup_s": _net_seconds(probe, setup_start, setup_end),
        "analyze_s": _net_seconds(probe, started, ended, busy),
        # The probe runs on this process's CPU, so its runs leave the CPU
        # time too.
        "cpu_s": (cpu_s - probe.spent(started[0], ended[0])) * probe.scale(),
        "peak_rss_mb": peak_rss_mb,
        "probe_ms": probe.loop_seconds() * 1000,
        "verdicts": verdicts.digest(result),
    }
    if request.get("records"):
        import hashlib

        records = json.dumps(result.pair_records(), sort_keys=True)
        out["records_sha256"] = hashlib.sha256(records.encode()).hexdigest()
    if "sat_seed" in request:
        newly = (set(request.get("ref_undecided", []))
                 - set(out["verdicts"]["undecided"]))
        out["sat_sample"] = verdicts.sat_sample(result, newly, request["sat_seed"])
    if recorder is not None:
        out["layers"] = spans.layer_metrics(
            recorder, result, installation.missing_layers)
        out["layers"]["host.probe_ms"] = out["probe_ms"]
        out["top_self"] = spans.top_self(recorder)
        out["missing_targets"] = installation.missing
        with open(trace_path, "w", encoding="utf-8") as fh:
            for record in recorder.records():
                fh.write(json.dumps(record) + "\n")
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: rep.py REQUEST_JSON", file=sys.stderr)
        return 2
    print(json.dumps(run(json.loads(argv[0]))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
