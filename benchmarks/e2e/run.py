"""End-to-end benchmark of the multi-cycle detector, with a per-layer trace.

Two ways to run it, from the repository root::

    # one workload for about SECONDS; the last stdout line is one JSON
    # object {"correct", "attempted", "failed", "metrics"}
    python benchmarks/e2e/run.py --workload ladder-decide --seed 0 \\
        --seconds 30 --trace 0

    # REPEAT rounds; each round runs BLOCK (4) repetitions of every workload
    # in turn and keeps their median; the last round adds one traced run
    # per workload.  Writes FILE and trace-<workload>.jsonl beside it.
    python benchmarks/e2e/run.py --out FILE [--repeat 10] [--seed 0] [--check]

Each repetition runs in a fresh interpreter (``rep.py``), one at a time,
with tracing off.  Every repetition's verdicts are checked against the
committed reference in ``golden/``; ``--check`` adds a SAT cross-check
of a seeded pair sample and byte-identity checks of the parallel and
incremental records.  ``--write-golden`` regenerates the references.

Metric names, units and regression bounds live in ``BENCHMARK.json``
at the repository root; ``README.md`` beside this file defines them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_e2e"
GOLDEN = HERE / "golden"

sys.path.insert(0, str(HERE))
import verdicts  # noqa: E402
import workloads  # noqa: E402

#: fewest timed repetitions per run, whatever ``--seconds`` says.
MIN_REPS = 3
#: a ``--workload`` run ends within this many seconds of starting.
RUN_DEADLINE_S = 170.0
#: ``--out`` mode: repetitions of a workload per round.  A round keeps
#: their median, which absorbs a slow burst of the machine as the median
#: of a ``--workload`` run does.
BLOCK = 4
#: hard timeout of one repetition in ``--out`` mode.
REP_TIMEOUT_S = 300.0

#: pinned so numpy's BLAS pools cannot add threads to a measurement.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def benchmark_spec() -> dict[str, Any]:
    """``BENCHMARK.json``: metric names, units, directions and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def environment(seed: int, repeat: int) -> dict[str, Any]:
    """What a comparison must hold equal: hardware and toolchain."""
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"  # e.g. an exported checkout without .git
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "loadavg": list(os.getloadavg()),
        "seed": seed,
        "repeat": repeat,
        "block": BLOCK,
    }


# ----------------------------------------------------------------------
# Child processes.
# ----------------------------------------------------------------------
class ChildRunner:
    """Runs ``rep.py`` requests one at a time under a hard timeout.

    A repetition that exits non-zero, prints no result or outlives its
    timeout comes back as ``{"error": ...}``; its process group (the
    repetition and any decision workers) is killed and reaped.
    """

    def __init__(self, deadline: float | None = None,
                 timeout: float = REP_TIMEOUT_S) -> None:
        self.deadline = deadline
        self.timeout = timeout
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])

    def remaining(self) -> float:
        if self.deadline is None:
            return self.timeout
        return min(self.timeout, self.deadline - time.monotonic())

    def __call__(self, request: dict[str, Any]) -> dict[str, Any]:
        timeout = self.remaining()
        if timeout <= 0:
            return {"error": "run deadline reached"}
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "rep.py"), json.dumps(request)],
            stdout=subprocess.PIPE, env=self.env, text=True,
            start_new_session=True,
        )
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"error": f"timed out after {timeout:.0f} s"}
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return {"error": f"repetition exited with code {proc.returncode}"}
        return json.loads(lines[-1])


# ----------------------------------------------------------------------
# Repetitions.
# ----------------------------------------------------------------------
def golden_path(name: str) -> Path:
    return GOLDEN / f"{name}-seed0.json"


def load_golden(workload: workloads.Workload) -> dict[str, Any]:
    """The reference digest of the workload's circuit.

    For ``eco-incremental`` it also holds ``edits``: the pool's edits,
    each with its own ``verdicts`` only where the edit changes them.
    """
    golden = json.loads(golden_path(workload.reference or workload.name).read_text())
    if workload.eco:
        golden["edits"] = json.loads(golden_path(workload.name).read_text())["edits"]
    return golden


def reference(golden: dict[str, Any], prepared: workloads.Prepared,
              index: int) -> dict[str, Any]:
    """The reference digest repetition ``index`` is checked against."""
    edit = prepared.edit(index)
    if edit is None:
        return golden
    entry = golden["edits"].get(edit["gate"])
    if entry is None or (entry["from"], entry["to"]) != (edit["from"], edit["to"]):
        raise ValueError(f"no reference for the edit {edit['gate']} "
                         f"{edit['from']} -> {edit['to']}; run --write-golden")
    return entry.get("verdicts", golden)


def run_rep(prepared: workloads.Prepared, index: int,
            run_child: Callable[[dict], dict], golden: dict[str, Any],
            **extra: Any) -> dict[str, Any]:
    """One checked repetition; ``extra`` is merged into the request.

    The result carries ``errors`` (empty when the verdicts match the
    reference) and ``connected`` (the pairs the repetition attempted).
    """
    ref = reference(golden, prepared, index)
    request: dict[str, Any] = {
        "bench": str(prepared.rep_bench(index)),
        "options": dict(prepared.options),
        "ref_undecided": ref["undecided"],
        **extra,
    }
    store = None
    if prepared.store is not None:
        # A fresh copy of the primed store per repetition: the run reads
        # the prior bundle and artifacts and writes new ones.
        store = prepared.workdir / "store-rep"
        shutil.rmtree(store, ignore_errors=True)
        shutil.copytree(prepared.store, store)
        request["prior"] = str(prepared.bench)
        request["options"]["cache_dir"] = str(store)
    try:
        out = run_child(request)
    finally:
        if store is not None:
            shutil.rmtree(store, ignore_errors=True)
    out["connected"] = ref["connected"]
    if "error" in out:
        out["errors"] = [out["error"]]
    else:
        out["errors"] = verdicts.check(ref, out["verdicts"])
    return out


def decided_fraction(rep: dict[str, Any]) -> float:
    digest = rep["verdicts"]
    return 1.0 - verdicts.incomplete(digest) / digest["connected"]


def end_to_end_values(reps: list[dict]) -> dict[str, list[float]]:
    """Per end-to-end metric, the values of every completed repetition."""
    done = [rep for rep in reps if "verdicts" in rep]
    return {
        "setup_s": [rep["setup_s"] for rep in done],
        "analyze_s": [rep["analyze_s"] for rep in done],
        "cpu_s": [rep["cpu_s"] for rep in done],
        "peak_rss_mb": [rep["peak_rss_mb"] for rep in done],
        "decided_fraction": [decided_fraction(rep) for rep in done],
    }


def layer_values(traced: dict[str, Any], untraced_analyze: list[float]) -> dict:
    """The traced run's per-layer metrics plus the tracing overhead."""
    layers = dict(traced.get("layers") or {})
    if "analyze_s" in traced and untraced_analyze:
        base = statistics.median(untraced_analyze)
        layers["trace.overhead_ratio"] = traced["analyze_s"] / base - 1.0
    else:
        layers["trace.overhead_ratio"] = None
    return layers


def ops(reps: list[dict]) -> tuple[int, int]:
    """``(attempted, failed)`` pairs over ``reps``.

    A repetition that crashed, timed out or failed its verdict check
    fails all its pairs; otherwise its UNDECIDED and glitch-possible
    pairs failed.
    """
    attempted = sum(rep["connected"] for rep in reps)
    failed = sum(rep["connected"] if rep["errors"]
                 else verdicts.incomplete(rep["verdicts"]) for rep in reps)
    return attempted, failed


def quartiles(values: list[float]) -> dict[str, float | int]:
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def log_rep(label: str, rep: dict[str, Any]) -> None:
    log(f"{label}: " + (f"analyze {rep['analyze_s']:.3f} s" if not rep["errors"]
                        else "; ".join(rep["errors"])))


# ----------------------------------------------------------------------
# Checks beyond the reference digests (--check).
# ----------------------------------------------------------------------
def extra_checks(prepared: workloads.Prepared, first: dict[str, Any],
                 run_child: Callable[[dict], dict]) -> list[str]:
    """SAT cross-check of the first repetition's sample, plus identity.

    ``parallel-decide`` records must equal a serial run's, and
    ``eco-incremental`` records must equal a fresh full run of the
    edited netlist.
    """
    errors = []
    sample = first.get("sat_sample") or []
    sat = run_child({"mode": "sat", "bench": str(prepared.rep_bench(0)),
                     "pairs": sample})
    if "error" in sat:
        errors.append(f"SAT cross-check: {sat['error']}")
    else:
        errors += [f"SAT disagrees on {s} -> {t}: {ours} vs {theirs}"
                   for s, t, ours, theirs in sat["disagreements"]]
    log(f"  SAT cross-check: {len(sample)} pairs, "
        f"{len(sat.get('disagreements', []))} disagreements")
    if prepared.workload.eco or dict(prepared.workload.options).get("workers", 1) > 1:
        options = {**prepared.options, "workers": 1}
        options.pop("backplane", None)
        fresh = run_child({"bench": str(prepared.rep_bench(0)),
                           "options": options, "records": True})
        same = fresh.get("records_sha256") == first.get("records_sha256")
        log(f"  identity with a fresh serial run: {'ok' if same else 'DIFFERS'}")
        if not same:
            errors.append("pair records differ from a fresh serial full run")
    return errors


# ----------------------------------------------------------------------
# --workload mode: one workload for about --seconds.
# ----------------------------------------------------------------------
def measure(prepared: workloads.Prepared, seconds: float, reserve: int,
            run_child: Callable[[dict], dict], golden: dict[str, Any],
            started: float, deadline: float) -> list[dict]:
    """Repetitions while the run, begun at ``started``, fits ``seconds``.

    The budget counts the preparation before the first repetition and
    ``reserve`` repetitions still to come after the last.  At least
    :data:`MIN_REPS` run; none starts when its expected length would
    pass ``deadline``.  Both instants are ``time.monotonic`` readings.
    """
    reps: list[dict] = []
    spent = 0.0
    while True:
        mean = spent / len(reps) if reps else 0.0
        now = time.monotonic()
        if len(reps) >= MIN_REPS and now - started + (1 + reserve) * mean > seconds:
            break
        if reps and now + mean > deadline:
            break
        rep = run_rep(prepared, len(reps), run_child, golden)
        spent += time.monotonic() - now
        reps.append(rep)
        log_rep(f"  rep {len(reps)}", rep)
    return reps


def workload_result(spec: dict[str, Any], reps: list[dict],
                    traced: dict[str, Any] | None) -> dict[str, Any]:
    """The final JSON line: end-to-end metrics, or per-layer with a trace.

    It is ``correct`` when every repetition passed its verdict check and
    every metric has a value.
    """
    attempted, failed = ops(reps + ([traced] if traced else []))
    if traced is None:
        values = {name: statistics.median(v) if v else None
                  for name, v in end_to_end_values(reps).items()}
        defs = spec["end_to_end"]
    else:
        analyze = end_to_end_values(reps)["analyze_s"]
        # A layer the trace could not reach reports 0 here (the line
        # must hold numbers); the warning names it, and --out keeps null.
        values = {name: 0.0 if v is None else v
                  for name, v in layer_values(traced, analyze).items()}
        defs = spec["per_layer"]
    metrics = {d["name"]: {"value": values[d["name"]], "unit": d["unit"]}
               for d in defs if values.get(d["name"]) is not None}
    correct = len(metrics) == len(defs) and not any(
        rep["errors"] for rep in reps + ([traced] if traced else []))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def workload_main(args: argparse.Namespace) -> int:
    spec = benchmark_spec()
    workload = workloads.by_name(args.workload)
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    run_child = ChildRunner(deadline=deadline)
    golden = load_golden(workload)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        log(f"{workload.name}: seed {args.seed}, {args.seconds} s")
        prepared = workloads.prepare(workload, args.seed, workdir, run_child)
        reps = measure(prepared, args.seconds, args.trace, run_child, golden,
                       started, deadline)
        traced = None
        if args.trace:
            trace_path = WORK / f"trace-{workload.name}.jsonl"
            traced = run_rep(prepared, len(reps), run_child, golden,
                             trace=str(trace_path))
            log(f"  traced rep: wrote {trace_path}")
        result = workload_result(spec, reps, traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for rep in reps + ([traced] if traced else []):
        for error in rep["errors"]:
            log(f"FAILED: {error}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# ----------------------------------------------------------------------
# --out mode: every workload, interleaved, plus one traced run each.
# ----------------------------------------------------------------------
def full_main(args: argparse.Namespace) -> int:
    spec = benchmark_spec()
    chosen = workloads.WORKLOADS
    out_path = Path(args.out).resolve()
    out_path.parent.mkdir(parents=True, exist_ok=True)
    report: dict[str, Any] = {"env": environment(args.seed, args.repeat),
                              "workloads": {}}
    run_child = ChildRunner()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="out-", dir=WORK))
    started = time.perf_counter()
    ok = True
    try:
        prepared = {w.name: workloads.prepare(w, args.seed, workdir / w.name,
                                              run_child) for w in chosen}
        golden = {w.name: load_golden(w) for w in chosen}
        reps: dict[str, list[dict]] = {w.name: [] for w in chosen}
        rounds: dict[str, list[dict[str, list[float]]]] = {w.name: [] for w in chosen}
        traces: dict[str, dict] = {}
        for round_index in range(args.repeat):
            # Rotate the order so no workload always runs first or last.
            order = chosen[round_index % len(chosen):] + chosen[:round_index % len(chosen)]
            for workload in order:
                name = workload.name
                block = []
                for _ in range(BLOCK):
                    extra = ({"records": True, "sat_seed": args.seed}
                             if args.check and not reps[name] else {})
                    rep = run_rep(prepared[name], len(reps[name]),
                                  run_child, golden[name], **extra)
                    reps[name].append(rep)
                    block.append(rep)
                    log_rep(f"{name} round {round_index + 1} rep {len(block)}", rep)
                rounds[name].append(end_to_end_values(block))
                if round_index == args.repeat - 1:
                    # Traced right after the last block, which is the
                    # untraced base of trace.overhead_ratio.
                    traces[name] = run_rep(
                        prepared[name], len(reps[name]), run_child, golden[name],
                        trace=str(out_path.parent / f"trace-{name}.jsonl"))
                    log_rep(f"{name} traced", traces[name])
        for workload in chosen:
            name = workload.name
            traced = traces[name]
            failures = [e for rep in reps[name] + [traced] for e in rep["errors"]]
            if args.check and "verdicts" in reps[name][0]:
                log(f"{name}: --check")
                failures += extra_checks(prepared[name], reps[name][0], run_child)
            attempted, failed = ops(reps[name] + [traced])
            # One value per round: the median of its block.
            values = {d["name"]: [statistics.median(block[d["name"]])
                                  for block in rounds[name] if block[d["name"]]]
                      for d in spec["end_to_end"]}
            layers = layer_values(traced, rounds[name][-1]["analyze_s"])
            report["workloads"][name] = {
                "metrics": {
                    d["name"]: {"unit": d["unit"], **quartiles(values[d["name"]]),
                                "values": values[d["name"]]}
                    for d in spec["end_to_end"] if values[d["name"]]
                },
                "layers": {
                    d["name"]: {"unit": d["unit"], "value": layers.get(d["name"])}
                    for d in spec["per_layer"]
                },
                "top_self": traced.get("top_self", []),
                "probe_ms": statistics.median(
                    [rep["probe_ms"] for rep in reps[name] if "probe_ms" in rep] or [0.0]),
                "ops_attempted": attempted,
                "ops_failed": failed,
                "undecided": len(reps[name][0]["verdicts"]["undecided"])
                if "verdicts" in reps[name][0] else None,
                "failures": failures,
            }
            ok = ok and not failures
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report["total_seconds"] = time.perf_counter() - started
    out_path.write_text(json.dumps(report, indent=1) + "\n")
    print_report(report)
    print(f"wrote {out_path} ({report['total_seconds']:.0f} s)")
    return 0 if ok else 1


def print_report(report: dict[str, Any]) -> None:
    env = report["env"]
    print(f"cpu_count={env['cpu_count']} python={env['python']} "
          f"numpy={env['numpy']} sha={env['git_sha'][:12]} "
          f"loadavg={env['loadavg'][0]:.2f} seed={env['seed']}")
    print(f"{'workload':18s} {'metric':18s} {'median':>11s} {'q1':>11s} "
          f"{'q3':>11s} {'n':>3s}  unit")
    for name, entry in report["workloads"].items():
        for metric, row in entry["metrics"].items():
            print(f"{name:18s} {metric:18s} {row['median']:11.4f} "
                  f"{row['q1']:11.4f} {row['q3']:11.4f} {row['n']:3d}  {row['unit']}")
    for name, entry in report["workloads"].items():
        top = ", ".join(f"{layer} {seconds:.3f} s" for layer, seconds in entry["top_self"])
        print(f"\n{name}: ops {entry['ops_attempted']} attempted, "
              f"{entry['ops_failed']} failed; probe loop {entry['probe_ms']:.3f} ms; "
              f"top self time: {top}")
        for metric, row in entry["layers"].items():
            value = "null" if row["value"] is None else f"{row['value']:.6g}"
            print(f"  {metric:34s} {value:>14s}  {row['unit']}")
        for failure in entry["failures"]:
            print(f"  FAILED: {failure}")


# ----------------------------------------------------------------------
# --write-golden: the references every run is checked against.
# ----------------------------------------------------------------------
def write_golden() -> int:
    runner = ChildRunner()

    def run_child(request: dict[str, Any]) -> dict[str, Any]:
        out = runner(request)
        if "error" in out:
            raise RuntimeError(f"reference run failed: {out['error']}")
        return out

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="golden-", dir=WORK))
    GOLDEN.mkdir(exist_ok=True)
    written: dict[str, dict[str, Any]] = {}
    try:
        # Workloads with their own reference come first in WORKLOADS.
        for workload in workloads.WORKLOADS:
            if workload.reference and not workload.eco:
                continue
            golden: dict[str, Any] = {"workload": workload.name,
                                      "spec": workload.spec, "seed": 0}
            if workload.reference:
                golden["reference"] = workload.reference
            prepared = workloads.prepare(workload, 0, workdir / workload.name,
                                         run_child)
            if workload.eco:
                # The reference of an edit is a fresh full run of the
                # edited netlist, not the incremental path under test.
                # Only an edit that changes the digest stores its own.
                base = written[workload.reference]
                golden["edits"] = {}
                for index, edit in enumerate(prepared.edits):
                    out = run_child({"bench": str(prepared.rep_bench(index)),
                                     "options": prepared.options})
                    entry = {"from": edit["from"], "to": edit["to"]}
                    if out["verdicts"] != base:
                        entry["verdicts"] = out["verdicts"]
                    golden["edits"][edit["gate"]] = entry
            else:
                out = run_child({"bench": str(prepared.bench),
                                 "options": prepared.options})
                golden.update(out["verdicts"])
                written[workload.name] = out["verdicts"]
            path = golden_path(workload.name)
            path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
            log(f"wrote {path}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=[w.name for w in workloads.WORKLOADS],
                      help="run one workload for about --seconds")
    mode.add_argument("--out", metavar="FILE",
                      help="run --repeat rounds of every workload; write FILE")
    mode.add_argument("--write-golden", action="store_true",
                      help="regenerate golden/<workload>-seed0.json")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="--workload mode: report per-layer metrics of a "
                             "traced run instead of the end-to-end ones")
    parser.add_argument("--repeat", type=int, default=10,
                        help="--out mode: rounds")
    parser.add_argument("--check", action="store_true",
                        help="--out mode: add the SAT sample and identity checks")
    args = parser.parse_args(argv)
    if args.check and not args.out:
        parser.error("--check needs --out")

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    for name in THREAD_ENV:
        os.environ[name] = "1"
    sys.path.insert(0, str(SRC))
    if args.write_golden:
        return write_golden()
    if args.out:
        return full_main(args)
    return workload_main(args)


if __name__ == "__main__":
    raise SystemExit(main())
