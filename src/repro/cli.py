"""Command-line interface: ``python -m repro <command>`` or ``repro-mcp``.

Commands
--------
analyze FILE            detect multi-cycle FF pairs (``.bench`` or ``.v``)
lint FILES...           collect all structural findings (exit 1 on errors)
sweep FILE              constant/duplicate/dead-logic report (+ rewrite)
hazard FILE             detection + static hazard validation
kcycle FILE             k-cycle pair detection for k = 2..max
extended FILE           Condition-2 (observability) extension
equiv GOLDEN REVISED    SAT-miter equivalence of two netlists
table1 / table2 / table3
                        regenerate the paper's tables on the suite
generate DIR            write the synthetic benchmark suite as .bench files
sta FILE                timing relaxation unlocked by multi-cycle pairs
sdc FILE                emit SDC timing exceptions (multicycle/false path)
cache stats|clear       inspect or clear the on-disk artifact store

``--cache-dir DIR`` (or ``REPRO_CACHE_DIR``) activates the on-disk
artifact store: derived artifacts persist across runs and ``analyze
--incremental-from OLD.bench`` re-decides only the FF pairs whose
launch/capture cones an ECO actually changed.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import ExitStack, contextmanager
from pathlib import Path

from repro.analysis.lint import LINT_MODES
from repro.circuit.bench import dump, load as load_bench
from repro.core.deciders import available_engines
from repro.core.detector import DetectorOptions, detect_multi_cycle_pairs
from repro.core.pipeline import BACKPLANE_MODES, HAZARD_MODES
from repro.core.result import (
    DetectionResult,
    HazardVerdictKind,
    Stage,
    metric_items,
)
from repro.core.trace import open_trace


def load(path: str):
    """Load a netlist by extension: ``.v`` Verilog, otherwise ``.bench``."""
    if str(path).endswith(".v"):
        from repro.circuit import verilog

        return verilog.load(path)
    return load_bench(path)


def _int_at_least(minimum: int):
    """An argparse ``type``: an int of at least ``minimum``, else exit 2."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    parse.__name__ = "int"  # argparse's message: "invalid int value: 'x'"
    return parse


def _positive_float(text: str) -> float:
    """An argparse ``type``: a positive finite float, else exit 2."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"must be a positive finite number, got {text}"
        )
    return value


_positive_float.__name__ = "float"  # argparse's message: "invalid float value: 'x'"


def _run_options(args: argparse.Namespace) -> dict:
    """The options of :func:`_add_run_args`, by ``DetectorOptions`` field."""
    return dict(
        backtrack_limit=args.backtrack_limit,
        lint=args.lint,
        include_self_loops=not args.no_self_loops,
        sim_seed=args.seed,
        sim_words=args.sim_words,
        workers=args.workers,
        backplane=args.backplane,
    )


def _detector_options(args: argparse.Namespace) -> DetectorOptions:
    return DetectorOptions(
        **_run_options(args),
        static_learning=args.static_learning,
        implication_db=args.implication_db,
        search_engine=args.engine,
        hazard_check=args.hazard_check,
        hazard_delays=args.hazard_delays,
        hazard_conflict_limit=args.hazard_conflict_limit,
        cache_dir=args.cache_dir,
        cache_max_bytes=args.cache_max_bytes,
    )


class TraceFileError(Exception):
    """The ``--trace`` file cannot be opened for writing."""


@contextmanager
def _tracer_for(args: argparse.Namespace):
    """Yield a JSONL tracer when ``--trace FILE`` was given, else None.

    A file that cannot be opened raises :class:`TraceFileError` before
    the caller's analysis starts.
    """
    if not args.trace:
        yield None
        return
    with ExitStack() as stack:
        try:
            tracer = stack.enter_context(open_trace(args.trace))
        except OSError as exc:
            raise TraceFileError(
                f"cannot write trace file {args.trace} "
                f"({exc.strerror or exc})"
            ) from None
        yield tracer


def _add_run_args(parser: argparse.ArgumentParser) -> None:
    """The flags of every detecting subcommand; kcycle takes only these."""
    parser.add_argument("--backtrack-limit", type=_int_at_least(0),
                        default=50,
                        help="ATPG backtrack limit (paper default: 50)")
    parser.add_argument("--lint", default="off", choices=LINT_MODES,
                        help="structural lint gate before the run: off = "
                             "classic first-error validation, warn = full "
                             "lint rejecting errors, strict = rejecting "
                             "warnings too (verdicts of accepted circuits "
                             "are identical; default: off)")
    parser.add_argument("--no-self-loops", action="store_true",
                        help="skip (FF, FF) self pairs, as [9] did")
    parser.add_argument("--seed", type=int, default=2002,
                        help="random-simulation seed (default: 2002)")
    parser.add_argument("--sim-words", type=_int_at_least(1), default=4,
                        help="64-bit words per simulation round (default: 4)")
    parser.add_argument("--workers", type=_int_at_least(1), default=1,
                        help="worker processes for the decision stage "
                             "(default: 1 = serial)")
    parser.add_argument("--backplane", default="auto",
                        choices=BACKPLANE_MODES,
                        help="zero-copy shared-memory backplane for the "
                             "worker pool: auto = the parent publishes the "
                             "expansion and derived numpy artifacts once "
                             "whenever workers spawn, and workers attach "
                             "instead of rebuilding; off = workers get "
                             "pickled copies; verdicts and pair records "
                             "are identical in both modes (default: auto)")
    parser.add_argument("--trace", metavar="FILE", default=None,
                        help="write per-stage/per-pair JSONL trace events "
                             "to FILE")


def _add_detector_args(parser: argparse.ArgumentParser) -> None:
    """The run flags plus the engine, learning, hazard and store flags."""
    _add_run_args(parser)
    parser.add_argument("--engine", default="dalg",
                        choices=available_engines(),
                        help="pair-decision engine (default: dalg, the "
                             "paper's implication+ATPG flow)")
    parser.add_argument("--static-learning", action="store_true",
                        help="pre-compute SOCRATES-style global implications")
    parser.add_argument("--implication-db", action="store_true",
                        help="use the compiled global implication database "
                             "(transitively closed, built once per netlist) "
                             "as the deciders' learned table; takes "
                             "precedence over --static-learning")
    parser.add_argument("--hazard-check", default="off",
                        choices=HAZARD_MODES,
                        help="validate detected multi-cycle pairs against "
                             "static hazards (Section 5): exact = both "
                             "static bounds plus the SAT-backed three-way "
                             "classification (safe / glitch-possible / "
                             "glitch-proven); flagged pairs are reported, "
                             "classifications are unchanged (default: off)")
    parser.add_argument("--hazard-delays", metavar="FILE", default=None,
                        help="exact mode only: per-gate min/max delay "
                             "sidecar JSON; glitch-proven verdicts whose "
                             "witness pulse cannot form under the given "
                             "intervals are re-marked delay-safe")
    parser.add_argument("--hazard-conflict-limit", type=int,
                        default=100_000,
                        help="exact mode only: SAT conflict budget per "
                             "pair before the verdict degrades to "
                             "glitch-possible (default: 100000)")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="content-addressed on-disk artifact store: "
                             "derived artifacts (simulation plans, reach "
                             "matrices, implication DB, pair records) "
                             "persist here across runs and processes "
                             "(default: $REPRO_CACHE_DIR, else disabled; "
                             "verdicts are identical either way)")
    parser.add_argument("--cache-max-bytes", type=_int_at_least(1),
                        default=1 << 30,
                        help="artifact-store size bound; least-recently-"
                             "used entries are evicted beyond it "
                             "(default: 1 GiB)")


def _run_incremental(circuit, options, prior_path, tracer):
    """ECO re-analysis: inherit decide verdicts from a prior run's bundle.

    The prior netlist's pair-record bundle is looked up in the artifact
    store; a missing store or bundle degrades to a full re-decide (with
    a warning) — the merged records are byte-identical either way.
    """
    from repro.core.incremental import incremental_detect, load_result_bundle
    from repro.store.runtime import resolve_cache_dir, store_enabled

    cache_dir = resolve_cache_dir(options.cache_dir)
    bundle = None
    if cache_dir is None:
        print("warning: --incremental-from needs --cache-dir or "
              "REPRO_CACHE_DIR; re-deciding every pair", file=sys.stderr)
    else:
        prior_circuit = load(prior_path)
        with store_enabled(cache_dir, options.cache_max_bytes) as store:
            if store is not None:
                corrupt = store.corrupt
                bundle = load_result_bundle(store, prior_circuit, options)
        # An unusable store has already said so in its own warning.
        if bundle is None and store is not None:
            if store.corrupt > corrupt:
                print(f"warning: the cached pair records for {prior_path} "
                      f"were unreadable and were removed; re-deciding "
                      f"every pair", file=sys.stderr)
            else:
                print(f"warning: no cached pair records for {prior_path} "
                      f"under these options; re-deciding every pair",
                      file=sys.stderr)
    return incremental_detect(circuit, options, bundle, tracer=tracer)


def cmd_analyze(args: argparse.Namespace) -> int:
    """Detect and summarise multi-cycle FF pairs of one netlist."""
    circuit = load(args.file)
    options = _detector_options(args)
    with _tracer_for(args) as tracer:
        if args.incremental_from:
            result = _run_incremental(
                circuit, options, args.incremental_from, tracer
            )
        else:
            result = detect_multi_cycle_pairs(circuit, options, tracer=tracer)
    stats = circuit.stats()
    print(f"{circuit.name}: {stats['inputs']} inputs, {stats['dffs']} FFs, "
          f"{stats['gates']} gates")
    print(f"engine:             {result.engine}")
    print(f"connected FF pairs: {result.connected_pairs}")
    print(f"multi-cycle pairs:  {len(result.multi_cycle_pairs)}")
    print(f"undecided pairs:    {len(result.undecided_pairs)}")
    print(f"CPU seconds:        {result.total_seconds:.2f}")
    for stage in Stage:
        s = result.stats[stage]
        print(f"  {stage.value:12s} single={s.single_cycle:6d} "
              f"multi={s.multi_cycle:6d} cpu={s.cpu_seconds:.2f}s")
    for name, block in result.metrics.items():
        print(_metrics_line(name, block))
    if result.hazard_mode != "off":
        print(f"hazard check:       {result.hazard_mode}: "
              f"{result.hazard_checked} checked, "
              f"{result.hazard_flagged} flagged, "
              f"{len(result.hazard_verified_pairs)} verified")
        _print_verdict_counts(result)
        for pair in result.hazard_flagged_pairs:
            print(f"  hazard-flagged {circuit.names[pair.source]} -> "
                  f"{circuit.names[pair.sink]}")
    for disagreement in result.disagreements:
        source, sink = (circuit.names[disagreement.pair.source],
                        circuit.names[disagreement.pair.sink])
        print(f"  DISAGREEMENT {source} -> {sink}: "
              f"{disagreement.primary_engine}={disagreement.primary.value} "
              f"{disagreement.secondary_engine}={disagreement.secondary.value}")
    if args.list_pairs:
        for source, sink in result.multi_cycle_pair_names():
            print(f"  multicycle {source} -> {sink}")
    return 1 if result.disagreements else 0


def _metrics_line(name: str, block: dict) -> str:
    """One ``metrics`` block as a summary line.

    ``cache`` prints as ``cache:``, padded to the summary's value
    column, then ``0 hits, 3 misses, ...``: each key after its value,
    formatted by :func:`~repro.core.result.metric_items`; ``_`` in the
    block name becomes a space.
    """
    label = name.replace("_", " ") + ":"
    body = ", ".join(f"{value} {key}" for key, value in metric_items(block))
    return f"{label:20s}{body}"


def cmd_lint(args: argparse.Namespace) -> int:
    """Lint netlist files; exit 1 when the chosen policy rejects any.

    Collects *every* structural finding per file (parse errors included)
    instead of stopping at the first.  ``--strict`` also fails on
    warnings; infos never fail.
    """
    from repro.analysis import lint_file

    exit_code = 0
    for path in args.files:
        report = lint_file(path)
        if not report.diagnostics:
            if not args.quiet:
                print(f"{path}: clean")
            continue
        print(report.format())
        if not report.ok(strict=args.strict):
            exit_code = 1
    return exit_code


def cmd_sweep(args: argparse.Namespace) -> int:
    """Constant/duplicate/dead-logic sweep report; optional rewrite.

    Prints the annotate-only report; with ``-o`` the simplified circuit
    (constants folded, duplicates merged, dead gates dropped, PI/PO/DFF
    interface preserved) is written as ``.bench``.
    """
    from repro.analysis import simplified, sweep

    circuit = load(args.file)
    report = sweep(circuit)
    print(report.format())
    if args.out:
        swept = simplified(circuit)
        dump(swept, args.out)
        removed = circuit.num_nodes - swept.num_nodes
        print(f"wrote {args.out} ({removed} node(s) removed)")
    return 0


def _print_verdict_counts(result: DetectionResult) -> None:
    """The ``hazard verdicts:`` line: three-way counts plus delay-safe."""
    kinds = {"safe": 0, "glitch-possible": 0, "glitch-proven": 0}
    for verdict in result.hazard_verdicts:
        kinds[verdict.verdict.value] += 1
    delay_safe = sum(1 for v in result.hazard_verdicts if v.delay_safe)
    line = (f"hazard verdicts:    {kinds['safe']} safe, "
            f"{kinds['glitch-possible']} glitch-possible, "
            f"{kinds['glitch-proven']} glitch-proven")
    if delay_safe:
        line += f" ({delay_safe} delay-safe)"
    print(line)


def cmd_hazard(args: argparse.Namespace) -> int:
    """Detection plus Section-5 hazard validation on the mapped netlist.

    One detection with the exact hazard pass; every section is a count
    over its verdicts, so the run's hazard options shape all of them.
    """
    from dataclasses import replace

    from repro.circuit.techmap import techmap

    circuit = techmap(load(args.file))
    options = replace(_detector_options(args), hazard_check="exact")
    with _tracer_for(args) as tracer:
        result = detect_multi_cycle_pairs(circuit, options, tracer=tracer)
    verdicts = result.hazard_verdicts
    before = len(verdicts)
    print(f"multi-cycle pairs before hazard checking: {before}")
    for label, flagged in (
        ("sensitize", sum(1 for v in verdicts if v.sensitize_flagged)),
        ("exact", result.hazard_flagged),
        ("co-sensitize", sum(1 for v in verdicts if v.cosensitize_flagged)),
    ):
        print(f"after {label:13s}: {before - flagged} kept, {flagged} flagged")
    print("classification (Section 5.2/5.3):")
    for key in ("safe", "dependent", "hazardous"):
        count = sum(1 for v in verdicts if v.bound_class == key)
        print(f"  {key:10s}: {count}")
    _print_verdict_counts(result)
    for verdict in verdicts:
        if verdict.verdict is HazardVerdictKind.SAFE:
            continue
        line = (f"  {verdict.verdict.value} "
                f"{circuit.names[verdict.pair.source]} -> "
                f"{circuit.names[verdict.pair.sink]} "
                f"(by {verdict.decided_by})")
        if verdict.delay_safe:
            line += " delay-safe"
        print(line)
    exact = result.metrics["hazard_exact"]
    print(f"resolution fraction: {exact['resolution_fraction']:.2f} "
          f"over {exact['disagreement']} bound disagreement(s)")
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    """Regenerate one of the paper's tables on the benchmark suite."""
    from repro.bench_gen.suite import suite
    from repro.reporting.tables import run_table1, run_table2, run_table3

    circuits = suite(args.profile)
    if args.table == "table1":
        options = DetectorOptions(search_engine=args.engine,
                                  workers=args.workers)
        table, _ = run_table1(circuits, options, sat_mode=args.sat_mode,
                              run_sat=not args.no_sat)
    elif args.table == "table2":
        table = run_table2(circuits)
    else:
        table = run_table3(circuits)
    print(table.format())
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    """Write the synthetic benchmark suite as .bench files."""
    from repro.bench_gen.suite import suite

    out_dir = Path(args.dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for circuit in suite(args.profile):
        path = out_dir / f"{circuit.name}.bench"
        dump(circuit, path)
        print(f"wrote {path}")
    return 0


def cmd_kcycle(args: argparse.Namespace) -> int:
    """k-cycle pair detection for k = 2..max_k."""
    from repro.core.kcycle import KCycleDetector

    circuit = load(args.file)
    options = DetectorOptions(**_run_options(args))
    with _tracer_for(args) as tracer:
        for k in range(2, args.max_k + 1):
            result = KCycleDetector(circuit, k, options, tracer=tracer).run()
            print(f"k={k}: {len(result.k_cycle_pairs)} of "
                  f"{result.connected_pairs} pairs are {k}-cycle "
                  f"({result.total_seconds:.2f}s)")
            if args.list_pairs:
                for source, sink in result.k_cycle_pair_names():
                    print(f"  {source} -> {sink}")
    return 0


def cmd_extended(args: argparse.Namespace) -> int:
    """Condition-2 (observability-based) extension pass."""
    from repro.core.extended import condition2_extension

    circuit = load(args.file)
    with _tracer_for(args) as tracer:
        detection = detect_multi_cycle_pairs(
            circuit, _detector_options(args), tracer=tracer
        )
        extended = condition2_extension(circuit, detection, tracer=tracer)
    print(f"MC-condition multi-cycle pairs: {len(detection.multi_cycle_pairs)}")
    print(f"Condition-2 upgraded pairs:     {len(extended.upgraded_pairs)}")
    print(f"total multi-cycle pairs:        {extended.total_multi_cycle}")
    for source, sink in extended.upgraded_pair_names():
        print(f"  upgraded {source} -> {sink}")
    return 0


def cmd_equiv(args: argparse.Namespace) -> int:
    """SAT-miter equivalence of two netlists; exit 1 on mismatch."""
    from repro.sat.equivalence import check_sequential_equivalence_1step

    golden = load(args.golden)
    revised = load(args.revised)
    result = check_sequential_equivalence_1step(golden, revised)
    if result.equivalent:
        print("EQUIVALENT (outputs and next-state functions match)")
        return 0
    print(f"NOT equivalent: first difference at {result.differing_signal}")
    if result.counterexample:
        assignment = " ".join(
            f"{name}={value}"
            for name, value in sorted(result.counterexample.items())
        )
        print(f"counterexample: {assignment}")
    return 1


def cmd_stats(args: argparse.Namespace) -> int:
    """Structural statistics of a netlist."""
    from repro.circuit.stats import compute_stats, format_stats

    print(format_stats(compute_stats(load(args.file))))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Run every experiment and write one markdown report."""
    from repro.bench_gen.suite import suite
    from repro.reporting.summary import generate_report

    circuits = suite(args.profile)
    text = generate_report(circuits, sat_mode=args.sat_mode,
                           run_sat=not args.no_sat)
    Path(args.out).write_text(text)
    print(f"wrote {args.out}")
    return 0


def cmd_sta(args: argparse.Namespace) -> int:
    """Timing relaxation unlocked by the detected multi-cycle pairs."""
    from repro.sta.constraints import relaxation_report
    from repro.sta.report import format_slack_table, worst_slack_table

    circuit = load(args.file)
    with _tracer_for(args) as tracer:
        detection = detect_multi_cycle_pairs(
            circuit, _detector_options(args), tracer=tracer
        )
    report = relaxation_report(circuit, detection)
    print(f"FF-to-FF paths analysed:     {len(report.pair_timings)}")
    print(f"min period (all 1-cycle):    {report.min_period_baseline:.2f}")
    print(f"min period (MC relaxed):     {report.min_period_relaxed:.2f}")
    print(f"clock speedup:               {report.speedup:.2f}x")
    if args.period is not None:
        lines = worst_slack_table(circuit, detection, args.period,
                                  limit=args.worst)
        print()
        print(format_slack_table(lines, args.period))
    return 0


def cmd_sdc(args: argparse.Namespace) -> int:
    """Emit SDC timing exceptions for detected multi-cycle pairs.

    ``set_multicycle_path -setup k`` for proven multi-cycle pairs,
    ``set_false_path`` for pairs whose implication cases all
    contradicted; with ``--hazard-check`` active, flagged pairs are
    emitted commented-out (relaxing them would be unsafe).
    """
    from repro.sta.constraints import (
        constraints_json,
        format_sdc,
        sdc_constraints,
    )

    circuit = load(args.file)
    with _tracer_for(args) as tracer:
        result = detect_multi_cycle_pairs(
            circuit, _detector_options(args), tracer=tracer
        )
    constraints = sdc_constraints(result, args.multi_cycle_budget)
    text = format_sdc(result, args.multi_cycle_budget, constraints)
    gated = sum(1 for c in constraints if not c.safe)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out} ({len(constraints)} constraint(s), "
              f"{gated} hazard-gated)")
    else:
        print(text, end="")
    if args.json:
        Path(args.json).write_text(
            constraints_json(result, args.multi_cycle_budget, constraints)
        )
        print(f"wrote {args.json}")
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    """Inspect or clear the on-disk artifact store.

    ``cache stats`` prints per-kind entry counts and byte usage plus the
    store's lifetime layout; ``cache clear`` removes every entry.  The
    directory comes from ``--cache-dir`` or ``REPRO_CACHE_DIR``.
    """
    from repro.store.artifact_store import ArtifactStore
    from repro.store.runtime import resolve_cache_dir

    cache_dir = resolve_cache_dir(args.cache_dir)
    if cache_dir is None:
        print("error: cache needs --cache-dir or REPRO_CACHE_DIR",
              file=sys.stderr)
        return 2
    try:
        store = ArtifactStore(cache_dir, max_bytes=args.cache_max_bytes)
    except OSError as exc:
        print(f"error: cache directory {cache_dir} is unusable ({exc})",
              file=sys.stderr)
        return 2
    if args.action == "clear":
        removed, freed = store.clear()
        print(f"{cache_dir}: removed {removed} entries, freed {freed} bytes")
        return 0
    usage = store.usage()
    total_entries = sum(row["entries"] for row in usage.values())
    total_bytes = sum(row["bytes"] for row in usage.values())
    print(f"{cache_dir}: {total_entries} entries, {total_bytes} bytes "
          f"(bound {store.max_bytes})")
    for kind in sorted(usage):
        row = usage[kind]
        print(f"  {kind:18s} {row['entries']:6d} entries "
              f"{row['bytes']:12d} bytes")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command-line parser."""
    parser = argparse.ArgumentParser(
        prog="repro-mcp",
        description="Implication-based multi-cycle path detection "
                    "(reproduction of Higuchi, DAC 2002)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="detect multi-cycle FF pairs")
    p.add_argument("file", help=".bench netlist")
    p.add_argument("--list-pairs", action="store_true")
    p.add_argument("--incremental-from", metavar="PRIOR", default=None,
                   help="prior netlist whose cached pair records (from "
                        "the artifact store; needs --cache-dir or "
                        "REPRO_CACHE_DIR) seed incremental ECO "
                        "re-analysis: only pairs whose launch/capture "
                        "cones changed are re-decided, results are "
                        "byte-identical to a full run")
    _add_detector_args(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("lint", help="collect all structural findings of "
                                    "netlist files")
    p.add_argument("files", nargs="+", help=".bench or .v netlists")
    p.add_argument("--strict", action="store_true",
                   help="exit 1 on warnings as well as errors")
    p.add_argument("--quiet", action="store_true",
                   help="print nothing for clean files")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser("sweep", help="constant/duplicate/dead-logic sweep "
                                     "report")
    p.add_argument("file", help=".bench or .v netlist")
    p.add_argument("-o", "--out", default=None,
                   help="also write the simplified circuit to this .bench "
                        "file")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("hazard", help="detection + static hazard checks")
    p.add_argument("file", help=".bench netlist")
    _add_detector_args(p)
    p.set_defaults(func=cmd_hazard)

    for name in ("table1", "table2", "table3"):
        p = sub.add_parser(name, help=f"regenerate the paper's {name}")
        p.add_argument("--profile", default="small",
                       choices=("tiny", "small", "medium", "large", "full"))
        if name == "table1":
            p.add_argument("--sat-mode", default="per-pair",
                           choices=("per-pair", "incremental"))
            p.add_argument("--no-sat", action="store_true",
                           help="skip the SAT baseline column")
            p.add_argument("--engine", default="dalg",
                           choices=available_engines(),
                           help="decision engine for the 'ours' column")
            p.add_argument("--workers", type=_int_at_least(1), default=1,
                           help="worker processes for the decision stage")
        p.set_defaults(func=cmd_table, table=name)

    p = sub.add_parser("generate", help="write suite circuits as .bench")
    p.add_argument("dir")
    p.add_argument("--profile", default="small",
                   choices=("tiny", "small", "medium", "large", "full"))
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("sta", help="timing relaxation report")
    p.add_argument("file", help=".bench netlist")
    p.add_argument("--period", type=_positive_float, default=None,
                   help="also print the worst-slack table at this period")
    p.add_argument("--worst", type=_int_at_least(1), default=10,
                   help="rows in the slack table (default 10)")
    _add_detector_args(p)
    p.set_defaults(func=cmd_sta)

    p = sub.add_parser("sdc", help="emit SDC timing exceptions "
                                   "(set_multicycle_path / set_false_path)")
    p.add_argument("file", help=".bench netlist")
    p.add_argument("-o", "--out", default=None,
                   help="write the SDC text here instead of stdout")
    p.add_argument("--json", metavar="FILE", default=None,
                   help="also write the JSON interchange form")
    p.add_argument("--multi-cycle-budget", type=_int_at_least(2), default=2,
                   help="setup multiplier for relaxed pairs (default: 2, "
                        "what the MC condition guarantees)")
    _add_detector_args(p)
    p.set_defaults(func=cmd_sdc)

    p = sub.add_parser("kcycle", help="k-cycle pair detection (k = 2..max)")
    p.add_argument("file", help=".bench netlist")
    p.add_argument("--max-k", type=_int_at_least(2), default=4,
                   help="largest k to check (default: 4)")
    p.add_argument("--list-pairs", action="store_true")
    _add_run_args(p)
    p.set_defaults(func=cmd_kcycle)

    p = sub.add_parser("extended",
                       help="Condition-2 extension (observability based)")
    p.add_argument("file", help=".bench netlist")
    _add_detector_args(p)
    p.set_defaults(func=cmd_extended)

    p = sub.add_parser("equiv", help="SAT miter equivalence of two netlists")
    p.add_argument("golden", help="reference .bench netlist")
    p.add_argument("revised", help="netlist to compare against the reference")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("cache", help="inspect or clear the on-disk "
                                     "artifact store")
    p.add_argument("action", choices=("stats", "clear"),
                   help="stats = per-kind entry/byte usage; clear = "
                        "remove every entry")
    p.add_argument("--cache-dir", metavar="DIR", default=None,
                   help="store directory (default: $REPRO_CACHE_DIR)")
    p.add_argument("--cache-max-bytes", type=_int_at_least(1),
                   default=1 << 30,
                   help="size bound used when touching the store "
                        "(default: 1 GiB)")
    p.set_defaults(func=cmd_cache)

    p = sub.add_parser("stats", help="structural statistics of a netlist")
    p.add_argument("file", help=".bench or .v netlist")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("report",
                       help="run every experiment, write a markdown report")
    p.add_argument("out", help="output markdown file")
    p.add_argument("--profile", default="tiny",
                   choices=("tiny", "small", "medium", "large", "full"))
    p.add_argument("--sat-mode", default="per-pair",
                   choices=("per-pair", "incremental"))
    p.add_argument("--no-sat", action="store_true")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Netlist problems (malformed files, lint rejections), bad
    ``--hazard-delays`` sidecars and ``--trace`` files that cannot be
    written exit with code 2 and a one-line ``error:`` message carrying
    the file (and, for netlists, line) context — they are user errors,
    not crashes.
    """
    from repro.circuit.netlist import CircuitError
    from repro.sta.delays import DelaySidecarError

    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CircuitError, DelaySidecarError, TraceFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
