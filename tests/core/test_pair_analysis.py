"""Case-level behaviour of the implication+ATPG pair analyser oracle."""

import pytest

from repro.circuit.timeframe import expand
from repro.circuit.topology import FFPair
from repro.core.result import CaseOutcome, Classification, Stage

from tests.core.pair_analysis import PairAnalyzer


def test_fig1_ff1_ff2_settled_by_implication(fig1):
    """The paper's Fig. 2 pair: every case closes without search."""
    analyzer = PairAnalyzer(expand(fig1, 2))
    pair = FFPair(fig1.id_of("FF1"), fig1.id_of("FF2"))
    result = analyzer.analyze(pair)
    assert result.classification is Classification.MULTI_CYCLE
    assert result.stage is Stage.IMPLICATION
    assert len(result.cases) == 4
    for case in result.cases:
        assert case.outcome in (
            CaseOutcome.IMPLIED_STABLE, CaseOutcome.CONTRADICTION
        )


def test_fig1_case_00_is_implied_stable(fig1):
    """(FF1(t), FF2(t+1)) = (0, 0) is the exact Fig. 2 scenario."""
    analyzer = PairAnalyzer(expand(fig1, 2))
    pair = FFPair(fig1.id_of("FF1"), fig1.id_of("FF2"))
    result = analyzer.analyze(pair)
    case = next(c for c in result.cases if (c.a, c.b) == (0, 0))
    assert case.outcome is CaseOutcome.IMPLIED_STABLE


def test_shift_register_pair_violates(shift4):
    analyzer = PairAnalyzer(expand(shift4, 2))
    pair = FFPair(shift4.id_of("s0"), shift4.id_of("s1"))
    result = analyzer.analyze(pair)
    assert result.classification is Classification.SINGLE_CYCLE
    violated = [c for c in result.cases if c.outcome is CaseOutcome.VIOLATED]
    assert violated and violated[-1].witness is not None


def test_self_loop_hold_register_is_multi_cycle():
    """A never-toggling FF (D = Q) is vacuously multi-cycle: the premise
    FF(t) != FF(t+1) contradicts immediately in all four cases."""
    from repro.circuit.builder import CircuitBuilder

    builder = CircuitBuilder("hold")
    ff = builder.dff("ff")
    builder.drive(ff, ff)
    builder.output("o", ff)
    circuit = builder.build()
    analyzer = PairAnalyzer(expand(circuit, 2))
    result = analyzer.analyze(FFPair(ff, ff))
    assert result.classification is Classification.MULTI_CYCLE
    assert all(c.outcome is CaseOutcome.CONTRADICTION for c in result.cases)


def test_toggle_self_loop_is_single_cycle():
    """D = NOT(Q): the FF toggles every cycle; the pair (ff, ff) violates
    the MC condition on every transition."""
    from repro.circuit.builder import CircuitBuilder

    builder = CircuitBuilder("tgl")
    ff = builder.dff("ff")
    builder.drive(ff, builder.not_(ff, name="n"))
    builder.output("o", ff)
    circuit = builder.build()
    analyzer = PairAnalyzer(expand(circuit, 2))
    result = analyzer.analyze(FFPair(ff, ff))
    assert result.classification is Classification.SINGLE_CYCLE


def test_engine_state_clean_between_pairs(fig1):
    """Analysing many pairs on the shared engine must not leak state."""
    analyzer = PairAnalyzer(expand(fig1, 2))
    pair = FFPair(fig1.id_of("FF1"), fig1.id_of("FF2"))
    first = analyzer.analyze(pair)
    for _ in range(3):
        analyzer.analyze(FFPair(fig1.id_of("FF3"), fig1.id_of("FF2")))
    again = analyzer.analyze(pair)
    assert first.classification == again.classification
    assert [c.outcome for c in first.cases] == [c.outcome for c in again.cases]


def test_requires_two_frames(fig1):
    with pytest.raises(ValueError):
        PairAnalyzer(expand(fig1, 1))


def test_undecided_with_zero_backtracks():
    """A pair needing search aborts cleanly at backtrack limit 0."""
    from repro.circuit.builder import CircuitBuilder

    # Build a circuit where the violation search needs a real decision:
    # reconvergent XOR structure in the next-state logic.
    builder = CircuitBuilder("hard")
    a = builder.input("a")
    b = builder.input("b")
    ff1 = builder.dff("ff1")
    ff2 = builder.dff("ff2")
    x1 = builder.xor(a, b, name="x1")
    x2 = builder.xor(x1, ff1, name="x2")
    builder.drive(ff1, x2)
    builder.drive(ff2, builder.xor(x2, a, name="x3"))
    builder.output("o", ff2)
    circuit = builder.build()
    analyzer = PairAnalyzer(expand(circuit, 2), backtrack_limit=0)
    result = analyzer.analyze(FFPair(ff1, ff2))
    # With no backtracks allowed the verdict may be UNDECIDED or (if the
    # first descent already finds a pattern) SINGLE_CYCLE; never MULTI.
    assert result.classification in (
        Classification.UNDECIDED, Classification.SINGLE_CYCLE
    )
