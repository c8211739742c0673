"""SCOAP measures: textbook values and guidance invariance."""

from repro.circuit.builder import CircuitBuilder
from repro.atpg.scoap import compute_scoap, make_choice_sorter, scoap_report


def _build(fn):
    builder = CircuitBuilder("t")
    fn(builder)
    return builder.build()


def test_primary_input_costs():
    circuit = _build(lambda b: b.output("o", b.buf(b.input("a"), name="g")))
    scoap = compute_scoap(circuit)
    a = circuit.id_of("a")
    assert scoap.cc0[a] == scoap.cc1[a] == 1


def test_and_gate_textbook_values():
    def build(b):
        b.output("o", b.and_(b.input("a"), b.input("b"), name="g"))

    circuit = _build(build)
    scoap = compute_scoap(circuit)
    g = circuit.id_of("g")
    assert scoap.cc1[g] == 3   # both inputs to 1: 1 + 1 + 1
    assert scoap.cc0[g] == 2   # one input to 0: 1 + 1


def test_nor_gate_swaps():
    def build(b):
        b.output("o", b.nor(b.input("a"), b.input("b"), name="g"))

    circuit = _build(build)
    scoap = compute_scoap(circuit)
    g = circuit.id_of("g")
    assert scoap.cc1[g] == 3   # all inputs 0
    assert scoap.cc0[g] == 2   # any input 1


def test_xor_parity_costs():
    def build(b):
        b.output("o", b.xor(b.input("a"), b.input("b"), name="g"))

    circuit = _build(build)
    scoap = compute_scoap(circuit)
    g = circuit.id_of("g")
    assert scoap.cc0[g] == 3 and scoap.cc1[g] == 3


def test_constant_nodes():
    def build(b):
        one = b.const1("one")
        b.output("o", b.buf(one, name="g"))

    circuit = _build(build)
    scoap = compute_scoap(circuit)
    one = circuit.id_of("one")
    assert scoap.cc1[one] == 0
    assert scoap.cc0[one] >= 10 ** 9  # impossible


def test_deep_chain_costs_grow():
    def build(b):
        node = b.input("a")
        for i in range(5):
            node = b.buf(node, name=f"b{i}")
        b.output("o", node)

    circuit = _build(build)
    scoap = compute_scoap(circuit)
    assert scoap.cc1[circuit.id_of("b4")] == 6  # 1 + 5 buffers


def test_observability_po_is_cheap():
    def build(b):
        a = b.input("a")
        c = b.input("c")
        g = b.and_(a, c, name="g")
        b.output("o", g)

    circuit = _build(build)
    scoap = compute_scoap(circuit)
    a = circuit.id_of("a")
    # Observing a through the AND needs c = 1: co(g)+cc1(c)+1.
    assert scoap.co[a] == scoap.co[circuit.id_of("g")] + 1 + 1


def test_choice_sorter_prefers_cheap():
    def build(b):
        easy = b.input("easy")
        hard = b.and_(b.input("x"), b.input("y"), b.input("z"), name="hard")
        b.output("o", b.or_(easy, hard, name="g"))

    circuit = _build(build)
    scoap = compute_scoap(circuit)
    sorter = make_choice_sorter(scoap)
    easy, hard = circuit.id_of("easy"), circuit.id_of("hard")
    ordered = sorter([(hard, 1), (easy, 1)])
    assert ordered[0][0] == easy


def test_guidance_never_changes_verdicts(fig1, pipeline):
    from repro.core.detector import DetectorOptions, detect_multi_cycle_pairs

    for circuit in (fig1, pipeline):
        plain = detect_multi_cycle_pairs(
            circuit, DetectorOptions(use_random_sim=False)
        )
        guided = detect_multi_cycle_pairs(
            circuit, DetectorOptions(use_random_sim=False, search_engine="scoap")
        )
        assert plain.multi_cycle_pair_names() == guided.multi_cycle_pair_names()


def test_report_lists_hard_nodes(fig1):
    text = scoap_report(fig1)
    assert "CC0" in text and "CC1" in text
    assert len(text.splitlines()) > 3
