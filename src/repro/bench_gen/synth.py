"""Synthetic ISCAS89-like sequential circuit generator.

One :class:`CircuitSpec` describes a design in the style the paper's
benchmarks exhibit: a control part (free-running counter + decoded
load enables) steering a datapath of register banks joined by random logic
clouds, plus always-loading pipeline registers and primary outputs.

Multi-cycle FF pairs arise between banks whose decoded load states are more
than one counter step apart (exactly the paper's Fig. 1 mechanism scaled
up); single-cycle pairs come from the always-loading registers, the counter
itself and adjacent-state banks.  Generation is deterministic per
``(spec, seed)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.circuit.builder import CircuitBuilder
from repro.circuit.netlist import Circuit
from repro.bench_gen.blocks import (
    add_counter,
    add_decoder,
    add_enabled_bank,
    add_msb_decoder,
    add_plain_bank,
    add_random_logic,
)


@dataclass(frozen=True)
class CircuitSpec:
    """Parameters of one synthetic benchmark circuit."""

    name: str
    num_inputs: int = 4
    counter_width: int = 3
    num_banks: int = 4
    bank_width: int = 4
    #: random gates in the cloud between consecutive banks
    logic_per_bank: int = 16
    #: counter steps between consecutive banks' load states (>= 2 yields
    #: multi-cycle pairs between them; 1 yields single-cycle pairs)
    spacing: int = 2
    #: always-loading registers appended after the last bank
    plain_registers: int = 4
    #: length of an always-shifting register chain (pure 1-cycle pairs)
    shift_tail: int = 0
    #: give every second bank a partial (MSB-only) load decode; the pairs
    #: into the following exact-decoded bank then need the ATPG search
    hard_enables: bool = False
    seed: int = 1

    def __post_init__(self) -> None:
        if self.num_banks < 1 or self.bank_width < 1:
            raise ValueError("need at least one bank register")
        if self.counter_width < 1:
            raise ValueError("counter_width must be >= 1")
        if self.num_inputs < 1:
            raise ValueError("need at least one primary input")


def generate(spec: CircuitSpec) -> Circuit:
    """Build the circuit described by ``spec`` (deterministic)."""
    rng = random.Random(spec.seed)
    builder = CircuitBuilder(spec.name)

    inputs = [builder.input(f"pi{i}") for i in range(spec.num_inputs)]
    counter = add_counter(builder, spec.counter_width, "cnt")
    modulus = 1 << spec.counter_width

    banks: list[list[int]] = []
    previous_data = inputs
    for bank_index in range(spec.num_banks):
        if spec.hard_enables and bank_index % 2 == 0:
            # Partial decode: load whenever the counter MSB is 1.  The
            # next (exact-decoded) bank must target a state outside the
            # one-step successors of that half-range, i.e. a value in
            # [1, modulus/2 - 1].
            enable = add_msb_decoder(builder, counter, f"en{bank_index}")
        else:
            decode_value = (bank_index * spec.spacing) % modulus
            if spec.hard_enables:
                span = max(1, modulus // 2 - 1)
                decode_value = 1 + (bank_index * spec.spacing) % span
            enable = add_decoder(builder, counter, decode_value, f"en{bank_index}")
        cloud = add_random_logic(
            builder,
            previous_data,
            spec.logic_per_bank,
            rng,
            f"cl{bank_index}",
            num_outputs=spec.bank_width,
        )
        bank = add_enabled_bank(builder, enable, cloud, f"b{bank_index}")
        banks.append(bank)
        # The next cloud reads this bank plus a stirring primary input.
        previous_data = bank + [rng.choice(inputs)]

    if spec.plain_registers:
        # Always-loading registers observing every bank: a dense source of
        # single-cycle pairs for the random-simulation stage to drop.
        sources = [ff for bank in banks for ff in bank] + counter
        cloud = add_random_logic(
            builder,
            sources,
            max(spec.plain_registers, spec.logic_per_bank // 2),
            rng,
            "clp",
            num_outputs=spec.plain_registers,
        )
        plain = add_plain_bank(builder, cloud, "p")
    else:
        plain = []

    tail: list[int] = []
    if spec.shift_tail:
        head = plain[0] if plain else banks[-1][0]
        previous = head
        for index in range(spec.shift_tail):
            stage = builder.dff(f"sh{index}", d=previous)
            tail.append(stage)
            previous = stage

    observers = banks[-1] + plain + tail
    for index, signal in enumerate(observers[: max(1, len(observers) // 2)]):
        builder.output(f"po{index}", signal)
    return builder.build()
