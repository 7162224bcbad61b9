"""Switching-activity estimation.

Both synthesis substrates (ASIC and FPGA) use dynamic-power models of the
form ``energy = activity * capacitance * V^2``.  The per-node switching
activity is estimated by simulating the circuit on uniformly random operands
and converting signal probabilities to toggle rates under the usual temporal
independence assumption: ``alpha = 2 * p * (1 - p)``.
"""

from __future__ import annotations

import numpy as np

from .gates import GATE_FUNCTIONS
from .netlist import Netlist
from .simulate import random_operands, words_to_bits


def node_signal_probabilities(
    netlist: Netlist, num_samples: int = 256, seed: int = 99
) -> np.ndarray:
    """Probability of each node being logic-1 under uniform random inputs."""
    rng = np.random.default_rng(seed)
    operands = random_operands(netlist, num_samples, rng)
    input_bits = np.zeros((num_samples, netlist.num_inputs), dtype=bool)
    for name, bit_ids in netlist.input_words.items():
        word_bits = words_to_bits(np.asarray(operands[name]), len(bit_ids))
        for position, node_id in enumerate(bit_ids):
            input_bits[:, node_id] = word_bits[:, position]

    values = [input_bits[:, i] for i in range(netlist.num_inputs)]
    zeros = np.zeros(num_samples, dtype=bool)
    for gate in netlist.gates:
        a = values[gate.a] if gate.a >= 0 else zeros
        b = values[gate.b] if gate.b >= 0 else zeros
        values.append(GATE_FUNCTIONS[gate.gate_type](a, b))
    # One reduction over all nodes: a count of ones over ``num_samples`` is
    # exactly the float64 mean of the boolean samples.
    samples = np.array(values, dtype=bool).reshape(len(values), num_samples)
    return np.count_nonzero(samples, axis=1) / num_samples


def node_switching_activities(
    netlist: Netlist, num_samples: int = 256, seed: int = 99
) -> np.ndarray:
    """Toggle rate of each node: ``2 * p * (1 - p)`` with p the signal probability."""
    probabilities = node_signal_probabilities(netlist, num_samples=num_samples, seed=seed)
    return 2.0 * probabilities * (1.0 - probabilities)
