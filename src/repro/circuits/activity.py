"""Switching-activity estimation.

Both synthesis substrates (ASIC and FPGA) use dynamic-power models of the
form ``energy = activity * capacitance * V^2``.  The per-node switching
activity is estimated by simulating the circuit on uniformly random operands
and converting signal probabilities to toggle rates under the usual temporal
independence assumption: ``alpha = 2 * p * (1 - p)``.
"""

from __future__ import annotations

import numpy as np

from .netlist import Netlist
from .simulate import expand_operand_bits, node_values, random_operands


def node_signal_probabilities(
    netlist: Netlist, num_samples: int = 256, seed: int = 99
) -> np.ndarray:
    """Probability of each node being logic-1 under uniform random inputs.

    Raises :class:`ValueError` when ``num_samples`` is below 1.
    """
    if num_samples < 1:
        raise ValueError(f"num_samples must be at least 1, got {num_samples}")
    rng = np.random.default_rng(seed)
    input_bits = expand_operand_bits(netlist, random_operands(netlist, num_samples, rng))
    values = node_values(netlist, input_bits)
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
