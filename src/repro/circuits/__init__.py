"""Gate-level circuit intermediate representation and simulation."""

from .gates import (
    GATE_ARITY,
    GateType,
    evaluate_gate,
    gate_truth_table,
)
from .netlist import Gate, Netlist, NetlistError
from .builder import NetlistBuilder
from .metrics import StructuralMetrics, gate_type_counts, structural_metrics
from .bitplane import (
    PLANE_WIDTH,
    num_planes,
    pack_bits,
    simulate_planes,
    unpack_bits,
)
from .compiled import (
    CompiledProgram,
    clear_program_cache,
    compile_netlist,
)
from .simulate import (
    bits_to_words,
    exhaustive_operands,
    exhaustive_simulate,
    random_operands,
    simulate_bits,
    simulate_words,
    words_to_bits,
)
from .verilog import to_verilog

__all__ = [
    "GATE_ARITY",
    "GateType",
    "evaluate_gate",
    "gate_truth_table",
    "Gate",
    "Netlist",
    "NetlistError",
    "NetlistBuilder",
    "StructuralMetrics",
    "gate_type_counts",
    "structural_metrics",
    "PLANE_WIDTH",
    "num_planes",
    "pack_bits",
    "simulate_planes",
    "unpack_bits",
    "CompiledProgram",
    "clear_program_cache",
    "compile_netlist",
    "bits_to_words",
    "exhaustive_operands",
    "exhaustive_simulate",
    "random_operands",
    "simulate_bits",
    "simulate_words",
    "words_to_bits",
    "to_verilog",
]
