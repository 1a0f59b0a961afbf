"""repro.compiler — lowers detection programs to the Ptolemy ISA and
builds the optimised block schedules the hardware model executes."""

from repro.compiler.memory_map import MemoryMap
from repro.compiler.codegen import (
    compile_bwcu,
    compile_inference,
    theta_to_fixed,
)
from repro.compiler.passes import (
    Block,
    Schedule,
    apply_optimizations,
    build_schedule,
)

__all__ = [
    "MemoryMap",
    "compile_bwcu",
    "compile_inference",
    "theta_to_fixed",
    "Block",
    "Schedule",
    "apply_optimizations",
    "build_schedule",
]
