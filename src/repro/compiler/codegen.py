"""Code generation: ExtractionConfig -> Ptolemy ISA program.

Generates the backward-cumulative (BwCu) detection program concretely
executable on the ISS — the algorithm of the paper's Listing 1 — plus
inference-only and forward-variant programs whose structure feeds the
timing model.  The generated loop is branch-minimal: instead of
testing each output neuron's importance bit, the theta target is
multiplied by the mask word (0 or 1 in Q8), so unimportant neurons get
a zero target and ``acum`` selects nothing.

Register conventions (r0 is a scratch/zero register by convention):

====  =======================================
r1    layer id
r2    loop counter (remaining neurons)
r3    receptive-field size (sort length)
r4    current neuron position
r5    theta in Q8 fixed point
r6    target (theta x value x mask gate)
r7    neuron value address (findneuron result)
r8    psum pair-list scratch base
r9    sorted pair-list scratch base
r10   important-index list scratch base
r11   output-mask region base (gating source)
r12   input-mask region base (genmasks dest)
r13   mask-word address scratch
r14/15 class path / activation path bases
====  =======================================
"""

from __future__ import annotations

from repro.compiler.memory_map import MemoryMap
from repro.core.config import Direction, ExtractionConfig, Thresholding
from repro.isa.encoding import Opcode
from repro.isa.machine import FIXED_ONE
from repro.isa.program import Program
from repro.nn.graph import Graph

__all__ = [
    "compile_bwcu",
    "compile_inference",
    "theta_to_fixed",
]


def theta_to_fixed(theta: float) -> int:
    """Quantise theta to Q8 (the ISS multiplies thresholds in Q8).

    Thetas with <= 8 fractional bits (0.5, 0.25, 0.125...) are exact,
    which the ISS-vs-numpy equivalence tests rely on.
    """
    fixed = int(round(theta * FIXED_ONE))
    if not 0 <= fixed < (1 << 16):
        raise ValueError(f"theta {theta} out of Q8 range")
    return fixed


def _emit_inference(program: Program, mem_map: MemoryMap,
                    store_psums: bool) -> None:
    """inf/infsp for every unit, in topological order."""
    for i in range(len(mem_map.units)):
        program.append(Opcode.MOV, 1, mem_map.ofmap(i - 1) if i else 0,
                       comment=f"ifmap of unit {i}")
        program.append(Opcode.MOV, 2, mem_map.base(f"weights{i}"),
                       comment=f"weights of unit {i}")
        program.append(Opcode.MOV, 3, mem_map.ofmap(i),
                       comment=f"ofmap of unit {i}")
        if store_psums:
            program.append(Opcode.MOV, 4, mem_map.base("psum_raw"))
            program.append(Opcode.INFSP, 1, 2, 3, 4,
                           comment=f"inference unit {i} (store psums)")
        else:
            program.append(Opcode.INF, 1, 2, 3,
                           comment=f"inference unit {i}")


def compile_inference(model: Graph, config: ExtractionConfig) -> Program:
    """Inference-only program (the baseline the overheads normalise to)."""
    mem_map = MemoryMap(model, config)
    program = Program()
    _emit_inference(program, mem_map, store_psums=False)
    program.append(Opcode.HALT)
    return program


def compile_bwcu(
    model: Graph,
    config: ExtractionConfig,
    mem_map: MemoryMap,
    recompute: bool = True,
) -> Program:
    """Compile a backward-cumulative detection program.

    ``recompute=True`` applies the compute-for-memory trade-off of
    Sec. IV-B: inference uses plain ``inf`` and partial sums are
    re-computed by ``csps`` only for important neurons.  With
    ``recompute=False`` inference uses ``infsp`` (store all psums).

    Requirements: backward direction, cumulative thresholds on all
    extracted layers, and the extracted set forming a suffix of the
    network (which ExtractionConfig.bwcu guarantees).
    """
    if config.direction is not Direction.BACKWARD:
        raise ValueError("compile_bwcu requires a backward config")
    extracted = config.extracted_indices()
    num_units = len(mem_map.units)
    if extracted != list(range(min(extracted), num_units)):
        raise ValueError("backward extraction must cover a suffix of layers")
    for i in extracted:
        if config.layers[i].mechanism is not Thresholding.CUMULATIVE:
            raise ValueError("compile_bwcu handles cumulative layers only")

    program = Program()
    _emit_inference(program, mem_map, store_psums=not recompute)

    # extraction, from the last unit backward to the termination layer
    for unit in reversed(extracted):
        module = mem_map.units[unit].module
        out_size = module.output_feature_size
        rf_size = module.nominal_rf_size()
        theta = theta_to_fixed(config.layers[unit].threshold)
        program.append(Opcode.MOV, 1, unit, comment=f"--- extract unit {unit}")
        program.append(Opcode.MOV, 2, out_size, comment="loop counter")
        program.append(Opcode.MOV, 3, rf_size, comment="rf size")
        program.append(Opcode.MOV, 4, out_size - 1, comment="neuron position")
        program.append(Opcode.MOV, 5, theta, comment="theta (Q8)")
        program.append(Opcode.MOV, 8, mem_map.base("psum_raw"))
        program.append(Opcode.MOV, 9, mem_map.base("psum_sorted"))
        program.append(Opcode.MOV, 10, mem_map.base("implist"))
        program.append(Opcode.MOV, 11, mem_map.output_mask(unit),
                       comment="output importance mask (gate)")
        program.append(Opcode.MOV, 12, mem_map.mask(unit),
                       comment="input mask (tap)")
        program.label(f"loop{unit}")
        program.append(Opcode.FINDNEURON, 1, 4, 7, comment="addr of neuron value")
        program.append(Opcode.MOVR, 6, 5)
        program.append(Opcode.MUL, 6, 7, comment="target = theta * value")
        program.append(Opcode.ADD, 13, 11, 4, comment="mask word address")
        program.append(Opcode.MUL, 6, 13, comment="gate by importance bit")
        program.append(Opcode.CSPS, 4, 1, 8, comment="(re)compute psums")
        program.append(Opcode.SORT, 8, 3, 9)
        program.append(Opcode.ACUM, 9, 10, 6)
        program.append(Opcode.GENMASKS, 10, 12)
        program.append(Opcode.DEC, 4)
        program.append(Opcode.DEC, 2)
        jne_idx = program.append(Opcode.JNE, 0)
        program.patch(jne_idx, program.labels[f"loop{unit}"])

    program.append(Opcode.MOV, 14, mem_map.base("classpath"))
    program.append(Opcode.MOV, 15, mem_map.path_base)
    program.append(Opcode.CLS, 14, 15, 0, comment="similarity -> r0")
    program.append(Opcode.HALT)
    return program

