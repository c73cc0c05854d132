"""Reference program packing: one generator pass per packed field.

``ProgramStatics`` builds every field in one flat walk of the loop
body; each field must equal, in value and container type, the field
built here field by field.  The current model's charge packets are not
statics: the batch-trace property holds them to the per-instruction
reference traces.
"""

from typing import Any, Dict

from repro.cpu.isa import RegisterFile
from repro.cpu.program import LoopProgram


def program_statics_reference(program: LoopProgram) -> Dict[str, Any]:
    """Every ``ProgramStatics`` slot of ``program``, by name."""
    body = program.body
    offsets = {}
    total = 0
    for rf in RegisterFile:
        offsets[rf] = total
        total += program.isa.registers.get(rf, 0)

    fields: Dict[str, Any] = {"num_registers": total}
    fields["units"] = tuple(i.spec.unit for i in body)
    fields["latency"] = [i.spec.latency for i in body]
    fields["recip"] = [i.spec.recip_throughput for i in body]
    fields["sources"] = tuple(
        tuple(offsets[i.spec.regfile] + s for s in i.sources) for i in body
    )
    fields["dest"] = [
        offsets[i.spec.regfile] + i.dest if i.spec.has_dest else -1
        for i in body
    ]
    fields["touches_memory"] = tuple(i.spec.touches_memory for i in body)
    fields["address"] = [
        i.address if i.spec.touches_memory else -1 for i in body
    ]
    return fields
