"""Genetic-algorithm stress-test generation framework (Section 3).

The GA evolves fixed-length instruction loops (50 instructions in the
paper) toward a fitness signal: the EM amplitude received by the
antenna (the paper's contribution) or direct voltage feedback (the
validation baseline).  Configuration follows the paper's empirically
determined recipe: population 50, >= 60 generations, tournament
selection, one-point crossover, 2-4 % mutation rate.

- :mod:`repro.ga.operators` -- selection, crossover, mutation.
- :mod:`repro.ga.engine` -- the generational loop with memoized fitness.
- :mod:`repro.ga.fitness` -- EM-amplitude and voltage-feedback fitness.
- :mod:`repro.ga.instruction_spec` -- the XML instruction-pool input.
- :mod:`repro.ga.templates` -- loop template rendering (register
  pre-initialization plus the evolved body).
"""

from repro.ga.engine import GAConfig, GAEngine, GAResult, GenerationRecord
from repro.ga.operators import (
    mutate,
    one_point_crossover,
    tournament_selection,
)
from repro.ga.fitness import (
    EMAmplitudeFitness,
    FitnessEvaluation,
    MaxDroopFitness,
    PeakToPeakFitness,
)
from repro.ga.instruction_spec import (
    load_instruction_pool,
    parse_instruction_pool,
    render_instruction_pool,
)
from repro.ga.templates import render_individual_source

__all__ = [
    "GAConfig",
    "GAEngine",
    "GAResult",
    "GenerationRecord",
    "mutate",
    "one_point_crossover",
    "tournament_selection",
    "EMAmplitudeFitness",
    "MaxDroopFitness",
    "PeakToPeakFitness",
    "FitnessEvaluation",
    "load_instruction_pool",
    "parse_instruction_pool",
    "render_instruction_pool",
    "render_individual_source",
]
