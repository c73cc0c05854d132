"""Regenerate the virus archives the ``vmin-ladder`` workload loads.

One EM-fitness GA campaign per platform, built as ``repro virus``
builds it (noisy analyzer seeded from the campaign seed, 10 samples,
loop length 50), archived with ``save_virus_archive`` under
``bench_e2e/viruses/<platform>.*``::

    python3 bench_e2e/make_viruses.py

Regenerating changes the ``vmin-ladder`` references: re-record them
with ``run.py --workload vmin-ladder --record``.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from repro.core.characterizer import EMCharacterizer  # noqa: E402
from repro.core.virusgen import VirusGenerator  # noqa: E402
from repro.ga.engine import GAConfig  # noqa: E402
from repro.instruments.spectrum_analyzer import SpectrumAnalyzer  # noqa: E402
from repro.io.serialization import save_virus_archive  # noqa: E402
from repro.platforms import registry  # noqa: E402

SEED = 2018
POPULATION = 32
GENERATIONS = 20


def main() -> int:
    for platform in ("a72", "a53", "amd"):
        generator = VirusGenerator(
            registry.make_cluster(platform),
            EMCharacterizer(
                analyzer=SpectrumAnalyzer(rng=np.random.default_rng(SEED)),
                samples=10,
            ),
            config=GAConfig(
                population_size=POPULATION,
                generations=GENERATIONS,
                loop_length=50,
                seed=SEED,
            ),
        )
        summary = generator.generate_em_virus()
        meta = save_virus_archive(summary, HERE / "viruses", stem=platform)
        print(f"{platform}: droop {summary.max_droop_v * 1e3:.1f} mV, "
              f"dominant {summary.dominant_frequency_hz / 1e6:.1f} MHz "
              f"-> {meta.relative_to(HERE.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
