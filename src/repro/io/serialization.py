"""JSON round-trips for loop programs, virus archives, GA state.

Everything the run harness persists flows through here: single
programs, whole populations, virus archives, per-generation GA history
and mid-campaign checkpoints (population + RNG state + memo cache +
history), so the on-disk formats stay versioned in one place.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.cpu.arm import ARM_ISA
from repro.faults.errors import CorruptArtifact
from repro.cpu.isa import Instruction, InstructionSet, RegisterFile
from repro.cpu.program import LoopProgram
from repro.cpu.x86 import X86_ISA
from repro.ga.templates import render_individual_source

_BASE_ISAS: Dict[str, InstructionSet] = {
    "armv8": ARM_ISA,
    "x86-64": X86_ISA,
}

FORMAT_VERSION = 1


class SerializationError(Exception):
    """Malformed or incompatible serialized data."""


def _base_isa_for(isa: InstructionSet) -> str:
    """Identify which base table an instruction set derives from."""
    for name, base in _BASE_ISAS.items():
        base_mnemonics = {s.mnemonic for s in base.specs}
        if all(s.mnemonic in base_mnemonics for s in isa.specs):
            return name
    raise SerializationError(
        f"instruction set {isa.name!r} does not derive from a known base"
    )


def program_to_dict(program: LoopProgram) -> dict:
    """Serializable representation of a loop program."""
    isa = program.isa
    return {
        "format_version": FORMAT_VERSION,
        "base_isa": _base_isa_for(isa),
        "isa_name": isa.name,
        "registers": {
            rf.value: count for rf, count in isa.registers.items()
        },
        "memory_slots": isa.memory_slots,
        "name": program.name,
        "body": [
            {
                "mnemonic": i.mnemonic,
                "dest": i.dest,
                "sources": list(i.sources),
                "address": i.address,
            }
            for i in program.body
        ],
    }


def program_from_dict(data: dict) -> LoopProgram:
    """Reconstruct a loop program from its serialized form."""
    try:
        version = data["format_version"]
        base_name = data["base_isa"]
        body_data = data["body"]
    except (KeyError, TypeError) as exc:
        raise SerializationError(f"missing field: {exc}") from exc
    if version != FORMAT_VERSION:
        raise SerializationError(
            f"unsupported format version {version!r}"
        )
    try:
        base = _BASE_ISAS[base_name]
    except KeyError:
        raise SerializationError(
            f"unknown base ISA {base_name!r}"
        ) from None
    registers = {
        RegisterFile(key): int(count)
        for key, count in data.get("registers", {}).items()
    } or dict(base.registers)
    isa = InstructionSet(
        name=data.get("isa_name", base.name),
        specs=base.specs,
        registers=registers,
        memory_slots=int(data.get("memory_slots", base.memory_slots)),
    )
    body = []
    for entry in body_data:
        try:
            spec = isa.spec(entry["mnemonic"])
        except KeyError as exc:
            raise SerializationError(str(exc)) from exc
        body.append(
            Instruction(
                spec=spec,
                dest=entry.get("dest"),
                sources=tuple(entry.get("sources", ())),
                address=entry.get("address"),
            )
        )
    return LoopProgram(
        isa=isa, body=tuple(body), name=data.get("name", "loaded")
    )


def save_program(
    program: LoopProgram, path: Union[str, Path]
) -> None:
    """Write a program to a JSON file."""
    Path(path).write_text(
        json.dumps(program_to_dict(program), indent=2), encoding="utf-8"
    )


def load_program(path: Union[str, Path]) -> LoopProgram:
    """Read a program back from a JSON file."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SerializationError(f"invalid JSON: {exc}") from exc
    return program_from_dict(data)


def save_population(
    programs, path: Union[str, Path]
) -> None:
    """Persist a whole GA population (for resuming a search later).

    Section 3.1(a): the initial seed population "can be either a new
    random initial population or a population from a previous GA run".
    """
    data = {
        "format_version": FORMAT_VERSION,
        "individuals": [program_to_dict(p) for p in programs],
    }
    Path(path).write_text(json.dumps(data, indent=2), encoding="utf-8")


def load_population(path: Union[str, Path]):
    """Load a previously saved population."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SerializationError(f"invalid JSON: {exc}") from exc
    if data.get("format_version") != FORMAT_VERSION:
        raise SerializationError("unsupported population format")
    try:
        individuals = data["individuals"]
    except KeyError:
        raise SerializationError("missing individuals field") from None
    return [program_from_dict(entry) for entry in individuals]


def save_virus_archive(
    summary, directory: Union[str, Path], stem: Optional[str] = None
) -> Path:
    """Archive a GA run: program JSON, assembly text and metrics.

    Returns the path of the metadata file.  ``summary`` is a
    :class:`repro.core.results.GARunSummary`.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    stem = stem or f"{summary.cluster_name}-{summary.metric}"

    save_program(summary.virus, directory / f"{stem}.json")
    (directory / f"{stem}.s").write_text(
        render_individual_source(summary.virus), encoding="utf-8"
    )
    # Full GA provenance (per-generation history + config), so reports
    # can be regenerated from the archive without re-running the search.
    (directory / f"{stem}.summary.json").write_text(
        summary.to_json(indent=2), encoding="utf-8"
    )
    metadata = {
        "format_version": FORMAT_VERSION,
        "cluster": summary.cluster_name,
        "metric": summary.metric,
        "generations": summary.generations,
        "dominant_frequency_hz": summary.dominant_frequency_hz,
        "max_droop_v": summary.max_droop_v,
        "peak_to_peak_v": summary.peak_to_peak_v,
        "ipc": summary.ipc,
        "loop_frequency_hz": summary.loop_frequency_hz,
        "loop_period_s": summary.loop_period_s,
        "program_file": f"{stem}.json",
        "assembly_file": f"{stem}.s",
        "summary_file": f"{stem}.summary.json",
    }
    meta_path = directory / f"{stem}.meta.json"
    meta_path.write_text(json.dumps(metadata, indent=2), encoding="utf-8")
    return meta_path


def load_virus_archive(meta_path: Union[str, Path]):
    """Load an archived virus: (program, metadata dict)."""
    meta_path = Path(meta_path)
    try:
        metadata = json.loads(meta_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SerializationError(f"invalid JSON: {exc}") from exc
    try:
        program_file = metadata["program_file"]
    except (KeyError, TypeError) as exc:
        raise SerializationError(f"missing field: {exc}") from exc
    program = load_program(meta_path.parent / program_file)
    return program, metadata


# ---------------------------------------------------------------------------
# GA state: evaluations, generation records, results, checkpoints.
# ---------------------------------------------------------------------------
def evaluation_to_dict(evaluation) -> dict:
    """Serialize a :class:`repro.ga.fitness.FitnessEvaluation`."""
    return {
        "score": evaluation.score,
        "dominant_frequency_hz": evaluation.dominant_frequency_hz,
        "max_droop_v": evaluation.max_droop_v,
        "peak_to_peak_v": evaluation.peak_to_peak_v,
        "ipc": evaluation.ipc,
        "loop_frequency_hz": evaluation.loop_frequency_hz,
    }


def evaluation_from_dict(data: dict):
    from repro.ga.fitness import FitnessEvaluation

    try:
        return FitnessEvaluation(
            score=float(data["score"]),
            dominant_frequency_hz=float(data["dominant_frequency_hz"]),
            max_droop_v=float(data["max_droop_v"]),
            peak_to_peak_v=float(data["peak_to_peak_v"]),
            ipc=float(data["ipc"]),
            loop_frequency_hz=float(data["loop_frequency_hz"]),
        )
    except (KeyError, TypeError) as exc:
        raise SerializationError(f"malformed evaluation: {exc}") from exc


def record_to_dict(record) -> dict:
    """Serialize a :class:`repro.ga.engine.GenerationRecord`."""
    return {
        "generation": record.generation,
        "mean_score": record.mean_score,
        "best": evaluation_to_dict(record.best),
        "best_program": program_to_dict(record.best_program),
    }


def record_from_dict(data: dict):
    from repro.ga.engine import GenerationRecord

    try:
        return GenerationRecord(
            generation=int(data["generation"]),
            best_program=program_from_dict(data["best_program"]),
            best=evaluation_from_dict(data["best"]),
            mean_score=float(data["mean_score"]),
        )
    except (KeyError, TypeError) as exc:
        raise SerializationError(f"malformed record: {exc}") from exc


def ga_config_to_dict(config) -> dict:
    from dataclasses import asdict

    return asdict(config)


def ga_config_from_dict(data: dict):
    from repro.ga.engine import GAConfig

    try:
        return GAConfig(**data)
    except TypeError as exc:
        raise SerializationError(f"malformed GA config: {exc}") from exc


def ga_result_to_dict(result) -> dict:
    """Serialize a :class:`repro.ga.engine.GAResult`."""
    return {
        "format_version": FORMAT_VERSION,
        "config": ga_config_to_dict(result.config),
        "history": [record_to_dict(r) for r in result.history],
        "evaluations": result.evaluations,
    }


def ga_result_from_dict(data: dict):
    from repro.ga.engine import GAResult

    try:
        return GAResult(
            config=ga_config_from_dict(data["config"]),
            history=[record_from_dict(r) for r in data["history"]],
            evaluations=int(data["evaluations"]),
        )
    except (KeyError, TypeError) as exc:
        raise SerializationError(f"malformed GA result: {exc}") from exc


def genome_to_list(genome: Tuple[Tuple, ...]) -> list:
    """JSON form of :meth:`repro.cpu.program.LoopProgram.genome`."""
    return [
        [mnemonic, dest, list(sources), address]
        for mnemonic, dest, sources, address in genome
    ]


def genome_from_list(data: list) -> Tuple[Tuple, ...]:
    try:
        return tuple(
            (
                str(mnemonic),
                None if dest is None else int(dest),
                tuple(int(s) for s in sources),
                None if address is None else int(address),
            )
            for mnemonic, dest, sources, address in data
        )
    except (TypeError, ValueError) as exc:
        raise SerializationError(f"malformed genome: {exc}") from exc


def checkpoint_to_dict(checkpoint) -> dict:
    """Serialize a :class:`repro.ga.engine.GACheckpoint`."""
    return {
        "format_version": FORMAT_VERSION,
        "kind": "ga-checkpoint",
        "config": ga_config_to_dict(checkpoint.config),
        "generation": checkpoint.generation,
        "evaluations": checkpoint.evaluations,
        "rng_state": checkpoint.rng_state,
        "fitness_state": checkpoint.fitness_state,
        "population": [program_to_dict(p) for p in checkpoint.population],
        "cache": [
            [genome_to_list(genome), evaluation_to_dict(evaluation)]
            for genome, evaluation in checkpoint.cache.items()
        ],
        "history": [record_to_dict(r) for r in checkpoint.history],
    }


def checkpoint_from_dict(data: dict):
    from repro.ga.engine import GACheckpoint

    if data.get("kind") != "ga-checkpoint":
        raise SerializationError("not a GA checkpoint")
    if data.get("format_version") != FORMAT_VERSION:
        raise SerializationError(
            f"unsupported checkpoint version {data.get('format_version')!r}"
        )
    try:
        return GACheckpoint(
            config=ga_config_from_dict(data["config"]),
            generation=int(data["generation"]),
            population=[
                program_from_dict(p) for p in data["population"]
            ],
            rng_state=data["rng_state"],
            cache={
                genome_from_list(genome): evaluation_from_dict(ev)
                for genome, ev in data["cache"]
            },
            history=[record_from_dict(r) for r in data["history"]],
            evaluations=int(data["evaluations"]),
            fitness_state=data.get("fitness_state"),
        )
    except (KeyError, TypeError) as exc:
        raise SerializationError(f"malformed checkpoint: {exc}") from exc


#: How many rotated generations a checkpoint keeps: ``c.json`` is the
#: newest, ``c.json.1`` the previous save, ``c.json.2`` the one before.
CHECKPOINT_ROTATIONS = 2

#: Hash algorithm recorded in the checksum footer.
CHECKSUM_ALGO = "sha256"


def checkpoint_payload(checkpoint) -> bytes:
    """The canonical (compact, single-line) checkpoint payload bytes."""
    return json.dumps(checkpoint_to_dict(checkpoint)).encode("utf-8")


def checksum_footer(payload: bytes) -> str:
    """The integrity footer line for a checkpoint ``payload``."""
    return json.dumps(
        {
            "kind": "checksum",
            "algo": CHECKSUM_ALGO,
            "digest": hashlib.sha256(payload).hexdigest(),
            "payload_bytes": len(payload),
        }
    )


def rotated_paths(path: Union[str, Path]) -> list:
    """Candidate checkpoint files, newest first: path, .1, .2."""
    path = Path(path)
    return [path] + [
        path.with_name(f"{path.name}.{i}")
        for i in range(1, CHECKPOINT_ROTATIONS + 1)
    ]


def _rotate(path: Path) -> None:
    """Shift existing checkpoints one slot down before a new save."""
    candidates = rotated_paths(path)
    for older, newer in zip(
        reversed(candidates), reversed(candidates[:-1])
    ):
        if newer.exists():
            os.replace(newer, older)


def save_checkpoint(
    checkpoint,
    path: Union[str, Path],
    rotate: bool = True,
    injector=None,
) -> Path:
    """Atomically write a checksummed GA checkpoint to ``path``.

    The on-disk format is two lines: the compact JSON payload and a
    checksum footer (algorithm, digest, payload byte count), which is
    how :func:`load_checkpoint` detects truncation and bit-rot.  The
    file is staged next to the target and moved into place with
    :func:`os.replace`, so a run killed mid-write leaves either the
    previous checkpoint or the new one -- never a torn file.  With
    ``rotate`` (the default) the previous saves are kept as ``.1`` /
    ``.2`` siblings, the recovery pool for a corrupted primary.

    ``injector`` arms the ``checkpoint.save`` fault site: an injected
    :class:`~repro.faults.CorruptArtifact` simulates a *silent* torn
    write (truncated bytes land at ``path`` and the save reports
    success -- the scenario checksum verification exists for); any
    other injected fault propagates before the disk is touched.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = checkpoint_payload(checkpoint)
    content = payload + b"\n" + checksum_footer(payload).encode("utf-8")
    if injector is not None:
        try:
            injector.visit("checkpoint.save")
        except CorruptArtifact:
            content = content[: max(1, len(payload) // 2)]
    if rotate:
        _rotate(path)
    staging = path.with_name(path.name + ".tmp")
    staging.write_bytes(content)
    os.replace(staging, path)
    return path


def _read_verified_checkpoint(path: Path):
    """Read one checkpoint file, verifying its checksum footer.

    Raises :class:`CorruptArtifact` on truncation or digest mismatch
    and :class:`SerializationError` on malformed content.  A legacy
    file without a footer still loads, with a :class:`UserWarning`.
    """
    raw = path.read_bytes()
    head, sep, tail = raw.partition(b"\n")
    footer = None
    if sep:
        try:
            candidate = json.loads(tail.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            candidate = None
        if isinstance(candidate, dict) and (
            candidate.get("kind") == "checksum"
        ):
            footer = candidate
    if footer is not None:
        payload = head
        if footer.get("algo") != CHECKSUM_ALGO:
            raise SerializationError(
                f"unsupported checksum algo {footer.get('algo')!r}"
            )
        if len(payload) != footer.get("payload_bytes"):
            raise CorruptArtifact(
                f"checkpoint {path} truncated: expected "
                f"{footer.get('payload_bytes')} payload bytes, found "
                f"{len(payload)}",
                site="checkpoint.load",
            )
        digest = hashlib.sha256(payload).hexdigest()
        if digest != footer.get("digest"):
            raise CorruptArtifact(
                f"checkpoint {path} failed checksum verification",
                site="checkpoint.load",
            )
    else:
        # Pre-checksum format: the whole file is the payload.
        payload = raw
    try:
        data = json.loads(payload.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CorruptArtifact(
            f"checkpoint {path} is unreadable: {exc}",
            site="checkpoint.load",
        ) from exc
    if footer is None:
        # Only a *parseable* footer-less file is a legacy checkpoint;
        # torn new-format files fail the JSON parse above instead.
        warnings.warn(
            f"checkpoint {path} has no checksum footer (legacy "
            "format); integrity cannot be verified",
            UserWarning,
            stacklevel=3,
        )
    return checkpoint_from_dict(data)


def load_checkpoint(
    path: Union[str, Path], event_log=None, injector=None
):
    """Read a GA checkpoint, falling back to rotated copies.

    Verifies the checksum footer of ``path``; if the file is missing,
    truncated or corrupted, the rotated siblings (``.1`` then ``.2``)
    are tried newest-first, and a successful fallback emits a
    ``checkpoint_recovered`` event on ``event_log``.  Raises
    :class:`~repro.faults.CorruptArtifact` when no candidate survives
    verification (and :class:`FileNotFoundError` when none exists at
    all).  ``injector`` arms the ``checkpoint.load`` fault site once
    per candidate.
    """
    path = Path(path)
    candidates = [p for p in rotated_paths(path) if p.exists()]
    if not candidates:
        raise FileNotFoundError(f"no checkpoint found at {path}")
    errors = []
    for candidate in candidates:
        try:
            if injector is not None:
                injector.visit("checkpoint.load")
            checkpoint = _read_verified_checkpoint(candidate)
        except (CorruptArtifact, SerializationError, OSError) as exc:
            errors.append((candidate, exc))
            continue
        if errors and event_log is not None:
            event_log.emit(
                "checkpoint_recovered",
                path=str(path),
                recovered_from=str(candidate),
                rejected=[
                    {"path": str(p), "error": str(e)} for p, e in errors
                ],
                generation=checkpoint.generation,
            )
        return checkpoint
    detail = "; ".join(f"{p}: {e}" for p, e in errors)
    raise CorruptArtifact(
        f"no valid checkpoint among {len(candidates)} candidate(s) "
        f"for {path}: {detail}",
        site="checkpoint.load",
    )
