"""The model-kernels workload: library calls on one generated population.

Usage: ``python3 bench/kernels.py SPEC.json`` with ``contention`` importable;
prints the four results as one JSON object.  The benchmark's traced run
calls :func:`run` in-process instead.
"""

from __future__ import annotations

import json
import sys


def _fields(result) -> dict:
    return {
        "raw": result.raw,
        "normalized": result.normalized,
        "k": result.k,
        "population": result.population,
        "samples": result.samples,
        "seed": result.seed,
    }


def run(spec: dict) -> dict:
    """Build the people, score them exactly and by sampling, then do the
    same for the exclusive count vector.  Names are looked up on the
    ``contention.model`` module at call time, so a tracer can wrap them."""
    from contention import model

    space = model.StanceSpace.from_conflict_pairs(spec["ids"], [tuple(p) for p in spec["conflicts"]])
    people = model.AssignmentSet.from_stance_ids(space, spec["held"])
    general = model.contention_general(people)
    sampled = model.contention_sampled(people, spec["draws"], spec["seed"])

    exclusive = model.StanceSpace.exclusive(spec["ids"])
    counts = model.StanceCounts.from_mapping(exclusive, spec["counts"], no_stance=spec["no_stance"])
    closed = model.contention_exclusive(counts)
    from_counts = model.sampled_from_counts(counts, spec["draws"], spec["seed"])
    return {
        "general": _fields(general),
        "sampled": _fields(sampled),
        "closed": _fields(closed),
        "from_counts": _fields(from_counts),
    }


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as handle:
        spec_doc = json.load(handle)
    json.dump(run(spec_doc), sys.stdout)
    sys.stdout.write("\n")
