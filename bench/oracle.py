"""Checks of the program's output against the generator's expected answers."""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

from gen import Expected

PRECISION = 6
# A printed score may differ from the exact value by half a unit in its last
# printed digit, plus the one rounding of the float it was printed from.
TOLERANCE = Fraction(1, 2 * 10**PRECISION) + Fraction(1, 10**12)


def _field_problem(name: str, got: str, want: object) -> str | None:
    if want is None:
        return None if got == "" else f"{name}: expected empty, got {got!r}"
    if isinstance(want, Fraction):
        try:
            value = Fraction(got)
        except (ValueError, ZeroDivisionError):
            return f"{name}: {got!r} is not a number"
        decimals = got.partition(".")[2]
        if len(decimals) != PRECISION:
            return f"{name}: {got!r} is not printed with {PRECISION} decimals"
        if abs(value - want) > TOLERANCE:
            return f"{name}: got {got}, exact value is {float(want):.12f}"
        return None
    return None if got == str(want) else f"{name}: got {got!r}, want {want!r}"


def check_csv(text: str, expected: Expected) -> list[str]:
    """Problems found in a CSV output; an empty list means it is correct."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != expected.header:
        return [f"header {rows[0] if rows else None!r} != {expected.header!r}"]
    body = rows[1:]
    if len(body) != len(expected.rows):
        return [f"{len(body)} rows, expected {len(expected.rows)}"]
    problems = []
    for got_row, want_row in zip(body, expected.rows):
        if len(got_row) != len(want_row):
            problems.append(f"row {got_row!r} has {len(got_row)} fields")
            continue
        for name, got, want in zip(expected.header, got_row, want_row):
            problem = _field_problem(name, got, want)
            if problem:
                problems.append(f"{got_row[0]}: {problem}")
    return problems


def _sampled_problem(name: str, result: dict, exact: Fraction, draws: int, seed: int) -> str | None:
    if result.get("samples") != draws or result.get("seed") != seed:
        return f"{name}: samples/seed {result.get('samples')}/{result.get('seed')} != {draws}/{seed}"
    p = float(exact)
    # Six standard errors of a binomial proportion: a seeded run that lands
    # outside this is wrong, not unlucky.
    slack = 6 * math.sqrt(p * (1 - p) / draws) + 1e-9
    if abs(result["raw"] - p) > slack:
        return f"{name}: raw {result['raw']} is {abs(result['raw'] - p):.2e} from exact {p:.6f}"
    return None


def check_kernels(text: str, spec: dict, answers: dict) -> list[str]:
    """Problems in the model-kernels JSON results."""
    try:
        got = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"kernel output is not JSON: {exc}"]
    problems = []
    exact = {
        "general": (answers["people"], answers["general_raw"], answers["general_norm"]),
        "closed": (answers["counts_n"], answers["closed_raw"], answers["closed_norm"]),
    }
    for name, (n, raw, norm) in exact.items():
        result = got.get(name, {})
        if result.get("population") != n or result.get("k") != answers["k"]:
            problems.append(f"{name}: population/k {result.get('population')}/{result.get('k')}")
            continue
        for key, want in (("raw", raw), ("normalized", norm)):
            problem = _field_problem(f"{name}.{key}", f"{result[key]:.{PRECISION}f}", want)
            if problem:
                problems.append(problem)
    for name, target in (("sampled", answers["general_raw"]), ("from_counts", answers["closed_raw"])):
        problem = _sampled_problem(name, got.get(name, {}), target, spec["draws"], spec["seed"])
        if problem:
            problems.append(problem)
    return problems
