"""Bundled reference examples: problems, known-good code tables, and the
expected values used by the `reproduce` command and the regression tests."""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib.resources import files
from pathlib import Path
from typing import Any, Sequence

from .codec import SystematicEncoding
from .drm import Problem
from .errors import InputError
from .formats import load_problem_file
from .space import Space, Vec

EXAMPLE_IDS = ("ex1", "ex2", "ex3", "ex4", "ex5", "ex6")


def data_root() -> Path:
    return Path(str(files("gfcpc").joinpath("data")))


@dataclass(frozen=True)
class ExampleBundle:
    exid: str
    problem: Problem
    tables: dict[str, Any]

    @property
    def space(self) -> Space:
        return self.problem.space


def load_example(exid: str) -> ExampleBundle:
    if exid not in EXAMPLE_IDS:
        raise InputError(f"unknown example {exid!r}; choose from {', '.join(EXAMPLE_IDS)}")
    root = data_root() / exid
    problem, _ = load_problem_file(root / "problem.txt")
    tables: dict[str, Any] = {}
    for name in ("tables.json", "drm.json"):
        f = root / name
        if f.exists():
            tables.update(json.loads(f.read_text(encoding="utf-8")))
    return ExampleBundle(exid, problem, tables)


def encoding_from_rows(space: Space, rows: Sequence[Sequence[Any]]) -> SystematicEncoding:
    """Build an encoding from table rows of block members (or one message) and
    one or more parity segments, concatenated left to right."""
    parity: dict[Vec, Vec] = {}
    r = None
    for row in rows:
        head, segments = row[0], row[1:]
        members = [head] if isinstance(head, str) else list(head)
        p: Vec = ()
        for seg in segments:
            p = p + tuple(int(ch) for ch in seg)
        if r is None:
            r = len(p)
        elif len(p) != r:
            raise InputError("table rows have inconsistent parity lengths")
        for text in members:
            parity[space.parse(text)] = p
    return SystematicEncoding(space, r or 0, parity)
