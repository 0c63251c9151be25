"""Versioned JSON artifacts: one checker, one reader, one writer.

Every schema the repo writes (``repro-lint/v2``, ``repro-obs/v1``,
``repro-doctor/v2``, ``repro-events/v3``, ``repro-profiles/v2``,
``repro-telemetry/v1``) is a *spec* -- plain data defined next to its
writer -- and :func:`check` walks a document against it.  A spec is
built from:

* a Python type: ``int`` (never a ``bool``), ``float`` (a JSON number:
  ``int`` or ``float``, never a ``bool``), ``str``, ``bool``, ``dict``
  (any object), ``list`` (any list);
* a dict literal: an *open* object whose listed keys are required and
  whose unlisted keys are allowed;
* markers: :class:`Maybe` (a key that may be absent or null),
  :class:`ListOf` (optionally non-empty), :class:`MapOf` (an object of
  any keys mapping to one spec), :class:`Const` and :class:`OneOf`;
* one predicate hook, :class:`Where`, for rules types cannot say.

Problems read ``path: expected X`` with dotted, indexed paths
(``summary.requests``, ``tail.by_shape[0]``, ``shapes['s'].compile.count``).

Stdlib-only leaf, like the rest of :mod:`repro.obs`.
"""

from __future__ import annotations

import json
import os
import sys
import threading
from dataclasses import dataclass
from typing import Any, Callable, List, Tuple

Spec = Any


@dataclass(frozen=True)
class Maybe:
    spec: Spec
    null: bool = True  # False: the key may be absent but never null


@dataclass(frozen=True)
class ListOf:
    item: Spec
    non_empty: bool = False


@dataclass(frozen=True)
class MapOf:
    value: Spec


@dataclass(frozen=True)
class Const:
    value: object


@dataclass(frozen=True)
class OneOf:
    values: Tuple[object, ...]


@dataclass(frozen=True)
class Where:
    """``spec``, then ``test(value)``; ``problem`` when the test fails.
    The test runs only on a value that already matches ``spec``."""

    spec: Spec
    test: Callable[[Any], bool]
    problem: str


_TYPE_NAMES = {int: "int", float: "number", str: "str", bool: "bool",
               dict: "object", list: "list"}


def _matches(value: object, kind: type) -> bool:
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def _walk(spec: Spec, value: object, path: str, out: List[str]) -> None:
    if isinstance(spec, type):
        if not _matches(value, spec):
            out.append(f"{path}: expected {_TYPE_NAMES[spec]}")
    elif isinstance(spec, dict):
        if not isinstance(value, dict):
            out.append(f"{path}: expected object")
            return
        for key, sub in spec.items():
            where = f"{path}.{key}" if path else key
            if isinstance(sub, Maybe):
                if key not in value or (sub.null and value[key] is None):
                    continue
                sub = sub.spec
            elif key not in value:
                out.append(f"{where}: missing" if path
                           else f"missing top-level key {key!r}")
                continue
            _walk(sub, value[key], where, out)
    elif isinstance(spec, ListOf):
        if not isinstance(value, list) or (spec.non_empty and not value):
            out.append(f"{path}: expected {'non-empty ' * spec.non_empty}list")
            return
        for i, item in enumerate(value):
            _walk(spec.item, item, f"{path}[{i}]", out)
    elif isinstance(spec, MapOf):
        if not isinstance(value, dict):
            out.append(f"{path}: expected object")
            return
        for key, item in value.items():
            _walk(spec.value, item, f"{path}[{key!r}]", out)
    elif isinstance(spec, Const):
        if value != spec.value:
            out.append(f"{path}: expected {spec.value!r}, got {value!r}")
    elif isinstance(spec, OneOf):
        if value not in spec.values:
            out.append(f"{path}: expected one of {spec.values}, got {value!r}")
    elif isinstance(spec, Where):
        before = len(out)
        _walk(spec.spec, value, path, out)
        if len(out) == before and not spec.test(value):
            out.append(f"{path}: {spec.problem}")
    else:
        raise TypeError(f"not a spec: {spec!r}")


def check(spec: Spec, doc: object, what: str) -> List[str]:
    """Every problem that makes ``doc`` invalid under ``spec`` (empty =
    ok); ``what`` names the document when its root is not an object."""
    if isinstance(spec, dict) and not isinstance(doc, dict):
        return [f"{what} is not an object"]
    problems: List[str] = []
    _walk(spec, doc, "", problems)
    return problems


# -- reading and writing ------------------------------------------------------


class ArtifactError(ValueError):
    """An artifact could not be read or is not what it claims to be."""


def read_json(path: str, spec: Spec, what: str) -> Any:
    """The document at ``path``, checked against ``spec``; raises
    :class:`ArtifactError` when it cannot be read or does not match."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ArtifactError(f"unreadable {what} {path!r}: {exc}") from exc
    problems = check(spec, doc, what)
    if problems:
        raise ArtifactError(f"invalid {what} {path!r}: {'; '.join(problems[:3])}")
    return doc


def _dumps(doc: object) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


def write_json_atomic(path: str, doc: object) -> str:
    """Write ``doc`` to ``path`` through a temp file and a rename, so a
    reader never sees half a document; returns ``path``."""
    tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(_dumps(doc) + "\n")
    os.replace(tmp, path)
    return path


# -- the CLIs' report flags ---------------------------------------------------


def add_report_flags(parser, schema: str) -> None:
    """``--json`` / ``--check`` / ``--out`` for a CLI that builds one
    ``schema`` report."""
    parser.add_argument("--json", action="store_true",
                        help=f"emit the {schema} report to stdout")
    parser.add_argument("--check", action="store_true",
                        help=f"validate the report against {schema}; "
                        "exit 1 on problems")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="also write the JSON report to a file")


def finish_report(
    args, report: dict, validate: Callable[[object], List[str]],
    show: Callable[[dict], None],
) -> int:
    """Print ``report`` (JSON with ``--json``, else ``show(report)``),
    write it to ``--out`` and, with ``--check``, validate it; returns 1
    on schema problems, else 0."""
    if args.json:
        print(_dumps(report))
    else:
        show(report)
    if args.out:
        write_json_atomic(args.out, report)
    if not args.check:
        return 0
    problems = validate(report)
    for problem in problems:
        print(f"schema violation: {problem}", file=sys.stderr)
    if problems:
        return 1
    print("schema ok", file=sys.stderr)
    return 0

