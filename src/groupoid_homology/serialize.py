"""Instance-file schemas and deterministic JSON rendering.

Two input kinds are accepted, both as single JSON objects:

  {"kind": "kgraph", "k": 1, "vertices": ["u", "v"],
   "matrices": [[5, 2, 2, 3]], "allow_sources": false}

  {"kind": "zk_action", "k": 2, "points": 4,
   "permutations": [[1, 0, 2, 3], [0, 1, 3, 2]]}

Each matrix is a row-major flat list of |vertices|^2 integers, one list
per color. Output payloads follow

  {"k": K,
   "homology": [{"rank": r, "torsion": [d, ...]}, ...],
   "ktheory": {"k0": {...}, "k1": {...}, "method": "..."},
   "notes": ["...", ...]}

with keys always emitted in exactly that order ("ktheory" only when the
command computed it). All emission is UTF-8 JSON with two-space indent
and no trailing whitespace, so byte-identical inputs give byte-identical
outputs. Integers are emitted exactly however long they are; only
parsing keeps Python's limit on the digits of an integer literal.
"""

from __future__ import annotations

import json
import sys

from .abelian import FgAbGroup, HomologyProfile, _all_digits
from .dr_finite import ZkAction
from .errors import DimensionMismatch, SchemaError, SkeletonInvalid
from .exact_linalg import IntMatrix
from .kgraph import KGraphSkeleton, KTheoryResult


def _require_key(obj: dict, key: str):
    if key not in obj:
        raise SchemaError(f"{key}: required field is missing")
    return obj[key]


def _as_int(value, where: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{where}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise SchemaError(f"{where}: expected an integer >= {minimum}, got {value}")
    return value


def _as_list(value, where: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{where}: expected a list, got {type(value).__name__}")
    return value


def _reject_unknown(obj: dict, allowed, kind: str):
    for key in obj:
        if key not in allowed:
            raise SchemaError(f"{key}: unexpected field in a {kind} instance")


def _parse_kgraph(obj: dict) -> KGraphSkeleton:
    _reject_unknown(obj, {"kind", "k", "vertices", "matrices", "allow_sources"}, "kgraph")
    k = _as_int(_require_key(obj, "k"), "k", minimum=1)
    vertices = _as_list(_require_key(obj, "vertices"), "vertices")
    if not vertices:
        raise SchemaError("vertices: need at least one vertex label")
    for idx, v in enumerate(vertices):
        if not isinstance(v, str):
            raise SchemaError(f"vertices[{idx}]: expected a string, got {v!r}")
    n = len(vertices)
    matrices = _as_list(_require_key(obj, "matrices"), "matrices")
    if len(matrices) != k:
        raise SchemaError(f"matrices: expected {k} matrices for k={k}, got {len(matrices)}")
    parsed = []
    for i, flat in enumerate(matrices):
        flat = _as_list(flat, f"matrices[{i}]")
        if len(flat) != n * n:
            raise SchemaError(
                f"matrices[{i}]: expected {n * n} row-major entries for "
                f"{n} vertices, got {len(flat)}"
            )
        try:
            parsed.append(IntMatrix(n, n, flat))
        except TypeError:
            j = next(j for j, x in enumerate(flat) if type(x) is not int)
            raise SchemaError(
                f"matrices[{i}][{j}]: expected an integer, got {flat[j]!r}"
            ) from None
    allow_sources = obj.get("allow_sources", False)
    if not isinstance(allow_sources, bool):
        raise SchemaError(
            f"allow_sources: expected true or false, got {allow_sources!r}"
        )
    # the record holds the label rules (UTF-8, no repeats); its finding is the message
    try:
        return KGraphSkeleton(tuple(vertices), tuple(parsed), allow_sources)
    except SkeletonInvalid as e:
        raise SchemaError(e.findings[0]) from None


def _parse_zk_action(obj: dict) -> ZkAction:
    _reject_unknown(obj, {"kind", "k", "points", "permutations"}, "zk_action")
    k = _as_int(_require_key(obj, "k"), "k", minimum=0)
    points = _as_int(_require_key(obj, "points"), "points", minimum=0)
    perms = _as_list(_require_key(obj, "permutations"), "permutations")
    if len(perms) != k:
        raise SchemaError(
            f"permutations: expected {k} permutations for k={k}, got {len(perms)}"
        )
    # ZkAction refuses every fault; the scan below names the first one
    try:
        return ZkAction(points, perms)
    except (TypeError, DimensionMismatch):
        pass
    for i, p in enumerate(perms):
        p = _as_list(p, f"permutations[{i}]")
        if len(p) != points:
            raise SchemaError(
                f"permutations[{i}]: expected {points} images, got {len(p)}"
            )
        for j, v in enumerate(p):
            if not 0 <= _as_int(v, f"permutations[{i}][{j}]") < points:
                raise SchemaError(
                    f"permutations[{i}][{j}]: value {v} outside 0..{points - 1}"
                )
    return ZkAction(points, perms)


def parse_instance(obj) -> KGraphSkeleton | ZkAction:
    """Parse a decoded JSON object into an instance, or raise SchemaError."""
    if not isinstance(obj, dict):
        raise SchemaError(f"top level: expected an object, got {type(obj).__name__}")
    kind = _require_key(obj, "kind")
    if kind == "kgraph":
        return _parse_kgraph(obj)
    if kind == "zk_action":
        return _parse_zk_action(obj)
    raise SchemaError(f"kind: expected 'kgraph' or 'zk_action', got {kind!r}")


def load_instance(path: str) -> KGraphSkeleton | ZkAction:
    """Read and parse an instance file, with line/field diagnostics."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise SchemaError(
                f"{path}: not UTF-8: byte {e.object[e.start]:#04x} at offset {e.start}"
            ) from e
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(
            f"{path}: invalid JSON at line {e.lineno} column {e.colno}: {e.msg}"
        ) from e
    except ValueError as e:
        # json.loads raises no other ValueError: an integer literal has
        # more digits than the interpreter converts from a string
        raise SchemaError(
            f"{path}: an integer literal has more than "
            f"{sys.get_int_max_str_digits()} digits"
        ) from e
    except RecursionError as e:
        raise SchemaError(f"{path}: JSON nested too deeply") from e
    return parse_instance(obj)


def instance_to_dict(x) -> dict:
    """Serialize an instance; parse_instance inverts this exactly."""
    if isinstance(x, KGraphSkeleton):
        return {
            "kind": "kgraph",
            "k": x.k,
            "vertices": list(x.vertices),
            "matrices": [list(m.entries) for m in x.matrices],
            "allow_sources": x.allow_sources,
        }
    if isinstance(x, ZkAction):
        return {
            "kind": "zk_action",
            "k": x.k,
            "points": x.points,
            "permutations": [list(p) for p in x.perms],
        }
    raise TypeError(f"not an instance: {type(x).__name__}")


def group_to_dict(g: FgAbGroup) -> dict:
    return {"rank": g.free_rank, "torsion": list(g.torsion)}


def ktheory_to_dict(kt: KTheoryResult) -> dict:
    return {
        "k0": group_to_dict(kt.k0),
        "k1": group_to_dict(kt.k1),
        "method": kt.method,
    }


def output_dict(
    k: int,
    profile: HomologyProfile | None = None,
    ktheory: KTheoryResult | None = None,
    notes=(),
) -> dict:
    out = {"k": k}
    if profile is not None:
        out["homology"] = [group_to_dict(g) for g in profile.groups]
    if ktheory is not None:
        out["ktheory"] = ktheory_to_dict(ktheory)
    out["notes"] = list(notes)
    return out


def dumps(obj) -> str:
    with _all_digits():
        return json.dumps(obj, indent=2, ensure_ascii=False)


def _render_group_dict(d: dict) -> str:
    return FgAbGroup(d["rank"], tuple(d["torsion"])).describe()


def render_output_text(payload: dict) -> str:
    """Human-readable view of an output payload, line per group."""
    lines = [f"k = {payload['k']}"]
    for p, d in enumerate(payload.get("homology", [])):
        lines.append(f"H_{p} = {_render_group_dict(d)}")
    kt = payload.get("ktheory")
    if kt:
        lines.append(f"K_0 = {_render_group_dict(kt['k0'])}  [{kt['method']}]")
        lines.append(f"K_1 = {_render_group_dict(kt['k1'])}  [{kt['method']}]")
    notes = payload.get("notes", [])
    if notes:
        lines.append("notes:")
        lines.extend(f"  - {line}" for line in notes)
    return "\n".join(lines)
