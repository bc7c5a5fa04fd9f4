"""Output checker for benchmark calls.

Every expectation is computed here from the instance by a route other
than the command under test: kgraph homology from the invariant factors
of the koszul.build boundaries (H_p = Z^(n_p - r_p - r_(p+1)) plus the
invariant factors > 1 of the degree-(p+1) boundary, Munkres, Elements
of Algebraic Topology, section 11), Z^k-action homology from the orbit
oracle, cubical homology from connected components and edge counts, and
products from a plain Kronecker product. At the default seed the exact
stdout bytes must also match the committed golden file.
"""

from __future__ import annotations

import json
from pathlib import Path

from groupoid_homology import koszul
from groupoid_homology.abelian import FgAbGroup, HomologyProfile, direct_sum
from groupoid_homology.dr_finite import ZkAction, orbit_oracle
from groupoid_homology.exact_linalg import IntMatrix, invariant_factors
from groupoid_homology.kgraph import KGraphSkeleton
from groupoid_homology.serialize import group_to_dict

GOLDEN_PATH = Path(__file__).with_name("golden.json")


def munkres_profile(sk: KGraphSkeleton) -> HomologyProfile:
    """Homology from ranks and invariant factors of each boundary."""
    c = koszul.build(sk.k, [m.transpose() for m in sk.matrices], m=len(sk.vertices))
    factors = [invariant_factors(c.boundary(p)) for p in range(c.k + 2)]
    ranks = [sum(1 for d in f if d) for f in factors]
    groups = tuple(
        FgAbGroup.from_orders(
            c.dim(p) - ranks[p] - ranks[p + 1], [d for d in factors[p + 1] if d > 1]
        )
        for p in range(c.k + 1)
    )
    return HomologyProfile(groups, c.k)


def _homology_groups(inst) -> tuple[FgAbGroup, ...]:
    if isinstance(inst, ZkAction):
        return orbit_oracle(inst).groups
    return munkres_profile(inst).groups


def _ktheory(groups, k: int) -> dict:
    if k == 1:
        k0, k1, method = groups[0], groups[1], "rank1"
    elif k == 2:
        k0, k1, method = direct_sum(groups[0], groups[2]), groups[1], "rank2"
    else:
        k0, k1 = groups[0], groups[1]
        for p in range(2, k + 1):
            if p % 2:
                k1 = direct_sum(k1, groups[p])
            else:
                k0 = direct_sum(k0, groups[p])
        method = "conjectural-k>=3"
    return {"k0": group_to_dict(k0), "k1": group_to_dict(k1), "method": method}


def _cubical(sk: KGraphSkeleton) -> list[dict]:
    n = len(sk.vertices)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    edges = 0
    for v in range(n):
        for w in range(n):
            count = sk.matrices[0][v, w]
            edges += count
            if count:
                parent[find(v)] = find(w)
    components = sum(1 for x in range(n) if find(x) == x)
    return [{"rank": components, "torsion": []},
            {"rank": edges - n + components, "torsion": []}]


def _kron(x, y) -> list[int]:
    """Row-major entries of the Kronecker product of two square row lists."""
    nb = len(y)
    n = len(x) * nb
    return [x[i // nb][j // nb] * y[i % nb][j % nb] for i in range(n) for j in range(n)]


def _eye(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _product_dict(a: KGraphSkeleton, b: KGraphSkeleton) -> dict:
    na, nb = len(a.vertices), len(b.vertices)
    return {
        "kind": "kgraph",
        "k": a.k + b.k,
        "vertices": [f"({u},{v})" for u in a.vertices for v in b.vertices],
        "matrices": [_kron(m.to_rows(), _eye(nb)) for m in a.matrices]
        + [_kron(_eye(na), m.to_rows()) for m in b.matrices],
        "allow_sources": a.allow_sources or b.allow_sources,
    }


def _product_skeleton(a: KGraphSkeleton, b: KGraphSkeleton) -> KGraphSkeleton:
    d = _product_dict(a, b)
    n = len(d["vertices"])
    return KGraphSkeleton(tuple(d["vertices"]),
                          tuple(IntMatrix(n, n, m) for m in d["matrices"]))


def expected_payload(call) -> dict:
    """Fields the parsed stdout of a successful call must carry, by value."""
    kind = call.kind
    if kind == "validate":
        return {"kind": "kgraph", "valid": True, "findings": []}
    if kind == "product":
        return _product_dict(*call.insts)
    if kind == "cubical":
        return {"homology": _cubical(call.insts[0])}
    if kind == "kunneth":
        # Kunneth is a theorem for these complexes: the product's own homology
        inst = _product_skeleton(*call.insts)
        return {"homology": [group_to_dict(g) for g in _homology_groups(inst)]}
    inst = call.insts[0]
    groups = _homology_groups(inst)
    if kind == "homology":
        return {"k": inst.k, "homology": [group_to_dict(g) for g in groups]}
    if kind == "ktheory":
        return {"ktheory": _ktheory(groups, inst.k)}
    if kind == "hk-report":
        return {"homology": [group_to_dict(g) for g in groups],
                "ktheory": _ktheory(groups, inst.k)}
    raise ValueError(f"no expectation for call kind {kind!r}")


class Checker:
    """Judges (exit code, stdout) of each call; expectations are cached per call id."""

    def __init__(self, golden: dict | None = None):
        self.golden = golden
        self._expected: dict[str, dict] = {}

    def failure(self, call, code: int, out: str) -> str | None:
        """None when the output is right, else a one-line reason."""
        if code != call.exit:
            return f"exit code {code}, expected {call.exit}"
        if self.golden is not None:
            want = self.golden.get(call.id)
            if want is None:
                return "no golden output recorded"
            if want != {"exit": code, "stdout": out}:
                return "stdout differs from the golden bytes"
        if call.kind == "error":
            return None if out == "" else "stdout should be empty on an error exit"
        if call.kind == "check":
            want = f"check: PASS (seed {call.argv[2]})"
            last = out.rstrip("\n").rsplit("\n", 1)[-1]
            return None if last == want else f"last line {last!r}, expected {want!r}"
        try:
            payload = json.loads(out)
        except json.JSONDecodeError:
            return "stdout is not one JSON document"
        if call.kind == "invalid-validate":
            ok = payload.get("valid") is False and payload.get("findings")
            return None if ok else "invalid instance was not reported with findings"
        if call.id not in self._expected:
            self._expected[call.id] = expected_payload(call)
        expected = self._expected[call.id]
        for key, value in expected.items():
            if payload.get(key) != value:
                return f"{key} is {payload.get(key)!r}, expected {value!r}"
        return None


def load_golden(workload: str, seed: int, default_seed: int) -> dict | None:
    """Golden stdout per call id, used only at the default seed."""
    if seed != default_seed:
        return None
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8")).get(workload, {})
