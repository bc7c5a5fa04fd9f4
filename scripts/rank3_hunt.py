"""Hunt for rank-3 K-theory candidates where the homology sums disagree.

For k = 3 the library only offers a conjectural K-theory (the even/odd
homology sums, opt-in via allow_conjectural). This script builds k = 3
skeletons as products of a rank-1 and a rank-2 factor, where both factor
K-theories are established, composes the factor K-groups with the graded
tensor/Tor rule, and compares that against the conjectural answer for
the product. A mismatch is a candidate for human review, not a
refutation: the composition rule pins the answer down only up to a
group extension, so candidates need a second look by hand.

Usage: python3 scripts/rank3_hunt.py [--seed N] [--cases N] [--verbose]
"""

import argparse
import random

from groupoid_homology.abelian import FgAbGroup, direct_sum, tensor, tor
from groupoid_homology.exact_linalg import IntMatrix
from groupoid_homology.kgraph import KGraphSkeleton, ktheory, product, validate


def random_matrix_family(rng: random.Random, n: int, k: int) -> tuple[IntMatrix, ...]:
    """Commuting nonnegative family: polynomials in one base matrix."""
    base = IntMatrix.from_rows(
        [[rng.randint(0, 2) for _ in range(n)] for _ in range(n)]
    )
    return tuple(
        rng.randint(1, 3) * IntMatrix.identity(n) + rng.randint(0, 2) * base
        for _ in range(k)
    )


def random_skeleton(rng: random.Random, k: int) -> KGraphSkeleton:
    while True:
        n = rng.randint(1, 2)
        sk = KGraphSkeleton(
            tuple(f"v{i}" for i in range(n)), random_matrix_family(rng, n, k)
        )
        if not validate(sk):
            return sk


def composed_ktheory(a, b) -> tuple[FgAbGroup, FgAbGroup]:
    """Graded composition of factor K-groups (tensor terms plus Tor terms)."""
    k0 = direct_sum(tensor(a.k0, b.k0), tensor(a.k1, b.k1),
                    tor(a.k0, b.k1), tor(a.k1, b.k0))
    k1 = direct_sum(tensor(a.k0, b.k1), tensor(a.k1, b.k0),
                    tor(a.k0, b.k0), tor(a.k1, b.k1))
    return k0, k1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--cases", type=int, default=200)
    ap.add_argument("--verbose", action="store_true",
                    help="print every case, not just candidates")
    args = ap.parse_args()

    rng = random.Random(args.seed)
    candidates = 0
    for idx in range(args.cases):
        f1 = random_skeleton(rng, 1)
        f2 = random_skeleton(rng, 2)
        prod = product(f1, f2)
        conj = ktheory(prod, allow_conjectural=True)
        expected_k0, expected_k1 = composed_ktheory(ktheory(f1), ktheory(f2))
        agree = conj.k0 == expected_k0 and conj.k1 == expected_k1
        if not agree:
            candidates += 1
        if args.verbose or not agree:
            tag = "agree" if agree else "CANDIDATE"
            print(f"case {idx} [{tag}]")
            print(f"  factor 1: {f1.vertices} {[m.to_rows() for m in f1.matrices]}")
            print(f"  factor 2: {f2.vertices} {[m.to_rows() for m in f2.matrices]}")
            print(f"  conjectural: K_0 = {conj.k0.describe()}, "
                  f"K_1 = {conj.k1.describe()}")
            print(f"  composed:    K_0 = {expected_k0.describe()}, "
                  f"K_1 = {expected_k1.describe()}")
    print(f"hunt: {args.cases} products, {candidates} candidates "
          f"(seed {args.seed})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
