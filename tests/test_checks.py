"""The check nets' random generators, pinned by digest: a fixed seed must
draw the same cases, in the same order, however the generators are
written."""

import hashlib
import random

import pytest

from groupoid_homology import checks


def _skeleton(sk):
    return (sk.vertices, tuple(m.to_rows() for m in sk.matrices), sk.allow_sources)


def _draws(tag, draw, count):
    """count draws from one stream, then one more raw draw from it, so
    the digest also pins how much of the stream the draws consumed."""
    rng = random.Random(f"generator-pin/{tag}")
    out = [draw(rng) for _ in range(count)]
    out.append(rng.getrandbits(64))
    return out


def _commuting_family(rng):
    k, m = rng.randint(1, 3), rng.randint(1, 4)
    return [a.to_rows() for a in checks._random_commuting_family(rng, k, m)]


GENERATORS = {
    "random_skeleton()": lambda: _draws(
        "skeleton", lambda rng: _skeleton(checks._random_skeleton(rng)), 300),
    "random_skeleton(max_vertices=2)": lambda: _draws(
        "skeleton-2", lambda rng: _skeleton(checks._random_skeleton(rng, max_vertices=2)),
        300),
    "random_skeleton(max_vertices=2, max_k=1)": lambda: _draws(
        "skeleton-2-1",
        lambda rng: _skeleton(checks._random_skeleton(rng, max_vertices=2, max_k=1)), 300),
    "random_commuting_family": lambda: _draws("family", _commuting_family, 300),
    "perf_skeleton": lambda: [_skeleton(checks.perf_skeleton(s, n))
                              for s, n in [(0, 4), (1, 5), (2, 8), (0, 12), (0, 40),
                                           (1, 55)]],
    "run_all(7, 3)": lambda: [(r.name, r.cases, r.failures, r.findings)
                              for r in checks.run_all(7, 3)],
}

# sha256 of each generator's output, pinned before the random matrix
# families were each given one writer; the draws must not move
GENERATOR_DIGESTS = {
    "random_skeleton()":
        "1edf174fa5560b1eb6497af730d357d74c8147ef981fc29f563fcc28e446fe14",
    "random_skeleton(max_vertices=2)":
        "628b104416ccfae6427c0eb3e05cd22e546192f2967f48846263469660511718",
    "random_skeleton(max_vertices=2, max_k=1)":
        "37cd66883ddeed1181b5450f78981c535972a57f393f72892c45ffce3b6869af",
    "random_commuting_family":
        "097018a41f083093690e5ddfafeeec04fc11c20aaf4b3b287bd3fd7fc3d7025c",
    "perf_skeleton":
        "6c86bb687828fdce0f5def9054bb6b1be00bbb30953cb3c41f40af6595280533",
    "run_all(7, 3)":
        "1cd7c499ba84159160812ada398e3a5128ae90fcf5ecfd6f27620c06cb9e0906",
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generators_draw_pinned_cases(name):
    out = GENERATORS[name]()
    assert hashlib.sha256(repr(out).encode()).hexdigest() == GENERATOR_DIGESTS[name]
