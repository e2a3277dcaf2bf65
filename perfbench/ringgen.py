"""Seeded ring documents for the benchmark workloads.

Seed 0 is the registry ring itself. Seed k >= 1 renames the basis by a
seeded signed permutation of the classes within each degree strictly between
0 and the dimension; the unit and the orientation class stay fixed. The
result is isomorphic to the registry ring, so its Betti table is the same and
the golden tables still apply, while every matrix the engine builds is
permuted and re-signed.
"""
from __future__ import annotations

import dataclasses
import random

from confbetti.rings import GradedRing, serialize_ring
from confbetti.spaces import resolve_space


def permuted_ring(ring: GradedRing, seed: int) -> GradedRing:
    """The ring in the basis e'_{perm[a]} = sign[a] * e_a drawn from the seed."""
    size = ring.size
    perm = list(range(size))
    sign = [1] * size
    if seed:
        rng = random.Random(seed)
        by_degree: dict[int, list[int]] = {}
        for index, cls in enumerate(ring.basis):
            if 0 < cls.degree < ring.dimension:
                by_degree.setdefault(cls.degree, []).append(index)
        for degree in sorted(by_degree):
            old = by_degree[degree]
            new = rng.sample(old, len(old))
            for a, b in zip(old, new):
                perm[a] = b
                sign[a] = rng.choice((1, -1))
    basis = [None] * size
    for a, cls in enumerate(ring.basis):
        basis[perm[a]] = cls
    products = [[()] * size for _ in range(size)]
    for a in range(size):
        for b in range(size):
            products[perm[a]][perm[b]] = tuple(
                sorted(
                    (perm[k], sign[a] * sign[b] * sign[k] * c)
                    for k, c in ring.products[a][b]
                )
            )
    return dataclasses.replace(
        ring,
        basis=tuple(basis),
        products=tuple(tuple(row) for row in products),
        orientation_index=perm[ring.orientation_index],
    )


def ring_document(space: str, seed: int) -> str:
    """JSON ring document for a named space under the given seed."""
    return serialize_ring(permuted_ring(resolve_space(space), seed))
