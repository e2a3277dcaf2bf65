"""Named cohomology rings selectable from the command line."""
from __future__ import annotations

import re
from collections.abc import Callable, Iterator, Mapping
from functools import partial
from math import prod

from .rings import (
    GradedRing,
    ring_cp,
    ring_product,
    ring_projective_bundle_cp2,
    ring_sphere,
    ring_surface,
)

# Most basis classes a dynamic name or product may have. Building a ring
# validates associativity, which is cubic in the class count (ring_cp(80) takes
# about 18 s), so a larger name is refused before anything is built.
MAX_SPACE_CLASSES = 32


class _Registry(Mapping[str, GradedRing]):
    """Read-only map of the built-in names; each ring is built on its first lookup."""

    def __init__(self, builders: dict[str, Callable[[], GradedRing]]):
        self._builders = builders
        self._rings: dict[str, GradedRing] = {}

    def __getitem__(self, name: str) -> GradedRing:
        ring = self._rings.get(name)
        if ring is None:
            ring = self._rings[name] = self._builders[name]()
        return ring

    def __contains__(self, name: object) -> bool:
        return name in self._builders

    def __iter__(self) -> Iterator[str]:
        return iter(self._builders)

    def __len__(self) -> int:
        return len(self._builders)


REGISTRY: Mapping[str, GradedRing] = _Registry(
    {
        **{f"cp{k}": partial(ring_cp, k) for k in range(1, 7)},
        **{f"sigma{g}": partial(ring_surface, g) for g in range(1, 5)},
        "cp1xcp1": lambda: ring_product(ring_cp(1), ring_cp(1)),
        "cp1xcp1xcp1": lambda: ring_product(ring_product(ring_cp(1), ring_cp(1)), ring_cp(1)),
        "cp1xcp2": lambda: ring_product(ring_cp(1), ring_cp(2)),
        "pbundle_cp2": ring_projective_bundle_cp2,
        "sigma1xcp1": lambda: ring_product(ring_surface(1), ring_cp(1)),
    }
)


# name pattern, basis classes for the number in the name, builder
_FAMILIES = (
    (re.compile(r"^cp([1-9]\d*)$"), lambda k: k + 1, ring_cp),
    (re.compile(r"^sigma(\d+)$"), lambda g: 2 * g + 2, ring_surface),
    (re.compile(r"^s([1-9]\d*)$"), lambda d: 2, ring_sphere),
)


def _factor(name: str) -> tuple[int, Callable[[], GradedRing]] | None:
    """Basis class count of a factor name and a builder for its ring; None if unknown."""
    if name in REGISTRY:
        ring = REGISTRY[name]
        return ring.size, lambda: ring
    for pattern, classes, build in _FAMILIES:
        if m := pattern.match(name):
            try:
                number = int(m.group(1))
            except ValueError:  # more digits than int() converts
                return None
            return classes(number), partial(build, number)
    return None


def resolve_space(name: str) -> GradedRing:
    """Look up a registry name, a dynamic family, or an x-joined product.

    Raises KeyError for an unknown name, and for a name whose ring would have
    more than MAX_SPACE_CLASSES basis classes.
    """
    factors = [_factor(name)]
    if factors[0] is None and "x" in name:
        factors = [_factor(part) for part in name.split("x")]
    if None in factors:
        known = ", ".join(sorted(REGISTRY))
        raise KeyError(
            f"unknown space {name!r}; built-ins: {known}; also cpK, sigmaG, sK, "
            "and x-joined products such as cp1xs4"
        )
    classes = prod(count for count, _ in factors)
    if classes > MAX_SPACE_CLASSES:
        raise KeyError(
            f"space {name!r} would have {classes} basis classes, more than "
            f"MAX_SPACE_CLASSES = {MAX_SPACE_CLASSES}"
        )
    product = factors[0][1]()
    for _, build in factors[1:]:
        product = ring_product(product, build())
    return product
