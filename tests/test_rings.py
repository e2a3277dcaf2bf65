from __future__ import annotations

import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import basis_element, multiply

import confbetti.rings as rings_module
from confbetti import (
    BasisClass,
    GradedRing,
    RingError,
    RingFormatError,
    RingValidationError,
    dual_basis,
    element,
    engine_for,
    euler_characteristic,
    parse_ring,
    ring_cp,
    ring_product,
    ring_projective_bundle_cp2,
    ring_sphere,
    ring_surface,
    serialize_ring,
    validate_ring,
)

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")


def test_cp1_shape(cp1):
    assert cp1.dimension == 2
    assert [c.degree for c in cp1.basis] == [0, 2]
    assert cp1.orientation_index == 1


def test_cp3_powers(cp3):
    x = basis_element(cp3, 1)
    x2 = multiply(cp3, x, x)
    assert x2.coefficient(2) == 1
    x3 = multiply(cp3, x2, x)
    assert x3.coefficient(3) == 1
    assert multiply(cp3, x3, x).is_zero()  # x^4 = 0 in CP^3


def test_surface_intersection_form(sigma1):
    a = basis_element(sigma1, 1)
    b = basis_element(sigma1, 2)
    t = basis_element(sigma1, 3)
    ab = multiply(sigma1, a, b)
    assert ab.coefficient(3) == 1
    ba = multiply(sigma1, b, a)
    assert ba.coefficient(3) == -1  # odd classes anticommute
    assert multiply(sigma1, a, a).is_zero()
    assert multiply(sigma1, t, t).is_zero()


def test_surface_genus2_pairing():
    s2 = ring_surface(2)
    # a_i pairs only with its own b_i
    a1, a2 = basis_element(s2, 1), basis_element(s2, 2)
    b1, b2 = basis_element(s2, 3), basis_element(s2, 4)
    assert multiply(s2, a1, b1).coefficient(5) == 1
    assert multiply(s2, a1, b2).is_zero()
    assert multiply(s2, a2, b2).coefficient(5) == 1


def test_euler_characteristics():
    assert euler_characteristic(ring_cp(3)) == 4
    assert euler_characteristic(ring_surface(2)) == -2
    assert euler_characteristic(ring_sphere(4)) == 2
    assert euler_characteristic(ring_sphere(3)) == 0


def test_product_ring_koszul():
    ring = ring_product(ring_surface(1), ring_surface(1))
    # locate the two degree-1 generators from each factor
    odd = [k for k in range(ring.size) if ring.degree(k) == 1]
    assert len(odd) == 4
    u, v = basis_element(ring, odd[0]), basis_element(ring, odd[2])
    uv = multiply(ring, u, v)
    vu = multiply(ring, v, u)
    assert uv.coeffs and vu.coeffs
    assert dict(vu.items()) == {k: -c for k, c in uv.items()}


def test_product_with_point_is_isomorphic():
    point = GradedRing(
        name="pt",
        dimension=0,
        basis=(BasisClass("1", 0),),
        products=((((0, Fraction(1)),),),),
        orientation_index=0,
    )
    validate_ring(point)
    cp2 = ring_cp(2)
    prod = ring_product(cp2, point)
    assert prod.dimension == cp2.dimension
    assert [c.degree for c in prod.basis] == [c.degree for c in cp2.basis]
    for i in range(cp2.size):
        for j in range(i, cp2.size):
            lhs = multiply(cp2, basis_element(cp2, i), basis_element(cp2, j))
            rhs = multiply(prod, basis_element(prod, i), basis_element(prod, j))
            assert dict(lhs.items()) == dict(rhs.items())


def test_projective_bundle_relation(pbundle):
    # xi^2 = +h*xi in the chosen presentation; h^3 = 0
    h = basis_element(pbundle, 1)
    xi = basis_element(pbundle, 2)
    xi2 = multiply(pbundle, xi, xi)
    hxi = multiply(pbundle, h, xi)
    assert dict(xi2.items()) == dict(hxi.items())
    h2 = multiply(pbundle, h, h)
    assert multiply(pbundle, h2, h).is_zero()


def test_pbundle_differs_from_cp1xcp2():
    bundle = ring_projective_bundle_cp2()
    split = ring_product(ring_cp(1), ring_cp(2))
    # Same additive structure (the bases differ only in ordering), different
    # multiplication -- that difference is what criterion 6 detects.
    assert sorted(c.degree for c in bundle.basis) == sorted(c.degree for c in split.basis)
    assert bundle.products != split.products


def test_dual_basis_pairs_to_unit(cp3):
    duals = dual_basis(cp3)
    for k in range(cp3.size):
        product = multiply(cp3, basis_element(cp3, k), duals[k])
        assert product.coefficient(cp3.orientation_index) == 1


def test_dual_basis_pbundle(pbundle):
    duals = dual_basis(pbundle)
    # dual of h is not a multiple of a single basis class here
    h_dual = dict(duals[1].items())
    assert len(h_dual) == 2
    for k in range(pbundle.size):
        assert multiply(pbundle, basis_element(pbundle, k), duals[k]).coefficient(5) == 1


PAIRING_THIRDS = Path(__file__).parent / "rings" / "pairing_thirds.json"  # a*a = 2/3 t, a*b = t


def test_dual_basis_inverts_a_full_pairing_block_with_a_fraction():
    ring = parse_ring(PAIRING_THIRDS.read_text())
    top = ring.orientation_index
    duals = dual_basis(ring)
    assert isinstance(duals, tuple)
    # the degree-2 block [[2/3, 1], [1, 0]] has inverse [[0, 1], [1, -2/3]]
    assert duals[1].coeffs == ((2, Fraction(1)),)
    assert duals[2].coeffs == ((1, Fraction(1)), (2, Fraction(-2, 3)))
    for k in range(ring.size):
        for j in range(ring.size):
            product = multiply(ring, basis_element(ring, j), duals[k])
            assert product.coefficient(top) == int(j == k)


def test_element_arithmetic(cp2):
    v = element(cp2, {0: Fraction(2), 1: Fraction(-1, 3)})
    assert v.coefficient(0) == 2
    assert v.coefficient(2) == 0
    w = multiply(cp2, v, basis_element(cp2, 1))
    assert w.coefficient(1) == 2
    assert w.coefficient(2) == Fraction(-1, 3)


def test_multiply_rejects_foreign_elements(cp1, cp2):
    with pytest.raises(RingError):
        multiply(cp1, basis_element(cp1, 0), basis_element(cp2, 0))


def test_serialize_round_trip(sigma2, pbundle):
    for ring in (sigma2, pbundle, ring_cp(4)):
        text = serialize_ring(ring)
        again = parse_ring(text)
        assert again == ring
        assert serialize_ring(again) == text


def test_ring_hash_is_computed_once(monkeypatch):
    calls = []

    def counting(ring):
        calls.append(ring)
        return value_hash(ring)

    value_hash = rings_module._value_hash
    monkeypatch.setattr(rings_module, "_value_hash", counting)
    ring = ring_surface(2)
    assert hash(ring) == hash(ring) == value_hash(ring)
    assert {ring: 1}[ring] == 1
    assert len(calls) == 1


def test_rings_parsed_from_one_document_share_an_engine():
    text = serialize_ring(ring_surface(2))
    first, second = parse_ring(text), parse_ring(text)
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert engine_for(first) is engine_for(second)


def test_rings_with_other_products_differ():
    import json

    doc = json.loads(serialize_ring(ring_cp(2)))
    for row in doc["products"]:
        if row[0] == 1 and row[1] == 1:
            row[2] = {"2": 2}  # x*x = 2*x2: still a valid ring, with another product
    twisted = parse_ring(json.dumps(doc))
    assert twisted.basis == ring_cp(2).basis
    assert twisted != ring_cp(2)
    assert engine_for(twisted) is not engine_for(ring_cp(2))


def test_pickled_ring_hashes_afresh_in_another_interpreter(tmp_path):
    ring = ring_surface(2)
    hash(ring)  # caches this interpreter's hash on the instance
    path = tmp_path / "ring.pickle"
    path.write_bytes(pickle.dumps(ring))
    script = (
        "import pickle, sys\n"
        "from confbetti import parse_ring, serialize_ring\n"
        "ring = pickle.loads(open(sys.argv[1], 'rb').read())\n"
        "assert hash(ring) == hash(parse_ring(serialize_ring(ring)))\n"
    )
    env = {**os.environ, "PYTHONHASHSEED": "12345"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC_DIR, env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", script, str(path)], check=True, env=env)


def test_duals_are_built_once_per_ring():
    # counts runs of dual_basis's body and of the generator images, in a fresh
    # interpreter: parsing validates the ring, which fills the cache that
    # the differential then reads
    probe = """
import sys
from confbetti import betti_table, dual_basis, parse_ring, ring_surface, serialize_ring
doc = serialize_ring(ring_surface(2))
dual_basis.cache_clear()
calls = {"dual_basis": 0, "d_generator": 0}
def watch(frame, event, arg):
    if event == "call" and frame.f_code.co_name in calls:
        calls[frame.f_code.co_name] += 1
sys.setprofile(watch)
ring = parse_ring(doc)
betti_table(ring, 1, 3, 4)
sys.setprofile(None)
print(calls["dual_basis"], calls["d_generator"] > 0)
"""
    path = os.pathsep.join(filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=path), check=True,
    )
    assert done.stdout.strip() == "1 True"


def test_parse_rejects_missing_unit_row():
    text = serialize_ring(ring_cp(1))
    import json

    doc = json.loads(text)
    doc["products"] = [p for p in doc["products"] if p[0] != 0]
    with pytest.raises(RingError):
        parse_ring(json.dumps(doc))


def test_parse_rejects_bad_top_dimension():
    import json

    doc = json.loads(serialize_ring(ring_cp(2)))
    doc["basis"].append({"label": "extra", "degree": 4})
    with pytest.raises(RingError):
        parse_ring(json.dumps(doc))


def test_validation_catches_broken_associativity():
    import json

    doc = json.loads(serialize_ring(ring_cp(3)))
    # corrupt x*x so that (x*x)*x != x*(x*x)
    for row in doc["products"]:
        if row[0] == 1 and row[1] == 1:
            row[2] = {"3": 1}
    with pytest.raises(RingValidationError):
        parse_ring(json.dumps(doc))


def test_validation_catches_associativity_with_additive_degrees():
    import json

    cube = ring_product(ring_product(ring_cp(1), ring_cp(1)), ring_cp(1))
    doc = json.loads(serialize_ring(cube))
    index = {cls["label"]: i for i, cls in enumerate(doc["basis"])}
    a, bc, abc = index["x|1|1"], index["1|x|x"], index["x|x|x"]
    # a*(bc) = 2*abc while (ab)*c = abc: degrees stay additive, and the
    # triple (a, b, c) has degree sum 6, the dimension. The triples are
    # checked in lexicographic order of their indices, so (c, b, a) fails first.
    for row in doc["products"]:
        if sorted(row[:2]) == sorted([a, bc]):
            row[2] = {str(abc): 2}
    assert (index["1|1|x"], index["1|x|1"], a) == (1, 2, 4)
    with pytest.raises(RingValidationError, match=r"^associativity fails on \(y_1, y_2, y_4\)$"):
        parse_ring(json.dumps(doc))


def test_validation_catches_a_broken_right_unit():
    cp2 = ring_cp(2)
    products = [list(row) for row in cp2.products]
    products[1][0] = ((1, Fraction(2)),)  # x*1 = 2x, while 1*x = x
    broken = GradedRing(
        name="cp2-broken-unit",
        dimension=cp2.dimension,
        basis=cp2.basis,
        products=tuple(tuple(row) for row in products),
        orientation_index=cp2.orientation_index,
    )
    with pytest.raises(RingValidationError, match="unit law fails: y_1\\*y_0"):
        validate_ring(broken)


def test_validation_catches_odd_square():
    import json

    doc = json.loads(serialize_ring(ring_surface(1)))
    # Zero products are omitted from the document, so the illegal square of
    # the odd class a1 has to be appended as a new row.
    doc["products"].append([1, 1, {"3": 2}])
    with pytest.raises(RingValidationError):
        parse_ring(json.dumps(doc))


def test_validation_catches_degenerate_pairing():
    import json

    doc = json.loads(serialize_ring(ring_surface(1)))
    # kill the a*b pairing so the degree-1 block is singular
    doc["products"] = [p for p in doc["products"] if not (p[0] == 1 and p[1] == 2)]
    with pytest.raises(RingError):
        parse_ring(json.dumps(doc))


def test_format_errors_are_ring_errors():
    assert issubclass(RingFormatError, RingError)
    assert issubclass(RingValidationError, RingError)
    with pytest.raises(RingFormatError):
        parse_ring("not json")
