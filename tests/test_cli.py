from __future__ import annotations

import gc
import importlib
import json
import os
import subprocess
import sys
import tracemalloc
import types
from fractions import Fraction
from pathlib import Path

import pytest

import confbetti
import confbetti.engine as engine_module
from confbetti import (
    assemble_matrix,
    betti_table,
    d_monomial,
    engine_for,
    enumerate_basis,
    format_monomial,
    parse_ring,
    ring_cp,
    ring_product,
    ring_sphere,
    ring_surface,
    serialize_ring,
)
from confbetti.cli import main
from confbetti.spaces import REGISTRY, resolve_space

SPACES_OUTPUT = """\
cp1  dimension=2  basis=2
cp1xcp1  dimension=4  basis=4
cp1xcp1xcp1  dimension=6  basis=8
cp1xcp2  dimension=6  basis=6
cp2  dimension=4  basis=3
cp3  dimension=6  basis=4
cp4  dimension=8  basis=5
cp5  dimension=10  basis=6
cp6  dimension=12  basis=7
pbundle_cp2  dimension=6  basis=6
sigma1  dimension=2  basis=4
sigma1xcp1  dimension=4  basis=8
sigma2  dimension=2  basis=6
sigma3  dimension=2  basis=8
sigma4  dimension=2  basis=10
dynamic families: cpK (complex projective), sigmaG (orientable surface), sK (sphere), \
and x-joined products such as cp1xs4
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spaces_lists_builtins(capsys):
    code, out, _ = run_cli(capsys, "spaces")
    assert code == 0
    assert out == SPACES_OUTPUT


def test_registry_builds_each_ring_once_on_lookup():
    names = [line.split()[0] for line in SPACES_OUTPUT.splitlines() if "dimension=" in line]
    assert sorted(REGISTRY) == names and len(REGISTRY) == 15
    for name in names:
        assert REGISTRY[name] is REGISTRY[name]
        assert REGISTRY[name].name == name
    assert "cp7" not in REGISTRY
    with pytest.raises(KeyError):
        REGISTRY["cp7"]


def _child_env() -> dict:
    """This environment, with the package's source directory first on PYTHONPATH."""
    src = str(Path(confbetti.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def test_import_loads_no_numpy_and_builds_no_ring():
    # counts ring validations, differential kernels built and generator images,
    # and lists the process-pool modules the import loaded
    probe = """
import sys
calls = {"validate_ring": 0, "_kernel": 0, "d_generator": 0}
def watch(frame, event, arg):
    if event == "call" and frame.f_code.co_name in calls:
        calls[frame.f_code.co_name] += 1
sys.setprofile(watch)
import confbetti.cli
imported = list(calls.values())
pool_modules = set(sys.modules)
assert not {"confbetti.oracles", "confbetti.spaces"} & pool_modules, pool_modules
import confbetti.spaces
ring = confbetti.spaces.REGISTRY["cp2"]
looked_up = list(calls.values())
confbetti.differential.assemble_matrix(ring, 0, 1, 2)
sys.setprofile(None)
pools = [name for name in ("multiprocessing", "concurrent.futures", "concurrent.futures.process")
         if name in pool_modules]
print(imported, looked_up, min(calls.values()) > 0, "numpy" in sys.modules, pools)
"""
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60,
        env=_child_env(), check=True,
    )
    assert done.stdout.strip() == "[0, 0, 0] [1, 0, 0] True False []"


def test_package_exports_no_submodule():
    assert isinstance(confbetti.__all__, tuple)
    submodules = {name for name, value in vars(confbetti).items() if isinstance(value, types.ModuleType)}
    assert {"basis", "engine", "linalg", "spaces"} <= submodules
    assert not submodules & set(confbetti.__all__)
    assert all(hasattr(confbetti, name) for name in confbetti.__all__)


def test_each_export_is_its_submodules_object():
    for module, names in confbetti._EXPORTS.items():
        submodule = importlib.import_module(f"confbetti.{module}")
        for name in names:
            assert getattr(confbetti, name) is getattr(submodule, name)


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from confbetti import *", namespace)
    assert set(confbetti.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(confbetti, name) for name in confbetti.__all__)


def test_an_unknown_package_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'confbetti' has no attribute 'no_such_name'"):
        confbetti.no_such_name


_LOADED_BY = """
import json, sys
import confbetti.cli
code = confbetti.cli.main(sys.argv[1:])
print(json.dumps([code, sorted(name for name in sys.modules if name.startswith("confbetti"))]))
"""
_TABLE_MODULES = ["confbetti"] + [
    f"confbetti.{name}" for name in ("basis", "cli", "differential", "engine", "linalg", "rings")
]


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["compute", "--ring-file", "{ring}", "--n", "1..3", "--i-max", "2"], []),
        (["compute", "--space", "cp1", "--n", "1..3", "--i-max", "2"], ["confbetti.spaces"]),
        (["verify", "--space", "cp1", "--n", "1..2", "--i-max", "2"],
         ["confbetti.oracles", "confbetti.spaces"]),
    ],
    ids=["compute-ring-file", "compute-space", "verify"],
)
def test_a_command_loads_only_the_modules_it_runs(tmp_path, argv, extra):
    ring_file = tmp_path / "cp1.json"
    ring_file.write_text(serialize_ring(ring_cp(1)))
    argv = [arg.format(ring=ring_file) for arg in argv]
    done = subprocess.run(
        [sys.executable, "-c", _LOADED_BY, *argv], capture_output=True, text=True, timeout=60,
        env=_child_env(), check=True,
    )
    code, loaded = json.loads(done.stdout.splitlines()[-1])
    assert code == 0
    assert loaded == sorted(_TABLE_MODULES + extra)


def test_compute_csv_shape_and_determinism(capsys):
    args = ("compute", "--space", "cp1", "--n", "1..4", "--i-max", "4")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,b_0,b_1,b_2,b_3,b_4"
    assert lines[1] == "1,1,0,1,0,0"
    assert lines[3] == "3,1,0,0,1,0"
    code2, out2, _ = run_cli(capsys, *args)
    assert out2 == out  # byte-identical rerun


def test_exact_only_flag_is_accepted_and_changes_nothing(capsys):
    args = ("compute", "--space", "sigma2", "--n", "1..6", "--i-max", "10")
    code, out, _ = run_cli(capsys, *args)
    exact_code, exact_out, _ = run_cli(capsys, *args, "--exact-only")
    assert (code, exact_code) == (0, 0)
    assert exact_out == out


def test_compute_md_format(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "--space", "cp1", "--n", "1..2", "--i-max", "3", "--format", "md"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("| n | b_0 |")
    assert lines[1].startswith("|---|")
    assert "| 1 | 1 |" in lines[2]


def test_compute_json_metadata(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "--space", "sigma1", "--n", "1..5", "--i-max", "4",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    meta = payload["metadata"]
    assert meta["space"] == "sigma1"
    assert meta["dimension"] == 2
    assert meta["euler"] == 0
    cells = {(c["n"], c["i"]): c["betti"] for c in payload["cells"]}
    assert cells[(5, 4)] == 7
    assert meta["stable_onsets"]["2"] == 3


def test_compute_vanishing_cells_print_zero(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "--space", "cp1", "--n", "2..2", "--i-max", "9"
    )
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert row[0] == "2"
    assert all(v == "0" for v in row[5:])  # beyond the vanishing bound n + 2


def test_compute_rejects_odd_dimension(capsys):
    code, _, err = run_cli(capsys, "compute", "--space", "s3", "--n", "1..3", "--i-max", "4")
    assert code == 2
    assert "betti-odd" in err


POINT = (
    '{"name": "point", "dimension": 0, "basis": [{"label": "1", "degree": 0}], '
    '"products": [[0, 0, {"0": 1}]]}'
)


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--n", "1..3", "--i-max", "2"],
        ["stable", "--i-max", "2"],
        ["verify"],
        ["betti-odd", "--n", "1..3"],
    ],
    ids=["compute", "stable", "verify", "betti-odd"],
)
def test_a_ring_of_dimension_zero_exits_2_with_one_line(tmp_path, capsys, argv):
    path = tmp_path / "point.json"
    path.write_text(POINT)
    assert parse_ring(POINT).dimension == 0  # a valid ring document
    code, out, err = run_cli(capsys, *argv, "--ring-file", str(path))
    assert code == 2
    assert out == ""
    assert err == "space 'point' has dimension 0; need a positive dimension\n"


def test_betti_odd_rejects_even_dimension(capsys):
    code, _, err = run_cli(capsys, "betti-odd", "--space", "cp2", "--n", "1..3")
    assert code == 2
    assert "compute" in err


def test_betti_odd_sphere_table(capsys):
    code, out, _ = run_cli(capsys, "betti-odd", "--space", "s3", "--n", "1..2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("n,b_0")
    assert lines[1].startswith("1,1,0,0,1")
    assert lines[2].startswith("2,1,0,0,1,0,0,0")


def test_unknown_space_exits_2(capsys):
    code, _, err = run_cli(capsys, "compute", "--space", "nope", "--n", "1..2", "--i-max", "2")
    assert code == 2
    assert "unknown space" in err


def test_unknown_space_message_is_one_unquoted_line(capsys):
    code, out, err = run_cli(capsys, "stable", "--space", "nope", "--i-max", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("unknown space 'nope'")
    assert len(err.strip().splitlines()) == 1


def test_non_utf8_ring_file_exits_2_with_one_line(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    text = serialize_ring(ring_cp(1))
    assert '"name": "cp1"' in text
    path.write_bytes(text.replace('"name": "cp1"', '"name": "cp1 \u00e9t\u00e9"').encode("latin-1"))
    code, out, err = run_cli(
        capsys, "compute", "--ring-file", str(path), "--n", "1..2", "--i-max", "2"
    )
    assert code == 2
    assert out == ""
    assert "UTF-8" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "text, reason",
    [
        ("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),
        ('{"name": "big", "dimension": ' + "7" * 5000 + "}", "integer string conversion"),
    ],
    ids=["nested-100000-deep", "5000-digit-literal"],
)
def test_a_ring_file_json_cannot_read_exits_2_with_one_line(tmp_path, text, reason):
    path = tmp_path / "ring.json"
    path.write_text(text)
    done = subprocess.run(
        [sys.executable, "-m", "confbetti.cli", "compute", "--ring-file", str(path),
         "--n", "1..2", "--i-max", "2"],
        capture_output=True, text=True, timeout=60, env=_child_env(),
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert "Traceback" not in done.stderr
    assert len(done.stderr.splitlines()) == 1
    assert done.stderr.startswith("not valid JSON: ") and reason in done.stderr


def test_stable_row(capsys):
    code, out, _ = run_cli(capsys, "stable", "--space", "sigma1", "--i-max", "6")
    assert code == 0
    assert out.strip() == "1,2,3,5,7,9,11"


@pytest.mark.parametrize(
    "space, command", [("cp2", "compute"), ("sigma2", "compute"), ("s3", "betti-odd")]
)
def test_stable_is_row_i_max_plus_one_of_a_planned_table(capsys, monkeypatch, space, command):
    monkeypatch.setattr(engine_module, "_ENGINES", {})
    cleared = []
    original = engine_module.assemble_matrix

    def recording(*args, **kwargs):
        cleared.append(kwargs.get("cleared", ()))
        return original(*args, **kwargs)

    monkeypatch.setattr(engine_module, "assemble_matrix", recording)
    code, out, _ = run_cli(capsys, "stable", "--space", space, "--i-max", "12")
    assert code == 0
    if command == "compute":  # the row's chains are ranked bottom-up, clearing rows
        assert any(cleared)
    code, table, _ = run_cli(capsys, command, "--space", space, "--n", "13", "--i-max", "12")
    assert code == 0
    assert out == table.splitlines()[1].removeprefix("13,") + "\n"


def test_verify_passes_and_prints_lines(capsys):
    code, out, _ = run_cli(capsys, "verify", "--space", "cp1", "--n", "1..4", "--i-max", "6")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines
    assert all(line.startswith("PASS") for line in lines)
    oracles = {line.split()[1] for line in lines}
    assert {"euler", "stability", "vanishing"} <= oracles


def test_ring_file_round_trip(tmp_path, capsys):
    path = tmp_path / "genus2.json"
    path.write_text(serialize_ring(ring_surface(2)))
    code, out, _ = run_cli(
        capsys, "compute", "--ring-file", str(path), "--n", "3..3", "--i-max", "3"
    )
    assert code == 0
    assert out.splitlines()[1] == "3,1,4,6,11"


def _ring_file(tmp_path, dimension, basis, products):
    """A ring document of the given (label, degree) classes; `products` adds to the unit's."""
    unit_rows = [[0, i, {str(i): 1}] for i in range(len(basis))]
    doc = {
        "name": "bad-pairing",
        "dimension": dimension,
        "basis": [{"label": label, "degree": degree} for label, degree in basis],
        "products": unit_rows + products,
    }
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize(
    "dimension, basis, products, message",
    [
        # one class in degree 2, two in degree 4, a degree-4 class listed first
        (6, [("1", 0), ("y", 4), ("x", 2), ("z", 4), ("t", 6)], [[1, 2, {"4": 1}]],
         "pairing block degree 2 is 1x2, not square"),
        # the genus-1 surface with a*b removed and the top class listed first
        (2, [("1", 0), ("t", 2), ("a", 1), ("b", 1)], [],
         "singular Poincaré pairing block in degree 1"),
        # a class in degree 4 with nothing in degree 2 to pair with
        (6, [("1", 0), ("y", 4), ("t", 6)], [], "pairing block degree 4 is 1x0, not square"),
    ],
    ids=["not-square", "singular", "unpaired-upper-degree"],
)
def test_bad_pairing_block_exits_2_naming_its_lowest_degree(
    tmp_path, capsys, dimension, basis, products, message
):
    path = _ring_file(tmp_path, dimension, basis, products)
    code, out, err = run_cli(
        capsys, "compute", "--ring-file", str(path), "--n", "1..2", "--i-max", "2"
    )
    assert (code, out, err) == (2, "", message + "\n")


def _cell_images(ring, p, q, n):
    """Each monomial of the cell with its own d: the reference the dumps are read against."""
    return [(m, d_monomial(ring, m)) for m in enumerate_basis(ring, p, q, n)]


def _listing_line(ring, mon, image):
    terms = " + ".join(f"({c})*{format_monomial(ring, m)}" for m, c in image.terms)
    return f"{format_monomial(ring, mon)} -> {terms or '0'}"


def test_dump_matrices_writes_listings(tmp_path, capsys):
    # n 1..4 reads cell (2, 1) at n = 3 and n = 4, so its n = 3 matrix is a
    # proper leading block of the engine's cell
    dump = tmp_path / "dump"
    code, out, _ = run_cli(
        capsys, "compute", "--space", "cp1", "--n", "1..4", "--i-max", "4",
        "--dump-matrices", str(dump),
    )
    assert code == 0
    files = sorted(p.name for p in dump.iterdir())
    assert "d_p2_q1_n3.txt" in files and "d_p2_q1_n4.txt" in files
    text = (dump / files[0]).read_text()
    assert "->" in text
    header = text.splitlines()[0].split()
    assert len(header) == 2 and all(part.isdigit() for part in header)
    ring = ring_cp(1)
    for name in files:
        p, q, n = (int(part[1:]) for part in name[len("d_"):-len(".txt")].split("_"))
        listing = [_listing_line(ring, mon, image) for mon, image in _cell_images(ring, p, q, n)]
        expected = [assemble_matrix(ring, p, q, n).dump_triplets(), "", *listing]
        assert (dump / name).read_text() == "\n".join(expected) + "\n"


def test_dump_matrices_are_the_same_with_a_worker_pool(tmp_path, capsys, monkeypatch):
    dumped = {}
    for workers in ("2", "1"):
        monkeypatch.setattr(confbetti.engine, "_ENGINES", {})  # rank every cell again
        dump = tmp_path / f"workers{workers}"
        code, out, _ = run_cli(
            capsys, "compute", "--space", "sigma2", "--n", "1..5", "--i-max", "8",
            "--workers", workers, "--dump-matrices", str(dump),
        )
        assert code == 0
        dumped[workers] = out, {path.name: path.read_text() for path in dump.iterdir()}
    assert len(dumped["1"][1]) > 10
    assert dumped["2"] == dumped["1"]


def test_a_dump_lists_each_cells_domain_and_codomain_once(tmp_path, monkeypatch):
    ring = resolve_space("sigma2")
    monkeypatch.setattr(confbetti.engine, "_ENGINES", {})
    table = betti_table(ring, 1, 7, 9)
    original, listed = confbetti.differential.packed_pieces, []

    def pieces(ring, p, q, n, reduced=True, whole=False):
        if whole:
            listed.append((p, q, n))
        return original(ring, p, q, n, reduced, whole)

    monkeypatch.setattr(confbetti.differential, "packed_pieces", pieces)
    monkeypatch.setattr(confbetti.cli, "packed_pieces", pieces, raising=False)
    confbetti.cli._dump_matrices(table, True, tmp_path)
    dumped = {(p, q) for p, q, _ in engine_for(ring).required_ranks(1, 7, 9)}
    # 44 files of 21 cells: each cell's domain and codomain are listed once
    assert len(list(tmp_path.iterdir())) == 44
    assert len(listed) == 2 * len(dumped) == 42


SCALED_CP2 = Path(__file__).parent / "rings" / "cp2_scaled.json"  # x*x = 2*x2


def test_scaled_ring_prints_cp2_and_dumps_rational_d(tmp_path, capsys):
    args = ("--n", "1..6", "--i-max", "12")
    code, scaled, _ = run_cli(capsys, "compute", "--ring-file", str(SCALED_CP2), *args)
    assert code == 0
    assert scaled == run_cli(capsys, "compute", "--space", "cp2", *args)[1]
    dump = tmp_path / "dump"
    code, _, _ = run_cli(
        capsys, "compute", "--ring-file", str(SCALED_CP2), "--n", "1..5", "--i-max", "12",
        "--dump-matrices", str(dump),
    )
    assert code == 0
    ring = parse_ring(SCALED_CP2.read_text())
    halves = 0
    for path in dump.iterdir():
        p, q, n = (int(part[1:]) for part in path.name[len("d_"):-len(".txt")].split("_"))
        images = _cell_images(ring, p, q, n)
        row_of = {
            mon: row
            for row, mon in enumerate(enumerate_basis(ring, p + ring.dimension, q - 1, n))
        }
        expected = {
            (row_of[image], col): c
            for col, (_, element) in enumerate(images)
            for image, c in element.terms
        }
        matrix_text, _, listing = path.read_text().partition("\n\n")
        header, *triplets = matrix_text.splitlines()
        assert header == f"{len(row_of)} {len(images)}"
        assert listing.splitlines()[1:] == [_listing_line(ring, m, image) for m, image in images]
        dumped = {}
        for line in triplets:
            row, col, value = line.split()
            dumped[(int(row), int(col))] = Fraction(value)
            halves += value == "1/2"
        assert dumped == expected
    assert halves > 0


@pytest.mark.parametrize("under", [False, True], ids=["existing-file", "under-a-file"])
def test_dump_matrices_into_a_file_exits_2(tmp_path, capsys, under):
    blocker = tmp_path / "taken"
    blocker.write_text("")
    target = blocker / "dump" if under else blocker
    code, out, err = run_cli(
        capsys, "compute", "--space", "cp1", "--n", "1..2", "--i-max", "2",
        "--dump-matrices", str(target),
    )
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "--dump-matrices" in err


def test_a_dump_file_that_cannot_be_written_exits_2(tmp_path, capsys):
    (tmp_path / "d_p0_q1_n2.txt").mkdir()  # the dump's first file path is taken by a directory
    code, out, err = run_cli(
        capsys, "compute", "--space", "cp1", "--n", "1..3", "--i-max", "3",
        "--dump-matrices", str(tmp_path),
    )
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert "--dump-matrices" in err and "d_p0_q1_n2.txt" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("betti-odd", "--space", "s100001", "--n", "1..2", "--i-max", "3"),
        ("stable", "--space", "s100001", "--i-max", "3"),
    ],
    ids=["betti-odd", "stable"],
)
def test_an_odd_sphere_run_allocates_by_i_max_not_by_dimension(argv, capsys):
    run_cli(capsys, argv[0], "--space", "s3", *argv[3:])  # load what the run imports first
    tracemalloc.start()
    try:
        code, out, _ = run_cli(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert out.splitlines()[-1].endswith("1,0,0,0")
    assert peak < 2 * 2**20


def test_n_range_single_value(capsys):
    code, out, _ = run_cli(capsys, "compute", "--space", "cp1", "--n", "2", "--i-max", "2")
    assert code == 0
    assert out.splitlines()[1].startswith("2,")


@pytest.mark.parametrize(
    "argv",
    [
        ("compute", "--space", "cp1", "--n", "1..2", "--i-max", "-1"),
        ("stable", "--space", "sigma1", "--i-max", "-1"),
        ("compute", "--space", "cp1", "--n", "1..2", "--i-max", "2", "--workers", "0"),
    ],
    ids=["compute-negative-i-max", "stable-negative-i-max", "zero-workers"],
)
def test_bad_counts_exit_2_with_one_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("space", ["cp99999999999", "sigma99", "cp3xcp8"])
def test_oversized_dynamic_space_exits_2_before_building(capsys, space):
    code, out, err = run_cli(capsys, "stable", "--space", space, "--i-max", "2")
    assert code == 2
    assert out == ""
    assert "MAX_SPACE_CLASSES = 32" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "name, build",
    [
        ("s2", lambda: ring_sphere(2)),
        ("s3", lambda: ring_sphere(3)),
        ("s4", lambda: ring_sphere(4)),
        ("cp1xs4", lambda: ring_product(ring_cp(1), ring_sphere(4))),
    ],
)
def test_sphere_names_resolve_to_the_rings_module_spheres(name, build):
    assert serialize_ring(resolve_space(name)) == serialize_ring(build())


@pytest.mark.parametrize(
    "text, reason",
    [("0..3", "need 1 <= A <= B"), ("5..2", "need 1 <= A <= B"), ("1..x", "need A..B or a single N")],
)
def test_bad_n_range_exits_2_with_its_reason(capsys, text, reason):
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--space", "cp1", "--n", text, "--i-max", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --n: bad point-count range {text!r}: {reason}" in err
    assert "invalid" not in err


def test_missing_arguments_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--space", "cp1", "--n", "1..2"])
    assert exc.value.code == 2


_UNREAD = {
    "--format": ["md"],
    "--no-reduction": [],
    "--exact-only": [],
    "--workers": ["2"],
    "--dump-matrices": ["out"],
}


@pytest.mark.parametrize(
    "command, option",
    [("verify", option) for option in _UNREAD]
    + [("betti-odd", option) for option in _UNREAD if option != "--format"],
)
def test_an_option_the_command_does_not_read_exits_2(capsys, command, option):
    space = "s3" if command == "betti-odd" else "cp1"
    with pytest.raises(SystemExit) as exc:
        main([command, "--space", space, "--n", "1..2", option, *_UNREAD[option]])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err


def _exit_text(capsys, parse, argv) -> tuple[int, str, str]:
    with pytest.raises(SystemExit) as exc:
        parse(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ("spaces", "--help"),
        ("spaces", "extra"),
        ("compute", "--help"),
        ("compute", "--space", "cp1", "--n", "2", "--i-max", "3", "--format", "xml"),
        ("compute", "--space", "cp1", "--n", "2", "--i-max", "3", "--bogus", "1"),
        ("verify", "--help"),
        ("verify", "--space", "cp1", "--ring-file", "ring.json"),
        ("stable", "--help"),
        ("stable", "--space", "cp1"),
        ("betti-odd", "--help"),
        ("betti-odd", "--space", "s3", "--n", "1..x"),
    ],
    ids=lambda argv: " ".join(argv),
)
def test_a_subcommand_parser_prints_the_full_parsers_help_and_errors(capsys, argv):
    expected = _exit_text(capsys, confbetti.cli.build_parser().parse_args, argv)
    assert expected[0] in (0, 2) and expected[1] + expected[2]
    assert _exit_text(capsys, main, argv) == expected


@pytest.mark.parametrize(
    "argv",
    [("spaces",), ("stable", "--space", "cp1", "--i-max", "-1"), ("stable", "--space", "cp1")],
    ids=["done", "usage-error", "parser-error"],
)
@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_main_restores_the_collector_state(capsys, argv, enabled):
    collecting = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse exits on its own errors
            code = exc.code
        assert code == (0 if argv == ("spaces",) else 2)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if collecting else gc.disable)()


def test_main_runs_with_the_collector_off(monkeypatch):
    states = []
    command = ("", lambda sub: None, lambda args: states.append(gc.isenabled()) or 0)
    monkeypatch.setitem(confbetti.cli._COMMANDS, "spaces", command)
    assert main(["spaces"]) == 0
    assert states == [False]
