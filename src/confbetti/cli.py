"""Command-line interface for configuration-space Betti numbers."""
from __future__ import annotations

import argparse
import gc
import json
import sys
from fractions import Fraction
from pathlib import Path

from .basis import format_monomial
from .differential import assemble_matrix, decode_codes, image_scale, packed_pieces
from .engine import BettiTable, betti_odd_closed, betti_table, engine_for
from .rings import GradedRing, RingError, euler_characteristic, parse_ring


def _parse_n_range(text: str) -> tuple[int, int]:
    lo, dots, hi = text.partition("..")
    try:
        n_min, n_max = int(lo), int(hi if dots else lo)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad point-count range {text!r}: need A..B or a single N"
        ) from None
    if not 1 <= n_min <= n_max:
        raise argparse.ArgumentTypeError(f"bad point-count range {text!r}: need 1 <= A <= B")
    return n_min, n_max


class UsageError(Exception):
    """Bad user input; `main` prints the message as one line and exits 2."""


def _load_ring(args) -> tuple[GradedRing, str]:
    """The ring named by --space or read from --ring-file, and its display name.

    A ring of dimension 0 (the unit alone) is refused: every command needs more.
    """
    try:
        if args.ring_file:
            ring = parse_ring(Path(args.ring_file).read_text(encoding="utf-8"))
            space = ring.name
        else:
            from .spaces import resolve_space  # a --ring-file run never loads the registry

            ring, space = resolve_space(args.space), args.space
    except KeyError as err:  # an unknown space name; str() would quote the message
        raise UsageError(err.args[0]) from None
    except UnicodeDecodeError as err:
        raise UsageError(f"ring file {args.ring_file} is not UTF-8 text: {err}") from None
    except (RingError, OSError) as err:
        raise UsageError(str(err)) from None
    if not ring.dimension:
        raise UsageError(f"space {space!r} has dimension 0; need a positive dimension")
    return ring, space


def _fail_usage(message: str) -> int:
    print(message, file=sys.stderr)
    return 2


def _grid_rows(table: BettiTable, space: str, fmt: str) -> str:
    header = ["n"] + [f"b_{i}" for i in range(table.i_max + 1)]
    ns = range(table.n_min, table.n_max + 1)
    if fmt == "csv":
        lines = [",".join(header)]
        for n in ns:
            lines.append(",".join([str(n)] + [str(v) for v in table.row(n)]))
        return "\n".join(lines) + "\n"
    if fmt == "md":
        lines = ["| " + " | ".join(header) + " |"]
        lines.append("|" + "---|" * len(header))
        for n in ns:
            lines.append("| " + " | ".join([str(n)] + [str(v) for v in table.row(n)]) + " |")
        return "\n".join(lines) + "\n"
    # json
    cells = [
        {"n": n, "i": i, "betti": table.betti(n, i)} for n in ns for i in range(table.i_max + 1)
    ]
    onsets = {str(i): onset for i, onset in table.stabilization_onsets.items()}
    payload = {
        "metadata": {
            "space": space,
            "dimension": table.ring.dimension,
            "euler": euler_characteristic(table.ring),
            "stable_onsets": onsets,
        },
        "cells": cells,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _dump_matrices(table: BettiTable, reduced: bool, directory: Path) -> None:
    ring = table.ring
    engine = engine_for(ring, reduced)
    scale = image_scale(ring)  # assembled matrices hold scale * d
    truncations: dict[tuple[int, int], list[int]] = {}
    for p, q, n_eff in engine.required_ranks(table.n_min, table.n_max, table.i_max):
        truncations.setdefault((p, q), []).append(n_eff)
    for (p, q), ns in truncations.items():
        # the bases are graded by length, so each truncation is a leading part of the largest
        top = max(ns)
        cells = [(p + ring.dimension * k, q - k) for k in (0, 1)]  # domain, codomain
        listed = [packed_pieces(ring, *cell, top, reduced, whole=True) for cell in cells]
        bases = tuple(pieces.codes for pieces in listed)
        whole = assemble_matrix(ring, p, q, top, reduced, bases=bases)
        whole.entries = {key: Fraction(v, scale) for key, v in whole.entries.items()}
        # column c is d of the c-th monomial, and its rows are in graded-lex order
        domain, codomain = (
            [format_monomial(ring, m) for m in decode_codes(ring, *cell, codes)]
            for cell, codes in zip(cells, bases)
        )
        images: list[list[str]] = [[] for _ in range(whole.cols)]
        for (row, col), coeff in sorted(whole.entries.items()):
            images[col].append(f"({coeff})*{codomain[row]}")
        listing = [f"{name} -> {' + '.join(terms) or '0'}" for name, terms in zip(domain, images)]
        for n_eff in ns:
            # each cell is listed by length, so its dimension at n_eff counts its first runs
            cols, rows = (sum(c for _, k, c in cell.runs if k <= n_eff) for cell in listed)
            matrix = whole.column_prefix(cols, rows=rows)
            lines = [matrix.dump_triplets(), "", *listing[:cols]]
            path = directory / f"d_p{p}_q{q}_n{n_eff}.txt"
            path.write_text("\n".join(lines) + "\n")


def cmd_spaces(args) -> int:
    from .spaces import REGISTRY

    for name in sorted(REGISTRY):
        ring = REGISTRY[name]
        print(f"{name}  dimension={ring.dimension}  basis={ring.size}")
    print(
        "dynamic families: cpK (complex projective), sigmaG (orientable surface), "
        "sK (sphere), and x-joined products such as cp1xs4"
    )
    return 0


def cmd_compute(args) -> int:
    ring, space = _load_ring(args)
    if ring.dimension % 2:
        return _fail_usage(
            f"space {space!r} is odd-dimensional; use the betti-odd command, "
            "which evaluates the closed formula"
        )
    reduced = not args.no_reduction
    dump_dir = Path(args.dump_matrices) if args.dump_matrices else None
    if dump_dir is not None:
        try:
            dump_dir.mkdir(parents=True, exist_ok=True)
        except OSError as err:
            raise UsageError(f"cannot create --dump-matrices directory: {err}") from None
    n_min, n_max = args.n_range
    table = betti_table(ring, n_min, n_max, args.i_max, reduced=reduced, workers=args.workers)
    if dump_dir is not None:
        try:
            _dump_matrices(table, reduced, dump_dir)
        except OSError as err:
            raise UsageError(f"cannot write --dump-matrices file: {err}") from None
    sys.stdout.write(_grid_rows(table, space, args.format))
    return 0


def cmd_betti_odd(args) -> int:
    ring, space = _load_ring(args)
    if ring.dimension % 2 == 0:
        return _fail_usage(
            f"space {space!r} is even-dimensional; use the compute command, "
            "which runs the spectral sequence"
        )
    n_min, n_max = args.n_range
    i_max = args.i_max if args.i_max is not None else n_max * ring.dimension
    grid = {}
    for n in range(n_min, n_max + 1):
        values = betti_odd_closed(ring, n, i_max)
        for i in range(i_max + 1):
            grid[(n, i)] = values[i] if i < len(values) else 0
    table = BettiTable(ring, n_min, n_max, i_max, grid)
    sys.stdout.write(_grid_rows(table, space, args.format))
    return 0


def cmd_stable(args) -> int:
    """b_0..b_imax: row n = i_max + 1 of one table, as each b_i is stable from n = i + 1."""
    ring, space = _load_ring(args)
    n = args.i_max + 1
    if ring.dimension % 2:
        values = betti_odd_closed(ring, n, args.i_max)
    else:
        values = betti_table(ring, n, n, args.i_max).row(n)
    print(",".join(str(v) for v in values))
    return 0


def cmd_verify(args) -> int:
    ring, space = _load_ring(args)
    if ring.dimension % 2:
        return _fail_usage(
            f"space {space!r} is odd-dimensional; the oracle suite applies to the "
            "spectral-sequence path (use betti-odd for the closed formula)"
        )
    from .oracles import run_all  # only this command runs the oracle suite

    report = run_all(ring, args.n_range[0], args.n_range[1], args.i_max)
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


def _add_ring_options(sub) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--space", help="registry or dynamic space name")
    group.add_argument("--ring-file", help="path to a JSON ring description")


def _add_grid_options(sub, *, n_default=None, i_required=False, i_default=None) -> None:
    """The ring, the point-count range and the largest cohomological degree."""
    _add_ring_options(sub)
    sub.add_argument(
        "--n",
        dest="n_range",
        type=_parse_n_range,
        required=n_default is None,
        default=n_default,
        help="point-count range A..B (or a single N)",
    )
    sub.add_argument(
        "--i-max",
        type=int,
        required=i_required,
        default=i_default,
        help="largest cohomological degree to report",
    )


def _compute_options(sub) -> None:
    _add_grid_options(sub, i_required=True)
    sub.add_argument("--format", choices=("csv", "md", "json"), default="csv")
    sub.add_argument("--no-reduction", action="store_true", help="keep top-class monomials")
    sub.add_argument(
        "--exact-only",
        action="store_true",
        help="accepted for compatibility; every rank is exact",
    )
    sub.add_argument("--workers", type=int, default=1, help="parallel rank processes")
    sub.add_argument(
        "--dump-matrices",
        metavar="DIR",
        help="write every differential matrix and generator image to DIR",
    )


def _verify_options(sub) -> None:
    _add_grid_options(sub, n_default=(1, 6), i_default=14)


def _stable_options(sub) -> None:
    _add_ring_options(sub)
    sub.add_argument("--i-max", type=int, required=True)


def _betti_odd_options(sub) -> None:
    _add_grid_options(sub)
    sub.add_argument("--format", choices=("csv", "md", "json"), default="csv")


# name -> (help in the listing, option adder, handler), in the listing's order
_COMMANDS = {
    "spaces": ("list the built-in spaces", lambda sub: None, cmd_spaces),
    "compute": ("Betti-number table over an n range", _compute_options, cmd_compute),
    "verify": ("run the oracle suite; one line per check", _verify_options, cmd_verify),
    "stable": ("stable Betti numbers b_0..b_imax", _stable_options, cmd_stable),
    "betti-odd": (
        "closed-formula table for odd-dimensional manifolds",
        _betti_odd_options,
        cmd_betti_odd,
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """The full parser: every subcommand, for the listing, `-h` and an unknown name."""
    parser = argparse.ArgumentParser(
        prog="confbetti",
        description=(
            "Rational Betti numbers of unordered configuration spaces of closed, "
            "oriented, even-dimensional manifolds"
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_options, handler) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        add_options(sub)
        sub.set_defaults(func=handler)
    return parser


def _parse_args(argv) -> argparse.Namespace:
    """The arguments of one run; a named subcommand builds only its own parser.

    That parser is the one `build_parser` adds for the name, so its help and
    errors read the same, and arguments it does not know are reported by the
    full parser, as a subcommand leaves them to it.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] not in _COMMANDS:
        return build_parser().parse_args(argv)
    name = argv[0]
    _, add_options, handler = _COMMANDS[name]
    parser = argparse.ArgumentParser(prog=f"confbetti {name}")
    add_options(parser)
    args, unknown = parser.parse_known_args(argv[1:])
    if unknown:
        build_parser().error(f"unrecognized arguments: {' '.join(unknown)}")
    args.func = handler
    return args


def main(argv=None) -> int:
    """Run one command with the cyclic garbage collector off, and restore its state.

    The engine's records hold no reference cycles, so a run frees its memory
    without the collector, whose passes only cost time; a second, larger
    table on the same engine leaves nothing for it to collect.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = _parse_args(argv)
        if getattr(args, "i_max", None) is not None and args.i_max < 0:
            return _fail_usage(f"--i-max must be nonnegative, got {args.i_max}")
        if getattr(args, "workers", 1) < 1:
            return _fail_usage(f"--workers must be at least 1, got {args.workers}")
        try:
            return args.func(args)
        except UsageError as err:
            return _fail_usage(str(err))
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
