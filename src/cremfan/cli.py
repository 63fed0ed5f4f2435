"""Command-line interface: generators, Cremona analysis, and fan reports.

Three subcommands tie the library into reproducible JSON reports:

* ``cremfan gen SPEC --out FILE`` writes a matroid file;
* ``cremfan cremona FILE --enumerate | --check B | --pair B1 B2 | --realize B1 B2 --field F``;
* ``cremfan fan FILE --rays | --graph | --member W | --s-graph [--rank-one-only]``.

Every report is a schema-versioned JSON document on stdout with the
command echo, the sha256 of the input file, and a matroid summary; wall
times go to stderr so reports stay byte-identical across runs.  Exit codes:
0 success, 1 stdout closed before the report was written, 2 invalid input,
3 budget exceeded, 4 internal invariant violation.

``main`` is the library call.  A process enters through ``run``, which ends
it by ``os._exit`` once the report is flushed, skipping the interpreter's
teardown; a usage error or an unexpected exception exits the usual way.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
import time
from fractions import Fraction
from typing import Iterable, Sequence

from . import __version__
from .errors import BudgetExceeded, InputError, InvariantError
from .field import FieldFormatError, parse_rational
from .matroid import Matroid
from .serialize import dumps, load_matroid, save_matroid, write_text


def _sha256(path: str) -> str:
    import hashlib  # maps OpenSSL: load it after the subcommand's modules

    digest = hashlib.sha256()
    try:
        with open(path, "rb") as handle:
            for chunk in iter(lambda: handle.read(65536), b""):
                digest.update(chunk)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    return digest.hexdigest()


def _matroid_summary(M: Matroid) -> dict:
    return {
        "name": M.name,
        "elements": M.size,
        "rank": M.full_rank(),
        "connected": M.is_connected(range(M.size)),
    }


def _labels(M: Matroid, elements: Iterable[int]) -> list[str]:
    return [M.ground.label(e) for e in sorted(elements)]


def _resolve_element(M: Matroid, token: str) -> int:
    """An element from a token: matching label first, then 0-based index."""
    labels = M.ground.labels
    if token in labels:
        return labels.index(token)
    try:
        e = int(token)
    except ValueError:
        raise InputError(f"unknown element {token!r}") from None
    if not 0 <= e < M.size:
        raise InputError(f"element index {e} out of range 0..{M.size - 1}")
    return e


def _resolve_set(M: Matroid, csv: str) -> tuple[int, ...]:
    tokens = [t for t in (s.strip() for s in csv.split(",")) if t]
    if not tokens:
        raise InputError("empty element list")
    elements = tuple(_resolve_element(M, t) for t in tokens)
    for k, e in enumerate(elements):
        if e in elements[:k]:
            raise InputError(f"element {M.ground.label(e)!r} is listed twice")
    return elements


def _given(**options) -> dict:
    """The options given on the command line; the library's defaults stand
    for the rest."""
    return {name: value for name, value in options.items() if value is not None}


def _emit(report: dict) -> None:
    # flushed here, so a closed stdout raises in ``main``, not at exit
    sys.stdout.write(dumps(report))
    sys.stdout.flush()


def _envelope(command: str, args_echo: dict, path: str, M: Matroid, payload: dict) -> dict:
    return {
        "schema": 1,
        "version": __version__,
        "command": command,
        "args": args_echo,
        "input": {"path": path, "sha256": _sha256(path)},
        "matroid": _matroid_summary(M),
        "payload": payload,
    }


# ---------------------------------------------------------------------------
# gen


def cmd_gen(args: argparse.Namespace) -> int:
    from .generators import from_spec_string

    M = from_spec_string(args.spec)
    save_matroid(M, args.out, name=M.name or args.spec)
    report = _envelope(
        "gen", {"spec": args.spec, "out": args.out}, args.out, M,
        {"out": args.out, "spec": args.spec},
    )
    _emit(report)
    return 0


# ---------------------------------------------------------------------------
# cremona


def _basis_report(data) -> dict:
    """The basis, its F-sets and the invariants of its Cremona map, read
    off the map's r basis columns (``crem_invariants``), which raises
    InvariantError where ``crem_map`` does."""
    M = data.matroid
    from .cremona import crem_invariants

    one_multiple, quotient_det = crem_invariants(data)
    F = {
        f"{i},{j}": _labels(M, flat)
        for (i, j), flat in sorted(data.partition.items())
    }
    return {
        "basis": _labels(M, data.basis),
        "F": F,
        "quotient_det": quotient_det,
        "one_multiple": one_multiple,
    }


def cmd_cremona(args: argparse.Namespace) -> int:
    from . import cremona as cr

    if args.field is not None and args.realize is None:
        raise InputError("--field applies to --realize")
    if args.max_nodes is not None and not args.enumerate:
        raise InputError("--max-nodes applies to --enumerate")
    M = load_matroid(args.matroid)
    echo = {"matroid": args.matroid}
    if args.enumerate:
        echo["enumerate"] = True
        datas = cr.enumerate_cremona_bases(M, **_given(max_nodes=args.max_nodes))
        payload = {
            "count": len(datas),
            "bases": [_basis_report(d) for d in datas],
        }
    elif args.check is not None:
        echo["check"] = args.check
        data, reason = cr.cremona_check_detail(M, _resolve_set(M, args.check))
        if data is None:
            payload = {"ok": False, "reason": reason}
        else:
            payload = {"ok": True, "reason": None, **_basis_report(data)}
    elif args.pair is not None:
        echo["pair"] = list(args.pair)
        d1, d2 = (_require_cremona(cr, M, csv) for csv in args.pair)
        payload = _pair_payload(cr, M, d1, d2)
    elif args.realize is not None:
        echo["realize"] = list(args.realize)
        echo["field"] = args.field
        if args.field is None:
            raise InputError("--realize requires --field")
        d1, d2 = (_require_cremona(cr, M, csv) for csv in args.realize)
        payload = _pair_payload(cr, M, d1, d2)
        realization = cr.realize(M, d1, d2, args.field)
        payload["realization"] = {
            "field": realization.field.spec,
            "vectors": [
                [str(x) for x in vec] for vec in realization.vectors
            ],
            "N": realization.class_count,
            "classes": [_labels(M, c) for c in realization.classes],
            "kappa": {
                M.ground.label(e): str(v) for e, v in sorted(realization.kappa.items())
            },
        }
    else:
        raise InputError(
            "cremona needs one of --enumerate, --check, --pair, --realize"
        )
    _emit(_envelope("cremona", echo, args.matroid, M, payload))
    return 0


def _require_cremona(cr, M: Matroid, csv: str):
    subset = _resolve_set(M, csv)
    data, reason = cr.cremona_check_detail(M, subset)
    if data is None:
        raise InputError(f"{csv!r} is not a Cremona basis: {reason}")
    return data


def _pair_payload(cr, M: Matroid, d1, d2) -> dict:
    report = cr.two_basis_report(M, d1, d2)
    phi = cr._involution(M, report, cr.two_basis_report(M, d2, d1))
    return {
        **_basis_report(d1),
        "other": _labels(M, d2.basis),
        "intersection": _labels(M, report.intersection),
        "component_count": report.component_count,
        "components": [
            {
                "vertices": _labels(M, c.vertices),
                "edges": [
                    [M.ground.label(a), M.ground.label(b), M.ground.label(e)]
                    for a, b, e in c.edges
                ],
                "center": M.ground.label(c.center),
            }
            for c in report.components
        ],
        "involution": list(phi.forward),
    }


# ---------------------------------------------------------------------------
# fan


def _parse_weights(csv: str) -> list[Fraction]:
    out = []
    for token in csv.split(","):
        token = token.strip()
        try:
            out.append(parse_rational(token))
        except FieldFormatError:
            raise InputError(f"bad weight {token!r}") from None
    return out


def cmd_fan(args: argparse.Namespace) -> int:
    from . import fan as fn

    if args.rank_one_only and not args.s_graph:
        raise InputError("--rank-one-only applies to --s-graph")
    if args.max_subsets is not None and (not args.s_graph or args.rank_one_only):
        raise InputError("--max-subsets applies to --s-graph without --rank-one-only")
    if args.dot and not (args.graph or args.s_graph):
        raise InputError("--dot applies to --graph and --s-graph")
    M = load_matroid(args.matroid)
    echo = {"matroid": args.matroid}
    dot_text = None
    if args.rays:
        echo["rays"] = True
        rays = fn.nested_rays(M)
        payload = {
            "count": len(rays),
            "rays": [
                {"elements": _labels(M, F.sorted()), "rank": F.rank}
                for F in rays
            ],
        }
    elif args.graph:
        echo["graph"] = True
        graph = fn.ray_adjacency_graph(M)
        payload = dict(graph.stats())
        if args.dot:
            dot_text = graph.to_dot()
    elif args.member is not None:
        echo["member"] = args.member
        point = fn.TropicalPoint.of(_parse_weights(args.member))
        inside = fn.in_bergman_fan(M, point)
        cross = None
        if M.size <= fn.MAX_CIRCUIT_ELEMENTS:
            cross = fn.in_bergman_fan_circuits(M, point)
            if cross != inside:
                raise InvariantError(
                    "level-set and circuit membership oracles disagree"
                )
        payload = {
            "point": [str(w) for w in point.weights],
            "in_fan": inside,
            "circuit_oracle": cross,
        }
    elif args.s_graph:
        echo["s-graph"] = True
        echo["rank-one-only"] = bool(args.rank_one_only)
        result = fn.graph_S(
            M, rank_one_only=args.rank_one_only, **_given(max_subsets=args.max_subsets)
        )
        payload = dict(result.report)
        if args.dot:
            dot_text = result.graph.to_dot()
    else:
        raise InputError("fan needs one of --rays, --graph, --member, --s-graph")
    if args.dot:
        echo["dot"] = args.dot
        write_text(args.dot, dot_text)
    _emit(_envelope("fan", echo, args.matroid, M, payload))
    return 0


# ---------------------------------------------------------------------------
# parser and dispatch


def _budget(text: str) -> int:
    """A search budget from the command line: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"budget must be non-negative, got {value}")
    return value


# a weight list that argparse would take for an option: -1,0,1 or -.5,1
_NEGATIVE_WEIGHT = re.compile(r"-\.?\d")


def _joined_weights(argv: Sequence[str]) -> list[str]:
    """argv with ``--member W`` joined into ``--member=W`` when W starts with a
    minus sign and a digit, or a minus sign, a point and a digit. argparse
    takes such a W, say -1,0,1, for an option (only a lone number like -1
    passes as a value), and then stops at "expected one argument"."""
    argv = list(argv)
    for i in range(len(argv) - 1):
        if argv[i] == "--member" and _NEGATIVE_WEIGHT.match(argv[i + 1]):
            argv[i:i + 2] = [f"--member={argv[i + 1]}"]
            break
    return argv


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, shared by every ``main`` call: do not change it."""
    parser = argparse.ArgumentParser(
        prog="cremfan",
        description=(
            "Matroids, Bergman fans, and combinatorial Cremona automorphisms "
            "over exact fields."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    gen = sub.add_parser("gen", help="generate a matroid file from a spec string")
    gen.add_argument("spec", help='e.g. "A3", "E8", "K4", "U:2,3", "fano", "dowling:Z2"')
    gen.add_argument("--out", required=True, help="output JSON path")
    gen.set_defaults(func=cmd_gen)

    crem = sub.add_parser("cremona", help="Cremona bases, maps, pairs, realizations")
    crem.add_argument("matroid", help="matroid JSON file")
    mode = crem.add_mutually_exclusive_group(required=True)
    mode.add_argument("--enumerate", action="store_true",
                      help="enumerate all Cremona bases")
    mode.add_argument("--check", metavar="B",
                      help="comma-separated basis, labels or 0-based indices")
    mode.add_argument("--pair", nargs=2, metavar=("B1", "B2"),
                      help="two Cremona bases sharing an element: structure report and involution")
    mode.add_argument("--realize", nargs=2, metavar=("B1", "B2"),
                      help="two Cremona bases sharing one element: realization")
    crem.add_argument("--field", help='field spec for --realize: Q, Fp:<p>, F<p>, Qsqrt5')
    crem.add_argument("--max-nodes", type=_budget,
                      help="node budget of the --enumerate search (default 200000)")
    crem.set_defaults(func=cmd_cremona)

    fan = sub.add_parser("fan", help="Bergman fan rays, graphs, membership")
    fan.add_argument("matroid", help="matroid JSON file")
    mode = fan.add_mutually_exclusive_group(required=True)
    mode.add_argument("--rays", action="store_true", help="nested-ray census")
    mode.add_argument("--graph", action="store_true",
                      help="ray adjacency graph statistics")
    mode.add_argument("--member", metavar="W",
                      help="comma-separated weights: fan membership test "
                           "(the first may be negative: --member -1,0,1 or --member=-1,0,1)")
    mode.add_argument("--s-graph", action="store_true",
                      help="rank-one/corank-one degree report and verdict")
    fan.add_argument("--rank-one-only", action="store_true",
                     help="skip the corank-one side of the s-graph report")
    fan.add_argument("--dot", metavar="PATH",
                     help="also write the graph as DOT (with --graph/--s-graph)")
    fan.add_argument("--max-subsets", type=_budget,
                     help="cover budget of the --s-graph corank-one flat-lattice walk "
                          "(default 3000000)")
    fan.set_defaults(func=cmd_fan)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command and return its exit code.

    The parser is built once per process and reused by every call: it keeps
    no per-call state, and each ``cmd_*`` looks up its helpers through the
    module's globals when it runs.
    """
    args = build_parser().parse_args(_joined_weights(sys.argv[1:] if argv is None else argv))
    start = time.perf_counter()
    try:
        code = args.func(args)
    except (InputError, FieldFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"error: budget exceeded: {exc}", file=sys.stderr)
        return 3
    except InvariantError as exc:
        print(f"error: invariant violation: {exc}", file=sys.stderr)
        return 4
    except BrokenPipeError:
        # stdout to devnull, so the flush at exit cannot fail (``signal`` docs, SIGPIPE)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    finally:
        elapsed = time.perf_counter() - start
        print(f"[time] {args.subcommand}: {elapsed:.3f}s", file=sys.stderr)
    return code


def run() -> None:
    """The process entry point: ``main()``, flush, then ``os._exit``."""
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
