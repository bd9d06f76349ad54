"""Command-line front end.

Every subcommand reads space documents, prints a canonical text report,
and accepts ``--json`` for the machine-readable form of the same data.
Output is byte-deterministic for fixed inputs and flags.

Exit codes: 0 for success (including a search that found witnesses),
1 for a failed verification or an empty search, 2 for input errors and
for a search past its witness budget.

Each subcommand imports the layers it uses inside its ``cmd_*`` function,
so a process compiles and runs only those. Every command loads ``cli``,
``aura``, ``finite``, ``errors`` and ``kernel``, and then:

- ``validate``, ``tau-a``, ``closure``, ``interior``, ``derived``: ``documents``;
- ``analyze``, ``components``: ``documents`` and ``connectivity``;
- ``subspace``, ``product``: ``documents`` and ``constructions``;
- ``convergence``: ``documents`` and ``sequences``;
- ``search``, ``enumerate``: ``search`` and ``connectivity``;
- ``matrix``: ``search``, ``connectivity`` and ``constructions``;
- ``symbolic``: ``symbolic``;
- ``verify-paper``: ``verification``, ``fixtures`` and every layer they
  use, and ``laws`` and ``search`` unless ``--skip-laws`` is given.

Only ``sequences`` and the lab layers of ``symbolic`` and ``verify-paper``
import ``dataclasses``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .aura import AuraSpace
from .errors import AuraError
from .finite import PointSet, family_key, family_text, sorted_labels

# ``symbolic.MODEL_NAMES``, spelled out so that building the parser does not
# compile the symbolic models; a test keeps the two equal.
MODEL_NAMES = ("nat-successor", "nat-discrete", "trivial", "cofinite-trivial")


def _print(lines: List[str]) -> None:
    sys.stdout.write("\n".join(lines) + "\n")


def _print_json(doc) -> None:
    sys.stdout.write(json.dumps(doc, indent=2, ensure_ascii=True) + "\n")


def _write_text(text: str) -> None:
    # Report blocks differ on whether text() already terminates the last line.
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _set_labels(s: AuraSpace, mask: int) -> list:
    return sorted_labels(s.universe, mask)


def _set_text(s: AuraSpace, mask: int) -> str:
    return PointSet(s.universe, mask).text()


def _family_masks(masks) -> list:
    return sorted(masks, key=family_key)


def _family_text(s: AuraSpace, masks) -> str:
    return family_text(s.universe, masks)


def _parse_set(s: AuraSpace, text: str) -> PointSet:
    labels = [x for x in text.split(",") if x != ""]
    return s.universe.subset(labels)


def _document(args):
    from .documents import load_document

    return load_document(args.file)


def cmd_validate(args) -> int:
    doc = _document(args)
    s = doc.space
    if args.json:
        _print_json({
            "valid": True,
            "name": doc.name,
            "points": s.n,
            "openSets": len(s.topology.mask_set),
        })
    else:
        shown = doc.name if doc.name else args.file
        _print([f"valid: {shown} has {s.n} points and {len(s.topology.mask_set)} open sets"])
    return 0


def cmd_analyze(args) -> int:
    from .aura import classify, separation_axioms
    from .connectivity import (
        aura_components,
        is_aura_connected,
        is_aura_locally_connected,
        is_aura_path_connected,
    )
    from .finite import is_tau_connected

    doc = _document(args)
    s = doc.space
    cls = classify(s)
    sep = separation_axioms(s)
    tau_a = s.aura_topology_masks
    blocks = aura_components(s).blocks
    name = doc.name if doc.name else args.file
    scope_conn = is_aura_connected(s)
    tau_conn = is_tau_connected(s.topology)
    path_conn = is_aura_path_connected(s)
    locally = is_aura_locally_connected(s)
    if args.json:
        out = {
            "name": name,
            "points": list(s.universe.labels),
            "classification": {
                "transitive": cls.transitive,
                "symmetric": cls.symmetric,
                "trivial": cls.trivial,
                "discrete": cls.discrete,
            },
            "scopeTopologyCount": len(tau_a),
            "components": [_set_labels(s, b.mask) for b in blocks],
            "scopeConnected": scope_conn,
            "tauConnected": tau_conn,
            "scopePathConnected": path_conn,
            "locallyConnected": locally,
            "separation": {"t0": sep.t0, "t1": sep.t1, "t2": sep.t2},
        }
        if s.n <= 6:
            out["scopeTopology"] = [_set_labels(s, m) for m in _family_masks(tau_a)]
        _print_json(out)
        return 0
    lines = [
        f"space: {name}",
        f"points: {s.n}",
        "classification: transitive={} symmetric={} trivial={} discrete={}".format(
            _bool(cls.transitive), _bool(cls.symmetric), _bool(cls.trivial), _bool(cls.discrete)
        ),
        f"scope topology: {len(tau_a)} sets",
    ]
    if s.n <= 6:
        lines.append(f"scope topology listing: {_family_text(s, tau_a)}")
    lines.extend([
        "components: " + " ".join(_set_text(s, b.mask) for b in blocks),
        f"scope-connected: {_bool(scope_conn)}",
        f"tau-connected: {_bool(tau_conn)}",
        f"scope-path-connected: {_bool(path_conn)}",
        f"locally-connected: {_bool(locally)}",
        f"separation: t0={_bool(sep.t0)} t1={_bool(sep.t1)} t2={_bool(sep.t2)}",
    ])
    _print(lines)
    return 0


def cmd_tau_a(args) -> int:
    s = _document(args).space
    masks = s.aura_topology_masks
    if args.json:
        sets = [_set_labels(s, m) for m in _family_masks(masks)]
        _print_json({"count": len(masks), "sets": sets})
    else:
        _print([f"scope topology: {len(masks)} sets", _family_text(s, masks)])
    return 0


def _cmd_operator(args, op_name: str, fn) -> int:
    s = _document(args).space
    given = _parse_set(s, args.set)
    result = fn(s, given)
    if args.json:
        _print_json({
            "operation": op_name,
            "input": sorted(given.labels()),
            "result": sorted(result.labels()),
        })
    else:
        _print([f"{op_name} of {_set_text(s, given.mask)}: {_set_text(s, result.mask)}"])
    return 0


def cmd_closure(args) -> int:
    from .aura import aura_closure

    return _cmd_operator(args, "closure", aura_closure)


def cmd_interior(args) -> int:
    from .aura import aura_interior

    return _cmd_operator(args, "interior", aura_interior)


def cmd_derived(args) -> int:
    from .aura import derived_set

    return _cmd_operator(args, "derived", derived_set)


def cmd_components(args) -> int:
    from .connectivity import aura_components

    s = _document(args).space
    blocks = aura_components(s).blocks
    if args.json:
        _print_json({"components": [_set_labels(s, b.mask) for b in blocks]})
    else:
        _print(["components: " + " ".join(_set_text(s, b.mask) for b in blocks)])
    return 0


def cmd_subspace(args) -> int:
    from .constructions import subspace
    from .documents import serialize_space

    s = _document(args).space
    carrier = _parse_set(s, args.points)
    sub = subspace(s, carrier)
    sys.stdout.write(serialize_space(sub))
    return 0


def cmd_product(args) -> int:
    from .constructions import product
    from .documents import load_document, serialize_space

    left = load_document(args.left).space
    right = load_document(args.right).space
    sys.stdout.write(serialize_space(product(left, right)))
    return 0


def cmd_convergence(args) -> int:
    from .sequences import aura_limits, converges_to, parse_sequence

    s = _document(args).space
    seq = parse_sequence(s.universe, args.seq)
    if args.limit is not None:
        verdict = converges_to(s, seq, args.limit)
        if args.json:
            _print_json({"sequence": seq.text(), "point": args.limit, "converges": verdict})
        else:
            _print([f"sequence {seq.text()} converges to {args.limit}: {_bool(verdict)}"])
        return 0
    limits = aura_limits(s, seq)
    if args.json:
        _print_json({"sequence": seq.text(), "limits": sorted(limits.labels())})
    else:
        _print([f"limits of {seq.text()}: {_set_text(s, limits.mask)}"])
    return 0


def cmd_symbolic(args) -> int:
    from .symbolic import get_model

    model = get_model(args.model, carrier_label=args.carrier)
    report = model.compactness_report()
    if args.json:
        _print_json(report.to_json())
    elif args.report:
        _write_text(report.text())
    else:
        flags = " ".join(
            f"{key}={_bool(v.value)}" for key, v in report.verdicts().items()
        )
        _print([f"{report.model}: {flags}"])
    return 0


def cmd_search(args) -> int:
    from .search import search

    report = search(args.size, args.where, limit=args.limit)
    if args.json:
        _print_json(report.to_json())
    else:
        _write_text(report.text())
    return 0 if report.found() else 1


def cmd_matrix(args) -> int:
    from .search import implication_matrix

    report = implication_matrix(args.size)
    if args.json:
        _print_json(report.to_json())
    else:
        _write_text(report.text())
    return 0


def cmd_enumerate(args) -> int:
    from .search import count_auras, enumerate_topologies

    topologies = enumerate_topologies(args.size)
    auras = sum(count_auras(t) for t in topologies)
    if args.json:
        out = {"size": args.size, "topologies": len(topologies), "auras": auras}
        if not args.count_only:
            out["families"] = [
                [sorted_labels(t.universe, m) for m in _family_masks(t.mask_set)]
                for t in topologies
            ]
        _print_json(out)
        return 0
    lines = [f"size: {args.size}", f"topologies: {len(topologies)}", f"auras: {auras}"]
    if not args.count_only:
        for i, t in enumerate(topologies):
            lines.append(f"topology {i}: {family_text(t.universe, t.mask_set)}")
    _print(lines)
    return 0


def cmd_verify_paper(args) -> int:
    from .verification import MAX_LAW_SIZE, run_verification

    report = run_verification(
        fixtures_dir=args.fixtures_dir,
        include_laws=not args.skip_laws,
        law_max_n=MAX_LAW_SIZE if args.max_size is None else args.max_size,
    )
    if args.json:
        _print_json(report.to_json())
    else:
        _write_text(report.text())
    return 0 if report.ok else 1


def _add_json(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="emit machine-readable JSON")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="auratopo",
        description="Analyze finite topological spaces carrying a scope function.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse a space document and report its size")
    p.add_argument("file")
    _add_json(p)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("analyze", help="full report for one space document")
    p.add_argument("file")
    _add_json(p)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("tau-a", help="list the scope topology")
    p.add_argument("file")
    _add_json(p)
    p.set_defaults(fn=cmd_tau_a)

    for name, fn in (("closure", cmd_closure), ("interior", cmd_interior), ("derived", cmd_derived)):
        p = sub.add_parser(name, help=f"{name} of a set of points")
        p.add_argument("file")
        p.add_argument("--set", required=True, help='comma-separated labels, e.g. "a,b"')
        _add_json(p)
        p.set_defaults(fn=fn)

    p = sub.add_parser("components", help="component partition of a space")
    p.add_argument("file")
    _add_json(p)
    p.set_defaults(fn=cmd_components)

    p = sub.add_parser("subspace", help="emit the subspace document on given points")
    p.add_argument("file")
    p.add_argument("--points", required=True, help="comma-separated labels")
    p.set_defaults(fn=cmd_subspace)

    p = sub.add_parser("product", help="emit the product document of two spaces")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(fn=cmd_product)

    p = sub.add_parser("convergence", help="limits of an eventually periodic sequence")
    p.add_argument("file")
    p.add_argument("--seq", required=True, help='sequence "p1,p2;c1,c2" (prefix;cycle)')
    p.add_argument("--limit", help="check convergence to this point only")
    _add_json(p)
    p.set_defaults(fn=cmd_convergence)

    p = sub.add_parser("symbolic", help="compactness verdicts for a built-in infinite model")
    p.add_argument("model", choices=list(MODEL_NAMES))
    p.add_argument("--report", action="store_true", help="full report with reasons")
    p.add_argument("--carrier", default="R", help="carrier label for the trivial model")
    _add_json(p)
    p.set_defaults(fn=cmd_symbolic)

    p = sub.add_parser("search", help="scan all small spaces for a predicate")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--where", required=True, help='predicate, e.g. "aConnected and not tauConnected"')
    p.add_argument("--limit", type=int, default=None, help="keep at most this many witnesses")
    _add_json(p)
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("matrix", help="implication matrix over all predicate atoms")
    p.add_argument("--size", type=int, required=True)
    _add_json(p)
    p.set_defaults(fn=cmd_matrix)

    p = sub.add_parser("enumerate", help="enumerate topologies of a given size")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--count-only", action="store_true")
    _add_json(p)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("verify-paper", help="run all pinned fixture checks and laws")
    p.add_argument("--fixtures-dir", default=None, help="read fixtures from this directory")
    p.add_argument("--skip-laws", action="store_true", help="fixture checks only")
    p.add_argument("--max-size", type=int, help="largest space size for the law suite")
    _add_json(p)
    p.set_defaults(fn=cmd_verify_paper)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (AuraError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except KeyError as e:
        print(f"error: {e.args[0]}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
