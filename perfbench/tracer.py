"""Traced CLI run: wrap auratopo's layer entry points, then call the CLI.

Usage (from the repository root, with ``PYTHONPATH=src``)::

    python perfbench/tracer.py --out trace.json -- search --size 2 --where aT0

The CLI's stdout passes through unchanged, so a traced run can be compared
byte for byte with an untraced one. Counts and times go to ``--out``.

Every wrapped call is a span. A span's self time is its duration minus the
time its child spans cover; a stack of open spans attributes each child's
duration to its parent when it ends. Spans are aggregated per name in memory
(calls, total, self); the coarse ones (commands, laws, product scan, document
parse and serialise) are also kept one by one with start, end and parent, and
everything is written out when the CLI returns.

Wrappers are installed without touching ``src/``: a function is replaced in
every auratopo module namespace that binds it, which covers names bound with
``from ... import`` (``search.classify``, ``laws.derived_set``) as well as
module-attribute calls (``kernel.hull_masks``). Atoms are wrapped in
``search.ATOMS`` around the layer wrappers, so an atom that is a layer
function (``aConnected``) still opens that layer's span. Laws are wrapped in
``laws.LAWS``, and methods on their classes.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import sys
import time
from typing import Callable, Dict, List, Optional

MODULES = (
    "kernel", "kernel._pykernel", "finite", "aura", "connectivity", "constructions",
    "documents", "fixtures", "sequences", "covering", "genopen", "search", "laws",
    "verification", "cli",
)

KERNEL_FNS = (
    "hull_masks", "tau_a_masks", "union_closure", "aura_closure_mask",
    "component_count", "is_transitive", "is_symmetric", "enumerate_preorders",
)
KERNEL_SELF_FNS = KERNEL_FNS[:4]

# Public functions per layer that get a timed span. The layer is the span
# name's first component, so layer self time sums over these spans.
LAYER_FNS = {
    "aura": ("classify", "separation_axioms", "aura_closure", "aura_interior",
             "derived_set", "is_aura_open", "is_aura_closed", "aura_topology",
             "hull", "make_aura_space", "is_aura_continuous"),
    "connectivity": ("find_aura_separation", "is_aura_connected", "aura_components",
                     "is_aura_locally_connected", "is_aura_path_connected", "fence_path"),
    "constructions": ("subspace", "product", "product_topology_of_factors",
                      "iterated_product"),
    "documents": ("parse_document", "serialize_space", "load_document"),
    "sequences": ("aura_limits", "converges_to", "transitive_criterion", "parse_sequence",
                  "find_convergent_subsequence", "is_aura_sequentially_compact"),
    "covering": ("is_cover", "minimal_subcover", "fip", "is_aura_compact",
                 "is_countably_aura_compact", "is_aura_lindelof",
                 "is_aura_limit_point_compact", "generalized_compactness"),
    "genopen": ("is_generalized_open", "generalized_family"),
    "search": ("enumerate_topologies", "count_auras", "parse_predicate", "search",
               "implication_matrix", "product_strictness_scan", "space_descriptor",
               "_space_json"),
    "verification": ("fixture_checks", "run_verification"),
    "cli": ("_print", "_print_json", "_write_text", "_set_labels", "_set_text", "_family_text"),
}
GENERATOR_FNS = {"search": ("enumerate_auras",)}

# Groups sum the duration of their outermost spans only, so nested members
# are not counted twice.
GROUPS = {
    "search.render": ("search.space_descriptor", "search._space_json"),
    "search.enumerate": ("search.enumerate_topologies", "search.enumerate_auras"),
    "search.product_scan": ("search.product_strictness_scan",),
    "documents.parse": ("documents.parse_document",),
    "documents.serialize": ("documents.serialize_space",),
    "finite.validate": ("finite.TopologyFamily._validate",),
    "verification.fixture_checks": ("verification.fixture_checks",),
    "cli.render": ("cli._print", "cli._print_json", "cli._write_text", "cli.stdout.write",
                   "cli._set_labels", "cli._set_text", "cli._family_text",
                   "documents.serialize_space",
                   "search.SearchReport.text", "search.SearchReport.to_json",
                   "verification.VerificationReport.text",
                   "verification.VerificationReport.to_json"),
}
# Layers whose "calls" count entries from outside the layer only.
ENTRY_LAYERS = ("kernel", "connectivity")

# Spans kept one by one; all others are only aggregated.
COARSE_PREFIXES = ("laws.law.", "cli.main", "search.search", "search.implication_matrix",
                   "search.product_strictness_scan", "verification.fixture_checks",
                   "verification.run_verification", "documents.")


class Tracer:
    """Span stack plus per-name aggregates, kept in memory until the end."""

    def __init__(self):
        self.clock = time.perf_counter
        self.origin = self.clock()
        # One frame per open span: [child seconds, span id, name].
        self.stack: List[list] = [[0.0, 0, "root"]]
        self.next_id = 1
        self.stats: Dict[str, list] = {}  # name -> [calls, total, self]
        self.counts: Dict[str, int] = {}
        self.group_of: Dict[str, List[str]] = {}
        for group, members in GROUPS.items():
            for member in members:
                self.group_of.setdefault(member, []).append(group)
        self.group_depth = {g: 0 for g in GROUPS}
        self.group_total = {g: 0.0 for g in GROUPS}
        self.layer_depth = {layer: 0 for layer in ENTRY_LAYERS}
        self.layer_entries = {layer: 0 for layer in ENTRY_LAYERS}
        self.spans: List[tuple] = []

    def count(self, key: str, by: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    def timed(self, fn: Callable, name: str, after: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` in a span called ``name``; ``after`` sees its result."""
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        groups = self.group_of.get(name, ())
        layer = name.split(".", 1)[0]
        entry = layer if layer in self.layer_depth else None
        coarse = name.startswith(COARSE_PREFIXES)
        stack, clock = self.stack, self.clock
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [0.0, tracer.next_id, name]
            tracer.next_id += 1
            parent = stack[-1]
            stack.append(frame)
            for g in groups:
                tracer.group_depth[g] += 1
            if entry is not None:
                if tracer.layer_depth[entry] == 0:
                    tracer.layer_entries[entry] += 1
                tracer.layer_depth[entry] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                duration = end - start
                stack.pop()
                parent[0] += duration
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[0]
                for g in groups:
                    tracer.group_depth[g] -= 1
                    if tracer.group_depth[g] == 0:
                        tracer.group_total[g] += duration
                if entry is not None:
                    tracer.layer_depth[entry] -= 1
                if coarse:
                    tracer.spans.append((frame[1], parent[1], name, start - tracer.origin,
                                         end - tracer.origin))
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def timed_generator(self, fn: Callable, name: str) -> Callable:
        """Span each step of a generator, so only its own work is timed."""
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            step = self.timed(lambda: next(it, _DONE), name)
            while True:
                item = step()
                if item is _DONE:
                    return
                yield item

        self.stats.setdefault(name, [0, 0.0, 0.0])
        return wrapper

    def counted(self, fn: Callable, key: str) -> Callable:
        """Count calls only, for methods too hot to time one by one."""
        counts = self.counts
        counts.setdefault(key, 0)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper


_DONE = object()


class CountingStdout:
    """Pass-through stdout that times and counts what the CLI writes."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self.write = tracer.timed(self._write, "cli.stdout.write")
        self.bytes = 0

    def _write(self, text: str) -> int:
        self.bytes += len(text.encode("utf-8"))
        return self._inner.write(text)

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


def _replace_everywhere(mods: dict, original, replacement) -> None:
    """Rebind every module-level name bound to ``original``."""
    for mod in mods.values():
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)


def install(tracer: Tracer) -> dict:
    mods = {name: importlib.import_module(f"auratopo.{name}") for name in MODULES}
    kernel = mods["kernel"]
    missing = []
    wrapped = {}  # original function -> its wrapper

    def wrap_function(module, fn_name: str, span: str, generator=False, after=None) -> None:
        original = getattr(module, fn_name, None)
        if original is None:
            missing.append(span)
            return
        if generator:
            wrapper = tracer.timed_generator(original, span)
        else:
            wrapper = tracer.timed(original, span, after)
        wrapped[original] = wrapper
        _replace_everywhere(mods, original, wrapper)

    for fn_name in KERNEL_FNS:
        wrap_function(kernel, fn_name, f"kernel.{fn_name}")
    for layer, names in LAYER_FNS.items():
        for fn_name in names:
            after = None
            if layer == "search" and fn_name in ("search", "implication_matrix"):
                after = lambda report: tracer.count("search.spaces_scanned",
                                                    report.spaces_scanned)
            elif layer == "documents" and fn_name == "serialize_space":
                after = lambda text: tracer.count("documents.bytes_out",
                                                  len(text.encode("utf-8")))
            wrap_function(mods[layer], fn_name, f"{layer}.{fn_name}", after=after)
    for layer, names in GENERATOR_FNS.items():
        for fn_name in names:
            wrap_function(mods[layer], fn_name, f"{layer}.{fn_name}", generator=True)

    # Atoms that are layer functions themselves (aConnected is
    # is_aura_connected) wrap the layer's span, so the atom span nests over it.
    search = mods["search"]
    for atom, fn in list(search.ATOMS.items()):
        search.ATOMS[atom] = tracer.timed(wrapped.get(fn, fn), f"search.atom.{atom}")

    laws = mods["laws"]
    laws.LAWS[:] = [dataclasses.replace(law, run=tracer.timed(law.run, f"laws.law.{law.name}"))
                    for law in laws.LAWS]
    original_run_laws = laws.run_laws

    def count_checks(report) -> None:
        tracer.count("laws.checks", sum(o.checks for o in report.outcomes))

    _replace_everywhere(mods, original_run_laws,
                        tracer.timed(original_run_laws, "laws.run_laws", count_checks))

    def wrap_method(cls, attr: str, span: str) -> None:
        setattr(cls, attr, tracer.timed(getattr(cls, attr), span))

    def count_method(cls, attr: str, key: str) -> None:
        setattr(cls, attr, tracer.counted(getattr(cls, attr), key))

    finite, aura, sequences = mods["finite"], mods["aura"], mods["sequences"]
    wrap_method(aura.AuraSpace, "__init__", "aura.AuraSpace.__init__")
    wrap_method(laws.SpaceFacts, "__init__", "laws.SpaceFacts.__init__")
    wrap_method(laws.LawContext, "has_continuous_surjection", "laws.has_continuous_surjection")
    wrap_method(finite.TopologyFamily, "_validate", "finite.TopologyFamily._validate")
    count_method(finite.PointSet, "__init__", "finite.pointset.created")
    count_method(finite.PointSet, "text", "finite.pointset_text.calls")
    count_method(sequences.EvPSequence, "text", "sequences.text.calls")

    def count_printed(report) -> None:
        printed = len(report.witnesses)
        if report.implications is not None:
            printed += sum(1 for w in report.implications.values() if w is not None)
        tracer.count("search.witnesses_printed", printed)

    for attr in ("text", "to_json"):
        original = getattr(search.SearchReport, attr)

        def rendered(self, _original=original):
            count_printed(self)
            return _original(self)

        setattr(search.SearchReport, attr,
                tracer.timed(rendered, f"search.SearchReport.{attr}"))
        wrap_method(mods["verification"].VerificationReport, attr,
                    f"verification.VerificationReport.{attr}")

    if missing:
        raise SystemExit(f"tracer: entry points not found: {', '.join(missing)}")
    return mods


def summary(tracer: Tracer, stdout_bytes: int, law_names) -> dict:
    """Per-layer metrics of one traced process, by metric name."""
    stats = tracer.stats

    def calls(name: str) -> int:
        return stats[name][0]

    def self_s(prefix: str) -> float:
        return sum(v[2] for k, v in stats.items() if k.startswith(prefix))

    out: Dict[str, float] = {}
    out["kernel.calls"] = tracer.layer_entries["kernel"]
    out["kernel.self_s"] = self_s("kernel.")
    for fn in KERNEL_FNS:
        out[f"kernel.{fn}.calls"] = calls(f"kernel.{fn}")
    for fn in KERNEL_SELF_FNS:
        out[f"kernel.{fn}.self_s"] = stats[f"kernel.{fn}"][2]

    out["search.spaces_scanned"] = tracer.counts.get("search.spaces_scanned", 0)
    atoms = [k[len("search.atom."):] for k in stats if k.startswith("search.atom.")]
    for atom in atoms:
        out[f"search.atom.{atom}.evals"] = calls(f"search.atom.{atom}")
        out[f"search.atom.{atom}.self_s"] = stats[f"search.atom.{atom}"][2]
    out["search.enumerate_s"] = tracer.group_total["search.enumerate"]
    out["search.product_scan_s"] = tracer.group_total["search.product_scan"]
    rendered = calls("search._space_json")
    printed = tracer.counts.get("search.witnesses_printed", 0)
    out["search.witnesses_rendered"] = rendered
    out["search.witnesses_printed"] = printed
    out["search.render_s"] = tracer.group_total["search.render"]
    out["finite.pointset.created"] = tracer.counts["finite.pointset.created"]
    out["finite.pointset_text.calls"] = tracer.counts["finite.pointset_text.calls"]

    out["aura.spaces_built"] = calls("aura.AuraSpace.__init__")
    out["aura.classify.calls"] = calls("aura.classify")
    out["aura.separation_axioms.calls"] = calls("aura.separation_axioms")
    out["aura.operator.calls"] = sum(
        calls(f"aura.{fn}") for fn in ("aura_closure", "aura_interior", "derived_set"))
    out["aura.self_s"] = self_s("aura.")
    out["connectivity.calls"] = tracer.layer_entries["connectivity"]
    out["connectivity.self_s"] = self_s("connectivity.")

    for law in law_names:
        name = f"laws.law.{law}"
        out[f"laws.{law}.s"] = stats[name][1] if name in stats else 0.0
    out["laws.checks"] = tracer.counts.get("laws.checks", 0)
    out["laws.space_facts.built"] = calls("laws.SpaceFacts.__init__")
    out["laws.self_s"] = self_s("laws.")
    out["sequences.limits.calls"] = calls("sequences.aura_limits")
    out["sequences.text.calls"] = tracer.counts["sequences.text.calls"]
    out["sequences.self_s"] = self_s("sequences.")
    out["verification.fixture_checks_s"] = tracer.group_total["verification.fixture_checks"]
    out["covering.self_s"] = self_s("covering.")
    out["genopen.self_s"] = self_s("genopen.")

    out["finite.validate_s"] = tracer.group_total["finite.validate"]
    out["documents.parse_s"] = tracer.group_total["documents.parse"]
    out["documents.parse.calls"] = calls("documents.parse_document")
    out["documents.serialize_s"] = tracer.group_total["documents.serialize"]
    out["documents.bytes_out"] = tracer.counts.get("documents.bytes_out", 0)
    out["constructions.product.calls"] = calls("constructions.product")
    out["constructions.subspace.calls"] = calls("constructions.subspace")
    out["constructions.self_s"] = self_s("constructions.")

    out["cli.render_s"] = tracer.group_total["cli.render"]
    out["cli.stdout_bytes"] = stdout_bytes
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--out", required=True, help="write spans and metrics here (JSON)")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER,
                        help="arguments for auratopo.cli after --")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    tracer = Tracer()
    mods = install(tracer)
    stdout = CountingStdout(sys.stdout, tracer)
    sys.stdout = stdout
    try:
        code = tracer.timed(mods["cli"].main, "cli.main")(cli_args)
    finally:
        sys.stdout = stdout._inner
        sys.stdout.flush()
    doc = {
        "exit_code": code,
        "metrics": summary(tracer, stdout.bytes, mods["laws"].LAW_NAMES),
        "atoms": list(mods["search"].ATOM_NAMES),
        "backend": mods["kernel"].BACKEND,
        "spans": [dict(zip(("id", "parent", "name", "start", "end"), s))
                  for s in tracer.spans],
        "aggregates": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                       for k, v in sorted(tracer.stats.items())},
        "counts": dict(sorted(tracer.counts.items())),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
