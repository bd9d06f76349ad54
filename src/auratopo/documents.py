"""JSON documents describing finite scoped spaces.

A document is an object with fields ``points`` (list of labels), ``opens``
(list of label lists forming the ambient topology), ``aura`` (label to
label-list map), and an optional ``name``.  Anything else is rejected.  The
serializer is canonical, so parse/serialize round-trips are byte-stable.
"""

from __future__ import annotations

import json
from collections import namedtuple
from json.encoder import encode_basestring_ascii as _quote
from typing import Optional

from .aura import AuraSpace
from .errors import DocumentSyntaxError, MalformedDocument, UnknownPoint
from .finite import PointUniverse, TopologyFamily

__all__ = ["SpaceDocument", "parse_document", "parse_space", "serialize_space", "load_document"]

_FIELDS = ("points", "opens", "aura", "name")


class SpaceDocument(namedtuple("SpaceDocument", "space name", defaults=(None,))):
    """A parsed and validated document: the space plus its optional name."""

    __slots__ = ()


def _require_label_list(value, where: str) -> list:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise MalformedDocument(f"{where} must be a list of point labels")
    return value


def _label_masks(entries: list, bits: dict) -> Optional[list]:
    """The mask of each entry, ORing one ``label -> bit`` lookup per label,
    or None when some entry is not a list or names a label that ``bits``
    lacks (a non-string never matches, since every key is a string)."""
    if not set(map(type, entries)) <= {list}:
        return None
    masks = []
    try:
        for entry in entries:
            mask = 0
            for lab in entry:
                mask |= bits[lab]
            masks.append(mask)
    except (KeyError, TypeError):
        return None
    return masks


def parse_document(text: str) -> SpaceDocument:
    """Parse and validate one document in a single pass over its labels.

    Each open and each scope becomes a mask by ORing ``label -> bit``
    lookups. Only when that fails do the field checks walk the entries,
    raising the typed error of the first bad one, so a valid document is
    never checked twice and a bad one gets the same error as a field-by-field
    check would give. The universe, the topology (validated) and the space
    are built last.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise DocumentSyntaxError(f"line {e.lineno} column {e.colno}", e.msg) from None
    except RecursionError:
        raise DocumentSyntaxError("the parser's depth limit",
                                  "arrays and objects nested too deeply") from None

    if not isinstance(raw, dict):
        raise MalformedDocument("top-level value must be an object")
    for key in raw:
        if key not in _FIELDS:
            raise MalformedDocument(f"unknown field {key!r}")
    for key in ("points", "opens", "aura"):
        if key not in raw:
            raise MalformedDocument(f"missing field {key!r}")

    points = _require_label_list(raw["points"], "points")
    bits = {}
    for i, lab in enumerate(points):
        if lab in bits:
            raise MalformedDocument(f"duplicate point label {lab!r}")
        bits[lab] = 1 << i

    opens = raw["opens"]
    if not isinstance(opens, list):
        raise MalformedDocument("opens must be a list of label lists")
    open_masks = _label_masks(opens, bits)
    if open_masks is None:
        for i, entry in enumerate(opens):
            _require_label_list(entry, f"opens[{i}]")
            for lab in entry:
                if lab not in bits:
                    raise UnknownPoint(lab)

    aura = raw["aura"]
    if not isinstance(aura, dict):
        raise MalformedDocument("aura must be an object mapping labels to label lists")
    scope_masks = None
    if len(aura) == len(points):
        scope_masks = _label_masks(list(map(aura.get, points)), bits)
    if scope_masks is None:
        for lab in aura:
            if lab not in bits:
                raise UnknownPoint(lab)
        for lab in points:
            if lab not in aura:
                raise MalformedDocument(f"aura is missing an entry for point {lab!r}")
            _require_label_list(aura[lab], f"aura[{lab!r}]")
            for member in aura[lab]:
                if member not in bits:
                    raise UnknownPoint(member)

    name = raw.get("name")
    if name is not None and not isinstance(name, str):
        raise MalformedDocument("name must be a string")

    universe = PointUniverse(points)
    space = AuraSpace(TopologyFamily(universe, open_masks), scope_masks)
    return SpaceDocument(space, name)


def parse_space(text: str) -> AuraSpace:
    return parse_document(text).space


def serialize_space(space: AuraSpace, name: Optional[str] = None) -> str:
    """The space's canonical document text.

    The bytes are ``json.dumps(doc, indent=2, ensure_ascii=True) + "\\n"``
    for ``doc = space_document(space)`` plus ``name`` when given. The fixed
    shape is laid out here, because any indent sends ``json`` to its
    pure-Python encoder; each label is quoted once, by json's own
    ``encode_basestring_ascii``.
    """
    universe = space.universe
    ranked = universe.ranked
    quoted = [_quote(lab) for lab in universe.labels]
    member = {lab: "\n      " + q for lab, q in zip(universe.labels, quoted)}.__getitem__

    def listing(mask: int) -> str:
        labels = ranked(mask)
        return "[" + ",".join(map(member, labels)) + "\n    ]" if labels else "[]"

    points = "[" + ",".join(["\n    " + q for q in quoted]) + "\n  ]" if quoted else "[]"
    opens = ",".join(["\n    " + listing(m) for m in space.topology.ordered_masks])
    aura = ",".join([f"\n    {q}: {listing(m)}" for q, m in zip(quoted, space.scope_masks)])
    parts = [
        '{\n  "points": ', points,
        ',\n  "opens": [', opens, "\n  ]",
        ',\n  "aura": ', "{" + aura + "\n  }" if aura else "{}",
    ]
    if name is not None:
        parts += [',\n  "name": ', _quote(name)]
    parts.append("\n}\n")
    return "".join(parts)


def load_document(path: str) -> SpaceDocument:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_document(fh.read())
