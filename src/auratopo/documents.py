"""JSON documents describing finite scoped spaces.

A document is an object with fields ``points`` (list of labels), ``opens``
(list of label lists forming the ambient topology), ``aura`` (label to
label-list map), and an optional ``name``.  Anything else is rejected.  The
serializer is canonical, so parse/serialize round-trips are byte-stable.
"""

from __future__ import annotations

import json
from collections import namedtuple
from typing import Optional

from .aura import AuraSpace, make_aura_space, space_document
from .errors import DocumentSyntaxError, MalformedDocument, UnknownPoint

__all__ = ["SpaceDocument", "parse_document", "parse_space", "serialize_space", "load_document"]

_FIELDS = ("points", "opens", "aura", "name")


class SpaceDocument(namedtuple("SpaceDocument", "space name", defaults=(None,))):
    """A parsed and validated document: the space plus its optional name."""

    __slots__ = ()


def _require_label_list(value, where: str) -> list:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise MalformedDocument(f"{where} must be a list of point labels")
    return value


def parse_document(text: str) -> SpaceDocument:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise DocumentSyntaxError(f"line {e.lineno} column {e.colno}", e.msg) from None

    if not isinstance(raw, dict):
        raise MalformedDocument("top-level value must be an object")
    for key in raw:
        if key not in _FIELDS:
            raise MalformedDocument(f"unknown field {key!r}")
    for key in ("points", "opens", "aura"):
        if key not in raw:
            raise MalformedDocument(f"missing field {key!r}")

    points = _require_label_list(raw["points"], "points")
    seen = set()
    for lab in points:
        if lab in seen:
            raise MalformedDocument(f"duplicate point label {lab!r}")
        seen.add(lab)

    opens = raw["opens"]
    if not isinstance(opens, list):
        raise MalformedDocument("opens must be a list of label lists")
    for i, entry in enumerate(opens):
        _require_label_list(entry, f"opens[{i}]")
        for lab in entry:
            if lab not in seen:
                raise UnknownPoint(lab)

    aura = raw["aura"]
    if not isinstance(aura, dict):
        raise MalformedDocument("aura must be an object mapping labels to label lists")
    for lab in aura:
        if lab not in seen:
            raise UnknownPoint(lab)
    for lab in points:
        if lab not in aura:
            raise MalformedDocument(f"aura is missing an entry for point {lab!r}")
        _require_label_list(aura[lab], f"aura[{lab!r}]")
        for member in aura[lab]:
            if member not in seen:
                raise UnknownPoint(member)

    name = raw.get("name")
    if name is not None and not isinstance(name, str):
        raise MalformedDocument("name must be a string")

    space = make_aura_space(points, opens, aura)
    return SpaceDocument(space, name)


def parse_space(text: str) -> AuraSpace:
    return parse_document(text).space


def serialize_space(space: AuraSpace, name: Optional[str] = None) -> str:
    doc = space_document(space)
    if name is not None:
        doc["name"] = name
    return json.dumps(doc, indent=2, ensure_ascii=True) + "\n"


def load_document(path: str) -> SpaceDocument:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_document(fh.read())
