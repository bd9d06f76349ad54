"""Independent brute-force recomputations used to cross-check the library.

Everything here works straight from the definitions with no shared code
paths: operators scan point by point, topologies are found by filtering
every candidate family, and connectivity splits carriers into every
two-part cover. All of it is exponential and only meant for tiny sizes.
"""

import itertools
import json


def brute_closure(n, scopes, a):
    out = 0
    for x in range(n):
        if scopes[x] & a:
            out |= 1 << x
    return out


def brute_interior(n, scopes, a):
    out = 0
    for x in range(n):
        if (a >> x) & 1 and not scopes[x] & ~a:
            out |= 1 << x
    return out


def brute_derived(n, scopes, a):
    out = 0
    for x in range(n):
        if scopes[x] & (a & ~(1 << x)):
            out |= 1 << x
    return out


def brute_tau_a(n, scopes):
    """All sets containing the scope of each of their points."""
    out = []
    for a in range(1 << n):
        if all(not scopes[x] & ~a for x in range(n) if (a >> x) & 1):
            out.append(a)
    return sorted(out)


def brute_hull(n, scopes, x):
    """Smallest scope-open set containing the point.

    The family is closed under intersection, so the intersection of all
    members containing x is itself a member and is the minimum.
    """
    inter = (1 << n) - 1
    for a in brute_tau_a(n, scopes):
        if (a >> x) & 1:
            inter &= a
    return inter


def brute_is_connected(n, scopes, carrier):
    """No two-part split of the carrier by relatively scope-open sets.

    The subspace scope function cuts each scope to the carrier; a split
    is a pair of nonempty disjoint sets covering the carrier, both open
    in the subspace scope topology.
    """
    if carrier == 0:
        return True
    points = [x for x in range(n) if (carrier >> x) & 1]
    sub_scopes = {x: scopes[x] & carrier for x in points}

    def sub_open(a):
        return all(not sub_scopes[x] & ~a for x in points if (a >> x) & 1)

    proper = []
    for a in range(1 << n):
        if a & ~carrier:
            continue
        if a and a != carrier and sub_open(a):
            proper.append(a)
    for a in proper:
        if (carrier & ~a) in proper:
            return False
    return True


def brute_first_separation(n, scopes, carrier, notion):
    """First separation's left part in the canonical order, or None.

    The relatively open subsets of the carrier are those of the subspace
    scope topology (each scope cut to the carrier) for ``"aura"``, and the
    trace of ``brute_tau_a`` on the carrier for ``"tau_a"``. Sorted by size
    and then by ascending point indices, the first nonempty proper one whose
    complement in the carrier is relatively open too is returned.
    """
    if notion == "aura":
        points = [x for x in range(n) if (carrier >> x) & 1]
        opens = {
            a for a in range(1 << n)
            if not a & ~carrier
            and all(not scopes[x] & carrier & ~a for x in points if (a >> x) & 1)
        }
    else:
        opens = {o & carrier for o in brute_tau_a(n, scopes)}

    def key(m):
        points = [x for x in range(n) if (m >> x) & 1]
        return (len(points), points)

    for u in sorted(opens, key=key):
        if u and u != carrier and (carrier & ~u) in opens:
            return u
    return None


def brute_components(n, scopes):
    """Blocks as maximal connected subsets, found by downward scan."""
    full = (1 << n) - 1
    blocks = []
    assigned = 0
    for x in range(n):
        if (assigned >> x) & 1:
            continue
        best = 1 << x
        for size in range(n, 0, -1):
            found = None
            for combo in itertools.combinations(range(n), size):
                m = 0
                for i in combo:
                    m |= 1 << i
                if (m >> x) & 1 and brute_is_connected(n, scopes, m):
                    found = m
                    break
            if found is not None:
                best = found
                break
        blocks.append(best)
        assigned |= best
    assert assigned == full or n == 0
    return sorted(blocks, key=lambda m: (m & -m).bit_length())


def brute_is_topology(n, family):
    """The finite topology axioms as stated: the empty set and the whole
    set are members, and so are the union and the intersection of every
    two members."""
    fam = set(family)
    full = (1 << n) - 1
    if 0 not in fam or full not in fam:
        return False
    return all((a | b) in fam and (a & b) in fam for a in fam for b in fam)


def brute_first_violation(n, family):
    """First violated axiom in the canonical order, with its witness.

    The order is: empty set, whole set, then every union, then every
    intersection, of pairs a before b with members sorted by size and then
    by their ascending point indices. Returns None for a topology,
    ``("empty",)`` or ``("whole",)``, or ``(kind, a, b)`` with kind
    ``"union"`` or ``"intersection"``.
    """
    fam = set(family)
    full = (1 << n) - 1
    if 0 not in fam:
        return ("empty",)
    if full not in fam:
        return ("whole",)

    def key(m):
        points = [x for x in range(n) if (m >> x) & 1]
        return (len(points), points)

    ordered = sorted(fam, key=key)
    pairs = list(itertools.combinations(ordered, 2))
    for a, b in pairs:
        if (a | b) not in fam:
            return ("union", a, b)
    for a, b in pairs:
        if (a & b) not in fam:
            return ("intersection", a, b)
    return None


def brute_topologies(n):
    """Every family over n points satisfying the finite topology axioms."""
    subsets = list(range(1 << n))
    out = []
    for bits in range(1 << len(subsets)):
        family = [subsets[i] for i in range(len(subsets)) if (bits >> i) & 1]
        if brute_is_topology(n, family):
            out.append(frozenset(family))
    return out


def brute_limits(n, scopes, cycle_mask):
    """Limits by the definition: every scope-open neighbourhood of the
    point eventually contains the sequence, which for an eventually
    periodic sequence means it contains the whole cycle range."""
    tau = brute_tau_a(n, scopes)
    out = 0
    for x in range(n):
        if all(not cycle_mask & ~u for u in tau if (u >> x) & 1):
            out |= 1 << x
    return out


def brute_is_continuous(images, src_n, src_scopes, dst_n, dst_scopes):
    """Preimage of every scope-open set is scope-open."""
    src_tau = set(brute_tau_a(src_n, src_scopes))
    for v in brute_tau_a(dst_n, dst_scopes):
        pre = 0
        for i in range(src_n):
            if (v >> images[i]) & 1:
                pre |= 1 << i
        if pre not in src_tau:
            return False
    return True


def plain_walk(topologies, atoms):
    """Every space of the grid over ``topologies``, in grid order, as
    (topology index, aura index, scope tuple, valuation key over
    ``atoms``): the walk the scans made before they decided the grid from
    its scope classes, with no stop and no skipped space.

    Unlike the rest of this module it reads the scope-only atoms through
    the package, in the key layout of ``auratopo.search``: each scope tuple
    is decided on its own first grid space through ``ATOMS``, with no
    relabelling, and other tests check those values against the
    definitions. ``tauConnected`` is decided once per topology, and
    ``tauAEqualsTau`` compares each space's own hulls with its topology's
    minimal opens.
    """
    from auratopo import AuraSpace, kernel
    from auratopo.search import ATOMS, _checked_choices, _scope_atoms

    scope = _scope_atoms(atoms)
    equals_read = "tauAEqualsTau" in atoms
    memo = {}
    for ti, topology in enumerate(topologies):
        minimal = topology.minimal_masks
        tau_connected = ATOMS["tauConnected"](topology) if "tauConnected" in atoms else None
        for aura_index, picks in enumerate(itertools.product(*_checked_choices(topology))):
            if picks not in memo:
                s = AuraSpace(topology, picks)
                memo[picks] = tuple(ATOMS[a](s) for a in scope)
            equals = tuple(kernel.hull_masks(len(picks), picks)) == minimal if equals_read else None
            yield ti, aura_index, picks, (memo[picks], tau_connected, equals)


# ---------------------------------------------------------------------------
# The document layer before it parsed in one pass and rendered sets from
# byte tables: the references the new parser and renderers must match
# exactly.

def reference_sorted_labels(labels, mask):
    """Member labels of a mask, sorted, by a walk over every index."""
    return sorted(lab for i, lab in enumerate(labels) if mask >> i & 1)


def reference_family_key(mask):
    """Canonical family order by its definition: size, then the ascending
    member indices."""
    indices = tuple(i for i in range(mask.bit_length()) if mask >> i & 1)
    return (len(indices), indices)


def reference_document(labels, opens, scopes, name=None):
    """The canonical document text of a space given as labels, open masks
    and one scope mask per point, through ``json.dumps``."""
    doc = {
        "points": list(labels),
        "opens": [reference_sorted_labels(labels, m)
                  for m in sorted(opens, key=reference_family_key)],
        "aura": {lab: reference_sorted_labels(labels, m) for lab, m in zip(labels, scopes)},
    }
    if name is not None:
        doc["name"] = name
    return json.dumps(doc, indent=2, ensure_ascii=True) + "\n"


def _require_label_list(value, where):
    from auratopo.errors import MalformedDocument

    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise MalformedDocument(f"{where} must be a list of point labels")
    return value


def reference_parse_document(text):
    """``parse_document`` as it was: every field checked in full, in three
    passes over the labels, then ``make_aura_space``."""
    from auratopo.aura import make_aura_space
    from auratopo.documents import SpaceDocument
    from auratopo.errors import DocumentSyntaxError, MalformedDocument, UnknownPoint

    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise DocumentSyntaxError(f"line {e.lineno} column {e.colno}", e.msg) from None

    if not isinstance(raw, dict):
        raise MalformedDocument("top-level value must be an object")
    for key in raw:
        if key not in ("points", "opens", "aura", "name"):
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

    return SpaceDocument(make_aura_space(points, opens, aura), name)
