import random

import pytest

from auratopo import (
    EvPSequence,
    aura_limits,
    converges_to,
    find_convergent_subsequence,
    is_aura_sequentially_compact,
    load_fixture,
    parse_sequence,
)
from auratopo import sequences
from auratopo.sequences import ORACLE_LIMIT, transitive_criterion
from auratopo.errors import EmptyUniverse, SizeOutOfRange
from auratopo.aura import classify, make_aura_space
from helpers import all_small_spaces, rand_space
from oracles import brute_limits


def test_parse_and_text_round_trip():
    s = load_fixture("chain3")
    u = s.universe
    q = parse_sequence(u, "0,1;2,1")
    assert q.prefix == (u.index("0"), u.index("1"))
    assert q.cycle == (u.index("2"), u.index("1"))
    assert q.text() == "0,1;2,1"
    assert parse_sequence(u, q.text()) == q
    empty_prefix = parse_sequence(u, ";0")
    assert empty_prefix.prefix == ()
    assert empty_prefix.text() == ";0"


def test_parse_rejects_malformed_text():
    u = load_fixture("chain3").universe
    with pytest.raises(ValueError, match="nonempty cycle"):
        parse_sequence(u, "0,1,2")
    with pytest.raises(ValueError, match="at least one point"):
        parse_sequence(u, "0;")
    with pytest.raises(KeyError):
        parse_sequence(u, ";9")


def test_sequence_validation():
    u = load_fixture("chain3").universe
    with pytest.raises(ValueError, match="cycle must be nonempty"):
        EvPSequence(u, (), ())
    with pytest.raises(ValueError, match="outside the universe"):
        EvPSequence(u, (5,), (0,))


def test_value_at_walks_prefix_then_cycle():
    u = load_fixture("chain3").universe
    q = EvPSequence(u, (0, 1), (2, 0))
    assert [q.value_at(k) for k in range(7)] == [0, 1, 2, 0, 2, 0, 2]


def test_limits_match_the_oracle():
    for s in all_small_spaces(3):
        if s.n == 0:
            continue
        for cm in range(1, 1 << s.n):
            cycle = tuple(i for i in range(s.n) if (cm >> i) & 1)
            q = EvPSequence(s.universe, (), cycle)
            got = aura_limits(s, q).mask
            assert got == brute_limits(s.n, list(s.scope_masks), cm)
    rng = random.Random(50)
    for _ in range(80):
        s = rand_space(rng, rng.randrange(1, 6))
        cycle = tuple(
            rng.randrange(s.n) for _ in range(rng.randrange(1, 4))
        )
        prefix = tuple(rng.randrange(s.n) for _ in range(rng.randrange(0, 3)))
        q = EvPSequence(s.universe, prefix, cycle)
        assert aura_limits(s, q).mask == brute_limits(
            s.n, list(s.scope_masks), q.cycle_mask()
        )


def test_prefix_never_affects_limits():
    rng = random.Random(51)
    for _ in range(40):
        s = rand_space(rng, rng.randrange(1, 6))
        cycle = tuple(rng.randrange(s.n) for _ in range(rng.randrange(1, 4)))
        bare = EvPSequence(s.universe, (), cycle)
        padded = EvPSequence(
            s.universe, tuple(rng.randrange(s.n) for _ in range(3)), cycle
        )
        assert aura_limits(s, bare).mask == aura_limits(s, padded).mask


def test_converges_to_reads_the_limit_set():
    s = load_fixture("chain3")
    q = parse_sequence(s.universe, ";2")
    assert converges_to(s, q, "0")
    assert converges_to(s, q, "2")
    q2 = parse_sequence(s.universe, ";0")
    assert converges_to(s, q2, "0")
    assert not converges_to(s, q2, "2")


def test_transitive_criterion_is_exact_on_transitive_spaces():
    for s in all_small_spaces(3):
        if s.n == 0:
            continue
        transitive = classify(s).transitive
        for cm in range(1, 1 << s.n):
            cycle = tuple(i for i in range(s.n) if (cm >> i) & 1)
            q = EvPSequence(s.universe, (), cycle)
            for label in s.universe.labels:
                crit = transitive_criterion(s, q, label)
                conv = converges_to(s, q, label)
                if crit:
                    assert conv
                if transitive:
                    assert crit == conv


def test_universe_mismatch_is_reported():
    s = load_fixture("chain3")
    other = load_fixture("sierpinski2")
    q = parse_sequence(other.universe, ";a")
    with pytest.raises(ValueError, match="different universe"):
        aura_limits(s, q)
    with pytest.raises(ValueError, match="different universe"):
        transitive_criterion(s, q, "0")
    with pytest.raises(ValueError, match="different universe"):
        find_convergent_subsequence(s, q)


def test_subsequence_witness_is_constant_and_convergent():
    rng = random.Random(52)
    for _ in range(60):
        s = rand_space(rng, rng.randrange(1, 6))
        cycle = tuple(rng.randrange(s.n) for _ in range(rng.randrange(1, 4)))
        prefix = tuple(rng.randrange(s.n) for _ in range(rng.randrange(0, 3)))
        q = EvPSequence(s.universe, prefix, cycle)
        w = find_convergent_subsequence(s, q)
        i = s.universe.index(w.point)
        indices = [w.rule.index(k) for k in range(5)]
        assert indices == sorted(set(indices))
        assert all(q.value_at(k) == i for k in indices)
        assert converges_to(s, EvPSequence(s.universe, (), (i,)), w.point)
        assert w.rule.describe() == f"indices {w.rule.start} + {w.rule.period}k"


def test_subsequence_requires_points():
    s = make_aura_space([], [[]], {})
    q_universe_error = EvPSequence
    with pytest.raises(EmptyUniverse):
        find_convergent_subsequence(
            s, q_universe_error(load_fixture("chain3").universe, (), (0,))
        )


def test_sequential_compactness_is_automatic_and_oracle_checked():
    for s in all_small_spaces(2):
        assert is_aura_sequentially_compact(s)
        assert is_aura_sequentially_compact(s, oracle=True)


def _discrete(n):
    points = [f"p{i}" for i in range(n)]
    opens = [[p for i, p in enumerate(points) if m >> i & 1] for m in range(1 << n)]
    return make_aura_space(points, opens, {p: [p] for p in points})


def test_sequential_compactness_oracle_has_a_size_budget(monkeypatch):
    assert is_aura_sequentially_compact(_discrete(ORACLE_LIMIT), oracle=True)
    big = _discrete(ORACLE_LIMIT + 1)
    assert is_aura_sequentially_compact(big)

    def scanned(*args):
        raise AssertionError("the oracle scan ran past its budget")

    monkeypatch.setattr(sequences, "find_convergent_subsequence", scanned)
    with pytest.raises(SizeOutOfRange, match=f"up to {ORACLE_LIMIT} points"):
        is_aura_sequentially_compact(big, oracle=True)


def test_short_sequences_list_every_prefix_and_cycle_once_in_order():
    seqs = list(sequences.short_sequences(_discrete(2).universe))
    assert len(set(seqs)) == len(seqs) == (1 + 2 + 4) * (2 + 4 + 8)
    assert [q.text() for q in seqs[:3]] == [";p0", ";p1", ";p0,p0"]
    assert seqs[14].text() == "p0;p0"
    assert seqs[-1].text() == "p1,p1;p1,p1,p1"
