"""Lattice and locale construction, frame law, morphism checks, free objects."""

import functools
import itertools
import operator
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finloc import lattice
from finloc.errors import (
    ConditionIFails,
    ConditionIIFails,
    DomainMismatch,
    MissingJoin,
    NotAPartialOrder,
    SizeBound,
)
from finloc.fixtures import CH3, M3, P2, TWO, chain, codiscrete, trivial_group, z_mod
from finloc.galois import GaloisCoend, default_site
from finloc.lattice import (
    MAX_CARRIER,
    FiniteLocale,
    FiniteSupLattice,
    SupMorphism,
    _canon,
    all_locales,
    build_suplattice,
    check_locale_morphism,
    check_sup_morphism,
    extend_to_free,
    function_lattice,
    is_frame,
    locale_morphisms,
    points,
    power_locale,
    presented_locale_morphism,
)
from finloc.modb import BModule


def test_build_two():
    L = build_suplattice((0, 1), [(0, 1)])
    assert L.bottom == 0 and L.top == 1
    assert L.join(0, 1) == 1 and L.meet(0, 1) == 0


def test_build_p2_from_cover_pairs():
    L = build_suplattice(("0", "a", "b", "1"),
                         [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
    assert len(L) == 4
    assert L.join("a", "b") == "1"
    assert L.meet("a", "b") == "0"


def test_missing_bottom_reported_with_empty_witness():
    with pytest.raises(MissingJoin) as e:
        build_suplattice(("a", "b"), [])
    assert e.value.witness == frozenset()


def test_missing_binary_join():
    # two atoms over a common bottom, no top
    with pytest.raises(MissingJoin) as e:
        build_suplattice(("0", "a", "b"), [("0", "a"), ("0", "b")])
    assert e.value.witness == frozenset({"a", "b"})


def test_antisymmetry_failure():
    with pytest.raises(NotAPartialOrder):
        build_suplattice(("a", "b"), [("a", "b"), ("b", "a")])


def test_is_frame_powerset_and_chains():
    assert is_frame(P2()) == (True, None)
    for n in range(1, 6):
        assert is_frame(chain(n))[0]


def test_is_frame_m3_witness():
    ok, witness = is_frame(M3())
    assert not ok
    a, y, z = witness
    L = M3()
    # the witness really violates distributivity
    assert L.meet(a, L.join(y, z)) != L.join(L.meet(a, y), L.meet(a, z))
    # oracle: first failing triple in canonical element order
    expected = next(
        (p, q, r)
        for p in L.elements for q in L.elements for r in L.elements
        if L.meet(p, L.join(q, r)) != L.join(L.meet(p, q), L.meet(p, r))
    )
    assert witness == expected


# -- the all-pairs definitions, as oracles for the adjunction tests ----------


def _N5():
    return build_suplattice(("0", "a", "b", "c", "1"),
                            [("0", "a"), ("a", "b"), ("b", "1"),
                             ("0", "c"), ("c", "1")])


def _frame_oracle(L):
    """The first triple in canonical element order that breaks a ∧ (y ∨ z) =
    (a ∧ y) ∨ (a ∧ z)."""
    for a in L.elements:
        for y in L.elements:
            for z in L.elements:
                if L.meet(a, L.join(y, z)) != L.join(L.meet(a, y), L.meet(a, z)):
                    return False, (a, y, z)
    return True, None


def _sup_oracle(f):
    """Kind of the first failure of f as a sup-morphism: bottom, then the
    join of every pair."""
    dom, cod, t = f.dom, f.cod, f.table
    if t[dom.bottom] != cod.bottom:
        return "bottom"
    if any(t[dom.join(x, y)] != cod.join(t[x], t[y])
           for x in dom.elements for y in dom.elements):
        return "join"
    return None


def _locale_oracle(f):
    """As `_sup_oracle`, then the top and the meet of every pair."""
    kind = _sup_oracle(f)
    if kind:
        return kind
    dom, cod, t = f.dom, f.cod, f.table
    if t[dom.top] != cod.top:
        return "top"
    if any(t[dom.meet(x, y)] != cod.meet(t[x], t[y])
           for x in dom.elements for y in dom.elements):
        return "meet"
    return None


def _violates(f, bad):
    """Whether the reported witness really breaks the law of its kind."""
    dom, cod, t = f.dom, f.cod, f.table
    if bad.kind in ("bottom", "top"):
        x = dom.bottom if bad.kind == "bottom" else dom.top
        want = cod.bottom if bad.kind == "bottom" else cod.top
        return bad.witness == (x,) and t[x] != want
    x, y = bad.witness
    if bad.kind == "join":
        return t[dom.join(x, y)] != cod.join(t[x], t[y])
    return t[dom.meet(x, y)] != cod.meet(t[x], t[y])


def test_morphism_checks_match_all_pairs_oracle():
    seen = set()
    for D in (TWO(), CH3(), P2(), M3(), _N5()):
        for C in (TWO(), CH3(), P2()):
            for values in itertools.product(C.elements, repeat=len(D)):
                f = SupMorphism(D, C, dict(zip(D.elements, values)))
                checks = [(check_sup_morphism, _sup_oracle)]
                if isinstance(D, FiniteLocale):
                    checks.append((check_locale_morphism, _locale_oracle))
                for check, oracle in checks:
                    bad, want = check(f), oracle(f)
                    assert (bad and bad.kind) == want
                    if bad:
                        assert _violates(f, bad)
                        seen.add(bad.kind)
    assert seen == {"bottom", "join", "top", "meet"}


def test_is_frame_matches_triple_loop():
    lattices = list(all_locales(8)) + [M3(), _N5()]
    for L in lattices:
        assert is_frame(L) == _frame_oracle(L)
    assert not is_frame(M3())[0] and not is_frame(_N5())[0]


def test_sup_morphism_examples():
    omega = TWO()
    assert check_sup_morphism(SupMorphism(omega, omega, {x: x for x in omega})) is None
    to_top = SupMorphism(omega, omega, {0: 1, 1: 1})
    bad = check_sup_morphism(to_top)
    assert bad and bad.kind == "bottom"
    # P2 -> TWO, U |-> [1 in U]: check all 16 pairs via the generic checker
    p2 = P2()
    member = SupMorphism(p2, omega, {u: (1 if 1 in u else 0) for u in p2.elements})
    assert check_sup_morphism(member) is None


def test_locale_morphism_examples():
    p2, omega = P2(), TWO()
    member = SupMorphism(p2, omega, {u: (1 if 1 in u else 0) for u in p2.elements})
    assert check_locale_morphism(member) is None
    nonempty = SupMorphism(p2, omega, {u: (1 if u else 0) for u in p2.elements})
    bad = check_locale_morphism(nonempty)
    assert bad and bad.kind == "meet"
    assert set(bad.witness) == {frozenset({1}), frozenset({2})}
    assert check_locale_morphism(SupMorphism(p2, p2, {x: x for x in p2})) is None


def test_locale_morphism_check_builds_no_lattice(monkeypatch):
    # the order duals are views on the endpoints' own rows and index
    p2, omega = P2(), TWO()
    member = SupMorphism(p2, omega, {u: (1 if 1 in u else 0) for u in p2.elements})
    built = []
    init = FiniteSupLattice.__init__

    def spy(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(FiniteSupLattice, "__init__", spy)
    assert check_locale_morphism(member) is None
    assert built == []


def test_power_locale():
    single = power_locale(("*",))
    assert len(single) == 2
    p2 = power_locale((1, 2))
    assert len(p2) == 4
    assert p2.singleton(1) == frozenset({1})
    empty = power_locale(())
    assert len(empty) == 1


def test_power_locale_matches_generic_construction():
    # dual route: every table equals the set operations, up to P(8)
    for k in range(9):
        p = power_locale(range(k))
        els = p.elements
        ix = {e: i for i, e in enumerate(els)}
        assert len(els) == 2 ** k
        assert (p.bottom, p.top) == (frozenset(), frozenset(range(k)))
        assert p._up == [sum(1 << j for j, b in enumerate(els) if a <= b)
                         for a in els]
        assert _tables(p) == ([[ix[a | b] for b in els] for a in els],
                              [[ix[a & b] for b in els] for a in els])


def test_function_lattice_sizes():
    assert len(function_lattice(TWO(), (0, 1))) == 4
    assert len(function_lattice(CH3(), (0, 1))) == 9
    assert len(function_lattice(P2(), ())) == 1


def test_function_lattice_matches_power_locale():
    # P(X) and TWO^X have identical join/meet tables under u <-> chi_u
    X = (0, 1)
    p = power_locale(X)
    f = function_lattice(TWO(), X)
    enc = {u: tuple(1 if x in u else 0 for x in f.domain) for u in p.elements}
    for a in p.elements:
        for b in p.elements:
            assert enc[p.join(a, b)] == f.join(enc[a], enc[b])
            assert enc[p.meet(a, b)] == f.meet(enc[a], enc[b])


def test_extend_to_free_identity_on_powerset():
    omega = TWO()
    fl = function_lattice(omega, (1, 2))
    p2 = P2()
    mod = BModule.omega_module(p2)
    f = {1: frozenset({1}), 2: frozenset({2})}
    g = extend_to_free(fl, f, mod)
    # theta corresponds to the subset it characterizes
    for theta in fl.elements:
        assert g(theta) == frozenset(
            x for x, a in zip(fl.domain, theta) if a == 1
        )


def test_extend_to_free_constant_bottom():
    H = CH3()
    fl = function_lattice(H, ("x", "y"))
    mod = BModule.self_module(H)
    g = extend_to_free(fl, {"x": H.bottom, "y": H.bottom}, mod)
    assert all(g(t) == H.bottom for t in fl.elements)


def test_extend_to_free_random_assignments_exhaustive():
    H = CH3()
    fl = function_lattice(H, ("a", "b", "c"))
    mod = BModule.self_module(H)
    import random

    rng = random.Random(7)
    for _ in range(5):
        f = {x: rng.choice(H.elements) for x in ("a", "b", "c")}
        g = extend_to_free(fl, f, mod)  # validates morphism + linearity itself
        for x in ("a", "b", "c"):
            assert g(fl.singleton(x)) == f[x]


def test_presented_locale_morphism_singleton_identity():
    omega = TWO()
    fl = function_lattice(omega, (1, 2))
    p2 = P2()
    mod = BModule.omega_module(p2)
    g = presented_locale_morphism(omega, (1, 2),
                                  {1: frozenset({1}), 2: frozenset({2})}, mod)
    assert check_locale_morphism(g) is None
    assert g(fl.singleton(1)) == frozenset({1})
    # yields an isomorphism Omega^Y ~ P2
    assert len(set(g.table.values())) == 4


def test_presented_locale_morphism_condition_failures():
    omega = TWO()
    mod = BModule.self_module(omega)
    with pytest.raises(ConditionIIFails) as e:
        presented_locale_morphism(omega, (1, 2), {1: 1, 2: 1}, mod)
    assert e.value.witness == (1, 2)
    with pytest.raises(ConditionIFails):
        presented_locale_morphism(omega, (1, 2), {1: 0, 2: 0}, mod)


def test_presented_iff_conditions_exhaustive():
    # success exactly when i) and ii) hold, over all assignments Y -> P2
    p2 = P2()
    mod = BModule.omega_module(p2)
    omega = TWO()
    ys = ("u", "v")
    for fu in p2.elements:
        for fv in p2.elements:
            f = {"u": fu, "v": fv}
            cond_i = p2.join(fu, fv) == p2.top
            cond_ii = p2.meet(fu, fv) == p2.bottom
            try:
                presented_locale_morphism(omega, ys, f, mod)
                assert cond_i and cond_ii
            except ConditionIFails:
                assert not cond_i
            except ConditionIIFails:
                assert cond_i and not cond_ii


def _brute_points(H):
    # oracle: every map H -> {0, 1}, filtered by the all-pairs definition
    omega = TWO()
    out = []
    for bits in itertools.product((0, 1), repeat=len(H)):
        f = SupMorphism(H, omega, dict(zip(H.elements, bits)))
        if _locale_oracle(f) is None:
            out.append(f.table.items())
    return {tuple(sorted(t, key=repr)) for t in out}


def test_points_counts_and_brute_force():
    for H, expected in ((TWO(), 1), (P2(), 2), (CH3(), 2),
                        (power_locale((1, 2, 3)), 3)):
        ps = points(H)
        assert len(ps) == expected
        assert {tuple(sorted(p.table.items(), key=repr)) for p in ps} \
            == _brute_points(H)


def _join_irreducibles_oracle(L):
    """J(L) by the fold definition: the elements that are not the join of
    their strict down-set."""
    return tuple(e for e in L.elements if e != L.bottom
                 and L.join_all(d for d in L.down_set(e) if d != e) != e)


def test_join_irreducibles_match_the_fold_oracle():
    # as tuples: lattice_presentation and locale_morphisms read J(L) in order
    from finloc.present import tensor

    lattices = list(all_locales(10)) + [M3(), _N5(), tensor(M3(), TWO()).lattice()]
    for L in lattices:
        assert L.join_irreducibles() == _join_irreducibles_oracle(L)
    assert len(lattices) == 112


def _brute_locale_morphisms(L, A):
    # oracle: every choice of values on J(L), extended by joins, filtered by
    # the all-pairs definition and deduplicated
    irr = L.join_irreducibles()
    out = set()
    for values in itertools.product(A.elements, repeat=len(irr)):
        v = dict(zip(irr, values))
        f = SupMorphism(L, A, {x: A.join_all(v[j] for j in irr if L.leq(j, x))
                               for x in L.elements})
        if _locale_oracle(f) is None:
            out.add(tuple(sorted(f.table.items(), key=repr)))
    return out


def test_locale_morphisms_match_brute_force():
    small = [L for L in all_locales(8) if len(L) <= 5]
    assert len(small) == 8
    coends = [GaloisCoend(default_site(G)).quotient.locale()
              for G in (trivial_group(), z_mod(2), z_mod(3), codiscrete(2))]
    for L in small + coends:
        for A in small:
            got = [tuple(sorted(f.table.items(), key=repr))
                   for f in locale_morphisms(L, A)]
            assert len(got) == len(set(got))
            assert set(got) == _brute_locale_morphisms(L, A)


def test_locale_morphisms_need_locales():
    with pytest.raises(DomainMismatch):
        locale_morphisms(M3(), TWO())


# -- algebraic laws, exhaustive on fixtures and random posets ---------------


def _check_algebra(L):
    els = L.elements
    for a in els:
        assert L.join(a, a) == a and L.meet(a, a) == a
        assert L.join(a, L.meet(a, els[0])) == a or True
    for a in els:
        for b in els:
            assert L.join(a, b) == L.join(b, a)
            assert L.meet(a, b) == L.meet(b, a)
            assert L.join(a, L.meet(a, b)) == a
            assert L.meet(a, L.join(a, b)) == a
    for a in els:
        for b in els:
            for c in els:
                assert L.join(a, L.join(b, c)) == L.join(L.join(a, b), c)
                assert L.meet(a, L.meet(b, c)) == L.meet(L.meet(a, b), c)


def test_algebra_laws_on_fixtures():
    for L in (TWO(), CH3(), P2(), M3(), chain(5)):
        _check_algebra(L)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.data())
def test_random_posets_complete_or_witnessed(n, data):
    # random generating pairs over n elements: either a lattice comes out and
    # satisfies the laws, or a witnessed construction error is raised
    pairs = data.draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=8))
    try:
        L = build_suplattice(range(n), pairs)
    except (NotAPartialOrder, MissingJoin) as e:
        assert e.witness is not None
        return
    _check_algebra(L)


# -- from_order against the oracle of least upper bounds ------------------


def _least_of(mask, up):
    b = mask
    while b:
        k = (b & -b).bit_length() - 1
        if up[k] & mask == mask:
            return k
        b &= b - 1
    return None


def _least_of_tables(elements, leq):
    """from_order's former tables: join as the least upper bound found by
    scanning, meet as the fold of joins over the lower bounds.  Returns
    (join table, meet table, bottom, top) or raises MissingJoin."""
    n = len(elements)
    up = [sum(1 << j for j, f in enumerate(elements) if leq(e, f))
          for e in elements]
    full = (1 << n) - 1
    bot = next((i for i in range(n) if up[i] == full), None)
    if bot is None:
        raise MissingJoin("no least element", witness=frozenset())
    jn = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            k = _least_of(up[i] & up[j], up)
            if k is None:
                raise MissingJoin("no join",
                                  witness=frozenset({elements[i], elements[j]}))
            jn[i][j] = jn[j][i] = k
    top = 0
    for i in range(n):
        top = jn[top][i]
    down = [sum(1 << j for j in range(n) if (up[j] >> i) & 1) for i in range(n)]
    mt = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            k, b = bot, down[i] & down[j]
            while b:
                k = jn[k][(b & -b).bit_length() - 1]
                b &= b - 1
            assert (down[i] & down[j]) >> k & 1
            mt[i][j] = mt[j][i] = k
    return jn, mt, bot, top


def _tables(L):
    """L's join and meet tables, read pair by pair through `join` and `meet`;
    the index accessors `join_index` and `meet_row` give the same rows."""
    els, n = L.elements, len(L)
    ix = {e: i for i, e in enumerate(els)}
    jn = [[ix[L.join(a, b)] for b in els] for a in els]
    mt = [[ix[L.meet(a, b)] for b in els] for a in els]
    assert [[L.join_index((i, j)) for j in range(n)] for i in range(n)] == jn
    assert list(map(L.meet_row, range(n))) == mt
    return jn, mt


def test_from_order_tables_match_least_of_oracle():
    from finloc.present import tensor

    N5 = _N5()
    lattices = list(all_locales(7)) + [M3(), N5, tensor(power_locale((1, 2)),
                                                         power_locale((1, 2, 3))).lattice()]
    for L in lattices:
        got = FiniteSupLattice.from_order(L.elements, L.leq)
        want = _least_of_tables(L.elements, L.leq)
        assert (*_tables(got), got.bottom_index, got.top_index) == want
    assert len(lattices[-1]) == 64


@pytest.mark.parametrize("elements, covers", [
    # bowtie: a, b lie below both c and d, so {a, b} has no least upper bound
    (("0", "a", "b", "c", "d", "1"),
     [("0", "a"), ("0", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
      ("c", "1"), ("d", "1")]),
    (("a", "b", "c", "d"), [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")]),
    # no top element: two atoms without an upper bound
    (("0", "a", "b"), [("0", "a"), ("0", "b")]),
])
def test_from_order_missing_join_matches_oracle(elements, covers):
    below = {(x, x) for x in elements} | set(covers)
    for _ in elements:  # transitive closure
        below |= {(x, z) for (x, y) in below for (y2, z) in below if y == y2}
    leq = lambda x, y: (x, y) in below
    with pytest.raises(MissingJoin) as want:
        _least_of_tables(elements, leq)
    with pytest.raises(MissingJoin) as got:
        FiniteSupLattice.from_order(elements, leq)
    assert got.value.witness == want.value.witness
    assert want.value.witness in (frozenset({"a", "b"}), frozenset())


# -- from_closed_sets against the oracle --------------------------------------


def _assert_matches_oracle(L, leq):
    """L's rows and tables are those of the order leq on its elements."""
    els = L.elements
    up = [sum(1 << j for j, f in enumerate(els) if leq(e, f)) for e in els]
    down = [sum(1 << j for j, u in enumerate(up) if u >> i & 1)
            for i in range(len(els))]
    assert (L._up, L._downs[0]) == (up, down)
    assert (*_tables(L), L.bottom_index, L.top_index) \
        == _least_of_tables(els, leq)


def _closed_set_lattices():
    """Every lattice the library builds through from_closed_sets from a
    family of sets, with the presentation when it has one."""
    from finloc.present import lattice_presentation, tensor
    from finloc.sheaf import build_Xd, enumerate_sheaves
    from xd_oracle import dense_Xd

    for k in range(9):
        yield power_locale(range(k)), None
    for L in all_locales(8):
        yield L, None
    for a, b in itertools.product(range(1, 10), repeat=2):
        if a * b <= 9:
            t = tensor(power_locale(range(a)), power_locale(range(b)))
            yield t.lattice(), t
    assert not is_frame(M3())[0]  # the all-element presentation, with rules
    assert lattice_presentation(M3(), "L").relations
    t = tensor(M3(), TWO())
    yield t.lattice(), t
    for X in enumerate_sheaves(CH3(), 3):  # with the dense route's quotient
        yield build_Xd(X).lattice, dense_Xd(X).quotient


def test_from_closed_sets_tables_match_least_of_oracle():
    count = 0
    for L, q in _closed_set_lattices():
        _assert_matches_oracle(L, lambda a, b: a <= b)
        if q is not None:  # and the family is every closure of a generator set
            subsets = itertools.chain.from_iterable(
                itertools.combinations(q.gens, r) for r in range(len(q.gens) + 1))
            assert set(L.elements) == {q.closure(s) for s in subsets}
            # and the join of two closed sets is the closure of their union
            masks = [sum(1 << q._gi[g] for g in s) for s in L.elements]
            close = functools.cache(q._close)  # many pairs share a union
            for mi, row in zip(masks, _tables(L)[0]):
                assert [masks[k] for k in row] == [close(mi | mj) for mj in masks]
        count += 1
    assert count == 9 + 36 + 23 + 1 + 60  # P(0)..P(8), locales, tensors, M3 (x) TWO, X_d


@pytest.mark.parametrize("H", [TWO, CH3, P2])
def test_function_lattice_tables_match_least_of_oracle(H):
    H = H()
    for k in range(5):
        fl = function_lattice(H, range(k))
        assert fl.elements == tuple(itertools.product(H.elements, repeat=k))
        _assert_matches_oracle(
            fl, lambda e, f: all(H.leq(a, b) for a, b in zip(e, f)))


def test_function_lattice_makes_no_order_calls(monkeypatch):
    H = P2()

    def leq(self, x, y):
        raise AssertionError("leq called")

    monkeypatch.setattr(FiniteSupLattice, "leq", leq)
    assert len(function_lattice(H, range(3))) == 64


def test_canon_orders_sets_by_size_then_members():
    subsets = [frozenset(c) for r in range(4)
               for c in itertools.combinations((1, 2, 3), r)]
    orders = {_canon(p) for p in itertools.permutations(subsets)}
    assert orders == {tuple(subsets)}


def test_power_locale_and_all_locales_list_subsets_first():
    for L in [power_locale(range(k)) for k in range(6)] + list(all_locales(6)):
        els = L.elements
        assert all(not b < a for i, a in enumerate(els) for b in els[i:])


def _family(*sets):
    """Elements and masks of a family of subsets of 'abcd'."""
    return sets, [sum(1 << "abcd".index(x) for x in s) for s in sets]


def test_from_closed_sets_without_close_joins_by_intersection():
    # {a} | {b} is no member: the join is the least member containing it
    els, masks = _family("", "a", "b", "abc")
    L = FiniteSupLattice.from_closed_sets(els, masks)
    assert L.join("a", "b") == "abc"
    _assert_matches_oracle(L, lambda x, y: set(x) <= set(y))


def test_from_closed_sets_missing_intersection():
    els, masks = _family("", "ab", "ac", "abc")
    with pytest.raises(MissingJoin, match="no greatest lower bound") as e:
        FiniteSupLattice.from_closed_sets(els, masks)
    x, y = e.value.witness
    assert masks[els.index(x)] & masks[els.index(y)] not in masks


@pytest.mark.parametrize("sets", [
    # abc and abd both contain {a} | {b}, and neither contains the other;
    # {a} | {c} lies below abc and acd, later in the same row
    ("", "a", "b", "c", "abc", "abd", "acd"),
    # every member lies below {a} | {b}: none contains it
    ("", "a", "b"),
], ids=["outside the family", "below the union"])
def test_from_closed_sets_close_that_is_no_upper_bound(sets):
    """The closure of {a} | {b}, the least member containing it, is missing."""
    els, masks = _family(*sets)
    with pytest.raises(MissingJoin, match="no least upper bound") as e:
        FiniteSupLattice.from_closed_sets(els, masks)
    assert e.value.witness == frozenset({"a", "b"})  # the first pair, row-major


def test_from_closed_sets_no_least_element_and_duplicates():
    with pytest.raises(MissingJoin, match="no least element") as e:
        FiniteSupLattice.from_closed_sets((), ())
    assert e.value.witness == frozenset()
    with pytest.raises(MissingJoin, match="no least element"):
        FiniteSupLattice.from_closed_sets(*_family("ab", "ac", "abc"))
    with pytest.raises(NotAPartialOrder, match="duplicate"):
        FiniteSupLattice.from_closed_sets(("x", "y"), (1, 1))
    with pytest.raises(NotAPartialOrder, match="duplicate"):
        FiniteSupLattice.from_closed_sets(("x", "x"), (0, 1))


def _pairwise_scan(elements, masks):
    """The MissingJoin of a family of masks by the pairwise scan, as (message
    kind, witness), or None when it is a lattice closed under intersection:
    no bottom, else the first pair in row-major order with no least member
    containing both, else the first whose intersection is no member."""
    members = set(masks)
    if functools.reduce(operator.and_, masks, -1) not in members:
        return "no least element", frozenset()

    def least_upper(a, b):
        ubs = [c for c in masks if a | b | c == c]
        return next((c for c in ubs if all(c | d == d for d in ubs)), None)

    def greatest_lower(a, b):
        return a & b if a & b in members else None

    for kind, bound in (("least upper", least_upper),
                        ("greatest lower", greatest_lower)):
        for (x, a), (y, b) in itertools.product(zip(elements, masks), repeat=2):
            if bound(a, b) is None:
                return f"no {kind} bound", frozenset({x, y})
    return None


def _assert_matches_pairwise_scan(masks):
    """from_closed_sets on masks, as sets over 0..4, builds the oracle's
    lattice or raises the pairwise scan's MissingJoin."""
    els = [frozenset(x for x in range(5) if m >> x & 1) for m in masks]
    want = _pairwise_scan(els, masks)
    try:
        L = FiniteSupLattice.from_closed_sets(els, masks)
    except MissingJoin as e:
        assert want is not None and want[0] in str(e) and e.witness == want[1]
        return
    assert want is None
    _assert_matches_oracle(L, operator.le)


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 5), st.data())
def test_from_closed_sets_matches_the_pairwise_scan(k, data):
    """Random families over k points, with and without a top and a bottom:
    the meet-irreducible check accepts exactly the lattices, and a family it
    rejects gets the witness of the full scan."""
    masks = data.draw(st.lists(st.integers(0, (1 << k) - 1), unique=True,
                               max_size=12))
    for extra in (functools.reduce(operator.or_, masks, 0),
                  functools.reduce(operator.and_, masks, (1 << k) - 1)):
        if data.draw(st.booleans()) and extra not in masks:
            masks.insert(data.draw(st.integers(0, len(masks))), extra)
    _assert_matches_pairwise_scan(masks)


@pytest.mark.parametrize("sets", [
    ("", "a", "b", "abc", "abd", "abcd"),
    ("", "a", "b"),
    ("", "a", "b", "c", "abc", "abd", "acd"),
    ("", "ab", "ac", "abc"),
    ("", "ab", "ac", "ad", "abcd"),
    ("", "ab", "ac", "abc", "abcd"),
    ("ab", "ac", "abc", "abcd"),
], ids=["bowtie", "no top, below the union", "outside the family",
        "no intersection", "no intersection under a top",
        "no intersection below a coatom", "no bottom"])
def test_from_closed_sets_fixed_families_match_the_pairwise_scan(sets):
    _assert_matches_pairwise_scan(_family(*sets)[1])


def test_join_meet_and_join_all_at_the_bound_fit_256_mb():
    """On P(4) (x) P(3), 4,096 elements, join, meet and join_all are read
    off the rows, under python -O: an n x n table would overflow this
    address space.  The tensor is free on 12 generators, so join is union
    and meet intersection."""
    from test_galois import _run_python_O

    proc = _run_python_O(
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))\n"
        "from finloc.lattice import power_locale\n"
        "from finloc.present import tensor\n"
        "T = tensor(power_locale(range(4)), power_locale(range(3))).lattice()\n"
        "a, b = T.elements[100], T.elements[-100]\n"
        "print(T.join(a, b) == T.join_all([a, b]) == a | b, T.meet(a, b) == a & b)\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "True"]


def test_tensor_at_the_bound_fits_256_mb():
    """P(4) (x) P(3), 4,096 elements, is built without its two tables:
    they alone would overflow this address space."""
    src = str(Path(lattice.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import resource, time\n"
         "resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))\n"
         "from finloc.lattice import power_locale\n"
         "from finloc.present import tensor\n"
         "t = time.perf_counter()\n"
         "n = len(tensor(power_locale(range(4)), power_locale(range(3))).lattice())\n"
         "print(n, time.perf_counter() - t)\n"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    n, seconds = proc.stdout.split()
    assert n == "4096" and float(seconds) < 2.0


# -- the one carrier bound ---------------------------------------------------


@pytest.mark.parametrize("build", [
    lambda: power_locale(range(13)),
    lambda: function_lattice(CH3(), range(8)),
    lambda: build_suplattice(range(MAX_CARRIER + 1), []),
    lambda: FiniteSupLattice.from_order(range(MAX_CARRIER + 1),
                                        lambda a, b: a <= b),
    lambda: FiniteSupLattice.from_closed_sets(range(MAX_CARRIER + 1),
                                              range(MAX_CARRIER + 1)),
], ids=["power_locale", "function_lattice", "build_suplattice",
        "from_order", "from_closed_sets"])
def test_carrier_past_the_bound_raises_size_bound(build):
    with pytest.raises(SizeBound, match=f"over the carrier bound {MAX_CARRIER}$"):
        build()
