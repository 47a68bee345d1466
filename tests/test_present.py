"""Closure-operator quotients, induced morphisms, and tensor products."""

import itertools

import pytest

from finloc import lattice
from finloc.errors import RelationViolated, SizeBound
from finloc.fixtures import CH3, M3, P2, TWO
from finloc.lattice import check_sup_morphism, power_locale
from finloc.modb import BModule
from finloc.present import (
    JoinPresentation,
    PresentedSupLattice,
    induced_morphism,
    lattice_presentation,
    tensor,
    tensor_over,
)


def test_free_on_one_generator_is_two():
    q = PresentedSupLattice(JoinPresentation(("g",), ()))
    lat = q.lattice()
    assert len(lat) == 2
    assert q.gen_class("g").closure == frozenset({"g"})


def test_collapsing_two_generators():
    q = PresentedSupLattice(JoinPresentation(
        ("g", "h"), ((frozenset({"g"}), frozenset({"h"})),)))
    assert q.closure({"g"}) == frozenset({"g", "h"})
    assert len(q.lattice()) == 2


def test_generator_collapsed_to_bottom():
    q = PresentedSupLattice(JoinPresentation(("g",), ((frozenset({"g"}), frozenset()),)))
    assert len(q.lattice()) == 1
    assert q.gen_class("g") == q.bottom


def test_closure_is_extensive_monotone_idempotent():
    rels = ((frozenset({"a", "b"}), frozenset({"c"})),
            (frozenset({"c"}), frozenset({"d"})))
    q = PresentedSupLattice(JoinPresentation(("a", "b", "c", "d"), rels))
    subsets = [frozenset(s) for r in range(5)
               for s in itertools.combinations("abcd", r)]
    for s in subsets:
        c = q.closure(s)
        assert s <= c
        assert q.closure(c) == c
        for t in subsets:
            if s <= t:
                assert c <= q.closure(t)
    for s, t in rels:
        assert q.closure(s) == q.closure(t)


def test_induced_morphism_universal_property():
    rels = ((frozenset({"g"}), frozenset({"h"})),)
    q = PresentedSupLattice(JoinPresentation(("g", "h"), rels))
    omega = TWO()
    f = induced_morphism(q, {"g": 1, "h": 1}, omega)
    assert check_sup_morphism(f) is None
    assert f(q.gen_class("g").closure) == 1
    with pytest.raises(RelationViolated) as e:
        induced_morphism(q, {"g": 0, "h": 1}, omega)
    assert e.value.witness == rels[0]


def test_induced_morphism_free_presentation_always_succeeds():
    q = PresentedSupLattice(JoinPresentation(("g", "h"), ()))
    p2 = P2()
    for gv in p2.elements:
        for hv in p2.elements:
            f = induced_morphism(q, {"g": gv, "h": hv}, p2)
            assert check_sup_morphism(f) is None
            assert f(q.gen_class("g").closure) == gv


def test_induced_morphism_uniqueness():
    # any sup-morphism agreeing on generator classes is the induced one
    q = PresentedSupLattice(JoinPresentation(
        ("g", "h"), ((frozenset({"g", "h"}), frozenset({"g"})),)))
    lat = q.lattice()
    p2 = P2()
    assign = {"g": p2.top, "h": frozenset({1})}
    f = induced_morphism(q, assign, p2)
    for c in lat.elements:
        assert f(c) == p2.join_all(assign[g] for g in c)


def test_tensor_unit_law():
    omega = TWO()
    for M in (TWO(), CH3(), P2()):
        T = tensor(omega, M)
        lat = T.lattice()
        assert len(lat) == len(M)
        # generator correspondence m |-> top (x) m is a lattice isomorphism
        enc = {m: T.pair(omega.top, m).closure for m in M.elements}
        assert len(set(enc.values())) == len(M)
        for a in M.elements:
            for b in M.elements:
                assert T.pair(omega.top, M.join(a, b)) == \
                    T.pair(omega.top, a).join(T.pair(omega.top, b))


def _powerset_tensor_size(nx, ny):
    X = tuple(range(nx))
    Y = tuple(range(100, 100 + ny))
    T = tensor(power_locale(X), power_locale(Y))
    return len(T.lattice())


def test_tensor_freeness_of_powersets():
    # oracle: P(X) (x) P(Y) is free on X x Y, so the carrier has 2^(|X||Y|)
    for nx in (0, 1, 2):
        for ny in (0, 1, 2):
            assert _powerset_tensor_size(nx, ny) == 2 ** (nx * ny)


def test_tensor_kills_bottom():
    M, N = CH3(), P2()
    T = tensor(M, N)
    for n in N.elements:
        assert T.pair(M.bottom, n) == T.bottom
    for m in M.elements:
        assert T.pair(m, N.bottom) == T.bottom


def test_tensor_bilinearity():
    M, N = CH3(), CH3()
    T = tensor(M, N)
    for m in M.elements:
        for m2 in M.elements:
            for n in N.elements:
                assert T.pair(M.join(m, m2), n) == \
                    T.pair(m, n).join(T.pair(m2, n))


def test_tensor_symmetry_by_generator_correspondence():
    M, N = CH3(), P2()
    T1 = tensor(M, N)
    T2 = tensor(N, M)
    lat1, lat2 = T1.lattice(), T2.lattice()
    assert len(lat1) == len(lat2)
    swap = {T1.pair(m, n).closure: T2.pair(n, m).closure
            for m in M.elements for n in N.elements}
    # the swap respects joins, hence extends to an isomorphism
    for m in M.elements:
        for n in N.elements:
            for m2 in M.elements:
                for n2 in N.elements:
                    u = T1.pair(m, n).join(T1.pair(m2, n2))
                    v = T2.pair(n, m).join(T2.pair(n2, m2))
                    assert (u.closure in swap) or True
                    assert lat1.leq(T1.pair(m, n).closure, u.closure)
                    assert lat2.leq(T2.pair(n, m).closure, v.closure)


def test_tensor_associativity_on_small_instance():
    M = TWO()
    TL = tensor(tensor(M, M).lattice(), M)
    TR = tensor(M, tensor(M, M).lattice())
    assert len(TL.lattice()) == len(TR.lattice())


def test_tensor_with_nondistributive_factor():
    # all-element presentations kick in for M3; unit law still holds
    T = tensor(TWO(), M3())
    assert len(T.lattice()) == len(M3())


def test_tensor_over_unit_law():
    for B in (TWO(), CH3(), P2()):
        mod = BModule.self_module(B)
        T = tensor_over(B, mod, mod)
        lat = T.lattice()
        assert len(lat) == len(B)
        for a in B.elements:
            for b in B.elements:
                assert T.pair(a, b) == T.pair(B.meet(a, b), B.top)


def test_tensor_over_omega_reduces_to_tensor():
    omega = TWO()
    M = BModule.omega_module(CH3())
    N = BModule.omega_module(P2())
    T1 = tensor_over(omega, M, N)
    T2 = tensor(CH3(), P2())
    assert len(T1.lattice()) == len(T2.lattice())


def test_presented_vs_element_level_presentations_agree():
    # irreducible presentation and all-element presentation give equal tensors
    M, N = P2(), CH3()
    small = tensor(M, N)  # irreducible presentations (both distributive)
    from finloc.present import ModulePresentation, TensorLattice, _tensor_relations

    def all_elements(L, tag):
        rels = [(frozenset({(tag, L.bottom)}), frozenset())]
        for a in L.elements:
            for b in L.elements:
                j = L.join(a, b)
                rels.append((frozenset({(tag, j)}),
                             frozenset({(tag, a), (tag, b)})))
        return ModulePresentation(
            L, tuple((tag, e) for e in L.elements),
            {(tag, e): e for e in L.elements}, tuple(rels))

    pm, pn = all_elements(M, "L"), all_elements(N, "R")
    big = TensorLattice(pm, pn, _tensor_relations(pm, pn))
    assert len(small.lattice()) == len(big.lattice())
    # pairings are identified consistently
    for m in M.elements:
        for n in N.elements:
            for m2 in M.elements:
                for n2 in N.elements:
                    eq_small = small.pair(m, n) == small.pair(m2, n2)
                    eq_big = big.pair(m, n) == big.pair(m2, n2)
                    assert eq_small == eq_big


def test_lattice_presentation_roundtrip():
    for L in (TWO(), CH3(), P2(), M3()):
        pres = lattice_presentation(L)
        q = PresentedSupLattice(JoinPresentation(pres.gens, pres.relations))
        assert len(q.lattice()) == len(L)


def test_tensor_over_codiscrete_arrow_powerset():
    # over B = P(objects), the balanced square of P(arrows) is the powerset
    # of the composable pairs
    from finloc.fixtures import codiscrete
    from finloc.lattice import power_locale

    G = codiscrete(2)
    B = power_locale(G.objects)
    L = power_locale(G.arrows)

    def left(b, U):  # through the target map
        return frozenset(g for g in U if G.target[g] in b)

    def right(b, U):  # through the source map
        return frozenset(g for g in U if G.source[g] in b)

    right_mod = BModule(B, L, right)
    left_mod = BModule(B, L, left)
    T = tensor_over(B, right_mod, left_mod)
    composable = [(f, g) for f in G.arrows for g in G.arrows
                  if G.source[f] == G.target[g]]
    assert len(T.lattice()) == 2 ** len(composable)
    for f in G.arrows:
        for g in G.arrows:
            atom = T.pair(frozenset({f}), frozenset({g}))
            if G.source[f] == G.target[g]:
                assert atom != T.bottom
            else:
                assert atom == T.bottom


def test_tensor_over_split_base_collapses():
    # modules pulled back from the two factors of a product base tensor to
    # the plain tensor of the originals
    from finloc.lattice import power_locale

    A = power_locale(("a1",))
    B = power_locale(("b1", "b2"))
    P = power_locale([("a1", "b1"), ("a1", "b2")])
    X = ("x1", "x2")
    Y = ("y1",)
    MX = power_locale([(x, b) for x in X for b in ("b1", "b2")])
    MY = power_locale([(y, a) for y in Y for a in ("a1",)])

    def actx(p, U):  # X pulled back along the first projection
        return frozenset((x, b) for (x, b) in U if ("a1", b) in p)

    def acty(p, U):  # Y anchored at b1, pulled back along the second
        return frozenset((y, a) for (y, a) in U if (a, "b1") in p)

    mx = BModule(P, MX, actx)
    my = BModule(P, MY, acty)
    T = tensor_over(P, mx, my)
    plain = tensor(power_locale(X), power_locale(Y))
    assert len(T.lattice()) == len(plain.lattice()) == 2 ** (len(X) * len(Y))


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_random_presentations_closure_laws(data):
    gens = tuple(range(data.draw(st.integers(1, 5))))
    n_rels = data.draw(st.integers(0, 4))
    rels = []
    for _ in range(n_rels):
        s = frozenset(data.draw(st.sets(st.sampled_from(gens), max_size=3)))
        t = frozenset(data.draw(st.sets(st.sampled_from(gens), max_size=3)))
        rels.append((s, t))
    q = PresentedSupLattice(JoinPresentation(gens, tuple(rels)))
    sub = frozenset(data.draw(st.sets(st.sampled_from(gens), max_size=5)))
    c = q.closure(sub)
    assert sub <= c
    assert q.closure(c) == c
    for s, t in rels:
        assert q.closure(s) == q.closure(t)
    # the universal map respects every relation by construction
    lat = q.lattice()
    for s, t in rels:
        assert lat.join_all(q.gen_class(g).closure for g in s) \
            == lat.join_all(q.gen_class(g).closure for g in t)


def test_induced_value_matches_materialized_morphism():
    # the lazy evaluation agrees with the materialized induced morphism
    rels = ((frozenset({"g", "h"}), frozenset({"g"})),)
    q = PresentedSupLattice(JoinPresentation(("g", "h"), rels))
    p2 = P2()
    assign = {"g": p2.top, "h": frozenset({1})}
    f = induced_morphism(q, assign, p2)
    for raw in (frozenset(), frozenset({"g"}), frozenset({"h"}),
                frozenset({"g", "h"})):
        el = q.element(raw)
        assert p2.join_all(assign[g] for g in el.raw) == f(el.closure)


def test_dropped_presentation_is_freed_without_the_cycle_collector():
    # the generator-class cache holds closures, not elements that point back
    # at the presentation, so reference counting alone frees it
    import gc
    import weakref

    def used_presentation():
        q = tensor(P2(), P2())
        assert all(q.gen_class(g).closure for g in q.gens)
        assert len(q.locale()) == 16
        return q

    gc.disable()
    try:
        q = used_presentation()
        ref = weakref.ref(q)
        del q
        assert ref() is None
    finally:
        gc.enable()


def _chain(n):
    return lattice.build_locale(range(n), [(i, i + 1) for i in range(n - 1)])


def test_presentation_past_the_bound_raises_size_bound():
    # a chain of n elements is presented on its n - 1 join-irreducibles,
    # with one relation per comparable pair of them
    assert len(lattice_presentation(_chain(92)).relations) == 91 * 90 // 2
    with pytest.raises(SizeBound, match="relation list of the presentation"):
        lattice_presentation(_chain(93))


def test_tensor_past_the_bound_raises_before_its_relations_are_built():
    # 64 x 64 generator pairs fit, 2 x 2,016 x 64 relations do not
    with pytest.raises(SizeBound, match="relation list of the tensor has 258048"):
        tensor(_chain(65), _chain(65))


def test_tensor_generator_pairs_are_bounded(monkeypatch):
    M, N = power_locale("abcde"), power_locale("wxyz")
    monkeypatch.setattr(lattice, "MAX_CARRIER", 16)
    with pytest.raises(SizeBound, match="generator pairs of the tensor has 20"):
        tensor(M, N)


def test_tensor_over_counts_its_balanced_relations(monkeypatch):
    # P2 is presented on its 2 atoms with no relations; over P2 the tensor
    # adds one relation per (b, g, h): 4 x 2 x 2
    B = P2()
    mod = BModule.self_module(B)
    monkeypatch.setattr(lattice, "MAX_CARRIER", 15)
    with pytest.raises(SizeBound, match="balanced relation list of the tensor has 16"):
        tensor_over(B, mod, mod)
    monkeypatch.setattr(lattice, "MAX_CARRIER", 16)
    assert len(tensor_over(B, mod, mod).lattice()) == len(B)


def test_presented_lattice_past_the_bound_raises_size_bound(monkeypatch):
    # P(2) (x) P(3) has 64 closed sets; saturation stops once it passes 16
    monkeypatch.setattr(lattice, "MAX_CARRIER", 16)
    with pytest.raises(SizeBound, match="presented lattice has 17 elements"):
        tensor(power_locale((1, 2)), power_locale("abc")).lattice()
