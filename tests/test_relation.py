"""The four axioms, images, tabulation, self-duality, and diagram checks."""

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from finloc import relation
from finloc.errors import (
    KernelError,
    NotAModule,
    NotBijection,
    NotDualizable,
    NotEverywhereDefined,
    NotUnivalued,
    ShapeMismatch,
    SizeBound,
)
from finloc.fixtures import CH3, M3, P2, TWO
from finloc.lattice import (
    all_locales,
    build_suplattice,
    check_locale_morphism,
    function_lattice,
)
from finloc.relation import (
    LRelation,
    boxtimes,
    check_axioms,
    check_diagram,
    classify,
    compose,
    dual_swap,
    graph,
    images,
    inverse_image_via_duality,
    restricted_product,
    selfduality,
    table_axioms,
    tabulate,
)
from hx_oracle import dense_selfduality
from xd_oracle import dense_check


def all_relations(H, X, Y):
    keys = [(x, y) for x in X for y in Y]
    for values in itertools.product(H.elements, repeat=len(keys)):
        yield LRelation(H, X, Y, dict(zip(keys, values)))


def test_axioms_on_collapsing_graph():
    r = graph({1: "a", 2: "a"}, (1, 2), ("a",))
    rep = check_axioms(r)
    assert rep.everywhere_defined and rep.univalued and rep.surjective
    assert not rep.injective
    assert rep.witnesses["in"] == (1, 2, "a")


def test_axioms_constant_top():
    omega = TWO()
    r = LRelation(omega, (1, 2), (1, 2), {(x, y): 1 for x in (1, 2) for y in (1, 2)})
    rep = check_axioms(r)
    assert rep.everywhere_defined and rep.surjective
    assert not rep.univalued and not rep.injective


def test_axioms_not_everywhere_defined_over_p2():
    p2 = P2()
    r = LRelation(p2, ("*",), ("*",), {("*", "*"): frozenset({1})})
    rep = check_axioms(r)
    assert not rep.everywhere_defined


def _axioms_oracle(r):
    """The four quantifiers read off the definitions, each with its first
    witness in X, Y order."""
    H, X, Y = r.H, r.X, r.Y
    ed = [(x,) for x in X if H.join_all(r(x, y) for y in Y) != H.top]
    uv = [(x, y1, y2) for x in X for y1, y2 in itertools.combinations(Y, 2)
          if H.meet(r(x, y1), r(x, y2)) != H.bottom]
    su = [(y,) for y in Y if H.join_all(r(x, y) for x in X) != H.top]
    inj = [(x1, x2, y) for y in Y for x1, x2 in itertools.combinations(X, 2)
           if H.meet(r(x1, y), r(x2, y)) != H.bottom]
    failures = {"ed": ed, "uv": uv, "su": su, "in": inj}
    return ({k: not v for k, v in failures.items()},
            {k: v[0] for k, v in failures.items() if v})


def test_check_axioms_matches_definition_oracle():
    # every relation of TWO, CH3 and P2 over 2x2, 3x2 and 1x3 carriers
    count = 0
    for H in (TWO(), CH3(), P2()):
        for X, Y in (((1, 2), ("a", "b")), ((1, 2, 3), ("a", "b")),
                     ((1,), ("a", "b", "c"))):
            for r in all_relations(H, X, Y):
                rep = check_axioms(r)
                verdicts, witnesses = _axioms_oracle(r)
                assert verdicts == {"ed": rep.everywhere_defined,
                                    "uv": rep.univalued,
                                    "su": rep.surjective,
                                    "in": rep.injective}
                assert rep.witnesses == witnesses
                count += 1
    assert count == 5341


def _overlap_oracle(M, lines, C):
    """The first line and pair of distinct elements whose entries meet above
    bottom, every pair of every line tested."""
    for a, line in lines.items():
        for i, c in enumerate(C):
            for j in range(i + 1, len(C)):
                if not M.leq(M.meet(line[i], line[j]), M.bottom):
                    return a, c, C[j]
    return None


def test_table_axioms_witnesses_match_the_pairwise_scan():
    # random tables over two non-distributive lattices, where a line can
    # meet the join of its earlier entries with no two entries meeting, and
    # over every locale of at most 5 elements
    N5 = build_suplattice(("0", "a", "b", "c", "1"),
                          [("0", "a"), ("a", "b"), ("b", "1"),
                           ("0", "c"), ("c", "1")])
    rng = random.Random(11)
    X, Y = (1, 2, 3), ("a", "b", "c")
    seen = set()
    for M in (M3(), N5, *all_locales(5)):
        small = [e for e in M.elements if e != M.top] or M.elements
        for _ in range(60):
            t = {(x, y): rng.choice(small if rng.random() < 0.8 else M.elements)
                 for x in X for y in Y}
            rows = {x: [t[(x, y)] for y in Y] for x in X}
            cols = {y: [t[(x, y)] for x in X] for y in Y}
            rep = table_axioms(M, X, Y, t, lambda x: M.top, lambda y: M.top)
            uv = _overlap_oracle(M, rows, Y)
            bad_in = _overlap_oracle(M, cols, X)
            assert rep.witnesses.get("uv") == uv
            assert rep.witnesses.get("in") \
                == (bad_in and (bad_in[1], bad_in[2], bad_in[0]))
            assert (rep.univalued, rep.injective) == (uv is None, bad_in is None)
            seen.add((uv is None, bad_in is None))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}
    # M3's three atoms: the third meets the join of the first two, yet no
    # two of them meet, so the search runs on row 1, finds nothing and
    # carries on to row 2
    a, b, c = (e for e in M3().elements if e not in (M3().bottom, M3().top))
    t = {(1, "a"): a, (1, "b"): b, (1, "c"): c,
         (2, "a"): a, (2, "b"): a, (2, "c"): M3().bottom}
    rep = table_axioms(M3(), (1, 2), Y, t, lambda x: M3().top,
                       lambda y: M3().top)
    assert rep.witnesses["uv"] == (2, "a", "b")


def test_classify():
    assert classify(graph({1: "a", 2: "b"}, (1, 2), ("a", "b"))) == "bijection"
    assert classify(graph({1: "a"}, (1,), ("a", "b"))) == "function"
    assert classify(graph({1: "a"}, (1,), ("a", "b")).transpose()) == "opfunction"


def test_images_of_graph_are_image_and_preimage():
    # oracle: set-theoretic image and preimage along f, read through TWO^X
    f = {1: "a", 2: "a", 3: "b"}
    X, Y = (1, 2, 3), ("a", "b")
    r = graph(f, X, Y)
    direct, inverse = images(r)
    fx = direct.dom
    fy = direct.cod
    for theta in fx.elements:
        s = {x for x, v in zip(fx.domain, theta) if v == 1}
        assert {y for y, v in zip(fy.domain, direct(theta)) if v == 1} \
            == {f[x] for x in s}
    for psi in fy.elements:
        s = {y for y, v in zip(fy.domain, psi) if v == 1}
        assert {x for x, v in zip(fx.domain, inverse(psi)) if v == 1} \
            == {x for x in X if f[x] in s}


def test_images_of_bottom_relation():
    H = CH3()
    r = LRelation(H, (1, 2), (1, 2), {(x, y): H.bottom for x in (1, 2) for y in (1, 2)})
    direct, inverse = images(r)
    assert all(v == direct.cod.bottom for v in direct.table.values())
    assert all(v == inverse.cod.bottom for v in inverse.table.values())


def test_inverse_image_locale_iff_ed_and_uv_exhaustive():
    # the inverse image preserves 1 iff ed and meets iff uv, over all of CH3^4
    H = CH3()
    X, Y = ("x1", "x2"), ("y1", "y2")
    fx = function_lattice(H, X)
    fy = function_lattice(H, Y)
    for r in all_relations(H, X, Y):
        rep = check_axioms(r)
        _, inverse = images(r)
        preserves_top = inverse(fy.from_map({y: H.top for y in Y})) \
            == fx.from_map({x: H.top for x in X})
        preserves_meet = all(
            inverse(fy.meet(p, q)) == fx.meet(inverse(p), inverse(q))
            for p in fy.elements for q in fy.elements
        )
        assert preserves_top == rep.everywhere_defined
        assert preserves_meet == rep.univalued
        assert (check_locale_morphism(inverse) is None) == rep.is_function


def test_tabulate_roundtrip_and_count():
    X, Y = (1, 2), ("a", "b", "c")
    # graph then tabulate is the identity on maps
    for values in itertools.product(Y, repeat=len(X)):
        f = dict(zip(X, values))
        assert tabulate(graph(f, X, Y)) == f
    # tabulate succeeds exactly |Y|^|X| times over all relations
    count = 0
    for r in all_relations(TWO(), X, Y):
        try:
            f = tabulate(r)
            count += 1
            assert graph(f, X, Y) == r
        except (NotEverywhereDefined, NotUnivalued):
            pass
    assert count == len(Y) ** len(X)


def test_tabulate_full_relation_not_univalued():
    omega = TWO()
    r = LRelation(omega, (1, 2), (1, 2), {k: 1 for k in itertools.product((1, 2), repeat=2)})
    with pytest.raises(NotUnivalued):
        tabulate(r)


def test_opfunction_symmetry():
    # transposes of bijection graphs tabulate to mutually inverse maps
    f = {1: "b", 2: "a"}
    r = graph(f, (1, 2), ("a", "b"))
    g = tabulate(r.transpose())
    assert g == {"a": 2, "b": 1}


def test_compose_graphs():
    f = {1: "a", 2: "b"}
    g = {"a": "z", "b": "z"}
    rf = graph(f, (1, 2), ("a", "b"))
    rg = graph(g, ("a", "b"), ("z",))
    assert compose(rf, rg) == graph({x: g[f[x]] for x in (1, 2)}, (1, 2), ("z",))


def test_compose_with_transpose_idempotent_symmetric():
    f = {1: "a", 2: "a", 3: "b"}
    r = graph(f, (1, 2, 3), ("a", "b"))
    e = compose(r, r.transpose())
    assert e == compose(e, e)
    assert e == e.transpose()


def test_boxtimes_of_diagonals():
    d1 = graph({1: 1, 2: 2}, (1, 2), (1, 2))
    d2 = graph({3: 3}, (3,), (3,))
    prod = boxtimes(d1, d2)
    diag = graph({p: p for p in prod.X}, prod.X, prod.X)
    assert prod.table == diag.table


def test_selfduality_two_and_empty():
    for n in (0, 1, 2, 3):
        selfduality(TWO(), tuple(range(n)), cap=256)  # the laws checked inside
    d = selfduality(TWO(), ())
    assert d.eta == ()


def test_selfduality_ch3_p2():
    selfduality(CH3(), (0, 1))
    selfduality(P2(), (0,))


def test_selfduality_keeps_no_table_over_pairs_of_its_carrier():
    # TWO^12 has 4,096 elements: H^X and its down-sets fit in 128 MB of
    # address space with asserts stripped, a dict of eps over all its pairs
    # (some 16.8 million entries) does not
    src = str(Path(relation.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c",
         "import resource\n"
         "resource.setrlimit(resource.RLIMIT_AS, (128 << 20, 128 << 20))\n"
         "from finloc.fixtures import TWO\n"
         "from finloc.relation import selfduality\n"
         "print(len(selfduality(TWO(), range(12)).module.lattice))\n"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["4096"]
    with pytest.raises(SizeBound):
        selfduality(TWO(), range(13))


def _hx_instances():
    """(H, X) for every locale H of at most 5 elements, |H|^|X| <= 256
    and |X| <= 8."""
    for H in all_locales(5):
        n = 0
        while len(H) ** n <= 256 and n <= 8:
            yield H, tuple(range(n))
            n += 1


def test_selfduality_matches_the_dense_oracle():
    # the J-module of J(H) x X against the tables of the dense route, on
    # every element: the format, the action, eps from each generator, and
    # both triangles of its own eta
    checks = 0
    for H, X in _hx_instances():
        m, dd = selfduality(H, X), dense_selfduality(H, X)
        L, mod = m.lattice, dd.module
        assert L.elements == mod.lattice.elements
        for t in L.elements:
            assert m._element(m._mask(t)) == t
            assert all(m.act(b, t) == mod.act(b, t) for b in H.elements)
            assert all(m.eps(g, t) == dd.eps(g, t) == m.eps(t, g)
                       for g in m.value.values())
            assert L.join_all(m.act(m.eps(t, n), m2) for n, m2 in m.eta) == t
            assert L.join_all(m.act(m.eps(m2, t), n) for n, m2 in m.eta) == t
            checks += len(H) + len(m.value) + 3
    assert checks > 10_000


class _Swapped(relation.FunctionModule):
    """H^X whose map `name` on elements is wrong at one pair of arguments."""

    def __init__(self, fl, name, at, value):
        super().__init__(fl)
        true = getattr(self, name)
        setattr(self, name, lambda x, y: value if (x, y) == at else true(x, y))


@pytest.mark.parametrize("H, X", [(TWO, (0, 1)), (CH3, (0, 1)), (P2, (0,))])
def test_each_selfduality_cross_check_rejects_its_mutant(monkeypatch, H, X):
    # the maps on masks pass every law; the action or eps read through the
    # element format is wrong, as both the cross-check and the dense route see
    H = H()
    fl = function_lattice(H, X)
    j = H.join_irreducibles()[0]
    g = tuple(j if x == X[0] else H.bottom for x in fl.domain)  # a generator
    mutants = [(NotAModule, "act", (j, g), fl.bottom),
               (NotDualizable, "eps", (g, g), H.bottom)]
    for error, name, at, value in mutants:
        monkeypatch.setattr(relation, "FunctionModule",
                            lambda fl: _Swapped(fl, name, at, value))
        with pytest.raises(error) as err:
            selfduality(H, X)
        assert type(err.value) is error and err.value.witness == at
        m = _Swapped(fl, name, at, value)
        with pytest.raises(KernelError):
            dense_check(m)


def test_inverse_image_via_duality_equals_inverse_image():
    H = CH3()
    X, Y = ("x1", "x2"), ("y1", "y2")
    d = selfduality(H, X)
    rng = random.Random(3)
    rels = [LRelation(H, X, Y, {(x, y): rng.choice(H.elements)
                                for x in X for y in Y}) for _ in range(6)]
    for r in rels:
        _, inverse = images(r)
        assert inverse_image_via_duality(r, d).table == inverse.table


def test_dual_swap():
    assert dual_swap(graph({1: "a", 2: "a"}, (1, 2), ("a", "b")))
    assert dual_swap(graph({1: 1, 2: 2}, (1, 2), (1, 2)))
    H = CH3()
    rng = random.Random(9)
    for _ in range(4):
        r = LRelation(H, (1, 2), (1, 2),
                      {k: rng.choice(H.elements)
                       for k in itertools.product((1, 2), repeat=2)})
        assert dual_swap(r)


def test_pointwise_equality_scaling_identity():
    # [x = y] . theta(x) = [x = y] . theta(y) for every function into H
    H = P2()
    fl = function_lattice(H, ("a", "b"))
    for theta in fl.elements:
        for x in fl.domain:
            for y in fl.domain:
                guard_x = fl.eval(theta, x) if x == y else H.bottom
                guard_y = fl.eval(theta, y) if x == y else H.bottom
                assert guard_x == guard_y


def test_check_diagram_identity_all_kinds():
    r = graph({1: "a", 2: "b"}, (1, 2), ("a", "b"))
    ident = ({1: 1, 2: 2}, {"a": "a", "b": "b"})
    for kind in ("triangle", "diamond1", "diamond2"):
        ok, _ = check_diagram(kind, ident, r, r)
        assert ok
    R = {(1, 1), (2, 2)}
    S = {("a", "a"), ("b", "b")}
    ok, _ = check_diagram("diamond", (R, S), r, r)
    assert ok


def test_triangle_for_commuting_square_of_maps():
    # lambda, lambda' the graphs of two maps commuting with (f, g)
    u = {1: "a", 2: "b"}
    f = {1: 10, 2: 20}
    g = {"a": "A", "b": "B"}
    u2 = {10: "A", 20: "B"}  # u2 o f = g o u
    r, r2 = graph(u, (1, 2), ("a", "b")), graph(u2, (10, 20), ("A", "B"))
    ok, _ = check_diagram("triangle", (f, g), r, r2)
    assert ok


def test_diamond1_and_diamond2_imply_diamond_exhaustive():
    # with R, S the graphs of (f, g): whenever both hold, so does the diamond
    omega = TWO()
    X = Y = (0, 1)
    X2 = Y2 = (0, 1)
    maps = [dict(zip(X, v)) for v in itertools.product(X2, repeat=2)]
    hits = 0
    for f in maps:
        for g in maps:
            for r in all_relations(omega, X, Y):
                for r2 in all_relations(omega, X2, Y2):
                    d1, _ = check_diagram("diamond1", (f, g), r, r2)
                    d2, _ = check_diagram("diamond2", (f, g), r, r2)
                    if d1 and d2:
                        R = {(x, f[x]) for x in X}
                        S = {(y, g[y]) for y in Y}
                        ok, _ = check_diagram("diamond", (R, S), r, r2)
                        assert ok
                        hits += 1
    assert hits > 0


def test_diamond_respects_composition():
    omega = TWO()
    C = (0, 1)
    rels = list(all_relations(omega, C, C))
    rng = random.Random(5)
    lams = rng.sample(rels, 4)
    pairs = rng.sample(rels, 6)
    for lam in lams:
        for lam2 in lams:
            for lam3 in lams:
                for R in pairs:
                    for S in pairs:
                        ok1, _ = check_diagram(
                            "diamond",
                            ({k for k, v in R.table.items() if v}, ) * 2, lam, lam2)
                        ok2, _ = check_diagram(
                            "diamond",
                            ({k for k, v in S.table.items() if v}, ) * 2, lam2, lam3)
                        if ok1 and ok2:
                            comp = compose(R, S)
                            cset = {k for k, v in comp.table.items() if v}
                            ok, _ = check_diagram("diamond", (cset, cset), lam, lam3)
                            assert ok


def test_restricted_product_identity():
    r = graph({1: 1, 2: 2}, (1, 2), (1, 2))
    R = {(1, 1), (2, 2)}
    res = restricted_product(R, R, r, r)
    assert res.diamond_holds and res.theta_is_bijection and res.equivalence


def test_restricted_product_equivalence_brute_force():
    # all R, S over 2-element sets with both relations the diagonal bijection
    r = graph({1: 1, 2: 2}, (1, 2), (1, 2))
    pairs = [(a, b) for a in (1, 2) for b in (1, 2)]
    found_noncone = False
    for rbits in itertools.product((0, 1), repeat=4):
        for sbits in itertools.product((0, 1), repeat=4):
            R = {p for p, keep in zip(pairs, rbits) if keep}
            S = {p for p, keep in zip(pairs, sbits) if keep}
            res = restricted_product(R, S, r, r)
            assert res.equivalence
            if not res.diamond_holds:
                found_noncone = True
                rep = check_axioms(res.theta)
                assert not rep.is_bijection
    assert found_noncone


def test_axioms_require_a_locale():
    from finloc.errors import NotALocale
    from finloc.fixtures import M3

    L = M3()
    r = LRelation(L, ("*",), ("*",), {("*", "*"): "x"})
    with pytest.raises(NotALocale):
        check_axioms(r)


def test_image_values_on_singletons():
    # the two image morphisms read the relation off on singletons:
    # inverse({y})(x) = r(x, y) = direct({x})(y)
    H = P2()
    X, Y = ("x1", "x2"), ("y1", "y2")
    rng = random.Random(13)
    for _ in range(4):
        r = LRelation(H, X, Y, {(x, y): rng.choice(H.elements)
                                for x in X for y in Y})
        direct, inverse = images(r)
        fx, fy = direct.dom, direct.cod
        for x in X:
            for y in Y:
                assert fy.eval(direct(fx.singleton(x)), y) == r(x, y)
                assert fx.eval(inverse(fy.singleton(y)), x) == r(x, y)


# -- error classes, each raised and named ---------------------------------------


def test_check_diagram_of_an_unknown_kind_is_a_shape_mismatch():
    r = graph({0: 0, 1: 1}, (0, 1), (0, 1))
    with pytest.raises(ShapeMismatch) as err:
        check_diagram("square", ({0: 0, 1: 1}, {0: 0, 1: 1}), r, r)
    assert type(err.value) is ShapeMismatch


def test_restricted_product_of_a_non_bijection_is_not_a_bijection():
    ident = graph({0: 0, 1: 1}, (0, 1), (0, 1))
    merge = graph({0: "a", 1: "a"}, (0, 1), ("a", "b"))
    with pytest.raises(NotBijection) as err:
        restricted_product({(0, 0)}, {(0, "a")}, merge, ident)
    assert type(err.value) is NotBijection
