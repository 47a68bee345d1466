"""Acceptance suite: one test per criterion, exact equalities at desk scale.

Each test prints a single pass/fail line with its runtime and asserts the
stated bound.  All comparisons are exact; there are no tolerances.
"""

import itertools
import time

from finloc.fixtures import CH3, P2, TWO, codiscrete, trivial_group, z_mod
from finloc.lattice import (
    all_locales,
    check_locale_morphism,
    function_lattice,
    locale_morphisms,
    power_locale,
)
from finloc.present import tensor
from finloc.relation import (
    LRelation,
    check_axioms,
    graph,
    images,
    inverse_image_via_duality,
    selfduality,
    tabulate,
)
from finloc.errors import NotEverywhereDefined, NotUnivalued


def _finish(name, t0, limit):
    elapsed = time.perf_counter() - t0
    print(f"\n[PASS] {name}: {elapsed:.2f}s (limit {limit}s)")
    assert elapsed < limit, f"{name} exceeded its runtime bound"


def _all_relations(H, X, Y):
    keys = [(x, y) for x in X for y in Y]
    for values in itertools.product(H.elements, repeat=len(keys)):
        yield LRelation(H, X, Y, dict(zip(keys, values)))


def test_criterion_1_arrow_function_correspondence():
    """Function-like relations over Omega are exactly the graphs of maps."""
    t0 = time.perf_counter()
    omega = TWO()
    for nx in range(4):
        for ny in range(4):
            X = tuple(range(nx))
            Y = tuple(f"y{i}" for i in range(ny))
            count = 0
            for r in _all_relations(omega, X, Y):
                rep = check_axioms(r)
                try:
                    f = tabulate(r)
                    count += 1
                    assert rep.is_function
                    assert graph(f, X, Y) == r
                except (NotEverywhereDefined, NotUnivalued):
                    assert not rep.is_function
            assert count == len(Y) ** len(X)
            for values in itertools.product(Y, repeat=nx):
                f = dict(zip(X, values))
                assert tabulate(graph(f, X, Y)) == f
    _finish("criterion 1 (functions are graphs)", t0, 1.0)


def test_criterion_2_inverse_image_criterion():
    """ed iff the inverse image preserves 1; uv iff it preserves meets."""
    t0 = time.perf_counter()
    for H in (TWO(), CH3(), P2()):
        for nx in (0, 1, 2):
            for ny in (0, 1, 2):
                X = tuple(range(nx))
                Y = tuple(f"y{i}" for i in range(ny))
                fx = function_lattice(H, X)
                fy = function_lattice(H, Y)
                top_x = fx.from_map({x: H.top for x in X})
                top_y = fy.from_map({y: H.top for y in Y})
                for r in _all_relations(H, X, Y):
                    rep = check_axioms(r)
                    _, inverse = images(r)
                    assert (inverse(top_y) == top_x) == rep.everywhere_defined
                    meets = all(
                        inverse(fy.meet(p, q)) == fx.meet(inverse(p), inverse(q))
                        for p in fy.elements for q in fy.elements
                    )
                    assert meets == rep.univalued
                    assert (check_locale_morphism(inverse) is None) \
                        == rep.is_function
    _finish("criterion 2 (inverse-image criterion)", t0, 10.0)


def test_criterion_3_tensor_freeness():
    """P(X) (x) P(Y) has 2^(|X||Y|) elements, by quotient enumeration."""
    t0 = time.perf_counter()
    for nx in (0, 1, 2):
        for ny in (0, 1, 2, 3):
            X = tuple(range(nx))
            Y = tuple(f"y{i}" for i in range(ny))
            T = tensor(power_locale(X), power_locale(Y))
            assert len(T.lattice()) == 2 ** (nx * ny)
    _finish("criterion 3 (tensor freeness)", t0, 5.0)


def test_criterion_4_self_duality():
    """Triangle identities for the free modules and the discrete modules,
    plus the inverse image through the duality."""
    t0 = time.perf_counter()
    for H in (TWO(), CH3(), P2()):
        for n in range(4):
            selfduality(H, tuple(range(n)), cap=256)  # triangles checked inside
    from finloc.sheaf import build_Xd, enumerate_sheaves, selfdual_Xd

    for P in (TWO(), CH3(), P2()):
        for sheaf in enumerate_sheaves(P, 3):
            selfdual_Xd(build_Xd(sheaf))
    X, Y = (0, 1), ("a", "b")
    for H in (TWO(), CH3()):
        d = selfduality(H, X)
        for r in _all_relations(H, X, Y):
            _, inverse = images(r)
            assert inverse_image_via_duality(r, d).table == inverse.table
    _finish("criterion 4 (self-duality)", t0, 30.0)


def test_criterion_5_internal_external_axiom_equivalence():
    """Stalkwise axioms agree with the module-level axioms over P2."""
    t0 = time.perf_counter()
    from finloc.modb import BModule
    from finloc.relation import AxiomReport
    from finloc.sheaf import build_Xd, check_module_axioms, etale_sheaf, mu_from_lambda

    P = P2()
    H = BModule.self_module(P)
    omega = TWO()
    shapes = [(a, b) for a in range(3) for b in range(3)]
    built = {}
    for sx in shapes:
        names = tuple(f"x{o}_{i}" for o, n in zip((1, 2), sx) for i in range(n))
        anchors = {f"x{o}_{i}": o for o, n in zip((1, 2), sx) for i in range(n)}
        built[sx] = (etale_sheaf((1, 2), names, anchors), names, anchors)
    for sx in shapes:
        X, xnames, xanch = built[sx]
        dX = build_Xd(X)
        for sy in shapes:
            Y, ynames, yanch = built[sy]
            dY = build_Xd(Y) if sy != sx else dX
            stalks = {o: ([x for x in xnames if xanch[x] == o],
                          [y for y in ynames if yanch[y] == o])
                      for o in (1, 2)}
            rel_options = {
                o: [frozenset(s) for r in range(len(xs) * len(ys) + 1)
                    for s in itertools.combinations(
                        [(x, y) for x in xs for y in ys], r)]
                for o, (xs, ys) in stalks.items()
            }
            for R1 in rel_options[1]:
                for R2 in rel_options[2]:
                    stalk_rel = {1: R1, 2: R2}
                    lam = _internal_relation_from_stalks(
                        P, X, Y, xanch, yanch, stalk_rel)
                    mu = mu_from_lambda(lam, dX, dY, H)
                    rep = check_module_axioms(mu, dX, dY, H)
                    stalk_reps = []
                    for o, (xs, ys) in stalks.items():
                        table = {(x, y): (1 if (x, y) in stalk_rel[o] else 0)
                                 for x in xs for y in ys}
                        if xs and ys:
                            stalk_reps.append(check_axioms(
                                LRelation(omega, xs, ys, table)))
                        else:
                            stalk_reps.append(AxiomReport(
                                not xs, True, not ys, True))
                    for attr in ("everywhere_defined", "univalued",
                                 "surjective", "injective"):
                        assert getattr(rep, attr) \
                            == all(getattr(s, attr) for s in stalk_reps)
    _finish("criterion 5 (internal vs module axioms)", t0, 30.0)


def _internal_relation_from_stalks(P, X, Y, xanch, yanch, stalk_rel):
    """The natural family of a pair of stalk relations between etale sheaves."""
    lam = {}
    for p in P.elements:
        for xs in X.sections[p]:
            for ys in Y.sections[p]:
                xd = dict(zip(sorted(p, key=repr), xs))
                yd = dict(zip(sorted(p, key=repr), ys))
                lam[(p, xs, ys)] = frozenset(
                    o for o in p if (xd[o], yd[o]) in stalk_rel[o])
    return lam


def test_criterion_6_cone_calculus():
    """The four cone propositions over the generated functor pairs."""
    t0 = time.perf_counter()
    import test_tannaka as tt

    tt.test_naturality_iff_diamond1_exhaustive()
    tt.test_diamond_iff_diamond1_and_diamond2()
    tt.test_diamond_iff_diamond12_on_chains_seeded()
    tt.test_triangle_iff_diamond_for_bijection_cones()
    tt.test_compatibility_iff_diamond_bijections_exhaustive()
    tt.test_compatible_cones_from_meet_form()
    tt.test_uv_failure_breaks_compatibility_instance()
    _finish("criterion 6 (cone calculus)", t0, 60.0)


def test_criterion_7_comodule_automatic_properties():
    """Every enumerated comodule is bijection-like and a locale morphism."""
    t0 = time.perf_counter()
    from finloc.galois import (
        comodule_axioms,
        comodule_is_locale_morphism,
        enumerate_comodules,
    )
    from test_galois import c1_holds, c2_holds

    for G in (z_mod(2), codiscrete(2)):
        found = 0
        for c in enumerate_comodules(G, 4):
            assert comodule_axioms(c).is_bijection
            comodule_is_locale_morphism(c)
            assert c1_holds(c) and c2_holds(c)
            found += 1
        assert found > 1
    _finish("criterion 7 (comodules are bijections)", t0, 60.0)


def test_criterion_8_equivalence_of_categories():
    """Rel of bounded actions against discrete comodules, objects and homs."""
    t0 = time.perf_counter()
    from finloc.galois import equivalence_check

    r1 = equivalence_check(z_mod(2), 4)
    assert r1.object_count == 18
    r2 = equivalence_check(codiscrete(2), 4)
    assert r2.object_count == 4
    _finish("criterion 8 (relations = comodules)", t0, 120.0)


def test_criterion_9_reconstruction():
    """The coend of the action fiber functor is the dual groupoid."""
    t0 = time.perf_counter()
    from finloc.galois import reconstruct

    for G, size in ((trivial_group(), 2), (z_mod(2), 4), (z_mod(3), 8),
                    (codiscrete(2), 16)):
        t1 = time.perf_counter()
        rep = reconstruct(G)
        assert rep.coend_size == size == rep.expected_size
        assert check_locale_morphism(rep.iso) is None
        assert time.perf_counter() - t1 < 120.0
    _finish("criterion 9 (reconstruction)", t0, 480.0)


def test_criterion_10_site_independence():
    """Enlarging the generating category by a coproduct action does not
    change the coend, up to an exhibited isomorphism."""
    t0 = time.perf_counter()
    from finloc.galois import disjoint_union, representable_action, site_independence_check

    G = z_mod(2)
    R = representable_action(G, "*")
    assert site_independence_check(G, (disjoint_union(R, R),))
    _finish("criterion 10 (site independence)", t0, 60.0)


def test_criterion_11_universal_factorization():
    """Every bijection-table cone into a small locale factors through the
    coend by exactly one locale morphism."""
    t0 = time.perf_counter()
    from finloc.galois import (
        GaloisCoend,
        default_site,
        enumerate_bijection_cones,
        factor_cone,
    )

    locales = all_locales(8)
    assert len(locales) == 36
    total = 0
    for G in (trivial_group(), z_mod(2), z_mod(3), codiscrete(2)):
        gc = GaloisCoend(default_site(G))
        B = power_locale(G.objects)
        coend_locale = gc.quotient.locale()
        for A in locales:
            gs = locale_morphisms(B, A)
            candidates = locale_morphisms(coend_locale, A)
            for g0 in gs:
                for g1 in gs:
                    for tables in enumerate_bijection_cones(gc, A, g0, g1):
                        factor_cone(gc, A, g0, g1, tables,
                                    candidates=candidates, validate=False)
                        total += 1
    assert total > 100
    _finish("criterion 11 (universal factorization)", t0, 120.0)
