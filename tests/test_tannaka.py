"""Cone calculus: kinds, naturality, extension, compatibility."""

import itertools

import pytest

from cone_instances import (
    all_cones,
    chain_instances,
    full_finset_instance,
    parallel_pair_instances,
    single_arrow_instances,
)
from finloc.errors import InconsistentExtension, NotDense, ShapeMismatch
from finloc.fixtures import P2, TWO
from finloc.relation import LRelation, check_axioms
from finloc.tannaka import (
    Arrow,
    Cone,
    FunctorPair,
    check_compatible,
    check_cone,
    cone_of_family,
    extend_cone,
    family_of_cone,
    is_natural,
)


def test_diagonal_cone_all_kinds_hold():
    fp = single_arrow_instances()[5]
    omega = TWO()
    tables = {o: {(x, y): (1 if x == y else 0)
                  for x in fp.F[o] for y in fp.Fp[o]}
              for o in fp.objects}
    # the diagonal is a cone for the identity relabeling only
    if fp.F == fp.Fp and fp.Fmap == fp.Fpmap:
        cone = Cone(fp, omega, tables)
        for kind in ("triangle", "diamond1", "diamond2", "diamond"):
            ok, _ = check_cone(cone, kind)
            assert ok


def test_identity_pair_diagonal_cone():
    A = (0, 1)
    fp = FunctorPair(("A",), (Arrow("id", "A", "A"),), {"A": A},
                     {"id": {x: x for x in A}})
    omega = TWO()
    tables = {"A": {(x, y): (1 if x == y else 0) for x in A for y in A}}
    cone = Cone(fp, omega, tables)
    for kind in ("triangle", "diamond1", "diamond2"):
        ok, _ = check_cone(cone, kind)
        assert ok


def test_naturality_iff_diamond1_exhaustive():
    # over every family of maps FX -> F'X on the generated instances
    for fp in single_arrow_instances() + parallel_pair_instances():
        families = []
        per_obj = [list(itertools.product(fp.Fp[o], repeat=len(fp.F[o])))
                   for o in fp.objects]
        for combo in itertools.product(*per_obj):
            families.append({o: dict(zip(fp.F[o], vals))
                             for o, vals in zip(fp.objects, combo)})
        found_natural = found_non_natural = False
        for fam in families:
            cone = cone_of_family(fp, fam)
            ok, _ = check_cone(cone, "diamond1")
            nat = is_natural(fp, fam)
            assert ok == nat
            found_natural |= nat
            found_non_natural |= not nat
            if nat:
                assert family_of_cone(cone) == fam
        assert found_natural


def test_non_natural_family_fails_with_witnessing_arrow():
    A, B = (0, 1), ("u", "v")
    fp = FunctorPair(("A", "B"), (Arrow("m", "A", "B"),),
                     {"A": A, "B": B}, {"m": {0: "u", 1: "v"}})
    fam = {"A": {0: 1, 1: 0}, "B": {"u": "u", "v": "v"}}
    assert not is_natural(fp, fam)
    ok, witness = check_cone(cone_of_family(fp, fam), "diamond1")
    assert not ok and witness[0] == "m"


def test_diamond_iff_diamond1_and_diamond2():
    omega = TWO()
    for fp in single_arrow_instances():
        bits = sum(len(fp.F[o]) * len(fp.Fp[o]) for o in fp.objects)
        if bits > 10:
            continue
        hits = 0
        for cone in all_cones(fp, omega):
            d, _ = check_cone(cone, "diamond")
            d1, _ = check_cone(cone, "diamond1")
            d2, _ = check_cone(cone, "diamond2")
            assert d == (d1 and d2)
            hits += d
        assert hits > 0


def test_diamond_iff_diamond12_on_chains_seeded():
    import random

    omega = TWO()
    rng = random.Random(11)
    for fp in rng.sample(chain_instances(), 6):
        keys = [(o, x, y) for o in fp.objects
                for x in fp.F[o] for y in fp.Fp[o]]
        for _ in range(200):
            tables = {o: {} for o in fp.objects}
            for (o, x, y) in keys:
                tables[o][(x, y)] = rng.choice(omega.elements)
            cone = Cone(fp, omega, tables)
            d, _ = check_cone(cone, "diamond")
            d1, _ = check_cone(cone, "diamond1")
            d2, _ = check_cone(cone, "diamond2")
            assert d == (d1 and d2)


_bij_cache = {}


def _bijection_tables(H, xs, ys):
    """All H-valued bijection-like tables on xs x ys (memoized)."""
    key = (id(H), xs, ys)
    if key in _bij_cache:
        return _bij_cache[key]
    out = []
    keys = [(x, y) for x in xs for y in ys]
    for values in itertools.product(H.elements, repeat=len(keys)):
        table = dict(zip(keys, values))
        rel = LRelation(H, xs, ys, table)
        if check_axioms(rel).is_bijection:
            out.append(table)
    _bij_cache[key] = out
    return out


def test_triangle_iff_diamond_for_bijection_cones():
    for H in (TWO(), P2()):
        for fp in single_arrow_instances():
            if any(len(fp.F[o]) != len(fp.Fp[o]) for o in fp.objects):
                continue
            if len(H) > 2 and any(len(fp.F[o]) > 2 for o in fp.objects):
                continue
            per_obj = [_bijection_tables(H, fp.F[o], fp.Fp[o])
                       for o in fp.objects]
            if any(not t for t in per_obj):
                continue
            total = 1
            for t in per_obj:
                total *= len(t)
            if total > 3000:
                continue
            for combo in itertools.product(*per_obj):
                cone = Cone(fp, H, dict(zip(fp.objects, combo)))
                tri, _ = check_cone(cone, "triangle")
                dia, _ = check_cone(cone, "diamond")
                assert tri == dia


def test_extension_identity_when_dense_is_everything():
    fp = single_arrow_instances()[0]
    omega = TWO()
    cone = next(all_cones(fp, omega))
    ext = extend_cone(cone, fp.objects, "diamond1")
    assert ext.tables == cone.tables


def test_extension_on_z2_sets():
    # actions of Z/2 on {G, GxG, 1}: dropping the terminal object, the
    # extension rebuilds its table as the row join over the representable
    from finloc.fixtures import z_mod
    from finloc.galois import (
        product_action,
        representable_action,
        terminal_action,
        transporter,
    )

    G = z_mod(2)
    R = representable_action(G, "*")
    RR = product_action(R, R)
    T = terminal_action(G)
    objects = ("G", "GG", "1")
    carriers = {"G": R.carrier, "GG": RR.carrier, "1": T.carrier}
    acts = {"G": R, "GG": RR, "1": T}
    maps = []
    fmap = {}
    c = 0
    for src in objects:
        for dst in objects:
            A, B = acts[src], acts[dst]
            for values in itertools.product(B.carrier, repeat=len(A.carrier)):
                f = dict(zip(A.carrier, values))
                if any(B.anchor[f[x]] != A.anchor[x] for x in A.carrier):
                    continue
                if all(f[A.apply(g, x)] == B.apply(g, f[x])
                       for x in A.carrier
                       for g in G.arrows_from(A.anchor[x])):
                    name = f"e{c}"
                    c += 1
                    maps.append(Arrow(name, src, dst))
                    fmap[name] = f
    fp = FunctorPair(objects, tuple(maps), carriers, fmap)
    p2 = P2()
    enc = {frozenset(): frozenset(), frozenset({"g0"}): frozenset({1}),
           frozenset({"g1"}): frozenset({2}),
           frozenset({"g0", "g1"}): frozenset({1, 2})}
    tables = {o: {(a, b): enc[transporter(acts[o], b, a)]
                  for a in carriers[o] for b in carriers[o]}
              for o in objects}
    cone = Cone(fp, p2, tables)
    ok, w = check_cone(cone, "diamond1")
    assert ok, w
    partial = Cone(fp, p2, {o: tables[o] for o in ("G", "GG", "1")})
    ext = extend_cone(partial, ("G", "GG"), "diamond1")
    assert ext.tables["1"][("*", "*")] == p2.join_all(
        tables["G"][("g0", y)] for y in carriers["G"])
    assert ext.tables == tables
    ext2 = extend_cone(partial, ("G", "GG"), "diamond")
    assert ext2.tables == tables


def test_extension_not_dense():
    A, B = (0,), ("u", "v")
    fp = FunctorPair(("A", "B"), (Arrow("m", "A", "B"),),
                     {"A": A, "B": B}, {"m": {0: "u"}})
    omega = TWO()
    cone = Cone(fp, omega, {"A": {(0, 0): 1},
                            "B": {(x, y): (1 if x == y else 0)
                                  for x in B for y in B}})
    with pytest.raises(NotDense):
        extend_cone(Cone(fp, omega, {"A": cone.tables["A"],
                                     "B": cone.tables["B"]}),
                    ("A",), "diamond1")


def test_compatibility_iff_diamond_bijections_exhaustive():
    """On the full category over {X, X x X, 1}: a diamond-cone is compatible
    exactly when every table is bijection-like; diamond-cones are generated
    exhaustively by extension from their restriction to X."""
    fp = full_finset_instance(2)
    omega = TWO()
    X = fp.F["X"]
    keys = [(x, y) for x in X for y in X]
    seen_diamond = 0
    for values in itertools.product(omega.elements, repeat=len(keys)):
        table_x = dict(zip(keys, values))
        partial = Cone(fp, omega, {
            "X": table_x,
            "XX": {(p, q): 0 for p in fp.F["XX"] for q in fp.Fp["XX"]},
            "1": {("*", "*"): 0},
        })
        try:
            ext = extend_cone(partial, ("X",), "diamond")
        except Exception:
            continue  # the restriction does not extend to a diamond cone
        ok, _ = check_cone(ext, "diamond")
        if not ok:
            continue
        seen_diamond += 1
        compat, _ = check_compatible(ext)
        bijections = all(
            check_axioms(ext.relation(o)).is_bijection for o in fp.objects
        )
        assert compat == bijections
    assert seen_diamond > 1


def test_compatible_cones_from_meet_form():
    # products valued by meets and unit terminal: compatible by construction,
    # and a diamond-cone exactly when the generating table is a bijection
    fp = full_finset_instance(2)
    omega = TWO()
    X = fp.F["X"]
    keys = [(x, y) for x in X for y in X]
    for values in itertools.product(omega.elements, repeat=len(keys)):
        table_x = dict(zip(keys, values))
        tables = {
            "X": table_x,
            "1": {("*", "*"): 1},
            "XX": {((a, b), (a2, b2)):
                   omega.meet(table_x[(a, a2)], table_x[(b, b2)])
                   for (a, b) in fp.F["XX"] for (a2, b2) in fp.Fp["XX"]},
        }
        cone = Cone(fp, omega, tables)
        compat, _ = check_compatible(cone)
        assert compat
        dia, _ = check_cone(cone, "diamond")
        bij = check_axioms(cone.relation("X")).is_bijection
        if dia:
            assert bij
        # bijection tables alone do not force a diamond cone, but for
        # them the lax and the exact cone conditions agree
        if all(check_axioms(cone.relation(o)).is_bijection
               for o in fp.objects):
            tri, _ = check_cone(cone, "triangle")
            assert tri == dia


def test_uv_failure_breaks_compatibility_instance():
    # a non-univalued generating table cannot be part of a compatible
    # diamond-cone: the product equation fails at a diagonal instance
    from cone_instances import perm_products_instance

    fp = perm_products_instance(2)
    omega = TWO()
    X = fp.F["X"]
    table_x = {(x, y): 1 for x in X for y in X}  # full relation: uv fails
    partial = Cone(fp, omega, {
        "X": table_x,
        "XX": {(p, q): 0 for p in fp.F["XX"] for q in fp.Fp["XX"]},
        "1": {("*", "*"): 0},
    })
    ext = extend_cone(partial, ("X",), "diamond1")
    assert not check_axioms(ext.relation("X")).univalued
    compat, witness = check_compatible(ext)
    assert not compat and witness[0] == "C1"
    assert witness[2][0] == witness[2][1]  # the failing pair is diagonal


# -- error classes, each raised and named ---------------------------------------


def _merge_pair():
    """A = {0, 1} mapped onto B = {u}: both points of A present u."""
    return FunctorPair(("A", "B"), (Arrow("m", "A", "B"),),
                       {"A": (0, 1), "B": ("u",)}, {"m": {0: "u", 1: "u"}})


def test_cone_missing_a_table_is_a_shape_mismatch():
    with pytest.raises(ShapeMismatch) as err:
        Cone(_merge_pair(), TWO(), {"A": {(x, y): 1 for x in (0, 1) for y in (0, 1)}})
    assert type(err.value) is ShapeMismatch


def test_extension_disagreeing_across_presentations_is_inconsistent():
    # u is presented by 0, whose row of the A table joins to 1, and by 1,
    # whose row joins to 0
    fp = _merge_pair()
    tables = {"A": {(0, 0): 1, (0, 1): 0, (1, 0): 0, (1, 1): 0},
              "B": {("u", "u"): 1}}
    with pytest.raises(InconsistentExtension) as err:
        extend_cone(Cone(fp, TWO(), tables), ("A",), "diamond1")
    assert type(err.value) is InconsistentExtension
    assert err.value.witness == ("B", "u", "u", (1, 0))
