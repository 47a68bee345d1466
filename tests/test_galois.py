"""Groupoids, actions, comodules, the relation category, reconstruction."""

import collections
import inspect
import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from etale_oracle import dense_etale_module
from finloc import galois, modb
from finloc.errors import (
    AnchorMismatch,
    DomainMismatch,
    KernelError,
    Mismatch,
    NotACone,
    NotAGroupoid,
    NotAModule,
    NotBijection,
    NotDualizable,
    TriangularFails,
)
from finloc.fixtures import codiscrete, identities_only, trivial_group, z_mod
from finloc.galois import (
    DiscreteAction,
    EtaleModule,
    FiniteGroupoid,
    GaloisCoend,
    GroupoidHopf,
    action_comodule_transpose,
    action_from_comodule,
    action_mu,
    actions_up_to_iso,
    anchored_carriers,
    b1_holds,
    b2_holds,
    check_action_morphism,
    Comodule,
    comodule_axioms,
    comodule_is_locale_morphism,
    comodule_morphism_holds,
    compose_relations,
    default_site,
    disjoint_union,
    enumerate_actions,
    enumerate_comodules,
    factor_cone,
    groupoid_to_hopf,
    invariant_relations,
    product_action,
    reconstruct,
    rel_beta_g,
    diamond_on_relation,
    relation_is_invariant,
    representable_action,
    restricted_theta_axioms,
    site_independence_check,
    structural_cone_tables,
    terminal_action,
    transporter,
    verify_hopf_laws,
)
from finloc.lattice import (
    SupMorphism,
    check_locale_morphism,
    is_frame,
    locale_morphisms,
    power_locale,
)
from finloc.present import PresentedSupLattice
from finloc.relation import table_axioms
from test_modb import BBimodule


def test_groupoid_validation_rejects_bad_units():
    with pytest.raises(NotAGroupoid):
        FiniteGroupoid(("a",), ("e",), {"e": "a"}, {"e": "a"}, {"a": "x"},
                       {("e", "e"): "e"}, {"e": "e"})


def test_hopf_identities_only_is_base():
    G = identities_only(2)
    H = groupoid_to_hopf(G)  # all laws verified inside
    assert len(power_locale(G.arrows)) == len(H.B) == 4
    # c is the canonical embedding: composable pairs are the identity pairs
    assert len(H.composable) == 2


def test_hopf_z2_antipode_fixes_generator():
    G = z_mod(2)
    H = groupoid_to_hopf(G)
    assert H.a(frozenset({"g1"})) == frozenset({"g1"})
    assert len(power_locale(G.arrows)) == 4


def test_hopf_codiscrete():
    G = codiscrete(2)
    H = groupoid_to_hopf(G)
    assert len(power_locale(G.arrows)) == 16
    assert H.a(frozenset({(0, 1)})) == frozenset({(1, 0)})


class NonemptyToAll(GroupoidHopf):
    def s(self, b):  # keeps joins, breaks the meet of the two objects
        return frozenset(self.groupoid.arrows) if b else frozenset()


class IgnoresB(GroupoidHopf):
    def left(self, b, U):  # the empty b no longer acts as zero
        return U


def test_hopf_laws_reject_a_broken_source_map_and_action():
    H = groupoid_to_hopf(codiscrete(2))
    fields = (H.groupoid, H.B, H.composable, H.parallel)
    with pytest.raises(Mismatch, match="s is a locale morphism"):
        verify_hopf_laws(NonemptyToAll(*fields))
    with pytest.raises(NotAModule):
        verify_hopf_laws(IgnoresB(*fields))


def test_regular_action_and_transporters():
    G = z_mod(2)
    R = representable_action(G, "*")
    assert set(R.carrier) == {"g0", "g1"}
    # the transporter into each element is a singleton
    for x in R.carrier:
        for y in R.carrier:
            assert len(transporter(R, y, x)) == 1


# one mutant per clause of DiscreteAction._validate, in the order they are
# checked: (groupoid fixture and its size, anchor, act, error, witness); the
# carrier is (a, b)
_SWAP2 = {("g0", "a"): "a", ("g0", "b"): "b", ("g1", "a"): "b", ("g1", "b"): "a"}
_ACTION_MUTANTS = {
    "anchor": (("z_mod", 2), {"a": "*", "b": "nowhere"}, _SWAP2,
               "AnchorMismatch", "b"),
    "domain": (("z_mod", 2), {"a": "*", "b": "*"},
               {k: v for k, v in _SWAP2.items() if k != ("g1", "b")},
               "NotAnAction", ("g1", "b")),
    "anchor tracking": (("identities_only", 2), {"a": 0, "b": 1},
                        {(("id", 0), "a"): "b", (("id", 1), "b"): "b"},
                        "NotAnAction", (("id", 0), "a")),
    "unit": (("z_mod", 2), {"a": "*", "b": "*"},
             {("g0", "a"): "b", ("g0", "b"): "a", ("g1", "a"): "a", ("g1", "b"): "b"},
             "NotAnAction", "a"),
    # g1 and g2 both swap, but g1 g1 = g2 and g1 g1 a = a
    "composition": (("z_mod", 3), {"a": "*", "b": "*"},
                    {("g0", "a"): "a", ("g0", "b"): "b", ("g1", "a"): "b",
                     ("g1", "b"): "a", ("g2", "a"): "b", ("g2", "b"): "a"},
                    "NotAnAction", ("g1", "g1", "a")),
}


@pytest.mark.parametrize("clause", list(_ACTION_MUTANTS))
def test_discrete_action_mutants_raise_with_their_witness(clause):
    from finloc import errors, fixtures

    (name, n), anchor, act, error, witness = _ACTION_MUTANTS[clause]
    G = getattr(fixtures, name)(n)
    with pytest.raises(getattr(errors, error)) as e:
        DiscreteAction(G, ("a", "b"), anchor, act)
    assert e.value.witness == witness


def test_discrete_action_composition_mutant_fails_under_python_O():
    (name, n), anchor, act, error, witness = _ACTION_MUTANTS["composition"]
    proc = _run_python_O(
        "from finloc.errors import NotAnAction\n"
        f"from finloc.fixtures import {name}\n"
        "from finloc.galois import DiscreteAction\n"
        "try:\n"
        f"    DiscreteAction({name}({n}), ('a', 'b'), {anchor!r}, {act!r})\n"
        "except NotAnAction as e:\n"
        "    print(repr(e.witness))\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == repr(witness)


def test_action_comodule_transpose_trivial():
    G = trivial_group()
    act = terminal_action(G)
    c = action_comodule_transpose(act)  # verifies B1, B2, C1, C2, roundtrip
    assert c.mu[("*", "*")] == frozenset({"e"})


def test_action_comodule_transpose_regular_z2():
    act = representable_action(z_mod(2), "*")
    c = action_comodule_transpose(act)
    for x in act.carrier:
        for y in act.carrier:
            assert len(c.mu[(x, y)]) == 1


def c1_holds(c: Comodule) -> bool:
    """Coassociativity of the coaction: the oracle form of B1."""
    G = c.groupoid
    for x in c.carrier:
        lhs = set()
        for (g, y) in c.rho(x):
            for (f, h) in ((f, h) for f in G.arrows for h in G.arrows
                           if G.source[f] == G.target[h]):
                if G.comp(f, h) == g:
                    lhs.add((f, h, y))
        rhs = set()
        for (g, y) in c.rho(x):
            for (h, z) in c.rho(y):
                rhs.add((g, h, z))
        if lhs != rhs:
            return False
    return True


def c2_holds(c: Comodule) -> bool:
    """The counit law of the coaction: the oracle form of B2."""
    for x in c.carrier:
        back = {y for (g, y) in c.rho(x)
                if g == c.groupoid.unit[c.anchor[y]]}
        if back != {x}:
            return False
    return True


def test_comodule_roundtrip_through_action():
    for G in (z_mod(2), codiscrete(2)):
        for act in enumerate_actions(G, 3):
            c = action_comodule_transpose(act)
            back = action_from_comodule(c)
            assert back.act == act.act
            assert c1_holds(c) and c2_holds(c)


def test_enumerated_comodules_are_bijections_and_locale_morphisms():
    for G in (z_mod(2), codiscrete(2)):
        for c in enumerate_comodules(G, 3):
            assert comodule_axioms(c).is_bijection
            comodule_is_locale_morphism(c)
            assert c1_holds(c) and c2_holds(c)


def test_c1c2_and_b1b2_fail_together_on_perturbations():
    G = z_mod(2)
    act = representable_action(G, "*")
    good = action_comodule_transpose(act)
    for (x, y) in good.mu:
        for extra in ("g0", "g1"):
            mu = dict(good.mu)
            if extra in mu[(x, y)]:
                continue
            mu[(x, y)] = mu[(x, y)] | {extra}
            c = Comodule(G, act.carrier, act.anchor, mu)
            b_side = b1_holds(c) and b2_holds(c)
            c_side = c1_holds(c) and c2_holds(c)
            assert b_side == c_side
            assert not b_side


def test_overlapping_coaction_is_not_a_locale_morphism():
    # every transporter is the whole group: rho covers the top, but rho(a)
    # and rho(b) overlap, so the meet of {a} and {b} is not preserved
    G = z_mod(2)
    carrier = ("a", "b", "c")
    mu = {(x, y): frozenset(G.arrows) for x in carrier for y in carrier}
    c = Comodule(G, carrier, {x: "*" for x in carrier}, mu)
    with pytest.raises(Mismatch, match="rho preserves meets") as exc:
        comodule_is_locale_morphism(c)
    assert exc.value.witness == (frozenset({"a"}), frozenset({"b"}))


def test_comodule_axioms_report_first_witnesses():
    # every transporter is {unit}: uv fails first at x = a, injectivity at y = a
    G = z_mod(2)
    carrier = ("a", "b", "c")
    mu = {(x, y): frozenset({"g0"}) for x in carrier for y in carrier}
    rep = comodule_axioms(Comodule(G, carrier, {x: "*" for x in carrier}, mu))
    assert not rep.univalued and not rep.injective
    assert rep.witnesses["uv"] == ("a", "a", "b")
    assert rep.witnesses["in"] == ("a", "b", "a")


def _diamond_oracle(f, A, B) -> bool:
    """Equivariance through the mu-level diamond: the transporters of A
    pushed forward along f are the transporters of B."""
    muA, muB = action_mu(A), action_mu(B)
    return all(
        frozenset().union(*(muA[(x, y)] for x in A.carrier if f[x] == xp),
                          frozenset())
        == muB[(xp, f[y])]
        for xp in B.carrier for y in A.carrier
    )


def _action_morphism(f, A, B) -> bool:
    """check_action_morphism, held to the diamond oracle."""
    holds = check_action_morphism(f, A, B)
    assert holds == _diamond_oracle(f, A, B)
    return holds


def test_action_morphism_identity_and_fold():
    G = z_mod(2)
    R = representable_action(G, "*")
    assert _action_morphism({x: x for x in R.carrier}, R, R)
    W = disjoint_union(R, R)
    fold = {x: x[1] for x in W.carrier}
    assert _action_morphism(fold, W, R)


def test_action_morphism_breaking_map():
    G = z_mod(2)
    R = representable_action(G, "*")
    W = disjoint_union(R, R)
    bad = {x: "g0" for x in W.carrier}  # constant map is not equivariant
    assert not _action_morphism(bad, W, R)


def test_rel_beta_g_identities_only_is_rel_of_sets():
    G = identities_only(2)
    cat = rel_beta_g(G, 2)
    # actions = anchored sets; homs = all fiberwise relations
    for i, A in enumerate(cat.objects):
        for j, B in enumerate(cat.objects):
            fiber = [(x, y) for x in A.carrier for y in B.carrier
                     if A.anchor[x] == B.anchor[y]]
            assert len(cat.hom(i, j)) == 2 ** len(fiber)


def test_rel_beta_g_z2_identities_present():
    cat = rel_beta_g(z_mod(2), 2)
    for i, A in enumerate(cat.objects):
        ident = frozenset((x, x) for x in A.carrier)
        assert ident in cat.hom(i, i)


def test_mono_restriction_lemma():
    # restricting along an invariant subset: the restricted transporters are
    # the transporters of the images, and the restriction is the unique
    # action making the inclusion a morphism
    G = z_mod(2)
    for act in enumerate_actions(G, 3):
        mu = action_mu(act)
        for inv in invariant_relations(act, act):
            sub = {x for (x, y) in inv if x == y}
            if not all((x, x) in inv for x in sub):
                continue
            members = tuple(x for x in act.carrier if x in sub)
            if not relation_is_invariant({(x, x) for x in members}, act, act):
                continue
            restricted = {(g, x): act.apply(g, x)
                          for x in members
                          for g in G.arrows_from(act.anchor[x])}
            if not all(v in members for v in restricted.values()):
                continue
            sub_act = DiscreteAction(G, members,
                                     {x: act.anchor[x] for x in members},
                                     restricted)
            sub_mu = action_mu(sub_act)
            for x in members:
                for y in members:
                    assert sub_mu[(x, y)] == mu[(x, y)]
            # uniqueness: no other action on the members makes the
            # inclusion equivariant
            incl = {x: x for x in members}
            count = 0
            for other in enumerate_actions(G, len(members)):
                if len(other.carrier) != len(members):
                    continue
                naming = dict(zip(other.carrier, members))
                if any(other.anchor[o] != sub_act.anchor[naming[o]]
                       for o in other.carrier):
                    continue
                renamed = DiscreteAction(
                    G, members, sub_act.anchor,
                    {(g, naming[x]): naming[other.apply(g, x)]
                     for x in other.carrier
                     for g in G.arrows_from(other.anchor[x])})
                if _action_morphism(incl, renamed, act):
                    count += 1
                    assert renamed.act == sub_act.act
            assert count >= 1


def test_reconstruct_z2_matches_hopf():
    rep = reconstruct(z_mod(2))
    assert rep.coend_size == rep.expected_size == 4
    assert check_locale_morphism(rep.iso) is None


def test_site_independence_z2():
    G = z_mod(2)
    R = representable_action(G, "*")
    extra = disjoint_union(R, R)
    assert site_independence_check(G, (extra,))


def test_factor_structural_cone_is_identity():
    G = z_mod(2)
    gc = GaloisCoend(default_site(G))
    L = gc.quotient.locale()
    ident = SupMorphism(L, L, {c: c for c in L.elements})
    tables = structural_cone_tables(gc, ident)
    B = power_locale(G.objects)
    g0 = SupMorphism(B, L, {b: gc.t_map(b).closure for b in B.elements})
    g1 = SupMorphism(B, L, {b: gc.s_map(b).closure for b in B.elements})
    h = factor_cone(gc, L, g0, g1, tables)
    assert h.table == ident.table


def test_factor_postcomposed_cone_recovers_morphism():
    G = z_mod(2)
    gc = GaloisCoend(default_site(G))
    L = gc.quotient.locale()
    B = power_locale(G.objects)
    for h in locale_morphisms(L, L):
        tables = structural_cone_tables(gc, h)
        g0 = SupMorphism(B, L, {b: h.table[gc.t_map(b).closure]
                                for b in B.elements})
        g1 = SupMorphism(B, L, {b: h.table[gc.s_map(b).closure]
                                for b in B.elements})
        try:
            got = factor_cone(gc, L, g0, g1, tables)
        except NotACone:
            continue  # pushing forward can break bijectivity of the tables
        assert got.table == h.table


def test_factor_rejects_non_cone():
    G = z_mod(2)
    gc = GaloisCoend(default_site(G))
    L = gc.quotient.locale()
    B = power_locale(G.objects)
    g0 = SupMorphism(B, L, {b: gc.t_map(b).closure for b in B.elements})
    g1 = SupMorphism(B, L, {b: gc.s_map(b).closure for b in B.elements})
    tables = {name: {(a, b): L.top
                     for a in act.carrier for b in act.carrier}
              for name, act in gc.site.objects.items()}
    with pytest.raises(NotACone):
        factor_cone(gc, L, g0, g1, tables)


def _z2_structural_cone():
    gc = GaloisCoend(default_site(z_mod(2)))
    L = gc.quotient.locale()
    B = power_locale(gc.site.groupoid.objects)
    g0 = SupMorphism(B, L, {b: gc.t_map(b).closure for b in B.elements})
    g1 = SupMorphism(B, L, {b: gc.s_map(b).closure for b in B.elements})
    tables = structural_cone_tables(
        gc, SupMorphism(L, L, {c: c for c in L.elements}))
    return gc, L, g0, g1, tables


# On R[*] the structural table is [[a, b], [b, a]] with a, b the atoms of
# the coend; each mutant rewrites the entries named by (row, column) to
# "a", "b", "top" or "bottom" and breaks the axiom it is keyed by.
_CONE_MUTANTS = {
    "ed": {("g0", "g1"): "bottom"},
    "uv": {("g0", "g1"): "top"},
    "su": {("g1", "g0"): "a", ("g1", "g1"): "b"},
    "in": {("g1", "g0"): "top", ("g1", "g1"): "bottom"},
}


@pytest.mark.parametrize("axiom", sorted(_CONE_MUTANTS))
def test_validate_cone_rejects_one_mutant_per_axiom(axiom):
    gc, L, g0, g1, tables = _z2_structural_cone()
    galois._validate_cone(gc, L, g0, g1, tables)  # the unmutated cone passes
    t = tables["R[*]"]
    named = {"a": t[("g0", "g0")], "b": t[("g0", "g1")],
             "top": L.top, "bottom": L.bottom}
    for key, value in _CONE_MUTANTS[axiom].items():
        t[key] = named[value]
    rep = table_axioms(L, ("g0", "g1"), ("g0", "g1"), t,
                       lambda x: L.top, lambda y: L.top)
    assert axiom in rep.witnesses
    with pytest.raises(NotACone) as e:
        galois._validate_cone(gc, L, g0, g1, tables)
    assert e.value.witness == next(iter(rep.witnesses.values()))


def test_validate_cone_rejects_entry_outside_support():
    # the only change: the anchor map g1 sends the object to the atom a, so
    # the entry b of the table lies outside g0 ∧ g1 = a; the row and column
    # joins imply the support bound, so no separate support check is needed
    gc, L, g0, g1, tables = _z2_structural_cone()
    a = tables["R[*]"][("g0", "g0")]
    g1 = SupMorphism(g1.dom, L, {b: (a if b else L.bottom)
                                 for b in g1.dom.elements})
    assert not L.leq(tables["R[*]"][("g0", "g1")],
                     L.meet(g0.table[frozenset({"*"})],
                            g1.table[frozenset({"*"})]))
    with pytest.raises(NotACone):
        galois._validate_cone(gc, L, g0, g1, tables)


def test_restricted_theta_on_graph_of_morphism():
    # the graph of an action morphism is an invariant relation and its
    # restricted pairing is a bijection
    G = z_mod(2)
    R = representable_action(G, "*")
    W = disjoint_union(R, R)
    fold = {x: x[1] for x in W.carrier}
    graph = frozenset((x, fold[x]) for x in W.carrier)
    assert relation_is_invariant(graph, W, R)
    assert comodule_morphism_holds(graph, W, R)
    assert restricted_theta_axioms(graph, W, R).is_bijection


def test_compose_relations_closure():
    G = z_mod(2)
    acts = enumerate_actions(G, 2)
    for A in acts:
        for B in acts:
            for C in acts:
                for R in invariant_relations(A, B):
                    for S in invariant_relations(B, C):
                        assert relation_is_invariant(
                            compose_relations(R, S), A, C)


def test_lifting_on_reconstructed_coend_matches_regular_coaction():
    # the lifting coaction of each site object, pushed through the
    # comparison isomorphism, is the transporter coaction of the action
    from finloc.tannaka import lifting

    for G in (z_mod(2), codiscrete(2)):
        rep = reconstruct(G)
        gc = rep.coend
        coactions = lifting(gc.coend)  # verifies comodule laws and naturality
        for name, act in gc.site.objects.items():
            com = action_comodule_transpose(act)
            for x in act.carrier:
                lifted = set()
                for lam, m in coactions[name][x]:
                    arrows = frozenset().union(
                        *(transporter(gc.site.objects[c], b, a)
                          for (c, a, b) in lam.raw), frozenset())
                    for g in arrows:
                        for y in m:
                            lifted.add((g, y))
                assert lifted == set(com.rho(x))


def test_cogebroide_uniqueness_on_reconstructed_coend():
    from finloc.tannaka import unique_cogebroide

    G = z_mod(2)
    gc = GaloisCoend(default_site(G))
    assert unique_cogebroide(gc.coend)


def test_uniqueness_search_builds_each_coaction_once(monkeypatch):
    from finloc import tannaka

    gc = GaloisCoend(default_site(z_mod(2)))
    built = []
    coaction = tannaka.Coend.coaction

    def spy(self, name):
        built.append(name)
        return coaction(self, name)

    monkeypatch.setattr(tannaka.Coend, "coaction", spy)
    assert tannaka.unique_cogebroide(gc.coend)
    assert sorted(built) == sorted(gc.coend.objects)


def two_components():
    """Z2 at object 0 beside the trivial group at object 1: two components
    with different isotropy and no cross arrows at all."""
    return FiniteGroupoid(
        objects=(0, 1),
        arrows=("e0", "s0", "e1"),
        source={"e0": 0, "s0": 0, "e1": 1},
        target={"e0": 0, "s0": 0, "e1": 1},
        unit={0: "e0", 1: "e1"},
        compose={("e0", "e0"): "e0", ("e0", "s0"): "s0",
                 ("s0", "e0"): "s0", ("s0", "s0"): "e0",
                 ("e1", "e1"): "e1"},
        inverse={"e0": "e0", "s0": "s0", "e1": "e1"},
    )


def test_reconstruct_disconnected_groupoid():
    from finloc.galois import equivalence_check

    G = two_components()
    rep = reconstruct(G)
    assert rep.coend_size == 2 ** 3 == rep.expected_size
    r = equivalence_check(G, 3)
    assert r.object_count > 0


def test_rel_beta_g_with_a_non_bijective_restriction_is_not_a_bijection(monkeypatch):
    # every invariant relation restricts to a bijection, so a hom space that
    # says otherwise is the kernel's fault, named with the relation
    monkeypatch.setattr(galois._HomSpace, "bijection", lambda self, bits: False)
    with pytest.raises(NotBijection) as err:
        galois.rel_beta_g(z_mod(2), 1)
    assert type(err.value) is NotBijection
    assert err.value.witness[:2] == (0, 0)


def test_galois_coend_rejects_a_site_relation_across_fibers():
    # its dual is the direct image of the transpose only when it is fiberwise
    G = identities_only(2)
    site = default_site(G)
    name, src, dst, pairs = site.rel_gens[0]
    x, y = next(iter(pairs))
    other = next(z for z in site.objects[dst].carrier
                 if site.objects[dst].anchor[z] != site.objects[dst].anchor[y])
    site.rel_gens[0] = (name, src, dst, pairs | {(x, other)})
    with pytest.raises(AnchorMismatch) as err:
        GaloisCoend(site)
    assert err.value.witness == (x, other)


def test_rel_beta_g_size_bound(monkeypatch):
    from finloc.errors import SizeBound

    monkeypatch.setattr("finloc.lattice.MAX_CARRIER", 2 ** 2)
    with pytest.raises(SizeBound):
        rel_beta_g(z_mod(2), 4)


def test_equivalence_z3_small():
    from finloc.galois import equivalence_check

    r = equivalence_check(z_mod(3), 3)
    assert r.object_count == 6  # empty, point, two fixed, fixed^3, 2 free


def test_verify_hopf_catches_wrong_antipode():
    # an identity antipode breaks the pentagon whenever inversion moves arrows
    gc = GaloisCoend(default_site(z_mod(3)))
    gc.antipode_gen = lambda gen: gen
    with pytest.raises(Mismatch):
        gc.verify_hopf()


def test_counit_perturbation_detected():
    from finloc.tannaka import unique_cogebroide

    gc = GaloisCoend(default_site(z_mod(3)))
    assert unique_cogebroide(gc.coend)


# -- the bit-sliced hom check against the per-candidate oracle -----------------


def _theta_bijection(hs, bits) -> bool:
    """All four axioms of the restricted pairing, on arrow masks."""
    members = [i for i in range(hs.n) if (bits >> i) & 1]
    for p in members:
        acc = tot = 0
        row = hs.T[p]
        for q in members:
            m = row[q]
            acc |= m
            tot += m.bit_count()
        if acc != hs.into[p] or tot != acc.bit_count():
            return False
    for q in members:
        acc = tot = 0
        for p in members:
            m = hs.T[p][q]
            acc |= m
            tot += m.bit_count()
        if acc != hs.out[q] or tot != acc.bit_count():
            return False
    return True


def _comodule_morphism(hs, bits) -> bool:
    for left, mates in enumerate(hs.couples):
        for right in range(hs.n):
            if (mates >> right) & 1 \
                    and ((bits >> left) & 1) != ((bits >> right) & 1):
                return False
    return True


def _hom_spaces(G, max_size):
    reps = actions_up_to_iso(enumerate_actions(G, max_size))
    return [galois._HomSpace(A, B) for A in reps for B in reps]


def _orbits(hs) -> set:
    """The orbits of the diagonal action as sets of pair indices, each grown
    from one of its pairs by applying arrows until nothing new appears."""
    A, B, G = hs.A, hs.B, hs.G
    out = set()
    for start in hs.pairs:
        orbit, frontier = {start}, [start]
        while frontier:
            x, y = frontier.pop()
            for g in G.arrows_from(A.anchor[x]):
                q = (A.apply(g, x), B.apply(g, y))
                if q not in orbit:
                    orbit.add(q)
                    frontier.append(q)
        out.add(frozenset(hs.pos[p] for p in orbit))
    return out


def _sliced(hs):
    """The block tables of hs joined into whole-space tables."""
    out = [0, 0, 0]
    for block, *tables in hs.tables():
        for k, table in enumerate(tables):
            out[k] |= table << block.start
    return tuple(out)


@pytest.mark.parametrize("G, max_size", [
    (trivial_group(), 4), (codiscrete(2), 4), (z_mod(2), 3),
])
def test_sliced_tables_match_per_candidate_oracle(monkeypatch, G, max_size):
    for hs in _hom_spaces(G, max_size):
        orbits = _orbits(hs)
        want = [0, 0, 0]
        for bits in range(1 << hs.n):
            want[0] |= _theta_bijection(hs, bits) << bits
            want[1] |= _comodule_morphism(hs, bits) << bits
            want[2] |= all(len({(bits >> i) & 1 for i in orbit}) == 1
                           for orbit in orbits) << bits
        assert _sliced(hs) == tuple(want)
        with monkeypatch.context() as m:
            m.setattr(galois, "_BLOCK", 3)  # several blocks per space
            assert _sliced(hs) == tuple(want)


@pytest.mark.parametrize("block", [16, 3])
def test_sliced_mismatch_names_first_oracle_mismatch(monkeypatch, block):
    monkeypatch.setattr(galois, "_BLOCK", block)
    hs = max(_hom_spaces(z_mod(2), 3), key=lambda h: h.n)
    # rewire the first couple whose ends are both above x_2, so that the
    # first 2 ** 3 candidates keep agreeing and the mismatch lies past them
    left, right = next((i, j) for i, m in enumerate(hs.couples)
                       for j in range(i, hs.n) if i >= 3 and (m >> j) & 1)
    to = 3 if right != 3 else 4
    hs.couples[left] = hs.couples[left] & ~(1 << right) | 1 << to
    hs.couples[right] &= ~(1 << left)
    hs.couples[to] |= 1 << left
    first = next(bits for bits in range(1 << hs.n)
                 if _theta_bijection(hs, bits) != _comodule_morphism(hs, bits))
    assert first >= 1 << 3
    with pytest.raises(Mismatch) as e:
        hs.hom_count()
    assert str(e.value) \
        == f"hom predicates rel and cmd differ at {hs.set_of(first)!r}"


def test_equivalence_check_rejects_a_moved_orbit_pair_under_python_O():
    # moving one pair between two orbits of a 12-pair space keeps the orbit
    # count, so only a candidate-by-candidate stability check can see it;
    # 12 pairs is past the set-level cross-check of at most 2 ** 9 candidates
    proc = _run_python_O(
        "from finloc import galois\n"
        "from finloc.fixtures import z_mod\n"
        "pair_orbits = galois._pair_orbits\n"
        "moved = []\n"
        "def mutant(A, B):\n"
        "    pairs, orbits = pair_orbits(A, B)\n"
        "    big = [k for k, o in enumerate(orbits) if len(o) > 1]\n"
        "    if len(pairs) == 12 and len(orbits) > 1 and big and not moved:\n"
        "        k = big[0]\n"
        "        to = 1 if k == 0 else 0\n"
        "        p = min(orbits[k], key=repr)\n"
        "        orbits = list(orbits)\n"
        "        orbits[k] = orbits[k] - {p}\n"
        "        orbits[to] = orbits[to] | {p}\n"
        "        moved.append(p)\n"
        "    return pairs, orbits\n"
        "galois._pair_orbits = mutant\n"
        "try:\n"
        "    galois.equivalence_check(z_mod(2), 4)\n"
        "finally:\n"
        "    print(len(moved))\n")
    assert proc.stdout == "1\n"
    assert proc.returncode == 1
    assert "finloc.errors.Mismatch: hom predicates rel and stable differ" \
        in proc.stderr


# -- the per-pair predicates against the frozenset routes ----------------------


def _restricted_theta_oracle(R, A, B):
    muA, muB = action_mu(A), action_mu(B)
    carrier = tuple(sorted(R, key=repr))
    anchor = {p: A.anchor[p[0]] for p in carrier}
    mu = {(p, q): muA[(p[0], q[0])] & muB[(p[1], q[1])]
          for p in carrier for q in carrier}
    return comodule_axioms(Comodule(A.groupoid, carrier, anchor, mu))


def _relation_is_invariant_oracle(R, A, B) -> bool:
    G = A.groupoid
    return all(
        (A.apply(g, x), B.apply(g, y)) in R
        for (x, y) in R for g in G.arrows_from(A.anchor[x])
    )


def _comodule_morphism_oracle(R, A, B) -> bool:
    G = A.groupoid
    for x in A.carrier:
        for y in B.carrier:
            for g in G.arrows_from(B.anchor[y]):
                lhs = (x, B.apply(g, y)) in R
                if A.anchor[x] == G.target[g]:
                    rhs = (A.apply(G.inverse[g], x), y) in R
                else:
                    rhs = False
                if lhs != rhs:
                    return False
    return True


def _diamond_on_relation_oracle(R, A, B) -> bool:
    muA, muB = action_mu(A), action_mu(B)
    for a in A.carrier:
        for bp in B.carrier:
            lhs = frozenset().union(
                *(muA[(a, y)] for y in A.carrier if (y, bp) in R),
                frozenset())
            rhs = frozenset().union(
                *(muB[(xp, bp)] for xp in B.carrier if (a, xp) in R),
                frozenset())
            if lhs != rhs:
                return False
    return True


def _bit(table: int, b: int) -> bool:
    return bool((table >> b) & 1)


@pytest.mark.parametrize("G, max_size", [
    (trivial_group(), 4), (codiscrete(2), 4), (z_mod(2), 3),
    (identities_only(2), 3), (z_mod(3), 3),
], ids=["trivial", "codiscrete2", "Z2", "discrete2", "Z3"])
def test_pair_predicates_match_frozenset_oracles(monkeypatch, G, max_size):
    for hs in _hom_spaces(G, max_size):
        if hs.n > 9:
            continue
        A, B = hs.A, hs.B
        pairing, morphism, stability, diamond = hs.set_level()
        homs = 0
        for bits in range(1 << hs.n):
            R = hs.set_of(bits)
            want = _restricted_theta_oracle(R, A, B)
            got = restricted_theta_axioms(R, A, B)
            assert (got, got.witnesses) == (want, want.witnesses)
            assert hs.bijection(bits) == _bit(pairing, bits) \
                == want.is_bijection
            assert comodule_morphism_holds(R, A, B) == hs.morphism(bits) \
                == _bit(morphism, bits) == _comodule_morphism_oracle(R, A, B)
            assert relation_is_invariant(R, A, B) == hs.invariant(bits) \
                == _bit(stability, bits) \
                == _relation_is_invariant_oracle(R, A, B)
            assert diamond_on_relation(R, A, B) == hs.diamond(bits) \
                == _bit(diamond, bits) == _diamond_on_relation_oracle(R, A, B)
            homs += want.is_bijection
        for block in (16, 3):  # one block per space, then several
            with monkeypatch.context() as m:
                m.setattr(galois, "_BLOCK", block)
                assert hs.hom_count() == homs


def test_pair_bijection_matches_comodule_axioms_on_random_tables():
    # restricted transporters of actions never overlap, so the uv and in
    # failures are reached only through tables that are not transporters;
    # overlapping entries are what the pass's sum = union test must catch
    import random

    G = z_mod(2)
    R = representable_action(G, "*")
    bit = {g: 1 << i for i, g in enumerate(G.arrows)}
    rng = random.Random(0)
    seen = set()
    for _ in range(400):
        ev = galois._HomSpace(R, R)
        n = len(ev.pairs)
        ev.rows = [[rng.randrange(4) for _ in range(n)] for _ in range(n)]
        pairing = ev.set_level()[0]
        for bits in range(1 << n):
            order = [i for i in range(n) if (bits >> i) & 1]
            carrier = tuple(ev.pairs[i] for i in order)
            mu = {(ev.pairs[i], ev.pairs[j]):
                  frozenset(g for g in G.arrows if ev.rows[i][j] & bit[g])
                  for i in order for j in order}
            want = comodule_axioms(Comodule(G, carrier,
                                            {p: "*" for p in carrier}, mu))
            assert ev.bijection(bits) == _bit(pairing, bits) \
                == want.is_bijection
            seen |= set(want.witnesses)
    assert seen == {"ed", "uv", "su", "in"}


@pytest.mark.parametrize("block", [16, 3])
def test_set_level_mismatch_names_first_candidate_and_predicate(monkeypatch,
                                                                block):
    # flip stability and the diamond at candidate k and the pairing at a
    # later one: the witness is k, named by the first predicate that
    # disagrees there, as a candidate-by-candidate loop would report it
    monkeypatch.setattr(galois, "_BLOCK", block)
    hs = max((h for h in _hom_spaces(z_mod(2), 3) if h.n <= 9),
             key=lambda h: h.n)
    tables = list(hs.set_level())
    k = (1 << hs.n) - 3
    tables[2] ^= 1 << k
    tables[3] ^= 1 << k
    tables[0] ^= 1 << (k + 1)
    monkeypatch.setattr(hs, "set_level", lambda: tuple(tables))
    hom = 0
    for block_, rel, _, _ in hs.tables():
        hom |= rel << block_.start
    want = next(
        f"{name} disagrees with the sliced tables at {hs.set_of(bits)!r}"
        for bits in range(1 << hs.n)
        for name, table in zip(hs.SET_LEVEL, tables)
        if _bit(table, bits) != _bit(hom, bits))
    assert want == (f"stability disagrees with the sliced tables at "
                    f"{hs.set_of(k)!r}")
    with pytest.raises(Mismatch) as e:
        hs.hom_count()
    assert str(e.value) == want


def test_pair_predicates_reject_a_pair_that_is_not_fiberwise():
    G = identities_only(2)
    A, B = (DiscreteAction(G, (o,), {o: o}, {(G.unit[o], o): o})
            for o in G.objects)
    with pytest.raises(DomainMismatch):
        relation_is_invariant({(A.carrier[0], B.carrier[0])}, A, B)


def _run_python_O(code: str) -> subprocess.CompletedProcess:
    """Run code in a `python -O` child that imports this finloc."""
    src = str(Path(galois.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-O", "-c", code],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)


def test_reconstruct_past_the_carrier_bound_raises_size_bound():
    # B = P(13 objects) exhausts 1 GB of address space; the bound must stop
    # it first
    proc = _run_python_O(
        "import resource, time\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from finloc import galois\n"
        "from finloc.errors import SizeBound\n"
        "from finloc.fixtures import identities_only\n"
        "t = time.perf_counter()\n"
        "try:\n"
        "    galois.reconstruct(identities_only(13))\n"
        "except SizeBound:\n"
        "    print(time.perf_counter() - t)\n")
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 5


@pytest.mark.parametrize("G", ["z_mod(12)", "identities_only(12)", "z_mod(13)"],
                         ids=["Z12", "discrete12", "Z13"])
def test_reconstruct_frontier_fits_1gb_and_5s(G):
    # no P(carrier) is listed, so Z13's 13 points stay under the carrier
    # bound; B = P(12 objects) is at it
    proc = _run_python_O(
        "import resource, time\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from finloc import galois\n"
        "from finloc.fixtures import identities_only, z_mod\n"
        f"G = {G}\n"
        "t = time.perf_counter()\n"
        "rep = galois.reconstruct(G)\n"
        "print(time.perf_counter() - t, rep.coend_size == 2 ** len(G.arrows),\n"
        "      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    assert proc.returncode == 0, proc.stderr
    seconds, exact, rss_kb = proc.stdout.split()
    assert exact == "True"
    assert float(seconds) < 5
    assert int(rss_kb) < 200 * 1024


@pytest.mark.parametrize("mutant", [
    "pairing_test = staticmethod(lambda total, union, tops, slots: True)",
    "morphism_test = staticmethod(lambda union, bits: True)",
    "invariant_test = staticmethod(lambda union, bits: True)",
    "diamond_test = staticmethod(lambda lhs, rhs: False)",
], ids=["bijection", "morphism", "invariant", "diamond"])
def test_equivalence_check_fails_under_python_O(mutant):
    # a wrong final test of a set-level predicate must stop the check even
    # with asserts stripped
    proc = _run_python_O(
        "from finloc import galois\n"
        "from finloc.fixtures import z_mod\n"
        f"galois._HomSpace.{mutant}\n"
        "galois.equivalence_check(z_mod(2), 3)\n")
    assert proc.returncode == 1
    assert "finloc.errors.Mismatch" in proc.stderr


# -- the bit-sliced comodule enumeration against the per-candidate oracle ------


def _enumerate_comodules_oracle(G, max_size) -> list:
    """Every mu-table cut down only by supports and the counit law, then
    filtered by the set-level B1 and B2, one candidate at a time."""
    out = []
    for carrier, anchor in anchored_carriers(G, max_size):
        pairs = [(x, y) for x in carrier for y in carrier]
        options = []
        for (x, y) in pairs:
            support = [g for g in G.arrows
                       if G.source[g] == anchor[y] and G.target[g] == anchor[x]]
            ident = G.unit[anchor[x]] if anchor[x] == anchor[y] else None
            nonunits = [g for g in support if g != ident]
            opts = []
            for r in range(len(nonunits) + 1):
                for sub in itertools.combinations(nonunits, r):
                    base = frozenset(sub)
                    if x == y:
                        base |= {ident}
                    opts.append(base)
            options.append(opts)
        for choice in itertools.product(*options):
            c = Comodule(G, carrier, anchor, dict(zip(pairs, choice)))
            if b1_holds(c) and b2_holds(c):
                out.append(c)
    return out


def _keys_by_carrier(comodules) -> dict:
    out = {}
    for c in comodules:
        out.setdefault(c.carrier, set()).add(c.key())
    return out


@pytest.mark.parametrize("G, max_size", [
    (trivial_group(), 4), (z_mod(2), 4), (codiscrete(2), 4),
    (identities_only(2), 4), (z_mod(3), 3),
], ids=["trivial", "Z2", "codiscrete2", "discrete2", "Z3"])
def test_sliced_comodules_match_per_candidate_oracle(monkeypatch, G, max_size):
    want = _keys_by_carrier(_enumerate_comodules_oracle(G, max_size))
    for block in (16, 3):  # one block per carrier, then several
        monkeypatch.setattr(galois, "_BLOCK", block)
        got = enumerate_comodules(G, max_size)
        assert len(got) == sum(map(len, want.values()))
        assert _keys_by_carrier(got) == want


def test_comodule_enumeration_fails_under_python_O():
    # a B1 table forced to all ones must stop the enumeration with asserts
    # stripped, not return the candidates that break B1
    proc = _run_python_O(
        "from finloc import galois\n"
        "from finloc.fixtures import z_mod\n"
        "tables = galois._ComoduleSpace.tables\n"
        "galois._ComoduleSpace.tables = lambda self: (\n"
        "    (block, (1 << len(block)) - 1) for block, _ in tables(self))\n"
        "print(galois.enumerate_comodules(z_mod(2), 2))\n")
    assert proc.returncode == 1
    assert "finloc.errors.Mismatch" in proc.stderr
    assert proc.stdout == ""


def test_second_factor_cone_computes_no_generator_closure(monkeypatch):
    from finloc.present import PresentedSupLattice

    gc = GaloisCoend(default_site(z_mod(2)))
    L = gc.quotient.locale()
    ident = SupMorphism(L, L, {c: c for c in L.elements})
    tables = structural_cone_tables(gc, ident)
    B = power_locale(gc.G.objects)
    g0 = SupMorphism(B, L, {b: gc.t_map(b).closure for b in B.elements})
    g1 = SupMorphism(B, L, {b: gc.s_map(b).closure for b in B.elements})
    factor_cone(gc, L, g0, g1, tables)
    closed = []
    closure = PresentedSupLattice.closure

    def spy(self, raw):
        closed.append(frozenset(raw))
        return closure(self, raw)

    monkeypatch.setattr(PresentedSupLattice, "closure", spy)
    assert factor_cone(gc, L, g0, g1, tables).table == ident.table
    assert not [raw for raw in closed if len(raw) == 1]


def test_equivalence_check_builds_and_sweeps_each_hom_space_once(monkeypatch):
    built, swept = [], []
    init, tables = galois._HomSpace.__init__, galois._HomSpace.tables

    def spy_init(self, A, B):
        built.append((A, B))
        init(self, A, B)

    def spy_tables(self):
        swept.append((self.A, self.B))
        return tables(self)

    monkeypatch.setattr(galois._HomSpace, "__init__", spy_init)
    monkeypatch.setattr(galois._HomSpace, "tables", spy_tables)
    galois.equivalence_check(z_mod(2), 4)
    assert len(built) == len(set(built)) == 81
    assert len(swept) == len(set(swept)) == 81


def test_equivalence_check_builds_each_transporter_table_once(monkeypatch):
    built = {}
    transporter = galois.transporter

    def spy(act, y, x):
        built[(act, y, x)] = built.get((act, y, x), 0) + 1
        return transporter(act, y, x)

    monkeypatch.setattr(galois, "transporter", spy)
    galois.equivalence_check(z_mod(2), 3)
    assert built and max(built.values()) == 1
    act = next(iter(built))[0]
    with pytest.raises(TypeError):  # shared, so read-only
        action_mu(act)[next(iter(action_mu(act)))] = frozenset()


# -- reconstruction over the minimal site ----------------------------------------


def _one_object_group(elements, mul):
    """The group on `elements` under `mul` (f after g), as a groupoid."""
    unit = next(e for e in elements if all(mul(e, x) == x for x in elements))
    return FiniteGroupoid(
        objects=("*",),
        arrows=elements,
        source={g: "*" for g in elements},
        target={g: "*" for g in elements},
        unit={"*": unit},
        compose={(f, g): mul(f, g) for f in elements for g in elements},
        inverse={f: next(g for g in elements if mul(f, g) == unit)
                 for f in elements},
    )


def z2_x_z2():
    return _one_object_group(tuple(itertools.product((0, 1), repeat=2)),
                             lambda f, g: (f[0] ^ g[0], f[1] ^ g[1]))


def s3():
    return _one_object_group(tuple(itertools.permutations(range(3))),
                             lambda f, g: tuple(f[i] for i in g))


BENCHMARK_GROUPOIDS = {
    "trivial": trivial_group(), "Z2": z_mod(2), "Z3": z_mod(3),
    "codiscrete2": codiscrete(2), "discrete2": identities_only(2),
    "discrete3": identities_only(3),
}

# every fixture whose coend has at most 16 elements
SMALL_COENDS = {**BENCHMARK_GROUPOIDS, "Z4": z_mod(4), "Z2xZ2": z2_x_z2()}


@pytest.mark.parametrize("name", BENCHMARK_GROUPOIDS)
def test_product_site_oracle(name):
    # the site with every pairwise product of representables added gives an
    # isomorphic coend, so the products need not be site objects
    G = BENCHMARK_GROUPOIDS[name]
    site = default_site(G)
    assert set(site.objects) == {"1"} | {f"R[{o}]" for o in G.objects}
    reps = [site.objects[f"R[{o}]"] for o in G.objects]
    assert site_independence_check(
        G, tuple(product_action(A, B) for A in reps for B in reps))


def _materialized_hopf_oracle(gc: GaloisCoend) -> None:
    """The all-elements route: the materialized coend is a frame, the
    bilinear product of any two elements is their meet, and s and t
    preserve joins and meets."""
    q = gc.quotient
    lat = q.lattice()
    assert is_frame(lat)[0]
    for c1 in lat.elements:
        for c2 in lat.elements:
            raw = frozenset().union(
                *(gc.multiply_gens(g1, g2).raw for g1 in c1 for g2 in c2),
                frozenset())
            assert q.closure(raw) == lat.meet(c1, c2)
    for b1 in gc.B.elements:
        for b2 in gc.B.elements:
            for f in (gc.t_map, gc.s_map):
                assert f(b1 | b2) == f(b1).join(f(b2))
                assert f(b1 & b2).closure == lat.meet(f(b1).closure,
                                                      f(b2).closure)


@pytest.mark.parametrize("name", SMALL_COENDS)
def test_generator_checks_agree_with_materialized_oracle(name):
    G = SMALL_COENDS[name]
    assert 2 ** len(G.arrows) <= 16
    gc = GaloisCoend(default_site(G))
    gc.verify_hopf()
    _materialized_hopf_oracle(gc)
    assert len(gc.quotient.lattice()) == 2 ** len(G.arrows)


def _verify_hopf(G):
    GaloisCoend(default_site(G)).verify_hopf()


@pytest.mark.parametrize("check, G", [
    pytest.param(_verify_hopf, z_mod(3), id="G0"),
    pytest.param(_verify_hopf, codiscrete(2), id="G1"),
    *(pytest.param(reconstruct, G, id=f"reconstruct-{name}")
      for name, G in (("Z3", z_mod(3)), ("codiscrete2", codiscrete(2)),
                      ("Z8", z_mod(8)), ("codiscrete3", codiscrete(3)))),
])
def test_verify_hopf_never_materializes_the_coend(monkeypatch, check, G):
    def refuse(self):
        raise AssertionError(f"{check.__name__} materialized the coend")

    monkeypatch.setattr(PresentedSupLattice, "lattice", refuse)
    monkeypatch.setattr(PresentedSupLattice, "locale", refuse)
    check(G)


EMPTY = FiniteGroupoid((), (), {}, {}, {}, {}, {})

# every fixture whose coend has at most 256 elements
COENDS_UP_TO_256 = {**SMALL_COENDS, "empty": EMPTY, "S3": s3(),
                    "two_components": two_components(), "Z8": z_mod(8)}


@pytest.mark.parametrize("name", COENDS_UP_TO_256)
def test_atom_certificate_counts_the_materialized_coend(name):
    G = COENDS_UP_TO_256[name]
    rep = reconstruct(G)
    assert len(rep.coend.quotient.lattice()) == rep.coend_size
    assert rep.coend_size == 2 ** len(G.arrows) <= 256


def _verify_hopf_laws_all_subsets(H: GroupoidHopf) -> None:
    """The all-subsets route: every law of `verify_hopf_laws` on every subset
    of arrows, and product = meet on every pair of them."""
    G = H.groupoid
    arrows = G.arrows
    L = power_locale(arrows)
    subsets = L.elements
    for name, f in (("s", H.s), ("t", H.t)):
        bad = check_locale_morphism(
            SupMorphism(H.B, L, {b: f(b) for b in H.B.elements}))
        galois._law(bad is None, f"{name} is a locale morphism", bad)
    BBimodule(H.B, L, H.left, H.right)
    for U in subsets:
        cu = H.c(U)
        galois._law(frozenset(g for g in arrows
                              if (G.unit[G.target[g]], g) in cu) == U,
                    "the left counit law", U)
        galois._law(frozenset(f for f in arrows
                              if (f, G.unit[G.source[f]]) in cu) == U,
                    "the right counit law", U)
        lhs = {(f, g, h) for (u, h) in cu for (f, g) in H.c(frozenset({u}))}
        rhs = {(f, g, h) for (f, v) in cu for (g, h) in H.c(frozenset({v}))}
        galois._law(lhs == rhs, "coassociativity", U)
        galois._law(H.a(H.a(U)) == U, "the antipode involution", U)
        galois._law(frozenset(f for (f, g) in cu if f == G.inverse[g])
                    == H.t(H.e(U)), "the pentagon (L x a)", U)
        galois._law(frozenset(g for (f, g) in cu if g == G.inverse[f])
                    == H.s(H.e(U)), "the pentagon (a x L)", U)
    for b in H.B.elements:
        galois._law(H.a(H.s(b)) == H.t(b), "a o s = t", b)
        galois._law(H.a(H.t(b)) == H.s(b), "a o t = s", b)
    full_pairs = frozenset((G.target[g], G.source[g]) for g in arrows)
    galois._law(H.u(full_pairs) == frozenset(arrows), "the unit law",
                full_pairs)
    for U in subsets:
        for V in subsets:
            S = frozenset((f, g) for (f, g) in H.parallel
                          if f in U and g in V)
            galois._law(H.m(S) == U & V, "product = meet", (U, V))


@pytest.mark.parametrize(
    "name", [n for n, G in COENDS_UP_TO_256.items() if len(G.arrows) <= 6])
def test_hopf_laws_on_atoms_agree_with_all_subsets(name):
    H = groupoid_to_hopf(COENDS_UP_TO_256[name])  # the atom route
    _verify_hopf_laws_all_subsets(H)


# atom-level mutants: each map is still a union over singletons, so the
# atom argument covers them, and each breaks one law at one atom of Z3
class DropsACounitPair(GroupoidHopf):
    def c(self, U):
        return super().c(U) - {("g0", "g0")}


class ExtraCoproductPair(GroupoidHopf):
    def c(self, U):
        return super().c(U) | ({("g1", "g1")} if "g1" in U else set())


class CyclicAntipode(GroupoidHopf):
    def a(self, U):
        return frozenset({"g0": "g1", "g1": "g2", "g2": "g0"}[g] for g in U)


class CounitOfAnArrow(GroupoidHopf):
    def e(self, U):
        return super().e(U) | ({"*"} if "g1" in U else set())


class ProductOfTwoArrows(GroupoidHopf):
    def m(self, S):
        return super().m(S) | {f for (f, g) in S if (f, g) == ("g1", "g2")}


class LeftThroughTheAntipode(GroupoidHopf):
    def left(self, b, U):  # does not commute with right on codiscrete(2)
        return self.a(self.t(b) & U)


class OverlappingTarget(GroupoidHopf):
    def t(self, b):  # every {o} also reaches the unit of object 0
        return super().t(b) | ({self.groupoid.unit[0]} if b else set())


@pytest.mark.parametrize("G, mutant, law", [
    pytest.param(G, mutant, law, id=mutant.__name__) for G, mutant, law in (
        (codiscrete(2), NonemptyToAll, "s is a locale morphism"),
        (codiscrete(2), IgnoresB, None),  # a NotAModule from BBimodule
        (codiscrete(2), LeftThroughTheAntipode, None),  # NotAModule too
        (codiscrete(2), OverlappingTarget, "t is a locale morphism"),
        (z_mod(3), DropsACounitPair, "counit"),
        (z_mod(3), ExtraCoproductPair, "coassociativity"),
        (z_mod(3), CyclicAntipode, "the antipode involution"),
        (z_mod(3), CounitOfAnArrow, "the pentagon"),
        (z_mod(3), ProductOfTwoArrows, "product = meet"))])
def test_hopf_law_mutants_fail_on_atoms_and_on_all_subsets(G, mutant, law):
    H = groupoid_to_hopf(G)
    H = mutant(H.groupoid, H.B, H.composable, H.parallel)
    errors = []
    for route in (verify_hopf_laws, _verify_hopf_laws_all_subsets):
        with pytest.raises(KernelError) as exc:
            route(H)
        errors.append(exc.value)
    assert type(errors[0]) is type(errors[1])
    if law is not None:
        assert all(law in str(e) for e in errors)
    else:
        assert type(errors[0]) is NotAModule


@pytest.mark.parametrize("mutant", [IgnoresB, LeftThroughTheAntipode],
                         ids=lambda m: m.__name__)
def test_action_mutants_fail_under_python_O(mutant):
    # the atom checks of the two actions must stop verify_hopf_laws with
    # asserts stripped
    proc = _run_python_O(
        "from finloc import galois\n"
        "from finloc.fixtures import codiscrete\n"
        "from finloc.galois import GroupoidHopf\n"
        f"{inspect.getsource(mutant)}\n"
        "H = galois.groupoid_to_hopf(codiscrete(2))\n"
        f"galois.verify_hopf_laws({mutant.__name__}(\n"
        "    H.groupoid, H.B, H.composable, H.parallel))\n")
    assert proc.returncode == 1
    assert "finloc.errors.NotAModule" in proc.stderr, proc.stderr


class DropOneEta(galois.EtaleModule):
    """An étale module whose coevaluation misses its first term."""

    def __init__(self, B, act):
        super().__init__(B, act)
        self.eta = self.eta[1:]


def test_etale_module_checks_its_triangles(monkeypatch):
    # without one singleton pair eta is no coevaluation: the triangles stop
    # the module where it is built, before any coend is presented from it
    G = z_mod(3)
    B = power_locale(G.objects)
    act = representable_action(G, G.objects[0])
    galois.etale_module(B, act)
    monkeypatch.setattr(galois, "EtaleModule", DropOneEta)
    with pytest.raises(TriangularFails):
        galois.etale_module(B, act)
    proc = _run_python_O(
        "from finloc import galois\n"
        "from finloc.fixtures import codiscrete\n"
        f"{inspect.getsource(DropOneEta)}\n"
        "galois.EtaleModule = DropOneEta\n"
        "galois.GaloisCoend(galois.default_site(codiscrete(2)))\n")
    assert proc.returncode == 1
    assert "finloc.errors.TriangularFails" in proc.stderr, proc.stderr


# -- the étale module on atoms against the dense oracle ------------------------

ETALE_GROUPOIDS = {
    **SMALL_COENDS, "S3": s3(), "two_components": two_components(),
    "codiscrete3": codiscrete(3), "codiscrete4": codiscrete(4),
    "discrete4": identities_only(4),
}


def _etale_actions(G):
    """The site's actions and the products of two representables, each with
    at most 6 points."""
    acts = list(default_site(G).objects.values())
    reps = [representable_action(G, o) for o in G.objects]
    acts += [product_action(A, A2) for A in reps for A2 in reps]
    return [a for a in acts if len(a.carrier) <= 6]


def _atom_eps(act, x, y):
    """The overlap pairing with its value on the one atom pair ({x}, {y})
    changed, extended as a union over points: anchor(x) is dropped from
    eps({x}, {x}) when x = y, else added to eps({x}, {y})."""
    def at(u, v):
        e = frozenset({act.anchor[u]}) if u == v else frozenset()
        return e ^ frozenset({act.anchor[x]}) if (u, v) == (x, y) else e

    return lambda U, V: frozenset().union(*(at(u, v) for u in U for v in V))


def _everywhere_action(act, x):
    """The action with x over every object: {o}.{x} = {x} for each o."""
    return lambda b, U: frozenset(
        u for u in U if act.anchor[u] in b or (u == x and b))


def _mutants(G, act):
    """(law, B, overrides) for one mutant per law: an anchor off B's points,
    a wrong eps on one atom pair, eta without its first pair and, with two
    or more objects, a point over every object (meet-composition)."""
    x, y = act.carrier[0], act.carrier[-1]
    B = power_locale(G.objects)
    off = power_locale(tuple(o for o in G.objects if o != act.anchor[x]))
    out = [("anchor", off, {}), ("eps", B, {"eps": _atom_eps(act, x, y)}),
           ("eta", B, {"drop_eta": True})]
    if len(G.objects) > 1:
        out.append(("act", B, {"act": _everywhere_action(act, x)}))
    return out


def _mutant_module(act=None, eps=None, drop_eta=False):
    """An étale module whose maps on masks are those of act and eps on
    sets of points."""
    class Mutant(EtaleModule):
        def __init__(self, B, action):
            super().__init__(B, action)
            if drop_eta:
                self.eta = self.eta[1:]

        def _act(self, bi, C):
            if act is None:
                return super()._act(bi, C)
            return self._mask(act(self.B.elements[bi], self._element(C)))

        def _eps(self, C, D):
            if eps is None:
                return super()._eps(C, D)
            return self.B.index(eps(self._element(C), self._element(D)))

    return Mutant


@pytest.mark.parametrize("name", ETALE_GROUPOIDS)
def test_etale_module_matches_the_dense_oracle(name):
    G = ETALE_GROUPOIDS[name]
    B = power_locale(G.objects)
    for act in _etale_actions(G):
        mod, d = galois.etale_module(B, act)
        dmod, dd = dense_etale_module(B, act)
        M = dmod.lattice
        assert len(mod.lattice) == len(M)
        pres, dpres = mod.presentation, dmod.presentation
        assert (pres.gens, pres.value, pres.relations) \
            == (dpres.gens, dpres.value, dpres.relations)
        assert d.eta == dd.eta and d.dual is mod
        for U in M.elements:
            assert pres.decompose(U) == dpres.decompose(U)
            for b in B.elements:
                assert mod.act(b, U) == dmod.act(b, U)
            for V in M.elements:
                assert d.eps(U, V) == dd.eps(U, V)


@pytest.mark.parametrize("name", ETALE_GROUPOIDS)
def test_etale_mutants_fail_the_same_law_on_both_routes(name, monkeypatch):
    G = ETALE_GROUPOIDS[name]
    seen = set()
    for act in filter(lambda a: a.carrier, _etale_actions(G)):
        for law, B, overrides in _mutants(G, act):
            monkeypatch.setattr(galois, "EtaleModule",
                                _mutant_module(**overrides))
            with pytest.raises(KernelError) as atoms:
                galois.etale_module(B, act)
            eta = tuple((frozenset({x}), frozenset({x}))
                        for x in act.carrier[1:]) \
                if overrides.get("drop_eta") else None
            with pytest.raises(KernelError) as dense:
                dense_etale_module(B, act, overrides.get("eps"), eta,
                                   overrides.get("act"))
            assert type(atoms.value) is type(dense.value), (law, act)
            if isinstance(dense.value, TriangularFails):
                assert (atoms.value.side, atoms.value.witness) \
                    == (dense.value.side, dense.value.witness), (law, act)
            seen.add((law, type(atoms.value)))
    assert {law for law, _ in seen} \
        == {"anchor", "eps", "eta"} | ({"act"} if len(G.objects) > 1 else set())
    assert {cls for law, cls in seen if law != "eps"} \
        == {NotAModule, TriangularFails}


def test_etale_mutants_cover_every_failure_class():
    # the wrong eps value is off the anchors (NotDualizable) when the atom
    # pair spans two objects, and breaks a triangle when it does not
    classes = set()
    for G in (z_mod(2), codiscrete(2)):
        act = terminal_action(G)
        _, B, overrides = _mutants(G, act)[1]
        with pytest.raises(KernelError) as exc:
            dense_etale_module(B, act, overrides["eps"])
        classes.add(type(exc.value))
    assert classes == {TriangularFails, NotDualizable}


def test_reconstruct_builds_no_dense_module(monkeypatch):
    # the coend reads every module and its dual at points: no BModule or
    # DualityData is built, and the only power set is B = P(objects)
    G = z_mod(3)
    built = collections.Counter()
    for cls in (modb.BModule, modb.DualityData):
        init = cls.__init__

        def counted(self, *args, cls=cls, init=init, **kwargs):
            built[cls.__name__] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    sets = []

    def recorded(X):
        sets.append(X)
        return power_locale(X)

    monkeypatch.setattr(galois, "power_locale", recorded)
    reconstruct(G)
    assert built == collections.Counter()
    assert sets and all(X is G.objects for X in sets)


@pytest.mark.parametrize("name", ETALE_GROUPOIDS)
def test_site_duals_are_the_transposed_relations(name):
    # the coend takes each relation's dual from its transpose; the dense
    # formula of the dual, a join over eta, gives the same set at every
    # generator value of the target
    gc = GaloisCoend(default_site(ETALE_GROUPOIDS[name]))
    objects, count = gc.coend.objects, 0
    for f in gc.coend.arrows:
        src, dst = objects[f.src], objects[f.dst]
        for n in dst.module.value.values():
            assert f.dual(n) == modb.dual_value(f.morphism, src.duality,
                                                dst.duality, n)
            count += 1
    assert count > 0


@pytest.mark.parametrize("G", [z_mod(3), codiscrete(2)], ids=["Z3", "codiscrete2"])
def test_galois_coend_modules_share_its_base(G):
    gc = GaloisCoend(default_site(G))
    assert all(o.module.B is gc.B and o.duality.dual.B is gc.B
               for o in gc.coend.objects.values())


# codiscrete(4) has 16 arrows: P(arrows) is past MAX_CARRIER, never built
@pytest.mark.parametrize("G", [z_mod(4), z2_x_z2(), s3(), codiscrete(4)],
                         ids=["Z4", "Z2xZ2", "S3", "codiscrete4"])
def test_reconstruct_larger_groups(G):
    rep = reconstruct(G)
    assert rep.coend_size == rep.expected_size == 2 ** len(G.arrows)


@pytest.mark.parametrize("G", [codiscrete(3), s3(), two_components()],
                         ids=["codiscrete3", "S3", "two_components"])
def test_reconstruct_never_builds_the_arrow_locale(monkeypatch, G):
    # with one object, R[*] has every arrow in its carrier, a tuple of its
    # own; with more, no carrier of the default site is the arrow set
    def guarded(X):
        if X is G.arrows or (len(G.objects) > 1
                             and frozenset(X) == frozenset(G.arrows)):
            raise AssertionError("P(arrows) was built")
        return power_locale(X)

    monkeypatch.setattr(galois, "power_locale", guarded)
    groupoid_to_hopf(G)
    reconstruct(G)


def test_hopf_repros_fail_under_python_O():
    # a wrong coend antipode and a wrong O(G) antipode must each stop the
    # check with asserts stripped
    proc = _run_python_O(
        "from finloc import galois\n"
        "from finloc.errors import KernelError\n"
        "from finloc.fixtures import z_mod\n"
        "gc = galois.GaloisCoend(galois.default_site(z_mod(3)))\n"
        "gc.antipode_gen = lambda gen: gen\n"
        "for check in (gc.verify_hopf, lambda: galois.reconstruct(z_mod(3))):\n"
        "    try:\n"
        "        check()\n"
        "    except KernelError as exc:\n"
        "        print(type(exc).__name__)\n"
        "    galois.GroupoidHopf.a = lambda self, U: U\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["Mismatch", "NoIsomorphismFound"]


@pytest.mark.parametrize("mutant, clause", [
    # representables acted on trivially: every other check still passes, but
    # no generator's transporter is the single arrow g0
    ("rep = galois.representable_action\n"
     "def fixed(G, o):\n"
     "    R = rep(G, o)\n"
     "    return galois.DiscreteAction(G, R.carrier, R.anchor,\n"
     "                                 {k: k[1] for k in R.act}, R.name)\n"
     "galois.representable_action = fixed\n",
     "phi is onto: the atom of each arrow fails at 'g0'"),
    # a copy of R[*] with no relation to the rest of the site: its free
    # generators are no joins of atoms (verify_hopf would see it first)
    ("site = galois.default_site\n"
     "def with_copy(G):\n"
     "    s = site(G)\n"
     "    R = s.objects['R[*]']\n"
     "    s.objects['C'] = galois.DiscreteAction(G, R.carrier, R.anchor,\n"
     "                                           R.act, 'C')\n"
     "    return s\n"
     "galois.default_site = with_copy\n"
     "galois.GaloisCoend.verify_hopf = lambda self: None\n",
     "each generator is the join of its arrows' atoms fails at ('C',"),
], ids=["ii", "iii"])
def test_atom_certificate_rejects_its_mutant_under_python_O(mutant, clause):
    proc = _run_python_O(
        "from finloc import galois\n"
        "from finloc.errors import NoIsomorphismFound\n"
        "from finloc.fixtures import z_mod\n"
        f"{mutant}"
        "try:\n"
        "    galois.reconstruct(z_mod(2))\n"
        "except NoIsomorphismFound as exc:\n"
        "    print(exc)\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(clause)
