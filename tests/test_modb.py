"""Module validation, duality data, the transpose, and the dual functor."""

import collections

import pytest

from etale_oracle import dense_etale_module
from finloc import modb
from finloc.errors import (
    DomainMismatch,
    KernelError,
    NotAModule,
    NotDualizable,
    TriangularFails,
)
from finloc.fixtures import CH3, P2, TWO
from finloc.lattice import (
    SupMorphism,
    all_locales,
    check_sup_morphism,
    join_failure,
    power_locale,
)
from finloc.modb import (
    BModule,
    DualityData,
    check_duality,
    check_module,
    dual_morphism,
    rho_of_lambda,
    transpose_roundtrip_ok,
)
from finloc.relation import dual_swap, graph, images, selfduality
from hx_oracle import dense_selfduality
from xd_oracle import dense_check


def test_self_action_is_module():
    for B in (TWO(), CH3(), P2()):
        assert check_module(B, B, B.meet) is None


def test_omega_modules_are_sup_lattices():
    for M in (TWO(), CH3(), P2()):
        BModule.omega_module(M)  # validates in the constructor


def test_broken_action_witnessed():
    B = TWO()
    M = P2()
    bad = check_module(B, M, lambda b, m: m)  # 0 . m should be bottom
    assert bad is not None and bad.kind == "b-slot bottom"
    with pytest.raises(NotAModule):
        BModule(B, M, lambda b, m: m)


def test_act_and_eps_outside_their_lattices_raise_domain_mismatch():
    B = P2()
    mod = BModule.self_module(B)
    d = DualityData(mod, mod, B.meet, ((B.top, B.top),))
    stranger = frozenset({3})
    for call in (lambda: mod.act(stranger, B.top), lambda: mod.act(B.top, stranger),
                 lambda: d.eps(stranger, B.top), lambda: d.eps(B.top, stranger)):
        with pytest.raises(DomainMismatch):
            call()


def test_unit_module_self_duality():
    for B in (TWO(), CH3(), P2()):
        mod = BModule.self_module(B)
        d = DualityData(mod, mod, B.meet, ((B.top, B.top),))
        check_duality(d)


def test_perturbed_eps_fails_triangular():
    B = P2()
    mod = BModule.self_module(B)
    # raise one evaluation: eps(bottom, bottom) = top breaks bilinearity,
    # so perturb a join-consistent way instead: eps = join (not the meet)
    d = DualityData(mod, mod, B.meet, ((frozenset({1}), frozenset({1})),))
    with pytest.raises(TriangularFails) as e:
        check_duality(d)
    assert e.value.side in ("left", "right")


def test_function_module_selfduality_matches_relation_module():
    # relation.selfduality already validates the triangles; spot-check eps
    H = TWO()
    d = selfduality(H, (0, 1))
    fl = d.module.lattice
    x0, x1 = fl.singleton(0), fl.singleton(1)
    assert d.eps(x0, x0) == H.top
    assert d.eps(x0, x1) == H.bottom


def test_transpose_unit_example():
    # M = N = L = B with lambda the meet: rho is the unit inclusion b -> b (x) 1
    B = CH3()
    mod = BModule.self_module(B)
    d = DualityData(mod, mod, B.meet, ((B.top, B.top),))
    rho = rho_of_lambda(lambda n, nhat: B.meet(n, nhat), mod, d)
    for b in B.elements:
        assert rho[b] == ((b, B.top),)
    assert transpose_roundtrip_ok(lambda n, nhat: B.meet(n, nhat), mod, mod, d)


def test_transpose_roundtrip_random_bilinear_maps():
    B = TWO()
    H = P2()
    mod = BModule.self_module(B)
    d = DualityData(mod, mod, B.meet, ((B.top, B.top),))
    Lmod = BModule.omega_module(H)
    # bilinear maps B x B -> H are determined by the value at (1, 1)
    for h in H.elements:
        def lam(n, nhat, h=h):
            return h if (n == 1 and nhat == 1) else H.bottom
        assert transpose_roundtrip_ok(lam, mod, Lmod, d)


def test_dual_morphism_identity_and_contravariance():
    H = TWO()
    dX = selfduality(H, (0, 1))
    fl = dX.module.lattice
    ident = SupMorphism(fl, fl, {t: t for t in fl.elements})
    assert dual_morphism(ident, dX, dX).table == ident.table

    # (g o f)^ = f^ o g^ on graph-induced morphisms
    f = {0: "a", 1: "a"}
    g = {"a": "z", "b": "z"}
    rf = graph(f, (0, 1), ("a", "b"))
    rg = graph(g, ("a", "b"), ("z",))
    dY = selfduality(H, ("a", "b"))
    dZ = selfduality(H, ("z",))
    df, _ = images(rf)
    dg, _ = images(rg)
    comp = df.then(dg)
    lhs = dual_morphism(comp, dX, dZ)
    rhs = dual_morphism(dg, dY, dZ).then(dual_morphism(df, dX, dY))
    assert lhs.table == rhs.table


def test_dual_morphism_is_transpose_inverse_image():
    # over Omega with M = Omega^X the dual of the direct image is the
    # inverse image (same content as relation.dual_swap)
    H = TWO()
    r = graph({0: "a", 1: "b"}, (0, 1), ("a", "b"))
    dX = selfduality(H, (0, 1))
    dY = selfduality(H, ("a", "b"))
    direct, inverse = images(r)
    assert dual_morphism(direct, dX, dY).table == inverse.table


def test_duals_unique_up_to_canonical_iso():
    # two duality data for the same module: the comparison is an iso
    # commuting with the evaluations
    B = TWO()
    d1 = dense_selfduality(B, (0, 1))
    fl = d1.module.lattice
    mod = d1.module
    # second duality: swap the roles of the two singletons
    swap = {fl.singleton(0): fl.singleton(1), fl.singleton(1): fl.singleton(0)}

    def sigma(t):  # the automorphism of TWO^X flipping coordinates
        return (t[1], t[0])

    eps2 = lambda m, n: d1.eps(m, sigma(n))
    eta2 = tuple((sigma(nhat), m) for nhat, m in d1.eta)
    d2 = DualityData(mod, mod, eps2, eta2)
    check_duality(d2)
    iso = dual_morphism(lambda m: m, d2, d1)  # the dual of the identity
    assert check_sup_morphism(iso) is None
    assert len(set(iso.table.values())) == len(fl)
    for m in fl.elements:
        for n in fl.elements:
            assert d1.eps(m, n) == d2.eps(m, iso(n))


def test_transpose_naturality_square():
    # naturality of the correspondence in N: precompose with a module map
    B = TWO()
    d = selfduality(B, (0,))
    M = d.module
    N = BModule.omega_module(P2())
    Np = BModule.omega_module(TWO())
    h = SupMorphism(Np.lattice, N.lattice,
                    {0: P2().bottom, 1: P2().top})

    def lam(n, nhat):
        # bilinear: evaluate membership of 1 scaled by the dual slot
        return B.meet(1 if 1 in n else 0, nhat[0])

    rho = rho_of_lambda(lam, N, d)
    lam_after = lambda n, nhat: lam(h(n), nhat)
    rho_after = rho_of_lambda(lam_after, Np, d)
    for n in Np.lattice.elements:
        assert rho_after[n] == rho[h(n)]


def test_transpose_roundtrip_on_groupoid_comodule():
    # the coaction of a discrete comodule, sent to its pairing and back
    from finloc.fixtures import z_mod
    from finloc.galois import etale_module, representable_action, transporter

    G = z_mod(2)
    act = representable_action(G, "*")
    B = power_locale(G.objects)
    # the pairing and coevaluation of the module on atoms, validated as
    # duality data on the dense oracle's module, which lists its elements
    _, dual = etale_module(B, act)
    mod, _ = dense_etale_module(B, act, dual.eps, dual.eta)
    L = power_locale(G.arrows)

    def left(b, U):
        return frozenset(g for g in U if G.target[g] in b)

    Lmod = BModule(mod.B, L, left)

    def lam(u, v):  # the bilinear extension of the transporter pairing
        out = frozenset()
        for x in u:
            for y in v:
                out |= transporter(act, y, x)
        return out

    d = DualityData(mod, mod, dual.eps, dual.eta)
    assert transpose_roundtrip_ok(lam, mod, Lmod, d)
    rho = rho_of_lambda(lam, mod, d)
    for x in act.carrier:
        got = {(l, m) for (l, m) in rho[frozenset({x})] if l}
        expected = {(transporter(act, y, x), frozenset({y}))
                    for y in act.carrier}
        assert got == expected


class BBimodule:
    """Left and right B-actions that commute, checked on every element: the
    dense oracle for the atom checks of `galois.verify_hopf_laws`."""

    def __init__(self, B, lattice, left, right):
        self.B = B
        self.lattice = lattice
        self.left_module = BModule(B, lattice, left)
        self.right_module = BModule(B, lattice, right)
        for b in B.elements:
            for b2 in B.elements:
                for m in lattice.elements:
                    lr = self.left_module.act(b, self.right_module.act(b2, m))
                    rl = self.right_module.act(b2, self.left_module.act(b, m))
                    if lr != rl:
                        raise NotAModule(
                            f"left and right actions do not commute at "
                            f"({b!r}, {b2!r}, {m!r})", witness=(b, b2, m))

    def act(self, b, b2, m):
        return self.left_module.act(b, self.right_module.act(b2, m))


def test_bimodule_commuting_actions():
    from finloc.fixtures import z_mod

    G = z_mod(2)
    L = power_locale(G.arrows)
    B = power_locale(G.objects)
    bb = BBimodule(
        B, L,
        left=lambda b, U: frozenset(g for g in U if G.target[g] in b),
        right=lambda b, U: frozenset(g for g in U if G.source[g] in b),
    )
    top = frozenset(G.arrows)
    assert bb.act(B.top, B.top, top) == top
    assert bb.act(B.bottom, B.top, top) == frozenset()


def test_bimodule_rejects_invalid_component_action():
    omega = TWO()
    M = P2()

    def left(b, m):
        return m if b == 1 else M.bottom

    def skew(b, m):  # not unital: collapses everything to one atom
        if b == 0:
            return M.bottom
        return frozenset({1}) if m else M.bottom

    with pytest.raises(NotAModule):
        BBimodule(omega, M, left, skew)


# -- the adjunction checks against the exhaustive oracles ----------------------
#
# The oracles are the all-pairs loops that DualityData._check_bilinear and
# check_module ran before they became adjunction tests on index tables.  Each
# law is a predicate on its witness, so that a reported witness can be
# confirmed as a genuine violation.  The eps oracles read a pairing: duality
# data, or a (module, dual, eps) triple that DualityData may refuse.

_Pairing = collections.namedtuple("_Pairing", "module dual eps")


def _module_laws(B, M, act):
    return {
        "m-slot bottom": lambda b: act(b, M.bottom) == M.bottom,
        "m-slot join": lambda b, m, m2:
            act(b, M.join(m, m2)) == M.join(act(b, m), act(b, m2)),
        "b-slot bottom": lambda m: act(B.bottom, m) == M.bottom,
        "unit": lambda m: act(B.top, m) == m,
        "b-slot join": lambda b, b2, m:
            act(B.join(b, b2), m) == M.join(act(b, m), act(b2, m)),
        "meet-composition": lambda b, b2, m:
            act(B.meet(b, b2), m) == act(b, act(b2, m)),
    }


def _module_oracle(B, M, action):
    """The first module law to fail in canonical order, as (kind, witness)."""
    act = action if callable(action) else lambda b, m: action[(b, m)]
    law = _module_laws(B, M, act)
    for b in B.elements:
        if not law["m-slot bottom"](b):
            return "m-slot bottom", (b,)
        for m in M.elements:
            for m2 in M.elements:
                if not law["m-slot join"](b, m, m2):
                    return "m-slot join", (b, m, m2)
    for m in M.elements:
        for kind in ("b-slot bottom", "unit"):
            if not law[kind](m):
                return kind, (m,)
        for b in B.elements:
            for b2 in B.elements:
                for kind in ("b-slot join", "meet-composition"):
                    if not law[kind](b, b2, m):
                        return kind, (b, b2, m)
    return None


def _eps_laws(d):
    B, M, N = d.module.B, d.module.lattice, d.dual.lattice
    eps = d.eps
    return {
        "bottom (first slot)": lambda n: eps(M.bottom, n) == B.bottom,
        "bottom (second slot)": lambda m: eps(m, N.bottom) == B.bottom,
        "join (first slot)": lambda m, m2, n:
            eps(M.join(m, m2), n) == B.join(eps(m, n), eps(m2, n)),
        "join (second slot)": lambda n, n2, m:
            eps(m, N.join(n, n2)) == B.join(eps(m, n), eps(m, n2)),
        "B-linear": lambda b, m, n:
            eps(d.module.act(b, m), n) == B.meet(b, eps(m, n)),
        "B-linear (dual slot)": lambda b, m, n:
            eps(m, d.dual.act(b, n)) == B.meet(b, eps(m, n)),
    }


def _bilinear_oracle(d):
    """The first bilinearity law of eps to fail in canonical order."""
    B, M, N = d.module.B, d.module.lattice, d.dual.lattice
    E = {(m, n): d.eps(m, n) for m in M.elements for n in N.elements}
    law = _eps_laws(d)
    for n in N.elements:
        if not law["bottom (first slot)"](n):
            return "bottom (first slot)", (n,)
    for m in M.elements:
        if not law["bottom (second slot)"](m):
            return "bottom (second slot)", (m,)
    for m in M.elements:
        for m2 in M.elements:
            j = M.join(m, m2)
            for n in N.elements:
                if E[(j, n)] != B.join(E[(m, n)], E[(m2, n)]):
                    return "join (first slot)", (m, m2, n)
    for n in N.elements:
        for n2 in N.elements:
            j = N.join(n, n2)
            for m in M.elements:
                if E[(m, j)] != B.join(E[(m, n)], E[(m, n2)]):
                    return "join (second slot)", (n, n2, m)
    for b in B.elements:
        for m in M.elements:
            for n in N.elements:
                for kind in ("B-linear", "B-linear (dual slot)"):
                    if not law[kind](b, m, n):
                        return kind, (b, m, n)
    return None


def _reported_law(d):
    """The law that the DualityData constructor reports broken for the
    pairing d, confirmed on its witness by the oracle's predicate; None when
    it accepts d."""
    try:
        DualityData(d.module, d.dual, d.eps, ())
    except NotDualizable as e:
        err = e
    else:
        return None
    msg = str(err)
    for kind in ("bottom (first slot)", "bottom (second slot)"):
        if msg == f"eps not linear at {kind}":
            return kind
    if msg.startswith("eps not join-linear at "):
        # both slots word the message alike: the violated law names the slot
        kinds = ("join (first slot)", "join (second slot)")
    else:
        kinds = ("B-linear (dual slot)" if "(dual slot)" in msg else "B-linear",)
    law = _eps_laws(d)
    broken = [k for k in kinds if not law[k](*err.witness)]
    assert broken, f"{msg}: the witness violates no such law"
    return broken[0]


def _reported_module_law(B, M, action):
    """check_module's verdict, its witness confirmed by the oracle's law."""
    bad = check_module(B, M, action)
    if bad is None:
        return None
    act = action if callable(action) else lambda b, m: action[(b, m)]
    assert not _module_laws(B, M, act)[bad.kind](*bad.witness), \
        f"{bad} is not a violation"
    return bad.kind


def _criterion_4_dualities():
    from finloc.sheaf import build_Xd, enumerate_sheaves, selfdual_Xd

    for H in (TWO(), CH3(), P2()):
        for n in range(4):
            yield dense_check(selfduality(H, tuple(range(n)), cap=256))
    for P in (TWO(), CH3(), P2()):
        for sheaf in enumerate_sheaves(P, 3):
            yield dense_check(selfdual_Xd(build_Xd(sheaf)))


def test_adjunction_checks_agree_with_oracles_on_criterion_4():
    count = 0
    for d in _criterion_4_dualities():
        assert _reported_law(d) is None and _bilinear_oracle(d) is None
        mod = d.module
        assert _reported_module_law(mod.B, mod.lattice, mod.act) is None
        assert _module_oracle(mod.B, mod.lattice, mod.act) is None
        count += 1
    assert count == 12 + 4 + 60 + 16


_SWAP = {frozenset(): frozenset(), frozenset({1}): frozenset({2}),
         frozenset({2}): frozenset({1}), frozenset({1, 2}): frozenset({1, 2})}


def _broken_top(x):  # fixes bottom, misses the join {1} v {2}
    return frozenset({1}) if x == frozenset({1, 2}) else x


@pytest.mark.parametrize("kind, eps", [
    ("bottom (first slot)", lambda m, n: n if n == frozenset({1, 2}) else m & n),
    ("bottom (second slot)", lambda m, n: m if m == frozenset({1, 2}) else m & n),
    ("join (first slot)", lambda m, n: _broken_top(m) & n),
    ("join (second slot)", lambda m, n: m & _broken_top(n)),
    ("B-linear", lambda m, n: _SWAP[m] & n),
    ("B-linear (dual slot)", lambda m, n: m & _SWAP[n]),
])
def test_broken_eps_rejected_with_a_genuine_witness(kind, eps):
    B = P2()
    mod = BModule.self_module(B)
    d = _Pairing(mod, mod, eps)
    assert _bilinear_oracle(d)[0] == kind
    assert _reported_law(d) == kind


def _scaled(g):  # the P2-action b . m = g(b) ^ m
    return lambda b, m: g[b] & m


_TOP = frozenset({1, 2})


@pytest.mark.parametrize("kind, B, action", [
    ("m-slot bottom", TWO, lambda b, m: _TOP if b == 1 and not m else m if b else frozenset()),
    ("m-slot join", TWO, lambda b, m: _broken_top(m) if b else frozenset()),
    ("b-slot bottom", TWO, lambda b, m: m),
    ("unit", TWO, lambda b, m: frozenset()),
    ("b-slot join", P2, _scaled({frozenset(): frozenset(), frozenset({1}): frozenset(),
                                frozenset({2}): frozenset(), _TOP: _TOP})),
    ("meet-composition", P2, _scaled({frozenset(): frozenset(), frozenset({1}): _TOP,
                                     frozenset({2}): _TOP, _TOP: _TOP})),
])
def test_broken_action_rejected_with_a_genuine_witness(kind, B, action):
    assert _module_oracle(B(), P2(), action)[0] == kind
    assert _reported_module_law(B(), P2(), action) == kind


@pytest.mark.parametrize("H, X", [(TWO, (0, 1)), (CH3, (0, 1)), (P2, (0,))])
def test_every_one_entry_perturbation_matches_oracle(H, X):
    # each entry of eps and of the action table, moved to each other value
    d0 = dense_check(selfduality(H(), X))
    B, M = d0.module.B, d0.module.lattice
    table = {(m, n): d0.eps(m, n) for m in M.elements for n in M.elements}
    for key, value in table.items():
        for other in B.elements:
            if other == value:
                continue
            t = {**table, key: other}
            d = _Pairing(d0.module, d0.dual, lambda m, n, t=t: t[(m, n)])
            want = _bilinear_oracle(d)
            assert _reported_law(d) == (want and want[0])
    act = {(b, m): d0.module.act(b, m) for b in B.elements for m in M.elements}
    for key, value in act.items():
        for other in M.elements:
            if other == value:
                continue
            a = {**act, key: other}
            want = _module_oracle(B, M, a)
            got = _reported_module_law(B, M, a)
            assert (got is None) == (want is None)


# -- the laws decided on join-irreducibles against the dense scans ------------
#
# The validators decide each law on join-irreducibles and fall back on the
# scan of every element to name a witness.  With `_irreducible_indices`
# replaced by every index they run that scan from the start, so a verdict
# can be compared with the one the scan of every element gives.


def _triangle_oracle(d):
    """The first element, M before N, where a triangular equation fails."""
    M, N = d.module.lattice, d.dual.lattice
    for m in M.elements:
        if M.join_all(d.module.act(d.eps(m, nh), m2) for nh, m2 in d.eta) != m:
            return "right", m
    for n in N.elements:
        if N.join_all(d.dual.act(d.eps(m2, n), nh) for nh, m2 in d.eta) != n:
            return "left", n
    return None


def _triangle_verdict(d):
    try:
        check_duality(d)
    except TriangularFails as e:
        return e.side, e.witness
    return None


def _eps_verdict(d):
    try:
        DualityData(d.module, d.dual, d.eps, ())
    except NotDualizable as e:
        return str(e), e.witness
    return None


def _scanned(monkeypatch, verdict, *args):
    """verdict(*args) with every law scanned on every element."""
    with monkeypatch.context() as m:
        m.setattr(modb, "_irreducible_indices", lambda L: range(len(L)))
        return verdict(*args)


def test_generator_checks_agree_with_oracles_on_non_boolean_bases():
    from finloc.sheaf import build_Xd, enumerate_sheaves, selfdual_Xd

    sizes = []
    for P in all_locales(4):
        for X in enumerate_sheaves(P, 2):
            d = dense_check(selfdual_Xd(build_Xd(X)))
            M = d.module.lattice
            assert _reported_module_law(P, M, d.module.act) is None
            assert _module_oracle(P, M, d.module.act) is None
            assert _reported_law(d) is None and _bilinear_oracle(d) is None
            assert _triangle_verdict(d) is None and _triangle_oracle(d) is None
            sizes.append(len(M))
    assert (len(sizes), sum(sizes)) == (71, 701)


def _ch3_Xd(size):
    """The dense DualityData of the maps of a CH3 sheaf's X_d."""
    from finloc.sheaf import build_Xd, enumerate_sheaves, selfdual_Xd

    X = next(X for X in enumerate_sheaves(CH3(), 3)
             if len(build_Xd(X).lattice) == size)
    return dense_check(selfdual_Xd(build_Xd(X)))


def test_one_entry_perturbations_of_an_Xd_match_the_dense_scan(monkeypatch):
    d0 = _ch3_Xd(12)
    B, M = d0.module.B, d0.module.lattice
    assert len(M.join_irreducibles()) < len(M) - 1
    table = {(m, n): d0.eps(m, n) for m in M.elements for n in M.elements}
    broken = 0
    for key, value in table.items():
        for other in B.elements:
            if other == value:
                continue
            t = {**table, key: other}
            d = _Pairing(d0.module, d0.dual, lambda m, n, t=t: t[(m, n)])
            got = _eps_verdict(d)
            assert got == _scanned(monkeypatch, _eps_verdict, d)
            want = _bilinear_oracle(d)
            assert _reported_law(d) == (want and want[0])
            broken += got is not None
    act = {(b, m): d0.module.act(b, m) for b in B.elements for m in M.elements}
    for key, value in act.items():
        for other in M.elements:
            if other == value:
                continue
            a = {**act, key: other}
            got = check_module(B, M, a)
            assert got == _scanned(monkeypatch, check_module, B, M, a)
            assert (got is None) == (_module_oracle(B, M, a) is None)
            broken += got is not None
    assert broken == 2 * len(table) + (len(M) - 1) * len(act)


def test_eta_missing_a_pair_fails_where_the_dense_scan_does():
    d0 = _ch3_Xd(12)
    failed = 0
    for k in range(len(d0.eta)):
        d = DualityData(d0.module, d0.dual, d0.eps, d0.eta[:k] + d0.eta[k + 1:])
        want = _triangle_oracle(d)
        if want is None:  # a pair below another one adds nothing
            check_duality(d)
            continue
        with pytest.raises(TriangularFails) as e:
            check_duality(d)
        assert (e.value.side, e.value.witness) == want
        failed += 1
    assert failed > 0


def test_generator_checks_run_few_join_tests(monkeypatch):
    # X_d's action and eps are unions over J-sections by construction, so
    # neither build_Xd nor selfdual_Xd tests join preservation
    from finloc import lattice
    from finloc.sheaf import build_Xd, enumerate_sheaves, selfdual_Xd

    X = next(X for X in enumerate_sheaves(CH3(), 3) if len(build_Xd(X).lattice) == 36)
    calls = []

    def counted(f, D, C):
        calls.append(len(f))
        return join_failure(f, D, C)

    monkeypatch.setattr(modb, "join_failure", counted)
    monkeypatch.setattr(lattice, "join_failure", counted)
    d = selfdual_Xd(build_Xd(X))
    M = d.lattice
    assert (len(M), len(M.join_irreducibles()), len(X.total())) == (36, 6, 7)
    assert calls == []


def test_a_law_failing_only_on_generators_is_a_kernel_error():
    def scan(*indices):  # a scan that fails on the irreducibles alone
        return None if isinstance(indices[0], range) else "broken"

    with pytest.raises(KernelError):
        modb._decided(scan, CH3())


# -- the J-module ----------------------------------------------------------------


def test_no_library_path_builds_a_dense_module(monkeypatch):
    # the étale modules, X_d and H^X are J-modules: with the dense route
    # refusing to run, reconstruct, the two self-dualities and dual_swap
    # still pass
    import sys

    from finloc.fixtures import z_mod
    from finloc.galois import reconstruct
    from finloc.sheaf import build_Xd, enumerate_sheaves, selfdual_Xd

    def refuse(*args, **kwargs):
        raise AssertionError("a library path took the dense modb route")

    for name in ("check_duality", "dual_value", "dual_morphism"):
        bound = getattr(modb, name)
        for mod in [m for n, m in sys.modules.items() if n.startswith("finloc")]:
            if getattr(mod, name, None) is bound:
                monkeypatch.setattr(mod, name, refuse)
    monkeypatch.setattr(modb.BModule, "__init__", refuse)
    monkeypatch.setattr(modb.DualityData, "__init__", refuse)
    assert reconstruct(z_mod(3)).coend_size == 8
    X = next(X for X in enumerate_sheaves(CH3(), 3) if len(X.total()) == 7)
    assert len(selfdual_Xd(build_Xd(X)).lattice) > 1
    assert len(selfduality(CH3(), (0, 1)).lattice) == 9
    assert dual_swap(graph({0: "a", 1: "a"}, (0, 1), ("a", "b")))


class _Masks(modb.JModule):
    """A J-module whose elements are its down-set masks."""

    def _mask(self, m):
        return m

    def _element(self, C):
        return C


def test_a_poset_that_is_no_discrete_fibration_is_no_module():
    # over the chain 0 < 1 < 2, an e over 2 needs one e' below it over 1
    B = CH3()
    for E, p, down in [
        (("x",), (2,), (0b1,)),  # nothing over 1 below x
        (("x", "y", "z"), (1, 1, 2), (0b001, 0b010, 0b111)),  # two over 1
        (("x",), (0,), (0b1,)),  # over the bottom, no join-irreducible
        (("x", "y"), (1, 2), (0b01, 0b01)),  # y outside its own down-set
    ]:
        with pytest.raises(NotAModule):
            _Masks(B, E, p, down)
    m = _Masks(B, ("x", "y"), (1, 2), (0b01, 0b11))
    m.check()
    assert m.relations == ((frozenset({"y"}), frozenset({"y", "x"})),)
    assert (m.act(1, 0b11), m.eps(0b11, 0b10), m.decompose(0b01)) == (0b01, 2, {"x"})
