"""Generic coend construction on the small fixture categories."""

from dataclasses import replace

import pytest

from finloc import tannaka
from finloc.errors import Mismatch, SizeBound
from finloc.fixtures import TWO, codiscrete, z_mod
from finloc.galois import GaloisCoend, default_site
from finloc.lattice import SupMorphism, power_locale
from finloc.modb import BModule, DualityData, check_duality, dual_value
from finloc.tannaka import (
    Coend,
    CoendArrow,
    CoendObject,
    comodule_holds,
    lifting,
    tensor_equal,
    unique_cogebroide,
)


def _wedge(B, objects, arrows) -> Coend:
    L = Coend(B, objects, arrows)
    L.check_cogebroide()
    return L


def _self_dual_base(B):
    mod = BModule.self_module(B)
    return CoendObject("C", mod, DualityData(mod, mod, B.meet, ((B.top, B.top),)))


def test_coend_trivial_category_is_base():
    B = TWO()
    L = _wedge(B, [_self_dual_base(B)], [])
    assert len(L.lattice()) == 2


def test_coend_two_discrete_objects():
    B = TWO()
    mod = BModule.self_module(B)
    d = DualityData(mod, mod, B.meet, ((B.top, B.top),))
    objs = [CoendObject("C", mod, d), CoendObject("D", mod, d)]
    L = _wedge(B, objs, [])
    assert len(L.lattice()) == 4


def _powerset_duality(points):
    P = power_locale(points)
    mod = BModule.omega_module(P)

    def eps(u, v):
        return 1 if u & v else 0

    eta = tuple((frozenset({x}), frozenset({x})) for x in points)
    d = DualityData(mod, mod, eps, eta)
    check_duality(d)
    return mod, d


def _z2_coend():
    # the regular Z/2-set with all four invariant endorelations as arrows
    mod, d = _powerset_duality(("e", "s"))
    P = mod.lattice
    obj = CoendObject("G", mod, d)

    def rel_morphism(pairs):
        table = {u: frozenset(y for (x, y) in pairs if x in u)
                 for u in P.elements}
        return SupMorphism(P, P, table)

    idr = rel_morphism({("e", "e"), ("s", "s")})
    swap = rel_morphism({("e", "s"), ("s", "e")})
    full = rel_morphism({("e", "e"), ("s", "s"), ("e", "s"), ("s", "e")})
    arrows = [CoendArrow(name, "G", "G", f,
                         lambda n, f=f: dual_value(f, d, d, n))
              for name, f in (("id", idr), ("swap", swap), ("full", full))]
    return _wedge(TWO(), [obj], arrows), mod


def test_coend_z2_one_object_site():
    L, _ = _z2_coend()
    lat = L.lattice()
    assert len(lat) == 4
    # the coend atoms are [a, b] with b the transporter target: the two
    # distinct atoms correspond to the two group elements
    g_e = L.inject("G", frozenset({"e"}), frozenset({"e"}))
    g_s = L.inject("G", frozenset({"e"}), frozenset({"s"}))
    assert g_e != g_s
    assert g_e == L.inject("G", frozenset({"s"}), frozenset({"s"}))
    assert g_s == L.inject("G", frozenset({"s"}), frozenset({"e"}))
    coactions = lifting(L)
    assert set(coactions) == {"G"}
    assert unique_cogebroide(L)


def test_unique_cogebroide_out_of_budget_raises(monkeypatch):
    L, _ = _z2_coend()
    monkeypatch.setattr("finloc.lattice.MAX_CARRIER", 0)
    with pytest.raises(SizeBound):
        unique_cogebroide(L)


def test_check_cogebroide_rejects_a_broken_eta():
    # eta without the point "s" is no coevaluation; the coend is built from
    # it before cocompose is first called, and every call answers from it
    P = power_locale(("e", "s"))
    mod = BModule.omega_module(P)
    eta = ((frozenset({"e"}), frozenset({"e"})),)
    d = DualityData(mod, mod, lambda u, v: 1 if u & v else 0, eta)
    L = Coend(TWO(), [CoendObject("G", mod, d)], [])
    for _ in range(2):  # the second pass reads the cached values
        with pytest.raises(Mismatch, match="counit law fails"):
            L.check_cogebroide()
    gen = L.quotient.gens[0]
    assert L.cocompose(gen) is L.cocompose(gen)


def _record_tensor_equal(monkeypatch):
    """Replace tannaka.tensor_equal by a wrapper that records, per call,
    whether the two sums were equal as sets and what it returned."""
    calls = []

    def spy(closes, lhs, rhs):
        calls.append((lhs == rhs, tensor_equal(closes, lhs, rhs)))
        return calls[-1][1]

    monkeypatch.setattr(tannaka, "tensor_equal", spy)
    return calls


def test_comodule_law_on_padded_coaction_takes_closure_path(monkeypatch):
    # padding every coend class to its whole closure names the same coaction
    # by different formal sums, so C1 must be decided by closure
    L, mod = _z2_coend()
    rho = {g: tuple((L.quotient.element(lam.closure), m) for lam, m in pairs)
           for g, pairs in L.coaction("G").items()}
    calls = _record_tensor_equal(monkeypatch)
    assert comodule_holds(L, mod, rho)
    assert calls and all(not same and ok for same, ok in calls)


def test_comodule_law_fails_at_coassociativity(monkeypatch):
    # the zero class in place of [e, s] keeps the counit law (the counit of
    # [e, s] is already 0) and breaks coassociativity
    L, mod = _z2_coend()
    rho = L.coaction("G")
    e = frozenset({"e"})
    (lam, m), (_, m2) = rho[e]
    rho[e] = ((lam, m), (L.quotient.bottom, m2))
    calls = _record_tensor_equal(monkeypatch)
    assert not comodule_holds(L, mod, rho)
    assert calls[-1] == (False, False)  # C2 passed on every generator


def test_tensor_equal_closes_the_middle_slot():
    # [e, e] = [s, s] in the coend, so the two sums differ only by a closure
    # of the middle slot
    L, _ = _z2_coend()
    q = L.quotient
    ee, es, ss = (("G", frozenset({a}), frozenset({b}))
                  for a, b in ("ee", "es", "ss"))
    assert ss in q.closure((ee,))
    closes = (q.closure,) * 3
    assert tensor_equal(closes, {(es, ee, es)}, {(es, ee, es), (es, ss, es)})
    assert not tensor_equal(closes, {(es, ee, es)}, {(es, es, es)})


def test_nat_predual_with_distinct_functors():
    # one object, F = Omega self-module, G = the two-element powerset:
    # the predual is the plain tensor of the two carriers
    B = TWO()
    fmod = BModule.self_module(B)
    fdual = DualityData(fmod, fmod, B.meet, ((B.top, B.top),))
    gmod, _ = _powerset_duality(("p", "q"))
    obj = CoendObject("C", fmod, fdual, gmodule=gmod)
    L = Coend(TWO(), [obj], [])
    assert len(L.lattice()) == 4  # Omega (x) P(2)^ has the four pair-classes


def test_coend_requires_duality_data():
    from finloc.errors import NoDuals

    B = TWO()
    mod = BModule.self_module(B)
    with pytest.raises(NoDuals):
        Coend(B, [CoendObject("C", mod, None)], [])


@pytest.mark.parametrize("coend", [
    lambda: _z2_coend()[0],
    lambda: GaloisCoend(default_site(z_mod(3))).coend,
    lambda: GaloisCoend(default_site(codiscrete(2))).coend,
], ids=["Z2-endorelations", "Z3", "codiscrete2"])
def test_coend_reads_each_dual_only_at_generators(monkeypatch, coend):
    # an arrow's dual is asked for once per generator of its target, at that
    # generator's value, and at no other element of the target's carrier
    calls = []
    init = Coend.__init__

    def spied(self, B, objects, arrows):
        def spy(f):
            def dual(n):
                calls.append((f, n))
                return f.dual(n)
            return dual

        init(self, B, objects, [replace(f, dual=spy(f)) for f in arrows])

    monkeypatch.setattr(Coend, "__init__", spied)
    L = coend()
    for f, n in calls:
        assert n in L.objects[f.dst].gmodule.presentation.value.values()
    assert len(calls) == sum(len(L.objects[f.dst].gmodule.presentation.gens)
                             for f in L.arrows) > 0
