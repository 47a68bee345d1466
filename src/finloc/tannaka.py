"""Cones over finite categories, cone extension from a dense subcategory,
compatibility, and the coend of a module-valued fiber functor with its
coalgebra structure, comodules and the lifting.

Categories are concrete here: objects carry finite sets, arrows are
functions, and relation-arrows are pair sets.  Cones assign one H-valued
table per object; the coend is a presented sup-lattice on triples
(object, generator, generator) with one relation per arrow instance.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from .errors import (
    InconsistentExtension,
    Mismatch,
    NoDuals,
    NotDense,
    ShapeMismatch,
)
from .lattice import FiniteLocale, FiniteSupLattice, check_carrier, two
from .modb import BModule, DualityData, JModule
from .present import JoinPresentation, PElement, PresentedSupLattice
from .relation import LRelation, check_diagram, tabulate


# -- concrete functor pairs and cones -----------------------------------------


@dataclass(frozen=True)
class Arrow:
    name: str
    src: str
    dst: str


class FunctorPair:
    """Two set-valued functors F, F' on one finite category.

    `maps` are the generating arrows; `F` / `Fp` give carriers per object and
    `Fmap` / `Fpmap` the functions per arrow.  `rels` lists relation-arrows
    with their images under both functors (used by the diamond cones).
    Product objects may be declared with pair carriers.
    """

    def __init__(self, objects, maps, F, Fmap, Fp=None, Fpmap=None,
                 rels=(), products=None, terminal=None):
        self.objects = tuple(objects)
        self.maps = tuple(maps)
        self.F = {o: tuple(F[o]) for o in self.objects}
        self.Fmap = {a.name: dict(Fmap[a.name]) for a in self.maps}
        self.Fp = self.F if Fp is None else {o: tuple(Fp[o]) for o in self.objects}
        self.Fpmap = (self.Fmap if Fpmap is None
                      else {a.name: dict(Fpmap[a.name]) for a in self.maps})
        self.rels = tuple(rels)  # (name, src, dst, F-pairs, Fp-pairs)
        self.products = dict(products or {})  # obj -> (left, right)
        self.terminal = terminal


class Cone:
    """A family of H-valued tables, one per object of the pair's category."""

    def __init__(self, fp: FunctorPair, H: FiniteSupLattice, tables: dict):
        self.fp = fp
        self.H = H
        self.tables = {}
        for o in fp.objects:
            if o not in tables:
                raise ShapeMismatch(f"cone missing a table for {o!r}")
            self.tables[o] = dict(tables[o])
        self._rel = {o: LRelation(H, fp.F[o], fp.Fp[o], self.tables[o])
                     for o in fp.objects}

    def relation(self, o) -> LRelation:
        return self._rel[o]


def check_cone(cone: Cone, kind: str):
    """Run the requested diagram over every arrow (or relation) of the site."""
    fp = cone.fp
    if kind == "diamond":
        for (name, src, dst, rF, rFp) in fp.rels:
            ok, w = check_diagram("diamond", (rF, rFp),
                                  cone.relation(src), cone.relation(dst))
            if not ok:
                return False, (name, w)
        for a in fp.maps:  # graphs of arrows are also relations of the site
            rF = {(x, fp.Fmap[a.name][x]) for x in fp.F[a.src]}
            rFp = {(y, fp.Fpmap[a.name][y]) for y in fp.Fp[a.src]}
            ok, w = check_diagram("diamond", (rF, rFp),
                                  cone.relation(a.src), cone.relation(a.dst))
            if not ok:
                return False, (a.name, w)
        return True, None
    for a in fp.maps:
        ok, w = check_diagram(kind, (fp.Fmap[a.name], fp.Fpmap[a.name]),
                              cone.relation(a.src), cone.relation(a.dst))
        if not ok:
            return False, (a.name, w)
    return True, None


def cone_of_family(fp: FunctorPair, family: dict) -> Cone:
    """The cone of graphs of a family of maps FX -> F'X over Omega."""
    omega = two()
    tables = {}
    for o in fp.objects:
        f = family[o]
        tables[o] = {(x, y): (1 if f[x] == y else 0)
                     for x in fp.F[o] for y in fp.Fp[o]}
    return Cone(fp, omega, tables)


def family_of_cone(cone: Cone) -> dict:
    """Tabulate each component; fails when some table is not a map graph."""
    return {o: tabulate(cone.relation(o)) for o in cone.fp.objects}


def is_natural(fp: FunctorPair, family: dict) -> bool:
    for a in fp.maps:
        for x in fp.F[a.src]:
            if family[a.dst][fp.Fmap[a.name][x]] \
                    != fp.Fpmap[a.name][family[a.src][x]]:
                return False
    return True


def extend_cone(cone: Cone, dense: tuple, kind: str) -> Cone:
    """Extend a cone given on a dense subcategory to every object.

    For each element of a missing object an arrow from the dense part must
    hit it; the extended value is forced by the corresponding diamond
    equation, and is recomputed over every admissible presentation.
    """
    fp, H = cone.fp, cone.H
    dense = tuple(dense)
    tables = {o: dict(cone.tables[o]) for o in dense}
    for X in fp.objects:
        if X in dense:
            continue
        into_x = [a for a in fp.maps if a.dst == X and a.src in dense]
        tables[X] = {}
        for a_el in fp.F[X]:
            for b_el in fp.Fp[X]:
                values = []
                if kind in ("diamond1", "diamond"):
                    for a in into_x:
                        for c in fp.F[a.src]:
                            if fp.Fmap[a.name][c] != a_el:
                                continue
                            values.append(H.join_all(
                                cone.tables[a.src][(c, y)]
                                for y in fp.Fp[a.src]
                                if fp.Fpmap[a.name][y] == b_el
                            ))
                if kind in ("diamond2", "diamond"):
                    for a in into_x:
                        for c in fp.Fp[a.src]:
                            if fp.Fpmap[a.name][c] != b_el:
                                continue
                            values.append(H.join_all(
                                cone.tables[a.src][(y, c)]
                                for y in fp.F[a.src]
                                if fp.Fmap[a.name][y] == a_el
                            ))
                if not values:
                    raise NotDense(
                        f"no arrow from the dense part reaches ({a_el!r}, {b_el!r}) "
                        f"in {X!r}")
                if len(set(values)) != 1:
                    raise InconsistentExtension(
                        f"extension at {X!r} disagrees across presentations",
                        witness=(X, a_el, b_el, tuple(values)))
                tables[X][(a_el, b_el)] = values[0]
    ext = Cone(fp, H, tables)
    ok, w = check_cone(ext, kind if kind != "diamond" else "diamond")
    if not ok:
        raise InconsistentExtension(f"extended family is not a cone at {w!r}",
                                    witness=w)
    return ext


def check_compatible(cone: Cone):
    """[C1] product tables factor through the meet of H, [C2] the terminal
    table is the top of H."""
    fp, H = cone.fp, cone.H
    for obj, (lo, ro) in fp.products.items():
        for (a, b) in fp.F[obj]:
            for (a2, b2) in fp.Fp[obj]:
                lhs = H.meet(cone.tables[lo][(a, a2)], cone.tables[ro][(b, b2)])
                if lhs != cone.tables[obj][((a, b), (a2, b2))]:
                    return False, ("C1", obj, (a, b), (a2, b2))
    if fp.terminal is not None:
        t = fp.terminal
        for x in fp.F[t]:
            for y in fp.Fp[t]:
                if cone.tables[t][(x, y)] != H.top:
                    return False, ("C2", x, y)
    return True, None


# -- module-valued fiber functors and the coend --------------------------------


@dataclass
class CoendObject:
    name: str
    module: BModule | JModule
    duality: DualityData | JModule
    gmodule: BModule | JModule | None = None  # the second functor's; defaults to F's

    def __post_init__(self):
        if self.gmodule is None:
            self.gmodule = self.module


@dataclass
class CoendArrow:
    name: str
    src: str
    dst: str
    # F's value, a join-preserving map M -> N, and its dual N^ -> M^, which
    # Coend calls only on generator values of the target and trusts to be
    # the dual: eps_N(morphism(m), n) = eps_M(m, dual(n)) for all m and n
    morphism: Callable
    dual: Callable


class Coend:
    """End^(T): the universal diamond-cone target of a fiber functor.

    Presented on generators (object, m-generator, n-generator) with one
    relation per arrow instance; the injections, cocomposition and counit
    are computed on generators.
    """

    def __init__(self, B: FiniteLocale, objects, arrows):
        self.B = B
        self.objects = {o.name: o for o in objects}
        self.arrows = tuple(arrows)
        for o in objects:
            if o.duality is None:
                raise NoDuals(f"object {o.name!r} carries no duality data")
        gens = []
        for o in objects:
            for g1 in o.module.presentation.gens:
                for g2 in o.gmodule.presentation.gens:
                    gens.append((o.name, g1, g2))
        rels = []
        for o in objects:
            pres, gpres = o.module.presentation, o.gmodule.presentation
            for s, t in pres.relations:
                for g in gpres.gens:
                    rels.append((frozenset((o.name, x, g) for x in s),
                                 frozenset((o.name, x, g) for x in t)))
            for s, t in gpres.relations:
                for g in pres.gens:
                    rels.append((frozenset((o.name, g, x) for x in s),
                                 frozenset((o.name, g, x) for x in t)))
        for f in self.arrows:
            src, dst = self.objects[f.src], self.objects[f.dst]
            psrc, pdst = src.module.presentation, dst.gmodule.presentation
            gsrc = src.gmodule.presentation
            fb_dec = {b: gsrc.decompose(f.dual(pdst.value[b])) for b in pdst.gens}
            for a in psrc.gens:
                fa = f.morphism(psrc.value[a])
                fa_dec = dst.module.presentation.decompose(fa)
                for b in pdst.gens:
                    rels.append((
                        frozenset((f.src, a, a2) for a2 in fb_dec[b]),
                        frozenset((f.dst, b2, b) for b2 in fa_dec),
                    ))
        self.quotient = PresentedSupLattice(
            JoinPresentation(tuple(gens), tuple(rels)))
        self._cocomposed = {}

    def inject(self, obj: str, m, n) -> PElement:
        """lambda_C(m (x) n) for module elements m, n."""
        o = self.objects[obj]
        return self.quotient.element(
            (obj, g1, g2)
            for g1 in o.module.presentation.decompose(m)
            for g2 in o.gmodule.presentation.decompose(n)
        )

    def lattice(self) -> FiniteSupLattice:
        return self.quotient.lattice()

    # cogebroide structure ---------------------------------------------------

    def cocompose(self, gen) -> frozenset:
        """c on a generator, as a formal set of generator pairs in L (x)_B L,
        computed from eta on the first call for each generator."""
        out = self._cocomposed.get(gen)
        if out is None:
            obj, a, b = gen
            o = self.objects[obj]
            pres = o.module.presentation
            out = self._cocomposed[gen] = frozenset(
                ((obj, a, u), (obj, v, b))
                for nhat, m2 in o.duality.eta
                for u in pres.decompose(nhat)
                for v in pres.decompose(m2))
        return out

    def counit(self, gen):
        obj, a, b = gen
        o = self.objects[obj]
        pres = o.module.presentation
        return o.duality.eps(pres.value[a], pres.value[b])

    def act(self, b_left, b_right, gen) -> frozenset:
        """The B (x) B action on a generator, as a set of generators."""
        obj, a, c = gen
        o = self.objects[obj]
        pres = o.module.presentation
        left = pres.decompose(o.module.act(b_left, pres.value[a]))
        right = pres.decompose(o.duality.dual.act(b_right, pres.value[c]))
        return frozenset((obj, x, y) for x in left for y in right)

    def check_cogebroide(self) -> None:
        """Counit laws and coassociativity on every generator."""
        for gen in self.quotient.gens:
            pairs = self.cocompose(gen)
            left = set()
            for g1, g2 in pairs:
                e = self.counit(g1)
                left |= self.act(e, self.B.top, g2)
            if self.quotient.element(left) != self.quotient.gen_class(gen):
                raise Mismatch(f"left counit law fails at {gen!r}")
            right = set()
            for g1, g2 in pairs:
                e = self.counit(g2)
                right |= self.act(self.B.top, e, g1)
            if self.quotient.element(right) != self.quotient.gen_class(gen):
                raise Mismatch(f"right counit law fails at {gen!r}")
            lhs = {(h1, h2, g2) for g1, g2 in pairs
                   for h1, h2 in self.cocompose(g1)}
            rhs = {(g1, h1, h2) for g1, g2 in pairs
                   for h1, h2 in self.cocompose(g2)}
            if not tensor_equal((self.quotient.closure,) * 3, lhs, rhs):
                raise Mismatch(f"coassociativity fails at {gen!r}")

    # coevaluation and comodules ---------------------------------------------

    def coaction(self, obj: str) -> dict:
        """The lifting coaction on each generator of T(obj): formal pairs
        (coend generator set, module element)."""
        o = self.objects[obj]
        pres = o.module.presentation
        out = {}
        for g in pres.gens:
            pairs = []
            for nhat, m2 in o.duality.eta:
                lam = self.inject(obj, pres.value[g], nhat)
                pairs.append((lam, m2))
            out[g] = tuple(pairs)
        return out


# -- comodules over a coend (generic, formal representation) -------------------


def tensor_equal(closes, lhs, rhs) -> bool:
    """Equality of two formal sums of generator tuples in a tensor product.

    Tensor equations between formal sums (coassociativity in L (x) L (x) L,
    the comodule law in L (x) L (x) M, comodule morphisms in L (x) M) are
    all decided here, by one slotwise closure in the tensor presentation.
    `closes` holds one closure function per slot: `L.quotient.closure` for a
    coend slot, the generators below the join of the values for a module
    slot.  Tuples with a component in its slot's zero class are dropped;
    both sides are then saturated by closing every slot with the other slots
    held fixed until nothing changes, and the saturations are compared.
    """
    if lhs == rhs:
        return True
    zeros = [close(()) for close in closes]

    def saturate(tuples):
        current = {t for t in tuples
                   if not any(x in z for x, z in zip(t, zeros))}
        changed = True
        while changed:
            changed = False
            for i, close in enumerate(closes):
                groups = {}
                for t in current:
                    groups.setdefault(t[:i] + t[i + 1:], set()).add(t[i])
                for rest, xs in groups.items():
                    for x in close(xs):
                        t = rest[:i] + (x,) + rest[i:]
                        if t not in current:
                            current.add(t)
                            changed = True
        return current

    return saturate(lhs) == saturate(rhs)


def _module_closure(M: BModule):
    pres = M.presentation
    return lambda gens: pres.decompose(
        M.lattice.join_all(pres.value[g] for g in gens))


def comodule_holds(L: Coend, obj_module: BModule, rho: dict) -> bool:
    """C1 and C2 for a coaction given on module generators as formal pairs
    (PElement of L, module element)."""
    pres = obj_module.presentation
    if not _counit_law(L.B, obj_module, rho, L.counit):
        return False
    closes = (L.quotient.closure, L.quotient.closure,
              _module_closure(obj_module))
    for g in pres.gens:
        lhs = set()
        for lam, m in rho[g]:
            for g1, g2 in _cocompose_element(L, lam):
                for mg in pres.decompose(m):
                    lhs.add((g1, g2, mg))
        rhs = set()
        for lam, m in rho[g]:
            for mg in pres.decompose(m):
                for lam2, m2 in rho[mg]:
                    for l1 in lam.raw:
                        for l2 in lam2.raw:
                            for mg2 in pres.decompose(m2):
                                rhs.add((l1, l2, mg2))
        if not tensor_equal(closes, lhs, rhs):
            return False
    return True


def _cocompose_element(L: Coend, lam: PElement):
    out = set()
    for g in lam.raw:
        out |= L.cocompose(g)
    return out


def _counit_law(B, module: BModule, rho: dict, counit) -> bool:
    """C2 for the counit given on coend generators: acting on each term of
    rho(g) by its counit value and joining gives g back."""
    pres = module.presentation
    for g in pres.gens:
        back = module.lattice.join_all(
            module.act(B.join_all(counit(x) for x in lam.raw), m)
            for lam, m in rho[g])
        if back != pres.value[g]:
            return False
    return True


def lifting(L: Coend) -> dict:
    """The lifting of the fiber functor: a verified coaction per object,
    with every arrow a comodule morphism."""
    coactions = {}
    for name, o in L.objects.items():
        rho = L.coaction(name)
        if not comodule_holds(L, o.module, rho):
            raise Mismatch(f"lifting coaction on {name!r} is not a comodule")
        coactions[name] = rho
    for f in L.arrows:
        src, dst = L.objects[f.src], L.objects[f.dst]
        psrc, pdst = src.module.presentation, dst.module.presentation
        for g in psrc.gens:
            lhs = set()
            for lam, m in coactions[f.src][g]:
                for l1 in lam.raw:
                    for mg in pdst.decompose(f.morphism(m)):
                        lhs.add((l1, mg))
            rhs = set()
            for mg in pdst.decompose(f.morphism(psrc.value[g])):
                for lam, m in coactions[f.dst][mg]:
                    for l1 in lam.raw:
                        for m2 in pdst.decompose(m):
                            rhs.add((l1, m2))
            if not tensor_equal((L.quotient.closure,
                                 _module_closure(dst.module)), lhs, rhs):
                raise Mismatch(f"arrow {f.name!r} is not a comodule morphism")
    return coactions


def unique_cogebroide(L: Coend) -> bool:
    """Perturbation search on the counit: no counit that differs from
    `L.counit` on exactly one generator keeps C2 for every lifting coaction.
    The cocomposition is not perturbed.  Raises SizeBound before the search
    when its generator-by-value candidates exceed the carrier bound."""
    check_carrier(len(L.quotient.gens) * len(L.B),
                  "the counit perturbation search")
    coactions = [(o.module, L.coaction(name)) for name, o in L.objects.items()]
    for gen in L.quotient.gens:
        for e_val in L.B.elements:
            if e_val == L.counit(gen):
                continue

            def counit(g):
                return e_val if g == gen else L.counit(g)

            if all(_counit_law(L.B, module, rho, counit)
                   for module, rho in coactions):
                return False
    return True
