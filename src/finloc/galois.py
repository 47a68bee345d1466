"""Finite groupoids, their discrete actions, the action/comodule
correspondence, the relation category of actions, and reconstruction of the
groupoid from its action category via the coend of the fiber functor.

Everything here is over powerset bases: the base locale is P(objects), the
arrow locale is P(arrows), and the module of an action with carrier Y is
P(Y).  The transporter convention is fixed by the comultiplication chase:
mu(dx (x) dy) = { g : g . y = x }, so that c(mu(x, w)) expands through the
middle as mu(x, y) (x) mu(y, w).
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from .errors import (
    AnchorMismatch,
    DomainMismatch,
    InconsistentExtension,
    Mismatch,
    NoIsomorphismFound,
    NotACone,
    NotAGroupoid,
    NotAModule,
    NotAnAction,
    NotBijection,
    NotDense,
    RelationViolated,
)
from .lattice import (
    FiniteLocale,
    PowerLocale,
    SupMorphism,
    check_carrier,
    check_locale_morphism,
    locale_morphisms,
    power_locale,
)
from .modb import JModule
from .present import check_relations, induced_morphism
from .relation import AxiomReport, table_axioms
from .tannaka import Coend, CoendArrow, CoendObject


class FiniteGroupoid:
    """Objects, arrows, source/target, units, composition, inverses."""

    def __init__(self, objects, arrows, source, target, unit, compose, inverse):
        self.objects = tuple(objects)
        self.arrows = tuple(arrows)
        self.source = dict(source)
        self.target = dict(target)
        self.unit = dict(unit)
        self.compose = dict(compose)
        self.inverse = dict(inverse)
        self._validate()
        # the arrows out of and into each object, in arrow order, built once
        self._from = {o: tuple(g for g in self.arrows if self.source[g] == o)
                      for o in {self.source[g] for g in self.arrows}}
        self._into = {o: tuple(g for g in self.arrows if self.target[g] == o)
                      for o in {self.target[g] for g in self.arrows}}

    def comp(self, f, g):
        """f after g, defined when source(f) = target(g)."""
        return self.compose[(f, g)]

    def arrows_from(self, o):
        return self._from.get(o, ())

    def arrows_into(self, o):
        return self._into.get(o, ())

    def _validate(self):
        for o in self.objects:
            i = self.unit.get(o)
            if i is None or i not in set(self.arrows) \
                    or self.source[i] != o or self.target[i] != o:
                raise NotAGroupoid(f"unit of {o!r} missing or not an endo-arrow",
                                   witness=o)
        for f in self.arrows:
            for g in self.arrows:
                defined = (f, g) in self.compose
                if defined != (self.source[f] == self.target[g]):
                    raise NotAGroupoid(f"composition domain wrong at ({f!r}, {g!r})",
                                       witness=(f, g))
                if defined:
                    h = self.compose[(f, g)]
                    if self.source[h] != self.source[g] or \
                            self.target[h] != self.target[f]:
                        raise NotAGroupoid("composite endpoints wrong",
                                           witness=(f, g))
        for g in self.arrows:
            if self.comp(g, self.unit[self.source[g]]) != g or \
                    self.comp(self.unit[self.target[g]], g) != g:
                raise NotAGroupoid(f"unit law fails at {g!r}", witness=g)
            gi = self.inverse[g]
            if self.comp(g, gi) != self.unit[self.target[g]] or \
                    self.comp(gi, g) != self.unit[self.source[g]]:
                raise NotAGroupoid(f"inverse law fails at {g!r}", witness=g)
        for f in self.arrows:
            for g in self.arrows:
                if (f, g) not in self.compose:
                    continue
                for h in self.arrows:
                    if (g, h) not in self.compose:
                        continue
                    if self.comp(self.comp(f, g), h) != self.comp(f, self.comp(g, h)):
                        raise NotAGroupoid("associativity fails",
                                           witness=(f, g, h))

    def __repr__(self):
        return f"<FiniteGroupoid {len(self.objects)} objects, {len(self.arrows)} arrows>"


class DiscreteAction:
    """An anchored finite set with a groupoid action on its stalks."""

    def __init__(self, groupoid: FiniteGroupoid, carrier, anchor: dict,
                 act: dict, name: str = ""):
        self.groupoid = groupoid
        self.carrier = tuple(carrier)
        self.anchor = dict(anchor)
        self.act = dict(act)
        self.name = name
        self._mu = None  # transporter table, built by action_mu
        self._homs = {}  # other action -> _HomSpace, by _hom_space
        self._validate()

    def apply(self, g, x):
        return self.act[(g, x)]

    def stalk(self, o):
        return tuple(x for x in self.carrier if self.anchor[x] == o)

    def _validate(self):
        G = self.groupoid
        for x in self.carrier:
            if self.anchor[x] not in G.objects:
                raise AnchorMismatch(f"anchor of {x!r} is not an object", witness=x)
        for g in G.arrows:
            for x in self.carrier:
                defined = (g, x) in self.act
                if defined != (G.source[g] == self.anchor[x]):
                    raise NotAnAction(f"action domain wrong at ({g!r}, {x!r})",
                                      witness=(g, x))
                if defined:
                    y = self.act[(g, x)]
                    if self.anchor[y] != G.target[g]:
                        raise NotAnAction("action does not track the anchor",
                                          witness=(g, x))
        for x in self.carrier:
            if self.apply(G.unit[self.anchor[x]], x) != x:
                raise NotAnAction(f"unit acts nontrivially on {x!r}", witness=x)
        stalks = {o: [] for o in G.objects}  # each stalk once, in carrier order
        for x in self.carrier:
            stalks[self.anchor[x]].append(x)
        for f in G.arrows:
            for g in G.arrows:
                if (f, g) not in G.compose:
                    continue
                for x in stalks[G.source[g]]:
                    if self.apply(G.comp(f, g), x) != self.apply(f, self.apply(g, x)):
                        raise NotAnAction("action not compatible with composition",
                                          witness=(f, g, x))

    def __repr__(self):
        return f"<DiscreteAction {self.name or id(self)} on {len(self.carrier)}>"


def representable_action(G: FiniteGroupoid, o) -> DiscreteAction:
    """Arrows out of o, anchored at their target, acted by post-composition."""
    carrier = G.arrows_from(o)
    return DiscreteAction(
        G, carrier,
        {g: G.target[g] for g in carrier},
        {(h, g): G.comp(h, g) for g in carrier for h in G.arrows
         if G.source[h] == G.target[g]},
        name=f"R[{o}]",
    )


def terminal_action(G: FiniteGroupoid) -> DiscreteAction:
    return DiscreteAction(
        G, G.objects, {o: o for o in G.objects},
        {(g, o): G.target[g] for g in G.arrows for o in G.objects
         if G.source[g] == o},
        name="1",
    )


def product_action(A: DiscreteAction, B: DiscreteAction) -> DiscreteAction:
    """The fiber product over the objects, with the diagonal action."""
    G = A.groupoid
    carrier = tuple((x, y) for x in A.carrier for y in B.carrier
                    if A.anchor[x] == B.anchor[y])
    return DiscreteAction(
        G, carrier,
        {(x, y): A.anchor[x] for (x, y) in carrier},
        {(g, (x, y)): (A.apply(g, x), B.apply(g, y))
         for (x, y) in carrier for g in G.arrows
         if G.source[g] == A.anchor[x]},
        name=f"({A.name}x{B.name})",
    )


def disjoint_union(A: DiscreteAction, B: DiscreteAction) -> DiscreteAction:
    G = A.groupoid
    carrier = tuple((0, x) for x in A.carrier) + tuple((1, y) for y in B.carrier)
    anchor = {(0, x): A.anchor[x] for x in A.carrier}
    anchor.update({(1, y): B.anchor[y] for y in B.carrier})
    act = {(g, (0, x)): (0, A.apply(g, x))
           for x in A.carrier for g in G.arrows if G.source[g] == A.anchor[x]}
    act.update({(g, (1, y)): (1, B.apply(g, y))
                for y in B.carrier for g in G.arrows
                if G.source[g] == B.anchor[y]})
    return DiscreteAction(G, carrier, anchor, act,
                          name=f"({A.name}+{B.name})")


def transporter(act: DiscreteAction, y, x) -> frozenset:
    """{ g : g . y = x }; the mu-value on (delta_x, delta_y)."""
    G = act.groupoid
    return frozenset(g for g in G.arrows_from(act.anchor[y])
                     if act.apply(g, y) == x)


def action_mu(act: DiscreteAction) -> Mapping:
    """The transporter table (x, y) -> transporter(act, y, x), built once per
    action and shared read-only."""
    if act._mu is None:
        act._mu = MappingProxyType({(x, y): transporter(act, y, x)
                                    for x in act.carrier for y in act.carrier})
    return act._mu


# -- the concrete Hopf algebroid of a groupoid ---------------------------------


@dataclass
class GroupoidHopf:
    """O(G) as maps on frozensets of arrows, with no P(arrows) lattice."""

    groupoid: FiniteGroupoid
    B: PowerLocale
    composable: tuple = field(repr=False)
    parallel: tuple = field(repr=False)

    def s(self, b):
        return frozenset(g for g in self.groupoid.arrows
                         if self.groupoid.source[g] in b)

    def t(self, b):
        return frozenset(g for g in self.groupoid.arrows
                         if self.groupoid.target[g] in b)

    def e(self, U):
        return frozenset(o for o in self.groupoid.objects
                         if self.groupoid.unit[o] in U)

    def c(self, U):
        return frozenset(p for p in self.composable
                         if self.groupoid.comp(*p) in U)

    def m(self, S):
        """Multiplication on the balanced pair powerset: the diagonal."""
        return frozenset(f for (f, g) in S if f == g)

    def u(self, S):
        """Unit: object-pair atoms (o, o') name the arrows o' -> o."""
        return frozenset(g for g in self.groupoid.arrows
                         if (self.groupoid.target[g], self.groupoid.source[g]) in S)

    def a(self, U):
        return frozenset(self.groupoid.inverse[g] for g in U)

    def left(self, b, U):  # action through the target map
        return self.t(b) & U

    def right(self, b, U):  # action through the source map
        return self.s(b) & U


def groupoid_to_hopf(G: FiniteGroupoid) -> GroupoidHopf:
    B = power_locale(G.objects)
    composable = tuple((f, g) for f in G.arrows for g in G.arrows
                       if G.source[f] == G.target[g])
    parallel = tuple((f, g) for f in G.arrows for g in G.arrows
                     if G.source[f] == G.source[g] and G.target[f] == G.target[g])
    H = GroupoidHopf(G, B, composable, parallel)
    verify_hopf_laws(H)
    return H


def _law(holds: bool, law: str, witness=None, error=Mismatch) -> None:
    """Raise `error` naming the law and its witness unless the law holds."""
    if not holds:
        raise error(f"{law} fails at {witness!r}", witness=witness)


def _union_map_is_locale_morphism(images: dict, top: frozenset, laws: tuple,
                                  top_witness) -> None:
    """The union of `images` over each subset of their keys preserves joins
    and 0.  It preserves the top iff the images cover `top` (laws[0]), and
    meets iff they are pairwise disjoint (laws[1], witnessed by the first
    overlapping pair of singletons)."""
    _law(frozenset().union(*images.values()) == top, laws[0], top_witness)
    bad = next(((frozenset({x}), frozenset({y})) for x in images
                for y in images if x != y and images[x] & images[y]), None)
    _law(bad is None, laws[1], bad)


def verify_hopf_laws(H: GroupoidHopf) -> None:
    """All structure laws of the dual groupoid, checked on atoms.

    Every map of O(G) is a preimage or image map, so a union over
    singletons, and so is each side of each law.  A law that holds on the
    empty set and on every singleton holds on every subset, and a law
    bilinear in two slots (product = meet, commuting actions) once it holds
    on pairs of them.  s and t are union maps out of P(objects) with
    disjoint values on the {o} that cover the arrows, so locale morphisms;
    the actions are t(b) & U and s(b) & U, so modules (else NotAModule)."""
    G = H.groupoid
    arrows = G.arrows
    top = frozenset(arrows)
    points = [frozenset({o}) for o in G.objects]
    for name, f in (("s", H.s), ("t", H.t)):
        law = f"{name} is a locale morphism"
        images = {o: f(b) for o, b in zip(G.objects, points)}
        for b in H.B.elements:
            _law(f(b) == frozenset().union(*map(images.get, b)), law, b)
        _union_map_is_locale_morphism(images, top, (law, law), G.objects)
    atoms = [frozenset()] + [frozenset({g}) for g in arrows]
    # zero (U = 0), unit (b = top) and agreement with t(b) & U, s(b) & U
    for name, act, f in (("left", H.left, H.t), ("right", H.right, H.s)):
        for b, U in itertools.product([frozenset(), *points, H.B.top], atoms):
            _law(act(b, U) == f(b) & U, f"the {name} action on atoms", (b, U),
                 NotAModule)
    for b, b2, U in itertools.product(points, points, atoms):
        _law(H.left(b, H.right(b2, U)) == H.right(b2, H.left(b, U)),
             "commuting left and right actions", (b, b2, U), NotAModule)
    for U in atoms:
        cu = H.c(U)
        _law(frozenset(g for g in arrows
                       if (G.unit[G.target[g]], g) in cu) == U,
             "the left counit law", U)
        _law(frozenset(f for f in arrows
                       if (f, G.unit[G.source[f]]) in cu) == U,
             "the right counit law", U)
        lhs = {(f, g, h) for (u, h) in cu for (f, g) in H.c(frozenset({u}))}
        rhs = {(f, g, h) for (f, v) in cu for (g, h) in H.c(frozenset({v}))}
        _law(lhs == rhs, "coassociativity", U)
        _law(H.a(H.a(U)) == U, "the antipode involution", U)
        # pentagon: multiply c against the antipode on either slot
        _law(frozenset(f for (f, g) in cu if f == G.inverse[g])
             == H.t(H.e(U)), "the pentagon (L x a)", U)
        _law(frozenset(g for (f, g) in cu if g == G.inverse[f])
             == H.s(H.e(U)), "the pentagon (a x L)", U)
    for b in H.B.elements:
        _law(H.a(H.s(b)) == H.t(b), "a o s = t", b)
        _law(H.a(H.t(b)) == H.s(b), "a o t = s", b)
    # m is idempotent commutative with unit the full pair set
    full_pairs = frozenset((G.target[g], G.source[g]) for g in arrows)
    _law(H.u(full_pairs) == top, "the unit law", full_pairs)
    for U in atoms:
        for V in atoms:
            S = frozenset((f, g) for (f, g) in H.parallel
                          if f in U and g in V)
            _law(H.m(S) == U & V, "product = meet", (U, V))


# -- actions as comodules ------------------------------------------------------


@dataclass
class Comodule:
    """A candidate comodule in transporter form: mu on carrier pairs."""

    groupoid: FiniteGroupoid
    carrier: tuple
    anchor: dict
    mu: Mapping  # (x, y) -> frozenset of arrows with g . y = x intended

    def rho(self, x) -> frozenset:
        """The coaction value on delta_x: pairs (g, y) with g in mu(x, y)."""
        return frozenset((g, y) for y in self.carrier
                         for g in self.mu[(x, y)])

    def key(self):
        return (self.carrier,
                tuple(sorted(((k, tuple(sorted(v, key=repr)))
                              for k, v in self.mu.items()), key=repr)))


def b1_holds(c: Comodule) -> bool:
    G = c.groupoid
    for x in c.carrier:
        for w in c.carrier:
            lhs = {(f, g) for f in G.arrows for g in G.arrows
                   if G.source[f] == G.target[g]
                   and G.comp(f, g) in c.mu[(x, w)]}
            rhs = {(f, g) for y in c.carrier
                   for f in c.mu[(x, y)] for g in c.mu[(y, w)]}
            if lhs != rhs:
                return False
    return True


def b2_holds(c: Comodule) -> bool:
    G = c.groupoid
    for x in c.carrier:
        for y in c.carrier:
            expected = frozenset({c.anchor[x]}) if x == y else frozenset()
            if frozenset(o for o in G.objects
                         if G.unit[o] in c.mu[(x, y)]) != expected:
                return False
    return True


class _SetLattice:
    """Sets as the lattice that `table_axioms` reads, with no tables: join
    is union, meet intersection, order inclusion.  The sets are frozensets
    or int masks, and `bottom` is the empty one."""

    def __init__(self, bottom):
        self.bottom = bottom

    def join_all(self, sets):
        return functools.reduce(operator.or_, sets, self.bottom)

    @staticmethod
    def join(a, b):
        return a | b

    @staticmethod
    def meet(a, b):
        return a & b

    @staticmethod
    def leq(a, b):
        return (a & b) == a


def comodule_axioms(c: Comodule) -> AxiomReport:
    """The four module-level axioms of mu over the split base: each row x
    joins to the arrows into anchor(x), each column y to the arrows out of
    anchor(y), and the entries of a line are pairwise disjoint; delegates
    to `table_axioms`."""
    G = c.groupoid
    return table_axioms(_SetLattice(frozenset()), c.carrier, c.carrier, c.mu,
                        lambda x: frozenset(G.arrows_into(c.anchor[x])),
                        lambda y: frozenset(G.arrows_from(c.anchor[y])))


def action_comodule_transpose(act: DiscreteAction) -> Comodule:
    """Action -> mu -> coaction, with B1, B2 and the round trip verified
    (C1 and C2 are the same laws in coaction form)."""
    c = Comodule(act.groupoid, act.carrier, act.anchor, action_mu(act))
    for law, holds in (("B1", b1_holds), ("B2", b2_holds)):
        if not holds(c):
            raise Mismatch(f"the transpose of {act!r} fails {law}")
    if action_from_comodule(c).act != act.act:
        raise Mismatch(f"the transpose of {act!r} does not round-trip")
    return c


def action_from_comodule(c: Comodule) -> DiscreteAction:
    """Extract the action from a bijection-like mu: g . y is the unique x."""
    G = c.groupoid
    act = {}
    for y in c.carrier:
        for g in G.arrows_from(c.anchor[y]):
            xs = [x for x in c.carrier if g in c.mu[(x, y)]]
            if len(xs) != 1:
                raise NotAnAction(f"transporters of ({g!r}, {y!r}) are not "
                                  "a partition", witness=(g, y))
            act[(g, y)] = xs[0]
    return DiscreteAction(G, c.carrier, c.anchor, act)


def comodule_is_locale_morphism(c: Comodule) -> None:
    """rho: P(Y) -> P(compatible pairs), the union of the rho(x) over a
    subset, is a locale morphism when the rho(x) cover the compatible pairs
    and are pairwise disjoint."""
    G = c.groupoid
    pairs = frozenset((g, y) for y in c.carrier
                      for g in G.arrows_from(c.anchor[y]))
    _union_map_is_locale_morphism(
        {x: c.rho(x) for x in c.carrier}, pairs,
        ("rho preserves the top", "rho preserves meets"), c.carrier)


def check_action_morphism(f: dict, A: DiscreteAction, B: DiscreteAction) -> bool:
    """Equivariance: f(g . x) = g . f(x) wherever g acts on x."""
    G = A.groupoid
    for x in A.carrier:
        if f[x] not in B.carrier:
            raise DomainMismatch(f"f({x!r}) is not in the target carrier")
        if B.anchor[f[x]] != A.anchor[x]:
            raise AnchorMismatch(f"f does not preserve the anchor at {x!r}")
    return all(
        f[A.apply(g, x)] == B.apply(g, f[x])
        for x in A.carrier for g in G.arrows_from(A.anchor[x])
    )


# -- enumeration ---------------------------------------------------------------


def anchored_carriers(G: FiniteGroupoid, max_size: int):
    """Canonical anchored sets with at most max_size elements."""
    objs = G.objects
    for sizes in itertools.product(range(max_size + 1), repeat=len(objs)):
        if sum(sizes) > max_size:
            continue
        carrier = tuple((o, i) for o, n in zip(objs, sizes) for i in range(n))
        anchor = {x: x[0] for x in carrier}
        yield carrier, anchor


def enumerate_actions(G: FiniteGroupoid, max_size: int) -> list:
    """All actions on the canonical anchored carriers, by table search."""
    out = []
    for carrier, anchor in anchored_carriers(G, max_size):
        keys = [(g, x) for x in carrier for g in G.arrows
                if G.source[g] == anchor[x] and g != G.unit[anchor[x]]]
        targets = [tuple(y for y in carrier if anchor[y] == G.target[g])
                   for (g, x) in keys]
        for choice in itertools.product(*targets):
            act = {(G.unit[anchor[x]], x): x for x in carrier}
            act.update(dict(zip(keys, choice)))
            try:
                out.append(DiscreteAction(G, carrier, anchor, act))
            except NotAnAction:
                pass
    return out


# Candidates per truth-table block, as a power of two: every table of a block
# is an int of 2 ** _BLOCK bits (8 KB), whatever the size of the space.
_BLOCK = 16


@functools.cache
def _periodic(k: int) -> tuple:
    """The truth tables of variables 0..k-1 across 2 ** k candidates: bit b of
    table i is bit i of b, that is 2 ** i zeros then 2 ** i ones, repeated."""
    ones = (1 << (1 << k)) - 1
    return tuple(ones // ((1 << (2 << i)) - 1)
                 * (((1 << (1 << i)) - 1) << (1 << i)) for i in range(k))


def _blocks(n: int):
    """(candidates, x, ones) for each block of the 2 ** n assignments of n
    variables, in order.  x[i] is the truth table of variable i across the
    block: periodic when i < _BLOCK, all ones or 0 otherwise."""
    k = min(_BLOCK, n)
    width = 1 << k
    ones = (1 << width) - 1
    periodic = list(_periodic(k))
    for base in range(0, 1 << n, width):
        yield (range(base, base + width),
               periodic + [ones if (base >> i) & 1 else 0 for i in range(k, n)],
               ones)


class _ComoduleSpace:
    """Bit-level candidate space for the mu-tables on one anchored carrier.

    Candidate `bits` puts arrow g in mu(x, y) when bit i is set, for each
    variable i = ((x, y), g) in `variables`: one per pair and non-unit arrow
    from anchor(y) to anchor(x).  The counit law fixes the units (in mu(x, x)
    and not in mu(x, y) for x != y), and arrows outside the support are never
    in mu.  A literal is 0 (false), 1 (true) or 2 + i (variable i).
    """

    def __init__(self, G: FiniteGroupoid, carrier: tuple, anchor: dict):
        self.G, self.carrier, self.anchor = G, carrier, anchor
        self.variables = []
        lit = {}  # (x, y, g) -> literal of g in mu(x, y), on the support
        for x in carrier:
            for y in carrier:
                for g in G.arrows_into(anchor[x]):
                    if G.source[g] != anchor[y]:
                        continue
                    if g == G.unit[anchor[x]]:
                        lit[(x, y, g)] = int(x == y)
                    else:
                        lit[(x, y, g)] = 2 + len(self.variables)
                        self.variables.append(((x, y), g))
        # B1 at (x, w) and composable (f, g): [f o g in mu(x, w)] is the OR
        # over y of [f in mu(x, y)] and [g in mu(y, w)]; false terms dropped
        self.b1 = []
        for x in carrier:
            for w in carrier:
                for f in G.arrows_into(anchor[x]):
                    for g in G.arrows_into(G.source[f]):
                        if G.source[g] != anchor[w]:
                            continue
                        terms = [(lit[(x, y, f)], lit[(y, w, g)])
                                 for y in carrier if anchor[y] == G.source[f]]
                        self.b1.append((lit[(x, w, G.comp(f, g))],
                                        [t for t in terms if 0 not in t]))

    def tables(self):
        """(candidates, b1) for each block of candidates, in order: bit b of
        `b1` says whether B1 holds on candidate base + b."""
        for block, x, ones in _blocks(len(self.variables)):
            v = [0, ones, *x]
            b1 = ones
            for lhs, terms in self.b1:
                rhs = 0
                for a, b in terms:
                    rhs |= v[a] & v[b]
                b1 &= ones ^ v[lhs] ^ rhs
            yield block, b1

    def comodule(self, bits: int) -> Comodule:
        G = self.G
        mu = {(x, y): {G.unit[self.anchor[x]]} if x == y else set()
              for x in self.carrier for y in self.carrier}
        for i, (p, g) in enumerate(self.variables):
            if (bits >> i) & 1:
                mu[p].add(g)
        return Comodule(G, self.carrier, self.anchor,
                        {p: frozenset(s) for p, s in mu.items()})


def enumerate_comodules(G: FiniteGroupoid, max_size: int) -> list:
    """All mu-tables satisfying the bimodule constraints plus B1 and B2.

    Independent of the action enumeration.  On each carrier, supports and
    the counit law fix the units and the arrows outside the support; every
    other arrow membership is a Boolean variable, and B1 is evaluated on all
    assignments at once as truth tables (`_ComoduleSpace`).  Comodules come
    carrier by carrier, each carrier's in ascending candidate order, and
    each is rechecked with the set-level `b1_holds` and `b2_holds`.
    """
    out = []
    for carrier, anchor in anchored_carriers(G, max_size):
        space = _ComoduleSpace(G, carrier, anchor)
        for block, b1 in space.tables():
            while b1:
                low = b1 & -b1
                bits = block[low.bit_length() - 1]
                c = space.comodule(bits)
                _law(b1_holds(c) and b2_holds(c),
                     "the set-level B1 and B2 on a sliced B1 candidate",
                     (carrier, bits))
                out.append(c)
                b1 ^= low
    return out


def _pair_orbits(A: DiscreteAction, B: DiscreteAction) -> tuple[list, list]:
    """The fiberwise pairs (x, y) of two actions, and the orbits of the
    diagonal action on them in the order of their first pair."""
    G = A.groupoid
    pairs = [(x, y) for x in A.carrier for y in B.carrier
             if A.anchor[x] == B.anchor[y]]
    seen = set()
    orbits = []
    for p in pairs:
        if p in seen:
            continue
        orbit = {p}
        frontier = [p]
        while frontier:
            (x, y) = frontier.pop()
            for g in G.arrows_from(A.anchor[x]):
                q = (A.apply(g, x), B.apply(g, y))
                if q not in orbit:
                    orbit.add(q)
                    frontier.append(q)
        seen |= orbit
        orbits.append(frozenset(orbit))
    return pairs, orbits


def invariant_relations(A: DiscreteAction, B: DiscreteAction) -> list:
    """All action-stable fiberwise relations, as unions of pair orbits."""
    _, orbits = _pair_orbits(A, B)
    out = []
    for r in range(len(orbits) + 1):
        for sub in itertools.combinations(orbits, r):
            out.append(frozenset().union(*sub) if sub else frozenset())
    return out


def _union(bits: int, masks: list) -> int:
    """The OR of masks[i] over the set bits i of `bits`."""
    acc = 0
    while bits:
        low = bits & -bits
        acc |= masks[low.bit_length() - 1]
        bits ^= low
    return acc


def _or(masks) -> int:
    """The OR of the masks, 0 for none."""
    acc = 0
    for m in masks:
        acc |= m
    return acc


def _subset_unions(masks: list) -> list:
    """U[b], the OR of masks[i] over the set bits i of b, for every
    b < 2 ** len(masks), in order: the candidates 2 ** i to 2 ** (i + 1) - 1
    are those below 2 ** i with member i added, so U[b] is
    U[b - 2 ** i] | masks[i]."""
    out = [0]
    for m in masks:
        out += [u | m for u in out]
    return out


def _subset_sums(values: list) -> list:
    """S[b], the sum of values[i] over the set bits i of b, for every
    b < 2 ** len(values), by the recurrence of `_subset_unions`."""
    out = [0]
    for v in values:
        out += [s + v for s in out]
    return out


def _table(flags) -> int:
    """The truth table whose bit b is flags[b]."""
    return int("".join(["1" if f else "0" for f in flags])[::-1], 2)


def _arrow_groups(need: int, masks: list) -> list:
    """(arrow needed, indices whose mask holds the arrow) for every arrow that
    is needed or held, from a needed-arrow mask and per-index arrow masks."""
    seen = need
    for m in masks:
        seen |= m
    return [((need >> a) & 1, [j for j, m in enumerate(masks) if (m >> a) & 1])
            for a in range(seen.bit_length()) if (seen >> a) & 1]


def _exact_counts(x: list, ones: int, groups: list) -> int:
    """Table of: every group has exactly `needed` (0 or 1) members set."""
    ok = ones
    for needed, members in groups:
        one = two = 0  # at least one / at least two members set
        for j in members:
            two |= one & x[j]
            one |= x[j]
        ok &= (one ^ two) if needed else (ones ^ one)
    return ok


class _HomSpace:
    """The fiberwise relations of two actions and their hom predicates,
    built once per (A, B) by `_hom_space` and kept on A.

    A relation is an int over `pairs` (bit i: `pairs[i]` is in R); arrow
    sets are ints over `G.arrows`.  A pair outside `pairs` is never in R.
    The hom predicates are evaluated twice, from different tables:

    - bit-sliced by `tables()`: per block of 2 ** _BLOCK consecutive
      candidates, one truth table per predicate, an int whose bit b says
      whether it holds on candidate base + b.  Variable x_i is a periodic
      pattern when i < _BLOCK and all ones or 0 across the block otherwise.
      `rel` reads the transporter masks `T`, built from `apply`.
    - at set level, from unions over the candidate's members: the
      restricted pairing from `rows` and `cols`, built from `action_mu`;
      the comodule-morphism equation from `couples`; stability from the
      `images` of each pair; the diamond equation from `lhs` and `rhs`.
      `set_level()` builds every candidate's unions in one pass, each from
      a smaller candidate's, and `bijection`, `morphism`, `invariant` and
      `diamond` build them for one candidate.  Both apply the same final
      tests (`pairing_test`, `morphism_test`, `invariant_test`,
      `diamond_test`).  The witnesses of the pairing's four axioms come
      from `table_axioms`, fed with `rows`, `into` and `out` by
      `restricted_theta_axioms`.

    Only the pairs, the bounds `into` and `out`, the comodule-morphism
    `couples` and the orbits are shared.  The set-level inputs are built
    on first read, so a space past the cross-check never builds them.
    `hom_count` sweeps the candidates once and compares the two routes.
    """

    def __init__(self, A: DiscreteAction, B: DiscreteAction):
        G = A.groupoid
        self.A, self.B, self.G = A, B, G
        self.pairs, orbits = _pair_orbits(A, B)
        self.pos = {p: i for i, p in enumerate(self.pairs)}
        self.n = n = len(self.pairs)
        self._bit = bit = {g: 1 << i for i, g in enumerate(G.arrows)}
        self.into = [self._mask(G.arrows_into(A.anchor[x]))
                     for x, _ in self.pairs]
        self.out = [self._mask(G.arrows_from(A.anchor[x]))
                    for x, _ in self.pairs]
        # from the action: the transporter masks T[p][q] = arrows g with
        # g . q = p (componentwise), and the images of each pair q
        self.T = [[0] * n for _ in range(n)]
        self.images = [0] * n
        for qi, (x2, y2) in enumerate(self.pairs):
            for g in G.arrows_from(A.anchor[x2]):
                pi = self.pos[(A.apply(g, x2), B.apply(g, y2))]
                self.T[pi][qi] |= bit[g]
                self.images[qi] |= 1 << pi
        # comodule-morphism couples: (x, g.y) in R iff (g^-1.x, y) in R, both
        # sides false unless anchor(x) = target(g); couples[i] holds the
        # pairs that must agree with pair i
        self.couples = [0] * n
        for x in A.carrier:
            for y in B.carrier:
                for g in G.arrows_from(B.anchor[y]):
                    if A.anchor[x] != G.target[g]:
                        continue
                    left = self.pos[(x, B.apply(g, y))]
                    right = self.pos[(A.apply(G.inverse[g], x), y)]
                    self.couples[left] |= 1 << right
                    self.couples[right] |= 1 << left
        # each orbit of the diagonal action as couples (first member, other)
        self.orbit_couples = []
        for orbit in orbits:
            first, *rest = (self.pos[p] for p in orbit)
            self.orbit_couples += [(first, i) for i in rest]

    def _mask(self, arrows) -> int:
        return _or(self._bit[g] for g in arrows)

    @functools.cached_property
    def _mu(self) -> tuple:
        """action_mu of A and of B, as arrow masks."""
        return tuple({k: self._mask(v) for k, v in action_mu(act).items()}
                     for act in (self.A, self.B))

    @functools.cached_property
    def rows(self) -> list:
        """The restricted transporters mu((x, y), (x2, y2)) from action_mu:
        rows[i][j] for pairs i = (x, y) and j = (x2, y2)."""
        muA, muB = self._mu
        return [[muA[(x, x2)] & muB[(y, y2)] for (x2, y2) in self.pairs]
                for (x, y) in self.pairs]

    @functools.cached_property
    def cols(self) -> list:
        return [list(col) for col in zip(*self.rows)]

    @functools.cached_property
    def _slot(self) -> dict:
        """The diamond's slots, one of len(G.arrows) bits per (a, b') in
        A x B."""
        width = len(self.G.arrows)
        return {ab: width * k for k, ab in
                enumerate(itertools.product(self.A.carrier, self.B.carrier))}

    @functools.cached_property
    def lhs(self) -> list:
        """The diamond's left terms: pair (y, b') brings mu_A(a, y) into
        slot (a, b')."""
        muA, slot = self._mu[0], self._slot
        return [_or(muA[(a, y)] << slot[(a, bp)] for a in self.A.carrier)
                for (y, bp) in self.pairs]

    @functools.cached_property
    def rhs(self) -> list:
        """The diamond's right terms: pair (a, x') brings mu_B(x', b') into
        slot (a, b')."""
        muB, slot = self._mu[1], self._slot
        return [_or(muB[(xp, bp)] << slot[(a, bp)] for bp in self.B.carrier)
                for (a, xp) in self.pairs]

    @functools.cached_property
    def lines(self) -> tuple:
        """(packed, tops, slots): the pairing's rows and columns packed so
        that a candidate's lines are a sum and a union over its members.

        packed[j] holds rows[i][j] in slot i and cols[i][j] in slot n + i,
        for every pair i; tops holds into[i] in slot i and out[i] in slot
        n + i; slots[j] is all ones on slots j and n + j.  A slot has
        len(G.arrows) + n.bit_length() + 1 bits, so the sum of at most n
        entries, each below 2 ** len(G.arrows), never carries into the next
        slot.  A sum of masks equals their union iff no bit is in two of
        them: the sum counts each bit once per mask that holds it, the
        union once, and a bit held twice carries.  So the entries of a
        member's line are pairwise disjoint iff its slot of the sum equals
        its slot of the union.
        """
        n = self.n
        width = len(self.G.arrows) + n.bit_length() + 1
        ones = (1 << width) - 1
        rows, cols = self.rows, self.cols
        packed = [_or(rows[i][j] << width * i | cols[i][j] << width * (n + i)
                      for i in range(n)) for j in range(n)]
        tops = _or(self.into[i] << width * i | self.out[i] << width * (n + i)
                   for i in range(n))
        slots = [ones << width * j | ones << width * (n + j) for j in range(n)]
        return packed, tops, slots

    def index(self, p) -> int:
        try:
            return self.pos[p]
        except KeyError:
            raise DomainMismatch(f"{p!r} is not a fiberwise pair",
                                 witness=p) from None

    def bits_of(self, R) -> int:
        return _or(1 << self.index(p) for p in R)

    def set_of(self, bits):
        return frozenset(p for i, p in enumerate(self.pairs) if (bits >> i) & 1)

    def tables(self):
        """(candidates, rel, cmd, stable) for each block of candidates, in
        order.

        `rel`: the restricted pairing is a bijection.  For each member p and
        arrow g, exactly one member q has g in T[p][q] when g is in into[p],
        and none otherwise; the same for each member q, over p, with out[q].
        `cmd`: both ends of every comodule-morphism couple agree.
        `stable`: every orbit of the diagonal action is in the relation
        whole or not at all.
        """
        n = self.n
        conds = [_arrow_groups(self.into[i], [self.T[i][q] for q in range(n)])
                 + _arrow_groups(self.out[i], [self.T[p][i] for p in range(n)])
                 for i in range(n)]
        couples = [(i, j) for i, m in enumerate(self.couples)
                   for j in range(i + 1, n) if (m >> j) & 1]
        for block, x, ones in _blocks(n):
            rel = ones
            for i in range(n):
                if x[i]:
                    rel &= (ones ^ x[i]) | _exact_counts(x, ones, conds[i])
            cmd = stable = ones
            for left, right in couples:
                cmd &= ones ^ x[left] ^ x[right]
            for first, other in self.orbit_couples:
                stable &= ones ^ x[first] ^ x[other]
            yield block, rel, cmd, stable

    # The final test of each set-level predicate, on a candidate's unions.
    # `set_level` and the one-candidate methods below both apply these.

    @staticmethod
    def pairing_test(total: int, union: int, tops: int, slots: int) -> bool:
        """Every member's row and column has pairwise disjoint entries
        (sum = union) and joins to its top (union = tops), on the member
        slots."""
        return ((total ^ union) | (union ^ tops)) & slots == 0

    @staticmethod
    def morphism_test(union: int, bits: int) -> bool:
        """The union lies inside the candidate: every pair coupled with a
        member is a member."""
        return union & ~bits == 0

    # stability: every image of a member is a member; a name of its own,
    # so that each predicate's final test can be replaced alone
    invariant_test = morphism_test

    @staticmethod
    def diamond_test(lhs: int, rhs: int) -> bool:
        return lhs == rhs

    def set_level(self) -> tuple:
        """The four set-level predicates as truth tables over all 2 ** n
        candidates, bit b for candidate b, in the order of `SET_LEVEL`.

        One pass over the candidates in order: candidate b with top member
        i is candidate b - 2 ** i plus member i, so each of its unions (and
        the pairing's sum) is the smaller candidate's combined with member
        i's mask.  Every predicate is decided on every candidate by its
        final test."""
        packed, tops, slots = self.lines
        candidates = range(1 << self.n)
        return (
            _table(map(self.pairing_test, _subset_sums(packed),
                       _subset_unions(packed), itertools.repeat(tops),
                       _subset_unions(slots))),
            _table(map(self.morphism_test, _subset_unions(self.couples),
                       candidates)),
            _table(map(self.invariant_test, _subset_unions(self.images),
                       candidates)),
            _table(map(self.diamond_test, _subset_unions(self.lhs),
                       _subset_unions(self.rhs))),
        )

    # the same predicates on one candidate, its unions built directly

    def bijection(self, bits: int) -> bool:
        """The restricted pairing on the members of `bits` is a bijection:
        every row and column joins to its top and its entries are pairwise
        disjoint."""
        packed, tops, slots = self.lines
        return self.pairing_test(
            sum(m for i, m in enumerate(packed) if (bits >> i) & 1),
            _union(bits, packed), tops, _union(bits, slots))

    def morphism(self, bits: int) -> bool:
        return self.morphism_test(_union(bits, self.couples), bits)

    def invariant(self, bits: int) -> bool:
        return self.invariant_test(_union(bits, self.images), bits)

    def diamond(self, bits: int) -> bool:
        return self.diamond_test(_union(bits, self.lhs), _union(bits, self.rhs))

    # the set-level predicates as `hom_count` names them, in `set_level` order
    SET_LEVEL = ("the restricted pairing", "the comodule-morphism equation",
                 "stability", "the diamond equation")

    def hom_count(self) -> int:
        """The candidates on which the three hom predicates hold, in one
        sweep of `tables()`.  Mismatch, naming two predicates that differ,
        at the first candidate on which they do not all agree.  On spaces
        of at most 2 ** 9 candidates the four `set_level()` tables must
        also equal the hom table, block by block; at the first candidate
        where one does not, Mismatch names the first predicate, in
        `SET_LEVEL` order, that disagrees there."""
        count = 0
        set_level = self.set_level() if self.n <= 9 else ()
        for block, rel, cmd, stable in self.tables():
            diff = (rel ^ cmd) | (rel ^ stable)
            if diff:
                low = diff & -diff
                names = "rel and cmd" if (rel ^ cmd) & low else "rel and stable"
                bits = block[low.bit_length() - 1]
                raise Mismatch(f"hom predicates {names} differ at "
                               f"{self.set_of(bits)!r}")
            ones = (1 << len(block)) - 1
            diffs = [((table >> block.start) & ones) ^ rel
                     for table in set_level]
            diff = _or(diffs)
            if diff:
                low = diff & -diff
                name = next(name for name, d in zip(self.SET_LEVEL, diffs)
                            if d & low)
                bits = block[low.bit_length() - 1]
                raise Mismatch(f"{name} disagrees with the sliced "
                               f"tables at {self.set_of(bits)!r}")
            count += rel.bit_count()
        return count


def _hom_space(A: DiscreteAction, B: DiscreteAction) -> _HomSpace:
    """The hom space of (A, B), built once and kept on A."""
    hs = A._homs.get(B)
    if hs is None:
        hs = A._homs[B] = _HomSpace(A, B)
    return hs


def restricted_theta_axioms(R, A: DiscreteAction, B: DiscreteAction) -> AxiomReport:
    """Module-level axioms of the product pairing restricted to R, with R
    scanned in `repr` order; delegates to `table_axioms`."""
    hs = _hom_space(A, B)
    R = sorted(R, key=repr)
    ix = {p: hs.index(p) for p in R}
    return table_axioms(_SetLattice(0), R, R,
                        {(p, q): hs.rows[ix[p]][ix[q]] for p in R for q in R},
                        lambda p: hs.into[ix[p]], lambda q: hs.out[ix[q]])


def relation_is_invariant(R, A: DiscreteAction, B: DiscreteAction) -> bool:
    """g . R lies in R for every arrow g."""
    hs = _hom_space(A, B)
    return hs.invariant(hs.bits_of(R))


def comodule_morphism_holds(R, A: DiscreteAction, B: DiscreteAction) -> bool:
    """rho_B o R = (L (x) R) o rho_A on every generator."""
    hs = _hom_space(A, B)
    return hs.morphism(hs.bits_of(R))


def diamond_on_relation(R, A: DiscreteAction, B: DiscreteAction) -> bool:
    """The diamond equation for (mu_A, mu_B) across R, on generator pairs."""
    hs = _hom_space(A, B)
    return hs.diamond(hs.bits_of(R))


@dataclass
class RelBetaG:
    objects: list
    homs: dict  # (i, j) -> list of frozensets

    def hom(self, i, j):
        return self.homs[(i, j)]


def rel_beta_g(G: FiniteGroupoid, max_size: int) -> RelBetaG:
    """The relation category of bounded discrete actions; its hom table,
    one entry per pair, is bounded like a carrier before it is filled."""
    objects = enumerate_actions(G, max_size)
    check_carrier(len(objects) ** 2, "the hom table of the relation category")
    homs = {}
    for i, A in enumerate(objects):
        for j, B in enumerate(objects):
            rels = invariant_relations(A, B)
            hs = _hom_space(A, B)
            for R in rels:
                if not hs.bijection(hs.bits_of(R)):
                    raise NotBijection(
                        "invariant relation whose restriction is not a bijection",
                        witness=(i, j, R))
            homs[(i, j)] = rels
    for i, A in enumerate(objects):
        _law(frozenset((x, x) for x in A.carrier) in homs[(i, i)],
             "the identity relation is a hom", i)
    return RelBetaG(objects, homs)


def compose_relations(R, S) -> frozenset:
    """S after R: pairs (x, z) with some (x, y) in R and (y, z) in S."""
    return frozenset((x, z) for (x, y) in R for (y2, z) in S if y2 == y)


# -- the action site and its fiber functor -------------------------------------


@dataclass
class ActionSite:
    """A finite full subcategory of the action category, with the generating
    relation-arrows used to present the coend."""

    groupoid: FiniteGroupoid
    objects: dict  # name -> DiscreteAction
    rel_gens: list  # (name, src, dst, frozenset of pairs)
    maps: list  # (name, src, dst, table dict) generating action morphisms


def default_site(G: FiniteGroupoid, extra: tuple = ()) -> ActionSite:
    """The terminal action and the representables (plus extra actions).

    Every action is covered by representables, so these are dense and fix
    the coend; product actions are built on demand by `multiply_gens`."""
    objects = {"1": terminal_action(G)}
    for o in G.objects:
        objects[f"R[{o}]"] = representable_action(G, o)
    for act in extra:
        objects[act.name] = act
    rel_gens = []
    maps = []
    for cname, C in objects.items():
        for a in C.carrier:
            o = C.anchor[a]
            rep = objects[f"R[{o}]"]
            table = {g: C.apply(g, a) for g in rep.carrier}
            graph_pairs = frozenset((g, table[g]) for g in rep.carrier)
            maps.append((f"to[{cname}:{a!r}]", f"R[{o}]", cname, table))
            rel_gens.append((f"gr[{cname}:{a!r}]", f"R[{o}]", cname, graph_pairs))
            rel_gens.append((f"op[{cname}:{a!r}]", cname, f"R[{o}]",
                             frozenset((v, u) for (u, v) in graph_pairs)))
    for cname, C in objects.items():
        maps.append((f"![{cname}]", cname, "1",
                     {x: C.anchor[x] for x in C.carrier}))
    return ActionSite(G, objects, rel_gens, maps)


class _PowerSet(_SetLattice):
    """P(points) as frozensets: counted, never listed."""

    def __init__(self, points):
        super().__init__(frozenset())
        self.top = frozenset(points)

    def __len__(self):
        return 1 << len(self.top)


class EtaleModule(JModule):
    """The J-module of an action's carrier, a discrete poset, over
    B = P(objects) with p(x) = {anchor(x)}: b.U = {x in U : anchor(x) in b}
    and eps(U, V) = anchor(U & V).  Its elements are frozensets of points
    over the counted `_PowerSet`, so no element of P(carrier) is listed."""

    def __init__(self, B: FiniteLocale, act: DiscreteAction):
        self.lattice = _PowerSet(act.carrier)
        self._bit = {x: 1 << k for k, x in enumerate(act.carrier)}
        super().__init__(B, act.carrier,
                         [frozenset({act.anchor[x]}) for x in act.carrier],
                         self._bit.values())

    def _mask(self, U) -> int:
        try:
            return sum(map(self._bit.__getitem__, U))
        except KeyError:
            raise DomainMismatch(f"{U!r} is not a set of points", witness=U) from None

    _element = JModule._gens  # a set of points is the set of its generators


def etale_module(B: FiniteLocale, act: DiscreteAction):
    """The étale module of act over B = P(objects), its own duality data,
    with every law checked on J(B) x points (`JModule.check`)."""
    m = EtaleModule(B, act)
    m.check()
    return m, m


def relation_morphism(pairs):
    """The direct-image map of a fiberwise relation on subsets, a union
    over their points, so join-preserving."""
    return lambda U: frozenset([y for (x, y) in pairs if x in U])


class GaloisCoend:
    """The coend of the fiber functor of an action site, together with the
    structural cone, the algebra structure, and the antipode.

    Each site object enters as its `etale_module`, read only at points, so
    B = P(objects) is the one power set built.  The site relations are
    checked closed under transposition, which makes the antipode well
    defined, and fiberwise (AnchorMismatch, the pair as witness).  Each
    relation R enters with the direct image of R^op, its transpose in the
    site, as its dual: between étale modules eps(R(U), V) = anchor(R(U) & V),
    the anchor(x) = anchor(y) over the (x, y) of R with x in U and y in V,
    is anchor(U & R^op(V)) = eps(U, R^op(V))."""

    def __init__(self, site: ActionSite):
        self.site = site
        self.G = site.groupoid
        self.B = power_locale(self.G.objects)
        objects = [CoendObject(name, *etale_module(self.B, act))
                   for name, act in site.objects.items()]
        image = {(s, d, frozenset(p)): relation_morphism(p)
                 for (_, s, d, p) in site.rel_gens}
        arrows = []
        for (name, src, dst, pairs) in site.rel_gens:
            A, C = site.objects[src], site.objects[dst]
            for x, y in pairs:
                _law(A.anchor[x] == C.anchor[y], f"{name}: a fiberwise relation",
                     (x, y), AnchorMismatch)
            op = (dst, src, frozenset((y, x) for x, y in pairs))
            _law(op in image, "transpose closure of the generating relations", name)
            arrows.append(CoendArrow(name, src, dst, image[src, dst, frozenset(pairs)],
                                     image[op]))
        self.coend = Coend(self.B, objects, arrows)
        self.quotient = self.coend.quotient
        self._mul_cache = {}
        self._prod_cache = {}

    # -- structural cone values ------------------------------------------

    def atom(self, cname, a, b):
        return self.quotient.gen_class((cname, a, b))

    def cone_value(self, act: DiscreteAction, a, b):
        """lambda of any action at (a, b): the transporter join over the
        representable of a's anchor."""
        o = act.anchor[a]
        rep = self.site.objects[f"R[{o}]"]
        i = self.G.unit[o]
        return self.quotient.element(
            (f"R[{o}]", i, g) for g in rep.carrier if act.apply(g, a) == b
        )

    def cone_value_all_presentations(self, act: DiscreteAction, a, b):
        """The same value computed through every admissible presentation of
        the element a by a representable arrow (finite well-definedness)."""
        o = act.anchor[a]
        rep = self.site.objects[f"R[{o}]"]
        out = []
        for x in act.carrier:
            if act.anchor[x] != o:
                continue
            for c in rep.carrier:
                if act.apply(c, x) != a:
                    continue
                out.append(self.quotient.element(
                    (f"R[{o}]", c, g)
                    for g in rep.carrier if act.apply(g, x) == b))
        return out

    # -- Hopf structure ----------------------------------------------------

    def antipode_gen(self, gen):
        cname, a, b = gen
        return (cname, b, a)

    def unit_value(self, bpair):
        """u on an object-pair atom (o, o'): the terminal-object atom."""
        o, o2 = bpair
        return self.atom("1", o, o2)

    def t_map(self, bset):
        return self.quotient.join_all(
            [self.unit_value((o, o2)) for o in bset for o2 in self.G.objects]
            or [self.quotient.bottom])

    def s_map(self, bset):
        return self.quotient.join_all(
            [self.unit_value((o2, o)) for o in bset for o2 in self.G.objects]
            or [self.quotient.bottom])

    def _product_of(self, c1, c2) -> DiscreteAction:
        key = (c1, c2)
        if key not in self._prod_cache:
            self._prod_cache[key] = product_action(
                self.site.objects[c1], self.site.objects[c2])
        return self._prod_cache[key]

    def multiply_gens(self, gen1, gen2):
        """m on two generators: the cone value of the product action."""
        key = (gen1, gen2)
        cached = self._mul_cache.get(key)
        if cached is not None:
            return cached
        c1, a1, b1 = gen1
        c2, a2, b2 = gen2
        A = self.site.objects[c1]
        B2 = self.site.objects[c2]
        if A.anchor[a1] != B2.anchor[a2] or A.anchor[b1] != B2.anchor[b2]:
            out = self.quotient.bottom
        else:
            prod = self._product_of(c1, c2)
            out = self.cone_value(prod, (a1, a2), (b1, b2))
        self._mul_cache[key] = out
        return out

    def verify_hopf(self) -> None:
        """The Hopf laws that need only generators, checked on generators.

        Checked here: the cone extension is well defined, the antipode is an
        involution with a o s = t, and both pentagons hold.  a o s = t is
        checked on the empty set and on each point {o} of B, not on all of
        P(objects): s_map, t_map and the antipode are joins over the points
        of their argument by definition, so both sides are.  The frame law,
        product = meet on all elements and s, t being locale morphisms are
        not re-proved over the materialized coend: `reconstruct` shows on
        atoms that phi is an order isomorphism onto O(G) that carries m, s
        and t to their set-level versions, whose laws `verify_hopf_laws`
        checks on atoms too."""
        q = self.quotient
        for name, act in self.site.objects.items():
            for a in act.carrier:
                for b in act.carrier:
                    vals = self.cone_value_all_presentations(act, a, b)
                    if not vals:
                        raise NotDense(f"no presentation of {a!r} at {name}",
                                       witness=(name, a))
                    _law(all(v == vals[0] for v in vals[1:]),
                         "well-definedness of the extension", (name, a, b),
                         InconsistentExtension)
                    if act.anchor[a] == act.anchor[b]:
                        _law(vals[0] == self.atom(name, a, b),
                             "agreement of the extension with the atom",
                             (name, a, b), InconsistentExtension)
        for gen in q.gens:
            _law(self.antipode_gen(self.antipode_gen(gen)) == gen,
                 "the antipode involution", gen)
        for bset in [frozenset(), *(frozenset({o}) for o in self.G.objects)]:
            a_of_s = q.join_all(
                [q.gen_class(self.antipode_gen(g)) for g in self.s_map(bset).raw]
                or [q.bottom])
            _law(a_of_s == self.t_map(bset), "a o s = t", bset)
        for gen in q.gens:
            pairs = self.coend.cocompose(gen)
            e = self.coend.counit(gen)
            lhs = q.join_all([self.multiply_gens(g1, self.antipode_gen(g2))
                              for g1, g2 in pairs] or [q.bottom])
            _law(lhs == self.t_map(e), "the pentagon (L x a)", gen)
            lhs = q.join_all([self.multiply_gens(self.antipode_gen(g1), g2)
                              for g1, g2 in pairs] or [q.bottom])
            _law(lhs == self.s_map(e), "the pentagon (a x L)", gen)


@dataclass
class ReconstructReport:
    coend: GaloisCoend
    hopf: GroupoidHopf
    assign: dict  # generator -> its transporter, the comparison phi
    coend_size: int
    expected_size: int

    @functools.cached_property
    def iso(self) -> SupMorphism:
        """phi from the materialized coend to P(arrows), built when read."""
        q = self.coend.quotient
        L = power_locale(self.hopf.groupoid.arrows)
        phi = induced_morphism(q, self.assign, L)
        return SupMorphism(q.locale(), L, phi.table)


def reconstruct(G: FiniteGroupoid) -> ReconstructReport:
    """Build the coend of the action fiber functor and exhibit the Hopf
    isomorphism onto O(G), verifying all seven structure maps.

    phi sends each generator to its transporter and extends by unions.  It
    is shown bijective on atoms, building neither the coend nor P(arrows):
    (i) phi respects the relations of the presentation; (ii) each arrow f
    has an atom (R[s(f)], f, 1_{s(f)}) with transporter {f}; (iii) each
    generator's class is the join of the atoms of the arrows in its
    transporter.  By (iii) the |arrows| atoms generate the coend; by (ii)
    phi maps it onto P(arrows).  So phi is a bijective sup-map, an order
    isomorphism.  Then e, c, a, m, u, s and t are checked to transport
    along phi on generators (m on every pair of them), s and t on the empty
    set and each point {o}: both sides of each are joins over the points of
    b, so they agree on every b of P(objects) once they agree there.
    With `verify_hopf_laws` on O(G), this proves the coend a frame whose
    product is the meet and whose s and t are locale morphisms;
    `GaloisCoend.verify_hopf` checks the rest on generators."""
    site = default_site(G)
    gc = GaloisCoend(site)
    gc.coend.check_cogebroide()
    gc.verify_hopf()
    hopf = groupoid_to_hopf(G)
    q = gc.quotient
    # canonical comparison: each generator goes to its transporter
    assign = {(cname, a, b): transporter(site.objects[cname], b, a)
              for (cname, a, b) in q.gens}
    try:
        check_relations(q, assign, lambda sets: frozenset().union(*sets))
    except RelationViolated as exc:
        raise NoIsomorphismFound(
            "the transporter cone does not respect the coend presentation",
            witness=exc.witness) from exc
    atom = {f: (f"R[{G.source[f]}]", f, G.unit[G.source[f]])
            for f in G.arrows}
    for f, gen in atom.items():
        _law(assign.get(gen) == frozenset({f}),
             "phi is onto: the atom of each arrow", f, NoIsomorphismFound)
    for gen in q.gens:
        _law(q.gen_class(gen) == q.element(atom[f] for f in assign[gen]),
             "each generator is the join of its arrows' atoms", gen,
             NoIsomorphismFound)

    def phi_el(pel):
        return frozenset().union(*(assign[g] for g in pel.raw))

    def transports(holds, law, witness):
        _law(holds, f"phi transports {law}", witness, NoIsomorphismFound)

    for gen in q.gens:
        transports(hopf.e(assign[gen]) == gc.coend.counit(gen), "e", gen)
        lhs = {(f, g) for (g1, g2) in gc.coend.cocompose(gen)
               for f in assign[g1] for g in assign[g2]
               if G.source[f] == G.target[g]}
        transports(lhs == hopf.c(assign[gen]), "c", gen)
        transports(assign[gc.antipode_gen(gen)] == hopf.a(assign[gen]),
                   "a", gen)
        for gen2 in q.gens:
            transports(phi_el(gc.multiply_gens(gen, gen2))
                       == assign[gen] & assign[gen2], "m", (gen, gen2))
    for o in G.objects:
        for o2 in G.objects:
            transports(phi_el(gc.unit_value((o, o2)))
                       == hopf.u(frozenset({(o, o2)})), "u", (o, o2))
    for bset in [frozenset(), *(frozenset({o}) for o in G.objects)]:
        transports(phi_el(gc.t_map(bset)) == hopf.t(bset), "t", bset)
        transports(phi_el(gc.s_map(bset)) == hopf.s(bset), "s", bset)
    return ReconstructReport(gc, hopf, assign, 2 ** len(atom),
                             2 ** len(G.arrows))


# -- the equivalence of categories ---------------------------------------------


@dataclass
class EquivalenceReport:
    object_count: int
    object_classes: int
    hom_pairs_checked: int
    candidates_checked: int

    ok: bool = True


def actions_up_to_iso(actions) -> list:
    """One representative per equivariant anchor-preserving bijection class."""

    def isomorphic(A, B):
        G = A.groupoid
        stalks = [(A.stalk(o), B.stalk(o)) for o in G.objects]
        if any(len(sa) != len(sb) for sa, sb in stalks):
            return False
        perms = [list(itertools.permutations(sb)) for _, sb in stalks]
        for combo in itertools.product(*perms):
            f = {}
            for (sa, _), img in zip(stalks, combo):
                f.update(dict(zip(sa, img)))
            if check_action_morphism(f, A, B):
                return True
        return False

    reps = []
    for act in actions:
        if not any(isomorphic(act, r) for r in reps):
            reps.append(act)
    return reps


def equivalence_check(G: FiniteGroupoid, max_size: int) -> EquivalenceReport:
    """Objects and homs of the action relation category against comodules.

    Object side: the transporter map is a bijection between actions and
    independently enumerated comodules on every bounded carrier.  Hom side:
    over every fiberwise candidate between class representatives, the
    bijectivity of the restricted pairing and the comodule-morphism
    equation and stability of the relation under the action hold or fail
    together, compared candidate by candidate.  `_hom_space` builds each
    (A, B) once, and its `hom_count` sweeps the candidates once: the sliced
    tables decide, and on every space of at most 2 ** 9 candidates the four
    set-level predicates, built for every candidate in one pass over the
    subsets of its pairs (`_HomSpace.set_level`), must equal the hom table;
    a disagreement raises `Mismatch` at the first candidate it touches.
    """
    actions = enumerate_actions(G, max_size)
    comodules = enumerate_comodules(G, max_size)
    mu_keys = {c.key() for c in comodules}
    if len(mu_keys) != len(comodules):
        raise Mismatch("two enumerated comodules share a mu-table")
    for act in actions:
        c = action_comodule_transpose(act)
        if c.key() not in mu_keys:
            raise Mismatch(f"the transpose of {act!r} is not an enumerated "
                           "comodule")
    by_carrier_a = {}
    for act in actions:
        by_carrier_a.setdefault(act.carrier, []).append(act)
    by_carrier_c = {}
    for c in comodules:
        by_carrier_c.setdefault(c.carrier, []).append(c)
    for carrier in set(by_carrier_a) | set(by_carrier_c):
        if len(by_carrier_a.get(carrier, [])) \
                != len(by_carrier_c.get(carrier, [])):
            raise Mismatch(f"actions and comodules differ in number on "
                           f"{carrier!r}")

    reps = actions_up_to_iso(actions)
    pairs_checked = 0
    candidates = 0
    for A in reps:
        for B in reps:
            hs = _hom_space(A, B)
            pairs_checked += 1
            candidates += 1 << hs.n
            hs.hom_count()
    # composition closure of the homs on the small representatives
    small = [a for a in reps if len(a.carrier) <= 2][:6]
    for A in small:
        for B in small:
            for C in small:
                for R in invariant_relations(A, B):
                    for S in invariant_relations(B, C):
                        T = compose_relations(R, S)
                        if not (relation_is_invariant(T, A, C)
                                and comodule_morphism_holds(T, A, C)):
                            raise Mismatch(f"the composite {T!r} is not a hom")
    return EquivalenceReport(len(actions), len(reps), pairs_checked, candidates)


# -- universal factorization -----------------------------------------------


def factor_cone(gc: GaloisCoend, A: FiniteLocale, g0, g1, tables: dict,
                candidates=None, validate: bool = True):
    """Factor a validated triangle-cone of bijection-like tables through the
    coend: returns the unique locale morphism matching it on atoms.

    `candidates` may carry the precomputed locale morphisms from the
    materialized coend to A (they only depend on the pair of locales)."""
    if validate:
        _validate_cone(gc, A, g0, g1, tables)
    assign = {(cname, a, b): tables[cname][(a, b)]
              for (cname, a, b) in gc.quotient.gens}
    try:
        h = induced_morphism(gc.quotient, assign, A)
    except RelationViolated as exc:
        raise NotACone("the family does not respect the coend presentation",
                       witness=exc.witness) from exc
    h = SupMorphism(gc.quotient.locale(), A, h.table)
    bad = check_locale_morphism(h)
    _law(bad is None, "the factorization is a locale morphism", bad)
    if candidates is None:
        candidates = locale_morphisms(gc.quotient.locale(), A)
    closures = [(gc.quotient.gen_class(g).closure, assign[g])
                for g in gc.quotient.gens]
    matches = [cand for cand in candidates
               if all(cand.table[c] == a for c, a in closures)]
    _law(len(matches) == 1, "uniqueness of the factorization", len(matches))
    return matches[0]


def site_independence_check(G: FiniteGroupoid, extra_actions: tuple) -> bool:
    """The coend over the default site and over the enlarged site are
    isomorphic, through the two factorization maps, inverse to each other."""
    small = GaloisCoend(default_site(G))
    big = GaloisCoend(default_site(G, extra_actions))
    # the big structural cone restricted to the small site factors through
    # the small coend, and vice versa through the extension values
    to_big = induced_morphism(
        small.quotient,
        {g: big.quotient.gen_class(g).closure for g in small.quotient.gens},
        big.quotient.lattice(),
    )
    to_small = induced_morphism(
        big.quotient,
        {(cname, a, b):
         small.cone_value(big.site.objects[cname], a, b).closure
         for (cname, a, b) in big.quotient.gens},
        small.quotient.lattice(),
    )
    for c in small.quotient.lattice().elements:
        if to_small(to_big(c)) != c:
            return False
    for c in big.quotient.lattice().elements:
        if to_big(to_small(c)) != c:
            return False
    sl = SupMorphism(small.quotient.locale(), big.quotient.locale(),
                     to_big.table)
    bl = SupMorphism(big.quotient.locale(), small.quotient.locale(),
                     to_small.table)
    return check_locale_morphism(sl) is None and \
        check_locale_morphism(bl) is None


def _validate_cone(gc: GaloisCoend, A: FiniteLocale, g0, g1, tables) -> None:
    """The bijection axioms on every object, with rows joining to g0 and
    columns to g1 of the anchors (delegated to `table_axioms`), plus the
    triangle law for every generating site map.  The support bound
    t(x, y) <= g0 ∧ g1 follows from the row and column joins."""
    site = gc.site
    for cname, act in site.objects.items():
        rep = table_axioms(A, act.carrier, act.carrier, tables[cname],
                           lambda x: g0.table[frozenset({act.anchor[x]})],
                           lambda y: g1.table[frozenset({act.anchor[y]})])
        if rep.witnesses:
            axiom, witness = next(iter(rep.witnesses.items()))
            raise NotACone(f"axiom {axiom} fails at {cname}: {witness!r}",
                           witness=witness)
    for (name, src, dst, table) in site.maps:
        ts, td = tables[src], tables[dst]
        for x in site.objects[src].carrier:
            for y in site.objects[src].carrier:
                if not A.leq(ts[(x, y)], td[(table[x], table[y])]):
                    raise NotACone(f"triangle law fails along {name}")


def structural_cone_tables(gc: GaloisCoend, h: SupMorphism) -> dict:
    """Push the structural cone through a locale morphism on the carrier."""
    out = {}
    for cname, act in gc.site.objects.items():
        out[cname] = {
            (a, b): h.table[gc.cone_value(act, a, b).closure]
            for a in act.carrier for b in act.carrier
        }
    return out


def enumerate_bijection_cones(gc: GaloisCoend, A: FiniteLocale,
                              g0: SupMorphism, g1: SupMorphism):
    """All triangle-cones of bijection-like tables into (A, g0, g1).

    Tables on the representables are searched row by row (rows must decompose
    the row cap into disjoint pieces under the entry caps), and values on the
    terminal object are forced.  Every candidate is then validated in full
    before being yielded.
    """
    site = gc.site
    reps = [n for n in site.objects if n.startswith("R[")]

    def rows_for(act, x, A_elems):
        cap_row = g0.table[frozenset({act.anchor[x]})]
        cols = act.carrier
        caps = [A.meet(cap_row, g1.table[frozenset({act.anchor[y]})])
                for y in cols]

        def rec(i, used, row):
            if i == len(cols):
                if A.join_all(row) == cap_row:
                    yield tuple(row)
                return
            for v in A_elems:
                if not A.leq(v, caps[i]):
                    continue
                if A.meet(v, used) != A.bottom:
                    continue
                yield from rec(i + 1, A.join(used, v), row + [v])

        yield from rec(0, A.bottom, [])

    def tables_for(rep_name):
        act = site.objects[rep_name]
        per_row = [list(rows_for(act, x, A.elements)) for x in act.carrier]
        col_tops = [g1.table[frozenset({act.anchor[y]})] for y in act.carrier]

        def col_ok(col, top):  # column join and disjointness
            return A.join_all(col) == top and all(
                A.meet(col[i], col[j]) == A.bottom
                for i in range(len(col)) for j in range(i + 1, len(col)))

        for combo in itertools.product(*per_row):
            if all(map(col_ok, zip(*combo), col_tops)):
                yield {(x, y): v for x, row in zip(act.carrier, combo)
                       for y, v in zip(act.carrier, row)}

    for combo in itertools.product(*(list(tables_for(r)) for r in reps)):
        tables = dict(zip(reps, combo))
        term = site.objects["1"]
        tables["1"] = {
            (o, o2): A.meet(g0.table[frozenset({o})], g1.table[frozenset({o2})])
            for o in term.carrier for o2 in term.carrier
        }
        try:
            _validate_cone(gc, A, g0, g1, tables)
        except NotACone:
            continue
        yield tables
