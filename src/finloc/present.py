"""Presented sup-lattices: least closure-operator quotients of a free
sup-lattice on generators, plus tensor products built from presentations.

A relation (S, T) asserts that the joins of the two generator subsets
coincide in the quotient.  The least closure operator collapsing every
relation is computed by saturation of the two implication rules S => T and
T => S on int masks over generator indices; equality of presented elements
is equality of closures, so nothing needs to be materialized to decide it.
`lattice()` materializes the closed sets as masks and orders them by
inclusion with `FiniteSupLattice.from_closed_sets`, the one builder of
lattice tables: the join of two closed sets is the least closed set
containing their union, found among the members without calling the
closure again.  Materializing the closed sets, or the relations presenting a
lattice or a tensor (which grow as a square), stops with SizeBound as soon
as they pass `MAX_CARRIER`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainMismatch, Mismatch, RelationViolated
from .lattice import (
    FiniteSupLattice,
    SupMorphism,
    _bits,
    _set_key,
    check_carrier,
    is_frame,
)


@dataclass(frozen=True)
class JoinPresentation:
    gens: tuple
    relations: tuple  # of (frozenset, frozenset) pairs of generator subsets

    def __post_init__(self):
        gset = set(self.gens)
        if len(gset) != len(self.gens):
            raise DomainMismatch("duplicate generators")
        for s, t in self.relations:
            if not (set(s) <= gset and set(t) <= gset):
                raise DomainMismatch(f"relation ({set(s)!r}, {set(t)!r}) "
                                     "mentions unknown generators")


class PElement:
    """An element of a presented sup-lattice: a set of generators up to closure."""

    __slots__ = ("quotient", "raw", "_closure")

    def __init__(self, quotient: "PresentedSupLattice", raw: frozenset):
        self.quotient = quotient
        self.raw = frozenset(raw)
        self._closure = None

    @property
    def closure(self) -> frozenset:
        if self._closure is None:
            self._closure = self.quotient.closure(self.raw)
        return self._closure

    def join(self, other: "PElement") -> "PElement":
        return PElement(self.quotient, self.raw | other.raw)

    def leq(self, other: "PElement") -> bool:
        return self.raw <= other.closure or self.closure <= other.closure

    def __eq__(self, other):
        if not isinstance(other, PElement) or other.quotient is not self.quotient:
            return NotImplemented
        if self.raw == other.raw:
            return True
        return self.closure == other.closure

    def __hash__(self):
        return hash(self.closure)

    def __repr__(self):
        return f"<PElement {sorted(map(repr, self.raw))}>"


class PresentedSupLattice:
    """Quotient of the free sup-lattice on `gens` by join relations."""

    def __init__(self, presentation: JoinPresentation):
        self.presentation = presentation
        self.gens = presentation.gens
        self._gi = {g: i for i, g in enumerate(self.gens)}
        rules = []
        for s, t in presentation.relations:
            s = frozenset(self._gi[g] for g in s)
            t = frozenset(self._gi[g] for g in t)
            rules.append((s, t - s))
            rules.append((t, s - t))
        rules = [(p, c) for p, c in rules if c or not p]
        # rule r fires once its premise is inside the set: it adds _cons[r]
        self._cons = [sum(1 << g for g in c) for _, c in rules]
        self._by_gen = [[] for _ in self.gens]
        self._free = []  # rules with empty premise always fire
        for r, (prem, _) in enumerate(rules):
            if not prem:
                self._free.append(r)
            for g in prem:
                self._by_gen[g].append(r)
        self._premlen = [len(p) for p, _ in rules]
        self._gen_closures = {}
        self._relation_ix = self._closed_ix = None  # index forms, on first use
        self._lattice = None
        self._locale = None

    # -- closure ---------------------------------------------------------

    def closure(self, raw) -> frozenset:
        mask = 0
        for g in raw:
            mask |= 1 << self._gi[g]
        return frozenset(map(self.gens.__getitem__, _bits(self._close(mask))))

    def _close(self, mask: int) -> int:
        """The least closed superset of a set of generator indices, as masks:
        each round decrements the premise counts of the rules that watch the
        bits just added, and adds the consequents of the rules that fire."""
        counts = self._premlen.copy()
        by_gen, cons = self._by_gen, self._cons
        fired = list(self._free)
        new = mask
        while new or fired:
            for g in _bits(new):
                for r in by_gen[g]:
                    counts[r] -= 1
                    if not counts[r]:
                        fired.append(r)
            new = 0
            for r in fired:
                new |= cons[r]
            fired.clear()
            new &= ~mask
            mask |= new
        return mask

    # -- elements ----------------------------------------------------------

    def element(self, gens_subset) -> PElement:
        sub = frozenset(gens_subset)
        for g in sub:
            if g not in self._gi:
                raise DomainMismatch(f"{g!r} is not a generator")
        return PElement(self, sub)

    def gen_class(self, g) -> PElement:
        """The class of generator g, with its closure computed once per
        presentation."""
        el = self.element((g,))
        el._closure = self.gen_closure(g)
        return el

    def gen_closure(self, g) -> frozenset:
        """The closure of generator g, computed once per presentation.  The
        cache holds closures, not elements, so that it keeps no reference
        back to the presentation."""
        c = self._gen_closures.get(g)
        if c is None:
            c = self._gen_closures[g] = self.closure((g,))
        return c

    @property
    def bottom(self) -> PElement:
        return self.element(())

    @property
    def top(self) -> PElement:
        return self.element(self.gens)

    def join_all(self, elements) -> PElement:
        raw = frozenset().union(*(e.raw for e in elements)) if elements else frozenset()
        return PElement(self, raw)

    # -- materialization ---------------------------------------------------

    def lattice(self) -> FiniteSupLattice:
        """All closed sets, ordered by inclusion, as generator-index masks.

        Every closed set is the closure of a union of generator classes, so
        the family is saturated one class at a time: each class that is not
        yet a member is joined with every member found so far.
        """
        if self._lattice is not None:
            return self._lattice
        close = self._close
        seen = {close(0)}
        for g in range(len(self.gens)):
            cg = close(1 << g)
            if cg in seen:  # a join of earlier classes: nothing new
                continue
            for a in list(seen):
                u = a | cg
                if u not in seen:
                    seen.add(close(u))
                    check_carrier(len(seen), "the presented lattice")
        gens = self.gens
        family = sorted(((frozenset(map(gens.__getitem__, _bits(m))), m)
                         for m in seen), key=lambda sm: _set_key(sm[0]))
        self._lattice = FiniteSupLattice.from_closed_sets(
            [s for s, _ in family], [m for _, m in family])
        return self._lattice

    def locale(self):
        """The materialized carrier as a finite locale (it must be a frame)."""
        if self._locale is None:
            from .lattice import FiniteLocale

            self._locale = FiniteLocale.from_lattice(self.lattice())
        return self._locale

    def __repr__(self):
        return (f"<PresentedSupLattice {len(self.gens)} gens, "
                f"{len(self.presentation.relations)} relations>")


def _relation_indices(q: PresentedSupLattice) -> list:
    """(S, T) and their generator indices for each relation of q, built once
    per presentation.  A relation whose sides are equal, or that repeats an
    earlier one in either orientation, is left out: it fails exactly when
    that earlier one does, and so can never be the first to fail."""
    if q._relation_ix is None:
        gi, seen, out = q._gi, set(), []
        for s, t in q.presentation.relations:
            if s != t and frozenset((s, t)) not in seen:
                seen.add(frozenset((s, t)))
                out.append((s, t, tuple(map(gi.__getitem__, s)),
                            tuple(map(gi.__getitem__, t))))
        q._relation_ix = out
    return q._relation_ix


def _closed_indices(q: PresentedSupLattice) -> list:
    """Each element of q.lattice(), a closed set, as the tuple of its
    generator indices, built once per presentation."""
    if q._closed_ix is None:
        gi = q._gi
        q._closed_ix = [tuple(map(gi.__getitem__, c)) for c in q.lattice().elements]
    return q._closed_ix


def check_relations(q: PresentedSupLattice, rows: list, top: int) -> None:
    """rows[i] is the up row of generator i's image, so a join is the AND
    of rows from `top`, the empty join's row.  Both sides of every relation
    must have one join, so that the assignment extends to a sup-morphism
    out of the quotient; raises RelationViolated with the first relation
    that fails.  In a power set, the complement of a set can stand for its
    up row: the complement of a union is the AND of the complements."""
    for s, t, si, ti in _relation_indices(q):
        lhs = rhs = top
        for i in si:
            lhs &= rows[i]
        for i in ti:
            rhs &= rows[i]
        if lhs != rhs:
            raise RelationViolated("assignment sends the sides of a relation "
                                   "to different joins", witness=(s, t))


def induced_morphism(q: PresentedSupLattice, assign: dict,
                     M: FiniteSupLattice) -> SupMorphism:
    """The unique sup-morphism from the quotient extending a relation-respecting
    generator assignment, tabulated on the materialized quotient.

    On M's up rows: each generator's value is read once as its up row, the
    relations are checked on those rows (`check_relations`), and each
    closed set's value is the element whose up row is the AND of its
    generators' rows; elements come back only for the table."""
    for g in q.gens:
        if g not in assign:
            raise DomainMismatch(f"assignment undefined on generator {g!r}")
    up = M.up_rows
    rows = [up[M.index(assign[g])] for g in q.gens]
    top = up[M.bottom_index]
    check_relations(q, rows, top)
    lat, els, at = q.lattice(), M.elements, M.up_row_index
    table = {}
    for c, gi in zip(lat.elements, _closed_indices(q)):
        u = top
        for i in gi:
            u &= rows[i]
        table[c] = els[at[u]]
    return SupMorphism(lat, M, table)


# -- presentations of existing lattices -------------------------------------


@dataclass(frozen=True)
class ModulePresentation:
    """A generating set for a lattice together with a presentation of it."""

    lattice: FiniteSupLattice
    gens: tuple
    value: dict
    relations: tuple

    def decompose(self, element) -> frozenset:
        """Generators whose join is `element` (the ones lying below it)."""
        L = self.lattice
        out = frozenset(g for g in self.gens if L.leq(self.value[g], element))
        if L.join_all(self.value[g] for g in out) != element:
            raise Mismatch(f"the generators below {element!r} do not join to it",
                           witness=element)
        return out


def lattice_presentation(M: FiniteSupLattice, tag=None) -> ModulePresentation:
    """Present M by join-irreducibles when distributive, else by all elements.

    Generator labels are (tag, element) pairs when a tag is given, so that
    presentations of different factors can share a tensor without clashing.
    """
    distributive, _ = is_frame(M)
    if distributive:
        gens_e = M.join_irreducibles()
        rels = []
        for j in gens_e:
            for k in gens_e:
                if j != k and M.leq(j, k):
                    rels.append((frozenset({_lab(tag, j), _lab(tag, k)}),
                                 frozenset({_lab(tag, k)})))
            check_carrier(len(rels), "the relation list of the presentation")
    else:
        gens_e = tuple(e for e in M.elements)
        rels = [(frozenset({_lab(tag, M.bottom)}), frozenset())]
        for i, a in enumerate(gens_e):
            for b in gens_e[i:]:
                j = M.join(a, b)
                if j != a and j != b:
                    rels.append((frozenset({_lab(tag, j)}),
                                 frozenset({_lab(tag, a), _lab(tag, b)})))
                elif j == a and b != a:
                    rels.append((frozenset({_lab(tag, a), _lab(tag, b)}),
                                 frozenset({_lab(tag, a)})))
            check_carrier(len(rels), "the relation list of the presentation")
    gens = tuple(_lab(tag, e) for e in gens_e)
    value = {_lab(tag, e): e for e in gens_e}
    return ModulePresentation(M, gens, value, tuple(rels))


def _lab(tag, e):
    return e if tag is None else (tag, e)


# -- tensor products ---------------------------------------------------------


class TensorLattice(PresentedSupLattice):
    """M (x) N presented on pairs of generators, with the universal bimorphism."""

    def __init__(self, pm: ModulePresentation, pn: ModulePresentation,
                 relations):
        self.left = pm
        self.right = pn
        gens = tuple((g, h) for g in pm.gens for h in pn.gens)
        super().__init__(JoinPresentation(gens, tuple(relations)))

    def pair(self, m, n) -> PElement:
        """The image of (m, n) under the universal bimorphism."""
        return self.element(
            (g, h)
            for g in self.left.decompose(m)
            for h in self.right.decompose(n)
        )


def _tensor_relations(pm: ModulePresentation, pn: ModulePresentation):
    """Bilinearity relations of pm (x) pn, built once they and its generator
    pairs are known to fit the carrier bound."""
    check_carrier(len(pm.gens) * len(pn.gens), "the generator pairs of the tensor")
    check_carrier(len(pm.relations) * len(pn.gens)
                  + len(pn.relations) * len(pm.gens),
                  "the relation list of the tensor")
    return ([(frozenset((g, h) for g in s), frozenset((g, h) for g in t))
             for s, t in pm.relations for h in pn.gens]
            + [(frozenset((g, h) for h in s), frozenset((g, h) for h in t))
               for s, t in pn.relations for g in pm.gens])


def tensor(M: FiniteSupLattice, N: FiniteSupLattice) -> TensorLattice:
    """The sup-lattice tensor product M (x) N, presented on the tagged
    `lattice_presentation` of each factor: the quotient of the free lattice
    on generator pairs by bilinearity of binary and empty joins.
    """
    pm, pn = lattice_presentation(M, tag="L"), lattice_presentation(N, tag="R")
    return TensorLattice(pm, pn, _tensor_relations(pm, pn))


def tensor_over(B, Mmod, Nmod) -> TensorLattice:
    """M (x)_B N: the tensor with (b.m, n) identified with (m, b.n).

    Mmod / Nmod provide .lattice, .act(b, m) and .presentation; the right
    action on M is its left action (B commutative).
    """
    pm, pn = Mmod.presentation, Nmod.presentation
    rels = _tensor_relations(pm, pn)
    check_carrier(len(B) * len(pm.gens) * len(pn.gens),
                  "the B-balanced relation list of the tensor")
    for b in B.elements:
        for g in pm.gens:
            bg = Mmod.act(b, pm.value[g])
            for h in pn.gens:
                bh = Nmod.act(b, pn.value[h])
                rels.append((
                    frozenset((g2, h) for g2 in pm.decompose(bg)),
                    frozenset((g, h2) for h2 in pn.decompose(bh)),
                ))
    return TensorLattice(pm, pn, rels)
