"""Finite sup-lattices, finite locales (frames), and their morphisms.

Elements are opaque hashable ids.  The order is stored as one bitmask per
element (its up-set over element indices) and its down-set rows.  Every
finite lattice is its family of principal down-sets ordered by inclusion,
so one step validates all lattices: `FiniteSupLattice._tabulate`, for a
family of sets closed under intersection, given as int masks, checked
against its meet-irreducible members.  A lattice keeps only its rows and
no table: the join of x and y is the element whose up-set row is the AND
of theirs, and their meet the one whose down-set row is.
`from_closed_sets` passes such families on (power sets, down-set
lattices, presented lattices, and function lattices as blocks of down-set
rows), and `from_order` checks an order given as a predicate and passes on
its principal down-sets.  Preservation of joins is tested by adjunction
(`join_failure`), and of meets by the same test on the order duals; the
frame law is join preservation by each meet row.  Every carrier has at most
`MAX_CARRIER` elements, checked by `check_carrier` before the carrier is
enumerated.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Callable, Iterable

from .errors import (
    ConditionIFails,
    ConditionIIFails,
    DomainMismatch,
    Mismatch,
    MissingJoin,
    NotAFrame,
    NotAModule,
    NotAPartialOrder,
    SizeBound,
)

# The one carrier bound.  A carrier keeps n-bit up and down rows, 2 n^2 bits
# in all: 4 MB at the bound.  Tables over a product of two carriers (a
# module's action, eps) are not bounded by it yet (ROADMAP item 4).
MAX_CARRIER = 4096


def check_carrier(size: int, what: str) -> None:
    """SizeBound unless a carrier of `size` elements fits `MAX_CARRIER`."""
    if size > MAX_CARRIER:
        raise SizeBound(f"{what} has {size} elements, over the carrier bound "
                        f"{MAX_CARRIER}")


def _set_key(s) -> tuple:
    """A total order on finite sets: by size, then by sorted member reprs."""
    return len(s), sorted(map(repr, s))


def _canon(elements) -> tuple:
    """Deterministic element order: sets by `_set_key` (their `<` is
    inclusion, a partial order), others by natural sort when possible,
    repr otherwise."""
    elements = list(elements)
    if all(isinstance(e, (set, frozenset)) for e in elements):
        return tuple(sorted(elements, key=_set_key))
    try:
        return tuple(sorted(elements))
    except TypeError:
        return tuple(sorted(elements, key=repr))


@dataclass(frozen=True)
class Violation:
    """A law failure with a witness that violates it."""

    kind: str
    witness: tuple

    def __bool__(self):  # a violation is truthy, `None` means ok
        return True


class FiniteSupLattice:
    """A finite poset with all joins (hence all meets): a complete lattice."""

    __slots__ = ("elements", "_ix", "_up", "_up_ix", "_downs", "_bot_i",
                 "_top_i")

    def __init__(self, elements, up, up_ix, downs, bot_i, top_i):
        # Trusted constructor; build_suplattice, from_order and
        # from_closed_sets validate in _tabulate.  up_ix is up-set row ->
        # index, downs is (down-set rows, row -> index).
        self.elements = elements
        self._ix = {e: i for i, e in enumerate(elements)}
        self._up = up
        self._up_ix = up_ix
        self._downs = downs
        self._bot_i = bot_i
        self._top_i = top_i

    # -- construction ---------------------------------------------------

    @classmethod
    def from_order(cls, elements, leq: Callable[[object, object], bool]):
        """Validate a reflexive order predicate and build its lattice.

        The order checks walk the set bits of each up-set row.  The lattice
        is that of the principal down-sets under inclusion (`_tabulate`),
        so the join of i and j is the element whose up-set is up[i] & up[j]
        and their meet the one whose down-set is down[i] & down[j].
        """
        elements = tuple(elements)
        n = len(elements)
        check_carrier(n, "the ordered carrier")
        ix = {e: i for i, e in enumerate(elements)}
        if len(ix) != n:
            raise NotAPartialOrder("duplicate element ids")
        bits = [1 << j for j in range(n)]
        up = [0] * n
        for i, e in enumerate(elements):
            # the row is a sum of distinct powers of two, one per f >= e
            m = sum(itertools.compress(bits, map(leq, itertools.repeat(e), elements)))
            if not (m >> i) & 1:
                raise NotAPartialOrder(f"order not reflexive at {e!r}", witness=(e,))
            up[i] = m
        down = [0] * n
        for i, ui in enumerate(up):
            bit_i = 1 << i
            for j in _bits(ui):
                if j != i and (up[j] >> i) & 1:
                    raise NotAPartialOrder(
                        f"antisymmetry fails on {elements[i]!r}, {elements[j]!r}",
                        witness=(elements[i], elements[j]),
                    )
                if up[j] & ~ui:
                    raise NotAPartialOrder(
                        f"transitivity fails at {elements[i]!r} <= {elements[j]!r}",
                        witness=(elements[i], elements[j]),
                    )
                down[j] |= bit_i
        # i <= j iff down[i] is inside down[j]: the principal down-sets are
        # a family under inclusion, with up and down rows already at hand
        ix = {d: i for i, d in enumerate(down)}  # rows differ by antisymmetry
        return cls._tabulate(elements, down, ix, _bottom_index(down, ix), up, down)

    @classmethod
    def from_closed_sets(cls, elements, masks):
        """A family of closed sets ordered by inclusion, with no order calls.

        masks[i] is the closed set elements[i] as an int over a small ground
        set, and the family must be closed under intersection.  Once its
        bottom is found, the up- and down-set rows come from the masks
        (`_inclusion_rows`), and `_tabulate` checks the rest.
        """
        elements, masks = tuple(elements), tuple(masks)
        n = len(elements)
        check_carrier(n, "the closed-set family")
        if len(masks) != n:
            raise DomainMismatch(f"{len(masks)} closed sets for {n} elements")
        ix = {m: i for i, m in enumerate(masks)}
        if len(ix) != n or len(set(elements)) != n:
            raise NotAPartialOrder("duplicate elements or closed sets")
        bot_i = _bottom_index(masks, ix)
        return cls._tabulate(elements, masks, ix, bot_i, *_inclusion_rows(masks))

    @classmethod
    def _tabulate(cls, elements, masks, ix: dict, bot_i: int, up, down):
        """The lattice of distinct masks under inclusion, given the index of
        each mask, the bottom's index and the up- and down-set rows.

        The family must have a top and be closed under intersection; then
        every pair has a join, the intersection of its upper bounds.  With a
        top, closure is checked on the meet-irreducible members M alone,
        those m != top whose strict up-set row is principal: the family is
        closed iff masks[a] & masks[m] is a member for every member a and
        every m in M, O(n |M|) lookups.  For then, by downward induction,
        every member is an intersection of members of M: the top is the
        empty one, and a member a neither the top nor in M has two minimal
        strict upper bounds u1 != u2.  Intersecting u1 with the members of
        M that make up u2, one at a time, stays in the family, so u1 & u2 is
        a member.  It contains a and lies strictly inside u1, which is not
        inside u2, so it is a by the minimality of u1.  In the same way,
        intersecting a with the members of M that make up b shows that
        a & b is a member for all a and b.  Only when
        there is no top or this check fails is every pair scanned, joins
        before meets in row-major order, and the first pair without one
        raises MissingJoin.  The masks are not kept: once the family is a
        lattice, its up and down rows answer every join and meet.
        """
        up_ix = {u: i for i, u in enumerate(up)}
        down_ix = {d: i for i, d in enumerate(down)}
        top_i = down_ix.get((1 << len(masks)) - 1)
        meet_irr = [masks[i] for i, u in enumerate(up)
                    if i != top_i and u & ~(1 << i) in up_ix]
        member = ix.__contains__
        if top_i is None or not all(all(map(member, map(m.__and__, masks)))
                                    for m in meet_irr):
            _missing_bound(elements, masks, ix, up, up_ix)
        return cls(elements, up, up_ix, (down, down_ix), bot_i, top_i)

    # -- basic queries ----------------------------------------------------

    def index(self, x):
        try:
            return self._ix[x]
        except KeyError:
            raise DomainMismatch(f"{x!r} is not an element of this lattice") from None

    def __contains__(self, x):
        return x in self._ix

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    @property
    def bottom(self):
        return self.elements[self._bot_i]

    @property
    def top(self):
        return self.elements[self._top_i]

    def leq(self, x, y) -> bool:
        return (self._up[self.index(x)] >> self.index(y)) & 1 == 1

    # the join of x and y is the element whose up-set row is up[x] & up[y],
    # their meet the one whose down-set row is down[x] & down[y]
    def join(self, x, y):
        up = self._up
        return self.elements[self._up_ix[up[self.index(x)] & up[self.index(y)]]]

    def meet(self, x, y):
        down, down_ix = self._downs
        return self.elements[down_ix[down[self.index(x)] & down[self.index(y)]]]

    def join_all(self, xs: Iterable):
        # join_index's fold, inlined: join_all is called per element of
        # every morphism locale_morphisms builds
        up, index = self._up, self.index
        u = up[self._bot_i]  # the bottom's up row is all ones
        for x in xs:
            u &= up[index(x)]
        return self.elements[self._up_ix[u]]

    def down_set(self, x):
        xi = self.index(x)
        return tuple(e for j, e in enumerate(self.elements) if (self._up[j] >> xi) & 1)

    # -- index kernel: element i is self.elements[i] ---------------------

    @property
    def bottom_index(self) -> int:
        return self._bot_i

    @property
    def top_index(self) -> int:
        return self._top_i

    def join_index(self, idxs: Iterable) -> int:
        """The index of the join of the elements with indices idxs: the AND
        of their up rows, from the bottom's row (all ones), looked up once."""
        up = self._up
        u = up[self._bot_i]
        for i in idxs:
            u &= up[i]
        return self._up_ix[u]

    def meet_index(self, i: int, k: int) -> int:
        """The index of the meet of elements i and k."""
        down, down_ix = self._downs
        return down_ix[down[i] & down[k]]

    @property
    def down_rows(self) -> list:
        """down_rows[i] masks the indices of the elements below element i."""
        return self._downs[0]

    def meet_row(self, i: int) -> list:
        """meet_row(i)[j] is the index of the meet of elements i and j."""
        down, down_ix = self._downs
        return list(map(down_ix.__getitem__, map(down[i].__and__, down)))

    def join_irreducibles(self) -> tuple:
        """Elements that are not the join of their strict down-set.

        j is join-irreducible iff its strict down-set is principal, i.e. is
        the down-set row of its one lower cover.  The bottom's strict
        down-set is empty, and no row is.
        """
        down, down_ix = self._downs
        return tuple(e for i, e in enumerate(self.elements)
                     if down[i] & ~(1 << i) in down_ix)

    def __repr__(self):
        return f"<{type(self).__name__} {len(self.elements)} elements>"


def _bits(mask: int):
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _bottom_index(masks, ix: dict) -> int:
    """The index of the member that is the intersection of all masks."""
    bot_i = ix.get(functools.reduce(operator.and_, masks, -1))
    if bot_i is None:
        raise MissingJoin("no least element (empty subset has no join)",
                          witness=frozenset())
    return bot_i


def _inclusion_rows(masks) -> tuple[list, list]:
    """Up-set and down-set rows of a family of int masks under inclusion.

    has[x] is the set of members containing ground element x, so the
    members above masks[i] are the AND of has[x] over its elements, and
    those below it the AND of the complements over the rest.
    """
    has = [0] * max(masks).bit_length()
    for j, m in enumerate(masks):
        for x in _bits(m):
            has[x] |= 1 << j
    up, down = [], []
    full = (1 << len(masks)) - 1
    for m in masks:
        u = d = full
        for h in has:
            if m & 1:
                u &= h
            else:
                d &= ~h
            m >>= 1
        up.append(u)
        down.append(d)
    return up, down


def _missing_bound(elements, masks, ix: dict, up, up_ix: dict):
    """Raise MissingJoin at the first pair, row-major, with no least upper
    bound (no member with up-set row up[i] & up[j]), or else at the first
    whose intersection is no member."""
    for i, u in enumerate(up):
        row = list(map(up_ix.get, map(u.__and__, up)))
        if None in row:
            _no_bound(elements, i, row.index(None), "least upper")
    i, j = next((i, j) for i, m in enumerate(masks)
                for j, m2 in enumerate(masks) if m & m2 not in ix)
    _no_bound(elements, i, j, "greatest lower")


def _no_bound(elements, i, j, bound: str):
    raise MissingJoin(
        f"{{{elements[i]!r}, {elements[j]!r}}} has no {bound} bound",
        witness=frozenset({elements[i], elements[j]}),
    )


def build_suplattice(elements, leq_pairs) -> FiniteSupLattice:
    """Validated lattice from generating order pairs (reflexive-transitively closed)."""
    elements = _canon(elements)
    check_carrier(len(elements), "the declared carrier")
    ix = {e: i for i, e in enumerate(elements)}
    if len(ix) != len(elements):
        raise NotAPartialOrder("duplicate element ids")
    n = len(elements)
    up = [1 << i for i in range(n)]
    for a, b in leq_pairs:
        if a not in ix or b not in ix:
            raise DomainMismatch(f"order pair ({a!r}, {b!r}) mentions unknown elements")
        up[ix[a]] |= 1 << ix[b]
    changed = True
    while changed:  # transitive closure (Warshall over bitmask rows)
        changed = False
        for i in range(n):
            m, b = up[i], up[i]
            while b:
                j = (b & -b).bit_length() - 1
                m |= up[j]
                b &= b - 1
            if m != up[i]:
                up[i] = m
                changed = True
    return FiniteSupLattice.from_order(
        elements, lambda x, y: (up[ix[x]] >> ix[y]) & 1 == 1
    )


def is_frame(L: FiniteSupLattice):
    """Finite frame law: a ∧ (y ∨ z) = (a ∧ y) ∨ (a ∧ z) for all triples.

    L is a frame iff every map a ∧ − preserves joins, tested on each meet
    row by `join_failure`.  Returns (True, None) or (False, (a, y, z)) with
    the first bad triple in canonical element order: the first failing row
    is scanned for its first bad pair.
    """
    els, jn = L.elements, L.join_index
    for a in range(len(els)):
        row = L.meet_row(a)
        if join_failure(row, L, L) is not None:
            y, z = next((y, z) for y in range(len(els)) for z in range(len(els))
                        if row[jn((y, z))] != jn((row[y], row[z])))
            return False, (els[a], els[y], els[z])
    return True, None


class FiniteLocale(FiniteSupLattice):
    """A finite frame: finite meets distribute over all joins."""

    __slots__ = ()

    @classmethod
    def from_lattice(cls, L: FiniteSupLattice) -> "FiniteLocale":
        ok, witness = is_frame(L)
        if not ok:
            raise NotAFrame(
                f"meet does not distribute over join at {witness!r}", witness=witness
            )
        return cls(L.elements, L._up, L._up_ix, L._downs, L._bot_i, L._top_i)


def build_locale(elements, leq_pairs) -> FiniteLocale:
    return FiniteLocale.from_lattice(build_suplattice(elements, leq_pairs))


@functools.lru_cache(maxsize=1)
def two() -> FiniteLocale:
    """The initial locale: the two-element frame 0 < 1."""
    return build_locale((0, 1), [(0, 1)])


# -- morphisms ------------------------------------------------------------


class SupMorphism:
    """An element-to-element map between lattices, intended to preserve joins."""

    __slots__ = ("dom", "cod", "table")

    def __init__(self, dom: FiniteSupLattice, cod: FiniteSupLattice, table: dict):
        missing = [x for x in dom.elements if x not in table]
        if missing:
            raise DomainMismatch(f"map undefined on {missing[0]!r}")
        for x, y in table.items():
            if x not in dom:
                raise DomainMismatch(f"{x!r} is not in the domain")
            if y not in cod:
                raise DomainMismatch(f"value {y!r} is not in the codomain")
        self.dom = dom
        self.cod = cod
        self.table = dict(table)

    def __call__(self, x):
        return self.table[x]

    def then(self, other: "SupMorphism") -> "SupMorphism":
        if other.dom is not self.cod and other.dom.elements != self.cod.elements:
            raise DomainMismatch("composition domains do not match")
        return SupMorphism(self.dom, other.cod,
                           {x: other.table[y] for x, y in self.table.items()})

    def __eq__(self, other):
        return (isinstance(other, SupMorphism) and self.table == other.table
                and self.dom.elements == other.dom.elements
                and self.cod.elements == other.cod.elements)

    def __hash__(self):
        return hash(tuple(sorted(self.table.items(), key=repr)))

    def __repr__(self):
        return f"<SupMorphism {len(self.dom)}->{len(self.cod)}>"


def join_failure(f, D: FiniteSupLattice, C: FiniteSupLattice):
    """Where an index map f: D -> C fails to preserve joins, or None.

    f[i] is the C-index of the image of D's element i.  A map between finite
    lattices preserves all joins, the empty one included, iff it has a right
    adjoint, i.e. iff every preimage {i : f[i] <= c} is a principal down-set
    of D (Davey & Priestley, *Introduction to Lattices and Order*, ch. 7);
    each preimage is one bitmask and one lookup among D's down-set rows.

    Returns () when f misses the bottom, else a pair (i, j) of D-indices with
    f(i v j) != f(i) v f(j), found in O(|D|) from a non-principal preimage S:
    fold S with joins, and the first step that f does not preserve is the
    pair.  If every step holds, the fold's result g lies in S and some i <= g
    lies outside it, so f(i v g) = f(g) is below c while f(i) is not.
    """
    if f[D._bot_i] != C._bot_i:
        return ()
    bucket = {}
    for i, v in enumerate(f):
        bucket[v] = bucket.get(v, 0) | 1 << i
    pre = [0] * len(C.elements)
    for v, mask in bucket.items():
        for c in _bits(C._up[v]):
            pre[c] |= mask
    down, down_ix = D._downs
    for s in pre:
        if s in down_ix:
            continue
        g = D._bot_i
        for i in _bits(s):
            gi = D.join_index((g, i))
            if f[gi] != C.join_index((f[g], f[i])):
                return g, i
            g = gi
        return next(_bits(down[g] & ~s)), g
    return None


def _dual(L: FiniteSupLattice) -> FiniteSupLattice:
    """L with the order reversed, a view on L's own rows and element index:
    down rows become up rows and up rows down rows, so join and meet swap,
    and so do bottom and top.  No constructor runs, so nothing is rebuilt."""
    D = object.__new__(FiniteSupLattice)
    D.elements, D._ix, D._bot_i, D._top_i = L.elements, L._ix, L._top_i, L._bot_i
    (D._up, D._up_ix), D._downs = L._downs, (L._up, L._up_ix)
    return D


def _preservation(f, D, C, bottom: str, join: str) -> Violation | None:
    """`join_failure` of the index map f as a Violation of the given kinds."""
    bad = join_failure(f, D, C)
    if bad is None:
        return None
    if bad == ():
        return Violation(bottom, (D.elements[D._bot_i],))
    return Violation(join, (D.elements[bad[0]], D.elements[bad[1]]))


def _index_map(f: SupMorphism) -> list:
    cix, t = f.cod._ix, f.table
    return [cix[t[x]] for x in f.dom.elements]


def check_sup_morphism(f: SupMorphism) -> Violation | None:
    """ok iff f preserves bottom and binary joins (hence all joins)."""
    return _preservation(_index_map(f), f.dom, f.cod, "bottom", "join")


def check_locale_morphism(f: SupMorphism) -> Violation | None:
    """ok iff sup-morphism that also preserves top and binary meets.

    The meet half is the join test between the order duals: their empty
    join is the top."""
    dom, cod, ix = f.dom, f.cod, _index_map(f)
    bad = _preservation(ix, dom, cod, "bottom", "join")
    if bad:
        return bad
    if not isinstance(dom, FiniteLocale) or not isinstance(cod, FiniteLocale):
        raise DomainMismatch("locale morphism endpoints must be locales")
    return _preservation(ix, _dual(dom), _dual(cod), "top", "meet")


# -- free constructions ---------------------------------------------------


class PowerLocale(FiniteLocale):
    """The powerset frame P(X), with the singleton map x -> {x}."""

    __slots__ = ("base_set",)

    def singleton(self, x):
        if x not in self.base_set:
            raise DomainMismatch(f"{x!r} not in base set")
        return frozenset({x})


def power_locale(X) -> PowerLocale:
    base = _canon(X)
    check_carrier(2 ** len(base), f"P(X) with |X| = {len(base)}")
    subsets = [frozenset()]  # doubling keeps every subset after its subsets
    for x in base:
        subsets += [s | {x} for s in subsets]
    bit = {x: 1 << k for k, x in enumerate(base)}
    loc = PowerLocale.from_closed_sets(
        subsets, [sum(map(bit.__getitem__, s)) for s in subsets])
    loc.base_set = frozenset(base)
    return loc


class FunctionLocale(FiniteLocale):
    """H^X with the pointwise locale structure and the H-valued singleton.

    Elements are tuples over the canonical order of X; the H-action is
    (a . theta)(x) = a ∧ theta(x) and {x}_H(y) = [x = y].
    """

    __slots__ = ("base", "domain", "_pos")

    def eval(self, theta, x):
        return theta[self._pos[x]]

    def singleton(self, x):
        if x not in self._pos:
            raise DomainMismatch(f"{x!r} not in domain")
        return tuple(
            self.base.top if x == y else self.base.bottom for y in self.domain
        )

    def act(self, a, theta):
        return tuple(self.base.meet(a, t) for t in theta)

    def from_map(self, f: dict):
        return tuple(f[x] for x in self.domain)


def function_lattice(H: FiniteLocale, X) -> FunctionLocale:
    """H^X under the pointwise order: theta is the mask of the down-sets of
    its values in H, one block of |H| bits per point of X, so the pointwise
    order is inclusion."""
    base = _canon(X)
    check_carrier(len(H) ** len(base), f"H^X with |X| = {len(base)}")
    down, h = H._downs[0], len(H)
    masks = [0]
    for k in range(len(base)):  # the last point varies fastest, as in product
        masks = [m | d << k * h for m in masks for d in down]
    loc = FunctionLocale.from_closed_sets(
        itertools.product(H.elements, repeat=len(base)), masks)
    loc.base = H
    loc.domain = base
    loc._pos = {x: k for k, x in enumerate(base)}
    return loc


def extend_to_free(fl: FunctionLocale, f: dict, module) -> SupMorphism:
    """The unique H-module morphism H^X -> M with f(theta) = V theta(x) . f(x).

    `module` provides the H-action on M via .lattice and .act(b, m).
    """
    M = module.lattice
    for x in fl.domain:
        if x not in f:
            raise DomainMismatch(f"assignment undefined on {x!r}")
    table = {}
    for theta in fl.elements:
        table[theta] = M.join_all(
            module.act(a, f[x]) for a, x in zip(theta, fl.domain)
        )
    g = SupMorphism(fl, M, table)
    bad = check_sup_morphism(g)
    if bad:
        raise NotAModule(f"extension is not a sup-morphism at {bad.witness!r}",
                         witness=bad.witness)
    for a in fl.base.elements:  # H-linearity of the extension
        for theta in fl.elements:
            if table[fl.act(a, theta)] != module.act(a, table[theta]):
                raise NotAModule(
                    f"extension is not H-linear at ({a!r}, {theta!r})",
                    witness=(a, theta),
                )
    for x in fl.domain:
        if table[fl.singleton(x)] != f[x]:
            raise NotAModule(f"extension does not extend the assignment at {x!r}",
                             witness=x)
    return g


def presented_locale_morphism(H: FiniteLocale, Y, f: dict, module) -> SupMorphism:
    """Extend f: Y -> L to a verified H-locale morphism H^Y -> L.

    Requires i) the f(y) join to 1 and ii) distinct generators meet to 0;
    either failure is reported with the reason the extension breaks.
    """
    L = module.lattice
    ys = _canon(Y)
    total = L.join_all(f[y] for y in ys)
    if total != L.top:
        raise ConditionIFails(
            f"generator join is {total!r}, not top (extension cannot preserve 1)",
            witness=total,
        )
    for i, x in enumerate(ys):
        for y in ys[i + 1:]:
            if L.meet(f[x], f[y]) != L.bottom:
                raise ConditionIIFails(
                    f"f({x!r}) ∧ f({y!r}) exceeds their equality bracket "
                    "(extension cannot preserve ∧)",
                    witness=(x, y),
                )
    fl = function_lattice(H, ys)
    g = extend_to_free(fl, {y: f[y] for y in ys}, module)
    bad = check_locale_morphism(g)
    if bad:
        raise Mismatch(f"presented extension is not a locale morphism: {bad.kind} "
                       f"fails at {bad.witness!r}", witness=bad.witness)
    return g


def points(H: FiniteLocale) -> tuple[SupMorphism, ...]:
    """All locale morphisms H -> Omega, one per join-irreducible of H."""
    return locale_morphisms(H, two())


def locale_morphisms(L: FiniteLocale, A: FiniteLocale) -> tuple[SupMorphism, ...]:
    """All locale morphisms L -> A, one per monotone map J(A) -> J(L).

    Birkhoff duality: finite locales are distributive, so join-irreducibles
    are join-prime.  For a locale morphism f and p in J(A) the x with
    p <= f(x) form a prime filter of L, generated by one phi(p) in J(L), and
    phi is monotone.  Conversely every monotone phi gives the locale morphism
    f(x) = V{p in J(A) : phi(p) <= x}, and f determines phi, so each
    morphism is built exactly once and none needs checking.
    """
    if not isinstance(L, FiniteLocale) or not isinstance(A, FiniteLocale):
        raise DomainMismatch("locale morphism endpoints must be locales")
    jl = L.join_irreducibles()
    ja = sorted(A.join_irreducibles(), key=lambda p: len(A.down_set(p)))
    out = []

    def extend(phi: dict):
        if len(phi) == len(ja):
            out.append(SupMorphism(L, A, {
                x: A.join_all(p for p in ja if L.leq(phi[p], x))
                for x in L.elements}))
            return
        p = ja[len(phi)]  # ja is a linear extension: all q < p have values
        below = [phi[q] for q in phi if A.leq(q, p)]
        for v in jl:
            if all(L.leq(u, v) for u in below):
                extend({**phi, p: v})

    extend({})
    return tuple(out)


def all_locales(max_size: int) -> tuple[FiniteLocale, ...]:
    """Every finite locale with at most max_size elements, up to isomorphism.

    Finite frames are the down-set lattices of finite posets, so posets are
    grown one point at a time (the new point's strict down-set is any down-set
    of the current poset) and pruned as soon as the down-set count overshoots.
    By Birkhoff's theorem two finite distributive lattices are isomorphic
    exactly when their posets of join-irreducibles are, so deduplicating the
    posets deduplicates the locales.
    """
    locales = []

    def downsets(up):
        n = len(up)
        out = []
        for mask in range(1 << n):
            ok = True
            for i in range(n):
                if (mask >> i) & 1:
                    for j in range(n):
                        if (up[j] >> i) & 1 and not (mask >> j) & 1:
                            ok = False
                            break
                if not ok:
                    break
            if ok:
                out.append(mask)
        return out

    def canon_key(up):
        # isomorphism-invariant certificate of the downset lattice
        n = len(up)
        dss = downsets(up)
        sizes = sorted(bin(m).count("1") for m in dss)
        incl = sorted(
            sorted(bin(a & b).count("1") for b in dss) for a in dss
        )
        return (n, tuple(sizes), tuple(tuple(r) for r in incl))

    def poset_iso(up1, up2):
        n = len(up1)
        if n != len(up2):
            return False
        for perm in itertools.permutations(range(n)):
            if all(
                ((up1[i] >> j) & 1) == ((up2[perm[i]] >> perm[j]) & 1)
                for i in range(n) for j in range(n)
            ):
                return True
        return False

    reps = {}  # canon_key -> list of poset up-mask tuples

    def emit(up):
        key = canon_key(up)
        for other in reps.get(key, ()):
            if poset_iso(list(up), list(other)):
                return
        reps.setdefault(key, []).append(up)
        dss = downsets(list(up))  # ascending masks: subsets come first
        L = FiniteSupLattice.from_closed_sets(
            [frozenset(_bits(m)) for m in dss], dss)
        locales.append(FiniteLocale.from_lattice(L))

    def grow(up):
        emit(tuple(up))
        n = len(up)
        for down_mask in downsets(up):
            new_up = [u | ((1 << n) if (down_mask >> i) & 1 else 0)
                      for i, u in enumerate(up)]
            new_up.append(1 << n)
            if len(downsets(new_up)) <= max_size:
                grow(new_up)

    grow([])
    return tuple(sorted(locales, key=len))
