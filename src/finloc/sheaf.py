"""Finite sheaves on a finite locale P and their discrete modules.

A sheaf is stored as explicit section sets with restriction maps.  Gluing is
checked on one cover per open p, the join-irreducibles below p: in a finite
locale every join-irreducible is join-prime, so this cover refines every
other cover of p, and gluing over it at every open gives gluing over all
covers.  The discrete module of a sheaf is the lattice of its subsheaves,
presented by one generator per section with restriction relations and that
one cover relation, so that the delta elements are generator classes and
the P-action is a table lookup.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import (
    DomainMismatch,
    GluingFails,
    Mismatch,
    NotALocale,
    NotAModule,
    ValidationError,
)
from .lattice import FiniteLocale, FiniteSupLattice, _canon, is_frame, power_locale
from .modb import BModule, DualityData, check_duality
from .present import JoinPresentation, ModulePresentation, PresentedSupLattice
from .relation import AxiomReport, table_axioms


class FiniteSheaf:
    """Sections X(p) for each p in P with functorial restriction maps."""

    def __init__(self, P: FiniteLocale, sections: dict, restrict: dict):
        self.P = P
        self.sections = {p: _canon(sections[p]) for p in P.elements}
        self.restrict = restrict

    def res(self, p, q, x):
        """Restrict x in X(p) to q <= p."""
        if p == q:
            return x
        return self.restrict[(p, q)][x]

    def total(self):
        return tuple((p, x) for p in self.P.elements for x in self.sections[p])

    def __repr__(self):
        return f"<FiniteSheaf over {len(self.P)}-locale, {len(self.total())} sections>"


def irreducibles_below(P: FiniteLocale, p) -> tuple:
    """J(down p), the join-irreducibles below p: the cover of p that refines
    every other, since each of them is join-prime and so lies below some
    member of any cover of p."""
    return tuple(j for j in P.join_irreducibles() if P.leq(j, p))


def check_sheaf(P: FiniteLocale, sections: dict, restrict: dict) -> FiniteSheaf:
    """Validate functoriality and gluing; returns the sheaf or raises.

    Gluing is checked over J(down p) at every open p.  A compatible family
    over any other cover C of p restricts to one over J(down p), whose glued
    section restricts to the family's members on C by uniqueness over
    J(down c); so existence and uniqueness over every cover follow.  A
    GluingFails witness is (p, frozenset(J(down p))).
    """
    if not isinstance(P, FiniteLocale):
        raise NotALocale("gluing on join-irreducibles needs a distributive base")
    X = FiniteSheaf(P, sections, restrict)
    if len(X.sections[P.bottom]) != 1:
        raise ValidationError("sections over bottom must be a single point",
                              witness=P.bottom)
    for p in P.elements:
        for q in P.down_set(p):
            if q == p:
                continue
            if (p, q) not in restrict:
                raise DomainMismatch(f"missing restriction {p!r} -> {q!r}")
            for x in X.sections[p]:
                if X.res(p, q, x) not in X.sections[q]:
                    raise ValidationError(
                        f"restriction of {x!r} escapes X({q!r})", witness=(p, q, x))
    for p in P.elements:
        for q in P.down_set(p):
            for r in P.down_set(q):
                for x in X.sections[p]:
                    if X.res(q, r, X.res(p, q, x)) != X.res(p, r, x):
                        raise ValidationError(
                            "restrictions do not compose", witness=(p, q, r, x))
    for p in P.elements:
        cov = irreducibles_below(P, p)
        fams = [()]  # compatible families over cov[:k], one member at a time
        for k, j in enumerate(cov):
            meets = [(i, P.meet(i, j)) for i in cov[:k]]
            fams = [f + (x,) for f in fams for x in X.sections[j]
                    if all(X.res(i, m, y) == X.res(j, m, x)
                           for (i, m), y in zip(meets, f))]
        images = [tuple(X.res(p, j, x) for j in cov) for x in X.sections[p]]
        if len(set(images)) != len(images) or set(images) != set(fams):
            raise GluingFails(
                f"X({p!r}) does not match compatible families over a cover",
                witness=(p, frozenset(cov)),
            )
    return X


# -- discrete modules --------------------------------------------------------


@dataclass
class DiscreteModule:
    """The P-module of subsheaves of X, generated by its delta elements."""

    sheaf: FiniteSheaf
    quotient: PresentedSupLattice
    module: BModule
    delta: dict = field(repr=False)

    @property
    def lattice(self) -> FiniteSupLattice:
        return self.module.lattice


def build_Xd(X: FiniteSheaf) -> DiscreteModule:
    """Materialize the subsheaf lattice with its P-action and delta generators.

    The relations are delta(q, x|q) <= delta(p, x) for q < p, and
    delta(p, x) = V delta(j, x|j) over j in J(down p) when p is not
    join-irreducible (a join-irreducible p is in its own cover).  Any other
    cover C of p needs no relation: each j lies below some c in C, so
    delta(j, x|j) <= delta(c, x|c) already.

    b.C is the closure of the restrictions by b of the generators of C,
    each looked up once per generator and b.  Every element C is
    checked to be the join of its scaled deltas f(g).delta(g), where f(g)
    is the largest q with g|q in C, read off the action table.
    """
    P = X.P
    gens = X.total()
    rels = []
    for p in P.elements:
        cover = irreducibles_below(P, p)
        for x in X.sections[p]:
            for q in P.down_set(p):
                if q != p:
                    rels.append((frozenset({(p, x)}),
                                 frozenset({(p, x), (q, X.res(p, q, x))})))
            if p not in cover:
                rels.append((frozenset({(p, x)}),
                             frozenset((j, X.res(p, j, x)) for j in cover)))
    q = PresentedSupLattice(JoinPresentation(tuple(gens), tuple(rels)))
    lat = q.lattice()
    delta = {(p, x): q.gen_class((p, x)).closure for (p, x) in gens}
    gi = {g: k for k, g in enumerate(gens)}
    res = _restrictions(X, gi)
    scaled = {b: {g: gens[ra[P.index(P.meet(g[0], b))]] for g, ra in zip(gens, res)}
              for b in P.elements}

    def action(b, C):
        return q.closure(map(scaled[b].__getitem__, C))

    pres = ModulePresentation(lat, tuple(gens), delta, tuple(rels))
    module = BModule(P, lat, action, presentation=pres)
    d = DiscreteModule(X, q, module, delta)
    # scaling a delta restricts its section, read off X again, not off the
    # restrictions the action was built from
    for (p, x) in gens:
        for b in P.elements:
            if module.act(b, delta[(p, x)]) \
                    != delta[(P.meet(p, b), X.res(p, P.meet(p, b), x))]:
                raise NotAModule(f"scaling delta{(p, x)!r} by {b!r} does not "
                                 "restrict its section", witness=(b, (p, x)))
    cols = [(lat.index(delta[g]), ra.items()) for g, ra in zip(gens, res)]
    T = module.table
    for C in lat.elements:  # every element is the join of its scaled deltas
        cm = sum(1 << gi[g] for g in C)
        rebuilt = lat.join_index(
            T[P.join_index(r for r, k in ra if cm >> k & 1)][di] for di, ra in cols)
        if lat.elements[rebuilt] != C:
            raise NotAModule("an element is not the join of its scaled deltas",
                             witness=C)
    return d


def _restrictions(X: FiniteSheaf, gi: dict) -> list:
    """Per section g = (p, x), the index in gi of g|q for each q <= p, keyed
    by the index of q in P."""
    P = X.P
    return [{P.index(q): gi[(q, X.res(p, q, x))] for q in P.down_set(p)}
            for (p, x) in X.total()]


def eq_bracket(d: DiscreteModule, px, qy):
    """The equality bracket of two sections: the largest open where they agree."""
    P = d.sheaf.P
    (p, x), (q, y) = px, qy
    m = P.meet(p, q)
    return P.join_all(
        r for r in P.down_set(m)
        if d.sheaf.res(p, r, x) == d.sheaf.res(q, r, y)
    )


def tilde_roundtrip(mod: BModule) -> None:
    """Validate the internal sheaf presentation of a P-module.

    Checks the fixed-point sections, the sum/restriction adjunction, the
    base-change identity, Frobenius reciprocity for frame carriers, and that
    the global sections recover the module.
    """
    P, M = mod.B, mod.lattice
    tilde = {p: tuple(x for x in M.elements if mod.act(p, x) == x)
             for p in P.elements}
    if set(tilde[P.top]) != set(M.elements):
        raise ValidationError("global sections do not recover the module",
                              witness=P.top)
    for p in P.elements:
        for q in P.down_set(p):
            for x in tilde[q]:
                if x not in tilde[p]:
                    raise ValidationError("sections not nested along the order",
                                          witness=(p, q, x))
                for y in tilde[p]:
                    below = M.leq(x, y)
                    adj = M.leq(x, mod.act(q, y))
                    if below != adj:
                        raise ValidationError("sum/restriction adjunction fails",
                                              witness=(p, q, x, y))
    for r in P.elements:
        for p in P.down_set(r):
            for p2 in P.down_set(r):
                for x in tilde[p]:
                    if mod.act(p2, x) != mod.act(P.meet(p, p2), x):
                        raise ValidationError("base-change identity fails",
                                              witness=(p, p2, x))
    if is_frame(M)[0]:
        for p in P.elements:
            for q in P.down_set(p):
                for x in tilde[p]:
                    for y in tilde[q]:
                        if M.meet(mod.act(q, x), y) != M.meet(x, y):
                            raise ValidationError("Frobenius reciprocity fails",
                                                  witness=(p, q, x, y))


# -- internal relations and their module transposes ---------------------------


def _validate_internal_relation(lam: dict, dX: DiscreteModule, dY: DiscreteModule,
                                H: BModule) -> None:
    P = dX.sheaf.P
    M = H.lattice
    for p in P.elements:
        for x in dX.sheaf.sections[p]:
            for y in dY.sheaf.sections[p]:
                v = lam[(p, x, y)]
                if H.act(p, v) != v:
                    raise Mismatch(f"value at ({p!r}, {x!r}, {y!r}) not a "
                                   f"section over {p!r}")
                for q in P.down_set(p):
                    expected = H.act(q, v)
                    got = lam[(q, dX.sheaf.res(p, q, x), dY.sheaf.res(p, q, y))]
                    if got != expected:
                        raise Mismatch(
                            f"family not natural at ({p!r}, {q!r}, {x!r}, {y!r})")


def mu_from_lambda(lam: dict, dX: DiscreteModule, dY: DiscreteModule,
                   H: BModule) -> dict:
    """mu on delta pairs: restrict both sections to the common open and read lam."""
    _validate_internal_relation(lam, dX, dY, H)
    P = dX.sheaf.P
    mu = {}
    for (p, x) in dX.sheaf.total():
        for (q, y) in dY.sheaf.total():
            m = P.meet(p, q)
            mu[((p, x), (q, y))] = lam[
                (m, dX.sheaf.res(p, m, x), dY.sheaf.res(q, m, y))]
    return mu


def lambda_from_mu(mu: dict, dX: DiscreteModule, dY: DiscreteModule,
                   H: BModule) -> dict:
    """Recover the natural family by coscaling mu back to each level."""
    P = dX.sheaf.P
    lam = {}
    for p in P.elements:
        for x in dX.sheaf.sections[p]:
            for y in dY.sheaf.sections[p]:
                lam[(p, x, y)] = H.act(p, mu[((p, x), (p, y))])
    return lam


def scaling_identity_holds(mu: dict, lam: dict, dX: DiscreteModule,
                           dY: DiscreteModule, H: BModule) -> bool:
    """r . mu(dx (x) dy) equals the value of lam at the triple meet."""
    P = dX.sheaf.P
    for (p, x) in dX.sheaf.total():
        for (q, y) in dY.sheaf.total():
            for r in P.elements:
                m = P.meet(P.meet(p, q), r)
                lhs = H.act(r, mu[((p, x), (q, y))])
                rhs = H.act(m, lam[(m, dX.sheaf.res(p, m, x),
                                    dY.sheaf.res(q, m, y))])
                if lhs != rhs:
                    return False
    return True


def check_module_axioms(mu: dict, dX: DiscreteModule, dY: DiscreteModule,
                        H: BModule) -> AxiomReport:
    """The four axioms stated on delta generators at the module level.

    Delegates to `table_axioms`: the row (column) of a delta generator over
    p joins to the image of p in H, and two entries of a row (column) meet
    below the image of the equality bracket of their generators.
    """
    top = H.lattice.top

    def himg(b):  # image of b under the structure map P -> H
        return H.act(b, top)

    return table_axioms(
        H.lattice, dX.sheaf.total(), dY.sheaf.total(), mu,
        lambda gx: himg(gx[0]), lambda gy: himg(gy[0]),
        lambda gx1, gx2: himg(eq_bracket(dX, gx1, gx2)),
        lambda gy1, gy2: himg(eq_bracket(dY, gy1, gy2)))


def selfdual_Xd(d: DiscreteModule) -> DualityData:
    """X_d is self-dual: eta sums delta pairs, eps is the equality bracket.

    eps(theta, psi) is the join of the bracket over theta x psi, taken over
    their maximal sections only: the bracket is monotone under restriction,
    [x|p', y] <= [x, y] (the opens where x|p' and y agree are among those
    where x and y do), and every section of a subsheaf is a restriction of
    a maximal one.  `eq_bracket` is tabulated once per pair of generators.
    Per element theta, the join of the bracket over the maximal sections of
    theta is kept against each generator, so that each eps value, which
    `DualityData` tabulates once per pair of elements, joins one such entry
    per maximal section of psi.
    """
    P, X = d.sheaf.P, d.sheaf
    gens = X.total()
    gi = {g: k for k, g in enumerate(gens)}
    bracket = [[P.index(eq_bracket(d, gx, gy)) for gy in gens] for gx in gens]
    lower = [sum(1 << k for k in ra.values()) - (1 << a)
             for a, ra in enumerate(_restrictions(X, gi))]
    tops, rows = {}, {}
    for t in d.lattice.elements:
        ix, low = [gi[g] for g in t], 0
        for a in ix:
            low |= lower[a]
        tops[t] = top = [a for a in ix if not low >> a & 1]
        rows[t] = [P.join_index(bracket[a][c] for a in top) for c in range(len(gens))]

    def eps(theta, psi):
        return P.elements[P.join_index(map(rows[theta].__getitem__, tops[psi]))]

    eta = tuple((d.delta[g], d.delta[g]) for g in gens)
    dd = DualityData(d.module, d.module, eps, eta)
    check_duality(dd)
    return dd


# -- constant sheaves and the external correspondence -------------------------


def _components(P: FiniteLocale, p) -> tuple:
    """Connected components of the join-irreducibles below p, two of them
    linked when their meet is not the bottom; each new j merges the
    components it links to."""
    comps = []
    for j in irreducibles_below(P, p):
        linked = [c for c in comps if any(P.meet(j, k) != P.bottom for k in c)]
        merged = {j}
        for c in linked:
            merged |= c
            comps.remove(c)
        comps.append(merged)
    return tuple(frozenset(c) for c in
                 sorted(comps, key=lambda c: sorted(map(repr, c))))


def constant_sheaf(P: FiniteLocale, X) -> FiniteSheaf:
    """The sheaf of locally constant X-valued sections: one value per
    component of each open's irreducibles."""
    X = _canon(X)
    comps = {p: _components(P, p) for p in P.elements}
    sections = {p: tuple(itertools.product(X, repeat=len(comps[p])))
                for p in P.elements}
    restrict = {}
    for p in P.elements:
        for q in P.down_set(p):
            if q == p:
                continue
            pos = []
            for c in comps[q]:
                j = next(iter(c))
                parent = next(i for i, cp in enumerate(comps[p]) if j in cp)
                pos.append(parent)
            restrict[(p, q)] = {
                s: tuple(s[i] for i in pos) for s in sections[p]
            }
    return check_sheaf(P, sections, restrict)


@dataclass(frozen=True)
class ExternalCorrespondence:
    stalk_relations: dict
    external_is_function: bool
    internal_is_function: bool

    @property
    def agree(self) -> bool:
        return self.external_is_function == self.internal_is_function


def external_correspondence(P: FiniteLocale, X, Y, lam_ext: dict
                            ) -> ExternalCorrespondence:
    """Compare a P-valued relation on plain sets with its internal avatar.

    The internal relation between the constant sheaves has, at each
    join-irreducible j, the stalk relation { (x, y) : j <= lam(x, y) };
    it is an internal function exactly when the external relation is a
    function-like relation in the plain sense.
    """
    from .relation import LRelation, check_axioms

    X, Y = _canon(X), _canon(Y)
    r = LRelation(P, X, Y, lam_ext)
    rep = check_axioms(r)
    stalks = {}
    internal_fn = True
    for j in P.join_irreducibles():
        rel = {(x, y) for x in X for y in Y if P.leq(j, lam_ext[(x, y)])}
        stalks[j] = rel
        total = all(any((x, y) in rel for y in Y) for x in X)
        single = all(
            len({y for y in Y if (x, y) in rel}) <= 1 for x in X
        )
        internal_fn = internal_fn and total and single
    if not P.join_irreducibles():
        internal_fn = True
    return ExternalCorrespondence(stalks, rep.is_function, internal_fn)


# -- helpers for tests and fixtures -------------------------------------------


def etale_sheaf(points, elements, anchor: dict) -> FiniteSheaf:
    """The sheaf of an anchored set over the powerset locale of its points.

    Sections over S are choice functions picking one element from each stalk,
    stored as sorted tuples of picked elements.
    """
    P = power_locale(points)
    stalk = {o: _canon([e for e in elements if anchor[e] == o]) for o in points}
    sections = {}
    for S in P.elements:
        ss = sorted(S, key=repr)
        sections[S] = tuple(
            tuple(choice) for choice in itertools.product(*(stalk[o] for o in ss))
        )
    restrict = {}
    for S in P.elements:
        ss = sorted(S, key=repr)
        for Q in P.down_set(S):
            if Q == S:
                continue
            keep = [i for i, o in enumerate(ss) if o in Q]
            restrict[(S, Q)] = {
                s: tuple(s[i] for i in keep) for s in sections[S]
            }
    return check_sheaf(P, sections, restrict)


def enumerate_sheaves(P: FiniteLocale, max_total: int):
    """All sheaves over P with at most max_total non-bottom sections.

    Built from stalk data at join-irreducibles: section sets at each j with
    restriction maps along the irreducible order, then completed by
    compatible families at every other level.
    """
    irr = P.join_irreducibles()
    if not irr:
        base = {P.bottom: ("pt",)}
        yield check_sheaf(P, base, {})
        return
    for sizes in itertools.product(range(max_total + 1), repeat=len(irr)):
        stalks = {j: tuple(f"{k}@{ji}" for k in range(n))
                  for (ji, j), n in zip(enumerate(irr), sizes)}
        pairs = [(j, k) for j in irr for k in irr
                 if j != k and P.leq(k, j)]
        maps_options = []
        for (j, k) in pairs:
            if len(stalks[k]) == 0 and len(stalks[j]) > 0:
                maps_options = None
                break
            maps_options.append([
                dict(zip(stalks[j], pick))
                for pick in itertools.product(stalks[k], repeat=len(stalks[j]))
            ])
        if maps_options is None:
            continue
        for assignment in itertools.product(*maps_options):
            rmaps = dict(zip(pairs, assignment))
            ok = True
            for (j, k) in pairs:  # composition across irreducible chains
                for (k2, l) in pairs:
                    if k2 == k and (j, l) in rmaps:
                        for x in stalks[j]:
                            if rmaps[(k, l)][rmaps[(j, k)][x]] != rmaps[(j, l)][x]:
                                ok = False
            if not ok:
                continue
            yield _sheaf_from_stalks(P, stalks, rmaps)


def _sheaf_from_stalks(P, stalks, rmaps):
    sections = {}
    for p in P.elements:
        js = irreducibles_below(P, p)
        fams = []
        for choice in itertools.product(*(stalks[j] for j in js)):
            fam = dict(zip(js, choice))
            if all(
                rmaps[(j, k)][fam[j]] == fam[k]
                for j in js for k in js if j != k and P.leq(k, j)
            ):
                fams.append(tuple(fam[j] for j in js))
        sections[p] = tuple(fams)
    restrict = {}
    for p in P.elements:
        js = irreducibles_below(P, p)
        for q in P.down_set(p):
            if q == p:
                continue
            ks = irreducibles_below(P, q)
            table = {}
            for s in sections[p]:
                fam = dict(zip(js, s))
                table[s] = tuple(fam[k] for k in ks)
            restrict[(p, q)] = table
    return check_sheaf(P, sections, restrict)
