"""Finite sheaves on a finite locale P and their discrete modules.

A sheaf is stored as explicit section sets with restriction maps.  Gluing is
checked on one cover per open p, the join-irreducibles below p: in a finite
locale every join-irreducible is join-prime, so this cover refines every
other cover of p, and gluing over it at every open gives gluing over all
covers.  For the same reason sheaves on P are presheaves on J(P), so the
discrete module X_d of a sheaf, the lattice of its subsheaves, is the
`modb.JModule` of the poset E of its sections over join-irreducibles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    DomainMismatch,
    GluingFails,
    Mismatch,
    NotALocale,
    NotAModule,
    NotDualizable,
    ValidationError,
)
from .lattice import (
    FiniteLocale,
    FiniteSupLattice,
    _bits,
    _canon,
    _set_key,
    check_carrier,
    is_frame,
    power_locale,
)
from .modb import BModule, JModule
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


def down_and_cover(P: FiniteLocale) -> tuple[dict, dict]:
    """Per open p, the opens below it and J(down p), each in P's element
    order, read off P's down rows with J(P) listed once.  J(down p) is the
    cover of p that refines every other: each of its members is join-prime,
    so it lies below some member of any cover of p."""
    Pel, rows = P.elements, P.down_rows
    J = [(P.index(j), j) for j in P.join_irreducibles()]
    down = {p: tuple(map(Pel.__getitem__, _bits(r))) for p, r in zip(Pel, rows)}
    cover = {p: tuple(j for ji, j in J if r >> ji & 1) for p, r in zip(Pel, rows)}
    return down, cover


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
    down, cover = down_and_cover(P)
    for p in P.elements:
        for q in down[p]:
            if q == p:
                continue
            if (p, q) not in restrict:
                raise DomainMismatch(f"missing restriction {p!r} -> {q!r}")
            for x in X.sections[p]:
                if X.res(p, q, x) not in X.sections[q]:
                    raise ValidationError(
                        f"restriction of {x!r} escapes X({q!r})", witness=(p, q, x))
    # res(q, r, res(p, q, x)) = res(p, r, x), read off the restriction
    # dicts; it holds by definition when q = p or r = q, where res is the
    # identity
    for p in P.elements:
        for q in down[p]:
            if q == p:
                continue
            pq = restrict[(p, q)]
            for r in down[q]:
                if r == q:
                    continue
                qr, pr = restrict[(q, r)], restrict[(p, r)]
                for x in X.sections[p]:
                    if qr[pq[x]] != pr[x]:
                        raise ValidationError(
                            "restrictions do not compose", witness=(p, q, r, x))
    for p in P.elements:
        cov = cover[p]
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


class DiscreteModule(JModule):
    """X_d, the P-module of subsheaves of X: the J-module of E = `sections`,
    the sections (j, x) of X over the j of J(P) ordered by restriction,
    p(j, x) = j.  A subsheaf, an element of `lattice`, is the set of
    sections whose J-sections lie in its down-set of E; `delta[g]` is the
    down-set of the J-sections of g, for every section g."""

    def __init__(self, sheaf: FiniteSheaf, lattice: FiniteSupLattice,
                 sections: tuple, downs: list, jmask: list):
        # downs[i] is the down-set of element i, jmask[g] that of delta[g]
        self.sheaf, self.lattice, self.sections = sheaf, lattice, sections
        self._masks, self._at = downs, {D: i for i, D in enumerate(downs)}
        gi = {g: k for k, g in enumerate(sheaf.total())}
        super().__init__(sheaf.P, sections, [j for j, _ in sections],
                         [jmask[gi[e]] for e in sections])
        self.delta = dict(zip(sheaf.total(), map(self._element, jmask)))


def build_Xd(X: FiniteSheaf) -> DiscreteModule:
    """The subsheaf lattice of X with its P-action, delta generators and
    self-duality.

    The down-sets of E are the unions of its principal down-sets, saturated
    one at a time.  Each becomes the mask, over the indices of X.total(),
    of the sections whose J-sections it holds, and the masks are ordered by
    inclusion with `FiniteSupLattice.from_closed_sets`, which checks that
    they are closed under intersection.  Sorted by `_set_key`, they are the
    closed sets of the presentation by the sections, the restriction
    relations and one cover relation per section over J(down p).

    Checked against X, with witnesses: eps(delta_e, delta_f) =
    `eq_bracket(d, e, f)` for every pair of J-sections (NotDualizable);
    then the laws on J(P) x E (`JModule.check`); then scaling,
    b.delta(p, x) = delta(p ^ b, x|(p ^ b)) for every section and b, read
    off `X.res`, and rebuilding, every element C is the join of the
    f(g).delta(g), f(g) the join of the j in J(down p) with g|j in C (both
    NotAModule).  With eps the bracket on E x E, it is its join over
    theta x psi for all elements: sections agree on [g = h], the join of
    the j where they agree, each such j gives a J-section (j, g|j) of
    theta & psi, and a J-section e of both is (e, e), with bracket p(e).
    """
    P = X.P
    gens = X.total()
    _, cover = down_and_cover(P)
    E = tuple((j, x) for j in P.join_irreducibles() for x in X.sections[j])
    ei = {e: k for k, e in enumerate(E)}
    # the J-sections of each section, as a mask over E: a down-set of E
    jmask = [sum(1 << ei[(j, X.res(p, j, x))] for j in cover[p]) for (p, x) in gens]
    gi = {g: k for k, g in enumerate(gens)}
    seen = {0}
    for e in E:  # every down-set is a union of principal ones, jmask[e]
        principal = jmask[gi[e]]
        for D in list(seen):
            seen.add(D | principal)
        check_carrier(len(seen), "the subsheaf lattice")
    family = []
    for D in seen:
        em = sum(1 << k for k, m in enumerate(jmask) if not m & ~D)
        family.append((frozenset(map(gens.__getitem__, _bits(em))), em, D))
    family.sort(key=lambda f: _set_key(f[0]))
    lat = FiniteSupLattice.from_closed_sets([f[0] for f in family],
                                            [f[1] for f in family])
    d = DiscreteModule(X, lat, E, [f[2] for f in family], jmask)
    for e, de in zip(E, d._down):
        for f, df in zip(E, d._down):
            if P.elements[d._eps(de, df)] != eq_bracket(d, e, f):
                raise NotDualizable(f"eps is not the equality bracket at "
                                    f"({e!r}, {f!r})", witness=(e, f))
    d.check()
    for (p, x), gm in zip(gens, jmask):
        want = {}  # per index of p ^ b, the delta of the restricted section
        for bi, mi in enumerate(P.meet_row(P.index(p))):
            if mi not in want:
                m = P.elements[mi]
                want[mi] = jmask[gi[(m, X.res(p, m, x))]]
            if d._act(bi, gm) != want[mi]:
                b = P.elements[bi]
                raise NotAModule(f"scaling delta{(p, x)!r} by {b!r} does not "
                                 "restrict its section", witness=(b, (p, x)))
    jres = [[(P.index(j), gi[(j, X.res(p, j, x))]) for j in cover[p]]
            for (p, x) in gens]
    for i, C in enumerate(lat.elements):
        cm, rebuilt = sum(1 << gi[g] for g in C), 0
        for jr, gm in zip(jres, jmask):
            rebuilt |= d._act(P.join_index(ji for ji, k in jr if cm >> k & 1), gm)
        if d._at.get(rebuilt) != i:
            raise NotAModule("an element is not the join of its scaled deltas",
                             witness=C)
    return d


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


def selfdual_Xd(d: DiscreteModule) -> DiscreteModule:
    """X_d is its own duality data, eps the equality bracket and eta the
    delta pairs of its J-sections, as `build_Xd` checks: returns d."""
    return d


# -- constant sheaves and the external correspondence -------------------------


def _components(P: FiniteLocale, cover: tuple) -> tuple:
    """Connected components of J(down p), given as `cover`, two of them
    linked when their meet is not the bottom; each new j merges the
    components it links to."""
    comps = []
    for j in cover:
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
    X, (down, cover) = _canon(X), down_and_cover(P)
    comps = {p: _components(P, cover[p]) for p in P.elements}
    sections = {p: tuple(itertools.product(X, repeat=len(comps[p])))
                for p in P.elements}
    restrict = {}
    for p in P.elements:
        for q in down[p]:
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
    down, _ = down_and_cover(P)
    for S in P.elements:
        ss = sorted(S, key=repr)
        for Q in down[S]:
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
    down, cover = down_and_cover(P)
    sections = {}
    for p in P.elements:
        js = cover[p]
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
        js = cover[p]
        for q in down[p]:
            if q == p:
                continue
            ks = cover[q]
            table = {}
            for s in sections[p]:
                fam = dict(zip(js, s))
                table[s] = tuple(fam[k] for k in ks)
            restrict[(p, q)] = table
    return check_sheaf(P, sections, restrict)
