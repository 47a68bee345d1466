"""Relations with values in a finite locale: the four axioms, images,
graphs and tabulation, self-duality of the free modules, and the
triangle / diamond diagram checkers.

An LRelation is a total table X x Y -> H.  Axioms follow the classical
everywhere-defined / univalued / surjective / injective quartet; a relation
satisfying the first two is a function-like relation, all four make it a
bijection-like one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    DomainMismatch,
    Mismatch,
    NotALocale,
    NotAModule,
    NotBijection,
    NotDualizable,
    NotEverywhereDefined,
    NotUnivalued,
    ShapeMismatch,
    SizeBound,
)
from .lattice import (
    MAX_CARRIER,
    FiniteLocale,
    FiniteSupLattice,
    FunctionLocale,
    SupMorphism,
    _canon,
    function_lattice,
    two,
)
from .modb import JModule

DIAGRAM_KINDS = ("triangle", "diamond", "diamond1", "diamond2")


class LRelation:
    """A total table X x Y -> H."""

    __slots__ = ("H", "X", "Y", "table")

    def __init__(self, H: FiniteSupLattice, X, Y, table: dict):
        self.H = H
        self.X = _canon(X)
        self.Y = _canon(Y)
        for x in self.X:
            for y in self.Y:
                if (x, y) not in table:
                    raise DomainMismatch(f"table undefined at ({x!r}, {y!r})")
                if table[(x, y)] not in H:
                    raise DomainMismatch(f"value at ({x!r}, {y!r}) not in H")
        self.table = {(x, y): table[(x, y)] for x in self.X for y in self.Y}

    def __call__(self, x, y):
        return self.table[(x, y)]

    def transpose(self) -> "LRelation":
        return LRelation(self.H, self.Y, self.X,
                         {(y, x): v for (x, y), v in self.table.items()})

    def __eq__(self, other):
        return (isinstance(other, LRelation) and self.H is other.H
                and self.X == other.X and self.Y == other.Y
                and self.table == other.table)

    def __hash__(self):
        return hash((self.X, self.Y, tuple(sorted(self.table.items(), key=repr))))

    def __repr__(self):
        return f"<LRelation {len(self.X)}x{len(self.Y)} -> {len(self.H)}-lattice>"


@dataclass(frozen=True)
class AxiomReport:
    everywhere_defined: bool
    univalued: bool
    surjective: bool
    injective: bool
    witnesses: dict = field(default_factory=dict, compare=False)

    @property
    def is_function(self):
        return self.everywhere_defined and self.univalued

    @property
    def is_opfunction(self):
        return self.surjective and self.injective

    @property
    def is_bijection(self):
        return self.is_function and self.is_opfunction


def _require_locale(r: LRelation):
    if not isinstance(r.H, FiniteLocale):
        raise NotALocale("axiom evaluation needs meets and a top element")


def table_axioms(M: FiniteSupLattice, X, Y, t: dict, row_top, col_top,
                 bracket_x=None, bracket_y=None) -> AxiomReport:
    """The four axioms of a table t[(x, y)] with values in the lattice M.

    ed: each row x joins to row_top(x); su: each column y joins to
    col_top(y); uv: two entries of a row meet below bracket_y(y1, y2); in:
    two entries of a column meet below bracket_x(x1, x2).  Without a bracket
    distinct elements must be disjoint; with one, the pair y1 = y2 is
    checked too, since the bracket of an element with itself bounds a single
    entry.  Each witness is the first failure in X, Y order: (x,),
    (x, y1, y2), (y,) and (x1, x2, y).  Without a bracket, a line is
    searched pair by pair only when one of its entries meets the join of
    those before it.
    """
    rows = {x: [t[(x, y)] for y in Y] for x in X}
    cols = {y: [t[(x, y)] for x in X] for y in Y}

    def gap(lines, top):
        return next(((a,) for a, line in lines.items()
                     if M.join_all(line) != top(a)), None)

    def disjoint(line):
        # no entry meets the join of those before it; an entry meeting an
        # earlier one meets that join, so this never passes a line with an
        # overlap, and in a distributive M it fails only on one
        for k in range(1, len(line)):
            acc = line[0] if k == 1 else M.join(acc, line[k - 1])
            if not M.leq(M.meet(acc, line[k]), M.bottom):
                return False
        return True

    def overlap(lines, C, bracket):
        for a, line in lines.items():
            if not bracket and disjoint(line):
                continue
            for i, c in enumerate(C):
                for j in range(i if bracket else i + 1, len(C)):
                    bound = bracket(c, C[j]) if bracket else M.bottom
                    if not M.leq(M.meet(line[i], line[j]), bound):
                        return a, c, C[j]
        return None

    bad_in = overlap(cols, X, bracket_x)
    wit = {"ed": gap(rows, row_top), "uv": overlap(rows, Y, bracket_y),
           "su": gap(cols, col_top),
           "in": bad_in and (bad_in[1], bad_in[2], bad_in[0])}
    wit = {k: w for k, w in wit.items() if w is not None}
    return AxiomReport(*(k not in wit for k in ("ed", "uv", "su", "in")), wit)


def check_axioms(r: LRelation) -> AxiomReport:
    """The four axioms of r with H's top as every row and column join;
    delegates to `table_axioms`."""
    _require_locale(r)
    top = r.H.top
    return table_axioms(r.H, r.X, r.Y, r.table, lambda x: top, lambda y: top)


def classify(r: LRelation) -> str:
    rep = check_axioms(r)
    if rep.is_bijection:
        return "bijection"
    if rep.is_function:
        return "function"
    if rep.is_opfunction:
        return "opfunction"
    return "none"


def graph(f: dict, X, Y) -> LRelation:
    """The characteristic relation of a map X -> Y over the initial locale."""
    omega = two()
    X, Y = _canon(X), _canon(Y)
    for x in X:
        if f[x] not in Y:
            raise DomainMismatch(f"f({x!r}) = {f[x]!r} is outside the codomain")
    return LRelation(omega, X, Y,
                     {(x, y): (1 if f[x] == y else 0) for x in X for y in Y})


def tabulate(r: LRelation) -> dict:
    """Recover the map whose graph is r; needs H = Omega and ed + uv."""
    if r.H is not two() and r.H.elements != two().elements:
        raise NotALocale("tabulation is defined for relations over Omega")
    rep = check_axioms(r)
    if not rep.everywhere_defined:
        raise NotEverywhereDefined("no value for some input",
                                   witness=rep.witnesses.get("ed"))
    if not rep.univalued:
        raise NotUnivalued("two values for some input",
                           witness=rep.witnesses.get("uv"))
    return {x: next(y for y in r.Y if r(x, y) == 1) for x in r.X}


def images(r: LRelation):
    """Direct and inverse image sup-morphisms on the free modules H^X, H^Y."""
    H = r.H
    fx = function_lattice(H, r.X)
    fy = function_lattice(H, r.Y)
    direct = SupMorphism(fx, fy, {
        theta: tuple(
            H.join_all(H.meet(fx.eval(theta, x), r(x, y)) for x in r.X)
            for y in fy.domain
        )
        for theta in fx.elements
    })
    inverse = SupMorphism(fy, fx, {
        psi: tuple(
            H.join_all(H.meet(r(x, y), fy.eval(psi, y)) for y in r.Y)
            for x in fx.domain
        )
        for psi in fy.elements
    })
    return direct, inverse


def compose(r: LRelation, s: LRelation) -> LRelation:
    """(s o r)(x, z) = V_y r(x, y) ∧ s(y, z)."""
    if r.Y != s.X:
        raise Mismatch("middle carriers differ")
    if r.H is not s.H and r.H.elements != s.H.elements:
        raise Mismatch("value lattices differ")
    _require_locale(r)
    H = r.H
    return LRelation(H, r.X, s.Y, {
        (x, z): H.join_all(H.meet(r(x, y), s(y, z)) for y in r.Y)
        for x in r.X for z in s.Y
    })


def boxtimes(r: LRelation, rp: LRelation) -> LRelation:
    """The product relation on (X x X') x (Y x Y') valued by the meet."""
    if r.H is not rp.H and r.H.elements != rp.H.elements:
        raise Mismatch("value lattices differ")
    _require_locale(r)
    H = r.H
    X = tuple((a, b) for a in r.X for b in rp.X)
    Y = tuple((a, b) for a in r.Y for b in rp.Y)
    return LRelation(H, X, Y, {
        ((a, b), (c, d)): H.meet(r(a, c), rp(b, d))
        for (a, b) in X for (c, d) in Y
    })


# -- self-duality of H^X ------------------------------------------------------


class FunctionModule(JModule):
    """H^X, the J-module of E = J(H) x X ordered by H in each x, with
    p(j, x) = j: theta is the down-set of the (j, x) with j <= theta(x).
    Its elements are the tuples of `function_lattice(H, X)`, its lattice."""

    def __init__(self, fl: FunctionLocale):
        H, self.lattice = fl.base, fl
        J = [H.index(j) for j in H.join_irreducibles()]
        w = len(J)
        # per element of H, the J(H) below it as a mask over J's positions
        row = [sum(1 << k for k, j in enumerate(J) if r >> j & 1) for r in H.down_rows]
        self._masks = [sum(row[H.index(h)] << k * w for k, h in enumerate(theta))
                       for theta in fl.elements]
        self._at = {D: i for i, D in enumerate(self._masks)}
        E = tuple((H.elements[j], x) for x in fl.domain for j in J)
        super().__init__(H, E, [j for j, _ in E],
                         [row[j] << k * w for k in range(len(fl.domain)) for j in J])


def selfduality(H: FiniteLocale, X, cap: int = MAX_CARRIER) -> FunctionModule:
    """H^X is its own dual: its `FunctionModule`, with the laws checked on
    J(H) x E, then on J(H) and the generators the action against
    `FunctionLocale.act` (NotAModule) and eps against the join of the
    theta(x) ^ psi(x) (NotDualizable).

    `cap` can only lower the carrier bound below `MAX_CARRIER`; it remains
    because the benchmark's duality workload passes it, and goes with the
    next change to the benchmark."""
    X = _canon(X)
    if len(H) ** len(X) > cap:
        raise SizeBound(f"|H|^|X| = {len(H) ** len(X)} exceeds cap {cap}")
    fl = function_lattice(H, X)
    m, J = FunctionModule(fl), H.join_irreducibles()
    m.check()
    for theta in m.value.values():
        for j in J:
            if m.act(j, theta) != fl.act(j, theta):
                raise NotAModule(f"the action is not the pointwise meet at "
                                 f"({j!r}, {theta!r})", witness=(j, theta))
        for psi in m.value.values():
            if m.eps(theta, psi) != H.join_all(map(H.meet, theta, psi)):
                raise NotDualizable(f"eps is not the pointwise overlap at "
                                    f"({theta!r}, {psi!r})", witness=(theta, psi))
    return m


def inverse_image_via_duality(r: LRelation,
                              d: FunctionModule | None = None) -> SupMorphism:
    """H^Y -> H^X obtained from the module extension of r through the
    self-duality of H^X; equals the inverse image."""
    H = r.H
    if d is None:
        d = selfduality(H, r.X)
    fx: FunctionLocale = d.module.lattice
    fy = function_lattice(H, r.Y)

    def lam_ext(theta, psi):  # extension of r to H^X (x) H^Y -> H
        return H.join_all(
            H.meet(H.meet(fx.eval(theta, x), fy.eval(psi, y)), r(x, y))
            for x in r.X for y in r.Y
        )

    table = {}
    for psi in fy.elements:
        table[psi] = fx.join_all(
            fx.act(lam_ext(mhat, psi), m2) for mhat, m2 in d.eta
        )
    return SupMorphism(fy, fx, table)


def dual_swap(r: LRelation) -> bool:
    """Dualizing interchanges direct and inverse image.

    Under duality data the dual g of a map f is the one map with
    eps(f(theta), psi) = eps(theta, g(psi)), by the triangles, and both
    sides are joins over the generators in each slot.  So the inverse image
    is the dual of the direct one once this holds on generator pairs, and
    with eps symmetric the direct image is then the dual of the inverse."""
    dX, dY = selfduality(r.H, r.X), selfduality(r.H, r.Y)
    direct, inverse = (f.table for f in images(r))
    return all(dY.eps(direct[theta], psi) == dX.eps(theta, inverse[psi])
               for theta in dX.value.values() for psi in dY.value.values())


# -- triangle and diamond diagrams -------------------------------------------


def _scaled_join(H, items):
    """Join of h's guarded by Omega-scalars: include h when the guard holds."""
    return H.join_all(h for keep, h in items if keep)


def check_diagram(kind: str, data, r: LRelation, rp: LRelation):
    """Evaluate one diagram between r: X x Y -> H and rp: X' x Y' -> H.

    kind 'triangle', 'diamond1', 'diamond2' take data = (f, g) with
    f: X -> X' and g: Y -> Y'; kind 'diamond' takes data = (R, S) with
    R a set of pairs in X x X' and S in Y x Y'.  Returns (ok, witness).
    """
    if kind not in DIAGRAM_KINDS:
        raise ShapeMismatch(f"unknown diagram kind {kind!r}")
    if r.H.elements != rp.H.elements:
        raise ShapeMismatch("the two relations take values in different lattices")
    _require_locale(r)
    H = r.H
    if kind == "diamond":
        R, S = data
        R, S = set(R), set(S)
        for a, b in R:
            if a not in r.X or b not in rp.X:
                raise ShapeMismatch(f"R pair ({a!r}, {b!r}) out of range")
        for a, b in S:
            if a not in r.Y or b not in rp.Y:
                raise ShapeMismatch(f"S pair ({a!r}, {b!r}) out of range")
        for a in r.X:
            for bp in rp.Y:
                lhs = _scaled_join(H, (((y, bp) in S, r(a, y)) for y in r.Y))
                rhs = _scaled_join(H, (((a, xp) in R, rp(xp, bp)) for xp in rp.X))
                if lhs != rhs:
                    return False, (a, bp)
        return True, None
    f, g = data
    for x in r.X:
        if f[x] not in rp.X:
            raise ShapeMismatch(f"f({x!r}) lands outside X'")
    for y in r.Y:
        if g[y] not in rp.Y:
            raise ShapeMismatch(f"g({y!r}) lands outside Y'")
    if kind == "triangle":
        for a in r.X:
            for b in r.Y:
                if not H.leq(r(a, b), rp(f[a], g[b])):
                    return False, (a, b)
        return True, None
    if kind == "diamond1":
        for a in r.X:
            for bp in rp.Y:
                rhs = _scaled_join(H, ((g[y] == bp, r(a, y)) for y in r.Y))
                if rp(f[a], bp) != rhs:
                    return False, (a, bp)
        return True, None
    # diamond2
    for ap in rp.X:
        for b in r.Y:
            rhs = _scaled_join(H, ((f[x] == ap, r(x, b)) for x in r.X))
            if rp(ap, g[b]) != rhs:
                return False, (ap, b)
    return True, None


@dataclass(frozen=True)
class RestrictedProduct:
    theta: LRelation
    diamond_holds: bool
    theta_is_bijection: bool

    @property
    def equivalence(self) -> bool:
        return self.diamond_holds == self.theta_is_bijection


def restricted_product(R, S, r: LRelation, rp: LRelation) -> RestrictedProduct:
    """Restrict the product relation to R x S and compare with the diamond.

    Expects r and rp to be bijection-like; the diamond over (R, S) holds
    exactly when the restriction satisfies all four axioms.
    """
    if not check_axioms(r).is_bijection:
        raise NotBijection("first relation is not a bijection")
    if not check_axioms(rp).is_bijection:
        raise NotBijection("second relation is not a bijection")
    H = r.H
    Rt, St = _canon(R), _canon(S)
    theta = LRelation(H, Rt, St, {
        ((x, xp), (y, yp)): H.meet(r(x, y), rp(xp, yp))
        for (x, xp) in Rt for (y, yp) in St
    })
    ok, _ = check_diagram("diamond", (set(Rt), set(St)), r, rp)
    return RestrictedProduct(theta, ok, check_axioms(theta).is_bijection)
