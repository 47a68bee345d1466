"""Modules over a finite locale B, duality data and the transpose calculus.

Every discrete B-module is a `JModule`, which is its own presentation and
duality data; the étale modules, X_d and H^X are its forms.  `BModule` and
`DualityData` are the dense route the tests check them against: a module
keeps its action, and duality data its evaluation, as the index table its
laws are checked on where it is built, join preservation by adjunction.
Each remaining law holds between maps that preserve joins in every slot,
so it is decided on join-irreducibles: every element of a finite lattice
is the join of those below it (Davey & Priestley, *Introduction to
Lattices and Order*, 2002, ch. 2), and B is distributive.  Where that
check fails, the scan over every element names the witness
(`_decided`).  A dual morphism is evaluated per element.
"""

from __future__ import annotations

from .errors import KernelError, NotAModule, NotDualizable, TriangularFails
from .lattice import (
    FiniteLocale,
    FiniteSupLattice,
    SupMorphism,
    Violation,
    _bits,
    join_failure,
    two,
)
from .present import ModulePresentation, TensorLattice, lattice_presentation, tensor_over


class JModule:
    """D(E), the B-module of down-sets of a discrete fibration p: E -> J(B),
    which is every discrete B-module: sh(B) is presheaves on J(B)
    (Johnstone, *Elephant*, C2.2.3), and E their categories of elements.
    E is `gens`, down[k] the mask of the down-set of E[k] and p given by
    its values, validated here as NotAModule.  Down-sets are int masks:
    b.C = {e in C : p(e) <= b}, eps(C, D) = V p(C & D), and eta sums
    (down e, down e) over E.  It is its own module, dual and presentation,
    by E (value[e] = down e) with one relation per covering pair of E.  A
    form gives `lattice` and its element format: `_masks[i]`, the down-set
    of element i, and its inverse `_at`, or its own `_mask` and `_element`.
    """

    def __init__(self, B: FiniteLocale, E, p, down):
        self.B, self.gens, self._down = B, tuple(E), list(down)
        self.module = self.dual = self.presentation = self
        self._J = B.join_irreducible_indices()
        self._p = [B.index(pe) if pe in B else None for pe in p]
        rows, J = B.down_rows, set(self._J)
        for k, (e, d) in enumerate(zip(self.gens, self._down)):
            over = [self._p[i] for i in _bits(d)]  # one e' <= e over each j <= p(e)
            if not (d >> k & 1 and J >= set(over) and len(set(over)) == len(over)
                    and set(over) == {j for j in J if rows[self._p[k]] >> j & 1}
                    and all(self._down[i] & ~d == 0 for i in _bits(d))):
                raise NotAModule(f"p is not a discrete fibration into J(B) at {e!r}",
                                 witness=e)
        self._belows, self._joins, self._acts, self._parts = {}, {}, {}, {}
        self.value = {e: self._element(d) for e, d in zip(self.gens, self._down)}
        self.eta = tuple((v, v) for v in self.value.values())

    # act and decompose keep each value: a coend asks for the same ones
    # again and again
    def act(self, b, m):
        out = self._acts.get((b, m))
        if out is None:
            out = self._acts[b, m] = self._element(self._act(self.B.index(b),
                                                             self._mask(m)))
        return out

    def eps(self, m, n):
        return self.B.elements[self._eps(self._mask(m), self._mask(n))]

    def decompose(self, m) -> frozenset:
        """The generators below m: the e of its down-set."""
        out = self._parts.get(m)
        if out is None:
            out = self._parts[m] = self._gens(self._mask(m))
        return out

    def _gens(self, C: int) -> frozenset:
        return frozenset(map(self.gens.__getitem__, _bits(C)))

    def _mask(self, m) -> int:
        return self._masks[self.lattice.index(m)]

    def _element(self, C: int):
        return self.lattice.elements[self._at[C]]

    def _act(self, bi: int, C: int) -> int:  # on masks, b an index into B
        below = self._belows.get(bi)
        if below is None:
            row = self.B.down_rows[bi]
            below = self._belows[bi] = sum(1 << k for k, j in enumerate(self._p)
                                           if row >> j & 1)
        return C & below

    def _eps(self, C: int, D: int) -> int:  # an index into B
        v = self._joins.get(C & D)
        if v is None:
            v = self._joins[C & D] = self.B.join_index(map(self._p.__getitem__,
                                                           _bits(C & D)))
        return v

    @property
    def relations(self) -> tuple:
        """({e}, {e, e'}) for each covering pair e' < e of E."""
        E, down = self.gens, self._down
        return tuple((frozenset({E[k]}), frozenset({E[k], E[i]}))
                     for k, d in enumerate(down) for i in _bits(d & ~(1 << k))
                     if not any(down[l] >> i & 1 for l in _bits(d & ~(1 << k | 1 << i))))

    def check(self) -> None:
        """Every module and duality law, decided on J(B) x E.

        b.C and eps(C, D) are unions over E in each slot, and in b too, as
        each p(e) is join-prime in the distributive B and each b the join of
        the j in J(B) below it.  So both sides of each law below, and each
        zigzag m -> V eps(m, n).m2 over eta, preserve joins in every slot,
        and a law holds once it holds on the bottoms, J(B) and the
        delta_e = down e, whose unions are all elements.  In this order, the
        failing generators as witness:
          - NotAModule: j.0 = 0; bottom.delta_e = 0, top.delta_e = delta_e,
            j.delta_e <= delta_e and (j ^ j').delta_e = j.(j'.delta_e);
          - NotDualizable: eps(0, delta_e) = eps(delta_e, 0) = bottom and
            eps(j.delta_e, delta_f) = j ^ eps(delta_e, delta_f)
            = eps(delta_e, j.delta_f);
          - TriangularFails: the right, then the left triangle on delta_e.
        With eps symmetric and eta diagonal the left zigzag is the right one
        term by term, V eps(n, delta_e).n over eta, so it cannot fail alone;
        it is checked for a module whose eps or eta is not.
        """
        B, Bel, el = self.B, self.B.elements, self._element
        act, eps = self._act, self._eps
        meet, bot, top, gens = B.meet_index, B.bottom_index, B.top_index, self._down
        for j in self._J:
            if act(j, 0):
                raise NotAModule(f"{Bel[j]!r} does not fix the bottom",
                                 witness=(Bel[j], el(0)))
        for d in gens:
            if act(bot, d):
                raise NotAModule("the bottom of B does not act as zero",
                                 witness=(B.bottom, el(d)))
            if act(top, d) != d:
                raise NotAModule("the top of B does not act as the unit", witness=el(d))
            for j in self._J:
                jd = act(j, d)
                if jd & ~d:
                    raise NotAModule("scaling a generator leaves it",
                                     witness=(Bel[j], el(d)))
                for j2 in self._J:
                    if act(meet(j, j2), d) != act(j2, jd):
                        raise NotAModule("the action is not meet-composition",
                                         witness=(Bel[j], Bel[j2], el(d)))
        for d in gens:
            if eps(0, d) != bot or eps(d, 0) != bot:
                raise NotDualizable("eps not linear at bottom", witness=el(d))
        scaled = {j: [act(j, d) for d in gens] for j in self._J}
        for k, d in enumerate(gens):
            for k2, d2 in enumerate(gens):
                v = eps(d, d2)
                for j, jd in scaled.items():
                    w = meet(j, v)
                    if eps(jd[k], d2) != w or eps(d, jd[k2]) != w:
                        b, m, n = Bel[j], el(d), el(d2)
                        raise NotDualizable(f"eps not B-linear at ({b!r}, {m!r}, {n!r})",
                                            witness=(b, m, n))
        eta = [(self._mask(n), self._mask(m2)) for n, m2 in self.eta]
        for side in ("right", "left"):
            for d in gens:
                back = 0
                for n, m2 in eta:
                    back |= act(eps(d, n), m2) if side == "right" else act(eps(m2, d), n)
                if back != d:
                    raise TriangularFails(side, witness=el(d))


class BModule:
    """A sup-lattice with a validated action of a finite locale, kept as
    the index table `table[b][m]` (B- and M-indices) of b . m."""

    def __init__(self, B: FiniteLocale, lattice: FiniteSupLattice, action,
                 presentation: ModulePresentation | None = None):
        self.B = B
        self.lattice = lattice
        self.table = _action_table(B, lattice, action)
        self._presentation = presentation
        bad = _module_violation(B, lattice, self.table)
        if bad:
            raise NotAModule(f"action violates {bad.kind} at {bad.witness!r}",
                             witness=bad.witness)

    def act(self, b, m):
        M = self.lattice
        return M.elements[self.table[self.B.index(b)][M.index(m)]]

    @property
    def presentation(self) -> ModulePresentation:
        if self._presentation is None:
            self._presentation = lattice_presentation(self.lattice)
        return self._presentation

    @classmethod
    def self_module(cls, B: FiniteLocale) -> "BModule":
        return cls(B, B, B.meet)

    @classmethod
    def omega_module(cls, M: FiniteSupLattice) -> "BModule":
        """Any sup-lattice is a module over the initial locale."""
        omega = two()
        return cls(omega, M, lambda b, m: m if b == 1 else M.bottom)

    def __repr__(self):
        return f"<BModule over {len(self.B)}-locale, carrier {len(self.lattice)}>"


def _action_table(B: FiniteLocale, M: FiniteSupLattice, act) -> list:
    return [[M.index(act(b, m)) for m in M.elements] for b in B.elements]


def check_module(B: FiniteLocale, M: FiniteSupLattice, action) -> Violation | None:
    """`_module_violation` for a callable action or a dict keyed by (b, m)."""
    act = action if callable(action) else lambda b, m: action[(b, m)]
    return _module_violation(B, M, _action_table(B, M, act))


def _module_violation(B: FiniteLocale, M: FiniteSupLattice, A) -> Violation | None:
    """Validate the module laws on the index table A of an action.

    Join preservation in m is the adjunction test of `join_failure` on
    every row b.  With every row preserving joins, each column is the
    pointwise join of the columns of J(M) below its m, so the b-slot test
    and the unit hold on every column once they hold on those.  Then both
    sides of meet-composition, (b ^ b').m and b.(b'.m), preserve joins in
    each of b, b' and m (B is distributive), so it is checked on
    J(B) x J(B) x J(M).  Kinds are checked per b (m-slot bottom, m-slot
    join), then per m (b-slot bottom, unit, b-slot join,
    meet-composition); each witness is a genuine failure of its kind, the
    one the scan of every column names.
    """
    Bel, Mel = B.elements, M.elements
    for b, row in zip(Bel, A):
        bad = join_failure(row, M, M)
        if bad == ():
            return Violation("m-slot bottom", (b,))
        if bad:
            return Violation("m-slot join", (b, Mel[bad[0]], Mel[bad[1]]))
    return _decided(lambda ms, bs: _column_violation(B, M, A, ms, bs), M, B)


def _column_violation(B, M, A, ms, bs) -> Violation | None:
    """Per column m in ms: b-slot bottom, unit, b-slot join, then
    meet-composition on bs x bs."""
    Bel, Mel, top = B.elements, M.elements, B.top_index
    bmt = {bi: B.meet_row(bi) for bi in bs}
    for mi in ms:
        m, col = Mel[mi], [row[mi] for row in A]
        bad = join_failure(col, B, M)
        if bad == ():
            return Violation("b-slot bottom", (m,))
        if col[top] != mi:
            return Violation("unit", (m,))
        if bad:
            return Violation("b-slot join", (Bel[bad[0]], Bel[bad[1]], m))
        for bi in bs:
            arow, brow = A[bi], bmt[bi]
            for b2i in bs:
                if col[brow[b2i]] != arow[col[b2i]]:
                    return Violation("meet-composition", (Bel[bi], Bel[b2i], m))
    return None


def _irreducible_indices(L: FiniteSupLattice) -> tuple:
    return L.join_irreducible_indices()


def _decided(scan, *lattices):
    """scan on the join-irreducible indices of the lattices, which decides
    the law, and on a failure the failure that scan names on every index."""
    if scan(*map(_irreducible_indices, lattices)) is None:
        return None
    bad = scan(*(range(len(L)) for L in lattices))
    if bad is None:
        raise KernelError("a law fails on join-irreducibles and holds on "
                          "every element")
    return bad


class DualityData:
    """(M^, eta, eps) witnessing that Mdual is the right dual of M.

    eps is given as a callable on element pairs (m, n) -> B and kept as the
    index table its bilinearity is checked on; eta is a tuple of (n, m)
    pairs whose formal sum is the coevaluation.
    """

    def __init__(self, module: BModule, dual: BModule, eps, eta):
        self.module = module
        self.dual = dual
        self.eta = tuple(eta)
        B = module.B
        self.eps_table = [[B.index(eps(m, n)) for n in dual.lattice.elements]
                          for m in module.lattice.elements]
        self._check_bilinear()

    def eps(self, m, n):
        return self.module.B.elements[
            self.eps_table[self.module.lattice.index(m)][self.dual.lattice.index(n)]]

    def _check_bilinear(self):
        """eps is a B-bimorphism, checked on its index table.

        Both bottoms are checked on every row and column, and the
        second-slot join test of `join_failure` on every row m.  With every
        row preserving joins, each column is the pointwise join of the
        columns of J(N) below its n, so the first-slot test runs on those
        columns.  B-linearity in both slots compares whole rows over N for
        b in J(B) and m in J(M), against the two modules' action tables:
        eps(b.m, n), eps(m, b.n) and b ^ eps(m, n) preserve joins in m and
        in b, by the slot tests just passed, B's distributivity and the
        laws each `BModule` checks when it is built.  On a failure the
        scan of every column, row and pair names the witness.
        """
        B, M, N = self.module.B, self.module.lattice, self.dual.lattice
        E, bot = self.eps_table, B.bottom_index
        if any(v != bot for v in E[M.bottom_index]):
            raise NotDualizable("eps not linear at bottom (first slot)")
        if any(row[N.bottom_index] != bot for row in E):
            raise NotDualizable("eps not linear at bottom (second slot)")
        bad = _decided(self._bilinear_failure, N, B, M)
        if bad:
            raise bad

    def _bilinear_failure(self, ns, bs, ms) -> NotDualizable | None:
        """The first-slot test on the columns ns, the second-slot test on
        every row, then B-linearity on bs x ms."""
        B, M, N = self.module.B, self.module.lattice, self.dual.lattice
        Mel, Nel, E = M.elements, N.elements, self.eps_table
        for ni in ns:
            n, bad = Nel[ni], join_failure([row[ni] for row in E], M, B)
            if bad:
                m, m2 = Mel[bad[0]], Mel[bad[1]]
                return NotDualizable(f"eps not join-linear at ({m!r}, {m2!r}, {n!r})",
                                     witness=(m, m2, n))
        for m, row in zip(Mel, E):
            bad = join_failure(row, N, B)
            if bad:
                n, n2 = Nel[bad[0]], Nel[bad[1]]
                return NotDualizable(f"eps not join-linear at ({n!r}, {n2!r}, {m!r})",
                                     witness=(n, n2, m))
        dual_B = self.dual.B
        for bi in bs:
            b, mrow = B.elements[bi], self.module.table[bi]
            nrow = self.dual.table[dual_B.index(b)]
            meet_b = B.meet_row(bi)
            for mi in ms:
                row = E[mi]
                want = [meet_b[v] for v in row]
                got, got_dual = E[mrow[mi]], [row[k] for k in nrow]
                if got == want and got_dual == want:
                    continue
                ni = next(i for i, w in enumerate(want)
                          if got[i] != w or got_dual[i] != w)
                slot = "" if got[ni] != want[ni] else " (dual slot)"
                return NotDualizable(
                    f"eps not B-linear{slot} at ({b!r}, {Mel[mi]!r}, {Nel[ni]!r})",
                    witness=(b, Mel[mi], Nel[ni]))
        return None


def check_duality(d: DualityData) -> None:
    """Both triangular equations, decided on J(M) and J(N).

    m -> V eps(m, nhat).m2 over eta preserves joins, since eps does in its
    first slot and the action in b; so does the identity, and the two agree
    on M once they agree on J(M).  The dual side is the same in n.  On a
    failure every element is scanned, M before N.

    Raises TriangularFails('right') when the M-side zigzag misses some m,
    TriangularFails('left') when the dual-side zigzag misses some n.
    """
    bad = _decided(lambda ms, ns: _triangle_failure(d, ms, ns),
                   d.module.lattice, d.dual.lattice)
    if bad:
        raise bad


def _triangle_failure(d: DualityData, ms, ns) -> TriangularFails | None:
    M, N = d.module.lattice, d.dual.lattice
    for m in map(M.elements.__getitem__, ms):
        back = M.join_all(
            d.module.act(d.eps(m, nhat), m2) for nhat, m2 in d.eta
        )
        if back != m:
            return TriangularFails("right", witness=m)
    for n in map(N.elements.__getitem__, ns):
        back = N.join_all(
            d.dual.act(d.eps(m2, n), nhat) for nhat, m2 in d.eta
        )
        if back != n:
            return TriangularFails("left", witness=n)
    return None


# -- the lambda <-> rho transpose -------------------------------------------
#
# rho: N -> L (x)_B M is represented as a dict n -> tuple of (l, m) pairs,
# the formal sum of its value; lambda: N (x) M^ -> L as a callable (n, nhat).


def rho_of_lambda(lam, N: BModule, d: DualityData) -> dict:
    return {
        n: tuple((lam(n, nhat), m2) for nhat, m2 in d.eta)
        for n in N.lattice.elements
    }


def lambda_of_rho(rho: dict, L: BModule, d: DualityData):
    Llat = L.lattice

    def lam(n, nhat):
        return Llat.join_all(
            L.act(d.eps(m, nhat), l) for l, m in rho[n]
        )

    return lam


def tensor_element(T: TensorLattice, pairs):
    """The element of a tensor lattice named by a formal sum of pairs."""
    out = T.bottom
    for a, b in pairs:
        out = out.join(T.pair(a, b))
    return out


def transpose_roundtrip_ok(lam, N: BModule, L: BModule, d: DualityData,
                           T: TensorLattice | None = None) -> bool:
    """lambda -> rho -> lambda is the identity, and rho -> lambda -> rho
    holds up to equality in L (x)_B M."""
    rho = rho_of_lambda(lam, N, d)
    lam2 = lambda_of_rho(rho, L, d)
    for n in N.lattice.elements:
        for nhat in d.dual.lattice.elements:
            if lam(n, nhat) != lam2(n, nhat):
                return False
    if T is None:
        T = tensor_over(L.B, L, d.module)
    rho2 = rho_of_lambda(lam2, N, d)
    for n in N.lattice.elements:
        if tensor_element(T, rho[n]) != tensor_element(T, rho2[n]):
            return False
    return True


def dual_value(f, dM: DualityData, dN: DualityData, n):
    """The dual of a module morphism f: M -> N at one element n of N^."""
    return dM.dual.lattice.join_all(
        dM.dual.act(dN.eps(f(m2), n), nhat) for nhat, m2 in dM.eta)


def dual_morphism(f, dM: DualityData, dN: DualityData) -> SupMorphism:
    """The contravariant dual of a module morphism f: M -> N, as a table."""
    Ndual = dN.dual.lattice
    return SupMorphism(Ndual, dM.dual.lattice,
                       {n: dual_value(f, dM, dN, n) for n in Ndual.elements})
