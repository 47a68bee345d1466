"""Modules over a finite locale B, duality data and the transpose calculus.

A module is a sup-lattice M with a B-action that preserves joins in each
slot, is unital, and turns meet into composition.  Duality data for M is a
dual module, an evaluation into B and a coevaluation element, subject to
the two triangular equations.  A module keeps its action, and duality data
its evaluation, as the index table its laws are checked on where it is
built, join preservation by adjunction.  Once those adjunction tests pass,
each remaining law holds between maps that preserve joins in every slot,
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
    FunctionLocale,
    SupMorphism,
    Violation,
    join_failure,
    two,
)
from .present import ModulePresentation, TensorLattice, lattice_presentation, tensor_over


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

    @classmethod
    def function_module(cls, fl: FunctionLocale) -> "BModule":
        """H^X with the pointwise H-action."""
        return cls(fl.base, fl, lambda a, t: fl.act(a, t))

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


def _irreducible_indices(L: FiniteSupLattice) -> list:
    return list(map(L.index, L.join_irreducibles()))


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
