"""Modules over a finite locale B, duality data and the transpose calculus.

A module is a sup-lattice M with a B-action that preserves joins in each
slot, is unital, and turns meet into composition.  Duality data for M is a
dual module, an evaluation into B and a coevaluation element, subject to
the two triangular equations; everything here is checked elementwise.
"""

from __future__ import annotations

from .errors import DomainMismatch, NotAModule, NotDualizable, TriangularFails
from .lattice import (
    FiniteLocale,
    FiniteSupLattice,
    FunctionLocale,
    SupMorphism,
    Violation,
    two,
)
from .present import ModulePresentation, TensorLattice, lattice_presentation, tensor_over


class BModule:
    """A sup-lattice with a validated action of a finite locale."""

    def __init__(self, B: FiniteLocale, lattice: FiniteSupLattice, action,
                 presentation: ModulePresentation | None = None,
                 validate: bool = True):
        self.B = B
        self.lattice = lattice
        if callable(action):
            self._act = {(b, m): action(b, m) for b in B.elements
                         for m in lattice.elements}
        else:
            self._act = dict(action)
        self._presentation = presentation
        if validate:
            bad = check_module(B, lattice, self._act)
            if bad:
                raise NotAModule(f"action violates {bad.kind} at {bad.witness!r}",
                                 witness=bad.witness)

    def act(self, b, m):
        try:
            return self._act[(b, m)]
        except KeyError:
            raise DomainMismatch(f"action undefined at ({b!r}, {m!r})") from None

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


def self_module(B: FiniteLocale) -> BModule:
    return BModule.self_module(B)


def check_module(B: FiniteLocale, M: FiniteSupLattice, action) -> Violation | None:
    """Validate the module laws exhaustively; None when all hold."""
    act = action if callable(action) else lambda b, m: action[(b, m)]
    for b in B.elements:
        if act(b, M.bottom) != M.bottom:
            return Violation("m-slot bottom", (b,))
        for m in M.elements:
            for m2 in M.elements:
                if act(b, M.join(m, m2)) != M.join(act(b, m), act(b, m2)):
                    return Violation("m-slot join", (b, m, m2))
    for m in M.elements:
        if act(B.bottom, m) != M.bottom:
            return Violation("b-slot bottom", (m,))
        if act(B.top, m) != m:
            return Violation("unit", (m,))
        for b in B.elements:
            for b2 in B.elements:
                if act(B.join(b, b2), m) != M.join(act(b, m), act(b2, m)):
                    return Violation("b-slot join", (b, b2, m))
                if act(B.meet(b, b2), m) != act(b, act(b2, m)):
                    return Violation("meet-composition", (b, b2, m))
    return None


class BBimodule:
    """Left and right B-actions that commute; equivalently a B(x)B-module."""

    def __init__(self, B: FiniteLocale, lattice: FiniteSupLattice,
                 left, right, validate: bool = True):
        self.B = B
        self.lattice = lattice
        self.left_module = BModule(B, lattice, left, validate=validate)
        self.right_module = BModule(B, lattice, right, validate=validate)
        if validate:
            for b in B.elements:
                for b2 in B.elements:
                    for m in lattice.elements:
                        lr = self.left_module.act(b, self.right_module.act(b2, m))
                        rl = self.right_module.act(b2, self.left_module.act(b, m))
                        if lr != rl:
                            raise NotAModule(
                                f"left and right actions do not commute at "
                                f"({b!r}, {b2!r}, {m!r})", witness=(b, b2, m))

    def act(self, b, b2, m):
        return self.left_module.act(b, self.right_module.act(b2, m))


class DualityData:
    """(M^, eta, eps) witnessing that Mdual is the right dual of M.

    eps is a callable on element pairs (m, n) -> B; eta is a tuple of
    (n, m) pairs whose formal sum is the coevaluation.
    """

    def __init__(self, module: BModule, dual: BModule, eps, eta,
                 validate: bool = True):
        self.module = module
        self.dual = dual
        self.eps = eps
        self.eta = tuple(eta)
        if validate:
            self._check_bilinear()

    def _check_bilinear(self):
        B, M, N = self.module.B, self.module.lattice, self.dual.lattice
        eps = self.eps
        for n in N.elements:
            if eps(M.bottom, n) != B.bottom:
                raise NotDualizable("eps not linear at bottom (first slot)")
        for m in M.elements:
            if eps(m, N.bottom) != B.bottom:
                raise NotDualizable("eps not linear at bottom (second slot)")
        for m in M.elements:
            for m2 in M.elements:
                for n in N.elements:
                    if eps(M.join(m, m2), n) != B.join(eps(m, n), eps(m2, n)):
                        raise NotDualizable(
                            f"eps not join-linear at ({m!r}, {m2!r}, {n!r})")
        for n in N.elements:
            for n2 in N.elements:
                for m in M.elements:
                    if eps(m, N.join(n, n2)) != B.join(eps(m, n), eps(m, n2)):
                        raise NotDualizable(
                            f"eps not join-linear at ({n!r}, {n2!r}, {m!r})")
        for b in B.elements:
            for m in M.elements:
                for n in N.elements:
                    if eps(self.module.act(b, m), n) != B.meet(b, eps(m, n)):
                        raise NotDualizable(
                            f"eps not B-linear at ({b!r}, {m!r}, {n!r})")
                    if eps(m, self.dual.act(b, n)) != B.meet(b, eps(m, n)):
                        raise NotDualizable(
                            f"eps not B-linear (dual slot) at ({b!r}, {m!r}, {n!r})")


def check_duality(d: DualityData) -> None:
    """Both triangular equations, evaluated on every element.

    Raises TriangularFails('right') when the M-side zigzag misses some m,
    TriangularFails('left') when the dual-side zigzag misses some n.
    """
    M, N = d.module.lattice, d.dual.lattice
    for m in M.elements:
        back = M.join_all(
            d.module.act(d.eps(m, nhat), m2) for nhat, m2 in d.eta
        )
        if back != m:
            raise TriangularFails("right", witness=m)
    for n in N.elements:
        back = N.join_all(
            d.dual.act(d.eps(m2, n), nhat) for nhat, m2 in d.eta
        )
        if back != n:
            raise TriangularFails("left", witness=n)


# -- the lambda <-> rho transpose -------------------------------------------
#
# rho: N -> L (x)_B M is represented as a dict n -> tuple of (l, m) pairs,
# the formal sum of its value; lambda: N (x) M^ -> L as a callable (n, nhat).


def rho_of_lambda(lam, N: BModule, L: BModule, d: DualityData) -> dict:
    return {
        n: tuple((lam(n, nhat), m2) for nhat, m2 in d.eta)
        for n in N.lattice.elements
    }


def lambda_of_rho(rho: dict, N: BModule, L: BModule, d: DualityData):
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
    rho = rho_of_lambda(lam, N, L, d)
    lam2 = lambda_of_rho(rho, N, L, d)
    for n in N.lattice.elements:
        for nhat in d.dual.lattice.elements:
            if lam(n, nhat) != lam2(n, nhat):
                return False
    if T is None:
        T = tensor_over(L.B, L, d.module)
    rho2 = rho_of_lambda(lam2, N, L, d)
    for n in N.lattice.elements:
        if tensor_element(T, rho[n]) != tensor_element(T, rho2[n]):
            return False
    return True


def dual_morphism(f, dM: DualityData, dN: DualityData) -> SupMorphism:
    """The contravariant dual of a module morphism f: M -> N."""
    Ndual, Mdual = dN.dual.lattice, dM.dual.lattice
    table = {}
    for n in Ndual.elements:
        table[n] = Mdual.join_all(
            dM.dual.act(dN.eps(f(m2), n), nhat) for nhat, m2 in dM.eta
        )
    return SupMorphism(Ndual, Mdual, table)


def duality_iso(d1: DualityData, d2: DualityData) -> SupMorphism:
    """Canonical comparison M^_1 -> M^_2 between two duals of the same module.

    Built as the dual of the identity through the two dualities; the caller
    checks it is an isomorphism commuting with the evaluations.
    """
    if d1.module.lattice.elements != d2.module.lattice.elements:
        raise NotDualizable("dualities are not over the same module")
    return dual_morphism(lambda m: m, d2, d1)
