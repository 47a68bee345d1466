"""The dense route to H^X, the oracle for `relation.selfduality`.

It lists H^X, tabulates the pointwise action over H x H^X and eps over
(H^X)^2, and validates both tables and the triangles with `modb`, on every
element, with eta the sum of the singleton pairs.  `relation.selfduality`
checks its laws on J(H) x J(H) x X.
"""

from finloc.lattice import _canon, function_lattice
from finloc.modb import BModule, DualityData, check_duality


def dense_selfduality(H, X):
    """The DualityData of H^X, the dense way."""
    fl = function_lattice(H, _canon(X))
    mod = BModule(H, fl, fl.act)

    def eps(theta, psi):
        return H.join_all(map(H.meet, theta, psi))

    eta = tuple((fl.singleton(x), fl.singleton(x)) for x in fl.domain)
    d = DualityData(mod, mod, eps, eta)
    check_duality(d)
    return d
