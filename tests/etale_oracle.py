"""The dense route to an étale module, the oracle for `galois.etale_module`.

It lists P(carrier), tabulates the action over B x P(carrier) and eps over
P(carrier)^2, and validates both tables and the triangles with `modb`, on
every element.  `galois.etale_module` checks the same laws on atoms only.
"""

from finloc.lattice import power_locale
from finloc.modb import BModule, DualityData, check_duality
from finloc.present import ModulePresentation


def overlap(act):
    """eps(U, V) = anchor(U & V), the pairing of the étale module of act."""
    return lambda U, V: frozenset(act.anchor[x] for x in U & V)


def dense_etale_module(B, act, eps=None, eta=None, action=None):
    """(module, duality) of act over B, the dense way; eps, eta and the
    action default to the overlap pairing, the singleton pairs and
    (b, U) -> {x in U : anchor(x) in b}."""
    M = power_locale(act.carrier)
    if action is None:
        def action(b, U):
            return frozenset(x for x in U if act.anchor[x] in b)

    gens = tuple(act.carrier)
    pres = ModulePresentation(M, gens, {x: frozenset({x}) for x in gens}, ())
    mod = BModule(B, M, action, presentation=pres)
    if eta is None:
        eta = tuple((frozenset({x}), frozenset({x})) for x in gens)
    d = DualityData(mod, mod, overlap(act) if eps is None else eps, eta)
    check_duality(d)
    return mod, d
