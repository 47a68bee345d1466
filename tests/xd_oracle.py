"""The dense route to X_d, the oracle for `sheaf.build_Xd` and `selfdual_Xd`.

It presents the subsheaf lattice by one generator per section, with the
restriction relations and one cover relation per section over J(down p),
materializes every closed set, tabulates the action over P x X_d and eps
over X_d x X_d, and validates both tables and the triangles with `modb`.
`sheaf.build_Xd` builds X_d from the down-sets of the sections over
join-irreducibles and checks its laws there.
"""

from types import SimpleNamespace

from finloc.modb import BModule, DualityData, check_duality
from finloc.present import JoinPresentation, ModulePresentation, PresentedSupLattice
from finloc.sheaf import eq_bracket


def dense_Xd(X, action=None):
    """(sheaf, quotient, module, delta, lattice) of X_d, the dense way; the
    action defaults to the closure of the generators of C restricted by b."""
    P = X.P
    gens = X.total()
    rels = []
    for p in P.elements:
        cover = tuple(j for j in P.join_irreducibles() if P.leq(j, p))
        for x in X.sections[p]:
            for q in P.down_set(p):
                if q != p:
                    rels.append((frozenset({(p, x)}),
                                 frozenset({(p, x), (q, X.res(p, q, x))})))
            if p not in cover:
                rels.append((frozenset({(p, x)}),
                             frozenset((j, X.res(p, j, x)) for j in cover)))
    q = PresentedSupLattice(JoinPresentation(gens, tuple(rels)))
    lat = q.lattice()
    delta = {g: q.gen_class(g).closure for g in gens}
    if action is None:
        def action(b, C):
            return q.closure((P.meet(p, b), X.res(p, P.meet(p, b), x))
                             for (p, x) in C)

    pres = ModulePresentation(lat, gens, delta, tuple(rels))
    module = BModule(P, lat, action, presentation=pres)
    return SimpleNamespace(sheaf=X, quotient=q, module=module, delta=delta,
                           lattice=lat)


def bracket_eps(d):
    """eps(theta, psi), the join of the equality bracket over theta x psi."""
    P = d.sheaf.P
    return lambda theta, psi: P.join_all(eq_bracket(d, g, h)
                                         for g in theta for h in psi)


def dense_selfdual_Xd(d, eps=None, eta=None):
    """The DualityData of X_d, the dense way: eps defaults to the bracket
    join and eta to the delta pairs of every section."""
    if eta is None:
        eta = tuple((v, v) for v in d.delta.values())
    dd = DualityData(d.module, d.module, bracket_eps(d) if eps is None else eps,
                     eta)
    check_duality(dd)
    return dd


def dense_check(d):
    """The dense validators on the maps of a `modb.JModule` d, such as X_d
    or H^X: a `BModule` of its action, and `DualityData` and both triangles
    of its eps and eta."""
    mod = BModule(d.B, d.lattice, d.act)
    dd = DualityData(mod, mod, d.eps, d.eta)
    check_duality(dd)
    return dd
