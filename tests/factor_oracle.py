"""The element-level routes to universal factorization, the oracles for
`galois.enumerate_bijection_cones` and `lattice.locale_morphisms`.

Both call the lattice one element at a time.  The cone search lists every
row under its caps, takes the whole product of rows, filters the columns
after it, and keeps what `galois._validate_cone` accepts.  The morphism
route extends a monotone map J(A) -> J(L) one join-irreducible at a time
and tabulates each morphism by `join_all`.  The library's index routes must
give the same tables in the same order.
"""

import itertools

from finloc import galois
from finloc.errors import NotACone
from finloc.lattice import SupMorphism


def enumerate_bijection_cones(gc, A, g0, g1):
    """Every cone into (A, g0, g1), searched and filtered on elements."""
    site = gc.site
    reps = [n for n in site.objects if n.startswith("R[")]

    def rows_for(act, x):
        cap_row = g0.table[frozenset({act.anchor[x]})]
        cols = act.carrier
        caps = [A.meet(cap_row, g1.table[frozenset({act.anchor[y]})])
                for y in cols]

        def rec(i, used, row):
            if i == len(cols):
                if A.join_all(row) == cap_row:
                    yield tuple(row)
                return
            for v in A.elements:
                if not A.leq(v, caps[i]):
                    continue
                if A.meet(v, used) != A.bottom:
                    continue
                yield from rec(i + 1, A.join(used, v), row + [v])

        yield from rec(0, A.bottom, [])

    def tables_for(rep_name):
        act = site.objects[rep_name]
        per_row = [list(rows_for(act, x)) for x in act.carrier]
        col_tops = [g1.table[frozenset({act.anchor[y]})] for y in act.carrier]

        def col_ok(col, top):  # column join and disjointness
            return A.join_all(col) == top and all(
                A.meet(col[i], col[j]) == A.bottom
                for i in range(len(col)) for j in range(i + 1, len(col)))

        for combo in itertools.product(*per_row):
            if all(map(col_ok, zip(*combo), col_tops)):
                yield {(x, y): v for x, row in zip(act.carrier, combo)
                       for y, v in zip(act.carrier, row)}

    for combo in itertools.product(*(list(tables_for(r)) for r in reps)):
        tables = dict(zip(reps, combo))
        term = site.objects["1"]
        tables["1"] = {
            (o, o2): A.meet(g0.table[frozenset({o})], g1.table[frozenset({o2})])
            for o in term.carrier for o2 in term.carrier
        }
        try:
            galois._validate_cone(gc, A, g0, g1, tables)
        except NotACone:
            continue
        yield tables


def locale_morphisms(L, A):
    """Every locale morphism L -> A, one per monotone map J(A) -> J(L), in
    the order of the library's route."""
    jl = L.join_irreducibles()
    ja = sorted(A.join_irreducibles(), key=lambda p: len(A.down_set(p)))
    out = []

    def extend(phi: dict):
        if len(phi) == len(ja):
            out.append(SupMorphism(L, A, {
                x: A.join_all(p for p in ja if L.leq(phi[p], x))
                for x in L.elements}))
            return
        p = ja[len(phi)]
        below = [phi[q] for q in phi if A.leq(q, p)]
        for v in jl:
            if all(L.leq(u, v) for u in below):
                extend({**phi, p: v})

    extend({})
    return tuple(out)
