"""The four benchmark workloads: seeded inputs, op lists and answer oracles.

Every workload is driven through finloc's public modules only.  The seed
relabels carriers, objects, arrows and locale elements and shuffles the op
order; the program only ever sees the generated, relabelled inputs.  Every
expected answer below is invariant under relabelling.

A workload is a class with

* ``setup()``: builds the inputs (untimed work that counts as set-up);
* ``passes``: op lists in the seed's order; pass i runs
  ``passes[i % len(passes)]``.  Where one relabelling would be shared by
  many heavy ops, a workload spreads several relabelled copies of its
  inputs over passes or ops, so that the work a label order happens to
  cost averages out within a run;
* ``pass_failures(answers)``: cross-op checks run after a pass, returning
  the ids of ops whose answers are inconsistent with the others.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable

# Whole passes a run measures are --seconds divided by these nominal pass
# times (seconds per pass at the seed commit, 2-core x86-64, Python 3.11),
# so every run of every commit does the same work.
NOMINAL_PASS_S = {
    "reconstruct": 1.35,
    "factorize": 8.2,
    "equivalence": 12.7,
    "duality": 15.0,
}


@dataclass
class Op:
    id: str
    run: Callable[[], object]
    check: Callable[[object], bool]


def _labels(rng: random.Random, n: int, prefix: str) -> list:
    return [f"{prefix}{v:05x}" for v in rng.sample(range(16 ** 5), n)]


# -- groupoids ----------------------------------------------------------------

# name -> (kind, n, number of arrows)
GROUPOIDS = {
    "trivial": ("cyclic", 1, 1),
    "Z2": ("cyclic", 2, 2),
    "Z3": ("cyclic", 3, 3),
    "codiscrete2": ("codiscrete", 2, 4),
    "discrete2": ("discrete", 2, 2),
    "discrete3": ("discrete", 3, 3),
}


def _abstract_groupoid(kind: str, n: int):
    """objects, arrows, source, target, unit, compose, inverse on plain ints."""
    if kind == "cyclic":
        objects, arrows = [0], list(range(n))
        src = tgt = {a: 0 for a in arrows}
        unit = {0: 0}
        comp = {(i, j): (i + j) % n for i in arrows for j in arrows}
        inv = {k: (-k) % n for k in arrows}
    elif kind == "codiscrete":  # arrow (a, b): a -> b
        objects = list(range(n))
        arrows = [(a, b) for a in objects for b in objects]
        src = {f: f[0] for f in arrows}
        tgt = {f: f[1] for f in arrows}
        unit = {o: (o, o) for o in objects}
        comp = {((b, c), (a, b2)): (a, c)
                for (b, c) in arrows for (a, b2) in arrows if b2 == b}
        inv = {(a, b): (b, a) for (a, b) in arrows}
    elif kind == "discrete":
        objects = arrows = list(range(n))
        src = tgt = unit = inv = {o: o for o in objects}
        comp = {(o, o): o for o in objects}
    else:
        raise ValueError(kind)
    return objects, arrows, src, tgt, unit, comp, inv


def groupoid_spec(rng: random.Random, gname: str, label: str) -> dict:
    """A relabelled groupoid as a finloc document declaration."""
    kind, n, _ = GROUPOIDS[gname]
    objects, arrows, src, tgt, unit, comp, inv = _abstract_groupoid(kind, n)
    ol = dict(zip(objects, _labels(rng, len(objects), "o")))
    al = dict(zip(arrows, _labels(rng, len(arrows), "a")))
    objs = [ol[o] for o in objects]
    arrs = [al[a] for a in arrows]
    rng.shuffle(objs)
    rng.shuffle(arrs)
    return {
        "name": label,
        "objects": objs,
        "arrows": arrs,
        "source": [[al[a], ol[src[a]]] for a in arrows],
        "target": [[al[a], ol[tgt[a]]] for a in arrows],
        "unit": [[ol[o], al[unit[o]]] for o in objects],
        "compose": [[al[f], al[g], al[h]] for (f, g), h in comp.items()],
        "inverse": [[al[a], al[inv[a]]] for a in arrows],
    }


def build_groupoid(spec: dict):
    from finloc.galois import FiniteGroupoid

    return FiniteGroupoid(
        objects=spec["objects"],
        arrows=spec["arrows"],
        source=dict(map(tuple, spec["source"])),
        target=dict(map(tuple, spec["target"])),
        unit=dict(map(tuple, spec["unit"])),
        compose={(f, g): h for f, g, h in spec["compose"]},
        inverse=dict(map(tuple, spec["inverse"])),
    )


# -- locales --------------------------------------------------------------------

# name -> (element count, cover pairs on 0..n-1)
SMALL_LOCALES = {
    "TWO": (2, [(0, 1)]),
    "CH3": (3, [(0, 1), (1, 2)]),
    "P2": (4, [(0, 1), (0, 2), (1, 3), (2, 3)]),
}


def relabel_locale(rng: random.Random, n: int, covers, prefix: str = "e"):
    """The locale on positions 0..n-1 with these cover pairs, under random
    labels; returns it with the label of each position."""
    from finloc.lattice import build_locale

    lab = _labels(rng, n, prefix)
    return build_locale(lab, [(lab[a], lab[b]) for a, b in covers]), lab


def covers_of_lattice(L) -> list:
    """Cover pairs of a finite lattice, on element positions."""
    els = L.elements
    lt = [[i != j and L.leq(x, y) for j, y in enumerate(els)]
          for i, x in enumerate(els)]
    return [(i, j) for i in range(len(els)) for j in range(len(els))
            if lt[i][j] and not any(lt[i][k] and lt[k][j]
                                    for k in range(len(els)))]


# -- workloads ------------------------------------------------------------------


class Reconstruct:
    """One document through finloc.cli: a coend and a reconstruct check per
    relabelled groupoid (12 ops), over four relabelled copies in turn."""

    name = "reconstruct"
    COPIES = 4

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def setup(self):
        from finloc import cli

        self.cli = cli
        groupoids, copies = [], []
        for _ in range(self.COPIES):
            names = list(GROUPOIDS)
            self.rng.shuffle(names)
            labels = dict(zip(names, _labels(self.rng, len(names), "G")))
            groupoids += [groupoid_spec(self.rng, g, labels[g]) for g in names]
            checks = [{"check": kind, "groupoid": labels[g],
                       "id": f"{kind}:{g}"}
                      for g in names for kind in ("coend", "reconstruct")]
            self.rng.shuffle(checks)
            copies.append(checks)
        self.rng.shuffle(groupoids)
        doc = {"version": 1, "groupoids": groupoids,
               "checks": [c for checks in copies for c in checks]}
        self.doc = cli.parse(json.dumps(doc))
        self.passes = [[self._op(item) for item in checks]
                       for checks in copies]

    def _op(self, item):
        kind, gname = item["id"].split(":")
        size = 2 ** GROUPOIDS[gname][2]

        def run():
            self.doc.checks = [item]
            report, _ = self.cli.run(self.doc)
            return report["results"]

        def check(results):
            if len(results) != 1 or results[0]["status"] != "pass":
                return False
            d = results[0]["detail"]
            if kind == "coend":
                return d["size"] == d["expected"] == size
            return d["coend_size"] == d["expected_size"] == size

        return Op(item["id"], run, check)

    def pass_failures(self, answers):
        return []


class Factorize:
    """Universal factorization of every bijection cone, for four groupoids
    against every locale with at most 7 elements (84 ops).  Each groupoid
    has three relabelled copies, used in turn by its 21 ops."""

    name = "factorize"
    COPIES = 3
    # bijection cones per groupoid over the 21 target locales
    EXPECTED_CONES = {"trivial": 21, "Z2": 45, "Z3": 73, "codiscrete2": 105}

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def setup(self):
        from finloc import galois, lattice

        self.galois, self.lattice = galois, lattice
        targets = [L for L in lattice.all_locales(8) if len(L) <= 7]
        self.targets = [relabel_locale(self.rng, len(L), covers_of_lattice(L),
                                       f"t{i}_")[0]
                        for i, L in enumerate(targets)]
        self.coends = {}
        for gname in self.EXPECTED_CONES:
            for k in range(self.COPIES):
                G = build_groupoid(groupoid_spec(self.rng, gname, gname))
                gc = galois.GaloisCoend(galois.default_site(G))
                self.coends[gname, k] = (gc, lattice.power_locale(G.objects),
                                         gc.quotient.locale())
        ops = [self._op(g, i) for g in self.EXPECTED_CONES
               for i in range(len(self.targets))]
        self.rng.shuffle(ops)
        self.passes = [ops]

    def _op(self, gname, i):
        gc, B, coend_locale = self.coends[gname, i % self.COPIES]
        A = self.targets[i]
        galois, lattice = self.galois, self.lattice

        def run():
            gs = lattice.locale_morphisms(B, A)
            candidates = lattice.locale_morphisms(coend_locale, A)
            cones = 0
            for g0 in gs:
                for g1 in gs:
                    for tables in galois.enumerate_bijection_cones(gc, A, g0, g1):
                        galois.factor_cone(gc, A, g0, g1, tables,
                                           candidates=candidates,
                                           validate=False)
                        cones += 1
            return cones, len(candidates)

        def check(answer):
            # cones and locale morphisms out of the coend are in bijection
            cones, morphisms = answer
            return cones == morphisms

        return Op(f"factor:{gname}@L{i}", run, check)

    def pass_failures(self, answers):
        bad = []
        for gname, want in self.EXPECTED_CONES.items():
            ids = [k for k in answers if k.startswith(f"factor:{gname}@")]
            got = sum(answers[k][0] for k in ids if answers[k] is not None)
            if len(ids) != len(self.targets) or got != want:
                bad += ids
        return bad


class Equivalence:
    """equivalence_check on (Z2, 4), (codiscrete2, 4) and (trivial, 4), over
    two relabelled copies in turn."""

    name = "equivalence"
    COPIES = 2
    # groupoid -> (object_count, candidates_checked) at max_size 4
    EXPECTED = {"Z2": (18, 644835), "codiscrete2": (4, 297),
                "trivial": (5, 74963)}

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def setup(self):
        from finloc import galois

        self.passes = []
        for _ in range(self.COPIES):
            names = list(self.EXPECTED)
            self.rng.shuffle(names)
            self.passes.append([
                self._op(galois, g,
                         build_groupoid(groupoid_spec(self.rng, g, g)))
                for g in names])

    def _op(self, galois, gname, G):
        want = self.EXPECTED[gname]

        def run():
            rep = galois.equivalence_check(G, 4)
            return rep.object_count, rep.candidates_checked

        return Op(f"equivalence:{gname}", run, lambda answer: answer == want)

    def pass_failures(self, answers):
        return []


class Duality:
    """The tensor ladder, selfduality(H, n) and the self-duality of X_d for
    every sheaf with at most 3 sections over TWO, CH3 and P2."""

    name = "duality"
    TENSORS = ((2, 4), (3, 3), (2, 5))
    SHEAF_COUNTS = {"TWO": 4, "CH3": 60, "P2": 16}
    # sorted |X_d| over the sheaves of enumerate_sheaves(P, 3)
    XD_SIZES = {
        "TWO": (1, 2, 4, 8),
        "CH3": (1, 2, 3, 4, 5, 6, 6, 8, 9, 9, 9, 10, 10, 12, 12, 12, 15, 15,
                15, 15, 15, 15, 18, 18, 18, 18, 18, 18, 18, 18, 20, 20, 20,
                27, 27, 27, 27, 27, 27, 30, 30, 30, 30, 30, 30, 30, 30, 30,
                30, 30, 30, 30, 30, 30, 30, 30, 30, 36, 36, 36),
        "P2": (1, 2, 2, 4, 4, 4, 8, 8, 8, 8, 16, 16, 16, 32, 32, 64),
    }

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def setup(self):
        from finloc import lattice, present, relation, sheaf

        rng = self.rng
        ops = []
        for a, b in self.TENSORS:
            M = lattice.power_locale(_labels(rng, a, "x"))
            N = lattice.power_locale(_labels(rng, b, "y"))
            ops.append(Op(f"tensor:{a}x{b}",
                          lambda M=M, N=N: len(present.tensor(M, N).lattice()),
                          lambda size, want=2 ** (a * b): size == want))
        for hname, (n_el, covers) in SMALL_LOCALES.items():
            for n in range(4):
                H, _ = relabel_locale(rng, n_el, covers)
                X = _labels(rng, n, "s")
                ops.append(Op(
                    f"selfduality:{hname}^{n}",
                    lambda H=H, X=X: len(relation.selfduality(H, X, cap=256)
                                         .module.lattice),
                    lambda size, want=n_el ** n: size == want))
        for pname, (n_el, covers) in SMALL_LOCALES.items():
            P, lab = relabel_locale(rng, n_el, covers)
            ops.append(Op(f"enumerate:{pname}",
                          lambda P=P: sum(1 for _ in sheaf.enumerate_sheaves(P, 3)),
                          lambda count, want=self.SHEAF_COUNTS[pname]:
                          count == want))
            for i, X in enumerate(sheaf.enumerate_sheaves(P, 3)):
                # each sheaf moves to its own relabelled copy of P, so that
                # the cost a label order happens to add averages over the ops
                Q, qlab = relabel_locale(rng, n_el, covers)
                phi = dict(zip(lab, qlab))
                Y = sheaf.check_sheaf(
                    Q, {phi[p]: X.sections[p] for p in P.elements},
                    {(phi[p], phi[q]): t for (p, q), t in X.restrict.items()})
                ops.append(Op(f"sheaf:{pname}#{i}",
                              lambda Y=Y: self._selfdual(sheaf, Y),
                              lambda size: size > 0))
        rng.shuffle(ops)
        self.passes = [ops]

    @staticmethod
    def _selfdual(sheaf, X):
        d = sheaf.build_Xd(X)
        sheaf.selfdual_Xd(d)
        return len(d.lattice)

    def pass_failures(self, answers):
        bad = []
        for pname, want in self.XD_SIZES.items():
            ids = [k for k in answers if k.startswith(f"sheaf:{pname}#")]
            sizes = tuple(sorted(answers[k] for k in ids
                                 if answers[k] is not None))
            if sizes != want:
                bad += ids
        return bad


class MemoryGuard:
    """Not a benchmark workload: an op that asks for more memory than the
    child's RLIMIT_AS, then a small real op, so the benchmark's own tests can
    show that a blow-up is a failed op and the child carries on."""

    name = "memory-guard"

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def setup(self):
        import resource

        from finloc import lattice, present

        def overallocate():
            limit, _ = resource.getrlimit(resource.RLIMIT_AS)
            if limit == resource.RLIM_INFINITY:
                raise RuntimeError("no address-space limit set")
            return len(bytearray(limit))

        M = lattice.power_locale(_labels(self.rng, 2, "x"))
        N = lattice.power_locale(_labels(self.rng, 2, "y"))
        self.passes = [[
            Op("overallocate", overallocate, lambda answer: False),
            Op("tensor:2x2", lambda: len(present.tensor(M, N).lattice()),
               lambda size: size == 16),
        ]]

    def pass_failures(self, answers):
        return []


WORKLOADS = {w.name: w for w in (Reconstruct, Factorize, Equivalence, Duality)}
# workloads that only the benchmark's own tests run
CHECKS = {w.name: w for w in (MemoryGuard,)}

