"""Universal factorization on A's index rows: the cone stream and the
morphism tables against the element-level oracles of `factor_oracle`, and
one mutant for each check that the factorization keeps."""

import functools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import factor_oracle
from finloc import galois
from finloc.errors import Mismatch, NotACone
from finloc.fixtures import chain, codiscrete, trivial_group, z_mod
from finloc.galois import (
    GaloisCoend,
    default_site,
    enumerate_bijection_cones,
    factor_cone,
    structural_cone_tables,
)
from finloc.lattice import SupMorphism, all_locales, is_frame, locale_morphisms, power_locale

GROUPOIDS = {"trivial": trivial_group, "Z2": lambda: z_mod(2),
             "Z3": lambda: z_mod(3), "codiscrete2": lambda: codiscrete(2)}


@functools.lru_cache(maxsize=None)
def _coend(name):
    """(coend, B = P(objects), the coend's locale) of a fixture groupoid."""
    G = GROUPOIDS[name]()
    gc = GaloisCoend(default_site(G))
    return gc, power_locale(G.objects), gc.quotient.locale()


@functools.lru_cache(maxsize=None)
def _locales():
    return all_locales(8)


def _tables(morphisms):
    return [f.table for f in morphisms]


def _cone_stream(name, A, enumerate):
    gc, B, _ = _coend(name)
    gs = locale_morphisms(B, A)
    return [tables for g0 in gs for g1 in gs for tables in enumerate(gc, A, g0, g1)]


def test_cone_stream_and_morphism_tables_match_the_element_level_oracles():
    total = 0
    for name in GROUPOIDS:
        gc, B, L = _coend(name)
        for A in _locales():
            assert _tables(locale_morphisms(B, A)) \
                == _tables(factor_oracle.locale_morphisms(B, A))
            assert _tables(locale_morphisms(L, A)) \
                == _tables(factor_oracle.locale_morphisms(L, A))
            got = _cone_stream(name, A, enumerate_bijection_cones)
            assert got == _cone_stream(name, A, factor_oracle.enumerate_bijection_cones)
            total += len(got)
    assert total == 504


def _rejections(monkeypatch):
    """Count the candidates that `_validate_cone` rejects."""
    rejected = []
    validate = galois._validate_cone

    def spy(*args):
        try:
            validate(*args)
        except NotACone:
            rejected.append(args[-1])
            raise

    monkeypatch.setattr(galois, "_validate_cone", spy)
    return rejected


def test_validation_keeps_the_cones_when_the_column_test_passes_all(monkeypatch):
    # the search's column test now accepts every row; the cones must still
    # be the oracle's, in the oracle's order.  No more candidates reach the
    # validation than before: above each point p of A, each row of a
    # representable has one entry above p, and once every row and column
    # joins to its top there are as many columns above p as rows (both are
    # the arrows from the representable's object to one object isomorphic
    # to it), so the columns are disjoint already and the test only prunes
    want = {(name, i): _cone_stream(name, A, factor_oracle.enumerate_bijection_cones)
            for name in GROUPOIDS for i, A in enumerate(_locales())}
    rejected = _rejections(monkeypatch)
    for name, i in want:
        _cone_stream(name, _locales()[i], enumerate_bijection_cones)
    unmutated = len(rejected)
    monkeypatch.setattr(galois, "_misses", lambda *args: True)
    for (name, i), cones in want.items():
        assert _cone_stream(name, _locales()[i], enumerate_bijection_cones) == cones
    assert unmutated > 0 and len(rejected) == 2 * unmutated


def _z2_cone():
    gc, B, L = _coend("Z2")
    g0 = SupMorphism(B, L, {b: gc.t_map(b).closure for b in B.elements})
    g1 = SupMorphism(B, L, {b: gc.s_map(b).closure for b in B.elements})
    tables = structural_cone_tables(gc, SupMorphism(L, L, {c: c for c in L.elements}))
    return gc, L, g0, g1, tables


def _broken_relations(q, A, assign):
    """The relations, up to orientation and in presentation order, whose
    sides assign sends to different joins, by element-level joins."""
    out = []
    for s, t in q.presentation.relations:
        if A.join_all(assign[g] for g in s) != A.join_all(assign[g] for g in t) \
                and (t, s) not in out and (s, t) not in out:
            out.append((s, t))
    return out


def _one_relation_mutant():
    """(generator index, element index, relation): the first change of one
    entry of the Z2 structural cone that breaks exactly one relation."""
    gc, L, _, _, tables = _z2_cone()
    q = gc.quotient
    assign = {(c, a, b): tables[c][(a, b)] for (c, a, b) in q.gens}
    for k, g in enumerate(q.gens):
        for m, v in enumerate(L.elements):
            broken = _broken_relations(q, L, {**assign, g: v})
            if len(broken) == 1:
                return k, m, broken[0]
    raise AssertionError("no entry change breaks exactly one relation")


MUTANT = """\
import json
from finloc.errors import NotACone
from finloc.fixtures import z_mod
from finloc.galois import GaloisCoend, default_site, factor_cone, structural_cone_tables
from finloc.lattice import SupMorphism, power_locale
gc = GaloisCoend(default_site(z_mod(2)))
L, B = gc.quotient.locale(), power_locale(gc.G.objects)
g0 = SupMorphism(B, L, {b: gc.t_map(b).closure for b in B.elements})
g1 = SupMorphism(B, L, {b: gc.s_map(b).closure for b in B.elements})
tables = structural_cone_tables(gc, SupMorphism(L, L, {c: c for c in L.elements}))
c, a, b = gc.quotient.gens[K]
tables[c][(a, b)] = L.elements[M]
try:
    factor_cone(gc, L, g0, g1, tables, validate=False)
except NotACone as exc:
    print(json.dumps([sorted(map(repr, side)) for side in exc.witness]))
"""


def _canonical(relation):
    return [sorted(map(repr, side)) for side in relation]


def test_a_table_breaking_one_relation_is_no_cone_with_that_witness():
    k, m, relation = _one_relation_mutant()
    gc, L, g0, g1, tables = _z2_cone()
    c, a, b = gc.quotient.gens[k]
    tables[c][(a, b)] = L.elements[m]
    with pytest.raises(NotACone) as e:
        factor_cone(gc, L, g0, g1, tables, validate=False)
    assert e.value.witness == relation


def test_a_table_breaking_one_relation_is_no_cone_under_python_O():
    k, m, relation = _one_relation_mutant()
    src = str(Path(galois.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = MUTANT.replace("[K]", f"[{k}]").replace("[M]", f"[{m}]")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == _canonical(relation)


def test_a_factorization_that_is_not_unique_fails_the_uniqueness_law():
    gc, L, g0, g1, tables = _z2_cone()
    candidates = locale_morphisms(L, L)
    h = factor_cone(gc, L, g0, g1, tables, candidates=candidates)
    twice = candidates + (SupMorphism(L, L, h.table),)
    with pytest.raises(Mismatch, match="uniqueness of the factorization") as e:
        factor_cone(gc, L, g0, g1, tables, candidates=twice)
    assert e.value.witness == 2
    others = tuple(f for f in candidates if f.table != h.table)
    with pytest.raises(Mismatch, match="uniqueness of the factorization") as e:
        factor_cone(gc, L, g0, g1, tables, candidates=others)
    assert e.value.witness == 0


def test_is_frame_decides_a_500_element_chain_in_under_a_second():
    L = chain(500)
    t0 = time.perf_counter()
    assert is_frame(L) == (True, None)
    assert time.perf_counter() - t0 < 1.0
