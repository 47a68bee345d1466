"""Document loading, check orchestration, and machine-readable reports.

Documents are versioned UTF-8 JSON: named lattices, locales, relations,
groupoids and actions, plus a list of check directives.  Reports are JSON
with sorted keys and one entry per check; timing data lives in a separate
top-level field so that the rest of the report is byte-stable.  Exit codes:
0 all checks pass, 1 some check failed, 2 bad input.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time

from . import fixtures
from .errors import KernelError, ParseError, UnresolvedReference
from .galois import (
    DiscreteAction,
    FiniteGroupoid,
    GaloisCoend,
    default_site,
    equivalence_check,
    reconstruct,
)
from .lattice import (
    FiniteLocale,
    build_suplattice,
    check_carrier,
    is_frame,
    points,
)
from .present import tensor
from .relation import LRelation, check_axioms, check_diagram, classify, tabulate

SCHEMA_VERSION = 1


def _carrier(spec: dict, key: str, place: str) -> list:
    """A declared carrier: a JSON list, never a string, whose characters
    would otherwise be taken for its elements."""
    items = spec[key]
    if not isinstance(items, list):
        raise ParseError(f"{place}.{key} must be a list, not "
                         f"{type(items).__name__}")
    return [_hashable(e) for e in items]


def _pairs_to_dict(pairs, what):
    try:
        return {k: v for k, v in (tuple(p) for p in pairs)}
    except (TypeError, ValueError):
        raise ParseError(f"{what} must be a list of [key, value] pairs")


@contextlib.contextmanager
def _entry(section: str, index: int):
    """Turn a malformed declaration into a ParseError naming its place."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{section}[{index}] is malformed: "
                         f"{type(exc).__name__}: {exc}") from exc


def _section(raw: dict, name: str) -> list:
    """The declarations of one section: a list, or ParseError naming it."""
    items = raw.get(name, [])
    if not isinstance(items, list):
        raise ParseError(f"{name} must be a list, not "
                         f"{type(items).__name__}")
    return items


def _resolve(table: dict, name, what: str):
    """The declaration `name` refers to, or UnresolvedReference."""
    try:
        return table[name]
    except (KeyError, TypeError):
        raise UnresolvedReference(f"unknown {what} {name!r}") from None


class Document:
    """Parsed and validated declarations, ready to run checks against."""

    def __init__(self, raw: dict):
        self.raw = raw
        if not isinstance(raw, dict):
            raise ParseError("document must be a JSON object")
        if raw.get("version") != SCHEMA_VERSION:
            raise ParseError(f"unsupported document version {raw.get('version')!r}")
        self.lattices = {}
        self.locales = dict(fixtures.standard_locales())
        self.relations = {}
        self.groupoids = dict(fixtures.fixture_groupoids())
        self.actions = {}
        declared = 0  # all declared carriers together fit the bound
        for section in ("lattices", "locales"):
            for i, spec in enumerate(_section(raw, section)):
                with _entry(section, i):
                    elements = _carrier(spec, "elements", f"{section}[{i}]")
                    declared += len(elements)
                    check_carrier(declared, "the sum of the declared carriers")
                    L = build_suplattice(elements, [
                        tuple(map(_hashable, p)) for p in spec.get("covers", [])])
                    if section == "locales":
                        L = FiniteLocale.from_lattice(L)
                    getattr(self, section)[spec["name"]] = L
        for i, spec in enumerate(_section(raw, "groupoids")):
            with _entry("groupoids", i):
                self.groupoids[spec["name"]] = FiniteGroupoid(
                    objects=_carrier(spec, "objects", f"groupoids[{i}]"),
                    arrows=_carrier(spec, "arrows", f"groupoids[{i}]"),
                    source=_pairs_to_dict(spec["source"], "source"),
                    target=_pairs_to_dict(spec["target"], "target"),
                    unit=_pairs_to_dict(spec["unit"], "unit"),
                    compose={(f, g): h for f, g, h in spec["compose"]},
                    inverse=_pairs_to_dict(spec["inverse"], "inverse"),
                )
        for i, spec in enumerate(_section(raw, "relations")):
            with _entry("relations", i):
                H = _resolve(self.locales, spec["values"], "locale")
                table = {(_hashable(x), _hashable(y)): _hashable(v)
                         for x, y, v in spec["table"]}
                self.relations[spec["name"]] = LRelation(
                    H, _carrier(spec, "source", f"relations[{i}]"),
                    _carrier(spec, "target", f"relations[{i}]"), table)
        for i, spec in enumerate(_section(raw, "actions")):
            with _entry("actions", i):
                self.actions[spec["name"]] = DiscreteAction(
                    _resolve(self.groupoids, spec["groupoid"], "groupoid"),
                    _carrier(spec, "carrier", f"actions[{i}]"),
                    _pairs_to_dict(spec["anchor"], "anchor"),
                    {(g, x): y for g, x, y in spec["table"]},
                    name=spec["name"],
                )
        self.checks = list(_section(raw, "checks"))
        for i, item in enumerate(self.checks):
            _check_item(item, f"checks[{i}]")


def _hashable(v):
    if isinstance(v, list):
        return tuple(_hashable(x) for x in v)
    return v


def parse(text: str) -> Document:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    return Document(raw)


# -- checks --------------------------------------------------------------------


def _witness_json(w):
    if isinstance(w, (frozenset, set)):
        return sorted((_witness_json(x) for x in w), key=repr)
    if isinstance(w, tuple):
        return [_witness_json(x) for x in w]
    if isinstance(w, dict):
        return {str(k): _witness_json(v) for k, v in sorted(w.items(), key=repr)}
    return w if isinstance(w, (str, int, float, bool, type(None))) else repr(w)


def _valid_max_size(value) -> bool:
    """A carrier bound: an int >= 0 (a bool is an int in Python, not here)."""
    return isinstance(value, int) and not isinstance(value, bool) \
        and value >= 0


def _check_item(item, place: str) -> None:
    if not isinstance(item, dict):
        raise ParseError(f"{place} must be an object, not "
                         f"{type(item).__name__}")
    if "max_size" in item and not _valid_max_size(item["max_size"]):
        raise ParseError(f"{place}.max_size must be an int >= 0, not "
                         f"{item['max_size']!r}")


def run_check(doc: Document, item: dict, max_size: int) -> dict:
    _check_item(item, "a check item")
    kind = item.get("check")
    cid = item.get("id") or f"{kind}:{item.get('relation') or item.get('lattice') or item.get('groupoid') or ''}"
    out = {"id": cid, "check": kind, "status": "pass", "detail": {}}

    def fail(detail, witness=None):
        out["status"] = "fail"
        out["detail"] = detail
        if witness is not None:
            out["witness"] = _witness_json(witness)
        return out

    try:
        if kind == "frame":
            L = _resolve({**doc.locales, **doc.lattices}, item.get("lattice"),
                         "lattice")
            ok, witness = is_frame(L)
            out["detail"] = {"check_id": "lattice.frame_law", "frame": ok}
            if not ok and item.get("expect", "frame") == "frame":
                return fail(out["detail"], witness)
        elif kind == "points":
            H = _resolve(doc.locales, item.get("locale"), "locale")
            # Birkhoff: one point of H per join-irreducible (`points`)
            out["detail"] = {"check_id": "lattice.points",
                             "count": len(H.join_irreducibles())}
            want = item.get("expect_count")
            if want is not None and want != out["detail"]["count"]:
                return fail(out["detail"])
        elif kind == "axioms":
            r = _resolve(doc.relations, item.get("relation"), "relation")
            rep = check_axioms(r)
            out["detail"] = {
                "check_id": "relation.axioms",
                "everywhere_defined": rep.everywhere_defined,
                "univalued": rep.univalued,
                "surjective": rep.surjective,
                "injective": rep.injective,
                "classification": classify(r),
            }
            expect = item.get("expect")
            if expect is not None and expect != out["detail"]["classification"]:
                return fail(out["detail"], rep.witnesses)
        elif kind == "tabulate":
            r = _resolve(doc.relations, item.get("relation"), "relation")
            try:
                f = tabulate(r)
                out["detail"] = {"check_id": "relation.tabulate",
                                 "map": _witness_json(tuple(sorted(f.items(), key=repr)))}
            except KernelError as exc:
                return fail({"check_id": "relation.tabulate",
                             "error": str(exc)}, exc.witness)
        elif kind == "diagram":
            r = _resolve(doc.relations, item.get("first"), "relation")
            r2 = _resolve(doc.relations, item.get("second"), "relation")
            dkind = item["kind"]
            if dkind == "diamond":
                data = (set(map(tuple, item["R"])), set(map(tuple, item["S"])))
            else:
                data = (_pairs_to_dict(item["f"], "f"),
                        _pairs_to_dict(item["g"], "g"))
            ok, witness = check_diagram(dkind, data, r, r2)
            out["detail"] = {"check_id": f"relation.diagram.{dkind}", "holds": ok}
            if not ok and item.get("expect", True):
                return fail(out["detail"], witness)
        elif kind == "tensor":
            M = _resolve(doc.locales, item.get("first"), "locale")
            N = _resolve(doc.locales, item.get("second"), "locale")
            T = tensor(M, N)
            size = len(T.lattice())
            out["detail"] = {"check_id": "present.tensor", "size": size}
            if item.get("expect_size") not in (None, size):
                return fail(out["detail"])
        elif kind == "coend":
            G = _resolve(doc.groupoids, item.get("groupoid"), "groupoid")
            gc = GaloisCoend(default_site(G))
            size = len(gc.quotient.lattice())
            out["detail"] = {"check_id": "tannaka.coend", "size": size,
                             "expected": 2 ** len(G.arrows)}
            if size != 2 ** len(G.arrows):
                return fail(out["detail"])
        elif kind == "reconstruct":
            G = _resolve(doc.groupoids, item.get("groupoid"), "groupoid")
            rep = reconstruct(G)
            out["detail"] = {
                "check_id": "galois.reconstruct",
                "coend_size": rep.coend_size,
                "expected_size": rep.expected_size,
                "structure_maps_verified": ["c", "e", "m", "u", "a", "s", "t"],
            }
        elif kind == "equivalence":
            G = _resolve(doc.groupoids, item.get("groupoid"), "groupoid")
            rep = equivalence_check(G, item.get("max_size", max_size))
            out["detail"] = {
                "check_id": "galois.equivalence",
                "objects": rep.object_count,
                "object_classes": rep.object_classes,
                "hom_pairs": rep.hom_pairs_checked,
                "candidates": rep.candidates_checked,
            }
        elif kind == "selftest":
            out["detail"] = _selftest(max_size)
            if not out["detail"]["all_passed"]:
                out["status"] = "fail"
        else:
            raise ParseError(f"unknown check kind {kind!r}")
    except (KernelError, KeyError) as exc:
        witness = getattr(exc, "witness", None)
        return fail({"check_id": f"{kind}.error", "error": f"{type(exc).__name__}: {exc}"},
                    witness)
    return out


def _selftest(max_size: int) -> dict:
    """Built-in fixture suite: one line of the acceptance surface per area."""
    results = {}
    two, ch3, p2 = fixtures.TWO(), fixtures.CH3(), fixtures.P2()
    results["frames"] = all(is_frame(L)[0] for L in (two, ch3, p2)) \
        and not is_frame(fixtures.M3())[0]
    results["points"] = [len(points(two)), len(points(p2)), len(points(ch3))] \
        == [1, 2, 2]
    from .lattice import power_locale

    t = tensor(power_locale((1, 2)), power_locale(("a", "b")))
    results["tensor_freeness"] = len(t.lattice()) == 16
    g = fixtures.z_mod(2)
    rep = reconstruct(g)
    results["reconstruct_z2"] = rep.coend_size == 2 ** len(g.arrows)
    eq = equivalence_check(g, min(max_size, 3))
    results["equivalence_z2"] = eq.object_count > 0
    results["all_passed"] = all(bool(v) for v in results.values())
    return results


# -- orchestration ---------------------------------------------------------


def _timed_check(doc: Document, item: dict, max_size: int):
    """One check's result and its own elapsed time."""
    t1 = time.perf_counter()
    r = run_check(doc, item, max_size)
    return r, round(time.perf_counter() - t1, 6)


def _run_item(args):
    """`_timed_check` in a worker process, on the raw document."""
    raw, item, max_size = args
    return _timed_check(Document(raw), item, max_size)


def run(doc: Document, selection=None, max_size: int = 4,
        parallel: int = 1) -> tuple[dict, dict]:
    checks = doc.checks
    if selection is not None:
        checks = [c for c in checks if c.get("check") in selection]
    t0 = time.perf_counter()
    # the fork start method starts every worker at once: ask for no more
    # than there are checks to run and cores to run them
    workers = min(parallel, len(checks), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(
                _run_item, [(doc.raw, c, max_size) for c in checks]))
    else:
        done = [_timed_check(doc, c, max_size) for c in checks]
    results = [r for r, _ in done]
    # keyed by position as well as id: two checks may share an id
    timings = {f"{k}:{r['id']}": elapsed
               for k, (r, elapsed) in enumerate(done)}
    passed = sum(1 for r in results if r["status"] == "pass")
    report = {
        "version": SCHEMA_VERSION,
        "results": results,
        "summary": {"pass": passed, "fail": len(results) - passed,
                    "total": len(results)},
        "structures": {
            "lattices": sorted(doc.lattices),
            "locales": sorted(doc.locales),
            "relations": sorted(doc.relations),
            "groupoids": sorted(doc.groupoids),
            "actions": sorted(doc.actions),
        },
    }
    return report, {"total": round(time.perf_counter() - t0, 6),
                    "per_check": timings}


def emit(report: dict, timings: dict, fmt: str = "text", path=None) -> str:
    if fmt == "json":
        payload = dict(report)
        payload["timings"] = timings
        text = json.dumps(payload, sort_keys=True, indent=2,
                          default=repr) + "\n"
    else:
        lines = []
        for r in report["results"]:
            mark = "PASS" if r["status"] == "pass" else "FAIL"
            lines.append(f"[{mark}] {r['id']}")
            if r["status"] != "pass":
                lines.append(f"       {json.dumps(r['detail'], sort_keys=True, default=repr)}")
                if "witness" in r:
                    lines.append(f"       witness: {json.dumps(r['witness'], default=repr)}")
        s = report["summary"]
        lines.append(f"{s['pass']}/{s['total']} checks passed")
        text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def _load_doc(path) -> Document:
    if path is None:
        return Document({"version": 1, "checks": []})
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read())


def _int_arg(least: int):
    """An argparse type: an int >= least, else exit 2 with a message."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = least - 1
        if value < least:
            raise argparse.ArgumentTypeError(
                f"must be an int >= {least}, not {text!r}")
        return value

    return parse


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="finloc",
        description="finite locale and groupoid verification kernel")
    ap.add_argument("command",
                    choices=["validate", "check", "coend", "reconstruct",
                             "equivalence", "selftest"])
    ap.add_argument("--input", help="JSON document path")
    ap.add_argument("--report", help="write the report to this path")
    ap.add_argument("--format", choices=["text", "json"], default="text")
    ap.add_argument("--check", action="append", dest="checks",
                    help="restrict `check` to these kinds")
    ap.add_argument("--groupoid", help="fixture or declared groupoid name")
    ap.add_argument("--max-size", type=_int_arg(0), default=4)
    ap.add_argument("--parallel", type=_int_arg(1), default=1)
    ns = ap.parse_args(argv)
    try:
        doc = _load_doc(ns.input)
    except (OSError, ParseError, KernelError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    if ns.command == "validate":
        report, timings = run(doc, selection=())
        report["results"] = [{"id": "validate", "check": "validate",
                              "status": "pass", "detail": {}}]
        report["summary"] = {"pass": 1, "fail": 0, "total": 1}
    elif ns.command == "check":
        report, timings = run(doc, selection=ns.checks, max_size=ns.max_size,
                              parallel=ns.parallel)
    elif ns.command in ("coend", "reconstruct", "equivalence"):
        if not ns.groupoid:
            print("input error: --groupoid is required", file=sys.stderr)
            return 2
        item = {"check": ns.command, "groupoid": ns.groupoid,
                "max_size": ns.max_size}
        doc.checks = [item]
        report, timings = run(doc, max_size=ns.max_size)
    else:  # selftest
        doc.checks = [{"check": "selftest", "id": "selftest"}]
        report, timings = run(doc, max_size=ns.max_size)
    text = emit(report, timings, ns.format, ns.report)
    if not ns.report:
        print(text, end="")
    return 0 if report["summary"]["fail"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
