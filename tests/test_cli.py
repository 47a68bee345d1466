"""Document parsing, check execution, report emission, exit codes."""

import concurrent.futures
import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finloc import cli, lattice
from finloc.cli import Document, emit, main, parse, run, run_check
from finloc.errors import ParseError, UnresolvedReference

DOC = {
    "version": 1,
    "lattices": [
        {"name": "M3L",
         "elements": ["bot", "x", "y", "z", "top"],
         "covers": [["bot", "x"], ["bot", "y"], ["bot", "z"],
                    ["x", "top"], ["y", "top"], ["z", "top"]]},
    ],
    "relations": [
        {"name": "ident", "values": "TWO", "source": [0, 1], "target": [0, 1],
         "table": [[0, 0, 1], [0, 1, 0], [1, 0, 0], [1, 1, 1]]},
        {"name": "full", "values": "TWO", "source": [0, 1], "target": [0, 1],
         "table": [[0, 0, 1], [0, 1, 1], [1, 0, 1], [1, 1, 1]]},
    ],
    "checks": [
        {"check": "axioms", "relation": "ident", "expect": "bijection"},
        {"check": "frame", "lattice": "M3L"},
        {"check": "tabulate", "relation": "full"},
        {"check": "points", "locale": "P2", "expect_count": 2},
        {"check": "coend", "groupoid": "Z2"},
    ],
}


def test_parse_counts_declarations():
    doc = parse(json.dumps(DOC))
    assert set(doc.relations) == {"ident", "full"}
    assert "M3L" in doc.lattices


def test_parse_rejects_bad_version():
    with pytest.raises(ParseError):
        parse(json.dumps({"version": 99}))


def test_parse_reports_line_of_bad_json():
    with pytest.raises(ParseError) as e:
        parse("{\n  broken")
    assert "line 2" in str(e.value)


def test_unresolved_reference():
    bad = {"version": 1,
           "relations": [{"name": "r", "values": "NOPE", "source": [],
                          "target": [], "table": []}]}
    with pytest.raises(UnresolvedReference):
        parse(json.dumps(bad))


def test_locale_declaration_validates_frame_law():
    bad = {"version": 1,
           "locales": [{"name": "M3bad",
                        "elements": ["bot", "x", "y", "z", "top"],
                        "covers": [["bot", "x"], ["bot", "y"], ["bot", "z"],
                                   ["x", "top"], ["y", "top"], ["z", "top"]]}]}
    from finloc.errors import NotAFrame

    with pytest.raises(NotAFrame) as e:
        parse(json.dumps(bad))
    assert e.value.witness == ("x", "y", "z")


def test_run_checks_and_witnesses():
    doc = parse(json.dumps(DOC))
    report, timings = run(doc)
    by_id = {r["id"]: r for r in report["results"]}
    assert by_id["axioms:ident"]["status"] == "pass"
    assert by_id["frame:M3L"]["status"] == "fail"
    assert by_id["frame:M3L"]["witness"] == ["x", "y", "z"]
    assert by_id["tabulate:full"]["status"] == "fail"
    assert by_id["points:"]["status"] == "pass"
    assert by_id["coend:Z2"]["detail"]["size"] == 4
    assert report["summary"]["fail"] == 2


def test_report_determinism_modulo_timings():
    doc = parse(json.dumps(DOC))
    r1, t1 = run(doc)
    r2, t2 = run(doc)
    assert emit(r1, {"total": 0, "per_check": {}}, "json") \
        == emit(r2, {"total": 0, "per_check": {}}, "json")


def test_report_roundtrips_through_json():
    doc = parse(json.dumps(DOC))
    report, timings = run(doc)
    text = emit(report, timings, "json")
    back = json.loads(text)
    assert back["summary"] == report["summary"]
    assert [r["id"] for r in back["results"]] \
        == [r["id"] for r in report["results"]]


def test_main_exit_codes(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({
        "version": 1,
        "checks": [{"check": "coend", "groupoid": "trivial"}],
    }))
    assert main(["check", "--input", str(good)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["check", "--input", str(bad)]) == 2
    failing = tmp_path / "failing.json"
    failing.write_text(json.dumps(DOC))
    assert main(["check", "--input", str(failing), "--format", "json",
                 "--report", str(tmp_path / "report.json")]) == 1
    assert (tmp_path / "report.json").exists()


def test_main_reconstruct_fixture(capsys):
    assert main(["reconstruct", "--groupoid", "Z2", "--format", "json"]) == 0
    out = capsys.readouterr().out
    data = json.loads(out)
    assert data["results"][0]["detail"]["coend_size"] == 4


def test_main_requires_groupoid():
    assert main(["reconstruct"]) == 2


def test_empty_suite_passes():
    doc = Document({"version": 1, "checks": []})
    report, _ = run(doc)
    assert report["summary"] == {"pass": 0, "fail": 0, "total": 0}


def test_parallel_matches_serial():
    doc = parse(json.dumps(DOC))
    serial, _ = run(doc, parallel=1)
    par, _ = run(doc, parallel=2)
    assert [r["id"] for r in serial["results"]] == [r["id"] for r in par["results"]]
    assert [r["status"] for r in serial["results"]] \
        == [r["status"] for r in par["results"]]


def test_parallel_run_times_every_check():
    doc = Document({**DOC, "checks": DOC["checks"][:2]})
    _, timings = run(doc, parallel=2)
    per_check = timings["per_check"]
    assert len(per_check) == 2
    assert all(isinstance(t, float) and t >= 0 for t in per_check.values())


@pytest.mark.parametrize("parallel", [1, 2])
def test_every_check_keeps_its_timing_when_ids_repeat(parallel):
    doc = parse(json.dumps({**DOC, "checks": [
        {"check": "equivalence", "groupoid": "Z2", "max_size": 2},
        {"check": "equivalence", "groupoid": "Z2", "max_size": 3},
        {"check": "frame", "lattice": "M3"},
        {"check": "frame", "lattice": "M3"}]}))
    report, timings = run(doc, parallel=parallel)
    assert len({r["id"] for r in report["results"]}) == 2
    assert len(timings["per_check"]) == report["summary"]["total"] == 4


def test_parallel_asks_for_no_more_workers_than_checks(monkeypatch):
    # fork starts every worker at once, so the cap must hold before the pool
    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    doc = Document({**DOC, "checks": DOC["checks"][:2]})
    report, timings = run(doc, parallel=10_000)
    assert asked == [2]
    assert report["summary"]["total"] == len(timings["per_check"]) == 2


@pytest.mark.parametrize("value", ["0", "-2", "abc"])
def test_bad_parallel_option_exits_2(capsys, value):
    with pytest.raises(SystemExit) as e:
        main(["check", "--parallel", value])
    assert e.value.code == 2
    assert "--parallel: must be an int >= 1" in capsys.readouterr().err


Z2_SPEC = {"name": "Z2b", "objects": ["*"], "arrows": ["e", "s"],
           "source": [["e", "*"], ["s", "*"]], "target": [["e", "*"], ["s", "*"]],
           "unit": [["*", "e"]],
           "compose": [["e", "e", "e"], ["e", "s", "s"], ["s", "e", "s"],
                       ["s", "s", "e"]],
           "inverse": [["e", "e"], ["s", "s"]]}


@pytest.mark.parametrize("section, spec, place", [
    ("lattices", {"elements": [0, 1], "covers": [[0, 1]]}, "lattices[0]"),
    ("groupoids", {**Z2_SPEC, "compose": [["e", "e"]]}, "groupoids[0]"),
    ("locales", {"name": "bad", "elements": [0, {"x": 1}], "covers": []},
     "locales[0]"),
])
def test_malformed_declaration_exits_2(tmp_path, capsys, section, spec, place):
    raw = {"version": 1, section: [spec]}
    with pytest.raises(ParseError) as e:
        Document(raw)
    assert str(e.value).startswith(place)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert main(["validate", "--input", str(path)]) == 2
    assert place in capsys.readouterr().err


STRING_CARRIERS = {
    "elements": ("lattices", {"name": "L", "elements": "ab",
                              "covers": [["a", "b"]]}),
    "objects": ("groupoids", {**Z2_SPEC, "objects": "*"}),
    "arrows": ("groupoids", {**Z2_SPEC, "arrows": "es"}),
    "source": ("relations", {"name": "r", "values": "TWO", "source": "ab",
                             "target": ["a", "b"],
                             "table": [["a", "a", 1], ["a", "b", 0],
                                       ["b", "a", 0], ["b", "b", 1]]}),
    "target": ("relations", {"name": "r", "values": "TWO", "source": ["a", "b"],
                             "target": "ab",
                             "table": [["a", "a", 1], ["a", "b", 0],
                                       ["b", "a", 0], ["b", "b", 1]]}),
    "carrier": ("actions", {"name": "A", "groupoid": "Z2", "carrier": "x",
                            "anchor": [["x", "*"]],
                            "table": [["g0", "x", "x"], ["g1", "x", "x"]]}),
}


@pytest.mark.parametrize("key", STRING_CARRIERS)
def test_declared_carrier_given_as_a_string_exits_2(tmp_path, capsys, key):
    # a string is iterable, so without the check "ab" would silently declare
    # the elements "a" and "b"
    section, spec = STRING_CARRIERS[key]
    listed = {**spec, key: list(spec[key])}
    Document({"version": 1, section: [listed]})
    raw = {"version": 1, section: [spec]}
    message = f"{section}[0].{key} must be a list, not str"
    with pytest.raises(ParseError, match=re.escape(message)):
        Document(raw)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert main(["validate", "--input", str(path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("raw, message", [
    ({"version": 1, "lattices": 5}, "lattices must be a list, not int"),
    ({"version": 1, "checks": [5]}, "checks[0] must be an object, not int"),
])
def test_malformed_section_exits_2(tmp_path, capsys, raw, message):
    with pytest.raises(ParseError, match=re.escape(message)):
        Document(raw)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert main(["check", "--input", str(path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", None, [1], -1, True, 2.7])
def test_bad_max_size_in_a_document_exits_2(tmp_path, capsys, value):
    raw = {"version": 1, "checks": [
        {"check": "equivalence", "groupoid": "Z2", "max_size": value}]}
    message = f"checks[0].max_size must be an int >= 0, not {value!r}"
    with pytest.raises(ParseError, match=re.escape(message)):
        Document(raw)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert main(["check", "--input", str(path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--max-size", "-3"], ["--max-size=-3"],
                                  ["--max-size", "abc"], ["--max-size", "2.7"]])
def test_bad_max_size_option_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as e:
        main(["equivalence", "--groupoid", "Z2", *argv])
    assert e.value.code == 2
    assert "--max-size: must be an int >= 0" in capsys.readouterr().err


def test_max_size_zero_checks_the_empty_action(tmp_path, capsys):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"version": 1, "checks": [
        {"check": "equivalence", "groupoid": "Z2", "max_size": 0}]}))
    assert main(["check", "--input", str(path), "--format", "json"]) == 0
    (result,) = json.loads(capsys.readouterr().out)["results"]
    assert result["detail"]["objects"] == 1
    assert main(["equivalence", "--groupoid", "Z2", "--max-size", "0"]) == 0


def test_run_check_rejects_non_object_item():
    with pytest.raises(ParseError, match="must be an object"):
        run_check(Document({"version": 1}), 5, 3)


def test_well_formed_groupoid_declaration_parses():
    doc = Document({"version": 1, "groupoids": [Z2_SPEC]})
    assert len(doc.groupoids["Z2b"].arrows) == 2


@pytest.mark.parametrize("item", [
    {"check": "reconstruct", "groupoid": "nope"},
    {"check": "points", "locale": "nope"},
    {"check": "tabulate", "relation": "nope"},
    {"check": "diagram", "first": "nope", "second": "nope", "kind": "diamond"},
    {"check": "tensor", "first": "TWO", "second": "nope"},
    {"check": "frame"},
])
def test_every_check_kind_reports_unresolved_names(item):
    report, _ = run(Document({"version": 1, "checks": [item]}))
    (result,) = report["results"]
    assert result["status"] == "fail"
    assert result["detail"]["error"].startswith("UnresolvedReference: unknown")


def test_declared_chain_of_100_validates(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"version": 1, "lattices": [
        {"name": "c100", "elements": list(range(100)),
         "covers": [[i, i + 1] for i in range(99)]}]}))
    assert main(["validate", "--input", str(path)]) == 0


def test_validate_runs_no_check(tmp_path, capsys, monkeypatch):
    # validate parses the document only; its checks are not run or timed
    path = tmp_path / "checks.json"
    path.write_text(json.dumps({"version": 1, "checks": [
        {"check": "equivalence", "groupoid": "Z2", "max_size": 4},
        {"check": "frame", "lattice": "M3nope"}]}))
    ran = []
    monkeypatch.setattr(cli, "run_check", lambda *args: ran.append(args))
    assert main(["validate", "--input", str(path), "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["timings"]["per_check"], ran) == ({}, [])
    assert out["summary"] == {"pass": 1, "fail": 0, "total": 1}


def test_declared_carrier_past_the_bound_exits_2(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"version": 1, "lattices": [
        {"name": "big", "elements": list(range(4097)), "covers": []}]}))
    assert main(["validate", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert "over the carrier bound 4096" in err
    assert "Traceback" not in err


def _chain(name, n):
    return {"name": name, "elements": list(range(n)),
            "covers": [[i, i + 1] for i in range(n - 1)]}


def test_declared_carriers_are_bounded_together(tmp_path, capsys, monkeypatch):
    # each chain fits the bound, the two together do not
    monkeypatch.setattr(lattice, "MAX_CARRIER", 16)
    path = tmp_path / "chains.json"
    path.write_text(json.dumps({"version": 1, "lattices": [_chain("a", 9)],
                                "locales": [_chain("b", 8)]}))
    assert main(["validate", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert ("the sum of the declared carriers has 17 elements, over the "
            "carrier bound 16") in err
    assert "Traceback" not in err


def test_points_check_counts_without_building_points(monkeypatch):
    # the count is |J(H)|, one point per join-irreducible (Birkhoff)
    def boom(*args):
        raise AssertionError("a point was built")

    monkeypatch.setattr(cli, "points", boom)
    monkeypatch.setattr(lattice, "locale_morphisms", boom)
    counts = {"TWO": 1, "CH3": 2, "P2": 2, "c6": 5}
    doc = {"version": 1, "locales": [_chain("c6", 6)],
           "checks": [{"check": "points", "locale": name, "expect_count": n}
                      for name, n in counts.items()]}
    report, _ = run(parse(json.dumps(doc)))
    assert [(r["status"], r["detail"]["count"]) for r in report["results"]] \
        == [("pass", n) for n in counts.values()]


def test_points_count_is_the_number_of_points():
    for H in lattice.all_locales(8):
        assert len(H.join_irreducibles()) == len(lattice.points(H))


def test_tensor_of_declared_chains_fails_within_a_memory_limit(tmp_path):
    # each chain's presentation has 11,026 relations and their tensor would
    # have 3.3 million; under 1 GB of address space the check must fail
    # with SizeBound, not end in MemoryError
    path = tmp_path / "chains.json"
    path.write_text(json.dumps({
        "version": 1, "locales": [_chain("c", 150), _chain("d", 150)],
        "checks": [{"check": "tensor", "first": "c", "second": "d"}]}))
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c",
         "import resource, sys\n"
         "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
         "from finloc.cli import main\n"
         "sys.exit(main(sys.argv[1:]))\n",
         "check", "--input", str(path), "--format", "json"],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))},
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    (result,) = json.loads(proc.stdout)["results"]
    assert result["status"] == "fail"
    assert result["detail"]["error"].startswith(
        "SizeBound: the relation list of the presentation")


# -- fuzzing: any document exits 0, 1 or 2 ------------------------------------


_ATOMS = st.one_of(st.integers(0, 5), st.sampled_from(["a", "b", "top"]),
                   st.booleans(), st.none())
_NAMES = st.sampled_from(["L", "M", "TWO", "P2", "nope"])


@st.composite
def _declared_order(draw):
    """Random covers i <= j over range(n), often with a bottom or a top:
    a lattice, a frame or not, or a pair without a join; now and then a
    cycle (no partial order) or a malformed entry."""
    n = draw(st.integers(1, 6))
    node = st.integers(0, n - 1)
    covers = [sorted(p) for p in draw(st.lists(st.tuples(node, node), max_size=8))]
    bottom, top = draw(st.sampled_from([(1, 1), (1, 0), (0, 1), (0, 0)]))
    covers += [[0, k] for k in range(1, n) if bottom]
    covers += [[k, n - 1] for k in range(n - 1) if top]
    spec = {"name": draw(_NAMES), "elements": list(range(n)), "covers": covers}
    junk = draw(st.integers(0, 9))
    if junk == 0:
        spec["elements"] = draw(st.lists(_ATOMS, max_size=6))
    elif junk == 1 and covers:
        covers.append(covers[0][::-1])
    elif junk == 2:
        covers.append(draw(st.lists(_ATOMS, max_size=3)))
    elif junk == 3:
        del spec[draw(st.sampled_from(sorted(spec)))]
    return spec


_CHECKS = st.one_of(
    st.fixed_dictionaries({"check": st.just("frame"), "lattice": _NAMES}),
    st.fixed_dictionaries({"check": st.just("points"), "locale": _NAMES}),
    st.fixed_dictionaries({"check": st.just("tensor"), "first": _NAMES,
                           "second": _NAMES}),
    st.fixed_dictionaries({"check": st.just("axioms"), "relation": _NAMES}),
    st.fixed_dictionaries({"check": st.sampled_from(["coend", "nope"]),
                           "groupoid": st.sampled_from(["trivial", "G"])}),
    _ATOMS,
)

_DOCUMENTS = st.one_of(
    st.fixed_dictionaries(
        {"version": st.just(1),
         "lattices": st.lists(_declared_order(), min_size=1, max_size=2)},
        optional={"locales": st.lists(_declared_order(), max_size=2),
                  "checks": st.lists(_CHECKS, max_size=4)}),
    st.one_of(st.fixed_dictionaries({"version": st.sampled_from([0, 2, None])}),
              st.lists(_ATOMS, max_size=2), _ATOMS),
)


@settings(max_examples=300, deadline=None)
@given(doc=_DOCUMENTS)
def test_check_on_any_document_exits_0_1_or_2(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check", "--input", str(path)])
    assert code in (0, 1, 2)
    assert "Traceback" not in out.getvalue() + err.getvalue()
