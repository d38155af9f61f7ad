import ast
import contextlib
import io
import json
import os
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import oracles
from catalog import MATRICES
from kmfactor import (FoldContext, Partition, PVIndex, Series, cli, factorizer,
                      log_numerator, orbit_partition, selftest, validate_gcm)
from kmfactor import series as series_module
from kmfactor.cli import _COMMANDS, main
from kmfactor.errors import DomainError
from test_folding import FIGURE1_CLASSES, FIGURE2_CLASSES, figure1, figure2

A2 = {"matrix": [[2, -1], [-1, 2]]}
A3 = {"matrix": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]}
A3AFF = {"matrix": [[2, -1, 0, -1], [-1, 2, -1, 0], [0, -1, 2, -1], [-1, 0, -1, 2]]}


def run(capsys, tmp_path, command, payload=None, *extra):
    argv = [command]
    if payload is not None:
        path = tmp_path / "in.json"
        path.write_text(json.dumps(payload))
        argv += ["--input", str(path)]
    argv += list(extra)
    code = main(argv)
    return code, capsys.readouterr().out


def test_validate_golden(capsys, tmp_path):
    code, out = run(capsys, tmp_path, "validate", {"gcm": A2})
    assert code == 0
    assert out == '{"ok":true,"symmetrizer":["1","1"]}\n'


def test_validate_refuses_an_unprintable_symmetrizer(capsys, tmp_path):
    # every entry fits the input digit limit, but the chain's symmetrizer has
    # an entry of about 8000 digits, whose str() ended in a traceback
    big = -10 ** 4000
    payload = {"gcm": {"matrix": [[2, -1, 0], [big, 2, -1], [0, big, 2]]}}
    code, out = run(capsys, tmp_path, "validate", payload)
    doc = strict_json(out)
    assert code == 1 and out.count("\n") == 1
    assert doc["error"]["type"] == "DomainError"
    assert "about 8001 digits" in doc["error"]["message"]


def test_validate_reports_offending_indices(capsys, tmp_path):
    code, out = run(capsys, tmp_path, "validate",
                    {"gcm": {"matrix": [[2, -1], [0, 2]]}})
    assert code == 1
    doc = json.loads(out)
    assert doc["error"]["type"] == "ZeroPatternAsymmetric"
    assert "(1,2)" in doc["error"]["message"]


def test_numerator_golden(capsys, tmp_path):
    payload = {"gcm": A2, "degree": 4, "I": [1, 2], "lam": {"1": 0, "2": 0}}
    code, out = run(capsys, tmp_path, "numerator", payload)
    assert code == 0
    assert json.loads(out) == {"series": {"cap": 4, "terms": [
        [[0, 0], "1"], [[0, 1], "-1"], [[1, 0], "-1"],
        [[1, 2], "1"], [[2, 1], "1"], [[2, 2], "-1"]]}}


def test_numerator_text_mode(capsys, tmp_path):
    payload = {"gcm": A2, "degree": 4, "I": [1, 2], "lam": {"1": 0, "2": 0}}
    code, out = run(capsys, tmp_path, "numerator", payload, "--output", "text")
    assert code == 0
    assert out == "1 - x2 - x1 + x1*x2^2 + x1^2*x2 - x1^2*x2^2\n"


def test_logseries_and_degree_override(capsys, tmp_path):
    payload = {"gcm": {"matrix": [[2]]}, "degree": 9, "I": [1], "lam": {"1": 0}}
    code, out = run(capsys, tmp_path, "logseries", payload, "--degree", "3")
    assert code == 0
    assert json.loads(out) == {"series": {"cap": 3, "terms": [
        [[1], "1"], [[2], "1/2"], [[3], "1/3"]]}}


def test_character(capsys, tmp_path):
    payload = {"gcm": {"matrix": [[2]]}, "degree": 5, "I": [1],
               "lam": {"1": 2}, "offset": [1, 0]}
    code, out = run(capsys, tmp_path, "character", payload)
    assert code == 0
    assert json.loads(out) == {"offset": [1, 0], "series": {"cap": 5, "terms": [
        [[0], "1"], [[1], "1"], [[2], "1"]]}}


def test_multiplicities(capsys, tmp_path):
    code, out = run(capsys, tmp_path, "multiplicities", {"gcm": A2, "degree": 4})
    assert code == 0
    assert json.loads(out) == {"multiplicities": [
        [[0, 1], 1], [[1, 0], 1], [[1, 1], 1]]}


def test_leading_coeff(capsys, tmp_path):
    code, out = run(capsys, tmp_path, "leading-coeff", {"gcm": A2, "I": [1, 2]})
    assert code == 0
    assert json.loads(out) == {"value": "1"}


def test_orbits_and_transversal(capsys, tmp_path):
    payload = {"gcm": A3, "automorphisms": [[3, 2, 1]]}
    code, out = run(capsys, tmp_path, "orbits", payload)
    assert code == 0
    assert json.loads(out) == {"classes": [["1", "3"], ["2"]]}
    code, out = run(capsys, tmp_path, "transversal", payload)
    assert code == 0
    assert json.loads(out) == {"transversal": ["1", "2"]}


def test_lean_lifts(capsys, tmp_path):
    payload = {"gcm": A3, "classes": [[1, 3], [2]], "K": [1, 2, 3]}
    code, out = run(capsys, tmp_path, "lean-lifts", payload)
    assert code == 0
    assert json.loads(out) == {
        "equiconnected": True,
        "lifts": [["1", "2"], ["2", "3"]],
        "lean": [["1", "2"], ["2", "3"]]}


def test_factor_golden(capsys, tmp_path):
    payload = {"gcm": A2, "degree": 6, "log_sum_of": [
        {"I": [1], "lam": {"1": 1}},
        {"I": [1, 2], "lam": {"1": 0, "2": 0}}]}
    code, out = run(capsys, tmp_path, "factor", payload)
    assert code == 0
    assert json.loads(out) == {
        "certified_degree": 6, "empty_count": 0, "residual_zero": True,
        "factors": [{"I": ["1", "2"], "lam": {"1": 0, "2": 0}},
                    {"I": ["1"], "lam": {"1": 1}}]}


@pytest.mark.parametrize("command, extra", [
    ("factor", {}), ("factor-folded", {"classes": [[1, 3], [2]]})])
def test_log_sum_is_summed_in_place(monkeypatch, capsys, tmp_path, command, extra):
    """The ``log_sum_of`` assembly adds each entry once to one accumulator and
    builds no series per entry."""
    entries = [{"I": nodes, "lam": {str(i): k for i in nodes}}
               for k in range(4) for nodes in ([1, 2, 3], [2])]
    payload = {"gcm": A3, "degree": 12, "log_sum_of": entries, **extra}
    code, expected = run(capsys, tmp_path, command, payload)  # warms the caches
    assert code == 0
    adds, built, totals = [], [], []
    add, new = series_module._Sum.add, series_module.Series._new
    monkeypatch.setattr(series_module._Sum, "add",
                        lambda self, *args: adds.append(args) or add(self, *args))
    monkeypatch.setattr(series_module.Series, "_new", classmethod(
        lambda cls, *args: built.append(args) or new(*args)))

    def peeled(*args):
        totals.append(args[1])
        raise DomainError("stop before the peel")

    monkeypatch.setattr(factorizer, "peel_folded" if extra else "peel_log_sum", peeled)
    code, _ = run(capsys, tmp_path, command, payload)
    assert code == 1 and len(totals) == 1
    assert len(adds) == len(entries) and all(step == 1 for _, step in adds)
    assert len(built) == 2  # the zero start and the one total
    monkeypatch.undo()
    assert run(capsys, tmp_path, command, payload) == (0, expected)


def test_round_trip_sums_in_place(monkeypatch):
    cm = validate_gcm(A3["matrix"])
    factors = [PVIndex((1, 2), (0, 1)), PVIndex((2,), (2,)), PVIndex((1, 2, 3), (1, 0, 1))]
    assert selftest.round_trip(cm, factors)  # warms the caches
    adds, built, totals = [], [], []
    add, new = series_module._Sum.add, series_module.Series._new
    monkeypatch.setattr(series_module._Sum, "add",
                        lambda self, *args: adds.append(args) or add(self, *args))
    monkeypatch.setattr(series_module.Series, "_new", classmethod(
        lambda cls, *args: built.append(args) or new(*args)))

    def peeled(cm, total):
        totals.append(total)
        raise DomainError("stop before the peel")

    monkeypatch.setattr(selftest, "peel_log_sum", peeled)
    with pytest.raises(DomainError):
        selftest.round_trip(cm, factors)
    assert len(adds) == len(factors) and len(built) == 2
    monkeypatch.undo()
    cap = totals[0].cap
    assert totals[0] == sum((log_numerator(cm, pv, cap) for pv in factors),
                            Series.zero(cm.n, cap))


def test_cli_and_selftest_sum_through_the_series_helper():
    # both build their in-place sums with series._sum_of, not from the
    # stored form of a series; cli reads names off its modules (series._sum_of)
    package = os.path.dirname(cli.__file__)
    for name in ("cli.py", "selftest.py"):
        with open(os.path.join(package, name), encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), name)
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                  for alias in node.names}
        built = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr == "_new"
                 and "Series" in (getattr(node.value, "id", None),
                                  getattr(node.value, "attr", None))]
        assert (names & {"_Sum", "_reduce"}, built) == (set(), []), name
        assert "_sum_of" in names, name


def _cycle(n):
    rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        rows[i][(i + 1) % n] = rows[(i + 1) % n][i] = -1
    return rows


# folded fixtures: a matrix, its partition in the input schema, the pairings
# of one symmetric, equiconnected full-set entry, and its folded marker degree
FOLDED = {
    "A3-flip": (A3["matrix"], {"automorphisms": [[3, 2, 1]]}, [1, 0, 1], 3),
    "figure1": ([list(row) for row in figure1().rows], {"classes": FIGURE1_CLASSES},
                [0] * 5, 4),
    "A3aff-flip": (A3AFF["matrix"], {"automorphisms": [[1, 4, 3, 2]]}, [0, 1, 2, 1], 6),
    "A7aff-rotation": (_cycle(8), {"automorphisms": [list(range(2, 9)) + [1]]}, [0] * 8, 1),
}


@pytest.mark.parametrize("name", sorted(FOLDED))
def test_factor_folded_cap_is_the_folded_marker_degree(capsys, tmp_path, name):
    """An entry fits when the folded marker, where the peel reads it, fits:
    the plain marker's degree (5, 5, 8 and 8 here) is not the bound."""
    rows, partition, pairings, degree = FOLDED[name]
    cm = validate_gcm(rows)
    ctx = FoldContext(cm, Partition.of(cm.n, partition["classes"]) if "classes" in partition
                      else orbit_partition(cm, partition["automorphisms"]))
    pv = PVIndex(cm.nodes(), pairings)
    assert sum(ctx.marker_exponent(pv)) == degree < sum(pairings) + cm.n
    entry = {"I": list(cm.nodes()), "lam": {str(i): p for i, p in zip(cm.nodes(), pairings)}}
    payload = {"gcm": {"matrix": rows}, "log_sum_of": [entry], **partition}
    code, out = run(capsys, tmp_path, "factor-folded", payload, "--degree", str(degree))
    assert code == 0
    assert json.loads(out)["factors"] == [{"I": list(map(str, cm.nodes())), "lam": entry["lam"]}]
    code, out = run(capsys, tmp_path, "factor-folded", payload, "--degree", str(degree - 1))
    error = json.loads(out)["error"]
    assert code == 1 and error["type"] == "CapTooSmall"
    assert error["message"].endswith(f"has degree {degree} > cap {degree - 1}")


def test_factor_folded_refuses_before_any_series(monkeypatch, capsys, tmp_path):
    """An entry that is not equiconnected, or that cuts a class, is refused by
    the folding layer's own error, before any logarithm is taken."""
    logs = []
    log1 = Series.log1
    monkeypatch.setattr(Series, "log1", lambda self: logs.append(self) or log1(self))
    # fresh labels: no cached log-numerator could hide a log1 call
    fig2 = {"matrix": [list(row) for row in figure2().rows],
            "labels": [f"refuse{i}" for i in range(1, 10)]}
    payload = {"gcm": fig2, "degree": 12, "classes": FIGURE2_CLASSES, "log_sum_of": [
        {"I": fig2["labels"], "lam": dict.fromkeys(fig2["labels"], 0)}]}
    code, out = run(capsys, tmp_path, "factor-folded", payload)
    assert code == 1 and json.loads(out)["error"] == {
        "type": "NotEquiconnected", "message": "[1, 2, 3, 4, 5, 6, 7, 8, 9] is not equiconnected"}
    a3 = {"matrix": A3["matrix"], "labels": ["refuse-a", "refuse-b", "refuse-c"]}
    payload = {"gcm": a3, "degree": 6, "automorphisms": [[3, 2, 1]],
               "log_sum_of": [{"I": [1, 2], "lam": {"refuse-a": 0, "refuse-b": 0}}]}
    code, out = run(capsys, tmp_path, "factor-folded", payload)
    assert code == 1 and json.loads(out)["error"] == {
        "type": "NotClassUnion", "message": "[1, 2] cuts the class [1, 3]"}
    assert logs == []


def test_factor_folded_entries_accepted_as_on_the_plain_side(capsys, tmp_path):
    # an empty entry adds nothing, and a disconnected one comes back as its
    # connected parts, as on the plain side
    payload = {"gcm": A3, "degree": 6, "classes": [[1], [2], [3]], "log_sum_of": [
        {"I": [], "lam": {}}, {"I": [1, 3], "lam": {"1": 0, "3": 1}}]}
    for command in ("factor", "factor-folded"):
        code, out = run(capsys, tmp_path, command, payload)
        assert code == 0, command
        assert json.loads(out)["factors"] == [{"I": ["1"], "lam": {"1": 0}},
                                              {"I": ["3"], "lam": {"3": 1}}]
    payload = {"gcm": A3, "degree": 6, "automorphisms": [[3, 2, 1]],
               "log_sum_of": [{"I": [], "lam": {}}]}
    code, out = run(capsys, tmp_path, "factor-folded", payload)
    assert code == 0 and json.loads(out)["factors"] == []


def test_factor_series_input(capsys, tmp_path):
    payload = {"gcm": {"matrix": [[2]]}, "degree": 4, "series": {
        "terms": [[[1], "1"], [[2], "1/2"], [[3], "1/3"], [[4], "1/4"]]}}
    code, out = run(capsys, tmp_path, "factor", payload)
    assert code == 0
    assert json.loads(out)["factors"] == [{"I": ["1"], "lam": {"1": 0}}]


def test_factor_more_factors_than_the_cap(capsys, tmp_path):
    payload = {"gcm": {"matrix": [[2]]}, "degree": 2,
               "log_sum_of": [{"I": [1], "lam": {"1": 0}}] * 3}
    code, out = run(capsys, tmp_path, "factor", payload)
    assert code == 0
    assert json.loads(out)["factors"] == [{"I": ["1"], "lam": {"1": 0}}] * 3


def test_factor_refuses_oversized_marker(capsys, tmp_path):
    payload = {"gcm": A2, "degree": 2, "log_sum_of": [
        {"I": [1, 2], "lam": {"1": 3, "2": 3}}]}
    code, out = run(capsys, tmp_path, "factor", payload)
    assert code == 1
    assert json.loads(out)["error"]["type"] == "CapTooSmall"


def test_factor_domain_error_passthrough(capsys, tmp_path):
    payload = {"gcm": A3, "degree": 4,
               "series": {"terms": [[[1, 0, 1], "1"]]}}
    code, out = run(capsys, tmp_path, "factor", payload)
    assert code == 1
    assert json.loads(out)["error"]["type"] == "DisconnectedCandidateSupport"


def test_factor_folded(capsys, tmp_path):
    payload = {"gcm": A3, "degree": 8, "automorphisms": [[3, 2, 1]],
               "log_sum_of": [{"I": [1, 2, 3], "lam": {"1": 1, "2": 0, "3": 1}}]}
    code, out = run(capsys, tmp_path, "factor-folded", payload)
    assert code == 0
    assert json.loads(out) == {
        "certified_degree": 8, "empty_count": 0, "residual_zero": True,
        "factors": [{"I": ["1", "2", "3"], "lam": {"1": 1, "2": 0, "3": 1}}]}


def test_factor_folded_rejects_asymmetric(capsys, tmp_path):
    payload = {"gcm": A3, "degree": 8, "automorphisms": [[3, 2, 1]],
               "log_sum_of": [{"I": [1, 2, 3], "lam": {"1": 1, "2": 0, "3": 0}}]}
    code, out = run(capsys, tmp_path, "factor-folded", payload)
    assert code == 1
    assert json.loads(out)["error"] == {
        "type": "NotSymmetric", "message": "pairings differ on the class [1, 3]"}


def test_verify(capsys, tmp_path):
    payload = {"gcm": A2,
               "left": [{"I": [1], "lam": {"1": 0}}, {"I": [2], "lam": {"2": 3}}],
               "right": [{"I": [2], "lam": {"2": 3}}, {"I": [1], "lam": {"1": 0}}],
               "offsets_left": [[1, 0], [0, 1]],
               "offsets_right": [[0, 1], [1, 0]]}
    code, out = run(capsys, tmp_path, "verify", payload)
    assert code == 0
    assert json.loads(out) == {"matching": [1, 0]}
    payload["offsets_right"] = [[0, 1], [2, 0]]
    code, out = run(capsys, tmp_path, "verify", payload)
    assert code == 0
    assert json.loads(out) == {"matching": None}


def test_selftest(capsys, tmp_path):
    code, out = run(capsys, tmp_path, "selftest", None, "--seed", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["failures"] == 0 and doc["trials"] == 20


def test_schema_error_pointers(capsys, tmp_path):
    cases = [
        ({"gcm": {"matrix": [[2, "x"], [-1, 2]]}}, "validate", "/gcm/matrix/0/1"),
        ({"gcm": A2}, "numerator", "/degree"),
        ({"gcm": A2, "degree": 3, "I": [9], "lam": {}}, "numerator", "/I/0"),
        ({"gcm": A2, "degree": 3, "I": [1], "lam": {"2": 0}}, "numerator", "/lam"),
        ({"gcm": A2, "degree": 3}, "factor", "/"),
        ({"gcm": A2, "degree": 3, "series": {"terms": [[[1], "1"]]}},
         "factor", "/series/terms/0/0"),
        ({"gcm": A2, "classes": [[1], [1, 2]]}, "orbits", "/classes"),
        ({"gcm": A2, "classes": [[1, 2], []]}, "orbits", "/classes"),
        ({"gcm": A2, "classes": [[1, 1], [2]]}, "orbits", "/classes/0/1"),
        ({"gcm": {**A2, "labels": ["a", "b", "a"]}}, "validate", "/gcm/labels"),
        ({"gcm": {**A2, "labels": ["a", "a"]}}, "validate", "/gcm/labels/1"),
        ({"gcm": {**A2, "labels": ["a", "b"]}, "degree": 3, "I": ["c"], "lam": {}},
         "numerator", "/I/0"),
    ]
    for payload, command, pointer in cases:
        code, out = run(capsys, tmp_path, command, payload)
        assert code == 2, (command, out)
        doc = json.loads(out)
        assert doc["error"]["type"] == "SchemaError"
        assert doc["error"]["pointer"] == pointer


def test_schema_errors_of_every_helper(capsys, tmp_path):
    cases = [
        ({"gcm": A2, "degree": -1}, "multiplicities", (), "/degree",
         "expected an integer >= 0"),
        ({"gcm": A2}, "multiplicities", ("--degree", "-1"), "/degree",
         "expected an integer >= 0"),
        ({"gcm": A2}, "multiplicities", (), "/degree", "required field is missing"),
        ({"gcm": {**A2, "labels": ["a", 3]}}, "validate", (), "/gcm/labels/1",
         "expected a string"),
        ({"gcm": A2, "I": [1.5]}, "leading-coeff", (), "/I/0",
         "expected a node label or 1-based position"),
        ({"gcm": A2, "degree": 3, "series": {"terms": [[[1, 0]]]}}, "factor", (),
         "/series/terms/0", "expected [exponent, coefficient]"),
        ({"gcm": A2, "classes": 1}, "orbits", (), "/classes", "expected an array"),
        ({"gcm": A2}, "orbits", (), "/", "expected 'classes' or 'automorphisms'"),
    ]
    for payload, command, extra, pointer, message in cases:
        code, out = run(capsys, tmp_path, command, payload, *extra)
        assert code == 2, (command, out)
        assert json.loads(out)["error"] == {
            "type": "SchemaError", "pointer": pointer, "message": message}


def test_label_errors_name_the_label(capsys, tmp_path):
    gcm = {**A2, "labels": ["a", "b"]}
    code, out = run(capsys, tmp_path, "leading-coeff", {"gcm": gcm, "I": ["a", "c"]})
    assert code == 2
    assert json.loads(out)["error"] == {
        "type": "SchemaError", "pointer": "/I/1", "message": "unknown node label 'c'"}
    code, out = run(capsys, tmp_path, "validate", {"gcm": {**A2, "labels": ["b", "b"]}})
    assert code == 2
    assert json.loads(out)["error"]["message"] == "label 'b' is repeated"


def test_import_footprint():
    """``import kmfactor.cli`` loads neither ``dataclasses`` (with ``inspect``)
    nor the selftest module, which only ``kmf selftest`` needs, nor
    ``argparse`` with ``gettext`` and ``locale``."""
    src = os.path.dirname(os.path.dirname(sys.modules["kmfactor"].__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", "import sys, kmfactor.cli; print(' '.join(sys.modules))"],
        env=env, capture_output=True, text=True, check=True).stdout.split()
    assert "kmfactor.cli" in out
    for name in ("dataclasses", "inspect", "kmfactor.selftest", "argparse", "gettext", "locale"):
        assert name not in out


# the public names of the package, unchanged since the package was eager
PUBLIC = {
    "CartanMatrix", "connected_components", "is_connected", "validate_gcm",
    "DomainError", "SchemaError",
    "FactorizationResult", "peel_folded", "peel_log_sum", "recover_from_character_product",
    "verify_equivalence",
    "DiagramAutomorphism", "FoldContext", "Partition", "check_automorphism",
    "connected_transversal", "orbit_partition",
    "CharacterValue", "character", "leading_coefficient_closed_form", "log_numerator",
    "marker_exponent", "root_multiplicities",
    "Series", "degree", "support",
    "OrbitTerm", "PVIndex", "normalized_numerator", "orbit_terms",
}


def test_public_names():
    """``from kmfactor import *`` and ``dir(kmfactor)`` give the 30 public
    names, each the object its submodule defines, whether or not the
    submodule has run yet."""
    import kmfactor

    namespace = {}
    exec("from kmfactor import *", namespace)
    del namespace["__builtins__"]
    assert len(PUBLIC) == 30 and set(namespace) == PUBLIC
    listed = {name for name in dir(kmfactor) if not name.startswith("_")
              and not isinstance(getattr(kmfactor, name), type(kmfactor))}
    assert listed == PUBLIC
    for name, value in namespace.items():
        assert value is getattr(sys.modules[value.__module__], name) is getattr(kmfactor, name)
    with pytest.raises(AttributeError, match="no attribute 'selftests'"):
        kmfactor.selftests


def test_repeated_node_rejected(capsys, tmp_path):
    payload = {"gcm": A2, "degree": 3, "I": [1, 1], "lam": {"1": 0}}
    code, out = run(capsys, tmp_path, "numerator", payload)
    assert code == 2
    assert json.loads(out)["error"]["pointer"] == "/I/1"


def test_duplicate_json_key_rejected(capsys, tmp_path):
    path = tmp_path / "in.json"
    path.write_text('{"gcm": {"matrix": [[2, -1], [-1, 2]]}, "degree": 3, '
                    '"I": [1], "lam": {"1": 0, "1": 2}}')
    code = main(["numerator", "--input", str(path)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 2
    assert doc["error"]["type"] == "SchemaError"
    assert "'1'" in doc["error"]["message"]


def test_huge_degree_refused_up_front(capsys, tmp_path):
    code, out = run(capsys, tmp_path, "multiplicities", {"gcm": A2},
                    "--degree", str(10**9))
    assert code == 1
    assert json.loads(out)["error"]["type"] == "TermLimit"


def test_huge_affine_orbit_refused(capsys, tmp_path):
    # the orbit of A3(1) grows without end; enumeration stops at the term budget
    payload = {"gcm": A3AFF, "I": [1, 2, 3, 4], "lam": {"1": 0, "2": 0, "3": 0, "4": 0}}
    code, out = run(capsys, tmp_path, "numerator", payload, "--degree", str(10**9))
    assert code == 1
    assert json.loads(out)["error"]["type"] == "TermLimit"


def test_leading_coeff_size_limit(capsys, tmp_path):
    isolated = [[2 if i == j else 0 for j in range(13)] for i in range(13)]
    code, out = run(capsys, tmp_path, "leading-coeff",
                    {"gcm": {"matrix": isolated}, "I": list(range(1, 14))})
    assert code == 1
    assert json.loads(out)["error"]["type"] == "SizeLimit"


def test_non_finite_numbers_rejected(capsys, tmp_path):
    # NaN, Infinity and overflowing floats are not JSON; echoing them (as the
    # character tag) would make stdout unreadable to a strict JSON reader
    base = '{"gcm":{"matrix":[[2]]},"degree":2,"I":[1],"lam":{"1":0},"offset":%s}'
    for value in ("NaN", "Infinity", "-Infinity", "1e999"):
        path = tmp_path / "in.json"
        path.write_text(base % value)
        code = main(["character", "--input", str(path)])
        doc = strict_json(capsys.readouterr().out)
        assert code == 2 and doc["error"]["type"] == "SchemaError", value
        assert doc["error"]["pointer"] == "/"
    path.write_text(base % "0.5")
    assert main(["character", "--input", str(path)]) == 0
    assert strict_json(capsys.readouterr().out)["offset"] == 0.5


def test_oversized_json_rejected(capsys, tmp_path):
    # an integer over the interpreter's digit limit and nesting past the
    # recursion limit both ended in a traceback
    path = tmp_path / "in.json"
    for text in ('{"gcm":{"matrix":[[2]]},"degree":' + "9" * 5000 + "}",
                 '{"gcm":' + "[" * 100000 + "]" * 100000 + "}"):
        path.write_text(text)
        code = main(["validate", "--input", str(path)])
        doc = strict_json(capsys.readouterr().out)
        assert code == 2 and doc["error"]["type"] == "SchemaError"
        assert doc["error"]["pointer"] == "/"


def test_missing_input_and_bad_json(capsys, tmp_path):
    code, out = run(capsys, tmp_path, "validate")
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["validate", "--input", str(bad)])
    assert code == 2
    capsys.readouterr()


def test_undecodable_input_rejected(capsys, tmp_path):
    # a file that is not UTF-8 ended in a UnicodeDecodeError traceback
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff{}")
    code = main(["validate", "--input", str(bad)])
    doc = strict_json(capsys.readouterr().out)
    assert code == 2 and doc["error"]["type"] == "SchemaError"
    assert doc["error"]["pointer"] == "/"
    assert doc["error"]["message"].startswith("cannot read input")


def test_rationals_over_the_digit_limit_rejected(capsys, tmp_path):
    # an exponent form scales by a power of ten: 1e10000000 took seconds to
    # build, and 1e5000 and 1e-5000 broke the formatting of a later message
    def factor(values):
        payload = {"gcm": {"matrix": [[2]]}, "degree": 4, "series": {
            "terms": [[[i], v] for i, v in enumerate(values, start=1)]}}
        code, out = run(capsys, tmp_path, "factor", payload)
        return code, strict_json(out)

    for value in ("1e10000000", "1e5000", "1e-5000"):
        code, doc = factor(["1", value])
        assert code == 2 and doc["error"]["type"] == "SchemaError", value
        assert doc["error"]["pointer"] == "/series/terms/1/1"
    # just under the limit, a value is taken, and a residual past the limit
    # is named by its size: 1e-4299 - 1/11 at x^11 has an 11 * 10**4299
    # denominator
    payload = {"gcm": {"matrix": [[2]]}, "degree": 11, "series": {
        "terms": [[[k], f"1/{k}"] for k in range(1, 11)] + [[[11], "1e-4299"]]}}
    code, out = run(capsys, tmp_path, "factor", payload)
    doc = strict_json(out)
    assert code == 1 and doc["error"]["type"] == "NegativeLeadingCoefficient"
    assert "about 4301 digits" in doc["error"]["message"]
    # small exponent and decimal forms are still rationals
    for values, count in ((["1", "5e-1", "1/3", "2.5e-1"], 1),
                          (["1e3", "5e2", "1000/3", "2.5e2"], 1000)):
        code, doc = factor(values)
        assert code == 0 and doc["factors"] == [{"I": ["1"], "lam": {"1": 0}}] * count


def test_bad_rational_echo_is_bounded(capsys, tmp_path):
    # a malformed 5000-character coefficient came back whole in the message
    def message(value):
        payload = {"gcm": {"matrix": [[2]]}, "degree": 2,
                   "series": {"terms": [[[1], value]]}}
        code, out = run(capsys, tmp_path, "factor", payload)
        doc = strict_json(out)
        assert code == 2 and doc["error"]["pointer"] == "/series/terms/0/1"
        return doc["error"]["message"], out

    for value in ("1e" + "9" * 5000, "1e" + "x" * 5000, "x" * 4000):
        text, out = message(value)
        assert text.startswith("not a rational: '") and f"({len(value)} characters)" in text
        assert len(out) < 200
    assert message("x")[0] == "not a rational: 'x'"
    assert message("1/0")[0] == "not a rational: '1/0'"


def test_labels_accepted_in_inputs(capsys, tmp_path):
    payload = {"gcm": {"matrix": [[2, -1], [-1, 2]], "labels": ["a", "b"]},
               "degree": 3, "I": ["a"], "lam": {"a": 1}}
    code, out = run(capsys, tmp_path, "logseries", payload)
    assert code == 0
    assert json.loads(out)["series"]["terms"] == [[[2, 0], "1"]]
    code, out = run(capsys, tmp_path, "leading-coeff",
                    {"gcm": {"matrix": [[2, -1], [-1, 2]], "labels": ["a", "b"]},
                     "I": ["a", "b"]})
    assert code == 0
    assert json.loads(out) == {"value": "1"}


def test_byte_determinism(capsys, tmp_path):
    payload = {"gcm": A3, "degree": 6, "I": [1, 2, 3],
               "lam": {"1": 0, "2": 1, "3": 0}}
    outputs = set()
    for _ in range(2):
        code, out = run(capsys, tmp_path, "numerator", payload)
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


# -- fuzz: every command on arbitrary JSON ------------------------------------------

json_leaves = st.none() | st.booleans() | st.integers(-4, 8) | st.floats() | st.text(max_size=4)
any_json = st.recursive(
    json_leaves,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=3), kids, max_size=4),
    max_leaves=16)


# a chain with entries at the input digit limit: its symmetrizer has an
# entry of about 8600 digits
HUGE = -10 ** 4299
small_matrices = st.one_of(
    st.sampled_from([rows for rows in MATRICES.values() if len(rows) <= 4]
                    + [[[2, -1, 0], [HUGE, 2, -1], [0, HUGE, 2]]]),
    st.integers(1, 4).flatmap(lambda n: st.lists(st.integers(-3, 0), min_size=n * n,
                                                 max_size=n * n).map(lambda v: [
        [2 if i == j else v[i * n + j] if v[j * n + i] else 0 for j in range(n)]
        for i in range(n)])))


@st.composite
def payloads(draw):
    """Payloads whose fields fit the drawn matrix most of the time; each field
    is arbitrary JSON with probability 1/6, and so is the whole payload 1/10."""
    if draw(st.integers(0, 9)) == 0:
        return draw(any_json)
    rows = draw(small_matrices)
    n = len(rows)
    node = st.one_of(st.integers(1, n), st.integers(1, n), st.integers(0, n + 1),
                     st.sampled_from("abcd"))
    nodes = st.lists(node, max_size=n + 1)
    index = st.lists(st.integers(1, n), unique=True, max_size=n).flatmap(
        lambda I: st.fixed_dictionaries({"I": st.just(I), "lam": st.fixed_dictionaries(
            {str(i): st.integers(0, 2) for i in I})}))
    top = draw(st.one_of(index, st.fixed_dictionaries(
        {"I": nodes, "lam": st.dictionaries(node.map(str), st.integers(-1, 3))})))
    rational = st.one_of(st.integers(-3, 3), st.sampled_from(["1/2", "-2/3", "x", "1/0",
                                                                 "1e5000", "1e-5000"]),
                         st.floats())
    fields = {
        "gcm": st.fixed_dictionaries({"matrix": st.just(rows)}, optional={
            "labels": st.permutations("abcd").map(lambda labels: labels[:n])}),
        "degree": st.integers(0, 6),
        "I": st.just(top["I"]), "K": nodes, "lam": st.just(top["lam"]),
        "classes": st.lists(st.integers(0, n - 1), min_size=n, max_size=n).map(
            lambda labels: [[i + 1 for i, c in enumerate(labels) if c == k]
                            for k in sorted(set(labels))]),
        "automorphisms": st.lists(st.permutations(range(1, n + 1)), max_size=2),
        "log_sum_of": st.lists(index, max_size=4),
        "series": st.fixed_dictionaries({"terms": st.lists(st.tuples(
            st.lists(st.integers(0, 3), min_size=n, max_size=n), rational).map(list),
            max_size=6)}),
        "left": st.lists(index, max_size=3), "right": st.lists(index, max_size=3),
        "offsets_left": st.lists(st.lists(rational, min_size=2, max_size=2), max_size=3),
        "offsets_right": st.lists(st.lists(rational, min_size=2, max_size=2), max_size=3),
        "offset": any_json,
    }
    payload = {}
    for key, valid in fields.items():
        if draw(st.integers(0, 9)) < 8:
            payload[key] = draw(any_json if draw(st.integers(0, 5)) == 0 else valid)
    return payload


def strict_json(text):
    """Parse standard JSON only: NaN and Infinity are not JSON values."""
    def refuse(name):
        raise ValueError(f"{name} is not a JSON value")
    return json.loads(text, parse_constant=refuse)


def run_in_process(argv, stdin_text):
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(sorted(_COMMANDS)), payloads(),
       st.one_of(st.none(), st.integers(-1, 24)), st.one_of(st.none(), st.integers(-5, 5)))
def test_cli_fuzz_exits_cleanly(command, payload, degree, seed):
    argv = [command, "--input", "-", "--output", "json"]
    if degree is not None:
        argv += ["--degree", str(degree)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    code, out = run_in_process(argv, json.dumps(payload))
    assert code in (0, 1, 2)
    assert out.endswith("\n") and out.count("\n") == 1
    doc = strict_json(out)
    error = doc.get("error") if isinstance(doc, dict) else None
    if code == 0:
        assert error is None
    else:
        assert (error["type"] == "SchemaError") == (code == 2)


# -- the command line ----------------------------------------------------------------

# kmf's own tokens, their prefixes and '=' forms, and tokens that argparse
# reads in special ways: '--', negative numbers, spaces, unknown options
ARGV_TOKENS = [*sorted(_COMMANDS), "bogus", "json", "3",
               "--input", "--in", "--i", "--input=-", "--in=x.json", "--input=--",
               "--output", "--out", "--output=text", "--o=json", "--output=xml",
               "--degree", "--deg", "--degree=3", "--d=-1", "--degree=x",
               "--seed", "--s", "--seed=7", "--se=",
               "-h", "--help", "--he", "-hh", "--", "-", "-1", "-1.5", " 7", "1_0", "a b",
               "-a b", "-x", "--bogus", "--=x", "-hx", "--help=x"]
PARSED = ("command", "input", "output", "degree", "seed")
KMF = "import sys; from kmfactor.cli import main; sys.exit(main())"


def parse_outcome(parse, argv):
    """(exit code, stdout, stderr or the parsed values) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = parse(list(argv))
    except SystemExit as exc:
        return exc.code, out.getvalue(), err.getvalue()
    return 0, out.getvalue(), tuple(getattr(args, name) for name in PARSED)


def argparse_outcome(argv):
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        return parse_outcome(oracles.build_parser().parse_args, argv)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(ARGV_TOKENS), max_size=6))
@example(["--in", "a.json", "--deg", "-1", "validate"])  # prefixes, a negative value
@example(["--seed=1", "selftest", "--seed", "2"])  # the last of repeated options wins
@example(["validate", "--help=x"])  # refused, as is -hx
@example(["-h", "--=x"])  # an ambiguous option is refused before -h acts
@example(["validate", "extra", "--help"])  # extra tokens are refused at the end only
@example(["validate", "--input=a", "--"])  # '--' after the command is refused
@example(["--input=a", "--", "validate", "--"])
@example(["--input=--", "validate"])  # argparse stored [] as the input
@example(["--input=--", "--input=a", "validate"])
def test_argv_is_read_as_argparse_read_it(argv):
    expected = argparse_outcome(argv)
    got = parse_outcome(cli._parse_args, argv)
    if isinstance(expected[2], tuple) and [] in expected[2]:
        # argparse stored [] for '--opt=--', which no command reads: refused
        assert got[:2] == (2, "") and got[2].endswith("kmf: error: '--' is no option's value\n")
    else:
        assert got == expected


def test_help_is_fixed_at_80_columns():
    """``kmf --help`` prints argparse's 80-column help whatever $COLUMNS says."""
    expected = argparse_outcome(["--help"])
    assert expected[0] == 0
    src = os.path.dirname(os.path.dirname(sys.modules["kmfactor"].__file__))
    for columns in ("40", "80", "200"):
        done = subprocess.run([sys.executable, "-S", "-c", KMF, "--help"],
                              env={**os.environ, "PYTHONPATH": src, "COLUMNS": columns},
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == expected


@pytest.mark.parametrize("args", [["validate", "--input", "-"], ["--help"]])
@pytest.mark.parametrize("sink", ["full", "closed pipe"])
def test_a_failed_write_ends_cleanly(args, sink):
    """Output that cannot be written ends kmf with exit 1 and one line on
    stderr, for /dev/full and for a pipe whose reader has gone."""
    if sink == "full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    src = os.path.dirname(os.path.dirname(sys.modules["kmfactor"].__file__))
    if sink == "full":
        stdout, reason = open("/dev/full", "w"), "No space left on device"
    else:
        read, write = os.pipe()
        os.close(read)
        stdout, reason = os.fdopen(write, "w"), "Broken pipe"
    with stdout:
        done = subprocess.run([sys.executable, "-S", "-c", KMF, *args],
                              input=json.dumps({"gcm": A2}), stdout=stdout,
                              stderr=subprocess.PIPE, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": src})
    assert (done.returncode, done.stderr) == (1, f"kmf: cannot write output: {reason}\n")


def test_a_usage_error_exits_2_when_stderr_cannot_be_written():
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    src = os.path.dirname(os.path.dirname(sys.modules["kmfactor"].__file__))
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, "-S", "-c", KMF, "bogus"], stderr=full,
                              stdout=subprocess.PIPE, timeout=60,
                              env={**os.environ, "PYTHONPATH": src})
    assert (done.returncode, done.stdout) == (2, b"")


def test_no_stdout_ends_cleanly(capsys, monkeypatch, tmp_path):
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"gcm": A2}))
    monkeypatch.setattr(sys, "stdout", None)
    assert main(["validate", "--input", str(path)]) == 1
    assert capsys.readouterr().err == "kmf: cannot write output: stdout is closed\n"
