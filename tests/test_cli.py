import contextlib
import io
import json
import os
import subprocess
import sys

from hypothesis import HealthCheck, given, settings, strategies as st

from catalog import MATRICES
from kmfactor.cli import _COMMANDS, main

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
    assert json.loads(out)["error"]["type"] == "NotSymmetric"


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
    nor the selftest module, which only ``kmf selftest`` needs."""
    src = os.path.dirname(os.path.dirname(sys.modules["kmfactor"].__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", "import sys, kmfactor.cli; print(' '.join(sys.modules))"],
        env=env, capture_output=True, text=True, check=True).stdout.split()
    assert "kmfactor.cli" in out
    for name in ("dataclasses", "inspect", "kmfactor.selftest"):
        assert name not in out


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


small_matrices = st.one_of(
    st.sampled_from([rows for rows in MATRICES.values() if len(rows) <= 4]),
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
       st.one_of(st.none(), st.integers(-1, 6)), st.one_of(st.none(), st.integers(-5, 5)))
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
