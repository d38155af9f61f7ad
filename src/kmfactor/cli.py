"""Batch command-line surface with JSON input and deterministic output.

One job per invocation: a subcommand plus a JSON document (``--input`` file
or ``-`` for stdin).  Exit codes: 0 success, 1 domain error, 2 malformed
input (schema errors carry a JSON-pointer path).  Output is byte-identical
across runs.

Node references in input accept either labels (strings) or 1-based integer
positions; all output uses labels.  Rationals are serialized as strings
"p/q" so no JSON reader loses exactness.

Folding commands accept the partition either as explicit classes or as
automorphism generators.  For a twisted graph automorphism of an untwisted
affine algebra, pass the underlying diagram automorphism that fixes the
affine node: the twisted and untwisted automorphisms restrict identically
to the Cartan subalgebra, so they induce the same node partition and the
same folded computation.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction

from .cartan import CartanMatrix, validate_gcm
from .errors import CapTooSmall, DomainError, SchemaError
from .factorizer import (
    peel_folded,
    peel_log_sum,
    verify_equivalence,
)
from .folding import FoldContext, Partition, connected_transversal, orbit_partition
from .numerators import (
    character,
    leading_coefficient_closed_form,
    log_numerator,
    marker_exponent,
    root_multiplicities,
)
from .series import Series
from .weyl import PVIndex, normalized_numerator


# -- schema helpers ------------------------------------------------------------

def _object(value, pointer):
    if not isinstance(value, dict):
        raise SchemaError(pointer, "expected an object")
    return value


def _array(value, pointer):
    if not isinstance(value, list):
        raise SchemaError(pointer, "expected an array")
    return value


def _integer(value, pointer, minimum=None):
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(pointer, "expected an integer")
    if minimum is not None and value < minimum:
        raise SchemaError(pointer, f"expected an integer >= {minimum}")
    return value


def _field(obj, key, pointer):
    if key not in obj:
        raise SchemaError(f"{pointer}/{key}", "required field is missing")
    return obj[key]


def _fraction(value, pointer) -> Fraction:
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if not isinstance(value, str):
        raise SchemaError(pointer, "expected an integer or a 'p/q' string")
    try:
        # Fraction multiplies p, q or a decimal by 10**power: refuse, before
        # it is built, a numerator or denominator that could pass the digit
        # limit _json_int keeps
        mantissa, _, power = value.lower().partition("e")
        digits = max(map(len, mantissa.split("/"))) + abs(int(power or 0))
        limit = getattr(sys, "get_int_max_str_digits", lambda: 4300)()
        if not limit or digits <= limit:
            return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise SchemaError(pointer, f"not a rational: {value!r}") from None
    raise SchemaError(pointer, f"rational of up to {digits} digits is out of range")


def _parse_gcm(payload, pointer="") -> CartanMatrix:
    block = _object(_field(_object(payload, pointer or "/"), "gcm", pointer), f"{pointer}/gcm")
    matrix = _array(_field(block, "matrix", f"{pointer}/gcm"), f"{pointer}/gcm/matrix")
    rows = []
    for i, row in enumerate(matrix):
        row = _array(row, f"{pointer}/gcm/matrix/{i}")
        rows.append([_integer(v, f"{pointer}/gcm/matrix/{i}/{j}")
                     for j, v in enumerate(row)])
    labels = block.get("labels")
    if labels is not None:
        labels = _array(labels, f"{pointer}/gcm/labels")
        if len(labels) != len(rows):
            raise SchemaError(f"{pointer}/gcm/labels",
                              f"expected {len(rows)} labels, got {len(labels)}")
        for i, lab in enumerate(labels):
            if not isinstance(lab, str):
                raise SchemaError(f"{pointer}/gcm/labels/{i}", "expected a string")
            if lab in labels[:i]:
                raise SchemaError(f"{pointer}/gcm/labels/{i}", f"label {lab!r} is repeated")
    return validate_gcm(rows, labels)


def _parse_node(cm: CartanMatrix, value, pointer) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        if not 1 <= value <= cm.n:
            raise SchemaError(pointer, f"node {value} out of range 1..{cm.n}")
        return value
    if isinstance(value, str):
        try:
            return cm.node_of_label(value)
        except DomainError as exc:
            raise SchemaError(pointer, str(exc)) from None
    raise SchemaError(pointer, "expected a node label or 1-based position")


def _parse_nodes(cm, value, pointer) -> list[int]:
    nodes: list[int] = []
    for i, v in enumerate(_array(value, pointer)):
        node = _parse_node(cm, v, f"{pointer}/{i}")
        if node in nodes:
            raise SchemaError(f"{pointer}/{i}", f"node {cm.label(node)!r} is repeated")
        nodes.append(node)
    return nodes


def _parse_index(cm, obj, pointer) -> PVIndex:
    obj = _object(obj, pointer)
    nodes = _parse_nodes(cm, _field(obj, "I", pointer), f"{pointer}/I")
    lam_obj = _object(_field(obj, "lam", pointer), f"{pointer}/lam")
    lam = {}
    for key, v in lam_obj.items():
        node = _parse_node(cm, key, f"{pointer}/lam/{key}")
        lam[node] = _integer(v, f"{pointer}/lam/{key}")
    if set(lam) != set(nodes):
        raise SchemaError(f"{pointer}/lam", "keys must match the node set I")
    return PVIndex.from_map(nodes, lam)


def _parse_partition(cm, payload, pointer="") -> Partition:
    payload = _object(payload, pointer or "/")
    if "classes" in payload:
        classes = _array(payload["classes"], f"{pointer}/classes")
        parsed = [_parse_nodes(cm, part, f"{pointer}/classes/{i}")
                  for i, part in enumerate(classes)]
        try:
            return Partition.of(cm.n, parsed)
        except DomainError as exc:
            raise SchemaError(f"{pointer}/classes", str(exc)) from None
    if "automorphisms" in payload:
        perms = _array(payload["automorphisms"], f"{pointer}/automorphisms")
        # orbit_partition checks each generator as it is parsed, in order
        return orbit_partition(cm, (_parse_nodes(cm, perm, f"{pointer}/automorphisms/{i}")
                                    for i, perm in enumerate(perms)))
    raise SchemaError(pointer or "/", "expected 'classes' or 'automorphisms'")


def _parse_series(payload, nvars, cap, pointer) -> Series:
    block = _object(payload, pointer)
    terms_doc = _array(_field(block, "terms", pointer), f"{pointer}/terms")
    terms = []
    for i, pair in enumerate(terms_doc):
        pair = _array(pair, f"{pointer}/terms/{i}")
        if len(pair) != 2:
            raise SchemaError(f"{pointer}/terms/{i}", "expected [exponent, coefficient]")
        exp = _array(pair[0], f"{pointer}/terms/{i}/0")
        if len(exp) != nvars:
            raise SchemaError(f"{pointer}/terms/{i}/0",
                              f"expected {nvars} coordinates")
        coords = tuple(_integer(v, f"{pointer}/terms/{i}/0/{j}", minimum=0)
                       for j, v in enumerate(exp))
        terms.append((coords, _fraction(pair[1], f"{pointer}/terms/{i}/1")))
    return Series(nvars, cap, terms)


def _degree_of(args, payload) -> int:
    if args.degree is not None:
        return _integer(args.degree, "/degree", minimum=0)
    if "degree" not in payload:
        raise SchemaError("/degree", "required field is missing")
    return _integer(payload["degree"], "/degree", minimum=0)


# -- output helpers -------------------------------------------------------------

def _series_doc(series: Series) -> dict:
    return {
        "cap": series.cap,
        "terms": [[list(e), str(c)] for e, c in series.items()],
    }


def _labels(cm, nodes) -> list[str]:
    return [cm.label(i) for i in nodes]


def _factor_doc(cm, pv: PVIndex) -> dict:
    return {"I": _labels(cm, pv.nodes),
            "lam": {cm.label(i): p for i, p in zip(pv.nodes, pv.pairings)}}


def _result_doc(cm, result) -> dict:
    return {
        "factors": [_factor_doc(cm, pv) for pv in result.factors],
        "empty_count": result.empty_count,
        "residual_zero": result.residual_zero,
        "certified_degree": result.certified_degree,
    }


def _require_marker_fits(cm, pv, cap):
    deg = sum(marker_exponent(cm, pv))
    if deg > cap:
        raise CapTooSmall(
            f"marker exponent of {_factor_doc(cm, pv)} has degree {deg} > cap {cap}")


# -- command handlers -----------------------------------------------------------

def _cmd_validate(args, payload):
    cm = _parse_gcm(payload)
    return {"ok": True, "symmetrizer": [str(d) for d in cm.symmetrizer]}, None


def _cmd_numerator(args, payload, log=False):
    cm = _parse_gcm(payload)
    cap = _degree_of(args, payload)
    pv = _parse_index(cm, payload, "")
    series = (log_numerator if log else normalized_numerator)(cm, pv, cap)
    return {"series": _series_doc(series)}, series.text()


def _cmd_character(args, payload):
    cm = _parse_gcm(payload)
    cap = _degree_of(args, payload)
    pv = _parse_index(cm, payload, "")
    value = character(cm, pv, payload.get("offset"), cap)
    return ({"offset": value.offset, "series": _series_doc(value.body)},
            value.body.text())


def _cmd_multiplicities(args, payload):
    cm = _parse_gcm(payload)
    cap = _degree_of(args, payload)
    mult = root_multiplicities(cm, cap)
    rows = [[list(e), m] for e, m in sorted(mult.items(), key=lambda t: (sum(t[0]), t[0]))]
    text = "\n".join(",".join(map(str, e)) + f" {m}" for e, m in rows)
    return {"multiplicities": rows}, text


def _cmd_leading_coeff(args, payload):
    cm = _parse_gcm(payload)
    nodes = _parse_nodes(cm, _field(payload, "I", ""), "/I")
    value = leading_coefficient_closed_form(cm, nodes)
    return {"value": str(value)}, str(value)


def _cmd_orbits(args, payload):
    cm = _parse_gcm(payload)
    partition = _parse_partition(cm, payload)
    classes = [_labels(cm, part) for part in partition.classes]
    return {"classes": classes}, "\n".join(",".join(part) for part in classes)


def _cmd_transversal(args, payload):
    cm = _parse_gcm(payload)
    partition = _parse_partition(cm, payload)
    nodes = connected_transversal(cm, partition)
    return {"transversal": _labels(cm, nodes)}, ",".join(_labels(cm, nodes))


def _cmd_lean_lifts(args, payload):
    cm = _parse_gcm(payload)
    partition = _parse_partition(cm, payload)
    nodes = _parse_nodes(cm, _field(payload, "K", ""), "/K")
    ctx = FoldContext(cm, partition)
    lifts, lean, equi = ctx.lean_lifts(nodes)
    doc = {
        "equiconnected": equi,
        "lifts": [_labels(cm, s) for s in lifts],
        "lean": [_labels(cm, s) for s in lean],
    }
    text = "equiconnected=" + ("true" if equi else "false")
    return doc, text


def _cmd_factor(args, payload, folded=False):
    cm = _parse_gcm(payload)
    cap = _degree_of(args, payload)
    if folded:
        ctx = FoldContext(cm, _parse_partition(cm, payload))
        nvars, term = ctx.partition.num_classes, ctx.fold_log_numerator
    else:
        nvars, term = cm.n, functools.partial(log_numerator, cm)
    if "log_sum_of" in payload:
        entries = _array(payload["log_sum_of"], "/log_sum_of")
        total = Series.zero(nvars, cap)
        for i, entry in enumerate(entries):
            pv = _parse_index(cm, entry, f"/log_sum_of/{i}")
            if folded:
                ctx.check_symmetric(pv)
            _require_marker_fits(cm, pv, cap)
            total = total + term(pv, cap)
    elif "series" in payload:
        total = _parse_series(payload["series"], nvars, cap, "/series")
    else:
        raise SchemaError("/", "expected 'log_sum_of' or 'series'")
    result = peel_folded(ctx, total) if folded else peel_log_sum(cm, total)
    doc = _result_doc(cm, result)
    text = "\n".join(
        "I={%s} lam=%s" % (",".join(f["I"]), ",".join(str(f["lam"][k]) for k in f["I"]))
        for f in doc["factors"]) or "(no factors)"
    return doc, text


def _cmd_verify(args, payload):
    cm = _parse_gcm(payload)
    left = [_parse_index(cm, e, f"/left/{i}")
            for i, e in enumerate(_array(_field(payload, "left", ""), "/left"))]
    right = [_parse_index(cm, e, f"/right/{i}")
             for i, e in enumerate(_array(_field(payload, "right", ""), "/right"))]

    def offsets(key):
        if key not in payload:
            return None
        rows = _array(payload[key], f"/{key}")
        return [[_fraction(x, f"/{key}/{i}/{j}") for j, x in
                 enumerate(_array(row, f"/{key}/{i}"))] for i, row in enumerate(rows)]

    sigma = verify_equivalence(left, right, offsets("offsets_left"),
                               offsets("offsets_right"))
    return ({"matching": sigma},
            "matching=" + ("none" if sigma is None else ",".join(map(str, sigma))))


def _cmd_selftest(args, payload):
    from . import selftest  # imported on demand: no other command uses it

    seed = args.seed if args.seed is not None else 0
    doc = selftest.run(seed)
    return doc, f"trials={doc['trials']} failures={doc['failures']}"


_COMMANDS = {
    "validate": _cmd_validate,
    "numerator": _cmd_numerator,
    "logseries": functools.partial(_cmd_numerator, log=True),
    "character": _cmd_character,
    "multiplicities": _cmd_multiplicities,
    "leading-coeff": _cmd_leading_coeff,
    "orbits": _cmd_orbits,
    "transversal": _cmd_transversal,
    "lean-lifts": _cmd_lean_lifts,
    "factor": _cmd_factor,
    "factor-folded": functools.partial(_cmd_factor, folded=True),
    "verify": _cmd_verify,
    "selftest": _cmd_selftest,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kmf",
        description="Characters and unique factorization for parabolic Verma "
                    "modules over symmetrizable Kac-Moody algebras.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--input", default=None,
                        help="JSON input file, or '-' for stdin")
    parser.add_argument("--output", choices=("json", "text"), default="json")
    parser.add_argument("--degree", type=int, default=None,
                        help="override the payload's truncation degree")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for the selftest random suite")
    return parser


def _unique_keys(pairs) -> dict:
    out = {}
    for key, value in pairs:
        if key in out:
            raise SchemaError("/", f"duplicate object key {key!r}")
        out[key] = value
    return out


def _json_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:  # over the interpreter's limit on digits
        raise SchemaError("/", f"integer of {len(text)} digits is out of range") from None


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise SchemaError("/", f"number {text} is out of range")
    return value


def _no_constant(name: str):
    raise SchemaError("/", f"{name} is not a JSON value")


def _load_payload(args):
    if args.command == "selftest" and args.input is None:
        return {}
    if args.input is None:
        raise SchemaError("/", "--input is required for this command")
    try:
        if args.input == "-":
            raw = sys.stdin.read()
        else:
            with open(args.input, "r", encoding="utf-8") as handle:
                raw = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError("/", f"cannot read input: {exc}") from None
    try:
        payload = json.loads(raw, object_pairs_hook=_unique_keys, parse_int=_json_int,
                             parse_float=_finite_float, parse_constant=_no_constant)
    except json.JSONDecodeError as exc:
        raise SchemaError("/", f"invalid JSON: {exc}") from None
    except RecursionError:
        raise SchemaError("/", "JSON nests too deeply") from None
    return _object(payload, "/")


def _emit(doc, mode: str, text: str | None) -> None:
    if mode == "text" and text is not None:
        sys.stdout.write(text + "\n")
    else:
        sys.stdout.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload = _load_payload(args)
        doc, text = _COMMANDS[args.command](args, payload)
    except SchemaError as exc:
        _emit({"error": {"type": "SchemaError", "pointer": exc.pointer,
                         "message": exc.reason}}, "json", None)
        return 2
    except DomainError as exc:
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}},
              "json", None)
        return 1
    _emit(doc, args.output, text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
