"""Batch command-line surface with JSON input and deterministic output.

One job per invocation: a subcommand plus a JSON document (``--input`` file
or ``-`` for stdin).  Exit codes: 0 success, 1 domain error, 2 malformed
input (schema errors carry a JSON-pointer path).  Output is byte-identical
across runs.

The command line is read without argparse, as argparse read these five
options: unique prefixes (``--deg``), ``--opt=value``, options before or
after the command, the last of a repeated option wins, and ``-1`` is a
value.  Only ``--opt=--``, which argparse turned into an empty list, is
refused.  ``-h`` prints a fixed help text, whatever the terminal's width; a
usage error prints the usage line and ``kmf: error: ...`` on stderr and
exits 2.  Output that cannot be written (a closed stdout, a broken pipe, a
full disk) ends with exit 1 and one line on stderr.

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

import json
import math
import sys
from fractions import Fraction
from functools import partial

# every command uses cartan and errors; each other module is executed by the
# first command that calls into it (see the package's __init__)
from . import factorizer, folding, numerators, series, weyl
from .cartan import CartanMatrix, validate_gcm
from .errors import CapTooSmall, DomainError, SchemaError, _number_text


# -- schema helpers ------------------------------------------------------------

# Most characters of a bad string that an error message echoes.
_ECHO_LIMIT = 40


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
        shown = repr(value) if len(value) <= _ECHO_LIMIT else (
            f"{value[:_ECHO_LIMIT]!r}... ({len(value)} characters)")
        raise SchemaError(pointer, f"not a rational: {shown}") from None
    raise SchemaError(pointer, f"rational of up to {digits} digits is out of range")


def _parse_gcm(payload) -> CartanMatrix:
    block = _object(_field(_object(payload, "/"), "gcm", ""), "/gcm")
    matrix = _array(_field(block, "matrix", "/gcm"), "/gcm/matrix")
    rows = []
    for i, row in enumerate(matrix):
        row = _array(row, f"/gcm/matrix/{i}")
        rows.append([_integer(v, f"/gcm/matrix/{i}/{j}") for j, v in enumerate(row)])
    labels = block.get("labels")
    if labels is not None:
        labels = _array(labels, "/gcm/labels")
        if len(labels) != len(rows):
            raise SchemaError("/gcm/labels", f"expected {len(rows)} labels, got {len(labels)}")
        for i, lab in enumerate(labels):
            if not isinstance(lab, str):
                raise SchemaError(f"/gcm/labels/{i}", "expected a string")
            if lab in labels[:i]:
                raise SchemaError(f"/gcm/labels/{i}", f"label {lab!r} is repeated")
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


def _parse_index(cm, obj, pointer) -> weyl.PVIndex:
    obj = _object(obj, pointer)
    nodes = _parse_nodes(cm, _field(obj, "I", pointer), f"{pointer}/I")
    lam_obj = _object(_field(obj, "lam", pointer), f"{pointer}/lam")
    lam = {}
    for key, v in lam_obj.items():
        node = _parse_node(cm, key, f"{pointer}/lam/{key}")
        lam[node] = _integer(v, f"{pointer}/lam/{key}")
    if set(lam) != set(nodes):
        raise SchemaError(f"{pointer}/lam", "keys must match the node set I")
    return weyl.PVIndex.from_map(nodes, lam)


def _parse_partition(cm, payload) -> folding.Partition:
    payload = _object(payload, "/")
    if "classes" in payload:
        classes = _array(payload["classes"], "/classes")
        parsed = [_parse_nodes(cm, part, f"/classes/{i}") for i, part in enumerate(classes)]
        try:
            return folding.Partition.of(cm.n, parsed)
        except DomainError as exc:
            raise SchemaError("/classes", str(exc)) from None
    if "automorphisms" in payload:
        perms = _array(payload["automorphisms"], "/automorphisms")
        # orbit_partition checks each generator as it is parsed, in order
        return folding.orbit_partition(cm, (_parse_nodes(cm, perm, f"/automorphisms/{i}")
                                            for i, perm in enumerate(perms)))
    raise SchemaError("/", "expected 'classes' or 'automorphisms'")


def _parse_series(payload, nvars, cap, pointer) -> series.Series:
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
    return series.Series(nvars, cap, terms)


def _degree_of(args, payload) -> int:
    degree = args.degree if args.degree is not None else _field(payload, "degree", "")
    return _integer(degree, "/degree", minimum=0)


# -- output helpers -------------------------------------------------------------

def _series_doc(s: series.Series) -> dict:
    return {
        "cap": s.cap,
        "terms": [[list(e), str(c)] for e, c in s.items()],
    }


def _labels(cm, nodes) -> list[str]:
    return [cm.label(i) for i in nodes]


def _factor_doc(cm, pv: weyl.PVIndex) -> dict:
    return {"I": _labels(cm, pv.nodes),
            "lam": {cm.label(i): p for i, p in zip(pv.nodes, pv.pairings)}}


def _result_doc(cm, result) -> dict:
    return {
        "factors": [_factor_doc(cm, pv) for pv in result.factors],
        "empty_count": result.empty_count,
        "residual_zero": result.residual_zero,
        "certified_degree": result.certified_degree,
    }


def _log_term(cm, entry, pointer, cap, marker, term) -> series.Series:
    """An entry's log-numerator ``term``, once its ``marker`` fits the cap."""
    pv = _parse_index(cm, entry, pointer)
    if (deg := sum(marker(pv))) > cap:
        raise CapTooSmall(
            f"marker exponent of {_factor_doc(cm, pv)} has degree {deg} > cap {cap}")
    return term(pv, cap)


# -- command handlers -----------------------------------------------------------

def _cmd_validate(args, payload):
    cm = _parse_gcm(payload)
    symmetrizer = []
    for i, d in zip(cm.nodes(), cm.symmetrizer):
        try:
            symmetrizer.append(str(d))
        except ValueError:  # past the interpreter's limit on digits
            raise DomainError(f"symmetrizer entry at node {cm.label(i)!r} is "
                              f"{_number_text(d)}, too long to print") from None
    return {"ok": True, "symmetrizer": symmetrizer}, None


def _cmd_numerator(args, payload, log=False):
    cm = _parse_gcm(payload)
    cap = _degree_of(args, payload)
    pv = _parse_index(cm, payload, "")
    s = (numerators.log_numerator if log else weyl.normalized_numerator)(cm, pv, cap)
    return {"series": _series_doc(s)}, s.text()


def _cmd_character(args, payload):
    cm = _parse_gcm(payload)
    cap = _degree_of(args, payload)
    pv = _parse_index(cm, payload, "")
    value = numerators.character(cm, pv, payload.get("offset"), cap)
    return ({"offset": value.offset, "series": _series_doc(value.body)},
            value.body.text())


def _cmd_multiplicities(args, payload):
    cm = _parse_gcm(payload)
    cap = _degree_of(args, payload)
    mult = numerators.root_multiplicities(cm, cap)
    rows = [[list(e), m] for e, m in sorted(mult.items(), key=lambda t: (sum(t[0]), t[0]))]
    text = "\n".join(",".join(map(str, e)) + f" {m}" for e, m in rows)
    return {"multiplicities": rows}, text


def _cmd_leading_coeff(args, payload):
    cm = _parse_gcm(payload)
    nodes = _parse_nodes(cm, _field(payload, "I", ""), "/I")
    value = numerators.leading_coefficient_closed_form(cm, nodes)
    return {"value": str(value)}, str(value)


def _cmd_orbits(args, payload):
    cm = _parse_gcm(payload)
    partition = _parse_partition(cm, payload)
    classes = [_labels(cm, part) for part in partition.classes]
    return {"classes": classes}, "\n".join(",".join(part) for part in classes)


def _cmd_transversal(args, payload):
    cm = _parse_gcm(payload)
    partition = _parse_partition(cm, payload)
    nodes = folding.connected_transversal(cm, partition)
    return {"transversal": _labels(cm, nodes)}, ",".join(_labels(cm, nodes))


def _cmd_lean_lifts(args, payload):
    cm = _parse_gcm(payload)
    partition = _parse_partition(cm, payload)
    nodes = _parse_nodes(cm, _field(payload, "K", ""), "/K")
    ctx = folding.FoldContext(cm, partition)
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
        ctx = folding.FoldContext(cm, _parse_partition(cm, payload))
        nvars, marker, term = (ctx.partition.num_classes, ctx.marker_exponent,
                               ctx.fold_log_numerator)
    else:
        nvars, marker, term = (cm.n, partial(numerators.marker_exponent, cm),
                               partial(numerators.log_numerator, cm))
    if "log_sum_of" in payload:
        entries = _array(payload["log_sum_of"], "/log_sum_of")
        total = series._sum_of(nvars, cap, (
            _log_term(cm, entry, f"/log_sum_of/{i}", cap, marker, term)
            for i, entry in enumerate(entries)))
    elif "series" in payload:
        total = _parse_series(payload["series"], nvars, cap, "/series")
    else:
        raise SchemaError("/", "expected 'log_sum_of' or 'series'")
    result = (factorizer.peel_folded(ctx, total) if folded
              else factorizer.peel_log_sum(cm, total))
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

    sigma = factorizer.verify_equivalence(left, right, offsets("offsets_left"),
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
    "logseries": partial(_cmd_numerator, log=True),
    "character": _cmd_character,
    "multiplicities": _cmd_multiplicities,
    "leading-coeff": _cmd_leading_coeff,
    "orbits": _cmd_orbits,
    "transversal": _cmd_transversal,
    "lean-lifts": _cmd_lean_lifts,
    "factor": _cmd_factor,
    "factor-folded": partial(_cmd_factor, folded=True),
    "verify": _cmd_verify,
    "selftest": _cmd_selftest,
}


# -- the command line -------------------------------------------------------------

# What argparse printed for these options at 80 columns, fixed so that the
# help does not depend on the terminal.
_USAGE = """\
usage: kmf [-h] [--input INPUT] [--output {json,text}] [--degree DEGREE]
           [--seed SEED]
           {character,factor,factor-folded,leading-coeff,lean-lifts,logseries,multiplicities,numerator,orbits,selftest,transversal,validate,verify}
"""
_HELP = _USAGE + """
Characters and unique factorization for parabolic Verma modules over
symmetrizable Kac-Moody algebras.

positional arguments:
  {character,factor,factor-folded,leading-coeff,lean-lifts,logseries,multiplicities,numerator,orbits,selftest,transversal,validate,verify}

options:
  -h, --help            show this help message and exit
  --input INPUT         JSON input file, or '-' for stdin
  --output {json,text}
  --degree DEGREE       override the payload's truncation degree
  --seed SEED           seed for the selftest random suite
"""

_OPTIONS = ("-h", "--help", "--input", "--output", "--degree", "--seed")
_CHOICES = {"command": _COMMANDS, "output": ("json", "text")}


class _Args:
    """The values ``main`` reads from the command line."""
    command = input = degree = seed = None
    output = "json"


def _usage_error(message: str):
    try:
        sys.stderr.write(f"{_USAGE}kmf: error: {message}\n")
    except (AttributeError, OSError):  # no stderr to write to: exit 2 all the same
        pass
    raise SystemExit(2)


def _option(token: str):
    """``(option, its '=' value or None)`` for a token that argparse took for
    an option, ``(None, None)`` if the option is unknown; None for a positional."""
    head, eq, value = token.partition("=")
    if head in _OPTIONS:
        return head, value if eq else None
    if token[:2] == "--":
        matches = [option for option in _OPTIONS if option.startswith(head)]
        if len(matches) > 1:
            _usage_error(f"ambiguous option: {token} could match {', '.join(matches)}")
        if matches:
            return matches[0], value if eq else None
    elif token[:2] == "-h":
        return "-h", token[2:]
    elif token[:1] != "-" or token == "-":
        return None
    # a negative number (argparse's r'^-\d+$|^-\d*\.\d+$') or a token with a
    # space is a positional
    body = token[1:].removesuffix("\n")
    if " " in token or body.replace(".", "", 1).isdecimal() and body[-1] != ".":
        return None
    return None, None


def _parse_args(argv) -> _Args:
    """``argv`` read as argparse read it: unique prefixes of options,
    ``--opt=value``, options anywhere, the last of repeated options wins,
    ``-h`` acts in its turn, and unknown tokens are refused at the end."""
    end = argv.index("--") if "--" in argv else len(argv)
    # after the first '--' every token is a positional
    kinds = [*map(_option, argv[:end]), ("--", None), *[None] * (len(argv) - end - 1)]
    args, extras, i = _Args(), [], 0
    while i < len(argv):
        token = argv[i]
        name, value = kinds[i] or ("command", token)
        i += 1
        if name == "--" and args.command is None:  # a '--' before the command
            continue
        if name in ("-h", "--help"):
            if name == "-h" and value:  # '-hh' is -h given twice
                value = value.lstrip("h") or None
            if value is None:
                raise SystemExit(0 if _write(_HELP) else 1)
            _usage_error(f"argument -h/--help: ignored explicit argument {value!r}")
        if name in (None, "--") or name == "command" and args.command is not None:
            extras.append(token)
            continue
        if value is None:
            if i == len(argv) or kinds[i] is not None:
                _usage_error(f"argument {name}: expected one argument")
            value, i = argv[i], i + 1
        dest = name.lstrip("-")
        if value == "--" and dest != "command":  # argparse stored [] for '--opt=--'
            value = []
        elif dest in ("degree", "seed"):
            try:
                value = int(value)
            except ValueError:
                _usage_error(f"argument {name}: invalid int value: {value!r}")
        elif value not in _CHOICES.get(dest, (value,)):
            choices = ", ".join(map(repr, sorted(_CHOICES[dest])))
            _usage_error(f"argument {name}: invalid choice: {value!r} (choose from {choices})")
        setattr(args, dest, value)
        i += dest == "command" and i == end  # a '--' just after the command goes with it
    if args.command is None:
        _usage_error("the following arguments are required: command")
    if extras:
        _usage_error(f"unrecognized arguments: {' '.join(extras)}")
    if [] in vars(args).values():
        _usage_error("'--' is no option's value")
    return args


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


def _write(text: str) -> bool:
    """Write and flush ``text`` to stdout; if that fails, say why on stderr."""
    if sys.stdout is None:
        reason = "stdout is closed"
    else:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
            return True
        except OSError as exc:
            reason = exc.strerror or str(exc)
            if isinstance(exc, BrokenPipeError):
                # the interpreter flushes stdout again at exit: send that to devnull
                import os
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.stderr.write(f"kmf: cannot write output: {reason}\n")
    return False


def _emit(doc, mode: str, text: str | None) -> bool:
    if mode != "text" or text is None:
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return _write(text + "\n")


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        payload = _load_payload(args)
        doc, text = _COMMANDS[args.command](args, payload)
        code = 0
    except SchemaError as exc:
        doc, text, code = {"error": {"type": "SchemaError", "pointer": exc.pointer,
                                     "message": exc.reason}}, None, 2
    except DomainError as exc:
        doc, text, code = {"error": {"type": type(exc).__name__, "message": str(exc)}}, None, 1
    return code if _emit(doc, args.output, text) else 1


if __name__ == "__main__":
    sys.exit(main())
