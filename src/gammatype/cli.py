"""Command-line front end.

Machine-readable JSON goes to standard output with a fixed key order;
``--human`` adds a one-line summary on standard error.  Exit codes:
0 success, 1 a requested check failed, 2 unknown name or bad parameters,
3 mathematical domain error (pole, undecided strip, unsupported inversion).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

from . import catalog
from .errors import (
    GammaTypeError, ParameterError, PoleError, UnrepresentableError,
    ValidationError,
)
from .forms import IDENTITY_TOL, moments_equal

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_UNKNOWN = 2
EXIT_DOMAIN = 3


def _jsonable(value):
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return value
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _emit(payload, human=None):
    print(json.dumps(_jsonable(payload)))
    if human:
        print(human, file=sys.stderr)


def _number(flag, text, kind=float):
    """kind(text), or a ValidationError naming the flag and the text."""
    try:
        return kind(text)
    except ValueError:
        raise ValidationError(f"{flag}: not a number: {text!r}") from None


def _parse_params(tokens, flag="--params"):
    params = {}
    for token in tokens or []:
        for piece in token.split(","):
            if not piece:
                continue
            if "=" not in piece:
                raise ParameterError("<cli>", f"expected k=v, got {piece!r}")
            key, _, raw = piece.partition("=")
            params[key.strip()] = _number(flag, raw)
    return params


def _build(name, param_tokens):
    return catalog.build(name, _parse_params(param_tokens))


def _entry_json(name):
    """The entry's element of catalog_to_json(), or None for an unknown name."""
    return next((payload for payload in catalog.catalog_to_json()
                 if payload["name"] == name), None)


def _schema_hint(name):
    payload = _entry_json(name)
    if payload is None:
        return f"unknown entry {name!r}; try `gammatype list`"
    if not payload["params"]:
        return f"{name} takes no parameters"
    return (name + " parameters: "
            + ", ".join(f"{p['name']} ({p['kind']}, {p['constraint']})"
                        for p in payload["params"]))


def _parse_s(text):
    parts = [_number("--s", part) for part in text.split(",")]
    if len(parts) > 2:
        raise ValidationError(
            f"moment order must be 're' or 're,im', got {text!r}")
    return complex(*parts)


# --------------------------------------------------- identity-spec expressions

def _split_args(text):
    out, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur:
        out.append("".join(cur))
    # a bare k=v segment continues the parameters of a preceding bare
    # name:k=v,... segment; a segment with ':' or '(' is a new argument
    merged = []
    for seg in out:
        seg = seg.strip()
        if (merged and "=" in seg and ":" not in seg and "(" not in seg
                and ":" in merged[-1] and "(" not in merged[-1]):
            merged[-1] += "," + seg
        else:
            merged.append(seg)
    return merged


def parse_identity_spec(text):
    """Grammar: name[:k=v,...] | product(e,...) | power(e,r) | scale(e,c)
    | recip(e)."""
    text = text.strip()
    for head in ("product", "power", "scale", "recip"):
        if text.startswith(head + "(") and text.endswith(")"):
            args = _split_args(text[len(head) + 1:-1])
            if head == "product":
                forms = [parse_identity_spec(a) for a in args]
                if not forms:
                    raise ValidationError("product() needs at least one term")
                out = forms[0]
                for f in forms[1:]:
                    out = out.product(f)
                return out
            if head == "recip":
                if len(args) != 1:
                    raise ValidationError("recip() takes one expression")
                return parse_identity_spec(args[0]).reciprocal()
            if len(args) != 2:
                raise ValidationError(f"{head}() takes (expression, number)")
            base = parse_identity_spec(args[0])
            value = _number(f"{head}()", args[1])
            return base.power(value) if head == "power" else base.scale(value)
    name, _, rest = text.partition(":")
    params = _parse_params([rest], name.strip()) if rest else {}
    return catalog.build(name.strip(), params).form


# ------------------------------------------------------------------ commands

def _cmd_list(args):
    _emit(catalog.catalog_to_json(),
          f"{len(catalog.entry_names())} catalog entries" if args.human else None)
    return EXIT_OK


def _cmd_info(args):
    payload = _entry_json(args.name)
    if payload is None:
        _emit({"error": _schema_hint(args.name)})
        return EXIT_UNKNOWN
    _emit(payload, f"{args.name}: {payload['label']}" if args.human else None)
    return EXIT_OK


def _cmd_moment(args):
    entry = _build(args.name, args.params)
    s = _parse_s(args.s)
    value = entry.form.evaluate(s)
    payload = {
        "name": args.name, "kind": entry.kind,
        "s": [s.real, s.imag],
        "value": [value.real, value.imag],
    }
    _emit(payload, f"F({args.s}) = {value}" if args.human else None)
    return EXIT_OK


def _cmd_profile(args):
    entry = _build(args.name, args.params)
    strip = entry.form.strip()
    prof = entry.form.asymptotic_profile()
    payload = {
        "name": args.name,
        "rho_minus": strip.rho_minus, "rho_plus": strip.rho_plus,
        "gamma": float(prof.gamma), "gamma_prime": float(prof.gamma_prime),
        "delta": prof.delta, "kappa": prof.kappa, "c1": prof.c1,
    }
    _emit(payload, f"{args.name}: gamma={payload['gamma']}"
          if args.human else None)
    return EXIT_OK


def _cmd_strip(args):
    entry = _build(args.name, args.params)
    strip = entry.form.strip()
    _emit({"name": args.name, "rho_minus": strip.rho_minus,
           "rho_plus": strip.rho_plus},
          f"({strip.rho_minus}, {strip.rho_plus})" if args.human else None)
    return EXIT_OK


def _cmd_check_identity(args):
    lhs = parse_identity_spec(args.lhs)
    rhs = parse_identity_spec(args.rhs)
    equal = moments_equal(lhs, rhs)
    _emit({"lhs": args.lhs, "rhs": args.rhs, "tol": IDENTITY_TOL,
           "equal": equal},
          ("identity holds" if equal else "identity FAILS")
          if args.human else None)
    return EXIT_OK if equal else EXIT_CHECK_FAILED


def _cmd_verify_mc(args):
    from . import stochastics
    entry = _build(args.name, args.params)
    grid = ([_number("--s-grid", v) for v in args.s_grid.split(",")]
            if args.s_grid else None)
    report = stochastics.verify_entry(entry, grid, n=args.n, seed=args.seed)
    _emit(report.to_json_dict(),
          (f"{args.name}: {'pass' if report.passed else 'FAIL'}"
           if args.human else None))
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


@contextlib.contextmanager
def _sink(path):
    """The write function of sys.stdout, or of the file at path.

    Entered before any drawing or inversion, so an unwritable path is a
    usage error that wastes no work.  The file is emptied at the first
    write, so a command that fails before it leaves the file as it was.
    """
    if path is None:
        yield sys.stdout.write
        return
    try:
        fh = open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w")
    except OSError as exc:
        raise ValidationError(f"--output: {exc}") from None
    regular = os.path.isfile(path)  # as with O_TRUNC, not a pipe or device

    def write(text):
        if regular:
            fh.truncate()  # to the bytes written so far: at first, none
        fh.write(text)
    with fh:
        yield write


def _cmd_sample(args):
    from . import stochastics
    entry = _build(args.name, args.params)
    chunks = stochastics.chunks(stochastics.recipe_of(entry), args.n,
                                args.seed)
    line = ((lambda i, x: json.dumps({"i": i, "x": x}))
            if args.format == "jsonl" else lambda i, x: repr(x))
    with _sink(args.output) as write:
        start = 0
        for part in chunks:  # one chunk in memory, whatever n
            write("".join(line(i, x) + "\n"
                          for i, x in enumerate(part.tolist(), start)))
            start += len(part)
    if args.output:
        _emit({"name": args.name, "n": args.n, "seed": args.seed,
               "path": args.output, "format": args.format})
    return EXIT_OK


def _parse_grid(text):
    import numpy as np
    from .mellin import MAX_NODES
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError(f"grid must be a:b:steps, got {text!r}")
    lo, hi = _number("--x", parts[0]), _number("--x", parts[1])
    count = _number("--x", parts[2], int)
    # a float subtraction: an overflowing span is inf, without a warning
    if not (math.isfinite(hi - lo) and 1 <= count <= MAX_NODES):
        raise ValidationError(f"--x: a grid needs finite ends, a finite "
                              f"span and 1 to {MAX_NODES} steps, got "
                              f"{text!r}")
    return np.linspace(lo, hi, count)


def _cmd_density(args):
    from . import mellin
    entry = _build(args.name, args.params)
    xs = _parse_grid(args.x)
    with _sink(args.output) as write:
        rows = [{"x": float(x), "density": float(f)}
                for x, f in mellin.density_table(entry, xs, args.abscissa)]
        if args.output is None:
            _emit({"name": args.name, "table": rows},
                  f"{len(rows)} density points" if args.human else None)
        elif args.format == "csv":
            write("x,density\n" + "".join(
                f"{row['x']!r},{row['density']!r}\n" for row in rows))
        else:
            write(json.dumps(rows, indent=2) + "\n")
    if args.output:
        _emit({"name": args.name, "path": args.output,
               "format": args.format, "points": len(rows)})
    return EXIT_OK


def _cmd_consistency(args):
    entry = _build(args.name, args.params)
    report = entry.form.check_positive_consistency()
    payload = {
        "name": args.name, "passed": report.passed,
        "zero_location": report.zero_location,
    }
    _emit(payload, ("consistent" if report.passed else
                    f"zero inside strip at {report.zero_location}")
          if args.human else None)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _add_entry_args(p, with_params=True):
    p.add_argument("name")
    if with_params:
        p.add_argument("--params", nargs="*", default=[],
                       help="parameters as k=v[,k=v...]")


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValidationError, so they exit 2 with JSON too."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def build_parser():
    parser = _Parser(
        prog="gammatype",
        description="Gamma-type moment forms: catalog, checks, sampling.")
    parser.add_argument("--human", action="store_true",
                        help="add a readable summary on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list")

    _add_entry_args(sub.add_parser("info"), with_params=False)

    p = sub.add_parser("moment")
    _add_entry_args(p)
    p.add_argument("--s", required=True, help="moment order: re or re,im")

    _add_entry_args(sub.add_parser("profile"))
    _add_entry_args(sub.add_parser("strip"))

    p = sub.add_parser("check-identity")
    p.add_argument("lhs")
    p.add_argument("rhs")

    p = sub.add_parser("verify-mc")
    _add_entry_args(p)
    p.add_argument("--s-grid", default=None, help="comma-separated real s")
    p.add_argument("--n", type=int, default=10 ** 6)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("sample")
    _add_entry_args(p)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.add_argument("--output", default=None)

    p = sub.add_parser("density")
    _add_entry_args(p)
    p.add_argument("--x", required=True, help="grid as a:b:steps")
    p.add_argument("--abscissa", type=float, default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default=None)

    _add_entry_args(sub.add_parser("consistency"))
    return parser


_COMMANDS = {
    "list": _cmd_list,
    "info": _cmd_info,
    "moment": _cmd_moment,
    "profile": _cmd_profile,
    "strip": _cmd_strip,
    "check-identity": _cmd_check_identity,
    "verify-mc": _cmd_verify_mc,
    "sample": _cmd_sample,
    "density": _cmd_density,
    "consistency": _cmd_consistency,
}


def main(argv=None) -> int:
    args = None
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "seed", None) is None and hasattr(args, "seed"):
            args.seed = _number("GML_SEED", os.environ.get("GML_SEED", "0"),
                                int)
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # here, so that a closed pipe raises inside main
        return code
    except BrokenPipeError:
        # the reader stopped, and nothing failed; stdout goes to devnull so
        # that the interpreter's last flush does not fail again (the SIGPIPE
        # note in the documentation of Python's signal module)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except KeyError as exc:
        # unknown catalog name raised by catalog.build
        _emit({"error": str(exc.args[0]) if exc.args else str(exc),
               "hint": "try `gammatype list`"})
        return EXIT_UNKNOWN
    except (ParameterError, UnrepresentableError, ValidationError) as exc:
        hint = _schema_hint(args.name) if hasattr(args, "name") else None
        _emit({"error": str(exc), "hint": hint})
        return EXIT_UNKNOWN
    except GammaTypeError as exc:
        payload = {"error": str(exc)}
        if isinstance(exc, PoleError):
            loc = exc.location
            payload["location"] = ([loc.real, loc.imag]
                                   if isinstance(loc, complex) else loc)
        _emit(payload)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
