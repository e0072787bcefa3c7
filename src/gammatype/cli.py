"""Command-line front end.

Machine-readable JSON goes to standard output with a fixed key order;
``--human`` adds a one-line summary on standard error.  Exit codes:
0 success, 1 a requested check failed, 2 unknown name or bad parameters,
3 mathematical domain error (pole, undecided strip, unsupported inversion).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import re
import sys

from . import catalog
from .errors import (
    GammaTypeError, ParameterError, PoleError, UnknownEntryError,
    UnrepresentableError, ValidationError, integer, real,
)
from .forms import IDENTITY_TOL, GammaTypeForm, moments_equal

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_UNKNOWN = 2
EXIT_DOMAIN = 3

# errors of the invocation; every other GammaTypeError is a domain error
_USAGE_ERRORS = (ValidationError, ParameterError, UnrepresentableError,
                 UnknownEntryError)


def _jsonable(value):
    if isinstance(value, float) and not math.isfinite(value):
        return str(float(value))  # "inf", "-inf" or "nan"
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _emit(payload, human=None):
    print(json.dumps(_jsonable(payload)))
    if human:
        print(human, file=sys.stderr)


def _number(flag, text, check=None):
    """check(value, flag) of the number that text spells: an int if check
    is errors.integer and the float that text spells is finite (read past
    leading zeros, as int takes at most 4300 digits), else that float, as
    read if check is None.  Text that spells no number, or no integer for
    errors.integer, is a ValidationError naming the flag and the text."""
    for kind in (float, int) if check is integer else (float,):
        try:
            value = kind(text) if kind is float else int(
                re.sub(r"^\s*([+-]?)0[0_]*(?=\d)", r"\1", str(text)))
        except ValueError:
            what = "an integer" if kind is int else "a number"
            shown = text if len(text) <= 40 else text[:40] + "..."
            raise ValidationError(f"{flag}: not {what}: {shown!r}") from None
        if not math.isfinite(value):
            break
    return value if check is None else check(value, flag)


def _parse_params(tokens, flag="--params"):
    params = {}
    for token in tokens or []:
        for piece in token.split(","):
            if "=" not in piece:
                raise ParameterError("<cli>", f"expected k=v, got {piece!r}")
            key, _, raw = piece.partition("=")
            key = key.strip()
            if key in params:
                raise ParameterError("<cli>", f"parameter {key!r} given twice")
            params[key] = _number(flag, raw)
    return params


def _schema_hint(name):
    try:
        payload = catalog.entry_json(name)
    except UnknownEntryError:
        return "try `gammatype list`"
    if not payload["params"]:
        return f"{name} takes no parameters"
    return (name + " parameters: "
            + ", ".join(f"{p['name']} ({p['kind']}, {p['constraint']})"
                        for p in payload["params"]))


def _parse_s(text):
    parts = [_number("--s", part, real) for part in text.split(",")]
    if len(parts) > 2:
        raise ValidationError(
            f"moment order must be 're' or 're,im', got {text!r}")
    return complex(*parts)


# --------------------------------------------------- identity-spec expressions

def _split_args(text):
    """The comma-separated arguments of text outside parentheses, stripped,
    an empty one too.  A bare k=v segment continues the parameters of a
    preceding bare name:k=v,... argument; a segment with ':' or '(' starts
    a new argument."""
    args, depth, start = [], 0, 0
    for i, ch in enumerate(text + ","):
        depth += (ch == "(") - (ch == ")")
        if ch != "," or depth:
            continue
        seg, start = text[start:i].strip(), i + 1
        if (args and "=" in seg and ":" not in seg and "(" not in seg
                and ":" in args[-1] and "(" not in args[-1]):
            args[-1] += "," + seg
        else:
            args.append(seg)
    return args


IDENTITY_GRAMMAR = ("an expression e is name[:k=v,...] | product(e,...) | "
                    "power(e,r) | scale(e,c) | recip(e)")


def parse_identity_spec(text):
    """The form of an expression of IDENTITY_GRAMMAR.  An empty argument
    counts: product(e,) has the unknown name '', and scale(e,c,) three
    arguments."""
    text = text.strip()
    head, _, inner = text.partition("(")
    if head in ("product", "power", "scale", "recip") and text.endswith(")"):
        inner = inner[:-1]
        args = _split_args(inner) if inner.strip() else []
        if head == "product":
            if not args:
                raise ValidationError("product() needs at least one term")
            return functools.reduce(GammaTypeForm.product,
                                    map(parse_identity_spec, args))
        if head == "recip":
            if len(args) != 1:
                raise ValidationError("recip() takes one expression")
            return parse_identity_spec(args[0]).reflect()
        if len(args) != 2:
            raise ValidationError(f"{head}() takes (expression, number)")
        base = parse_identity_spec(args[0])
        value = _number(f"{head}()", args[1])
        return base.power(value) if head == "power" else base.scale(value)
    name, _, rest = text.partition(":")
    params = _parse_params([rest], name.strip()) if rest else {}
    return catalog.build(name.strip(), params).form


# ------------------------------------------------------------------ commands
# Each command takes the parsed args and its entry (None for the commands
# without --params) and returns (payload, summary, passed).  main writes
# the payload as one JSON line (None: the command wrote its own lines),
# the summary on stderr under --human (None: no summary), and exits 0 if
# passed, else 1.

def _cmd_list(args, entry):
    payload = catalog.catalog_to_json()
    return payload, f"{len(payload)} catalog entries", True


def _cmd_info(args, entry):
    payload = catalog.entry_json(args.name)
    return payload, f"{args.name}: {payload['label']}", True


def _cmd_moment(args, entry):
    s = _parse_s(args.s)
    value = entry.form.evaluate(s)
    return ({"name": args.name, "kind": entry.kind, "s": [s.real, s.imag],
             "value": [value.real, value.imag]},
            f"F({args.s}) = {value}", True)


def _cmd_profile(args, entry):
    strip = entry.form.strip()
    prof = entry.form.asymptotic_profile()
    payload = {
        "name": args.name,
        "rho_minus": strip.rho_minus, "rho_plus": strip.rho_plus,
        "gamma": prof.gamma, "gamma_prime": prof.gamma_prime,
        "delta": prof.delta, "kappa": prof.kappa, "c1": prof.c1,
    }
    return payload, f"{args.name}: gamma={payload['gamma']}", True


def _cmd_strip(args, entry):
    strip = entry.form.strip()
    return ({"name": args.name, "rho_minus": strip.rho_minus,
             "rho_plus": strip.rho_plus},
            f"({strip.rho_minus}, {strip.rho_plus})", True)


def _cmd_check_identity(args, entry):
    try:
        lhs, rhs = parse_identity_spec(args.lhs), parse_identity_spec(args.rhs)
    except RecursionError:  # the parser takes one frame per nesting level
        raise ValidationError("expression nested too deeply") from None
    equal = moments_equal(lhs, rhs)
    return ({"lhs": args.lhs, "rhs": args.rhs, "tol": IDENTITY_TOL,
             "equal": equal},
            "identity holds" if equal else "identity FAILS", equal)


def _cmd_verify_mc(args, entry):
    from . import stochastics
    grid = ([_number("--s-grid", v, real) for v in args.s_grid.split(",")]
            if args.s_grid is not None else None)
    report = stochastics.verify_entry(entry, grid, n=args.n, seed=args.seed)
    return (report.to_json_dict(),
            f"{args.name}: {'pass' if report.passed else 'FAIL'}",
            report.passed)


@contextlib.contextmanager
def _sink(path):
    """The write function of sys.stdout, or of the file at path.

    Entered before any drawing or inversion, so an unwritable path is a
    usage error that wastes no work.  The file is emptied at the first
    write, so a command that fails before it leaves the file as it was.
    A write or close that fails is a usage error too; a closed pipe is
    left to main, as on stdout.
    """
    if path is None:
        yield sys.stdout.write
        return

    def write(text):
        if regular:
            fh.truncate()  # to the bytes written so far: at first, none
        fh.write(text)
    try:
        fh = open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w")
        regular = os.path.isfile(path)  # as with O_TRUNC, not a pipe or device
        with fh:
            yield write
    except BrokenPipeError:
        raise
    except OSError as exc:
        raise ValidationError(f"--output: {exc}") from None


def _cmd_sample(args, entry):
    from . import stochastics
    chunks = stochastics.chunks(stochastics.recipe_of(entry), args.n,
                                args.seed)
    line = ((lambda i, x: json.dumps({"i": i, "x": _jsonable(x)}))
            if args.format == "jsonl" else lambda i, x: repr(x))
    with _sink(args.output) as write:
        start = 0
        for part in chunks:  # one chunk in memory, whatever n
            write("".join(line(i, x) + "\n"
                          for i, x in enumerate(part.tolist(), start)))
            start += len(part)
    receipt = ({"name": args.name, "n": args.n, "seed": args.seed,
                "path": args.output, "format": args.format}
               if args.output else None)
    return receipt, None, True


def _parse_grid(text):
    """The x of a:b:steps, equal bit for bit to np.linspace(a, b, steps)."""
    from .mellin import MAX_NODES
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError(f"grid must be a:b:steps, got {text!r}")
    lo, hi = _number("--x", parts[0], real), _number("--x", parts[1], real)
    count = _number("--x", parts[2], integer)
    span = hi - lo  # an overflowing span is inf
    if not (math.isfinite(span) and 1 <= count <= MAX_NODES):
        raise ValidationError(f"--x: a grid needs a finite span and 1 to "
                              f"{MAX_NODES} steps, got {text!r}")
    if count == 1:
        return [0 * span + lo]
    div = count - 1
    step = span / div
    # numpy's order of operations, and its branch for a step that
    # underflows to 0
    xs = ([i * step + lo for i in range(div)] if step else
          [i / div * span + lo for i in range(div)])
    return xs + [hi]


def _cmd_density(args, entry):
    from . import mellin
    xs = _parse_grid(args.x)
    with _sink(args.output) as write:
        rows = [{"x": x, "density": f}
                for x, f in mellin.density_rows(entry, xs, args.abscissa)]
        if args.output is None:
            return ({"name": args.name, "table": rows},
                    f"{len(rows)} density points", True)
        if args.format == "csv":
            write("x,density\n" + "".join(
                f"{row['x']!r},{row['density']!r}\n" for row in rows))
        else:
            write(json.dumps(_jsonable(rows), indent=2) + "\n")
    return ({"name": args.name, "path": args.output, "format": args.format,
             "points": len(rows)}, None, True)


def _cmd_consistency(args, entry):
    report = entry.form.check_positive_consistency()
    return ({"name": args.name, "passed": report.passed,
             "zero_location": report.zero_location},
            "consistent" if report.passed else
            f"zero inside strip at {report.zero_location}", report.passed)


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

    def command(name, handler, *positionals, params=True):
        """The subparser of one command, which main runs by handler."""
        p = sub.add_parser(name)
        p.set_defaults(handler=handler)
        for positional in positionals:
            p.add_argument(positional)
        if params:
            p.add_argument("--params", nargs="*", default=[], action="extend",
                           help="parameters as k=v[,k=v...]; may repeat")
        return p

    command("list", _cmd_list, params=False)
    command("info", _cmd_info, "name", params=False)

    p = command("moment", _cmd_moment, "name")
    p.add_argument("--s", required=True, help="moment order: re or re,im")

    command("profile", _cmd_profile, "name")
    command("strip", _cmd_strip, "name")
    command("check-identity", _cmd_check_identity, "lhs", "rhs", params=False)

    p = command("verify-mc", _cmd_verify_mc, "name")
    p.add_argument("--s-grid", default=None, help="comma-separated real s")
    p.add_argument("--n", default=10 ** 6)
    p.add_argument("--seed", default=None)

    p = command("sample", _cmd_sample, "name")
    p.add_argument("--n", default=10)
    p.add_argument("--seed", default=None)
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.add_argument("--output", default=None)

    p = command("density", _cmd_density, "name")
    p.add_argument("--x", required=True, help="grid as a:b:steps")
    p.add_argument("--abscissa", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default=None)

    command("consistency", _cmd_consistency, "name")
    return parser


def main(argv=None) -> int:
    args = None
    try:
        args = build_parser().parse_args(argv)
        # typed numbers come before GML_SEED and the entry, as in argparse
        for dest, check in (("n", integer), ("seed", integer),
                            ("abscissa", real)):
            text = getattr(args, dest, None)
            if text is not None:
                setattr(args, dest, _number(f"--{dest}", text, check))
        if getattr(args, "seed", None) is None and hasattr(args, "seed"):
            args.seed = _number("GML_SEED", os.environ.get("GML_SEED", "0"),
                                integer)
        entry = (catalog.build(args.name, _parse_params(args.params))
                 if hasattr(args, "params") else None)
        payload, summary, passed = args.handler(args, entry)
        if payload is not None:
            _emit(payload, summary if args.human else None)
        sys.stdout.flush()  # here, so that a closed pipe raises inside main
        return EXIT_OK if passed else EXIT_CHECK_FAILED
    except BrokenPipeError:
        # the reader stopped, and nothing failed; stdout goes to devnull so
        # that the interpreter's last flush does not fail again (the SIGPIPE
        # note in the documentation of Python's signal module)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except GammaTypeError as exc:
        payload, usage = {"error": str(exc)}, isinstance(exc, _USAGE_ERRORS)
        if isinstance(exc, UnknownEntryError):
            payload["hint"] = "try `gammatype list`"
        elif usage:  # args is None where argparse refused the command line
            payload["hint"] = (None if args is None else
                               _schema_hint(args.name) if hasattr(args, "name")
                               else IDENTITY_GRAMMAR)
        elif isinstance(exc, PoleError):
            payload["location"] = [exc.location.real, exc.location.imag]
        _emit(payload)
        return EXIT_UNKNOWN if usage else EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
