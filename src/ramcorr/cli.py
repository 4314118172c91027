"""Command-line surface: compute, verify, and export every quantity in
the package as plot-ready CSV or JSON.

Commands
    transform   build a truncated divisor-sum file from a named function
                or re-truncate an existing file
    correlate   evaluate a correlation profile over a shift list
                (tokens: plain integers, ranges lo:hi, and U+k for the
                product-of-odd-primes period plus k)
    verify      run a named identity suite; JSON verdict on stdout
    hl          model-comparison CSV plus a singular-series table

Exit codes: 0 success, 1 verification failure, 2 usage or config error.
Real numbers are serialized with 12 significant digits, big integers in
full decimal, so identical inputs give byte-identical output, whatever
the host's BLAS thread count: no value goes through a BLAS call.

The module imports only the standard library; each command imports what
it uses when it runs.  ``main`` defaults OPENBLAS_NUM_THREADS to 1 before
numpy's first import (a value already set wins), because BLAS worker
threads would only spin.  ``python -m ramcorr.cli`` and the ``ramcorr``
console script both run ``entry``: ``main``, then ``gc.freeze()``, so
that the cyclic collector's passes during interpreter shutdown skip the
tens of thousands of objects numpy and the command left behind (each
pass over them costs milliseconds), while the interpreter's own exit
still runs atexit handlers, flushes the standard streams and returns
``main``'s code.  Importing the module changes no setting, and neither
importing it nor calling ``main`` touches the collector, so in-process
callers of ``main`` are unaffected.

Configuration: defaults < config file (--config or RAMCORR_CONFIG,
key=value lines) < RAMCORR_* environment variables < flags.  A bad
value in the file or a variable exits 2 even when a later source
overrides it.  Every integer, in a flag, a variable, a config line, a
shift token or a list, is ASCII ``-?[0-9]+``.  Only ``correlate`` has a
JSON form: the output_format key and its variable are global defaults,
but an explicit --format on another command exits 2.
"""

from __future__ import annotations

import argparse
import gc
import io
import os
import re
import sys

from . import __version__

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2


CONFIG_KEYS = ("sieve_limit", "output_format")


class UsageError(Exception):
    pass


_INT_TEXT = re.compile(r"-?[0-9]+")


def _integer(text: str) -> int:
    """The int written as ``text``, which must be ASCII ``-?[0-9]+``;
    else ValueError, worded as ``int()``'s.  ``int()`` itself would also
    take digit-group underscores, non-ASCII digits and surrounding
    whitespace.  The one reader of every integer in a flag, a shift
    token, an integer list and a config value."""
    if not _INT_TEXT.fullmatch(text):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


# argparse names the type in a refusal: "invalid int value: '1_0'"
_integer.__name__ = "int"


def _config_value(key: str, text: str, where: str):
    """The value of config ``key`` given as ``text`` at ``where`` (a file's
    ``<path>:<line>``, a variable's name or the flag); a bad one is a
    UsageError naming ``where``."""
    if key == "sieve_limit":
        try:
            limit = _integer(text)
        except ValueError as exc:
            raise UsageError(f"{where}: bad config value: {exc}") from None
        if limit < 1:
            raise UsageError(f"{where}: sieve_limit must be >= 1, got {limit}")
        return limit
    if text not in ("csv", "json"):
        raise UsageError(f"{where}: unknown output format {text!r}")
    return text


def _load_config_file(path: str) -> dict:
    """{key: value} for the file's key=value lines, each line's value
    checked as it is read (a later line for the same key wins)."""
    from .transforms import _ascii, open_table
    out = {}
    try:
        with open_table(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = _ascii(lineno, line, f"{path}:").strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key=value")
                key, _, val = line.partition("=")
                key = key.strip()
                if key not in CONFIG_KEYS:
                    raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
                out[key] = _config_value(key, val.strip(),
                                         f"{path}:{lineno}")
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    return out


def _resolve_config(args) -> None:
    """Resolve the configuration into ``args``: ``sieve_limit``,
    ``format`` (the output format) and ``out`` (None for stdout).  The
    flags parse with SUPPRESS defaults, so an attribute is present only
    when its flag was given, and then it wins.  Every value in the config
    file or the environment is checked where it is read, whether or not a
    later source overrides it, and so is the flag's sieve limit; a bad one
    is named with its source: the file's ``<path>:<line>``, the variable
    or the flag."""
    from .arith_core import SIEVE_CAP
    path = getattr(args, "config", None) or os.environ.get("RAMCORR_CONFIG")
    config = {"sieve_limit": SIEVE_CAP, "output_format": "csv"}
    if path:
        config.update(_load_config_file(path))
    for key in CONFIG_KEYS:
        var = f"RAMCORR_{key.upper()}"
        if var in os.environ:
            config[key] = _config_value(key, os.environ[var], var)
    if "format" in vars(args) and args.command != "correlate":
        raise UsageError("--format applies only to correlate")
    vars(args).setdefault("format", config["output_format"])
    if "sieve_limit" in vars(args):
        args.sieve_limit = _config_value("sieve_limit", args.sieve_limit,
                                         "--sieve-limit")
    vars(args).setdefault("sieve_limit", config["sieve_limit"])
    vars(args).setdefault("out", None)


def _check_limit(args, need: int) -> None:
    if need > args.sieve_limit:
        raise UsageError(
            f"request needs sieve limit {need}, configured cap is "
            f"{args.sieve_limit}; raise sieve_limit")


def _need_sieve(args, need: int):
    from .arith_core import sieve_primes
    _check_limit(args, need)
    return sieve_primes(max(need, 2))


def _read_table(path: str, args, read, what: str,
                unreadable: str | None = None):
    """``read(fh, args.sieve_limit)`` on the table file at ``path``.  A file
    that does not parse is a UsageError naming the ``what`` file and the
    fault; one that cannot be read is one too, with the ``unreadable``
    message when given."""
    from .transforms import open_table
    try:
        with open_table(path) as fh:
            return read(fh, args.sieve_limit)
    except OSError as exc:
        raise UsageError(unreadable or f"cannot load {what} file: {exc}"
                         ) from None
    except ValueError as exc:
        raise UsageError(f"cannot load {what} file: {exc}") from None


def _text(write, *args) -> str:
    """What ``write(*args, fh)`` writes to a text stream, as one string."""
    buf = io.StringIO()
    write(*args, buf)
    return buf.getvalue()


def _stream_out(write, path: str | None) -> None:
    """``write(fh)`` on standard output, or on the file at ``path``,
    opened (and so emptied) only now."""
    if path is None:
        write(sys.stdout)
    else:
        with open(path, "w", encoding="ascii") as fh:
            write(fh)


def _write_out(text: str, path: str | None) -> None:
    _stream_out(lambda fh: fh.write(text), path)


# ----------------------------------------------------------------------
# transform
# ----------------------------------------------------------------------

def _cmd_transform(args) -> int:
    from .arith_core import tabulate, tabulated_function_names
    from .transforms import lambda_tds, read_tds, retruncate, truncate, write_tds
    if (args.fn is None) == (args.infile is None):
        raise UsageError("exactly one of --fn and --in is required")
    N = args.N
    if N < 1:
        raise UsageError("--N must be >= 1")
    if args.fn is not None:
        name = args.fn
        if name not in tabulated_function_names():
            raise UsageError(
                f"unknown function name {name!r}; known: "
                f"{', '.join(tabulated_function_names())}")
        table = _need_sieve(args, N)
        if name == "lambda":
            g = lambda_tds(N, table)
        else:
            g = truncate(tabulate(name, N, table), N, table)
        del table  # free the sieve's arrays before the text is built
    else:
        _check_limit(args, N)  # read_tds would refuse the file written
        g = retruncate(_read_table(args.infile, args, read_tds, "TDS"), N)
    if g._data.dtype == object:
        # str() may refuse a value of it (past the int-to-str digit
        # limit): formatted whole first, it leaves --out untouched then
        _write_out(_text(write_tds, g), args.out)
    else:
        # a fixed-width table has no value to refuse: streamed in blocks
        _stream_out(lambda fh: write_tds(g, fh), args.out)
    return EXIT_OK


# ----------------------------------------------------------------------
# correlate
# ----------------------------------------------------------------------

def _parse_shifts(text: str, N: int, cap: int, table):
    """(shifts, U): the shifts of a ``--shifts`` list, in order, and U of
    length N if a U+k token built it (else None).  Each token is counted
    before it is expanded, and the token that takes the list past ``cap``
    shifts is refused, so no range allocates more than the cap.  A U+k
    token reads U from the sieve ``table`` (limit at least N)."""
    shifts = []
    U = None
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if token.startswith("U+"):
            try:
                k = _integer(token[2:])
            except ValueError:
                raise UsageError(f"bad shift token {token!r}") from None
            if U is None:
                from .ramanujan import universal_period
                U = universal_period(N, table)
            lo = hi = U + k
        elif ":" in token:
            lo_s, _, hi_s = token.partition(":")
            try:
                lo, hi = _integer(lo_s), _integer(hi_s)
            except ValueError:
                raise UsageError(f"bad shift range {token!r}") from None
            if lo > hi:
                raise UsageError(f"empty shift range {token!r}")
        else:
            try:
                lo = hi = _integer(token)
            except ValueError:
                raise UsageError(f"bad shift token {token!r}") from None
        if len(shifts) + hi - lo + 1 > cap:
            raise UsageError(
                f"shift token {token!r} takes the list past {cap} shifts, "
                "the configured cap; raise sieve_limit")
        shifts.extend(range(lo, hi + 1))
    if not shifts:
        raise UsageError("no shifts given")
    if min(shifts) < 1:
        raise UsageError("shifts are naturals >= 1")
    return shifts, U


def _resolve_g(name: str, N: int, args, table):
    """Named shift-carrying factors, built on the sieve ``table`` (limit
    at least N), or a TDS file path.

    ``lambdaN`` is the odd-lifted truncation of von Mangoldt (the factor
    the huge-shift identities hold for); ``lambdaN_raw`` is the plain
    truncation; ``delta1`` the constant-1 divisor table.
    """
    from .transforms import lambda_tds, odd_lift, read_tds, tds_from_et
    if name == "lambdaN":
        return odd_lift(lambda_tds(N, table))
    if name == "lambdaN_raw":
        return lambda_tds(N, table)
    if name == "delta1":
        return tds_from_et({1: 1}, N, "ExactInt", name="delta1")
    return _read_table(name, args, read_tds, "TDS", unreadable=(
        f"--g {name!r} is neither a readable file nor one of "
        "lambdaN, lambdaN_raw, delta1"))


def _cmd_correlate(args) -> int:
    from .arith_core import tabulate, tabulated_function_names
    from .correlations import build_profile, profile_to_csv, profile_to_json
    N = args.N
    if N < 1:
        raise UsageError("--N must be >= 1")
    table = _need_sieve(args, N)
    shifts, U = _parse_shifts(args.shifts, N, args.sieve_limit, table)
    fname = args.f
    if fname not in tabulated_function_names():
        raise UsageError(f"unknown factor {fname!r}; known: "
                         f"{', '.join(tabulated_function_names())}")
    f = tabulate(fname, N, table)
    g = _resolve_g(args.g, N, args, table)
    try:
        profile = build_profile(f, g, N, shifts, f_id=fname, g_id=args.g,
                                method=args.mode, table=table)
        profile._period = U  # the writer reuses the parse's U
        if args.format == "json":
            text = profile_to_json(profile) + "\n"
        else:
            text = _text(profile_to_csv, profile)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    _write_out(text, args.out)
    return EXIT_OK


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def _cmd_verify(args) -> int:
    import json

    from .ramanujan import read_coefficients
    from .transforms import read_tds
    from .verify import run_suite
    tds = coeffs = None
    if args.tds is not None:
        tds = _read_table(args.tds, args, read_tds, "TDS")
    if args.coeffs is not None:
        coeffs = _read_table(args.coeffs, args, read_coefficients,
                             "coefficient")
    try:
        verdict = run_suite(args.suite, seed=args.seed, tds=tds, coeffs=coeffs)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    _write_out(json.dumps(verdict, indent=2, default=str) + "\n", args.out)
    return EXIT_OK if verdict["pass"] else EXIT_VERIFY_FAIL


# ----------------------------------------------------------------------
# hl
# ----------------------------------------------------------------------

def _parse_int_list(text: str, flag: str):
    try:
        items = [_integer(tok) for tok in map(str.strip, text.split(","))
                 if tok]
    except ValueError:
        raise UsageError(f"bad integer list for {flag}: {text!r}") from None
    if not items:
        raise UsageError(f"{flag} must be a non-empty integer list")
    return items


def _cmd_hl(args) -> int:
    from .hlmodels import (model_chain, model_rows_to_csv, singular_series,
                           singular_to_csv)
    N_list = _parse_int_list(args.N_list, "--N-list")
    a_list = _parse_int_list(args.a_list, "--a-list")
    if min(N_list) < 3 or min(a_list) < 1:
        raise UsageError("need N >= 3 and a >= 1")
    if args.Q < 2:
        raise UsageError("--Q must be >= 2")
    if args.singular_out and args.out is None:
        raise UsageError("--singular-out needs --out")
    need = max(max(N_list) + max(a_list), args.Q)
    table = _need_sieve(args, need)
    # each stage reads the prefix of the sieve it needs, whose arrays are
    # built to that length and freed with it: mu and phi to Q for the
    # series, mu and Lambda to max N + max a for the ladder
    sing = singular_series(sorted(set(a_list)), Q=args.Q,
                           table=table.upto(args.Q))
    ladder = table.upto(max(N_list) + max(a_list))
    rows = [row for N in N_list for row in model_chain(N, a_list, ladder)]
    models_csv = _text(model_rows_to_csv, rows)
    singular_csv = _text(singular_to_csv, sing)
    if args.out is None:
        _write_out(f"{models_csv}\n{singular_csv}", None)
    else:
        _write_out(models_csv, args.out)
        _write_out(singular_csv,
                   args.singular_out or args.out + ".singular.csv")
    return EXIT_OK


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

class _SuiteHelp(argparse.HelpFormatter):
    """Lists the verify suites only when the help is printed, so that
    building the parser does not import the verify module."""

    def _get_help_string(self, action):
        if action.dest == "suite":
            from .verify import SUITES
            return f"one of: {', '.join(sorted(SUITES))}"
        return super()._get_help_string(action)


def _build_parser() -> argparse.ArgumentParser:
    # SUPPRESS defaults: a subparser must not clobber values the main
    # parser already consumed (flags are accepted on either side of the
    # subcommand)
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--config", help="key=value config file")
    common.add_argument("--sieve-limit", dest="sieve_limit")
    common.add_argument("--format", choices=("csv", "json"),
                        help="correlate output format")
    common.add_argument("--out", help="output path (default stdout)")

    parser = argparse.ArgumentParser(
        prog="ramcorr",
        description="correlations of arithmetic functions via finite "
                    "Ramanujan expansions",
        parents=[common])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", parents=[common],
                       help="emit a truncated divisor-sum file")
    p.add_argument("--fn", help="named arithmetic function")
    p.add_argument("--in", dest="infile", help="existing TDS file")
    p.add_argument("--N", type=_integer, required=True,
                   help="truncation cutoff")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("correlate", parents=[common],
                       help="evaluate a correlation profile")
    p.add_argument("--f", required=True, help="named fixed factor")
    p.add_argument("--g", required=True,
                   help="shift factor: lambdaN | lambdaN_raw | delta1 | file")
    p.add_argument("--N", type=_integer, required=True,
                   help="correlation length")
    p.add_argument("--shifts", required=True,
                   help="comma list; tokens k, lo:hi, U+k")
    p.add_argument("--mode", choices=("direct", "expansion"),
                   default="direct")
    p.set_defaults(func=_cmd_correlate)

    p = sub.add_parser("verify", parents=[common], formatter_class=_SuiteHelp,
                       help="run an identity suite")
    p.add_argument("suite", help="a verify suite")
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument("--tds", help="TDS file to check (expansion/lucht)")
    p.add_argument("--coeffs", help="coefficient file to check against")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("hl", parents=[common],
                       help="model-comparison and singular-series CSV")
    p.add_argument("--N-list", dest="N_list", required=True)
    p.add_argument("--a-list", dest="a_list", required=True)
    p.add_argument("--Q", type=_integer, default=100_000,
                   help="singular-series truncation")
    p.add_argument("--singular-out", dest="singular_out",
                   help="singular-series CSV path (with --out)")
    p.set_defaults(func=_cmd_hl)
    return parser


def main(argv=None) -> int:
    # before anything imports numpy (see the module docstring)
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _resolve_config(args)
        return args.func(args)
    except UsageError as exc:
        print(f"ramcorr: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> int:
    """The process entry of ``python -m ramcorr.cli`` and of the
    ``ramcorr`` console script: ``main``, then ``gc.freeze()`` however
    ``main`` ends, so that the cyclic collector's passes at interpreter
    exit skip the numpy and ramcorr objects the command imported and
    built (see the module docstring)."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(entry())
