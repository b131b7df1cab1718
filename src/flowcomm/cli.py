"""Command-line frontend.

Verbs: equiv, canon, commensurable, cover, chain, verify, trace-seq,
each declared once in _VERBS: its positional arguments, whether -o
writes its document, its handler and its help; every verb takes --quiet.
Each run() call builds a fresh parser: when argv[0] is a verb, that
verb's parser alone, as prog "flowcomm <verb>", which parses argv[1:];
otherwise (--help, an empty argv, an unknown verb, a first token that
is an option or '--') the top-level parser with all seven verbs as
sub-parsers, so the top-level help and its errors list every verb.
Either way the output is the same bytes.
Exit codes are a scripting contract: 0 = positive verdict or verified
document, 1 = negative verdict or rejected document, 2 = usage or
input error, 3 = a computational limit was hit (an output integer past
the interpreter's int/str digit limit; no decision or verification
forms a power but the square of an input of trace < -2, so none has a
budget; --quiet without -o forms no text, so there only chain's
cone-order gate and trace-seq exit 3). An exception that no verb
expects is a bug; the console entry point (main) reports it as an
"internal error" on stderr with exit 2, never as a traceback, while
run() lets it propagate to an in-process caller.

Matrices are written [[a,b],[c,d]] or a,b;c,d, and both syntaxes read
each entry alike, as int(entry, 10) does; an argument that starts with
'-' and a digit, such as -1,1;-5,4, is a matrix, never an option.
trace-seq's count is read by the same integer parser. Models are written
suspension:[[a,b],[c,d]], surface:g=3, or orbifold:[g=G,]n1,...,nk for
the orbifold of genus G (default 0) with cone orders n1..nk. Every
JSON output, on stdout or through -o, is a serialize encoder's document
in serialize.dumps's compact canonical text (sorted keys, no
whitespace, one line), so repeated runs write identical bytes.
"""

import argparse
import os
import re
import sys
from itertools import accumulate
from math import lcm

from .commensurability import are_commensurable
from .conjugacy import are_equivalent, rl_word
from .errors import ComputationLimit, FlowcommError
from .linalg import HyperbolicMatrix, Mat2
from .models import (
    ChainCertificate,
    GeodesicOrbifold,
    Suspension,
    _designated,
    almost_commensurability_chain,
)
from .serialize import (
    decode_document,
    digit_limit_message,
    dumps,
    encode_certificate,
    encode_chain,
    encode_verdict,
    encode_word,
    loads,
)
from .verify import verify_certificate, verify_chain

__all__ = ["main", "run", "UsageError"]


class UsageError(FlowcommError):
    """Bad command line or unparseable input; maps to exit code 2."""


# stderr prefix main() gives an exception no handler expected
INTERNAL_ERROR = "internal error"
# characters of a stderr message written whole; a longer one keeps its head
_MESSAGE_LIMIT = 200

# decimal literals int() accepts, in any script's decimal digits; a
# ValueError on one is the digit limit
_DIGITS_RE = re.compile(r"[+-]?\d+(?:_\d+)*")
# [[a,b],[c,d]] as the rows of a,b;c,d; no row admits a bracket, so matching is linear
_ROW = r"\[([^][,;]*,[^][,;]*)\]"
_BRACKETED_RE = re.compile(rf"\[\s*{_ROW}\s*,\s*{_ROW}\s*\]")
# '-' and a digit starts a matrix such as -1,1;-5,4, never an option;
# argparse's own pattern takes only a whole negative number as positional
_MATRIX_NOT_OPTION_RE = re.compile(r"-\d")


def _bounded(message):
    """The message, or its first _MESSAGE_LIMIT characters and its total
    length, so that an argument echoed in an error cannot flood stderr."""
    if len(message) <= _MESSAGE_LIMIT:
        return message
    return f"{message[:_MESSAGE_LIMIT]}... ({len(message)} characters)"


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _MATRIX_NOT_OPTION_RE

    def error(self, message):
        raise UsageError(message)


def _parse_int_entry(token):
    token = token.strip()
    try:
        return int(token, 10)
    except ValueError:
        if _DIGITS_RE.fullmatch(token):
            raise UsageError(digit_limit_message()) from None
        raise UsageError(f"not an integer: {token!r}") from None


def _parse_matrix(text):
    s = text.strip()
    if s.startswith("["):
        match = _BRACKETED_RE.fullmatch(s)
        if match is None:
            raise UsageError(f"malformed matrix: {text!r}")
        s = ";".join(match.groups())
    rows = s.split(";")
    if len(rows) != 2:
        raise UsageError(f"matrix must have two ';'-separated rows: {text!r}")
    entries = []
    for row in rows:
        cols = row.split(",")
        if len(cols) != 2:
            raise UsageError(f"matrix rows need two entries: {row.strip()!r}")
        entries.extend(_parse_int_entry(tok) for tok in cols)
    return Mat2(*entries)


def _parse_hyperbolic(text):
    return HyperbolicMatrix.from_mat(_parse_matrix(text))


def _parse_model(text):
    s = text.strip()
    head, sep, rest = s.partition(":")
    if not sep:
        raise UsageError(
            f"malformed model {text!r}: expected suspension:, surface:, or orbifold:"
        )
    head = head.strip().lower()
    if head == "suspension":
        return Suspension(_parse_hyperbolic(rest))
    if head not in ("surface", "orbifold"):
        raise UsageError(f"unknown model type: {head!r}")
    parts = rest.split(",") if head == "orbifold" else [rest]
    genus = 0
    if head == "surface" or parts[0].strip().startswith("g="):
        genus = _parse_int_entry(parts.pop(0).strip().removeprefix("g="))
    orders = [_parse_int_entry(tok) for tok in parts]
    try:
        return GeodesicOrbifold(genus, orders)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _emit(args, encode, value):
    """Write dumps(encode(value)) to -o's file, else to stdout unless
    --quiet: then no document is built, and none can pass the digit limit."""
    if args.output is not None:  # -o "" too, which open() refuses
        text = dumps(encode(value))
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {args.output!r}: {exc}") from None
    elif not args.quiet:
        sys.stdout.write(dumps(encode(value)))


def _check_digit_limit(values):
    """Raise ComputationLimit at the first of values (nonnegative ints)
    that str() would refuse; reads none of them when the limit is off."""
    bound = 10 ** sys.get_int_max_str_digits()  # 1 when the limit is off
    if bound > 1 and any(v >= bound for v in values):
        raise ComputationLimit(digit_limit_message())


def _cmd_equiv(args):
    a = _parse_hyperbolic(args.matrix_a)
    b = _parse_hyperbolic(args.matrix_b)
    verdict = are_equivalent(a, b)
    _emit(args, encode_verdict, verdict)
    return 0 if verdict.equivalent else 1


def _cmd_canon(args):
    a = _parse_hyperbolic(args.matrix)
    word, _ = rl_word(a)
    _emit(args, encode_word, word)
    return 0


def _run_commensurable(args):
    return are_commensurable(_parse_matrix(args.matrix_a), _parse_matrix(args.matrix_b))


def _cmd_commensurable(args):
    verdict = _run_commensurable(args)
    _emit(args, encode_verdict, verdict)
    return 0 if verdict.commensurable else 1


def _cmd_cover(args):
    verdict = _run_commensurable(args)
    if not verdict.commensurable:
        print(
            "not commensurable: t_a^2 - 4 and t_b^2 - 4 lie in distinct "
            "square classes",
            file=sys.stderr,
        )
        return 1
    _emit(args, encode_certificate, verdict.certificate)
    return 0


def _cmd_chain(args):
    models = _parse_model(args.model_a), _parse_model(args.model_b)
    # an orbifold with no designated matrix is linked to its least covering
    # surface by a printed degree that the lcm of its cone orders divides
    for model in models:
        if isinstance(model, GeodesicOrbifold) and _designated(model) is None:
            _check_digit_limit(accumulate(model.cone_orders, lcm))
    chain = almost_commensurability_chain(*models)
    _emit(args, encode_chain, chain)
    return 0


def _cmd_verify(args):
    try:
        with open(args.file, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {args.file!r}: {exc}") from None
    decoded = decode_document(loads(text))
    if isinstance(decoded, ChainCertificate):
        ok, clause = verify_chain(decoded)
    else:
        ok, clause = verify_certificate(decoded)
    if not args.quiet:
        print(("verified" if ok else f"rejected: {clause}"))
    return 0 if ok else 1


def _cmd_trace_seq(args):
    count = _parse_int_entry(args.count)  # before the matrix: a bad count is named first
    a = _parse_hyperbolic(args.matrix)
    if count < 1:
        raise UsageError(f"count must be >= 1, got {count}")
    t = a.trace()

    def traces():  # t_i = t t_{i-1} - t_{i-2}, t_0 = 2
        prev, cur = 2, t
        for _ in range(count):
            yield cur
            prev, cur = cur, t * cur - prev

    _check_digit_limit(traces())
    if not args.quiet:
        for v in traces():
            print(v)
    return 0


# each verb's name, positional arguments, whether -o writes its document,
# handler and help; every verb also takes --quiet
_VERBS = (
    ("equiv", ("matrix_a", "matrix_b"), False, _cmd_equiv,
     "decide equivalence of two suspensions through an "
     "orientation-preserving torus map (SL2(Z) conjugacy)"),
    ("canon", ("matrix",), False, _cmd_canon, "print the canonical RL word of a matrix"),
    ("commensurable", ("matrix_a", "matrix_b"), False, _cmd_commensurable,
     "decide commensurability of two suspensions"),
    ("cover", ("matrix_a", "matrix_b"), True, _cmd_cover,
     "emit a commensurability certificate document"),
    ("chain", ("model_a", "model_b"), True, _cmd_chain,
     "emit an almost-commensurability chain document"),
    ("verify", ("file",), False, _cmd_verify, "re-check a certificate document from disk"),
    ("trace-seq", ("matrix", "count"), False, _cmd_trace_seq, "print traces of the first N powers"),
)


def _add_verb(parser, positionals, writes, handler):
    """Give parser one verb's arguments and defaults; return it."""
    for positional in positionals:
        parser.add_argument(positional)
    if writes:
        parser.add_argument("-o", "--output", help="write the document here instead of stdout")
    parser.add_argument("--quiet", action="store_true", help="suppress output; exit code only")
    parser.set_defaults(handler=handler, output=None)
    return parser


def _build_parser():
    """The top-level parser with a sub-parser for each verb."""
    parser = _Parser(
        prog="flowcomm",
        description=(
            "Decide topological equivalence and commensurability of suspension "
            "flows of hyperbolic torus automorphisms, and emit or verify "
            "machine-checkable certificates."
        ),
    )
    subs = parser.add_subparsers(dest="verb", required=True)
    for name, positionals, writes, handler, help_text in _VERBS:
        _add_verb(subs.add_parser(name, help=help_text), positionals, writes, handler)
    return parser


def _parser_for(argv):
    """The parser a call needs and the tokens it parses: when argv[0] is
    a verb, that verb's parser alone, under the prog its sub-parser
    would have, and argv[1:]; otherwise all seven verbs and argv."""
    for name, positionals, writes, handler, _ in _VERBS:
        if [name] == argv[:1]:
            parser = _Parser(prog=f"flowcomm {name}")
            return _add_verb(parser, positionals, writes, handler), argv[1:]
    return _build_parser(), argv


def run(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)  # as argparse reads it
    parser, argv = _parser_for(argv)
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except ComputationLimit as exc:
        print(_bounded(f"limit: {exc}"), file=sys.stderr)
        return 3
    except FlowcommError as exc:
        print(_bounded(f"error: {exc}"), file=sys.stderr)
        return 2
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0


def main(argv=None):
    """Console entry point: exit with run(argv)'s code. An exception
    run() lets through is a bug; it exits 2 with an internal error
    line, not a traceback. run() itself keeps raising it, so a test or
    the benchmark that calls run() sees the crash, not an exit 2."""
    try:
        status = run(argv)
    except Exception as exc:
        tb = exc.__traceback__
        while tb.tb_next is not None:  # the innermost frame raised it
            tb = tb.tb_next
        code = tb.tb_frame.f_code
        where = f"{os.path.basename(code.co_filename)}:{tb.tb_lineno} in {code.co_name}"
        message = _bounded(f"{type(exc).__name__}: {exc}")
        print(f"{INTERNAL_ERROR}: {message} (at {where})", file=sys.stderr)
        status = 2
    sys.exit(status)


if __name__ == "__main__":
    main()
