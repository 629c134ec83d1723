"""Command-line interface for automatic-sequence recurrence analysis.

Subcommands cover the full pipeline: parsing and inspecting automaton
files, generating sequence terms, viewing transition matrices and their
reductions, synthesizing and verifying recurrences at roots of unity,
producing integer recurrences, classifying and tabulating the
Thue-Morse coefficient, building pattern-counting automata, and the
forward/backward dimension comparison.

Exit status: 0 on success, 1 on a domain error (bad input values,
unparsable files, exhausted budgets), 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .errors import AutorecError, ParseError
from .automaton import (
    FORWARD,
    Dfao,
    PatternSpec,
    _render_value,
    builtin_names,
    load_builtin,
    parse_dfao,
    pattern_dfao,
    sequence_terms,
)
from .numberfield import power_atom, pretty_sum
from .polymatrix import LEFT, RIGHT, digit_product, span_analysis
from .recurrence import (
    RootSpec,
    dim_experiment,
    integer_recurrence,
    synthesize,
    verify,
)
from .thuemorse import tm_classify, tm_table


def _load_dfao(spec: str) -> Dfao:
    """Resolve --dfao: a readable path first, then a bundled name."""
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        name = spec[:-5] if spec.endswith(".dfao") else spec
        if name in builtin_names():
            return load_builtin(name)
        raise AutorecError(
            f"no file or bundled automaton named {spec!r}; bundled: "
            + ", ".join(builtin_names())
        ) from None
    except OSError as exc:
        raise AutorecError(f"cannot read {spec!r}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{spec!r} is not UTF-8 text (byte {exc.start})") from exc
    return parse_dfao(text)


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=False))
    else:
        print(text)


def _root_from_args(a: Dfao, args) -> RootSpec:
    return RootSpec(a.base, args.r, args.e, args.s)


# ----------------------------------------------------------------------
# subcommand bodies


def _cmd_parse(args) -> int:
    a = _load_dfao(args.dfao)
    _emit(args, a.to_json_dict(), a.to_text())
    return 0


def _cmd_seq(args) -> int:
    a = _load_dfao(args.dfao)
    vals = [_render_value(v) for v in sequence_terms(a, args.count)]
    _emit(args, {"terms": vals}, " ".join(vals))
    return 0


def _matrix_view(entries: list, conductor: int) -> tuple[dict, str]:
    """The JSON dict and the text of a square matrix whose entries are coefficient lists, lowest degree first."""
    cells = [[pretty_sum((c, power_atom("x", e)) for e, c in enumerate(p)) for p in row] for row in entries]
    width = max((len(c) for row in cells for c in row), default=0)
    text = "\n".join("[ " + "  ".join(c.rjust(width) for c in row) + " ]" for row in cells)
    return {"dim": len(cells), "conductor": conductor, "entries": cells}, text


def _cmd_matrix(args) -> int:
    a = _load_dfao(args.dfao)
    span = span_analysis(a)
    side = LEFT if a.direction == FORWARD else RIGHT
    payload, blocks = {}, []

    def show(key: str, title: str, entries: list) -> None:
        payload[key], text = _matrix_view(entries, a.output_field.conductor)
        blocks.append(f"{title}\n{text}")

    show("m", "M(x):", digit_product(a, None, 1))
    show("m_hat", "reduced M(x):", digit_product(a, span, 1))
    n, t = args.truncate, args.power
    if t is not None:
        prod = digit_product(a, span, t)
        show("product", f"ordered product, {t} factors ({side}):", prod)
        payload["product_side"] = side
    if n is not None:
        if n < 1:
            raise AutorecError("truncation length must be positive")
        if t is None:
            t = 0
            while a.base**t < n:
                t += 1
            prod = digit_product(a, span, t)
        show("truncated", f"truncated to exponents below {n}:", [[p[:n] for p in row] for row in prod])
    _emit(args, payload, "\n\n".join(blocks))
    return 0


def _cmd_span(args) -> int:
    a = _load_dfao(args.dfao)
    span = span_analysis(a)
    d = span.to_json_dict()
    lines = [
        f"rank {span.rank} over {a.size} states; generators "
        + " ".join(str(g) for g in span.generators)
    ]
    for p, coeffs in sorted(span.alphas.items()):
        expr = " + ".join(
            f"({c.pretty()})*f{g}" for g, c in zip(span.generators, coeffs) if not c.is_zero()
        )
        lines.append(f"f{p} = {expr if expr else '0'}")
    lines.append("witness words: " + " ".join(repr("".join(map(str, w))) for w in span.witness_words))
    _emit(args, d, "\n".join(lines))
    return 0


def _recurrence_payload(rec, report) -> dict:
    payload = rec.to_json_dict()
    payload["pretty"] = rec.pretty()
    ints = rec.integer_coefficients()
    if ints is not None:
        payload["integer_coefficients"] = ints
    if report is not None:
        payload["verification"] = report.to_json_dict()
    return payload


def _verify(rec, a: Dfao, n_max: int, budget: Optional[int]):
    """Verify the recurrence to n_max and record how far it holds."""
    report = verify(rec, a, n_max, budget=budget)
    rec.verified_to = n_max if report.all_zero else None
    return report


def _verdict(report) -> str:
    if report.all_zero:
        return f"holds for all n <= {report.n_max}"
    return f"FAILS first at n = {report.first_failure}"


def _cmd_synth(args) -> int:
    a = _load_dfao(args.dfao)
    rec = synthesize(a, _root_from_args(a, args), use_minimal=args.minimal)
    report = _verify(rec, a, args.verify_n, args.budget) if args.verify_n else None
    _emit(args, _recurrence_payload(rec, report), rec.pretty())
    return 0


def _cmd_verify(args) -> int:
    a = _load_dfao(args.dfao)
    rec = synthesize(a, _root_from_args(a, args), use_minimal=args.minimal)
    report = _verify(rec, a, args.n_max, args.budget)
    _emit(args, _recurrence_payload(rec, report), rec.pretty() + "\n" + _verdict(report))
    return 0


def _cmd_intrec(args) -> int:
    a = _load_dfao(args.dfao)
    rec = integer_recurrence(a, _root_from_args(a, args))
    report = _verify(rec, a, args.verify_n, args.budget) if args.verify_n else None
    text = rec.pretty() if report is None else rec.pretty() + "\n" + _verdict(report)
    _emit(args, _recurrence_payload(rec, report), text)
    return 0


def _cmd_tm_classify(args) -> int:
    c = tm_classify(args.r0)
    d = c.to_json_dict()
    text = (
        f"r0 = {c.r0}: s0 = {c.s0}, phi = {c.phi}, case {c.case}, "
        f"value {d['value']}"
    )
    _emit(args, d, text)
    return 0


def _cmd_tm_table(args) -> int:
    t = tm_table(args.bound, jobs=args.jobs, progress=args.progress)
    _emit(args, t.to_json_dict(), t.pretty())
    return 0


def _cmd_pattern(args) -> int:
    digits = []
    for ch in args.pattern:
        if not ch.isdecimal():
            raise AutorecError(f"pattern must be a digit string, got {args.pattern!r}")
        digits.append(int(ch))
    spec = PatternSpec(args.k, tuple(digits), args.modulus)
    a = pattern_dfao(spec)
    text = a.to_text()
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise AutorecError(f"cannot write {args.out!r}: {exc.strerror or exc}") from exc
        print(f"wrote {a.size}-state automaton to {args.out}")
    else:
        _emit(args, a.to_json_dict(), text)
    return 0


def _cmd_dims(args) -> int:
    a = _load_dfao(args.dfao)
    rep = dim_experiment(a, cap=args.cap)
    payload = rep.to_json_dict()
    payload["lmin_bound"] = rep.forward_dim
    text = (
        f"forward dimension {rep.forward_dim} ({rep.forward_states} states), "
        f"backward dimension {rep.backward_dim} ({rep.backward_states} states)"
    )
    _emit(args, payload, text)
    return 0


# ----------------------------------------------------------------------
# argument plumbing


def _add_dfao(p):
    p.add_argument("--dfao", required=True, help="automaton file path or bundled name")


def _add_root(p):
    p.add_argument("--r", type=int, required=True, help="root order r (omega is an r-th root of unity)")
    p.add_argument("--e", type=int, default=1, help="exponent e in omega = zeta_r^e (default 1)")
    p.add_argument("--s", type=int, default=None, help="step exponent, a multiple of s0 (default s0)")
    p.add_argument("--budget", type=int, default=None, help="abort verification beyond this work bound")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="autorec",
        description="recurrences for partial sums of automatic sequences at roots of unity",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def cmd(name, fn, helptext, default_format="text"):
        p = sub.add_parser(name, help=helptext)
        p.set_defaults(fn=fn)
        p.add_argument(
            "--format", choices=("text", "json"), default=default_format,
            help=f"output format (default {default_format})",
        )
        return p

    p = cmd("parse", _cmd_parse, "validate an automaton file and echo its normalized form")
    _add_dfao(p)

    p = cmd("seq", _cmd_seq, "print the first terms of the induced sequence")
    _add_dfao(p)
    p.add_argument("--count", type=int, default=16, help="number of terms (default 16)")

    p = cmd("matrix", _cmd_matrix, "show the transition matrix, its reduction, products, truncations")
    _add_dfao(p)
    p.add_argument("--power", type=int, default=None, help="number of factors in the ordered product")
    p.add_argument("--truncate", type=int, default=None, help="keep exponents below this bound")

    p = cmd("span", _cmd_span, "analyze the span of the per-state output functions")
    _add_dfao(p)

    p = cmd("synth", _cmd_synth, "synthesize a recurrence at a root of unity", "json")
    _add_dfao(p)
    _add_root(p)
    p.add_argument("--minimal", action="store_true", help="use the minimal polynomial")
    p.add_argument("--verify-n", type=int, default=None, help="also verify up to this n")

    p = cmd("verify", _cmd_verify, "synthesize and verify against direct partial sums", "json")
    _add_dfao(p)
    _add_root(p)
    p.add_argument("--minimal", action="store_true", help="use the minimal polynomial")
    p.add_argument("--n-max", type=int, required=True, help="verify for n = 1..n_max")

    p = cmd("intrec", _cmd_intrec, "integer-coefficient recurrence via the Galois coset product", "json")
    _add_dfao(p)
    _add_root(p)
    p.add_argument("--verify-n", type=int, default=100, help="verification bound (0 to skip; default 100)")

    p = cmd("tm-classify", _cmd_tm_classify, "classify the Thue-Morse coefficient at one conductor", "json")
    p.add_argument("--r0", type=int, required=True, help="odd conductor >= 3")

    p = cmd("tm-table", _cmd_tm_table, "tabulate Thue-Morse coefficient classes up to a bound")
    p.add_argument("--bound", type=int, required=True, help="scan odd conductors up to this bound")
    p.add_argument("--jobs", type=int, default=None, help="worker processes")
    p.add_argument("--progress", action="store_true", help="log scan progress")

    p = cmd("pattern", _cmd_pattern, "build the pattern-occurrence-counting automaton")
    p.add_argument("--k", type=int, required=True, help="digit base")
    p.add_argument("--pattern", required=True, help="digit string to count, e.g. 11")
    p.add_argument("--modulus", type=int, required=True, help="count occurrences modulo this m")
    p.add_argument("--out", default=None, help="write the automaton file here instead of stdout")

    p = cmd("dims", _cmd_dims, "compare span dimensions of an automaton and its reversal")
    _add_dfao(p)
    p.add_argument("--cap", type=int, default=100000, help="state cap for the reversal")

    return ap


def main(argv: Optional[list[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except AutorecError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
