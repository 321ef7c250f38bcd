"""Command-line front end: classification, traces, censuses, verification.

Commands
--------
classify G MATRIX          orbit class index, canonical form, Arf value
reduce G MATRIX [--trace]  reduction word; --trace prints every step
orbits G                   orbit census table (TSV)
isotropy G M               stabilizer report for the class-m form
fixed-point G              the matrix fixed by all generators, if any
verify [RANGE]             run the verification suite (default 3..8)

``--json`` switches any command to a structured dump.  ``verify`` accepts
``--max-g`` (enumeration ceiling; values above 12 act as 12) and
``--strict`` (treat resource skips as failures).  ``reduce --stats`` writes
one stderr line, ``# stats: N steps, L letters; MOVE COUNT, ...`` with the
moves in order of first use; stdout is the same with or without it.

``verify`` prints one row per check and genus, in this order, then one
golden-traces row:

orbit-count, orbit-sizes, arf-census  read the partition
class-agreement                       g >= 3, reads the partition and a class
                                      table of every key; SKIP above g = 8
fixed-point                           every genus; one GF(2) solve
normal-forms                          g >= 3
isotropy                              g >= 3; stabilizer orders up to the cap
relations                             every genus; exhaustive for g <= 3
sp-crosscheck                         g <= 6, reads the partition

The orbit partition is enumerated once per genus up to min(--max-g, 12);
above that the checks that read it print SKIP, and if the enumeration's own
self-check fails they and isotropy print FAIL with its message.  A failed
self-check (SelfCheckError) in any row, a reducer guard or the
golden-traces row included, is a FAIL row.

``classify``, ``reduce``, ``isotropy`` and ``fixed-point`` refuse a genus
above MAX_SYMBOLIC_GENUS (1000) with exit 2 before computing anything;
``orbits`` refuses one above the enumeration ceiling (12) the same way.

Exit codes: 0 all passed, 1 check failure or stdout closed before the
output was written, 2 usage or parse error, 3 a resource skip occurred
under --strict.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from collections import Counter

import numpy as np

from .braid import _act_letter, apply_word, format_word
from .gf2 import SpinMatrix, arf
from .normalform import (
    SelfCheckError,
    class_index,
    class_table,
    fixed_point_matrix,
    reduce_to_canonical,
    stabilizer_form,
)
from .orbits import (
    MAX_ENUMERATION_GENUS,
    MAX_SP_GENUS,
    _generator_keys,
    arf_keys,
    census,
    enumerate_orbits,
    first_disagreement,
    fixed_matrices,
    predicted_orbit_size,
    sp_transvection_orbits,
    twist_keys,
    verify_isotropy,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_SKIP_STRICT = 3

_REDUCE_CAP = 8  # class-agreement classifies every key up to this genus

# The greatest genus classify, reduce, isotropy and fixed-point accept.
# Their work grows with the genus without bound: a reduction takes
# quadratically many letters, and flip_word(g) streams (g+1)(2g+1) of them.
# At 1000, isotropy 1000 0 and the slowest reductions found take about 2 s
# and at most about 90 MB.
MAX_SYMBOLIC_GENUS = 1000

# Reference traces used by the golden-trace check: input, step words, and
# the matrices that must appear after each word.
_GOLDEN_TRACES = (
    (
        "11111/10111",
        (((9,), "11100/10111"), ((8, 10), "11100/10100")),
        2,
    ),
    (
        "111111/101101",
        (
            ((7, 6, 8), "110011/100001"),
            ((9, 7, 5), "100001/100001"),
            ((4, 6, 8, 10, 11, 9, 7, 5), "110000/111111"),
            ((3, 2, 4, 6, 8, 10, 12), "000000/000000"),
        ),
        0,
    ),
)


class UsageError(Exception):
    pass


def _parse_genus(text: str, maximum: int, minimum: int = 1) -> int:
    try:
        g = int(text)
    except ValueError as exc:
        raise UsageError(f"genus must be an integer, got {text!r}") from exc
    if g < minimum:
        raise UsageError(f"genus must be >= {minimum}, got {g}")
    if g > maximum:
        raise UsageError(f"genus must be <= {maximum} for this command, got {g}")
    return g


def _parse_matrix_arg(g: int, text: str) -> SpinMatrix:
    try:
        matrix = SpinMatrix.from_text(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if matrix.g != g:
        raise UsageError(f"matrix {text!r} has genus {matrix.g}, expected {g}")
    return matrix


def _parse_range(text: str) -> tuple[int, int]:
    parts = text.split("..")
    try:
        if len(parts) == 1:
            lo = hi = int(parts[0])
        elif len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
        else:
            raise ValueError
    except ValueError as exc:
        raise UsageError(f"range must look like '3..8' or '4', got {text!r}") from exc
    if lo > hi or lo < 1 or hi > 14:
        raise UsageError(f"range {text!r} out of order or outside 1..14")
    return lo, hi


def _emit(payload: dict | list[dict], as_json: bool) -> None:
    """Print payload as one JSON line; as text, a dict prints as
    key<TAB>value lines (None as 'None') and a list of rows as a TSV table
    headed by the first row's keys, with None cells printed as '-'.

    The whole text is built before any of it is written, so a failure
    while formatting leaves stdout empty.
    """
    if as_json:
        text = json.dumps(payload, sort_keys=True)
    elif isinstance(payload, dict):
        text = "\n".join(f"{key}\t{value}" for key, value in payload.items())
    else:
        lines = [payload[0], *(["-" if v is None else v for v in row.values()] for row in payload)]
        text = "\n".join("\t".join(map(str, line)) for line in lines)
    print(text)


# ---------------------------------------------------------------------------
# classify / reduce / orbits / isotropy / fixed-point


def _cmd_classify(args: argparse.Namespace) -> int:
    g = _parse_genus(args.g, minimum=3, maximum=MAX_SYMBOLIC_GENUS)
    matrix = _parse_matrix_arg(g, args.matrix)
    trace = reduce_to_canonical(matrix)
    _emit(
        {
            "g": g,
            "input": str(matrix),
            "class": trace.class_index,
            "canonical": str(trace.result),
            "arf": arf(matrix),
        },
        args.json,
    )
    return EXIT_OK


def _cmd_reduce(args: argparse.Namespace) -> int:
    g = _parse_genus(args.g, minimum=3, maximum=MAX_SYMBOLIC_GENUS)
    matrix = _parse_matrix_arg(g, args.matrix)
    trace = reduce_to_canonical(matrix)
    if args.stats:
        moves = Counter(move for move, _, _ in trace.steps)  # in order of first use
        letters = sum(len(word) for _, word, _ in trace.steps)
        line = f"# stats: {len(trace.steps)} steps, {letters} letters"
        if moves:
            line += "; " + ", ".join(f"{move} {n}" for move, n in moves.items())
        print(line, file=sys.stderr)
    if args.json:
        payload = {
            "g": g,
            "input": str(matrix),
            "class": trace.class_index,
            "final": str(trace.result),
            "word": list(trace.total_word),
            "steps": [
                {"move": move, "word": list(word), "after": str(SpinMatrix.from_key(g, key))}
                for move, word, key in trace.steps
            ],
        }
        _emit(payload, True)
        return EXIT_OK
    if args.trace:
        for line in trace.lines():
            print(line)
    _emit(
        {
            "class": trace.class_index,
            "word": format_word(trace.total_word),
            "final": trace.result,
        },
        False,
    )
    return EXIT_OK


def _cmd_orbits(args: argparse.Namespace) -> int:
    g = _parse_genus(args.g, maximum=MAX_ENUMERATION_GENUS)
    records = census(enumerate_orbits(g))
    rows = []
    for record in records:
        m = record.class_index
        predicted = predicted_orbit_size(g, m) if m is not None else ""
        rows.append(
            {
                "g": g,
                "m": m if m is not None else "-",
                "size": record.size,
                "stabilizer_order": record.stabilizer_order,
                "arf": record.arf,
                "binomial_predicted": predicted,
                "match": "yes" if predicted == record.size else "-",
            }
        )
    _emit(rows, args.json)
    return EXIT_OK


def _cmd_isotropy(args: argparse.Namespace) -> int:
    g = _parse_genus(args.g, minimum=3, maximum=MAX_SYMBOLIC_GENUS)
    try:
        m = int(args.m)
    except ValueError as exc:
        raise UsageError(f"class index must be an integer, got {args.m!r}") from exc
    if not 0 <= m <= (g + 1) // 2:
        raise UsageError(f"class index {m} out of range 0..{(g + 1) // 2}")
    partition = enumerate_orbits(g) if g <= MAX_ENUMERATION_GENUS else None
    report = verify_isotropy(g, m, partition)
    payload = {
        "g": g,
        "m": m,
        "form": str(stabilizer_form(g, m)),
        "fixing_generators": sorted(report.fixing_generators),
        "moving_generator": report.moving_generator,
        "tau_fixes": report.tau_fixes,
        "predicted_order": report.predicted_order,
        "observed_order": report.observed_order,
        "passed": report.passed,
        "failures": list(report.failures),
    }
    if not args.json:
        payload["fixing_generators"] = ",".join(map(str, payload["fixing_generators"]))
        payload["failures"] = ";".join(report.failures) or "-"
    _emit(payload, args.json)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _cmd_fixed_point(args: argparse.Namespace) -> int:
    g = _parse_genus(args.g, maximum=MAX_SYMBOLIC_GENUS)
    status, detail = _check_fixed_point(g)  # detail: the closed form's matrix, or none
    if status == "FAIL":
        raise SelfCheckError(f"the fixed-point solve disagrees with the closed form {detail}")
    matrix = fixed_point_matrix(g)
    print(json.dumps({"g": g, "fixed": str(matrix) if matrix else None}) if args.json else detail)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _row(g: int | None, check: str, status: str, detail: str) -> dict:
    return {"g": g, "check": check, "status": status, "detail": detail}


def _run_check(check, *args) -> tuple[str, str]:
    """The check's (status, detail); a failed self-check is a FAIL row."""
    try:
        return check(*args)
    except SelfCheckError as exc:
        return "FAIL", str(exc)


def _verdict(ok: bool, detail: str, failure: str | None = None) -> tuple[str, str]:
    """PASS with detail, or FAIL with failure (detail when there is none)."""
    return ("PASS", detail) if ok else ("FAIL", detail if failure is None else failure)


def _check_orbit_count(g: int, partition) -> tuple[str, str]:
    count = len(partition.sizes())
    note = "; derived, below the classified range" if g < 3 else ""
    return _verdict(count == (g + 1) // 2 + 1, f"{count} orbits{note}")


def _check_orbit_sizes(g: int, partition) -> tuple[str, str]:
    records = census(partition)
    if g < 3:
        return "PASS", f"derived sizes {sorted(partition.sizes().values(), reverse=True)}"
    return "PASS", " ".join(str(r.size) for r in records)


def _check_arf_census(g: int, partition) -> tuple[str, str]:
    bad = first_disagreement(partition, lambda keys: arf_keys(g, keys))
    return _verdict(bad is None, "constant per orbit")


def _check_class_agreement(g: int, partition) -> tuple[str, str]:
    if g > _REDUCE_CAP:
        return "SKIP", f"exhaustive reduction capped at {_REDUCE_CAP}"
    table = np.frombuffer(class_table(g), dtype=np.uint8)
    bad = first_disagreement(partition, lambda keys: table[keys])
    return _verdict(bad is None, "exhaustive", f"disagrees at key {bad}")


def _check_fixed_point(g: int) -> tuple[str, str]:
    """The closed form against the fixed matrices the GF(2) solve finds, at every genus."""
    expected = fixed_point_matrix(g)
    ok = fixed_matrices(g) == ((expected,) if expected else ())
    return _verdict(ok, str(expected) if expected else "none")


def _check_normal_forms(g: int) -> tuple[str, str]:
    bad = [m for m in range((g + 1) // 2 + 1) if class_index(stabilizer_form(g, m)) != m]
    return _verdict(not bad, "all classes", f"wrong class at m={bad}")


def _check_isotropy(g: int, partition) -> tuple[str, str]:
    failures = [
        f"m={m}: {text}"
        for m in range((g + 1) // 2 + 1)
        for text in verify_isotropy(g, m, partition).failures
    ]
    detail = "fixing sets only" if partition is None else "orders and fixing sets"
    return _verdict(not failures, detail, "; ".join(failures))


def _check_relations(g: int) -> tuple[str, str]:
    """Involutions, Arf invariance, commutation, braid relations, each letter the twist
    about its class, quadratic refinement; exhaustive for g <= 3.  Every check runs on
    packed-key arrays: the letters fold braid._act_letter over them, and the refinement
    c(v) = arf(v) + parity(v & m) of the drawn matrix m is checked against the pairing
    x.y read from the words."""
    rng = random.Random(0xC0FFEE + g)
    n = 1 << (2 * g)
    generators = range(1, 2 * g + 2)
    if g <= 3:
        keys, samples = range(n), n
        pairs = [(i, j) for i in generators for j in generators]
    else:
        keys, samples = [rng.randrange(n) for _ in range(256)], 512
        pairs = [rng.sample(generators, 2) for _ in range(64)]
    keys = np.array(keys, dtype=np.uint32)
    relations = [((i, j), (j, i), f"{i},{j} do not commute") for i, j in pairs if abs(i - j) >= 2]
    relations += [
        ((i, i + 1, i), (i + 1, i, i + 1), f"braid relation fails at {i}")
        for i in range(1, 2 * g + 1)
    ]

    def act(keys: np.ndarray, word: tuple[int, ...]) -> np.ndarray:
        for i in word:
            keys = _act_letter(g, keys, i)
        return keys

    invariant = arf_keys(g, keys)
    for i in generators:
        image = act(keys, (i,))
        if not np.array_equal(act(image, (i,)), keys):
            return "FAIL", f"generator {i} not an involution"
        if not np.array_equal(arf_keys(g, image), invariant):
            return "FAIL", f"generator {i} changes Arf"
    head = keys[:64]  # all of them when g <= 3
    for left, right, failure in relations:
        if not np.array_equal(act(head, left), act(head, right)):
            return "FAIL", failure
    for i, gamma in zip(generators, _generator_keys(g)):
        if not np.array_equal(act(keys, (i,)), twist_keys(g, gamma, keys)):
            return "FAIL", f"generator {i} is not the twist about its class"
    triples = [[rng.randrange(n) for _ in range(3)] for _ in range(samples)]
    m, x, y = np.array(triples, dtype=np.uint32).T

    def refinement(v: np.ndarray) -> np.ndarray:
        return arf_keys(g, v) ^ np.bitwise_count(v & m) & 1

    dot = np.bitwise_count(x & y >> g ^ x >> g & y) & 1
    if not np.array_equal(refinement(x ^ y), refinement(x) ^ refinement(y) ^ dot):
        return "FAIL", "quadratic refinement violated"
    cases = keys.size * len(generators) + head.size * len(relations) + samples
    return "PASS", f"{cases} cases"


def _check_sp_crosscheck(g: int, partition) -> tuple[str, str]:
    sp = sp_transvection_orbits(g)
    # Refinement: each key lies in the sp-orbit of its orbit's seed.
    if first_disagreement(partition, lambda keys: sp.ordinals[keys]) is not None:
        return "FAIL", "orbit not contained"
    # At g = 2 it also holds the other way round: the partitions are equal.
    if g == 2 and first_disagreement(sp, lambda keys: partition.ordinals[keys]) is not None:
        return "FAIL", "partitions differ"
    return "PASS", " ".join(str(v) for v in sorted(sp.sizes().values(), reverse=True))


def _verify_genus(g: int, cap: int) -> list[dict]:
    """verify's rows for genus g, in order; the partition is enumerated
    once, if g is within the cap."""
    partition, failure = None, None
    if g <= cap:
        try:
            partition = enumerate_orbits(g)
        except SelfCheckError as exc:
            failure = ("FAIL", str(exc))

    def reads_partition(check) -> tuple[str, str]:
        if failure is not None:
            return failure
        if partition is None:
            return "SKIP", f"enumeration capped at {cap}"
        return _run_check(check, g, partition)

    results = [
        ("orbit-count", reads_partition(_check_orbit_count)),
        ("orbit-sizes", reads_partition(_check_orbit_sizes)),
        ("arf-census", reads_partition(_check_arf_census)),
    ]
    if g >= 3:
        results.append(("class-agreement", reads_partition(_check_class_agreement)))
    results.append(("fixed-point", _run_check(_check_fixed_point, g)))
    if g >= 3:
        results.append(("normal-forms", _run_check(_check_normal_forms, g)))
        results.append(("isotropy", failure or _run_check(_check_isotropy, g, partition)))
    results.append(("relations", _run_check(_check_relations, g)))
    if g <= MAX_SP_GENUS:
        results.append(("sp-crosscheck", reads_partition(_check_sp_crosscheck)))
    return [_row(g, name, *result) for name, result in results]


def _check_golden_traces() -> tuple[str, str]:
    for text, chunks, expected_class in _GOLDEN_TRACES:
        matrix = SpinMatrix.from_text(text)
        trace = reduce_to_canonical(matrix)
        word = tuple(i for chunk, _ in chunks for i in chunk)
        if trace.total_word != word or trace.class_index != expected_class:
            return "FAIL", f"word differs for {text}"
        boundaries = {key for _, _, key in trace.steps}
        state = matrix
        for chunk, after in chunks:
            state = apply_word(state, chunk)
            if str(state) != after or state.key() not in boundaries:
                return "FAIL", f"intermediate {after} missing"
    return "PASS", "both reference reductions"


def _cmd_verify(args: argparse.Namespace) -> int:
    lo, hi = _parse_range(args.range)
    if args.max_g < 1:
        raise UsageError("--max-g must be an integer >= 1")
    cap = min(args.max_g, MAX_ENUMERATION_GENUS)
    started = time.perf_counter()

    rows = [row for g in range(lo, hi + 1) for row in _verify_genus(g, cap)]
    rows.append(_row(None, "golden-traces", *_run_check(_check_golden_traces)))

    failed = any(row["status"] == "FAIL" for row in rows)
    skipped = any(row["status"] == "SKIP" for row in rows)
    elapsed = round(time.perf_counter() - started, 3)
    if args.json:
        _emit({"rows": rows, "elapsed_seconds": elapsed, "failed": failed}, True)
    else:
        _emit(rows, False)
        print(f"# elapsed {elapsed}s")
    if failed:
        return EXIT_CHECK_FAILED
    if skipped and args.strict:
        return EXIT_SKIP_STRICT
    return EXIT_OK


# ---------------------------------------------------------------------------

# The subcommands whose arguments are required positionals and on/off flags,
# in help order: name, handler, help, positionals, flags; each also takes --json.
_SINGLE_GENUS_COMMANDS = (
    ("classify", _cmd_classify, "orbit class of a spin matrix", ("g", "matrix"), ()),
    ("reduce", _cmd_reduce, "reduction word and trace", ("g", "matrix"), ("--trace", "--stats")),
    ("orbits", _cmd_orbits, "orbit census table", ("g",), ()),
    ("isotropy", _cmd_isotropy, "stabilizer report", ("g", "m"), ()),
    ("fixed-point", _cmd_fixed_point, "matrix fixed by every generator", ("g",), ()),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperspin",
        description="Orbit classification of spin structures under branch-point permutations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, text, positionals, flags in _SINGLE_GENUS_COMMANDS:
        p = sub.add_parser(name, help=text)
        for dest in positionals:
            p.add_argument(dest)
        for flag in flags:
            p.add_argument(flag, action="store_true")
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=handler)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("range", nargs="?", default="3..8")
    p.add_argument("--max-g", type=int, default=MAX_ENUMERATION_GENUS)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    # Older argparse (3.11 among them) drops every "--" from an argument's
    # strings: "isotropy 3 -- --" leaves m an empty list, as "--max-g=--"
    # leaves max_g; no argument of this CLI takes a list.
    for dest, value in vars(args).items():
        if isinstance(value, list):
            name = "--max-g" if dest == "max_g" else dest  # as the usage line spells it
            print(f"error: argument {name} is missing its value", file=sys.stderr)
            return EXIT_USAGE
    # Stabilizer orders are exact and can pass Python's default limit on
    # int -> str digits; lift it for the command and restore it afterwards.
    digit_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SelfCheckError, ValueError) as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except BrokenPipeError:
        # stdout closed before the output was written; point it at devnull
        # so that the interpreter's final flush does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CHECK_FAILED
    finally:
        sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
