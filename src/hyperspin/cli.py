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
``--max-g`` (enumeration ceiling) and ``--strict`` (treat resource skips
as failures).

Exit codes: 0 all passed, 1 check failure, 2 usage or parse error,
3 a resource skip occurred under --strict.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

import numpy as np

from .braid import apply_generator, apply_word, format_word
from .gf2 import HomologyClass, SpinMatrix, arf, evaluate, intersection
from .normalform import (
    ReductionInvariantError,
    canonical_form,
    class_index,
    fixed_point_matrix,
    reduce_to_canonical,
    stabilizer_form,
)
from .orbits import (
    MAX_ENUMERATION_GENUS,
    MAX_SP_GENUS,
    SelfCheckError,
    arf_keys,
    census,
    enumerate_orbits,
    first_disagreement,
    fixed_matrices,
    predicted_orbit_size,
    sp_transvection_orbits,
    verify_isotropy,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_SKIP_STRICT = 3

_REDUCE_CAP = 8  # class-agreement reduces every key up to this genus

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


def _parse_genus(text: str, minimum: int = 1) -> int:
    try:
        g = int(text)
    except ValueError as exc:
        raise UsageError(f"genus must be an integer, got {text!r}") from exc
    if g < minimum:
        raise UsageError(f"genus must be >= {minimum}, got {g}")
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


def _emit(payload: dict, as_json: bool) -> None:
    """Print payload as one JSON line or as key<TAB>value lines.

    The whole text is built before any of it is written, so a failure
    while formatting leaves stdout empty.
    """
    if as_json:
        text = json.dumps(payload, sort_keys=True)
    else:
        text = "\n".join(f"{key}\t{value}" for key, value in payload.items())
    print(text)


# ---------------------------------------------------------------------------
# classify / reduce / orbits / isotropy / fixed-point


def _cmd_classify(args: argparse.Namespace) -> int:
    g = _parse_genus(args.g)
    if g < 3:
        raise UsageError("classification is defined for genus >= 3")
    matrix = _parse_matrix_arg(g, args.matrix)
    trace = reduce_to_canonical(matrix)
    _emit(
        {
            "g": g,
            "input": str(matrix),
            "class": trace.class_index,
            "canonical": str(canonical_form(g, trace.class_index)),
            "arf": arf(matrix),
        },
        args.json,
    )
    return EXIT_OK


def _cmd_reduce(args: argparse.Namespace) -> int:
    g = _parse_genus(args.g)
    if g < 3:
        raise UsageError("reduction is defined for genus >= 3")
    matrix = _parse_matrix_arg(g, args.matrix)
    trace = reduce_to_canonical(matrix)
    if args.json:
        payload = {
            "g": g,
            "input": str(matrix),
            "class": trace.class_index,
            "final": str(trace.result),
            "word": list(trace.total_word),
            "steps": [
                {"move": s.move, "word": list(s.word), "after": str(s.after)}
                for s in trace.steps
            ],
        }
        print(json.dumps(payload, sort_keys=True))
        return EXIT_OK
    if args.trace:
        for step in trace.steps:
            print(step.to_text())
    print(f"class\t{trace.class_index}")
    print(f"word\t{format_word(trace.total_word)}")
    print(f"final\t{trace.result}")
    return EXIT_OK


def _cmd_orbits(args: argparse.Namespace) -> int:
    g = _parse_genus(args.g)
    if g > MAX_ENUMERATION_GENUS:
        raise UsageError(f"enumeration is capped at genus {MAX_ENUMERATION_GENUS}")
    records = census(g)
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
    if args.json:
        print(json.dumps(rows, sort_keys=True))
        return EXIT_OK
    print("g\tm\tsize\tstabilizer_order\tarf\tbinomial_predicted\tmatch")
    for row in rows:
        print(
            f"{row['g']}\t{row['m']}\t{row['size']}\t{row['stabilizer_order']}"
            f"\t{row['arf']}\t{row['binomial_predicted']}\t{row['match']}"
        )
    return EXIT_OK


def _cmd_isotropy(args: argparse.Namespace) -> int:
    g = _parse_genus(args.g)
    if g < 3:
        raise UsageError("isotropy verification needs genus >= 3")
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
    g = _parse_genus(args.g)
    matrix = fixed_point_matrix(g)
    if args.json:
        print(json.dumps({"g": g, "fixed": str(matrix) if matrix else None}))
    else:
        print(str(matrix) if matrix else "none")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _row(g: int | None, check: str, status: str, detail: str) -> dict:
    return {"g": g, "check": check, "status": status, "detail": detail}


def _relation_rows(g: int, rng: random.Random) -> list[dict]:
    """Generator involutions, commutation, braid relation, Arf invariance,
    quadratic refinement; exhaustive for g <= 3, sampled above."""
    n = 1 << (2 * g)
    exhaustive = g <= 3
    keys = range(n) if exhaustive else [rng.randrange(n) for _ in range(256)]
    matrices = [SpinMatrix.from_key(g, key) for key in keys]
    checked = 0
    for matrix in matrices:
        for i in range(1, 2 * g + 2):
            once = apply_generator(matrix, i)
            if apply_generator(once, i) != matrix:
                return [_row(g, "relations", "FAIL", f"generator {i} not an involution")]
            if arf(once) != arf(matrix):
                return [_row(g, "relations", "FAIL", f"generator {i} changes Arf")]
            checked += 1
    pairs = (
        [
            (i, j)
            for i in range(1, 2 * g + 2)
            for j in range(1, 2 * g + 2)
            if abs(i - j) >= 2
        ]
        if exhaustive
        else [
            sorted(rng.sample(range(1, 2 * g + 2), 2))
            for _ in range(64)
        ]
    )
    for matrix in matrices if exhaustive else matrices[:64]:
        for i, j in pairs:
            if abs(i - j) < 2:
                continue
            if apply_word(matrix, (i, j)) != apply_word(matrix, (j, i)):
                return [_row(g, "relations", "FAIL", f"{i},{j} do not commute")]
            checked += 1
        for i in range(1, 2 * g + 1):
            if apply_word(matrix, (i, i + 1, i)) != apply_word(matrix, (i + 1, i, i + 1)):
                return [_row(g, "relations", "FAIL", f"braid relation fails at {i}")]
            checked += 1
    samples = 512 if not exhaustive else n
    for _ in range(samples):
        mk, xk, yk = (rng.randrange(n) for _ in range(3))
        matrix = SpinMatrix.from_key(g, mk)
        x = HomologyClass(g, xk & ((1 << g) - 1), xk >> g)
        y = HomologyClass(g, yk & ((1 << g) - 1), yk >> g)
        if evaluate(matrix, x + y) != (
            evaluate(matrix, x) ^ evaluate(matrix, y) ^ intersection(x, y)
        ):
            return [_row(g, "relations", "FAIL", "quadratic refinement violated")]
        checked += 1
    return [_row(g, "relations", "PASS", f"{checked} cases")]


def _verify_genus(g: int, max_g: int) -> list[dict]:
    rows: list[dict] = []
    can_enumerate = g <= min(max_g, MAX_ENUMERATION_GENUS)
    partition = enumerate_orbits(g) if can_enumerate else None
    expected_orbits = (g + 1) // 2 + 1
    capped = f"enumeration capped at {max_g}"

    if partition is not None:
        sizes = partition.sizes()
        status = "PASS" if len(sizes) == expected_orbits else "FAIL"
        note = "derived, below the classified range" if g < 3 else ""
        rows.append(
            _row(
                g,
                "orbit-count",
                status,
                f"{len(sizes)} orbits{('; ' + note) if note else ''}",
            )
        )
        try:
            records = census(g, partition)
            if g >= 3:
                rows.append(
                    _row(
                        g,
                        "orbit-sizes",
                        "PASS",
                        " ".join(str(r.size) for r in records),
                    )
                )
            else:
                rows.append(
                    _row(g, "orbit-sizes", "PASS", f"derived sizes {sorted(sizes.values(), reverse=True)}")
                )
        except SelfCheckError as exc:
            rows.append(_row(g, "orbit-sizes", "FAIL", str(exc)))
            records = ()
        constant = first_disagreement(partition, lambda keys: arf_keys(g, keys)) is None
        rows.append(
            _row(g, "arf-census", "PASS" if constant else "FAIL", "constant per orbit")
        )
    else:
        rows.append(_row(g, "orbit-count", "SKIP", capped))
        rows.append(_row(g, "orbit-sizes", "SKIP", capped))
        rows.append(_row(g, "arf-census", "SKIP", capped))

    if g >= 3:
        if partition is None:
            rows.append(_row(g, "class-agreement", "SKIP", capped))
        elif g > _REDUCE_CAP:
            rows.append(
                _row(g, "class-agreement", "SKIP", f"exhaustive reduction capped at {_REDUCE_CAP}")
            )
        else:
            bad = first_disagreement(
                partition,
                lambda keys: np.fromiter(
                    (class_index(SpinMatrix.from_key(g, int(key))) for key in keys),
                    dtype=np.uint8,
                    count=keys.size,
                ),
            )
            rows.append(
                _row(
                    g,
                    "class-agreement",
                    "PASS" if bad is None else "FAIL",
                    "exhaustive" if bad is None else f"disagrees at key {bad}",
                )
            )

    # Fixed points: existence/uniqueness by vectorized scan when possible.
    expected = fixed_point_matrix(g)
    if can_enumerate:
        fixed = fixed_matrices(g)
        ok = fixed == ((expected,) if expected else ())
        rows.append(
            _row(
                g,
                "fixed-point",
                "PASS" if ok else "FAIL",
                str(expected) if expected else "none",
            )
        )
    elif expected is not None:
        ok = all(apply_generator(expected, i) == expected for i in range(1, 2 * g + 2))
        rows.append(
            _row(g, "fixed-point", "PASS" if ok else "FAIL", f"{expected} (fixing only)")
        )

    if g >= 3:
        bad_forms = [
            m
            for m in range((g + 1) // 2 + 1)
            if class_index(stabilizer_form(g, m)) != m
        ]
        rows.append(
            _row(
                g,
                "normal-forms",
                "PASS" if not bad_forms else "FAIL",
                "all classes" if not bad_forms else f"wrong class at m={bad_forms}",
            )
        )
        failures = []
        for m in range((g + 1) // 2 + 1):
            report = verify_isotropy(g, m, partition)
            failures.extend(f"m={m}: {text}" for text in report.failures)
        rows.append(
            _row(
                g,
                "isotropy",
                "PASS" if not failures else "FAIL",
                "orders and fixing sets" if not failures else "; ".join(failures),
            )
        )

    rows.extend(_relation_rows(g, random.Random(0xC0FFEE + g)))

    if g <= MAX_SP_GENUS and partition is None:
        rows.append(_row(g, "sp-crosscheck", "SKIP", capped))
    elif g <= MAX_SP_GENUS:
        try:
            sp = sp_transvection_orbits(g)
            detail = " ".join(str(v) for v in sorted(sp.sizes().values(), reverse=True))
            # Refinement: each key lies in the sp-orbit of its orbit's seed.
            if first_disagreement(partition, lambda keys: sp.ordinals[keys]) is not None:
                rows.append(_row(g, "sp-crosscheck", "FAIL", "orbit not contained"))
            # At g = 2 it also holds the other way round: the partitions are equal.
            elif g == 2 and first_disagreement(sp, lambda k: partition.ordinals[k]) is not None:
                rows.append(_row(g, "sp-crosscheck", "FAIL", "partitions differ"))
            else:
                rows.append(_row(g, "sp-crosscheck", "PASS", detail))
        except SelfCheckError as exc:
            rows.append(_row(g, "sp-crosscheck", "FAIL", str(exc)))
    return rows


def _golden_trace_rows() -> list[dict]:
    for text, chunks, expected_class in _GOLDEN_TRACES:
        matrix = SpinMatrix.from_text(text)
        trace = reduce_to_canonical(matrix)
        word = tuple(i for chunk, _ in chunks for i in chunk)
        if trace.total_word != word or trace.class_index != expected_class:
            return [_row(None, "golden-traces", "FAIL", f"word differs for {text}")]
        boundaries = {str(s.after) for s in trace.steps}
        state = matrix
        for chunk, after in chunks:
            state = apply_word(state, chunk)
            if str(state) != after or after not in boundaries:
                return [
                    _row(None, "golden-traces", "FAIL", f"intermediate {after} missing")
                ]
    return [_row(None, "golden-traces", "PASS", "both reference reductions")]


def _cmd_verify(args: argparse.Namespace) -> int:
    lo, hi = _parse_range(args.range)
    max_g = args.max_g
    if max_g < 1:
        raise UsageError("--max-g must be >= 1")
    started = time.time()

    rows = [
        row for g in range(lo, hi + 1) for row in _verify_genus(g, max_g)
    ]
    rows.extend(_golden_trace_rows())

    failed = any(row["status"] == "FAIL" for row in rows)
    skipped = any(row["status"] == "SKIP" for row in rows)
    elapsed = round(time.time() - started, 3)
    if args.json:
        print(
            json.dumps(
                {"rows": rows, "elapsed_seconds": elapsed, "failed": failed},
                sort_keys=True,
            )
        )
    else:
        print("g\tcheck\tstatus\tdetail")
        for row in rows:
            g_text = row["g"] if row["g"] is not None else "-"
            print(f"{g_text}\t{row['check']}\t{row['status']}\t{row['detail']}")
        print(f"# elapsed {elapsed}s")
    if failed:
        return EXIT_CHECK_FAILED
    if skipped and args.strict:
        return EXIT_SKIP_STRICT
    return EXIT_OK


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperspin",
        description="Orbit classification of spin structures under branch-point permutations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="orbit class of a spin matrix")
    p.add_argument("g")
    p.add_argument("matrix")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("reduce", help="reduction word and trace")
    p.add_argument("g")
    p.add_argument("matrix")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("orbits", help="orbit census table")
    p.add_argument("g")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_orbits)

    p = sub.add_parser("isotropy", help="stabilizer report")
    p.add_argument("g")
    p.add_argument("m")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_isotropy)

    p = sub.add_parser("fixed-point", help="matrix fixed by every generator")
    p.add_argument("g")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_fixed_point)

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
    # Stabilizer orders are exact and can pass Python's default limit on
    # int -> str digits; lift it for the command and restore it afterwards.
    digit_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ReductionInvariantError, SelfCheckError, ValueError) as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    finally:
        sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
