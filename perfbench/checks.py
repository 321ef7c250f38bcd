"""Output checks for the benchmark, independent of the program's own checks.

Two checkers, both pure functions so tests can feed them corrupted output:

- ``check_verify`` compares a captured ``verify`` stdout, row by row, with a
  reference captured from a known-good commit (the ``# elapsed`` line is
  dropped first, since it is the only line that legitimately varies).
- ``check_reduction`` checks one traced reduction against the closed-form
  Weierstrass-subset classifier below, which shares no code with the
  program's reducer.

The classifier: on a hyperelliptic curve the spin structures correspond to
subsets T of the 2g+2 branch points with |T| = g+1 (mod 2), up to
complement (Johnson, "Spin structures and quadratic forms on surfaces",
1980).  Generator s_i twists about the lift of the arc {i, i+1}; with v_i
the matrix value on that curve (v_1 = c(beta_1), v_2i = c(alpha_i),
v_2j+1 = c(beta_j) + c(beta_j+1), v_2g+1 = c(beta_g)), the membership bits
satisfy t_1 = 0 and t_{i+1} = t_i xor v_i xor 1, and the class index is
m = |g + 1 - |T|| / 2.
"""

from __future__ import annotations

ELAPSED_PREFIX = "# elapsed "


def weierstrass_class(g: int, top: int, bottom: int) -> int:
    """Class index of the 2 x g matrix (top, bottom) from its branch subset."""
    values = [bottom & 1]
    for i in range(2, 2 * g + 1):
        if i % 2 == 0:
            values.append((top >> (i // 2 - 1)) & 1)
        else:
            j = (i - 1) // 2
            values.append(((bottom >> (j - 1)) ^ (bottom >> j)) & 1)
    values.append((bottom >> (g - 1)) & 1)
    t = size = 0
    for v in values:
        t ^= v ^ 1
        size += t
    return abs(g + 1 - size) // 2


def parse_matrix_text(text: str) -> tuple[int, int, int]:
    """(g, top, bottom) of ``top/bottom`` text, column 1 leftmost."""
    top_text, bottom_text = text.split("/")
    if len(top_text) != len(bottom_text) or not top_text:
        raise ValueError(f"malformed matrix text {text!r}")
    return (
        len(top_text),
        int(top_text[::-1], 2),
        int(bottom_text[::-1], 2),
    )


def canonical_text(g: int, m: int) -> str:
    """Text of the class-m representative: the alternating block of width
    2m-1 (top all ones, bottom 1,0,...,0,1) padded with zero columns."""
    if m == 0:
        return "0" * g + "/" + "0" * g
    width = 2 * m - 1
    pad = "0" * (g - width)
    return "1" * width + pad + "/" + "10" * (m - 1) + "1" + pad


def matrix_arf(top: int, bottom: int) -> int:
    return (top & bottom).bit_count() & 1


def check_reduction(
    text: str, class_index: int, final_text: str, replayed_text: str
) -> str | None:
    """Why the reduction of ``text`` is wrong, or None when it is right.

    ``final_text`` is the matrix the reducer reports; ``replayed_text`` is
    the input with the reported total word applied to it.
    """
    g, top, bottom = parse_matrix_text(text)
    expected = weierstrass_class(g, top, bottom)
    if class_index != expected:
        return f"class {class_index}, closed form says {expected}"
    if matrix_arf(top, bottom) != class_index % 2:
        return f"Arf {matrix_arf(top, bottom)} does not match class {class_index}"
    target = canonical_text(g, expected)
    if final_text != target:
        return f"final matrix {final_text}, expected {target}"
    if replayed_text != target:
        return f"word replays to {replayed_text}, expected {target}"
    return None


def strip_elapsed(stdout: str) -> str:
    return "".join(
        line
        for line in stdout.splitlines(keepends=True)
        if not line.startswith(ELAPSED_PREFIX)
    )


def load_reference(path) -> str:
    """A stored verify stdout; refuses one holding a row that is not PASS or
    a class-agreement SKIP, so a bad capture cannot become the reference."""
    with open(path, encoding="utf-8") as handle:
        reference = handle.read()
    for row in reference.splitlines()[1:]:
        fields = row.split("\t")
        if len(fields) != 4 or not (
            fields[2] == "PASS" or (fields[2] == "SKIP" and fields[1] == "class-agreement")
        ):
            raise ValueError(f"reference {path} holds a bad row: {row!r}")
    return reference


def check_verify(stdout: str, exit_code: int, reference: str) -> tuple[int, int]:
    """(attempted, failed) rows of one ``verify`` run against its reference.

    Every reference row is one attempted operation.  With a nonzero exit
    code or a changed header every row fails.  Otherwise a row fails when it
    differs byte for byte from the reference row at its position; since
    every reference row is PASS or one of the SKIP rows the default
    reduction cap produces (see ``load_reference``), a row that is not PASS
    fails unless it is that same SKIP row.  A missing or extra row counts as
    one failure each.
    """
    expected = reference.splitlines()
    attempted = len(expected) - 1
    got = strip_elapsed(stdout).splitlines()
    if exit_code != 0 or not got or got[0] != expected[0]:
        return attempted, attempted
    got_rows, expected_rows = got[1:], expected[1:]
    failed = abs(len(got_rows) - len(expected_rows))
    failed += sum(row != ref for row, ref in zip(got_rows, expected_rows))
    if not failed and strip_elapsed(stdout) != reference:
        failed = 1  # same rows, different bytes (line endings, trailing text)
    return attempted, failed
