"""Exact sparse linear algebra over the integers.

Rows are dicts column -> int; a Fraction entry raises TypeError.
Elimination is fraction-free (Bareiss 1968; Geddes, Czapor and Labahn,
Algorithms for Computer Algebra, 1992): every update is the integer
cross-multiplication row*pivot - pivotrow*entry, and rows are divided by
their content gcd to keep growth in check.  Back-substitution keeps each
variable as int numerators over one denominator, and each kernel vector is
returned as primitive ints.  Pivot choices are deterministic (columns in
ascending order, then the sparsest candidate row), so results are
reproducible.
"""

from __future__ import annotations

from math import gcd, lcm


def _reduce_content(row: dict):
    content = gcd(*row.values())
    if content > 1:
        for col in row:
            row[col] //= content


def _echelon(rows: list[dict], ncols: int):
    """Row echelon form; returns the pivot list [(col, row_dict), ...].

    Pivot rows are frozen as they are chosen; every still-active row has
    all earlier pivot columns eliminated, so a frozen pivot row can only
    contain its own pivot column, free columns, and later pivot columns.
    """
    active: dict[int, dict] = {}
    col_rows: dict[int, set] = {}
    for rid, row in enumerate(rows):
        cleaned = {c: v for c, v in row.items() if v}
        if not cleaned:
            continue
        _reduce_content(cleaned)
        active[rid] = cleaned
        for col in cleaned:
            col_rows.setdefault(col, set()).add(rid)
    pivots: list[tuple[int, dict]] = []
    for col in range(ncols):
        candidates = [rid for rid in col_rows.get(col, ()) if rid in active]
        if not candidates:
            continue
        pivot_rid = min(candidates, key=lambda rid: (len(active[rid]), rid))
        pivot_row = active.pop(pivot_rid)
        for pcol in pivot_row:
            col_rows[pcol].discard(pivot_rid)
        pivot_value = pivot_row[col]
        pivots.append((col, pivot_row))
        for rid in [r for r in col_rows.get(col, ()) if r in active]:
            row = active[rid]
            entry = row.pop(col)
            col_rows[col].discard(rid)
            # new_row = pivot_value * row - entry * pivot_row on every column
            for rcol in row:
                row[rcol] *= pivot_value
            for pcol, pvalue in pivot_row.items():
                if pcol == col:
                    continue
                new = row.get(pcol, 0) - pvalue * entry
                if new:
                    if pcol not in row:
                        col_rows.setdefault(pcol, set()).add(rid)
                    row[pcol] = new
                else:
                    if pcol in row:
                        del row[pcol]
                        col_rows[pcol].discard(rid)
            if row:
                _reduce_content(row)
            else:
                del active[rid]
    return pivots


def rank(rows: list[dict], ncols: int) -> int:
    return len(_echelon(rows, ncols))


def nullspace(rows: list[dict], ncols: int) -> list[dict[int, int]]:
    """Basis of the kernel of the matrix, one sparse vector per free column.

    Vector t is a dict {column: int} in ascending column order that stores
    no zero; its entries are coprime, positive at its own free column and
    zero at every other free column.  One reverse pass over the pivots
    writes each pivot variable as a sparse combination {free column:
    coefficient} of the free columns; a frozen pivot row holds only its own
    column, free columns and later pivot columns, so the combinations it
    needs already exist.  Transposing the combinations, each scaled by the
    lcm of its free column's denominators, gives the vectors.
    """
    pivots = _echelon(rows, ncols)
    pivot_cols = {col for col, _ in pivots}
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    # combos[c] = (den, nums): the pivot or free variable c equals the sum
    # over fc of nums[fc] / den * x_fc; den and the nums share no factor.
    combos: dict[int, tuple[int, dict[int, int]]] = {fc: (1, {fc: 1}) for fc in free_cols}
    for col, row in reversed(pivots):
        den = lcm(*[combos[rcol][0] for rcol in row if rcol != col])
        acc: dict[int, int] = {}
        for rcol, rvalue in row.items():
            if rcol == col:
                continue
            rden, nums = combos[rcol]
            factor = rvalue * (den // rden)
            for fc, num in nums.items():
                acc[fc] = acc.get(fc, 0) + factor * num
        acc = {fc: total for fc, total in acc.items() if total}
        den *= -row[col]
        content = gcd(den, *acc.values())
        combos[col] = (den // content, {fc: total // content for fc, total in acc.items()})
    # scale[fc] is a positive multiple of every denominator in vector fc.
    scale = dict.fromkeys(free_cols, 1)
    for den, nums in combos.values():
        for fc in nums:
            scale[fc] = lcm(scale[fc], den)
    basis: dict[int, dict[int, int]] = {fc: {} for fc in free_cols}
    for col in sorted(combos):
        den, nums = combos[col]
        for fc, num in nums.items():
            basis[fc][col] = num * (scale[fc] // den)
    for vector in basis.values():
        _reduce_content(vector)
    return list(basis.values())
