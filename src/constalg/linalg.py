"""Exact sparse linear algebra over the integers.

Rows are dicts column -> int, every column in 0..ncols-1: `rank` and
`nullspace` raise ValueError for a nonzero entry in any other column, and
TypeError for a Fraction entry.
Elimination is fraction-free (Bareiss 1968; Geddes, Czapor and Labahn,
Algorithms for Computer Algebra, 1992): every update is the integer
cross-multiplication (p/g)*row - (e/g)*pivotrow, where p is the pivot
value, e the row's entry in the pivot column and g = gcd(p, e) > 0, and a
row is only rescaled when p/g is not 1.  A row is divided by its content
gcd once, when it becomes a pivot row, so every pivot row is primitive.
Every active row is a positive multiple of the row that a division after
each update would give (for the row c*r the update is c*g/g' times that
of r, with g' = gcd(p, c*e)), so the pivots and the kernel are the same
either way.  Back-substitution keeps each variable as int numerators over
one denominator, and each kernel vector is returned as primitive ints.
Pivot choices are deterministic (columns in ascending order, then the
sparsest candidate row, the lowest id on a tie), so results are
reproducible.
"""

from __future__ import annotations

from math import gcd, inf, lcm


def _reduce_content(row: dict):
    content = gcd(*row.values())
    if content > 1:
        for col in row:
            row[col] //= content


def _echelon(rows: list[dict], ncols: int):
    """Row echelon form; returns the pivot list [(col, row_dict), ...].

    Pivot rows are frozen, and divided by their content, as they are
    chosen; every still-active row has all earlier pivot columns
    eliminated, so a frozen pivot row can only contain its own pivot
    column, free columns, and later pivot columns.  `col_rows[c]` is
    exactly the set of active rows that hold column c; a row that cancels
    to zero holds none, so it stays in `active` but is never picked.
    """
    active: dict[int, dict] = {}
    col_rows: dict[int, set] = {}
    for rid, row in enumerate(rows):
        cleaned = {c: v for c, v in row.items() if v}
        if not cleaned:
            continue
        active[rid] = cleaned
        for col in cleaned:
            col_rows.setdefault(col, set()).add(rid)
    pivots: list[tuple[int, dict]] = []
    for col in range(ncols):
        holders = col_rows.pop(col, None)
        if not holders:
            continue
        pivot_rid, best = -1, inf
        for rid in holders:  # the shortest row, the lowest id on a tie
            length = len(active[rid])
            if length < best or (length == best and rid < pivot_rid):
                pivot_rid, best = rid, length
        holders.discard(pivot_rid)
        pivot_row = active.pop(pivot_rid)
        _reduce_content(pivot_row)
        pivot_value = pivot_row[col]
        pivots.append((col, pivot_row))
        rest = [(pcol, pvalue) for pcol, pvalue in pivot_row.items() if pcol != col]
        for pcol, _ in rest:
            col_rows[pcol].discard(pivot_rid)
        for rid in holders:
            row = active[rid]
            entry = row.pop(col)
            common = gcd(pivot_value, entry)
            scale, entry = pivot_value // common, entry // common
            # new_row = scale * row - entry * pivot_row on every column
            if scale != 1:
                for rcol in row:
                    row[rcol] *= scale
            for pcol, pvalue in rest:
                old = row.get(pcol)
                if old is None:
                    row[pcol] = -pvalue * entry
                    col_rows[pcol].add(rid)
                else:
                    new = old - pvalue * entry
                    if new:
                        row[pcol] = new
                    else:
                        del row[pcol]
                        col_rows[pcol].discard(rid)
    if col_rows:  # the loop popped every column in 0..ncols-1, so only outside ones remain
        raise ValueError(f"column {min(col_rows)} is outside 0..{ncols - 1}")
    return pivots


def rank(rows: list[dict], ncols: int) -> int:
    """Rank of the matrix: the number of pivots of `_echelon`."""
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
    zero: tuple[int, dict[int, int]] = (1, {})
    for col, row in reversed(pivots):
        if len(row) == 1:  # the pivot variable is zero
            combos[col] = zero
            continue
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
