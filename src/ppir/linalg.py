"""Dense exact linear algebra over finite fields.

Matrices are lists of row lists of integers.  Sizes in this package are tiny
(tens of rows at most), so everything is straightforward Gaussian
elimination; clarity and exactness over speed.
"""

from __future__ import annotations

from .errors import SingularMatrixError


def identity(n: int):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(field, a, b):
    cols = list(zip(*b))
    return [[field.dot(r, c) for c in cols] for r in a]


def echelon(field, rows):
    """Reduced row echelon form.

    Returns (nonzero_rows, pivot_columns); the input is not modified.
    """
    work = [list(r) for r in rows]
    if not work:
        return [], []
    ncols = len(work[0])
    pivots = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(work)) if work[i][c]), None)
        if p is None:
            continue
        work[r], work[p] = work[p], work[r]
        if work[r][c] != 1:
            work[r] = field.row_scale(work[r], field.inv(work[r][c]))
        for i in range(len(work)):
            if i != r and work[i][c]:
                work[i] = field.row_addmul(work[i], work[r], field.neg(work[i][c]))
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work[:r], pivots


def rank(field, rows) -> int:
    return len(echelon(field, rows)[0])


def invert(field, rows):
    n = len(rows)
    aug = [list(r) + ident_row for r, ident_row in zip(rows, identity(n))]
    red, pivots = echelon(field, aug)
    if pivots[:n] != list(range(n)) or len(red) < n:
        raise SingularMatrixError("matrix is singular over the field")
    return [r[n:] for r in red]
