"""Independent brute-force Stanley depth and depth for small factors.

Used as cross-check oracles: membership is recomputed from generator
divisibility.  The Stanley depth partition search is an exact-cover run
(Algorithm X, dict-of-sets form) over the full catalogue of admissible
intervals.  Depth scans the Koszul complex on every cell of the (padded)
box and takes ranks by Gaussian elimination over Fraction.  Hilbert series
coefficients, which certify a refuted Stanley depth level, are summed member
by member from binomials.  Nothing here touches the package's poset, search
or homology code.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import comb


def _divides(u, v) -> bool:
    return all(a <= b for a, b in zip(u, v))


def _in_factor(F, a) -> bool:
    return (any(_divides(m, a) for m in F.I.gens)
            and not any(_divides(m, a) for m in F.J.gens))


def members(F):
    """(g, points): the bounding join and every multidegree of I minus J in it."""
    gi, gj = F.I.gens, F.J.gens
    n = F.n
    g = tuple(max((m[v] for m in gi + gj), default=0) for v in range(n))
    pts = []
    for a in product(*(range(e + 1) for e in g)):
        if _in_factor(F, a):
            pts.append(a)
    return g, pts


def _interval_rows(g, pts, d):
    """Every interval [a, b] inside the point set whose top has at least d
    coordinates on the bound, as (a, b, cells) with cells sorted."""
    ptset = set(pts)
    rows = []
    for a in pts:
        for b in product(*(range(lo, hi + 1) for lo, hi in zip(a, g))):
            if sum(1 for x, y in zip(b, g) if x == y) < d:
                continue
            cells = tuple(product(*(range(lo, hi + 1) for lo, hi in zip(a, b))))
            if all(c in ptset for c in cells):
                rows.append((a, b, cells))
    return rows


def _solve(X, Y) -> bool:
    if not X:
        return True
    col = min(X, key=lambda c: len(X[c]))
    for r in list(X[col]):
        removed = _select(X, Y, r)
        if _solve(X, Y):
            _deselect(X, Y, r, removed)
            return True
        _deselect(X, Y, r, removed)
    return False


def _select(X, Y, r):
    removed = []
    for j in Y[r]:
        for i in X[j]:
            for k in Y[i]:
                if k != j:
                    X[k].remove(i)
        removed.append(X.pop(j))
    return removed


def _deselect(X, Y, r, removed):
    for j in reversed(Y[r]):
        X[j] = removed.pop()
        for i in X[j]:
            for k in Y[i]:
                if k != j:
                    X[k].add(i)


def exact_cover_exists(universe, rows) -> bool:
    X = {u: set() for u in universe}
    Y = {}
    for ri, cells in enumerate(rows):
        Y[ri] = cells
        for c in cells:
            X[c].add(ri)
    return _solve(X, Y)


def oracle_sdepth(F) -> int:
    g, pts = members(F)
    for d in range(len(g), 0, -1):
        rows = [cells for _, _, cells in _interval_rows(g, pts, d)]
        if exact_cover_exists(pts, rows):
            return d
    return 0  # singletons always cover


def oracle_hilbert_coefficient(F, d, k) -> int:
    """Coefficient of t^k in (1-t)^d H(t), H the Hilbert series of F: each
    member a adds t^|a| (1-t)^(d - rho(a)), whose t^k coefficient is
    (-1)^m C(d - rho(a), m) for m = k - |a| when rho(a) <= d, and
    C(m + rho(a) - d - 1, m) when rho(a) > d."""
    g, pts = members(F)
    total = 0
    for a in pts:
        m = k - sum(a)
        if m < 0:
            continue
        e = d - sum(1 for x, y in zip(a, g) if x == y)
        total += (-1) ** m * comb(e, m) if e >= 0 else comb(m - e - 1, m)
    return total


def rank(rows) -> int:
    """Rank by plain Gaussian elimination over Fraction."""
    m = [[Fraction(e) for e in r] for r in rows]
    r = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            f = m[i][c] / m[r][c]
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


def oracle_depth(F, pad: int = 0) -> int:
    """n minus the top i with H_i nonzero in some Koszul slice at a cell of
    [0, g + pad]; the slice at a has a basis vector per subset S with
    x^(a - e_S) in I minus J, and d(e_S) = sum_k (-1)^k e_(S minus S[k])."""
    n = F.n
    g = tuple(max((m[v] for m in F.I.gens + F.J.gens), default=0) + pad
              for v in range(n))
    top = -1
    for a in product(*(range(e + 1) for e in g)):
        present = [[S for S in combinations(range(n), i)
                    if all(a[j] > 0 for j in S)
                    and _in_factor(F, tuple(x - (j in S) for j, x in enumerate(a)))]
                   for i in range(n + 1)]
        ranks = [0] * (n + 2)
        for i in range(1, n + 1):
            if present[i] and present[i - 1]:
                row = {S: k for k, S in enumerate(present[i - 1])}
                mat = [[0] * len(present[i]) for _ in present[i - 1]]
                for c, S in enumerate(present[i]):
                    for k in range(i):
                        face = S[:k] + S[k + 1:]
                        if face in row:
                            mat[row[face]][c] = (-1) ** k
                ranks[i] = rank(mat)
        for i in range(n + 1):
            if len(present[i]) - ranks[i] - ranks[i + 1]:
                top = max(top, i)
    return n - top
