"""Workload definitions: seeded problem texts, request lists, pinned answers.

Every input is generated here from the run's seed and handed to the library
as problem text only, in the file grammar the CLI reads::

    ring a1, a2, a3;
    I = a1^4*a2, a2^3*a3;
    J = a1^9*a2^2;

Nothing here imports the library.  Named instances carry answers pinned
from known values or from the independent Algorithm X oracle in
``tests/oracle.py``; seeded random instances are checked through
certificates, agreement between fields and the checker's own verdict
instead (see ``run.py``).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

PRIME_FIELD = "p32003"

# Deadline of every request, in seconds.  A request that hits a limit raises the
# library's ResourceError and stays in the workload as unsolved.
DEADLINE_S = 30.0
# Partition searches are capped by nodes per level, not by the clock: a node
# budget is hit at the same point on every run, so traced counts repeat
# exactly, and the time a capped search takes still scales with the cost of
# a node.  On `search` every solved instance needs at most 17582 nodes on a
# level; m_6 and V(6,3) exhaust the budget at d=4.
SEARCH_NODE_BUDGET = 25000
CHECK_NODE_BUDGET = 200


@dataclass(frozen=True)
class Request:
    """One library call sequence, as a user of the CLI would trigger it.

    op is one of:
      "sdepth"     parse, canonicalize, sdepth, verify_decomposition
      "depth"      parse, canonicalize, depth over `field`
      "raw-depth"  parse, depth over `field` on the raw presentation
      "check"      parse, check_factor (the CLI's `check`)
    """

    label: str
    op: str
    text: str
    field: str = "q"
    expected: int | None = None
    node_budget: int | None = None
    check_seed: int = 0


# ---------------------------------------------------------------- generation

def _names(rng: random.Random, n: int) -> list[str]:
    prefix = rng.choice("abcdefghkmnpqstuvw")
    return [f"{prefix}{i + 1}" for i in range(n)]


def _monomial(m, names) -> str:
    parts = [v if e == 1 else f"{v}^{e}" for v, e in zip(names, m) if e]
    return "*".join(parts) if parts else "1"


def problem_text(names, I, J=()) -> str:
    """File-grammar text of I/J; generator order is kept as given."""
    body = ", ".join(_monomial(m, names) for m in I)
    text = f"ring {', '.join(names)};\nI = {body};\n"
    if J:
        text += f"J = {', '.join(_monomial(m, names) for m in J)};\n"
    return text


def _divides(u, v) -> bool:
    return all(a <= b for a, b in zip(u, v))


def _minimal(gens) -> list[tuple[int, ...]]:
    out = []
    for m in sorted(set(gens), key=sum):
        if not any(_divides(k, m) for k in out):
            out.append(m)
    return out


def maximal_ideal(n: int) -> list[tuple[int, ...]]:
    """Generators of m_n = (x_1, ..., x_n)."""
    return [tuple(int(i == j) for j in range(n)) for i in range(n)]


def veronese(n: int, d: int) -> list[tuple[int, ...]]:
    """Generators of the squarefree Veronese ideal V(n, d)."""
    return [tuple(int(j in c) for j in range(n))
            for c in itertools.combinations(range(n), d)]


def stretched(rng: random.Random, I, J=()) -> str:
    """A seeded wide-exponent presentation of a squarefree factor.

    Each variable's exponent 1 becomes a random k_v in 1..9, the generator
    order is shuffled and the variable names are drawn from the seed.
    Canonicalization maps every such presentation back to the squarefree
    factor, so the pinned answers hold for every seed.
    """
    n = len(I[0])
    k = [rng.randint(1, 9) for _ in range(n)]
    names = _names(rng, n)

    def stretch(gens):
        out = [tuple(e * kv for e, kv in zip(m, k)) for m in gens]
        rng.shuffle(out)
        return out

    return problem_text(names, stretch(I), stretch(J))


def _random_factor(rng: random.Random, n: int, emax: int, gens: int):
    """Random I/J with exponents in 0..emax, I drawn from `gens` monomials;
    J is built from multiples of generators of I, so J lies inside I.
    Draws with J = I are redrawn."""
    while True:
        I = _minimal(tuple(rng.randint(0, emax) for _ in range(n))
                     for _ in range(gens))
        J = _minimal(tuple(e + rng.randint(0, emax - e) for e in rng.choice(I))
                     for _ in range(rng.randint(0, 2)))
        if not all(any(_divides(j, i) for j in J) for i in I):
            return I, J


def wide(rng: random.Random, I, J, box) -> str:
    """A seeded raw presentation of a canonical factor, inside a fixed box.

    Variable v's canonical exponents 1..s map to increasing raw exponents:
    level s to box[v] exactly, each lower level l to about l/s of it, with
    a seeded jitter.  Axes are permuted and names drawn from the seed, so
    the box volume and the canonical form stay fixed while the text varies.
    """
    n = len(box)
    levels = [max(m[v] for m in I + J) for v in range(n)]
    raw = []
    for s, g in zip(levels, box):
        vals = {0: 0, s: g}
        for lvl in range(s - 1, 0, -1):
            jitter = max(1, g // (4 * s))
            vals[lvl] = max(lvl, min(vals[lvl + 1] - 1,
                                     round(lvl * g / s) + rng.randint(-jitter, jitter)))
        raw.append(vals)
    perm = list(range(n))
    rng.shuffle(perm)

    def present(gens):
        return [tuple(raw[perm[i]][m[perm[i]]] for i in range(n)) for m in gens]

    return problem_text(_names(rng, n), present(I), present(J))


# ------------------------------------------------------------------ ladders

# (label, I, J, sdepth).  sdepth(m_n) = ceil(n/2); the Veronese values were
# computed once with tests/oracle.py (Algorithm X over all intervals).  The
# two quotients spend almost all their time proving d=4 infeasible.
SEARCH_LADDER = [
    ("m_5", maximal_ideal(5), [], 3),
    ("V(5,2)", veronese(5, 2), [], 3),
    ("V(6,3)/V(6,5)", veronese(6, 3), veronese(6, 5), 3),
    ("V(6,2)/V(6,5)", veronese(6, 2), veronese(6, 5), 3),
    ("m_6", maximal_ideal(6), [], 3),
    ("V(6,3)", veronese(6, 3), [], 3),
]

# (label, I, depth): depth(m_n) = 1 and depth(V(n,d)) = d.
KOSZUL_LADDER = [
    ("m_8", maximal_ideal(8), 1),
    ("V(8,4)", veronese(8, 4), 4),
    ("V(9,4)", veronese(9, 4), 4),
    ("V(9,3)", veronese(9, 3), 3),
]

# (label, canonical I, canonical J, raw box, sdepth, depth).  Raw boxes run
# from about 10^4 to 3*10^5 cells; wide[3] is criterion 7's factor
# x^100*y*z, x^50*y*z^50, x^50*y^50*z up to jitter.  sdepth comes from
# tests/oracle.py; depth from the Koszul engine over Q and GF(32003), on
# the canonical and on the raw form of seed 1, all four agreeing.
RAW_LADDER = [
    ("wide[0]", [(1, 1, 0), (0, 1, 1), (1, 0, 1)], [(1, 1, 1)], (20, 20, 30), 2, 2),
    ("wide[1]", [(3, 1, 0), (1, 2, 1), (0, 1, 3), (2, 0, 2)], [(3, 2, 3)],
     (40, 30, 35), 1, 1),
    ("wide[2]", [(1, 2, 0), (0, 1, 2), (2, 0, 1)], [(2, 2, 2)], (60, 45, 40), 2, 1),
    ("wide[3]", [(2, 1, 1), (1, 1, 2), (1, 2, 1)], [], (100, 50, 50), 2, 1),
]

CHECK_BATCH = 1500
# check-batch draws the same number of factors for each variable count and
# each number of drawn generators; only the factors themselves are random.
# A check's cost grows steeply with n, so a seed that drew more n=3 factors
# would move p50 and wall_s by several percent.
CHECK_VARS = (1, 2, 3)
CHECK_GENS = (1, 2, 3, 4, 5)


def search(rng: random.Random) -> list[Request]:
    return [Request(label, "sdepth", stretched(rng, I, J), expected=sd,
                    node_budget=SEARCH_NODE_BUDGET)
            for label, I, J, sd in SEARCH_LADDER]


def raw_box(rng: random.Random) -> list[Request]:
    reqs = []
    for label, I, J, box, sd, dp in RAW_LADDER:
        text = wide(rng, I, J, box)
        reqs += [Request(label, "raw-depth", text, expected=dp),
                 Request(label, "sdepth", text, expected=sd),
                 Request(label, "depth", text, expected=dp)]
    return reqs


def koszul(rng: random.Random) -> list[Request]:
    texts = [(label, stretched(rng, I), d) for label, I, d in KOSZUL_LADDER]
    return [Request(label, "depth", text, field=field, expected=d)
            for label, text, d in texts for field in ("q", PRIME_FIELD)]


def check_batch(rng: random.Random) -> list[Request]:
    strata = [(n, k) for n in CHECK_VARS for k in CHECK_GENS]
    draws = strata * (CHECK_BATCH // len(strata))
    rng.shuffle(draws)
    reqs = []
    for i, (n, k) in enumerate(draws):
        I, J = _random_factor(rng, n, 5, k)
        reqs.append(Request(f"random[{i}]", "check",
                            problem_text(_names(rng, n), I, J),
                            node_budget=CHECK_NODE_BUDGET,
                            check_seed=rng.getrandbits(32)))
    return reqs


WORKLOADS = {
    "search": search,
    "raw-box": raw_box,
    "koszul": koszul,
    "check-batch": check_batch,
}


def make(workload: str, seed: int) -> list[Request]:
    """The request list of one workload; the same seed gives the same list."""
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"))
