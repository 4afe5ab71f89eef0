"""Seeded inputs for the three workloads.

Every document is built through leibalg's public API (catalog entries,
direct products, the document serializer and `validate` for the sampler).
The basis changes, random matrices over F_5 and permutations over Q, are
this module's own arithmetic.  The library only ever sees the finished JSON
files.

Each workload is a deterministic sequence of operations: operation i of a
seed depends on nothing but (workload, seed, i), so a run that stops early
has measured a prefix of the same sequence a longer run measures.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import random
from dataclasses import dataclass, field

from leibalg.algebra import LeibnizAlgebra, direct_product, validate
from leibalg.catalog import catalog_entry
from leibalg.documents import canonical_json, serialize_algebra
from leibalg.extensions import canonical_extension
from leibalg.fields import Field
from leibalg.isoclinism import search_isoclinism

F3 = Field.prime(3)
F5 = Field.prime(5)
FQ = Field.rationals()

EXIT_OK = 0
EXIT_NO_WITNESS = 3

@dataclass
class Op:
    """One CLI command: the files it reads, its arguments and what it must return."""

    index: int
    files: dict  # relative path -> document text
    args: list  # leibalg arguments; paths are relative to the op directory
    status: str
    exit_code: int
    expect: dict = field(default_factory=dict)  # workload-specific check data

    def digest(self):
        h = hashlib.sha256()
        for name in sorted(self.files):
            h.update(name.encode() + b"\0" + self.files[name].encode() + b"\0")
        h.update(" ".join(self.args).encode())
        return h.digest()


def _rng(workload, seed, *parts):
    return random.Random(":".join(str(x) for x in (workload, seed) + parts))


def document(alg: LeibnizAlgebra) -> str:
    return canonical_json(serialize_algebra(alg))


# -- the named small algebras ------------------------------------------------


def nilpotent_n2(f):
    """dim 2, [e1,e1] = e2."""
    return LeibnizAlgebra.from_structure(f, 2, {(0, 0): (0, 1)})


def lie_r2(f):
    """The nonabelian 2-dimensional Lie algebra, [x,y] = x = -[y,x]."""
    return LeibnizAlgebra.from_structure(
        f, 2, {(0, 1): (f.one, f.zero), (1, 0): (f.of(-1), f.zero)})


def named(name, f):
    if name in ("paper_g1", "paper_g2"):
        return catalog_entry(name, f)
    return {"nilpotent_n2": nilpotent_n2, "lie_r2": lie_r2}[name](f)


# -- change of basis ---------------------------------------------------------


def invert(f, m):
    """Inverse of a square matrix (list of rows) over f, or None if singular."""
    n = len(m)
    a = [list(row) + [f.one if i == j else f.zero for j in range(n)]
         for i, row in enumerate(m)]
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c]), None)
        if piv is None:
            return None
        a[c], a[piv] = a[piv], a[c]
        inv = f.inv(a[c][c])
        a[c] = [f.mul(inv, v) for v in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                k = a[r][c]
                a[r] = [f.sub(v, f.mul(k, w)) for v, w in zip(a[r], a[c])]
    return [row[n:] for row in a]


def random_gl(rng, f, n):
    """A uniformly random invertible n x n matrix over F_p and its inverse."""
    while True:
        m = [[rng.randrange(f.p) for _ in range(n)] for _ in range(n)]
        inv = invert(f, m)
        if inv is not None:
            return m, inv


def mat_vec(f, m, v):
    return tuple(sum(a * b for a, b in zip(row, v)) % f.p for row in m)


def change_basis(alg: LeibnizAlgebra, p, p_inv) -> LeibnizAlgebra:
    """The same algebra over F_p in the basis b'_j = sum_k p[k][j] b_k.

    [b'_i, b'_j] = sum_{k,l} p[k][i] p[l][j] [b_k, b_l], read back in the new
    basis through p_inv.  The result is isomorphic to alg by x -> p_inv x.
    """
    f, n = alg.field, alg.dim
    table = {}
    for i in range(n):
        for j in range(n):
            v = [0] * n
            for k in range(n):
                for l in range(n):
                    s = p[k][i] * p[l][j]
                    if s:
                        for t, w in enumerate(alg.structure[k][l]):
                            v[t] += s * w
            new = mat_vec(f, p_inv, v)
            if any(new):
                table[(i, j)] = new
    return LeibnizAlgebra.from_structure(f, n, table)


def permute_basis(alg: LeibnizAlgebra, perm) -> LeibnizAlgebra:
    """The same algebra in the basis b'_i = b_perm[i]: change_basis for a
    permutation matrix, without its dim^4 arithmetic."""
    n, c = alg.dim, alg.structure
    table = {}
    for i in range(n):
        for j in range(n):
            old = c[perm[i]][perm[j]]
            if any(old):
                table[(i, j)] = tuple(old[perm[t]] for t in range(n))
    return LeibnizAlgebra.from_structure(alg.field, n, table)


# -- classify-f3 -------------------------------------------------------------

CLASSIFY_BATCH = 220


def random_leibniz_algebra(rng, f=F3, max_dim=3):
    """The acceptance suite's sampler: rejection-sample a sparse structure
    tensor until the Leibniz identity holds, dimension biased away from 1.

    A copy of the one in tests/conftest.py, so that a change to the tests
    cannot change this benchmark's inputs."""
    dims = tuple(d for d in (1, 2, 2, 3, 3) if d <= max_dim)
    while True:
        dim = rng.choice(dims)
        table = {}
        for _ in range(rng.randrange(0, 2 * dim + 1)):
            i, j = rng.randrange(dim), rng.randrange(dim)
            vec = [0] * dim
            vec[rng.randrange(dim)] = rng.randrange(1, f.p)
            table[(i, j)] = tuple(vec)
        key = (f.p, dim, tuple(sorted(table.items())))
        if _is_leibniz(key):
            return LeibnizAlgebra.from_structure(f, dim, table)


@functools.lru_cache(maxsize=4096)
def _is_leibniz(key):
    """validate() of a sampled tensor; the sampler draws the same few often."""
    p, dim, items = key
    return validate(LeibnizAlgebra.from_structure(Field.prime(p), dim, dict(items))).ok


def classify_op(seed, index) -> Op:
    rng = _rng("classify-f3", seed, index)
    files = {f"batch/a{k:03d}.json": document(random_leibniz_algebra(rng))
             for k in range(CLASSIFY_BATCH)}
    return Op(index, files, ["classify", "batch", "--format", "json"], "ok", EXIT_OK)


# -- isoclinic-f5 ------------------------------------------------------------

# g1 x g1 has zero Lie-center, so its canonical quotient is itself in the same
# basis, and the isoclinism witnesses into it are known exactly: from g1 x g1
# they are its 32 automorphisms, from g1 x g2 they are those automorphisms
# after any one witness.  For (g, P.h) with h = g1 x g1 every witness is P^-1
# after one of these, so the lexicographically first witness, which the
# search returns and whose first column fixes how far the search walks, is
# known before the command runs.  The workload uses that to stratify P: the
# search time per command grows with the rank of that first column, from
# 0.05 s to several seconds across uniformly random P, and a run holds only a
# few dozen commands, so plain random draws make the run mean wander by a
# third from seed to seed.  Instead search command k takes a seeded draw at
# the middle of stratum STRATA_ORDER[k % 7] of seven equally likely strata of
# that rank.  Commands come in rounds of ROUND: seven searches, one per
# stratum, and two key mismatches.  Seven is odd, so over two rounds each g
# meets every stratum.  With seven strata and two fast mismatches per round,
# the median command of any whole number of rounds sits in the middle of one
# stratum's commands, so op_p50_s does not jump between neighbouring strata.
STRATA_POOL = 1000
STRATA_ORDER = (3, 0, 6, 2, 4, 1, 5)
ROUND = "SSSMSSSSM"  # S: search for a witness, M: key mismatch


def _g1_automorphisms(f):
    """Aut(g1) over F_p: e1 -> e1 + b e2, e2 -> (1 + b) e2 with 1 + b != 0."""
    return [((f.one, f.of(b)), (f.zero, f.add(f.one, f.of(b))))
            for b in range(f.p) if f.add(f.one, f.of(b))]


def _columns_to_rows(cols):
    n = len(cols[0])
    return [[c[r] for c in cols] for r in range(n)]


def product_automorphisms(f):
    """The 32 automorphisms of g1 x g1 over F_5 as row lists: block-diagonal
    pairs of Aut(g1) elements, with or without the factor swap."""
    z = (f.zero, f.zero)
    out = []
    for a, b in itertools.product(_g1_automorphisms(f), repeat=2):
        cols = [a[0] + z, a[1] + z, z + b[0], z + b[1]]
        out.append(_columns_to_rows(cols))
        out.append(_columns_to_rows([z + a[0], z + a[1], b[0] + z, b[1] + z]))
    return out


def mat_mul(f, a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) % f.p
             for j in range(len(b[0]))] for i in range(len(a))]


def _columns(m):
    return tuple(tuple(row[j] for row in m) for j in range(len(m[0])))


def _lex_rank(col, p):
    r = 0
    for x in col:
        r = r * p + x
    return r


class IsoclinicWorkload:
    """Pairs (g, P.h) over F_5 whose quotients have dimension 4.

    Seven commands in nine search g in {g1 x g1, g1 x g2} against
    P.(g1 x g1) and must return the lexicographically first witness; the
    other two pair g with P.(g1 x n2), whose invariant key differs, and must
    find none.
    """

    def __init__(self, seed):
        f = F5
        self.seed = seed
        g1 = catalog_entry("paper_g1", f)
        self.bases = {
            "g1xg1": direct_product(g1, g1),
            "g1xg2": direct_product(g1, catalog_entry("paper_g2", f)),
        }
        self.mismatch = direct_product(g1, nilpotent_n2(f))
        auts = product_automorphisms(f)
        e_target = canonical_extension(self.bases["g1xg1"])
        w0 = search_isoclinism(canonical_extension(self.bases["g1xg2"]), e_target)
        if w0 is None:
            raise RuntimeError("leibalg found no witness from g1 x g2 to g1 x g1")
        w0_rows = [list(r) for r in w0.eta.matrix.entries]
        self.witnesses = {
            "g1xg1": auts,
            "g1xg2": [mat_mul(f, a, w0_rows) for a in auts],
        }
        self.strata = {name: self._stratified_pool(name) for name in self.bases}
        self.used = {name: set() for name in self.bases}
        self.cache = {}

    def _first_witness(self, name, p_inv):
        return min(_columns(mat_mul(F5, p_inv, w)) for w in self.witnesses[name])

    def _stratified_pool(self, name):
        """Seeded GL(4, F_5) draws sorted by the first column of their first
        witness (ties kept in draw order)."""
        rng = _rng("isoclinic-f5", self.seed, "pool", name)
        firsts = sorted({_columns(w)[0] for w in self.witnesses[name]})
        pool = []
        for k in range(STRATA_POOL):
            p, p_inv = random_gl(rng, F5, 4)
            r = min(_lex_rank(mat_vec(F5, p_inv, v), 5) for v in firsts)
            pool.append((r, k, p, p_inv))
        pool.sort(key=lambda t: (t[0], t[1]))
        return pool

    def _stratified_draw(self, name, k):
        """The unused pool entry nearest the middle of search command k's stratum."""
        pool, used = self.strata[name], self.used[name]
        u = (STRATA_ORDER[k % len(STRATA_ORDER)] + 0.5) / len(STRATA_ORDER)
        pos = int(u * len(pool))
        for step in range(len(pool)):
            for cand in (pos + step, pos - step):
                if 0 <= cand < len(pool) and cand not in used:
                    used.add(cand)
                    return pool[cand]
        raise RuntimeError("stratified pool exhausted")

    def op(self, index) -> Op:
        if index not in self.cache:
            # draws depend on the order of earlier draws: build them in order
            for i in range(len(self.cache), index + 1):
                self.cache[i] = self._build(i)
        return self.cache[index]

    def _build(self, index):
        names = sorted(self.bases)
        rounds, pos = divmod(index, len(ROUND))
        kind = ROUND[pos]
        k = rounds * ROUND.count(kind) + ROUND[:pos].count(kind)
        if kind == "M":
            first = names[k % 2]
            rng = _rng("isoclinic-f5", self.seed, index)
            p, p_inv = random_gl(rng, F5, self.mismatch.dim)
            second = change_basis(self.mismatch, p, p_inv)
            status, code, expect = "no_witness", EXIT_NO_WITNESS, {}
        else:
            first = names[k % 2]
            _, _, p, p_inv = self._stratified_draw(first, k)
            second = change_basis(self.bases["g1xg1"], p, p_inv)
            eta = self._first_witness(first, p_inv)
            expect = {"eta": [list(r) for r in _columns_to_rows(list(eta))]}
            status, code = "ok", EXIT_OK
        files = {"a.json": document(self.bases[first]), "b.json": document(second)}
        args = ["isoclinic", "a.json", "b.json", "--field", "5", "--format", "json"]
        return Op(index, files, args, status, code, expect)


# -- invariants-q24 ----------------------------------------------------------

# Six dimensions of each factor type: 3 x g1 + 2 x g2 + 3 x n2 + 3 x r2 = 24.
Q24_FACTORS = (("paper_g1", 3), ("paper_g2", 2), ("nilpotent_n2", 3), ("lie_r2", 3))


def invariants_op(seed, index) -> Op:
    rng = _rng("invariants-q24", seed, index)
    factors = [name for name, count in Q24_FACTORS for _ in range(count)]
    rng.shuffle(factors)
    alg = named(factors[0], FQ)
    for name in factors[1:]:
        alg = direct_product(alg, named(name, FQ))
    perm = list(range(alg.dim))
    rng.shuffle(perm)
    doc = document(permute_basis(alg, perm))
    return Op(index, {"doc.json": doc}, ["invariants", "doc.json", "--format", "json"],
              "ok", EXIT_OK, {"factors": factors})


WORKLOADS = ("classify-f3", "isoclinic-f5", "invariants-q24")
# Operations in one full round of a workload's mix; a run ends on a round
# boundary.
CYCLE = {"classify-f3": 1, "isoclinic-f5": len(ROUND), "invariants-q24": 1}


def operations(workload, seed):
    """The operation sequence of one workload and seed, as index -> Op."""
    if workload == "isoclinic-f5":
        return IsoclinicWorkload(seed).op
    build = {"classify-f3": classify_op, "invariants-q24": invariants_op}[workload]
    return lambda index: build(seed, index)
