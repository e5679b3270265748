"""Fixed-point space dimensions from graph boxes, computed by saturation.

The engine works level by level in the spin-model tower over the vertex
set, but compresses every level to one coordinate per orbit of the
ordinary automorphism group: every generated tensor is invariant under
it, every structural operation commutes with it, and dimensions are
unchanged.

Rank decisions use reduced row echelon arithmetic modulo two fixed primes
below 2^21, kept in lockstep. A family of vectors independent modulo a
prime is independent over the rationals, so every reported dimension is
a certified lower bound on the exact one; a vector judged dependent
would have to vanish modulo both primes at once to be misjudged, and any
disagreement between the two reductions raises ModularMismatchError
instead of continuing. The test suite pins the dimensions of the worked
examples against closed forms and against the exact reference engine in
tests/reference_engine.py, which works on all n^m coordinates and decides
ranks by fraction-free elimination over the Gaussian integers, with no
orbit compression and no modular arithmetic.

Residues are stored as float64 integers in [0, p), so that matrix
products run through BLAS. A product of two residues is below (p-1)^2 <
2^42, and a float64 holds every integer below 2^53 exactly; a sum of at
most _CHUNK such products added to a residue therefore stays exact. Every
product-sum with a longer inner dimension (basis reductions, letter
products) is split into chunks of at most _CHUNK terms and reduced
modulo p after each chunk.

On most levels a reduction costs numpy's fixed cost per call more than
arithmetic, so _mod reduces a stack of at most _REMAINDER_MAX elements
with one exact np.remainder call, and a larger one by a floor-and-correct
path of about ten calls that is several times cheaper per element (the
crossover was measured at 700-900 elements on a 2-vCPU host).

Memory is set by the largest level's basis, whose rows tend toward R x R
residues per prime. Each basis allocates its rows once, at (2, R, R), with
np.zeros, and never copies them: a large calloc block is fresh pages from
the operating system, zero without being written, so only the pages of
rows actually adjoined become resident, and a level that stops short of R
rows never pays for the rest. Growing the rows by doubling copies would
keep the old and the new array alive together: the octagon at level 4,
run through level 5 (2,056 orbits), peaked at 241 MiB that way against
179 MiB. Both caps on a run live in the engine's constructor, which raises
ResourceCapError: a top level above _TUPLE_LIMIT raw tuples is refused
before Aut(X) is looked up, and because the rows are allocated up front,
their bytes, 16 R_m^2 per level, are predicted from the orbit counts and
refused above _BASIS_BUDGET before any basis is built. Below glibc's
mmap threshold a calloc block may come from the heap and be zero-filled
in full; on the measured inputs that raised no peak.

Candidates are reduced a block at a time, in the manner of the blocked
word-size prime-field elimination of Dumas, Giorgi and Pernet (FFLAS and
FFPACK, ACM TOMS 2008). Each level keeps a FIFO queue; the engine takes
up to _BLOCK items from the level whose head item is oldest, materialises
them (the products by at most two cross products of rows and letters, one
for the items queued for a new row and one for those queued for a new
letter), reduces the whole block against the basis with one matrix
product per prime, drops the rows that vanish under both primes,
eliminates the survivors one by one in block order, and clears the new
pivot columns from the old rows with one more product. Taking the oldest
head matters for speed, not for the result: draining the lowest level
with pending items first gives the same dimensions but, on a random
8-vertex graph with a trivial group at level 3, materialises 116,544
level-3 candidates against 854 and runs about 30 times longer.

The processing order cannot change the dimensions. The space computed at
each level is the smallest family of subspaces that contains the seeds
and is closed under the structural operations and under multiplication:
on the levels closed as algebras (below) by the level's own space, above
them by the span of the letters. Every accepted row queues its images
under every operation and its products: on an algebra level with every
row of index at most its own, on either side, and above with every
letter. A queued item is taken of the rows' values when it is processed,
each of which differs from its value when accepted only by multiples of
rows accepted later, whose images and products are queued as well; so
once the queues run dry the span of each basis is closed, whatever the
order. The letters above the algebra levels are fixed vectors, so their
span does not depend on the order either.

A level with R_m = 1 starts full: its one basis row is [1] from the
outset, accepted like any other, so its images and products are queued,
and no block is ever materialised or reduced there. That is level 0
always, level 1 on a vertex-transitive graph and every level on one
vertex; the unit of level 0 needs no seed. The space is the same: the
unit is in every run's level-0 space, so incl^m(unit) is in every run's
level-m space, and it is nonzero: incl reads each tuple's entry at the
tuple with one digit deleted, on even levels only where that digit equals
its left neighbour, so incl^m(unit) is 1 on every tuple whose digits are
all equal. A nonzero vector of width 1 reduces to the row [1]. Starting
full changes only the order of processing.

Every color is seeded by its real 0/1 arc matrix A, symmetric for an
edge color and one-way for an oriented one: a magic unitary commutes
with the paper's oriented box X = i(A - A^T) exactly when it commutes
with A and with A^T (the color-splitting lemma), and A = -(X.X + iX)/2
with X.X the entrywise square, so A and X generate the same fixed-point
spaces. A^T needs no seed of its own, because it is the star of A at
level 2 and the star of every basis vector is queued.

Multiplicative saturation multiplies basis vectors on the right by a
letter set. Up to level 3, and on a vertex-transitive graph (R_1 = 1) up
to level _LETTER_ALL_MAX (4), the letters are the level's basis rows,
read when a product is taken: each of these levels is closed as an
algebra, as every level of the planar algebra is. Above them the letters
are the "words" letters: rotated strand-lifts of the graph boxes and the
cup-cap elements, counting on words in these letters to fill the level.
They are generated, so they lie in the level's space; they would add
nothing to a level closed as an algebra, and both letter sets have the
same least fixed point. An algebra level below R_m multiplies every pair
of its rows, about R_m^2 products. On a vertex-transitive graph level 4
has at most n^3 orbits (each meets the tuples that start at vertex 0);
closing it certifies the octagon and C10(1,2) at level 4 (the octagon:
0.08-0.10 s, against 7.4-8.6 s with the "words" letters and a run to
level 5; BENCH_18.json). With several vertex orbits level 4 has up to
n^4: a six-vertex graph with |Aut(X)| = 4 has 456, rank 454, and closing
it as an algebra doubled the time of its closure through level 5 (33 s
against 17 s). Level 5 closed as an algebra gave the same dims on the
cube and the two squares at about 100 times the cost (the cube: 267 s).

Each reported level is bounded on both sides. A run with a higher top
level can only raise a dimension: every row the lower run accepts lies in
the higher run's space, since the seeds do, the structural operations
keep it, and so does every product the lower run takes (both runs close
the same levels as algebras, and above them the "words" letters are the
same fixed vectors in both runs). No dimension can exceed R_m, the
number of orbits of the ordinary automorphism group Aut(X) on m-tuples:
that is the width the engine works in, and it bounds the exact dimension
too, because Aut(X) is a subgroup of the quantum automorphism group (its
function algebra is a quotient), so every vector the quantum group fixes
is fixed by Aut(X) as well. A level whose modular rank reaches R_m is
therefore exact, and no higher run can change it (Banica, Bichon and
Chenevier, Graphs having no quantum symmetry, Ann. Inst. Fourier 57,
2007). A level below R_m is a certified lower bound only. closure() makes
one run, with top level max(2, max_level): a run one level higher raised
no dimension below R_m on any input measured (the graphs/ files, the
census to eleven vertices, and 900 random colored graphs on 3-7 vertices,
221 of them below R_m), and the tests compare closure() with a run one or
two levels higher on generated graphs.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import count

import numpy as np

from .graphs import LOOP_SCREEN_LENGTH, ColoredGraph, _component_walk_matrix, total_matrix
from .scalars import GaussianRational
from .symmetry import automorphism_group

_PRIMES = np.array([2097143.0, 2097133.0])
_INVERSES = 1.0 / _PRIMES
# The primes and their inverses shaped against a stack of 1, 2, 3 or 4 axes.
_PRIME_AXES = [tuple(v.reshape((2,) + (1,) * k) for v in (_PRIMES, _INVERSES)) for k in range(4)]
# Products of residues that one float64 sum may add to a residue exactly.
_CHUNK = min(2**53 // (int(p) - 1) ** 2 for p in _PRIMES) - 1
_BLOCK = 64  # queue items reduced together
_REMAINDER_MAX = 800  # largest stack _mod reduces with one np.remainder call
_ELEMENT_BUDGET = 1 << 20  # float64 elements in one letter-product temporary
_LETTER_ALL_MAX = 4  # levels up to here are algebras on a vertex-transitive graph
_TUPLE_LIMIT = 2_000_000  # raw tuples of the top level one engine may code
_BASIS_BUDGET = 2 << 30  # bytes of basis rows one engine may allocate
_SOURCE = {"rot": 0, "star": 0, "incl": -1, "expect": 1}  # source level - target level


class ModularMismatchError(RuntimeError):
    """The two modular reductions disagreed; the moduli need changing."""


class ResourceCapError(ValueError):
    """The engine's constructor refused the run: its top level has more
    than _TUPLE_LIMIT tuples, or its bases more than _BASIS_BUDGET bytes."""


def _reversed_codes(codes: np.ndarray, n: int, m: int) -> np.ndarray:
    """The m-digit base-n codes with their digits in reverse order."""
    out = np.zeros_like(codes)
    for _ in range(m):
        codes, digit = np.divmod(codes, n)
        out = out * n + digit
    return out


class _Level:
    """Orbit structure of the automorphism group acting on m-tuples.

    A tuple is coded base n, its first vertex the most significant digit;
    perms gives each generator's action on the codes. Each code is
    labelled by the minimum of its orbit, so the representatives (reps,
    ascending) are the fixed points of the label map, and a code's dense
    orbit index counts the representatives up to its label. numpy's unique
    and searchsorted would give the same arrays, but in numpy 2.4 unique
    imports numpy.ma, which costs every process about 1.25 MiB resident
    and 10-15 ms at its first closure."""

    __slots__ = ("m", "reps", "R", "orbit_dense")

    def __init__(self, n: int, m: int, perms: list[np.ndarray]):
        self.m = m
        labels = codes = np.arange(n**m, dtype=np.int64)
        if perms and m > 0:
            # Labels only fall, to codes in the same orbit; the one fixed
            # point, whatever the order of the updates, is the orbit minimum.
            while True:
                merged = labels
                for p in perms:
                    merged = np.minimum(merged, merged[p])
                merged = merged[merged]
                if np.array_equal(merged, labels):
                    break
                labels = merged
        fixed = labels == codes
        self.reps = np.flatnonzero(fixed)
        self.R = len(self.reps)
        self.orbit_dense = (np.cumsum(fixed) - 1)[labels]


# ---------------------------------------------------------------------------
# Reduced echelon bases modulo the two primes.
#
# A block of k vectors is a float64 array of shape (2, k, R), the leading
# axis being the prime, holding residues in [0, p) for the primes
# 2097143 and 2097133, both below 2^21. Any sum of _CHUNK products of two
# residues, added to a residue, stays below 2^53 - 2^22, so it is computed
# exactly in float64 and _mod reduces it exactly; products with a longer
# inner dimension are summed _CHUNK terms at a time and reduced in
# between (_submul_mod).
#
# Basis rows are kept pivot-normalized to 1 with pivot columns cleared
# everywhere else (reduced row echelon form). Inserting a block then
# takes three steps: one matrix product per prime reduces every row of
# the block against the basis (with C the block's entries in the pivot
# columns, block - C @ rows vanishes there); the rows that vanish under
# both primes are dropped and the rest are eliminated one by one in block
# order, each checked for a lead mismatch between the primes just as a
# lone vector would be; and one more product clears the new pivot columns
# from the old rows before the new rows are appended.


def _mod(x: np.ndarray) -> np.ndarray:
    """Reduce a stack of integers at most 2^53 - 2^22 in magnitude, the
    leading axis being the prime, into [0, p) in place.

    A stack of at most _REMAINDER_MAX elements takes one np.remainder
    call. On float64 integers it is exact (it is fmod, corrected by p when
    the sign differs) and returns +0.0 for a multiple of p, never -0.0, so
    equal residues have equal bytes. Larger stacks take the floor path:
    the quotient x * (1/p) is off by less than 2^-20, so its floor is off
    by at most one, its multiple of p lies within 2p of x and so is exact,
    and a single correction either way finishes the job. That costs about
    ten ufunc calls, but per element it is several times cheaper than
    np.remainder.
    """
    p, inverse = _PRIME_AXES[x.ndim - 1]
    if x.size <= _REMAINDER_MAX:
        return np.remainder(x, p, out=x)
    q = x * inverse
    np.floor(q, out=q)  # in place: each large temporary costs fresh page faults
    q *= p
    x -= q
    np.add(x, p, out=x, where=x < 0)
    np.subtract(x, p, out=x, where=x >= p)
    return x


def _submul_mod(x: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x - a @ b modulo each prime into x, for a stack x (2, k, c) of
    residues and stacks a (2, k, r) and b (2, r, c) of residues."""
    for s in range(0, a.shape[2], _CHUNK):
        x -= a[:, :, s : s + _CHUNK] @ b[:, s : s + _CHUNK]
        _mod(x)
    return x


class _ModBasis:
    """A reduced echelon basis modulo both primes of vectors of length width.

    rows[:, :rank] are the basis rows. All width rows are allocated at
    construction, zero, and never reallocated: the rank cannot exceed the
    width, and pages past the rank are never written, so they take no
    resident memory (module docstring)."""

    __slots__ = ("width", "rank", "pivcols", "pivotal", "rows")

    def __init__(self, width: int):
        self.width = width
        self.rank = 0
        self.pivcols = np.empty(0, dtype=np.intp)
        self.pivotal = np.zeros(width, dtype=bool)
        self.rows = np.zeros((2, width, width))

    @property
    def saturated(self) -> bool:
        return self.rank >= self.width

    def start_full(self) -> None:
        """Make a width-1 basis full: its one reduced row is [1]."""
        assert self.width == 1 and not self.rank
        self.rows[:] = 1
        self.pivcols = np.zeros(1, dtype=np.intp)
        self.pivotal[0] = True
        self.rank = 1

    def insert_block(self, block: np.ndarray) -> None:
        """Reduce a block (2, k, width) of residues against the basis and
        adjoin its independent rows.

        Rows are taken in block order and become basis rows rank, rank + 1,
        ... A reduced row vanishes in every pivot column, so the elimination
        works on the free columns only. Each surviving row is reduced when
        it is examined; both primes' leads come from one nonzero mask, and
        a row with a lead is scaled to 1 there by the two modular inverses
        at once, then cleared from every other row of the block. Those
        updates are left unreduced: each adds less than (p-1)^2 in
        magnitude, so the block is reduced after every _CHUNK adjoined rows.
        """
        if self.saturated:
            return
        r = self.rank
        free = np.flatnonzero(~self.pivotal)
        cand = block[:, :, free]
        if r:
            _submul_mod(cand, block[:, :, self.pivcols], self.rows[:, :r, free])
        live = np.flatnonzero(cand.any(axis=(0, 2)))
        cand = cand[:, live]
        p0, p1 = (int(p) for p in _PRIMES)
        accepted: list[int] = []
        leads: list[int] = []
        for i in range(len(live)):
            if r + len(accepted) >= self.width:
                break
            row = _mod(cand[:, i])
            nz = row != 0
            lead0, lead1 = nz.argmax(axis=1).tolist()
            if not nz[0, lead0]:
                lead0 = -1
            if not nz[1, lead1]:
                lead1 = -1
            if lead0 != lead1:
                cols = [int(free[c]) if c >= 0 else -1 for c in (lead0, lead1)]
                raise ModularMismatchError(
                    f"reductions disagree (leads {cols[0]} vs {cols[1]}); "
                    "rerun with different moduli"
                )
            if lead0 < 0:
                continue
            col = lead0
            v0, v1 = row[:, col].tolist()
            row *= [[pow(int(v0), -1, p0)], [pow(int(v1), -1, p1)]]
            _mod(row)
            c = _mod(cand[:, :, col].copy())
            c[:, i] = 0
            cand -= c[:, :, None] * row[:, None, :]
            accepted.append(i)
            leads.append(col)
            if len(accepted) % _CHUNK == 0:
                _mod(cand)
        if not accepted:
            return
        new = _mod(cand[:, accepted])
        if r:
            old = self.rows[:, :r, free]
            self.rows[:, :r, free] = _submul_mod(old, old[:, :, leads], new)
        self.rows[:, r : r + len(accepted), free] = new
        self.pivcols = np.concatenate([self.pivcols, free[leads]])
        self.pivotal[free[leads]] = True
        self.rank = r + len(accepted)


def _apply_letters(rows: np.ndarray, letters: np.ndarray, tables: tuple) -> np.ndarray:
    """Right products of every row in a stack rows (2, s, R) with every
    letter in a stack letters (2, R, ell), as an array (2, s, ell, R).

    With table, letter_table and runs the level's product tables
    (_Engine._mult_tables_for), the product of row v and letter u at column
    x is the sum over w of v[table[x, w]] * u[letter_table[x, w]]. A run
    (a, b) of columns has one row of table, so its products are one matrix
    product per prime. Terms w are taken _CHUNK at a time, and columns in
    slices that keep the gathered letters and products to about
    _ELEMENT_BUDGET elements. The rows are gathered once per run, the
    letters once per column, so the caller passes the larger stack as rows.
    """
    table, letter_table, runs = tables
    s, size, ell = rows.shape[1], letters.shape[1], letters.shape[2]
    width = table.shape[1]
    wc = min(width, _CHUNK)
    cc = max(1, _ELEMENT_BUDGET // (2 * ell * (wc + s)))
    out = np.zeros((2, s, size, ell))
    for w0 in range(0, width, wc):
        for a, b in runs:
            factor = rows[:, :, table[a, w0 : w0 + wc]]
            for c0 in range(a, b, cc):
                c1 = min(b, c0 + cc)
                # np.take keeps its result contiguous, so the reshape is a view.
                gathered = np.take(letters, letter_table[c0:c1, w0 : w0 + wc].T, axis=1)
                product = factor @ gathered.reshape(2, -1, (c1 - c0) * ell)
                out[:, :, c0:c1] += product.reshape(2, s, c1 - c0, ell)
        _mod(out)
    return out.transpose(0, 1, 3, 2)


# ---------------------------------------------------------------------------
# Configuration and results.


@dataclass(frozen=True)
class ClosureConfig:
    """The saturation run's one knob.

    max_level: highest level whose dimension is reported. The run carries
        levels 0..max(2, max_level); its caps are the engine's
        (_TUPLE_LIMIT and _BASIS_BUDGET).
    """

    max_level: int


@dataclass
class ClosureResult:
    """dims and exact cover the reported levels 0..max_level; exact[m] says
    that dims[m] equals orbit_counts[m], its upper bound. buffered_dims,
    orbit_counts and letter_counts cover every level the one run carried,
    0..max(2, max_level), so buffered_dims holds the dims of all of them
    and is longer than dims only when max_level < 2; perfbench reads it
    under this name. letter_counts[m] is the rank of level m on the levels closed
    as algebras, whose rows are its letters, and its count of distinct
    letters above."""

    dims: list[int]
    buffered_dims: list[int]
    orbit_counts: list[int]
    letter_counts: list[int]

    @property
    def max_level(self) -> int:
        return len(self.dims) - 1

    @property
    def exact(self) -> list[bool]:
        return [d == r for d, r in zip(self.dims, self.orbit_counts)]


class _Engine:
    """One saturation run of g over levels 0..top; the constructor checks the caps."""

    def __init__(self, g: ColoredGraph, top: int):
        if g.n**top > _TUPLE_LIMIT:
            raise ResourceCapError(
                f"level {top} has {g.n**top} tuples, over the limit {_TUPLE_LIMIT}"
            )
        self.g = g
        self.n = g.n
        self.top = top
        gens = [np.asarray(p, dtype=np.int64) for p in automorphism_group(g).generators]
        # A generator acts on the code a * n + b of level m as on a at
        # level m - 1 and on the vertex b.
        perms = [np.zeros(1, dtype=np.int64) for _ in gens]
        self.levels = []
        for m in range(top + 1):
            if m:
                perms = [np.add.outer(q * self.n, p).ravel() for q, p in zip(perms, gens)]
            self.levels.append(_Level(self.n, m, perms))
        # Each basis allocates its (2, R, R) float64 rows at once.
        need = sum(16 * lv.R**2 for lv in self.levels)
        if need > _BASIS_BUDGET:
            raise ResourceCapError(
                f"the bases of levels 0..{top} need {need} bytes, over the budget {_BASIS_BUDGET}"
            )
        self._build_op_tables()
        # Level _LETTER_ALL_MAX is an algebra with one vertex orbit only.
        transitive = self.levels[min(top, 1)].R == 1
        self.algebra_top = _LETTER_ALL_MAX if transitive else _LETTER_ALL_MAX - 1
        self.bases = [_ModBasis(lv.R) for lv in self.levels]
        # Above algebra_top, letters[m][:, j] is letter j of level m.
        self.letters: list[np.ndarray | None] = [None for _ in range(top + 1)]
        self.letter_counts = [0 for _ in range(top + 1)]
        self.mult_tables: list[tuple | None] = [None for _ in range(top + 1)]
        self.queues: list[deque] = [deque() for _ in range(top + 1)]
        self._stamp = count()

    # -- op tables ---------------------------------------------------------

    def _build_op_tables(self) -> None:
        """ops[kind][m] = (gather, mask, summed): the level-m image under
        kind of a vector v at level m + _SOURCE[kind] is v[..., gather],
        times mask if any, summed over its last axis if summed (_image). By
        arithmetic on tuple codes: rotation moves the last digit first, star
        reverses the digits, incl deletes digit m // 2, masked on even m, and
        expect inserts digit (m + 1) // 2, summed on even m.
        ops["incl"][0] and ops["expect"][top] are None."""
        n = self.n
        rot, star, incl, expect = [], [], [None], []
        for lv in self.levels:
            rest, last = np.divmod(lv.reps, n)
            rot.append((lv.orbit_dense[last * n ** max(lv.m - 1, 0) + rest], None, False))
            star.append((lv.orbit_dense[_reversed_codes(lv.reps, n, lv.m)], None, False))
        for m in range(1, self.top + 1):
            low = n ** (m - 1 - m // 2)
            head, rest = np.divmod(self.levels[m].reps, low * n)
            digit, tail = np.divmod(rest, low)
            gather = self.levels[m - 1].orbit_dense[head * low + tail]
            incl.append((gather, head % n == digit if m % 2 == 0 else None, False))
        for m in range(self.top):
            low = n ** (m // 2)
            head, tail = np.divmod(self.levels[m].reps, low)
            if m % 2 == 0:
                src = ((head * n)[:, None] + np.arange(n)) * low + tail[:, None]
            else:
                src = (head * n + head % n) * low + tail
            expect.append((self.levels[m + 1].orbit_dense[src], None, m % 2 == 0))
        expect.append(None)
        self.ops = {"rot": rot, "star": star, "incl": incl, "expect": expect}

    def _mult_tables_for(self, m: int) -> tuple[np.ndarray, np.ndarray, list[tuple[int, int]]]:
        """The product tables of level m and their runs (_apply_letters):
        a column's row of the first table depends on its leading m - m // 2
        digits alone, so the ascending columns that share them form a run."""
        cached = self.mult_tables[m]
        if cached is not None:
            return cached
        lv = self.levels[m]
        n = self.n
        f = m // 2
        wcodes = np.arange(n**f, dtype=np.int64)
        head, tail = np.divmod(lv.reps, n**f)
        a_code = head[:, None] * (n**f) + wcodes[None, :]
        b_code = _reversed_codes(wcodes, n, f)[None, :] * (n ** (m - f)) + tail[:, None]
        if m % 2 == 1:
            b_code = b_code + (head % n)[:, None] * (n**f)
        bounds = [0, *(np.flatnonzero(np.diff(head)) + 1).tolist(), lv.R]
        tables = (lv.orbit_dense[a_code], lv.orbit_dense[b_code], list(zip(bounds, bounds[1:])))
        self.mult_tables[m] = tables
        return tables

    # -- vectors -----------------------------------------------------------

    def _wrap(self, vec: np.ndarray) -> np.ndarray:
        """Stack an exact small-integer vector into its two modular images."""
        return _mod(np.stack([vec, vec]).astype(np.float64))

    def _jones_vec(self, m: int) -> np.ndarray:
        lv = self.levels[m]
        d = lv.reps[:, None] // self.n ** np.arange(m - 1, -1, -1) % self.n
        if m % 2 == 0:
            ok = np.ones(lv.R, dtype=bool)
            for j in range((m - 2) // 2):
                ok &= d[:, j] == d[:, m - 1 - j]
        else:
            h = (m - 1) // 2
            ok = (d[:, h - 1] == d[:, h]) & (d[:, h] == d[:, h + 1])
            for j in range(h - 1):
                ok &= d[:, j] == d[:, m - 1 - j]
        return self._wrap(ok.astype(np.int64))

    def _seed_vecs(self) -> list[np.ndarray]:
        """The arc matrix of every color, at level 2."""
        lv = self.levels[2]
        i = lv.reps // self.n
        j = lv.reps % self.n
        return [
            self._wrap(_component_walk_matrix(self.g, comp.label)[i, j])
            for comp in self.g.components
        ]

    def _image(self, kind: str, m: int, v: np.ndarray) -> np.ndarray:
        """The level-m image under kind of a vector (2, R) or stack (2, s, R) at its source."""
        gather, mask, summed = self.ops[kind][m]
        out = v[..., gather]
        if mask is not None:
            out = out * mask
        if summed:
            out = _mod(out.sum(axis=-1))
        return out

    # -- scheduling ----------------------------------------------------------
    #
    # Queue items name the row they come from instead of carrying a vector:
    # ("vec", v) an explicit vector; ("rot", i) and ("star", i) row i of this
    # level; ("incl", i) row i of the level below; ("expect", i) row i of the
    # level above; ("mul", i, j) and ("lmul", i, j) row i times letter j,
    # taken for a new row i and, on the algebra levels, where the rows are
    # the letters, for a new letter j, from the one ("products", i, 0) item
    # a new row queues (_take). The row is read when the item is
    # materialised, which the module docstring shows is enough.

    def _push(self, m: int, item: tuple) -> None:
        self.queues[m].append((next(self._stamp), item))

    def _materialise(self, m: int, items: list[tuple]) -> np.ndarray:
        """The candidate vectors of the items: one _image per structural
        kind, of the rows of its source level (_SOURCE).

        The products are taken as one cross product per kind, of the
        distinct rows and letters its items name. Each kind pairs a few new
        factors with every factor of the other side that came before them,
        so its cross product is nearly all used, and a block takes at most
        two _apply_letters calls. A cross product over both kinds at once
        would pair every row with every letter of the block and, on the
        algebra levels, go mostly unused.
        """
        block = np.empty((2, len(items), self.levels[m].R))
        images: dict[str, tuple[list[int], list[int]]] = {}
        products: dict[str, list[tuple[int, int, int]]] = {}
        for pos, item in enumerate(items):
            if item[0] == "vec":
                block[:, pos] = item[1]
            elif item[0] in ("mul", "lmul"):
                products.setdefault(item[0], []).append((pos, item[1], item[2]))
            else:
                at, idx = images.setdefault(item[0], ([], []))
                at.append(pos)
                idx.append(item[1])
        for kind, (at, idx) in images.items():
            block[:, at] = self._image(kind, m, self.bases[m + _SOURCE[kind]].rows[:, idx])
        if products:
            tables = self._mult_tables_for(m)
            rows = self.bases[m].rows
            # Up to algebra_top the letters are the basis rows.
            source = rows if m <= self.algebra_top else self.letters[m]
            for prs in products.values():
                row_ids = sorted({i for _, i, _ in prs})
                letter_ids = sorted({j for _, _, j in prs})
                left, right = rows[:, row_ids], source[:, letter_ids]
                # More letters than rows: (v u)* = u* v* puts the many
                # factors on the cheap side of _apply_letters.
                starred = len(letter_ids) > len(row_ids)
                if starred:
                    left, right = self._image("star", m, right), self._image("star", m, left)
                out = _apply_letters(left, np.ascontiguousarray(right.transpose(0, 2, 1)), tables)
                if starred:
                    out = self._image("star", m, out).transpose(0, 2, 1, 3)
                at, ri, li = zip(*prs)
                ri, li = np.searchsorted(row_ids, ri), np.searchsorted(letter_ids, li)
                block[:, list(at)] = out[:, ri, li]
        return block

    def _accepted(self, m: int, idx: int) -> None:
        """Queue the images and products of the new basis row idx."""
        self._push(m, ("rot", idx))
        self._push(m, ("star", idx))
        if m < self.top:
            self._push(m + 1, ("incl", idx))
        if m > 0:
            self._push(m - 1, ("expect", idx))
        if m <= self.algebra_top:
            self.letter_counts[m] = idx + 1
        self._push(m, ("products", idx, 0))

    def _take(self, m: int) -> list[tuple]:
        """Up to _BLOCK items from the front of level m's queue.

        ("products", i, k) stands for the products of row i from the k-th
        on: on an algebra level i times the rows before it, then the rows up
        to i times i; above, i times every letter. It is expanded as far as
        the block has room, the rest going back with its stamp, which gives
        the order of queueing them one by one; a saturated level never
        expands the rest."""
        queue = self.queues[m]
        algebra = m <= self.algebra_top
        items: list[tuple] = []
        while queue and len(items) < _BLOCK:
            stamp, item = queue.popleft()
            if item[0] != "products":
                items.append(item)
                continue
            _, i, k = item
            total = 2 * i + 1 if algebra else self.letter_counts[m]
            end = min(total, k + _BLOCK - len(items))
            for t in range(k, end):
                items.append(("mul", i, t) if t < i or not algebra else ("lmul", t - i, i))
            if end < total:
                queue.appendleft((stamp, ("products", i, end)))
        return items

    def _core_letters(self) -> None:
        """Rotated strand-lifts of boxes and cup-caps, the "words" letters
        of the levels above algebra_top, each distinct vector stored
        once, in the order first generated. They are built before any row
        exists, so no product is queued for them here."""
        if self.top <= self.algebra_top:
            return
        lifted = self._seed_vecs()
        lifted = lifted + [self._image("star", 2, v) for v in lifted]
        for m in range(3, self.top + 1):
            lifted = [self._image("incl", m, v) for v in lifted]
            if m <= self.algebra_top:
                continue
            distinct: dict[bytes, np.ndarray] = {}
            for v in lifted + [self._jones_vec(m)]:
                for _ in range(m):
                    distinct.setdefault(v.tobytes(), v)
                    v = self._image("rot", m, v)
            self.letters[m] = np.stack(list(distinct.values()), axis=1)
            self.letter_counts[m] = len(distinct)

    # -- main loop -----------------------------------------------------------

    def _start_full_levels(self) -> None:
        """Fill every level with one orbit and queue what its row yields
        (module docstring): level 0 always, so its unit needs no seed."""
        for m, basis in enumerate(self.bases):
            if basis.width == 1:
                basis.start_full()
                self._accepted(m, 0)

    def run(self) -> None:
        self._core_letters()
        self._start_full_levels()
        for m in range(2, self.top + 1):
            self._push(m, ("vec", self._jones_vec(m)))
        if self.top >= 2:
            for v in self._seed_vecs():
                self._push(2, ("vec", v))
        while True:
            heads = [(q[0][0], m) for m, q in enumerate(self.queues) if q]
            if not heads:
                break
            m = min(heads)[1]
            queue, basis = self.queues[m], self.bases[m]
            if basis.saturated:
                queue.clear()
                continue
            items = self._take(m)
            rank = basis.rank
            basis.insert_block(self._materialise(m, items))
            for idx in range(rank, basis.rank):
                self._accepted(m, idx)

    def dims(self) -> list[int]:
        return [b.rank for b in self.bases]


def closure(g: ColoredGraph, config: ClosureConfig) -> ClosureResult:
    """Dimension of each tensor level generated by the graph's boxes.

    Levels 0..max_level are reported, from one engine run with top level
    max(2, max_level). A reported level whose dimension equals its orbit
    count R_m is exact; any other is a certified lower bound (see the
    module docstring). The engine raises ResourceCapError when its caps
    refuse the run.
    """
    if config.max_level < 0:
        raise ValueError("max_level must be >= 0")
    engine = _Engine(g, max(2, config.max_level))
    engine.run()
    all_dims = engine.dims()
    return ClosureResult(
        dims=all_dims[: config.max_level + 1],
        buffered_dims=all_dims,
        orbit_counts=[lv.R for lv in engine.levels],
        letter_counts=engine.letter_counts,
    )


def bounded_c1(g: ColoredGraph) -> tuple[int, list[tuple[GaussianRational, ...]]]:
    """Lower bound for the dimension of the level-1 fixed space.

    Every vector a closure run to level 3 keeps is independent modulo a
    prime, hence genuinely independent, so the count is a certified lower
    bound; a value of 2 or more rules out a one-dimensional fixed algebra.
    Above 1 the witnesses are the indicator vectors, by ascending (re, im),
    of the level sets of the first uneven diagonal of a power of the total
    matrix up to LOOP_SCREEN_LENGTH, which every symmetry fixes."""
    rank = closure(g, ClosureConfig(max_level=3)).dims[1]
    if rank <= 1:
        return rank, []
    t = power = total_matrix(g)
    for _ in range(2, LOOP_SCREEN_LENGTH + 1):
        power = power @ t
        diag = [power[i, i] for i in range(g.n)]
        values = sorted(set(diag), key=lambda z: (z.re, z.im))
        if len(values) > 1:
            return rank, [tuple(GaussianRational.of(int(d == v)) for d in diag) for v in values]
    return rank, []
