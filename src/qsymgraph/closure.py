"""Fixed-point space dimensions from graph boxes, computed by saturation.

The engine works level by level in the spin-model tower over the vertex
set, but compresses every level to one coordinate per orbit of the
ordinary automorphism group: every generated tensor is invariant under
it, every structural operation commutes with it, and dimensions are
unchanged.

Rank decisions use reduced row echelon arithmetic modulo two fixed
31-bit primes, kept in lockstep. A family of vectors independent modulo
a prime is independent over the rationals, so every reported dimension
is a certified lower bound on the exact one; a vector judged dependent
would have to vanish modulo both primes at once to be misjudged, and
any disagreement between the two reductions raises ModularMismatchError
instead of continuing. The test suite pins the dimensions of the worked
examples against closed forms and against the all-rational reference
operations in spinplanar, which use no modular arithmetic at all.

Every color is seeded by its real 0/1 arc matrix A, symmetric for an
edge color and one-way for an oriented one: a magic unitary commutes
with the paper's oriented box X = i(A - A^T) exactly when it commutes
with A and with A^T (the color-splitting lemma), and A = -(X.X + iX)/2
with X.X the entrywise square, so A and X generate the same fixed-point
spaces. A^T needs no seed of its own, because it is the star of A at
level 2 and the star of every basis vector is queued.

Multiplicative saturation multiplies basis vectors on the right by a
letter set. At low levels every basis vector is a letter, which is plain
algebra closure. At higher levels the default "words" policy keeps only
rotated strand-lifts of the graph boxes and the cup-cap elements as
letters, counting on words in these letters to fill the level; that is
what makes the larger examples tractable. The "full" policy instead
promotes every vector produced by a non-multiplicative operation to a
letter, which is slower but self-contained.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .graphs import ColoredGraph, _component_walk_matrix, total_matrix
from .scalars import GaussianRational

_PRIMES = np.array([2147483647, 2147483587], dtype=np.int64)
_LETTER_ALL_MAX = 3  # levels up to here treat every basis vector as a letter


class ModularMismatchError(RuntimeError):
    """The two modular reductions disagreed; the moduli need changing."""


class ResourceCapError(ValueError):
    """A configured size cap refused the computation before it started."""


def _digit_table(n: int, m: int, codes: np.ndarray) -> np.ndarray:
    if m == 0:
        return np.zeros((len(codes), 0), dtype=np.int64)
    weights = n ** np.arange(m - 1, -1, -1, dtype=np.int64)
    return (codes[:, None] // weights[None, :]) % n


class _Level:
    """Orbit structure of the automorphism group acting on m-tuples."""

    __slots__ = ("n", "m", "size", "reps", "R", "orbit_dense", "digits", "weights")

    def __init__(self, n: int, m: int, gens: list[np.ndarray]):
        self.n = n
        self.m = m
        self.size = n**m
        codes = np.arange(self.size, dtype=np.int64)
        self.weights = n ** np.arange(m - 1, -1, -1, dtype=np.int64)
        labels = codes
        if gens and m > 0:
            digits_all = _digit_table(n, m, codes)
            perms = [g[digits_all] @ self.weights for g in gens]
            labels = codes.copy()
            changed = True
            while changed:
                changed = False
                for p in perms:
                    merged = np.minimum(labels, labels[p])
                    if not np.array_equal(merged, labels):
                        labels = merged
                        changed = True
                shortcut = labels[labels]
                if not np.array_equal(shortcut, labels):
                    labels = shortcut
                    changed = True
        self.reps = np.unique(labels)
        self.R = len(self.reps)
        self.orbit_dense = np.searchsorted(self.reps, labels).astype(np.int64)
        self.digits = _digit_table(n, m, self.reps)


# ---------------------------------------------------------------------------
# Reduced echelon bases modulo the two primes.
#
# A vector is stored as an int64 array of shape (2, R), the leading axis
# being the prime. Rows are kept pivot-normalized to 1 with pivot columns
# cleared everywhere else, so reducing a vector is a single matrix
# product rather than a row-by-row sweep.


def _lead(row: np.ndarray) -> int:
    nz = np.flatnonzero(row)
    return int(nz[0]) if len(nz) else -1


class _ModBasis:
    __slots__ = ("width", "rank", "pivcols", "piv_arr", "rows")

    def __init__(self, width: int):
        self.width = width
        self.rank = 0
        self.pivcols: list[int] = []
        self.piv_arr = np.empty(0, dtype=np.int64)
        self.rows = np.zeros((2, 4, width), dtype=np.int64)

    @property
    def saturated(self) -> bool:
        return self.rank >= self.width

    def _grow(self) -> None:
        if self.rank < self.rows.shape[1]:
            return
        grown = np.zeros((2, self.rows.shape[1] * 2, self.width), dtype=np.int64)
        grown[:, : self.rank] = self.rows[:, : self.rank]
        self.rows = grown

    def _reduce(self, vec: np.ndarray) -> np.ndarray:
        if self.rank == 0:
            return vec % _PRIMES[:, None]
        out = np.empty_like(vec)
        for k in range(2):
            p = int(_PRIMES[k])
            c = vec[k][self.piv_arr]
            drop = (c[:, None] * self.rows[k, : self.rank] % p).sum(axis=0)
            out[k] = (vec[k] - drop) % p
        return out

    def insert(self, vec: np.ndarray) -> bool:
        """Reduce against the basis and adjoin if independent."""
        if self.saturated:
            return False
        vec = self._reduce(vec)
        lead0, lead1 = _lead(vec[0]), _lead(vec[1])
        if lead0 != lead1:
            raise ModularMismatchError(
                f"reductions disagree (leads {lead0} vs {lead1}); "
                "rerun with different moduli"
            )
        if lead0 < 0:
            return False
        col = lead0
        self._grow()
        for k in range(2):
            p = int(_PRIMES[k])
            inv = pow(int(vec[k, col]), p - 2, p)
            row = vec[k] * inv % p
            c = self.rows[k, : self.rank, col].copy()
            self.rows[k, : self.rank] = (
                self.rows[k, : self.rank] - c[:, None] * row % p
            ) % p
            self.rows[k, self.rank] = row
        self.pivcols.append(col)
        self.piv_arr = np.asarray(self.pivcols, dtype=np.int64)
        self.rank += 1
        return True

    def row(self, i: int) -> np.ndarray:
        return self.rows[:, i]


# ---------------------------------------------------------------------------
# Configuration and results.


@dataclass(frozen=True)
class ClosureConfig:
    """Knobs for the saturation run.

    max_level: highest level whose dimension is reported.
    buffer: extra levels carried above max_level so that round trips
        through them can feed back down before dimensions are read off.
    letter_mode: "words" (default) or "full", see the module docstring.
    verify_convergence: rerun with one more buffer level and require the
        reported dimensions to agree; costly, so off by default.
    size_limit: refuse levels with more than this many raw tuples.
    """

    max_level: int
    buffer: int = 1
    letter_mode: str = "words"
    verify_convergence: bool = False
    size_limit: int = 2_000_000


@dataclass
class ClosureResult:
    dims: list[int]
    buffered_dims: list[int]
    converged: bool | None
    orbit_counts: list[int]
    letter_counts: list[int]

    @property
    def max_level(self) -> int:
        return len(self.dims) - 1


class _Engine:
    def __init__(self, g: ColoredGraph, top: int, letter_mode: str, size_limit: int):
        if letter_mode not in ("words", "full"):
            raise ValueError(f"unknown letter mode {letter_mode!r}")
        self.n = g.n
        self.top = top
        if self.n**top > size_limit:
            raise ResourceCapError(
                f"level {top} has {self.n**top} tuples, over the limit {size_limit}"
            )
        self.letter_mode = letter_mode
        from .symmetry import automorphism_group

        aut = automorphism_group(g)
        gens = [np.asarray(p, dtype=np.int64) for p in aut.generators]
        self.levels = [_Level(self.n, m, gens) for m in range(top + 1)]
        self._build_op_tables()
        self.bases = [_ModBasis(lv.R) for lv in self.levels]
        self.letters: list[list[tuple]] = [[] for _ in range(top + 1)]
        self.letter_seen: list[set[bytes]] = [set() for _ in range(top + 1)]
        self.mult_tables: list[tuple[np.ndarray, np.ndarray] | None] = [
            None for _ in range(top + 1)
        ]
        self.queue: deque = deque()

    # -- op tables ---------------------------------------------------------

    def _build_op_tables(self) -> None:
        top, n = self.top, self.n
        self.rot_gather = []
        self.rev_gather = []
        for lv in self.levels:
            d = lv.digits
            if lv.m <= 1:
                idx = np.arange(lv.R, dtype=np.int64)
                self.rot_gather.append(idx)
                self.rev_gather.append(idx)
            else:
                rot_src = np.concatenate([d[:, -1:], d[:, :-1]], axis=1)
                self.rot_gather.append(lv.orbit_dense[rot_src @ lv.weights])
                self.rev_gather.append(lv.orbit_dense[d[:, ::-1] @ lv.weights])
        # incl_map[m]: build a level-m vector from one at m-1
        self.incl_map: list[tuple[np.ndarray, np.ndarray | None] | None] = [None]
        for m in range(1, top + 1):
            lv, below = self.levels[m], self.levels[m - 1]
            d = lv.digits
            mp = m - 1
            if mp % 2 == 0:
                cut = mp // 2
                src = np.delete(d, cut, axis=1)
                self.incl_map.append((below.orbit_dense[src @ below.weights], None))
            else:
                h = (mp + 1) // 2
                mask = d[:, h - 1] == d[:, h]
                src = np.delete(d, h, axis=1)
                self.incl_map.append((below.orbit_dense[src @ below.weights], mask))
        # expect_map[m]: build a level-m vector from one at m+1
        self.expect_map: list[tuple[np.ndarray, bool] | None] = []
        for m in range(top):
            lv, above = self.levels[m], self.levels[m + 1]
            d = lv.digits
            if m % 2 == 0:
                cut = m // 2
                tabs = [
                    above.orbit_dense[np.insert(d, cut, l, axis=1) @ above.weights]
                    for l in range(n)
                ]
                self.expect_map.append((np.stack(tabs, axis=1), True))
            else:
                h = (m + 1) // 2
                src = np.insert(d, h, d[:, h - 1], axis=1)
                self.expect_map.append((above.orbit_dense[src @ above.weights], False))
        self.expect_map.append(None)

    def _mult_tables_for(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        cached = self.mult_tables[m]
        if cached is not None:
            return cached
        lv = self.levels[m]
        n = self.n
        h = (m + 1) // 2
        f = m // 2
        wcodes = np.arange(n**f, dtype=np.int64)
        if f > 0:
            wd = _digit_table(n, f, wcodes)
            fw = n ** np.arange(f - 1, -1, -1, dtype=np.int64)
            rev_codes = wd[:, ::-1] @ fw
            head = lv.digits[:, :h] @ (n ** np.arange(h - 1, -1, -1, dtype=np.int64))
            tail = lv.digits[:, h:] @ fw
        else:
            rev_codes = wcodes
            head = np.zeros(lv.R, dtype=np.int64)
            tail = np.zeros(lv.R, dtype=np.int64)
        a_code = head[:, None] * (n**f) + wcodes[None, :]
        b_code = rev_codes[None, :] * (n ** (m - f)) + tail[:, None]
        if m % 2 == 1:
            b_code = b_code + lv.digits[:, h - 1][:, None] * (n**f)
        tables = (lv.orbit_dense[a_code], lv.orbit_dense[b_code])
        self.mult_tables[m] = tables
        return tables

    # -- vectors -----------------------------------------------------------

    def _wrap(self, vec: np.ndarray) -> np.ndarray:
        """Stack an exact small-integer vector into its two modular images."""
        return vec.astype(np.int64)[None, :] % _PRIMES[:, None]

    def _unit_vec(self) -> np.ndarray:
        return self._wrap(np.ones(1, dtype=np.int64))

    def _jones_vec(self, m: int) -> np.ndarray:
        lv = self.levels[m]
        d = lv.digits
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

    def _seed_vecs(self, g: ColoredGraph) -> list[np.ndarray]:
        """The arc matrix of every color, at level 2."""
        lv = self.levels[2]
        i = lv.reps // self.n
        j = lv.reps % self.n
        return [
            self._wrap(_component_walk_matrix(g, comp.label)[i, j])
            for comp in g.components
        ]

    # -- structural operations on coordinate vectors ------------------------

    def _rotate(self, m: int, v: np.ndarray) -> np.ndarray:
        return v[:, self.rot_gather[m]]

    def _star(self, m: int, v: np.ndarray) -> np.ndarray:
        return v[:, self.rev_gather[m]]

    def _incl(self, m: int, v: np.ndarray) -> np.ndarray:
        gather, mask = self.incl_map[m + 1]
        out = v[:, gather]
        if mask is not None:
            out = out * mask
        return out

    def _expect(self, m: int, v: np.ndarray) -> np.ndarray:
        table, summed = self.expect_map[m - 1]
        out = v[:, table]
        if summed:
            out = out.sum(axis=-1) % _PRIMES[:, None]
        return out

    def _make_letter(self, m: int, vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        a_orb, b_orb = self._mult_tables_for(m)
        return a_orb, vec[:, b_orb]

    def _apply_letter(self, letter: tuple[np.ndarray, np.ndarray], v: np.ndarray) -> np.ndarray:
        a_orb, b = letter
        return (v[:, a_orb] * b % _PRIMES[:, None, None]).sum(axis=2) % _PRIMES[:, None]

    # -- scheduling ----------------------------------------------------------

    def _insert(self, m: int, vec: np.ndarray, origin: str) -> bool:
        if not self.bases[m].insert(vec):
            return False
        idx = self.bases[m].rank - 1
        row = self.bases[m].row(idx)
        self.queue.append(("vec", m, self._rotate(m, row), "op"))
        self.queue.append(("vec", m, self._star(m, row), "op"))
        if m < self.top:
            self.queue.append(("vec", m + 1, self._incl(m, row), "op"))
        if m > 0:
            self.queue.append(("vec", m - 1, self._expect(m, row), "op"))
        for j in range(len(self.letters[m])):
            self.queue.append(("mul", m, idx, j))
        if self._letter_policy(m, origin):
            self._register_letter(m, row)
        return True

    def _letter_policy(self, m: int, origin: str) -> bool:
        if m <= _LETTER_ALL_MAX:
            return True
        if self.letter_mode == "full":
            return origin != "mult"
        return False

    def _register_letter(self, m: int, vec: np.ndarray) -> None:
        key = vec.tobytes()
        if key in self.letter_seen[m]:
            return
        self.letter_seen[m].add(key)
        j = len(self.letters[m])
        self.letters[m].append(self._make_letter(m, vec))
        for i in range(self.bases[m].rank):
            self.queue.append(("mul", m, i, j))

    def _core_letters(self, g: ColoredGraph) -> None:
        """Rotated strand-lifts of boxes and cup-caps, the "words" letters."""
        if self.top < 2:
            return
        lifted = self._seed_vecs(g)
        lifted = lifted + [self._star(2, v) for v in lifted]
        for m in range(2, self.top + 1):
            if m > 2:
                lifted = [self._incl(m - 1, v) for v in lifted]
            batch = lifted + [self._jones_vec(m)]
            for base in batch:
                v = base
                for _ in range(m):
                    self._register_letter(m, v)
                    v = self._rotate(m, v)

    # -- main loop -----------------------------------------------------------

    def run(self, g: ColoredGraph) -> None:
        if self.letter_mode == "words":
            self._core_letters(g)
        self.queue.append(("vec", 0, self._unit_vec(), "op"))
        for m in range(2, self.top + 1):
            self.queue.append(("vec", m, self._jones_vec(m), "op"))
        if self.top >= 2:
            for v in self._seed_vecs(g):
                self.queue.append(("vec", 2, v, "op"))
        while self.queue:
            item = self.queue.popleft()
            if item[0] == "vec":
                _, m, vec, origin = item
                self._insert(m, vec, origin)
            else:
                _, m, i, j = item
                if self.bases[m].saturated:
                    continue
                prod = self._apply_letter(self.letters[m][j], self.bases[m].row(i))
                self._insert(m, prod, "mult")

    def dims(self) -> list[int]:
        return [b.rank for b in self.bases]


def closure(g: ColoredGraph, config: ClosureConfig) -> ClosureResult:
    """Dimension of each tensor level generated by the graph's boxes.

    Levels 0..max_level are reported; the run itself goes buffer levels
    higher so material can flow up and come back down. Raising the buffer
    can only grow the reported dimensions, never shrink them; the
    convergence check verifies they have stopped moving.
    """
    if config.max_level < 0:
        raise ValueError("max_level must be >= 0")
    if config.buffer < 0:
        raise ValueError("buffer must be >= 0")
    top = max(2, config.max_level + config.buffer)
    engine = _Engine(g, top, config.letter_mode, config.size_limit)
    engine.run(g)
    all_dims = engine.dims()
    dims = all_dims[: config.max_level + 1]
    converged: bool | None = None
    if config.verify_convergence:
        probe = _Engine(g, top + 1, config.letter_mode, config.size_limit)
        probe.run(g)
        converged = probe.dims()[: config.max_level + 1] == dims
    return ClosureResult(
        dims=dims,
        buffered_dims=all_dims,
        converged=converged,
        orbit_counts=[lv.R for lv in engine.levels],
        letter_counts=[len(ls) for ls in engine.letters],
    )


def _loop_certificate(g: ColoredGraph, lmax: int = 6) -> list[tuple[GaussianRational, ...]]:
    """Indicator vectors of the level sets of the first uneven loop count.

    Powers of the total box have diagonals fixed by every symmetry of the
    graph, so splitting the vertices by a non-constant diagonal yields
    explicit non-constant fixed vertex functions.
    """
    t = total_matrix(g)
    power = t
    for _ in range(2, lmax + 1):
        power = power @ t
        diag = [power[i, i] for i in range(g.n)]
        classes: dict[GaussianRational, list[int]] = {}
        for i, value in enumerate(diag):
            classes.setdefault(value, []).append(i)
        if len(classes) > 1:
            out = []
            for value in sorted(classes, key=lambda z: (z.re, z.im)):
                members = set(classes[value])
                out.append(
                    tuple(
                        GaussianRational.of(1 if i in members else 0) for i in range(g.n)
                    )
                )
            return out
    return []


def bounded_c1(
    g: ColoredGraph, ceiling: int = 3
) -> tuple[int, list[tuple[GaussianRational, ...]]]:
    """Lower bound for the dimension of the level-1 fixed space.

    Every vector the engine keeps is independent modulo a prime, hence
    genuinely independent, so the count is a certified lower bound; a
    value of 2 or more rules out a one-dimensional fixed algebra. When
    that happens the second component carries explicit witness functions
    built from loop counts (empty in the odd case that loop counts up to
    length 6 stay constant even though the engine found a splitting).
    """
    engine = _Engine(g, max(2, ceiling), "words", 2_000_000)
    engine.run(g)
    rank = engine.bases[1].rank
    if rank <= 1:
        return rank, []
    return rank, _loop_certificate(g)
