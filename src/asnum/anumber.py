"""Two independent a-number computations for a basic cover, plus the p-rank.

Fast path: a tuple of line differentials killed by the Cartier operator, one
per level, lifts level by level to a differential on the cover.  The lift is
linear, and the obstruction matrix records, for each basis tuple, the
coefficients that can spoil its regularity; the a-number is the nullity of
that matrix.

Oracle path: the matrix of the Cartier operator of the cover itself on the
full monomial basis x^j y^i dx of regular differentials, and its kernel
dimension.  Since y = y^p - f, y^i = sum_t comb(i, t) y^(pt) (-f)^(i-t), so
the entry at row x^r y^t dx and column x^j y^i dx is comb(i, t) times the
coefficient of x^(p(r+1)-1-j) in (-f)^(i-t).  Each level block is a
strided view of the zero-padded (-f)^(i-t), its windows p apart and read
backwards, so the build makes no index or mask arrays.  The paths share only
the table of powers (-f)^e, so their agreement is a meaningful end-to-end
check.

The power table and the obstruction build take a stack of polynomials of one
degree, one row each, since every matrix shape depends only on (p, d): the
survey engine builds a whole chunk of covers in one pass, and a single curve
is a stack of one.  Every stack holds the sample axis last, (..., N), inside
and at every boundary: each gather and shifted add moves contiguous runs of
N entries, the table hands on (len, N) powers, the build returns a
(*live_shape, N) stack, and linalg.stack_ranks takes it as it is.  A single
curve reads its one sample, [..., 0].  The build reads only the Layout of
(p, d) (a curve is one), so a survey passes one layout for the whole chunk.
Both obstruction builds place their columns and rows by it (col_start,
row_start and its column map).

Only the live block of that layout can be nonzero for any f of degree d: the
level-0 columns lift to themselves, and the correction at level t has degree
at most live_bound[t], so the rows above it are zero.  The dense build makes
only the live block, with its compressed rows up to that bound and the
powers (-f)^e that its levels reach; the survey engine and a_number_fast
rank it, and obstruction_matrix sets it in zeros.  The builds' int64 sums
are checked for headroom, and each dense matrix's size against
numutil.MAX_CELLS, before anything is built.  The same bounds cap every
value the power table and the obstruction build hold, so both run in the
narrowest of int16, int32 and int64 that holds them
(numutil.narrowest_int_dtype) and hand their arrays on in it; only the
public obstruction_matrix and cartier_matrix are int64.  The tests check
every column of the obstruction matrix against a lift of one tuple at a
time in exact FpPoly arithmetic, which builds its own powers and enumerates
its own basis.

obstruction_coords makes the same sweep in coordinate form for f with few
terms: it follows only the nonzero terms of (-f)^e, from a power table of
its own in Python ints, and emits (row, col, value) triples, so its cost
follows the nonzeros instead of the matrix size.  The unit monomials a term
x^e sends to level t form one arithmetic progression of keys, of step
dim_domain + p - 1 (x^(j+p) lands one compressed row down and p - 1
columns on), and depend on no lower level: a Python loop over the level
pairs and terms records each progression as a few scalars, one expansion
makes every level's unit coordinates at once, and each level then adds
its shifted higher components and sums duplicates in one sort.  So numpy
runs a fixed number of calls per level, and none per term.  Like the dense
build, it sweeps only the levels 0 .. top that have columns, and builds
nothing for an empty live block.

a_number_fast is the one fast path for a single curve, and the only place
that picks a build: an f with at most three nonzero terms whose powers stay
sparse ((-f)^top can have at most _COORDS_MAX_FILL terms), every family
member among them, takes the coordinate build, ranked in coordinate form
(linalg.coords_rank_nullity), and any other f the dense live block, which
is faster there.  So a sparse f whose dense live block would pass
numutil.MAX_CELLS is still ranked.  The coordinate build has a limit of its
own: the entries it holds, table terms, runs and coordinates, are counted
against numutil.MAX_CELLS before each stage grows them.  The tests check
that both builds give the same matrix.

The p-rank is 0.  The oracle certifies it on the matrix it builds: in the
level-major basis the Cartier operator sends x^j y^i dx either to a lower
level or, on level i, to exponent (j+1)/p - 1 < j, so its matrix is strictly
upper triangular and hence nilpotent; the matrix is checked for that shape,
never assumed to have it.  The fast report builds no Cartier matrix and takes
p-rank 0 from the Deuring-Shafarevich formula (one totally ramified branch
point over the projective line).
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .bounds import lower_bound_single
from .curve import BasicCurve, Layout
from .linalg import FpMatrix, coords_rank_nullity, rank_nullity
from .numutil import _reduce, check_cells, check_int64_sum, narrowest_int_dtype


class InvariantViolation(AssertionError):
    """A structural invariant of the computation failed: a bug, not bad input."""


def _neg_f_power_stack(p: int, coeffs, top: int | None = None) -> list[np.ndarray]:
    """(e*(L-1) + 1, N) arrays of (-f)^e mod p for e = 0 .. top, one column per f.

    ``top`` defaults to p - 1; the obstruction build reads fewer powers.
    ``coeffs`` holds N coefficient rows of one length L, every entry a
    residue in [0, p): callers pass FpPoly coefficients, or survey rows that
    _a_numbers has checked.  Each product entry sums at most L terms below
    p^2, checked for int64 headroom before anything is built, and the table
    is built in the narrowest integer dtype that holds L * (p-1)^2
    (numutil.narrowest_int_dtype); the same bound covers the products of a
    reduced binomial with a table entry in both matrix builds.  Every power
    holds the sample axis last, as every stack of the package does.  Each is
    built as a (len, N) array by one shifted add of whole rows per
    coefficient column k of f that is nonzero in some row,
    nxt[k : k + len] += neg[k] * prev, and handed on as built; when there
    are fewer rows than such columns, as for a single large curve, each
    power is one np.convolve per row instead, handed on as a transposed
    view.  (-f)^1 is -f itself.
    """
    check_int64_sum(len(coeffs[0]), (p - 1) ** 2, "(-f)^e table")
    dtype = narrowest_int_dtype(len(coeffs[0]) * (p - 1) ** 2)
    top = p - 1 if top is None else top
    neg = _reduce(p - np.asarray(coeffs, dtype=dtype), p)
    n, length = neg.shape
    if top <= 1:
        return [np.ones((1, n), dtype=dtype), neg.T][: top + 1]
    cols = np.flatnonzero(neg.any(axis=0)).tolist()
    if n < len(cols):
        per_row = []
        for f in neg:
            row = [np.ones(1, dtype=dtype)]
            for _ in range(top):
                row.append(_reduce(np.convolve(row[-1], f), p))
            per_row.append(row)
        return [np.array(power).T for power in zip(*per_row)]
    # each shifted add scales whole contiguous rows
    neg = np.ascontiguousarray(neg.T)
    powers = [np.ones((1, n), dtype=dtype), neg]
    for _ in range(1, top):
        prev = powers[-1]
        nxt = np.zeros((len(prev) + length - 1, n), dtype=dtype)
        for k in cols:
            nxt[k : k + len(prev)] += neg[k] * prev
        powers.append(_reduce(nxt, p))
    return powers


def _check_build_headroom(layout: Layout) -> int:
    """Raise HeadroomError unless the obstruction builds' int64 sums fit, and
    return the bound they are checked against.

    Level t has at most (comp_bound[t] + 1) // p compressed rows (row u is
    exponent p*u + p - 1), and each entry adds at most p - 1 sources of that
    many products below p^2.
    """
    p = layout.p
    rows = max((layout.comp_bound[0] + 1) // p, 0)
    check_int64_sum((p - 1) * rows, (p - 1) ** 2, "obstruction build")
    return (p - 1) * rows * (p - 1) ** 2


def _top_level(layout: Layout) -> int:
    """The highest level with columns.  The levels with columns are the
    prefix 0 .. top, since reg_bound never rises, so the levels above add
    nothing to either obstruction build."""
    col = layout.col_start
    return max((i for i in range(layout.p) if col[i + 1] > col[i]), default=0)


def obstruction_matrix(curve: BasicCurve) -> FpMatrix:
    """Matrix of the obstruction map over the kernel-tuple basis.

    Columns and rows follow the curve's layout (Layout: col_start,
    row_start).  The live block is the one sample of a stack built by
    obstruction_stack, set in int64 zeros at its place (Layout:
    live_start).
    """
    _check_build_headroom(curve)
    shape = (curve.dim_obstruction, curve.dim_domain)
    check_cells(*shape, "obstruction matrix")
    live = obstruction_stack(curve, [curve.f.coeffs])[..., 0]
    mat = np.zeros(shape, dtype=np.int64)
    for t in range(curve.p):
        lo, hi = curve.live_start[t : t + 2]
        start = curve.row_start[t]
        mat[start : start + hi - lo, curve.col_start[1] :] = live[lo:hi]
    return FpMatrix._of_residues(curve.p, mat)


def obstruction_stack(layout: Layout, coeffs) -> np.ndarray:
    """Live blocks of the obstruction matrices of y^p - y = f, f the rows of ``coeffs``.

    The rows are polynomials of degree layout.d over F_p; the layout depends
    only on (p, d), so ``layout`` supplies it and the result is a
    (*layout.live_shape, N) stack, the sample axis last, the same arithmetic
    for every row; each live block must stay within numutil.MAX_CELLS.
    Outside the live block (Layout) the matrices are zero, so a rank of the
    stack is the rank of the full matrix.  Below its top level a reconstructed component
    lives on exponents = -1 (mod p) only, so level t is stored compressed:
    row u stands for exponent p*u + p - 1, up to live_bound[t].  One
    downward sweep t = top-1 .. 0, top the highest level with columns,
    covers every basis column at once and reads (-f)^e for e <= top; at
    level t it touches only the columns whose top level is above t.  Every
    array of the sweep holds the sample axis last: the padded powers g are
    (len, N) and the level blocks (rows, cols, N).  A source level src adds
    comb(src, t) * omega[src] * g with g = (-f)^(src-t) in two parts: the
    unit monomials x^j of the columns topped at src are one gather of whole
    rows of g along axis 0, g[p*u + p - 1 - j], and the compressed
    components w of the higher columns are a shifted-add convolution with
    g[::p] alone, sub[k : k + m] += g[::p][k] * w, since only exponents
    divisible by p move -1 (mod p) onto itself.  The sources run
    from top down to t + 1, so each level's columns are first set by their
    own gather, a plain assignment, before the shifted adds of lower sources
    reach them; g is zero-padded on the left by max(j) - (p - 1) and on the
    right to p * rows, so every gather index is in range and needs no mask.
    The live rows of level t are then a slice of its compressed block.  An
    entry holds one gathered residue and at most p - 2 convolutions, within
    the bound _check_build_headroom checks, so the padded powers, the level
    blocks and the returned stack are in the narrowest integer dtype that
    holds it.  With no live rows, as at d <= 2, the stack is zero and
    nothing is built.
    """
    p = layout.p
    dtype = narrowest_int_dtype(_check_build_headroom(layout))
    shape = layout.live_shape
    check_cells(*shape, "obstruction matrix")
    if shape[0] == 0:
        return np.zeros((*shape, len(coeffs)), dtype=dtype)
    col, live = layout.col_start, layout.live_start
    top = _top_level(layout)
    negf = _neg_f_power_stack(p, coeffs, top)
    n = negf[0].shape[1]
    # each level's column exponents, by the Layout's column map
    exps = [k + k // (p - 1) for k in map(np.arange, np.diff(col))]
    out = np.zeros((*shape, n), dtype=dtype)
    # comp[t]: compressed level-t components of the columns col[t+1]: onwards
    comp = [np.zeros((0, 0, n), dtype=dtype)] * p
    for t in range(top - 1, -1, -1):
        base = col[t + 1]
        rows = (layout.live_bound[t] + 1) // p
        # every column is first written by its own level's gather
        acc = np.empty((rows, col[p] - base, n), dtype=dtype)
        for src in range(top, t, -1):
            # g[left + i] is the coefficient of x^i in comb(src, t) *
            # (-f)^(src-t), zero-padded so that every unit gather is in range
            left = max(int(exps[src][-1]) - (p - 1), 0)
            power = negf[src - t][: p * rows]
            g = np.zeros((left + p * rows, n), dtype=dtype)
            seg = g[left : left + len(power)]
            seg[...] = power
            scale = math.comb(src, t) % p
            if scale != 1:
                seg *= scale
                _reduce(seg, p)
            idx = p * np.arange(rows)[:, None] + (p - 1 + left) - exps[src]
            acc[:, col[src] - base : col[src + 1] - base] = np.take(g, idx, axis=0)
            w = comp[src]
            if w.size:
                m = len(w)
                sub = acc[:, col[src + 1] - base :]
                gp = g[left::p]
                for k in np.flatnonzero(gp.any(axis=1)).tolist():
                    sub[k : k + m] += gp[k] * w
        # -acc mod p, as p - (acc mod p) reduced once more
        np.subtract(p, _reduce(acc, p), out=acc)
        _reduce(acc, p)
        comp[t] = acc
        if live[t + 1] > live[t]:
            u = (layout.slot_start[t] - (p - 1)) // p
            out[live[t] : live[t + 1], base - col[1] :] = acc[u : u + live[t + 1] - live[t]]
    return out


def _merge(keys: np.ndarray, values: np.ndarray, p: int):
    """The distinct keys, ascending, with -(sum of their values) mod p;
    keys whose sum vanishes are dropped.  The sums stay in int64."""
    order = np.argsort(keys)
    keys, values = keys[order], values[order]
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    if keys.size:
        keys, values = keys[first], np.add.reduceat(values, np.flatnonzero(first))
    values = -values % p
    nz = values != 0
    return keys[nz], values[nz]


# int64 cells an entry of the coordinate build (a table term, a run or a
# coordinate) is counted as against numutil.MAX_CELLS, so that the build stays
# near the limit's 512 MiB.  tracemalloc peak of obstruction_coords per entry
# counted (2-core x86-64 VM): 38-81 bytes on monomials, binomials, trinomials
# and family members holding up to 1.7M entries; 71 on the table of
# x^1000 + x^2 + x at p = 1009, where it stops; 111 on x^5 + x^2 at p = 503,
# whose table of Python ints dominates.
_COORD_CELLS = 16


def _neg_f_power_terms(p: int, coeffs, top: int) -> list[tuple[list[int], list[int]]]:
    """(exponents, values) of the nonzero terms of (-f)^e for e = 0 .. top.

    Lists of Python ints, per power the exponents ascending and the values
    residues in [1, p).  Each power is the previous one times -f, multiplied
    term by term: the f this table serves have few terms, where numpy's
    per-call cost would exceed the products themselves.  An entry sums at
    most one product below p^2 per nonzero term of f, checked before
    anything is built.  The powers of an f with several terms fill in, so
    before each product the terms held, plus the most that product can
    make, must stay within numutil.MAX_CELLS at _COORD_CELLS cells a term.
    """
    terms = [(e, -c % p) for e, c in enumerate(coeffs) if c % p]
    check_int64_sum(len(terms), (p - 1) ** 2, "(-f)^e table")
    powers = [([0], [1])]
    held = 1
    for _ in range(top):
        check_cells(_COORD_CELLS, held + len(powers[-1][0]) * len(terms), "(-f)^e terms")
        acc: dict[int, int] = {}
        for a, u in zip(*powers[-1]):
            for b, w in terms:
                acc[a + b] = acc.get(a + b, 0) + u * w
        exps = sorted(e for e, v in acc.items() if v % p)
        powers.append((exps, [acc[e] % p for e in exps]))
        held += len(exps)
    return powers


def obstruction_coords(curve: BasicCurve) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The obstruction matrix as (rows, cols, values) int64 coordinates.

    Densified into a (dim_obstruction, dim_domain) array, the coordinates
    give obstruction_matrix(curve); each appears once, with a nonzero
    residue.  The sweep is obstruction_stack's, over t = top-1 .. 0 (top
    the highest level with columns), with nothing built when the live block
    is empty, on coordinate lists keyed u * dim_domain + column (u the
    compressed row) that follow only the nonzero terms x^e of
    comb(src, t) * (-f)^(src-t).
    A unit monomial x^j of a column topped at src lands at compressed row
    (j + e + 1)/p - 1 when j + e = -1 (mod p), that is for j = r + p*m with
    r = (-1 - e) mod p < p - 1 and 0 <= m <= (reg_bound[src] - r)//p; its
    column is col_start[src] + r + m*(p - 1), so the keys of one term form
    an arithmetic progression of step dim_domain + p - 1.  No unit
    coordinate depends on another level's result, so one Python loop over
    every level pair and term, on Python ints, collects a (base, count,
    value) run per progression, and one np.repeat/arange expansion makes all
    their keys and values, in level order.  A compressed component
    of a higher column moves down e/p rows when p divides e: level t takes its
    slice of the expansion plus one shifted, scaled copy of comp[src] per
    such term, and sums duplicates in one _merge.  So numpy runs a fixed
    number of calls per level, none per term, and work and memory follow the
    nonzeros, not the matrix size: this suits f with few terms, which
    a_number_fast hands it; for dense f the dense build is faster.  The
    entries the build holds (table terms, runs, coordinates) are counted at
    _COORD_CELLS int64 cells each and must stay within numutil.MAX_CELLS:
    the table checks its own before each product, the runs after each
    level of the Python loop, the unit coordinates before the expansion and
    each level's sum before its concatenation.
    """
    p = curve.p
    _check_build_headroom(curve)
    empty = np.zeros(0, dtype=np.int64)
    if curve.live_start[-1] == 0:
        return empty, empty, empty
    top = _top_level(curve)
    negf = _neg_f_power_terms(p, curve.f.coeffs, top)
    ncols = curve.dim_domain
    col, row, reg = curve.col_start, curve.row_start, curve.reg_bound
    step = ncols + p - 1
    # per power: (key at m = 0, less col_start[src]; r; value) of each term
    # with unit coordinates, and (key shift, value) of each term p divides
    units = [
        [(((r + e + 1) // p - 1) * ncols + r, r, v)
         for e, v in zip(*power) if (r := (-1 - e) % p) < p - 1]
        for power in negf
    ]
    shifts = [[(e // p * ncols, v) for e, v in zip(*power) if e % p == 0] for power in negf]
    # entries held until the end: the table's terms, each in units or shifts
    held = sum(map(len, units)) + sum(map(len, shifts))
    # a run holds entries total .. total + count - 1 of the expansion, whose
    # keys are base + step * index, so its base is taken less step * total
    bases, counts, values, ends = [], [], [], []
    total = 0
    for t in range(top - 1, -1, -1):
        for src in range(t + 1, top + 1):
            bound = reg[src]
            scale = math.comb(src, t) % p
            for key, r, v in units[src - t]:
                if r <= bound:
                    count = (bound - r) // p + 1
                    bases.append(key + col[src] - step * total)
                    counts.append(count)
                    values.append(scale * v % p)
                    total += count
        ends.append(total)
        # a level adds at most one run per table term
        check_cells(_COORD_CELLS, held + len(bases), "obstruction coordinate runs")
    held += len(bases) + total
    check_cells(_COORD_CELLS, held, "obstruction coordinates")
    unit_keys = np.repeat(np.array(bases, dtype=np.int64), counts)
    unit_keys += step * np.arange(total)
    unit_vals = np.repeat(np.array(values, dtype=np.int64), counts)
    # comp[t]: compressed level-t components of the columns col[t+1]: onwards,
    # as ascending keys and their values
    comp = [(empty, empty)] * p
    out = [[empty], [empty], [empty]]
    lo = 0
    for t, hi in zip(range(top - 1, -1, -1), ends):
        # (keys, values, key shift, scale) of each part of the level's sum
        parts = [(unit_keys[lo:hi], unit_vals[lo:hi], 0, 1)]
        lo = hi
        for src in range(t + 1, top + 1):
            w_keys, w_vals = comp[src]
            if w_keys.size:
                scale = math.comb(src, t) % p
                parts += [(w_keys, w_vals, s, scale * v % p) for s, v in shifts[src - t]]
        part_keys, part_vals, moves, scales = zip(*parts)
        sizes = [k.size for k in part_keys]
        # the level's sum adds its shifted copies to the coordinates held
        check_cells(_COORD_CELLS, held + sum(sizes[1:]), "obstruction coordinates")
        keys, vals = np.concatenate(part_keys), np.concatenate(part_vals)
        if len(parts) > 1:
            keys += np.repeat(moves, sizes)
            vals *= np.repeat(scales, sizes)
        keys, vals = comp[t] = _merge(keys, vals, p)
        held += keys.size
        if curve.slot_count[t]:
            # the obstruction rows of level t are a run of the sorted keys
            u0 = (curve.slot_start[t] - (p - 1)) // p
            end = u0 + curve.slot_count[t]
            first, last = np.searchsorted(keys, [u0 * ncols, end * ncols])
            u, c = np.divmod(keys[first:last], ncols)
            out[0].append(u - u0 + row[t])
            out[1].append(c)
            out[2].append(vals[first:last])
    return tuple(np.concatenate(part) for part in out)


# An f of n <= _COORDS_MAX_TERMS nonzero terms whose top power (-f)^top can
# have at most _COORDS_MAX_FILL terms, comb(top + n - 1, n - 1), takes the
# coordinate build.  Its time over the dense build's (build and rank, minimum
# of 3-7 alternating calls, one random f per point, 2-core x86-64 VM): with
# 1-3 terms, 180 curves at p in {2, 3, 5, 7, 11, 13} and 2 <= d <= 701,
# median 0.39, worst 1.06; monomials at p in {31, 101}, 0.03-0.24; binomials
# at p in {31, 43, 61, 101, 211, 503} (fill up to 402), 0.10-0.50;
# trinomials at p = 31 (fill 496), 0.37-0.91, but at p = 37 (fill 666)
# 0.44-1.08 and at p = 101 (fill 5151) up to 1.95.  With 6 and 8 terms at
# (13, 60), 1.51 and 2.13.  Every family member (p <= 7) has at most three
# terms and a fill of at most 28.
_COORDS_MAX_TERMS = 3
_COORDS_MAX_FILL = 500


def a_number_fast(curve: BasicCurve) -> int:
    """a-number as the nullity of the obstruction matrix, the one fast path
    for a single curve; it picks the build from f.

    An f of at most _COORDS_MAX_TERMS nonzero terms whose powers stay sparse
    (at most _COORDS_MAX_FILL terms in (-f)^top), every family member among
    them, takes the coordinate build, ranked in coordinate form: its cost
    follows the nonzeros, so it also serves sparse f whose dense live block
    would pass numutil.MAX_CELLS.  Any other f takes the dense live block,
    the only part that can be nonzero, ranked in the build's dtype; the
    nullity is dim_domain less its rank.
    """
    p, coeffs = curve.p, curve.f.coeffs
    n = len(coeffs) - coeffs.count(0)
    if n <= _COORDS_MAX_TERMS and math.comb(_top_level(curve) + n - 1, n - 1) <= _COORDS_MAX_FILL:
        shape = (curve.dim_obstruction, curve.dim_domain)
        return coords_rank_nullity(p, obstruction_coords(curve), shape)[1]
    live = obstruction_stack(curve, [coeffs])[..., 0]
    return curve.dim_domain - rank_nullity(FpMatrix._of_residues(p, live))[0]


def cartier_matrix(curve: BasicCurve) -> FpMatrix:
    """Matrix of the Cartier operator of the cover on regular differentials.

    Basis: x^j y^i dx with 0 <= j <= reg_bound[i], level-major; its size is
    the genus.  Each (t, i) level block is a strided view of the zero-padded
    (-f)^(i-t), rows p apart and columns reversed, by the closed form in the
    module docstring, copied into place and scaled there by comb(i, t) mod p
    unless that is 1.  The operator preserves the regular span; the
    implementation checks this instead of assuming it, on the view's rows
    past the level's size.  The matrix must stay within numutil.MAX_CELLS.
    """
    check_cells(curve.genus, curve.genus, "Cartier matrix")
    p = curve.p
    negf = _neg_f_power_stack(p, [curve.f.coeffs])
    sizes = [max(b + 1, 0) for b in curve.reg_bound]
    if sum(sizes) != curve.genus:
        raise InvariantViolation("regular basis size disagrees with the genus")
    off = np.cumsum([0] + sizes)
    mat = np.zeros((curve.genus, curve.genus), dtype=np.int64)
    for i in range(p):
        if not sizes[i]:
            continue
        for t in range(i + 1):
            g = negf[i - t][:, 0]
            # enough rows r to reach every coefficient of g; rows past
            # reg_bound[t] must come out zero
            rows = max(sizes[t], (len(g) + sizes[i] - 1) // p)
            # entry (r, j) = g[p(r+1) - 1 - j]: a view of the zero-padded g,
            # rows p apart from p - 1 and columns read backwards
            pad = np.zeros(p * rows + sizes[i] - 1, dtype=np.int64)
            pad[sizes[i] - 1 : sizes[i] - 1 + len(g)] = g[: len(pad) - sizes[i] + 1]
            block = as_strided(
                pad[p + sizes[i] - 2 :],
                shape=(rows, sizes[i]),
                strides=(p * pad.strides[0], -pad.strides[0]),
            )
            if block[sizes[t] :].any():
                raise InvariantViolation("Cartier image left the regular span")
            dst = mat[off[t] : off[t + 1], off[i] : off[i + 1]]
            dst[...] = block[: sizes[t]]
            # the binomial is a unit mod p; products stay below p^2 in int64
            scale = math.comb(i, t) % p
            if scale != 1:
                dst *= scale
                _reduce(dst, p)
    return FpMatrix._of_residues(p, mat)


def a_number_oracle(curve: BasicCurve) -> int:
    """a-number as the nullity of the full Cartier matrix."""
    return rank_nullity(cartier_matrix(curve))[1]


def _certified_p_rank(m: FpMatrix) -> int:
    """p-rank from a Cartier matrix: 0, certified by strict triangularity.

    A strictly upper triangular matrix is nilpotent, so its stable rank is 0.
    Raises InvariantViolation when an entry on or below the diagonal is
    nonzero.
    """
    nz = m.a != 0
    if not nz.size:
        return 0
    first = nz.argmax(axis=1)
    rows = np.arange(len(first))
    # a row has a nonzero on or below the diagonal exactly when its first one is
    below = np.flatnonzero(nz[rows, first] & (first <= rows))
    if below.size:
        r, c = below[0], first[below[0]]
        raise InvariantViolation(
            f"Cartier matrix entry ({r}, {c}) is nonzero on or below the diagonal"
        )
    return 0


def p_rank(curve: BasicCurve) -> int:
    """p-rank of the cover: 0, certified by strict triangularity.

    Builds the Cartier matrix and checks that it is strictly upper triangular
    in the level-major basis; raises InvariantViolation otherwise.
    """
    return _certified_p_rank(cartier_matrix(curve))


@dataclass(frozen=True)
class ANumberReport:
    """a-number of one cover together with the standard companion invariants."""

    a: int
    method: str
    genus: int
    p_rank: int
    lower_bound: int
    dim_domain: int
    dim_obstruction: int


def report(curve: BasicCurve, method: str = "fast") -> ANumberReport:
    """Assemble the a-number (by the requested method) and companions.

    Raises InvariantViolation when a falls outside [L(d), genus] or, on the
    oracle path, the p-rank certificate fails.
    """
    if method == "fast":
        a = a_number_fast(curve)
        # Deuring-Shafarevich: a Z/pZ-cover of the projective line with one
        # totally ramified branch point has p-rank 0
        rank_p = 0
    elif method == "oracle":
        cartier_m = cartier_matrix(curve)
        a = rank_nullity(cartier_m)[1]
        rank_p = _certified_p_rank(cartier_m)
    else:
        raise ValueError(f"unknown method {method!r}; expected 'fast' or 'oracle'")
    bound = lower_bound_single(curve.p, curve.d)
    if not bound <= a <= curve.genus:
        raise InvariantViolation(f"a = {a} outside [{bound}, {curve.genus}]")
    return ANumberReport(
        a=a,
        method=method,
        genus=curve.genus,
        p_rank=rank_p,
        lower_bound=bound,
        dim_domain=curve.dim_domain,
        dim_obstruction=curve.dim_obstruction,
    )
