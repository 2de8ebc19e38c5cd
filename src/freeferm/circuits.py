"""Compile orthogonal Majorana rotations into matchgate circuits.

Any Q in O(2n) is realized over the gate set {Z rotation, nearest-neighbor
XX rotation, one layer of Pauli gates}. Two schemes are provided:

* ``compile_naive``: element-wise QR elimination into adjacent-axis Givens
  rotations followed by a sign layer.
* ``compile_blocked``: a two-sided elimination that zeroes 2x2 blocks of Q
  (treating each pair of Majorana axes as one qubit) with 4x4 orthogonal
  factors of five elementary rotations each, then one more rotation in the
  last 2x2 corner block.

Both leave a sign diagonal and end in ``_finish``, which commutes it past the
later rotations and hands ``_assemble`` the adjacent-axis Givens rotations in
time order, as two flat lists of axes and angles, and the diagonal. A rotation
merges into the last rotation on its qubits when that one has the same axis.
A ``GateProgram`` holds the axes and the angles as arrays, and the diagonal as
the letters of the Pauli layer, which acts last.

Conventions (Heisenberg action U^dag g_u U = sum_v O_uv g_v), by JSON kind:
* axis 2p,   "zrot"  exp(-i t Z_p / 2):        Givens(t) on axes (2p, 2p+1)
* axis 2p+1, "xxrot" exp(-i t X_p X_{p+1}/2):  Givens(t) on axes (2p+1, 2p+2)
* "pauli" P acts as diag(+-1), -1 on each axis whose generator anticommutes
  with P.

``program_to_orthogonal`` composes these actions to recover Q without any
dense simulation, which is the compiler's verifier.

The naive elimination zeroes entry (i, j) of Q^T at wavefront step
t = dim-1-i+2j, one layer of disjoint rotations per step, so about 2*dim steps
replace dim^2/2 single rotations. The blocked one updates each row pair in
place with three ufuncs, and runs its right sweeps on a contiguous copy of Q^T.
The recomposition applies each depth layer that ``GateProgram.stats()`` counts
as one gathered two-row update, then the Pauli layer. Every row sees the same
floating-point operations in the same order as in the sequential loops, so
programs and recomposed matrices are bit-identical to theirs.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import atan2, cos, sin

import numpy as np

from .tolerances import DEFAULT as TOL

__all__ = [
    "ProgramStats",
    "GateProgram",
    "compile_naive",
    "compile_blocked",
    "program_to_orthogonal",
]


@dataclass(frozen=True)
class ProgramStats:
    one_qubit_count: int
    two_qubit_count: int
    depth: int

    @property
    def rotation_count(self) -> int:
        return self.one_qubit_count + self.two_qubit_count


def _layering(axes: np.ndarray, n_qubits: int) -> tuple[list[int], list[int]]:
    """Depth layer of each rotation, and per qubit the layer count up to its last rotation.

    Rotation k acts on qubits axes[k] // 2 and (axes[k] + 1) // 2 and joins the
    layer after the last one holding either, so one layer acts on disjoint axes.
    """
    frontier = [0] * n_qubits
    layer_of = []
    for a in axes.tolist():
        lo, hi = a // 2, (a + 1) // 2
        layer = max(frontier[lo], frontier[hi])
        frontier[lo] = frontier[hi] = layer + 1
        layer_of.append(layer)
    return layer_of, frontier


@dataclass(frozen=True, eq=False)
class GateProgram:
    """Givens rotations in time order, then one Pauli layer.

    Rotation k turns the Majorana axes (axes[k], axes[k] + 1) by thetas[k]: an
    even axis 2p is a Z rotation on qubit p, an odd axis 2p + 1 an XX rotation
    on qubits p and p + 1. The arrays are stored as read-only int64 and float64 copies.
    """

    n_qubits: int
    axes: np.ndarray
    thetas: np.ndarray
    letters: str

    def __post_init__(self):
        axes, thetas = np.asarray(self.axes), np.array(self.thetas, dtype=float)
        if axes.ndim != 1 or axes.shape != thetas.shape:
            raise ValueError("axes and thetas must be vectors of one length")
        if axes.size and (axes.dtype.kind not in "iu" or axes.min() < 0
                          or axes.max() >= 2 * self.n_qubits - 1):
            raise ValueError("rotation axes must be integers in [0, 2 n_qubits - 1)")
        if type(self.letters) is not str or len(self.letters) != self.n_qubits \
                or not set(self.letters) <= set("IXYZ"):
            raise ValueError("Pauli layer must be n_qubits letters from IXYZ")
        for name, value in (("axes", axes.astype(np.int64)), ("thetas", thetas)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        return (isinstance(other, GateProgram) and self.n_qubits == other.n_qubits
                and self.letters == other.letters and np.array_equal(self.axes, other.axes)
                and np.array_equal(self.thetas, other.thetas))

    def stats(self) -> ProgramStats:
        """Counts and depth; the Pauli layer adds a depth layer where it acts after the last one."""
        twos = int(np.count_nonzero(self.axes % 2))
        _, frontier = _layering(self.axes, self.n_qubits)
        pauli = [f + 1 for f, letter in zip(frontier, self.letters) if letter != "I"]
        return ProgramStats(len(self.axes) - twos, twos, max(frontier + pauli, default=0))


def _layer_letters(signs) -> str:
    """Pauli string realizing g_u -> signs[u] g_u: the inverse of ``_layer_action``.

    Per mode pair: (+, +) -> I, (-, -) -> Z, (+, -) -> X and (-, +) -> Y, with
    I <-> Z and X <-> Y swapped once per earlier mixed pair, whose X or Y the
    pair's Z tail clashes with.
    """
    letters, odd = [], False
    for a, b in zip(signs[::2], signs[1::2]):
        mixed = (a < 0) != (b < 0)
        letters.append("IZXY"[2 * mixed + ((a < 0) ^ odd)])
        odd ^= mixed
    return "".join(letters)


def _layer_action(letters: str) -> np.ndarray:
    """Diagonal orthogonal action of a Pauli layer on the Majorana axes.

    g_2p = Z..Z X_p and g_2p+1 = Z..Z Y_p: the Z tail clashes with every X or
    Y of the layer on qubits < p, and X_p (Y_p) clashes with a Y or Z (X or
    Z) at p. An odd clash count flips the axis.
    """
    signs, tail = [], 0
    for letter in letters:
        signs.append(-1.0 if (tail + (letter in "YZ")) % 2 else 1.0)
        signs.append(-1.0 if (tail + (letter in "XZ")) % 2 else 1.0)
        tail += letter in "XY"
    return np.array(signs)


def _assemble(n_qubits: int, axes, thetas, signs) -> GateProgram:
    """The program of the Givens rotations (``axes``, ``thetas``) followed by diag(``signs``).

    Rotation k, in time order, is [[cos t, -sin t], [sin t, cos t]] on axes
    (axes[k], axes[k] + 1), which acts on qubits axes[k] // 2 and (axes[k] + 1) // 2.
    It merges into the last rotation on those qubits when that has the same axis.
    Angles are wrapped into [-pi, pi) and those below ``TOL.rotation_cut`` dropped.
    """
    kept, angles, last_on_qubit = [], [], [-1] * n_qubits
    for axis, theta in zip(axes, thetas):
        lo, hi = axis // 2, (axis + 1) // 2
        prev = max(last_on_qubit[lo], last_on_qubit[hi])
        if prev >= 0 and kept[prev] == axis:
            angles[prev] += theta
        else:
            last_on_qubit[lo] = last_on_qubit[hi] = len(kept)
            kept.append(axis)
            angles.append(theta)

    kept = np.array(kept, dtype=np.int64)
    angles = (np.array(angles, dtype=float) + np.pi) % (2 * np.pi) - np.pi
    keep = np.abs(angles) >= TOL.rotation_cut
    letters = _layer_letters([1.0 if s > 0 else -1.0 for s in signs])
    return GateProgram(n_qubits, kept[keep], angles[keep], letters)


def _finish(m: np.ndarray, axes: list, thetas: list, left=((), ())) -> GateProgram:
    """Rotations (axes, thetas), diag(d) with d = sign(diag m), then the pair ``left`` reversed.

    The elimination has left m diagonal. d acts last, as the Pauli layer; pushing
    it past a rotation on axes (a, a + 1) multiplies the angle by d[a] * d[a + 1].
    """
    # bugs leave O(1) residue; honest roundoff stays far below this
    if not np.max(np.abs(m - np.diag(np.diag(m)))) <= TOL.elimination_residual:
        raise ValueError("elimination failed to diagonalize the input")
    d = np.sign(np.diag(m)).tolist()
    axes += reversed(left[0])
    thetas += ((d[a] * d[a + 1]) * t for a, t in zip(reversed(left[0]), reversed(left[1])))
    return _assemble(len(m) // 2, axes, thetas, d)


def _check_orthogonal(q: np.ndarray):
    q = np.asarray(q, dtype=float)
    dim = q.shape[0]
    if q.ndim != 2 or q.shape != (dim, dim) or dim % 2:
        raise ValueError("input must be a square even-dimensional matrix")
    if not dim:
        raise ValueError("input must cover at least one mode")
    # a NaN or infinite entry leaves a non-finite residual, which fails the test
    # too; numpy's warning on the way would print a second line under the CLI
    with np.errstate(invalid="ignore", over="ignore"):
        residual = np.max(np.abs(q @ q.T - np.eye(dim)))
    if not residual <= TOL.orthogonality:
        if not np.isfinite(q).all():
            raise ValueError("input matrix has non-finite entries")
        raise ValueError("input matrix is not orthogonal")
    return q


def compile_naive(q: np.ndarray) -> GateProgram:
    """Adjacent-axis Givens QR scheme: Q = D * G_L^T * ... * G_1^T.

    Eliminates Q^T column by column from the bottom; the residual diagonal
    of signs becomes the trailing Pauli layer. The rotation that zeroes
    entry (i, j) with rows (i-1, i) needs only (i+1, j) and (i-1, j-1) done
    first, so it runs at wavefront step t = dim-1-i+2j; one step's rotations
    act on disjoint row pairs and are applied together with the arithmetic
    of the sequential loop, so every bit matches it.
    """
    q = _check_orthogonal(q)
    dim = q.shape[0]
    y = q.T.copy()
    angles = np.zeros((dim, dim))  # angles[i, j]: rotation zeroing y[i, j], where done
    done = np.zeros((dim, dim), dtype=bool)
    for t in range(2 * dim - 3):
        cols = np.arange(max(0, t - dim + 2), min(t // 2, dim - 2) + 1)
        rows = dim - 1 + 2 * cols - t
        keep = y[rows, cols] != 0.0
        cols, rows = cols[keep], rows[keep]
        thetas = [atan2(b, a) for b, a in zip(y[rows, cols].tolist(), y[rows - 1, cols].tolist())]
        c = np.array([cos(theta) for theta in thetas])[:, None]
        s = np.array([sin(theta) for theta in thetas])[:, None]
        upper, lower = y[rows - 1], y[rows]
        y[rows - 1] = c * upper + s * lower
        y[rows] = c * lower - s * upper  # the loop's -s*a + c*b, bit for bit
        y[rows, cols] = 0.0
        angles[rows, cols] = thetas
        done[rows, cols] = True
    # sequential order: column j ascending, row i descending
    cols, flipped = np.nonzero(done.T[:, ::-1])
    rows = dim - 1 - flipped
    return _finish(y, (rows - 1).tolist(), (-angles[rows, cols]).tolist())


def _eliminate(m: np.ndarray, steps, lower: bool, axes: list, thetas: list, work):
    """Per (a, col) of ``steps``: zero m[a+1, col] (``lower``) or m[a, col], rotating rows a, a+1.

    An entry already zero is skipped. Each rotation appends a to ``axes`` and its angle
    to ``thetas``: the row rotation's when ``lower``, else the column rotation's on axes
    (a, a + 1) of m.T. Rows x, y become c x + s y, c y - s x, unfused, by three in-place
    ufuncs: c * pair and (s, -s) * pair[::-1] into ``work``'s (2, dim) buffers, then the sum.
    """
    (scaled, swapped), sines = work
    for a, col in steps:
        top, bottom = m.item(a, col), m.item(a + 1, col)
        if (bottom if lower else top) == 0.0:
            continue
        theta = atan2(bottom, top) if lower else atan2(-top, bottom)
        c, s = cos(theta), sin(theta)
        pair = m[a:a + 2]
        sines[0, 0], sines[1, 0] = s, -s
        np.multiply(pair, c, out=scaled)
        np.multiply(pair[::-1], sines, out=swapped)
        np.add(scaled, swapped, out=pair)
        pair[1 if lower else 0, col] = 0.0
        axes.append(a)
        thetas.append(theta if lower else -theta)


def compile_blocked(q: np.ndarray) -> GateProgram:
    """Two-sided 2x2-block elimination scheme.

    Sweeps anti-diagonals of the n x n block grid, alternating right
    (column) and left (row) eliminations, leaving a diagonal of signs plus
    one residual 2x2 corner block: top-left for even n, bottom-right for
    odd n. One more left elimination closes the corner, and ``_finish`` ends
    the program as it ends ``compile_naive``'s. A right elimination of the
    block at rows (r, r+1), columns (b, b+1) rotates columns b..b+3, as rows
    of m.T, and leaves the 2x4 band [[0, 0, *, *], [0, 0, 0, *]]; a left one
    rotates rows a..a+3 and leaves its 4x2 band upper triangular. Right sweep d
    rotates only columns 0..2d+1, and runs on a contiguous copy of them in mt.
    """
    q = _check_orthogonal(q)
    n = len(q) // 2
    m, mt = q.copy(), np.empty_like(q)
    work = np.empty((2, 2, 2 * n)), np.empty((2, 1))  # _eliminate's buffers
    right, left = ([], []), ([], [])

    for d in range(1, n):
        if d % 2:
            np.copyto(mt[:2 * d + 2], m[:, :2 * d + 2].T)
            for j in range(d):
                b, r = 2 * (d - 1 - j), 2 * (n - 1 - j)  # block (n-1-j, d-1-j)
                steps = ((b, r + 1), (b + 1, r + 1), (b + 2, r + 1), (b, r), (b + 1, r))
                _eliminate(mt, steps, False, *right, work)
            np.copyto(m[:, :2 * d + 2], mt[:2 * d + 2].T)
        else:
            for j in range(d):
                a, c = 2 * (n - d + j) - 2, 2 * j  # block (n-d+j, j)
                steps = ((a + 2, c), (a + 1, c), (a, c), (a + 2, c + 1), (a + 1, c + 1))
                _eliminate(m, steps, True, *left, work)

    del mt  # _finish's lists set the call's memory peak; this buffer need not add to it
    corner = 0 if n % 2 == 0 else 2 * n - 2
    _eliminate(m, ((corner, corner),), True, *left, work)
    return _finish(m, *right, left)


def program_to_orthogonal(p: GateProgram) -> np.ndarray:
    """Compose the rotations and the Pauli layer on the Majorana axes to recover Q.

    The rotations of one depth layer act on disjoint axis pairs, so each layer
    is one gathered two-row update with the arithmetic of a rotation-by-rotation
    product: every row sees the same operations in the same order. The angles
    go through ``math.cos`` and ``math.sin``, whose results do not depend on
    the CPU's SIMD paths as numpy's may.
    """
    q = np.eye(2 * p.n_qubits)
    thetas = p.thetas.tolist()
    cosines, sines = np.array([cos(t) for t in thetas]), np.array([sin(t) for t in thetas])
    layer_of, _ = _layering(p.axes, p.n_qubits)
    order = np.argsort(layer_of, kind="stable")
    for k in np.split(order, np.cumsum(np.bincount(layer_of))[:-1]):
        axes, c, s = p.axes[k], cosines[k, None], sines[k, None]
        upper, lower = q[axes], q[axes + 1]
        q[axes] = c * upper - s * lower
        q[axes + 1] = s * upper + c * lower
    return q * _layer_action(p.letters)[:, None]
