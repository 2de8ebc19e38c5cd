"""Compile orthogonal Majorana rotations into matchgate circuits.

Any Q in O(2n) is realized over the gate set {Z rotation, nearest-neighbor
XX rotation, one layer of Pauli gates}. Two schemes are provided:

* ``compile_naive``: element-wise QR elimination into adjacent-axis Givens
  rotations followed by a sign layer.
* ``compile_blocked``: a two-sided elimination that zeroes 2x2 blocks of Q
  (treating each pair of Majorana axes as one qubit) with 4x4 orthogonal
  factors, a single corner Givens rotation, and a sign layer. Each 4x4
  factor is reduced to five elementary rotations; the sign diagonal is
  commuted past the later rotations into the single global Pauli layer.

Either scheme hands ``_assemble`` one stream of adjacent-axis Givens
rotations in time order and the one sign diagonal that ends the program. A
rotation merges into the last rotation on its qubits when that one has the
same axis; the diagonal becomes the trailing Pauli layer.

Gate conventions (Heisenberg action U^dag g_u U = sum_v O_uv g_v):
* ZRot(p, t)  = exp(-i t Z_p / 2)        acts as Givens(t) on axes (2p, 2p+1)
* XXRot(p, t) = exp(-i t X_p X_{p+1}/2)  acts as Givens(t) on axes (2p+1, 2p+2)
* PauliLayer(P) acts as diag(+-1), -1 on each axis whose generator
  anticommutes with P.

``program_to_orthogonal`` composes these actions to recover Q without any
dense simulation, which is the compiler's verifier.

Both hot loops run one layer of disjoint rotations at a time. The naive
elimination zeroes entry (i, j) of Q^T at wavefront step t = dim-1-i+2j, so
about 2*dim steps replace dim^2/2 single rotations. The recomposition
applies each depth layer of ``GateProgram.stats()`` as one gathered two-row
update, with the Pauli layer as a barrier. Every row sees the same
floating-point operations in the same order as in the sequential loops, so
programs and recomposed matrices are bit-identical to theirs.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import atan2, cos, sin
from typing import Union

import numpy as np

from .tolerances import DEFAULT, Tolerances

__all__ = [
    "ZRot",
    "XXRot",
    "PauliLayer",
    "Gate",
    "ProgramStats",
    "GateProgram",
    "compile_naive",
    "compile_blocked",
    "program_to_orthogonal",
]


@dataclass(frozen=True)
class ZRot:
    qubit: int
    theta: float


@dataclass(frozen=True)
class XXRot:
    qubit: int  # acts on (qubit, qubit + 1)
    theta: float


@dataclass(frozen=True)
class PauliLayer:
    letters: str


Gate = Union[ZRot, XXRot, PauliLayer]


@dataclass(frozen=True)
class ProgramStats:
    one_qubit_count: int
    two_qubit_count: int
    depth: int

    @property
    def rotation_count(self) -> int:
        return self.one_qubit_count + self.two_qubit_count


def _gate_support(gate: Gate) -> tuple[int, ...]:
    if isinstance(gate, ZRot):
        return (gate.qubit,)
    if isinstance(gate, XXRot):
        return (gate.qubit, gate.qubit + 1)
    return tuple(i for i, c in enumerate(gate.letters) if c != "I")


def _layers(gates, n_qubits: int) -> list[list[Gate]]:
    """Gates grouped by depth layer, in time order within each layer.

    A gate joins the layer after the last one holding a gate on any of its
    qubits, so the gates of one layer act on disjoint qubits and hence on
    disjoint axis pairs. Gates with empty support join no layer.
    """
    frontier = [0] * n_qubits
    layers: list[list[Gate]] = []
    for g in gates:
        support = _gate_support(g)
        if not support:
            continue
        layer = max(frontier[q] for q in support)
        if layer == len(layers):
            layers.append([])
        layers[layer].append(g)
        for q in support:
            frontier[q] = layer + 1
    return layers


@dataclass(frozen=True)
class GateProgram:
    """Time-ordered gate list; the first gate acts on the state first."""

    n_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        layers = sum(isinstance(g, PauliLayer) for g in self.gates)
        if layers > 1:
            raise ValueError("a program carries at most one Pauli layer")
        for g in self.gates:
            if isinstance(g, XXRot) and not 0 <= g.qubit < self.n_qubits - 1:
                raise ValueError("XX rotation must act on adjacent qubits in range")
            if isinstance(g, ZRot) and not 0 <= g.qubit < self.n_qubits:
                raise ValueError("Z rotation qubit out of range")
            if isinstance(g, PauliLayer) and len(g.letters) != self.n_qubits:
                raise ValueError("Pauli layer length mismatch")

    def stats(self) -> ProgramStats:
        ones = sum(isinstance(g, ZRot) for g in self.gates)
        twos = sum(isinstance(g, XXRot) for g in self.gates)
        depth = len(_layers(self.gates, self.n_qubits))
        return ProgramStats(ones, twos, depth)


def _givens_matrix(dim: int, axis: int, theta: float) -> np.ndarray:
    g = np.eye(dim)
    c, s = cos(theta), sin(theta)
    g[axis, axis] = c
    g[axis + 1, axis + 1] = c
    g[axis, axis + 1] = -s
    g[axis + 1, axis] = s
    return g


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


def _assemble(n_qubits: int, rotations, signs, tol: Tolerances) -> GateProgram:
    """Gates for the Givens rotations ``rotations`` followed by diag(``signs``).

    ``rotations`` yields (axis, theta) in time order, each the rotation
    [[cos t, -sin t], [sin t, cos t]] on axes (axis, axis + 1), which acts on
    qubits axis // 2 and (axis + 1) // 2. A rotation merges into the last one
    on those qubits when that has the same axis. Angles are wrapped into
    [-pi, pi) and those below ``tol.rotation_cut`` dropped.
    """
    rots: list[list] = []  # [axis, theta]
    last_on_qubit = [-1] * n_qubits
    for axis, theta in rotations:
        lo, hi = axis // 2, (axis + 1) // 2
        prev = max(last_on_qubit[lo], last_on_qubit[hi])
        if prev >= 0 and rots[prev][0] == axis:
            rots[prev][1] += theta
        else:
            last_on_qubit[lo] = last_on_qubit[hi] = len(rots)
            rots.append([axis, theta])

    gates: list[Gate] = []
    for axis, theta in rots:
        theta = (theta + np.pi) % (2 * np.pi) - np.pi
        if abs(theta) >= tol.rotation_cut:
            gates.append((XXRot if axis % 2 else ZRot)(axis // 2, theta))
    gates.append(PauliLayer(_layer_letters([1.0 if s > 0 else -1.0 for s in signs])))
    return GateProgram(n_qubits, tuple(gates))


def _check_orthogonal(q: np.ndarray, tol: Tolerances):
    q = np.asarray(q, dtype=float)
    dim = q.shape[0]
    if q.ndim != 2 or q.shape != (dim, dim) or dim % 2:
        raise ValueError("input must be a square even-dimensional matrix")
    # a NaN or infinite entry leaves a non-finite residual, which fails the test
    # too; numpy's warning on the way would print a second line under the CLI
    with np.errstate(invalid="ignore", over="ignore"):
        residual = np.max(np.abs(q @ q.T - np.eye(dim)))
    if not residual <= tol.orthogonality:
        if not np.isfinite(q).all():
            raise ValueError("input matrix has non-finite entries")
        raise ValueError("input matrix is not orthogonal")
    return q


def compile_naive(q: np.ndarray, tol: Tolerances = DEFAULT) -> GateProgram:
    """Adjacent-axis Givens QR scheme: Q = D * G_L^T * ... * G_1^T.

    Eliminates Q^T column by column from the bottom; the residual diagonal
    of signs becomes the trailing Pauli layer. The rotation that zeroes
    entry (i, j) with rows (i-1, i) needs only (i+1, j) and (i-1, j-1) done
    first, so it runs at wavefront step t = dim-1-i+2j; one step's rotations
    act on disjoint row pairs and are applied together with the arithmetic
    of the sequential loop, so every bit matches it.
    """
    q = _check_orthogonal(q, tol)
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
    d = np.sign(np.diag(y))
    # bugs leave O(1) residue; honest roundoff stays far below this
    if np.max(np.abs(y - np.diag(np.diag(y)))) > 1e-6:
        raise ValueError("QR elimination failed to diagonalize the input")
    # sequential order: column j ascending, row i descending
    cols, flipped = np.nonzero(done.T[:, ::-1])
    rows = dim - 1 - flipped
    # one pair at a time: whole .tolist() lists raised the perfbench compile
    # round's peak RSS by 0.2 MB
    stream = ((i - 1, -theta) for i, theta in zip(map(int, rows), map(float, angles[rows, cols])))
    return _assemble(dim // 2, stream, d, tol)


def _right_eliminate(m: np.ndarray, blk_row: int, blk_col: int, rotations: list):
    """Zero block (blk_row, blk_col) with column rotations on axes 2*blk_col..+3.

    Leaves the 2x4 band in the pattern [[0, 0, *, *], [0, 0, 0, *]].
    """
    b0 = 2 * blk_col
    r0, r1 = 2 * blk_row, 2 * blk_row + 1
    for row, col in ((r1, b0), (r1, b0 + 1), (r1, b0 + 2), (r0, b0), (r0, b0 + 1)):
        x, ynext = m[row, col], m[row, col + 1]
        if x == 0.0:
            continue
        theta = atan2(-x, ynext)
        c, s = cos(theta), sin(theta)
        left = c * m[:, col] + s * m[:, col + 1]
        right = -s * m[:, col] + c * m[:, col + 1]
        m[:, col] = left
        m[:, col + 1] = right
        m[row, col] = 0.0
        rotations.append((col, -theta))


def _left_eliminate(m: np.ndarray, blk_row: int, blk_col: int, rotations: list):
    """Zero block (blk_row, blk_col) with row rotations on axes 2*blk_row-2..+1.

    Leaves the 4x2 band upper triangular.
    """
    a0 = 2 * blk_row - 2
    c0, c1 = 2 * blk_col, 2 * blk_col + 1
    for row, col in ((a0 + 3, c0), (a0 + 2, c0), (a0 + 1, c0), (a0 + 3, c1), (a0 + 2, c1)):
        x, y = m[row - 1, col], m[row, col]
        if y == 0.0:
            continue
        theta = atan2(y, x)
        c, s = cos(theta), sin(theta)
        upper = c * m[row - 1, :] + s * m[row, :]
        lower = -s * m[row - 1, :] + c * m[row, :]
        m[row - 1, :] = upper
        m[row, :] = lower
        m[row, col] = 0.0
        rotations.append((row - 1, theta))


def compile_blocked(q: np.ndarray, tol: Tolerances = DEFAULT) -> GateProgram:
    """Two-sided 2x2-block elimination scheme.

    Sweeps anti-diagonals of the n x n block grid, alternating right
    (column) and left (row) eliminations, leaving a diagonal of signs plus
    one residual 2x2 corner block: top-left for even n, bottom-right for
    odd n. The corner is closed with a single Givens rotation.
    """
    q = _check_orthogonal(q, tol)
    dim = q.shape[0]
    n = dim // 2
    m = q.copy()
    right: list = []
    left: list = []

    for d in range(1, n):
        if d % 2 == 1:
            for j in range(d):
                _right_eliminate(m, n - 1 - j, d - 1 - j, right)
        else:
            for j in range(d):
                _left_eliminate(m, n - d + j, j, left)

    corner = 0 if n % 2 == 0 else n - 1
    ca = 2 * corner
    block = m[ca:ca + 2, ca:ca + 2].copy()
    d_corner = np.eye(2)
    if np.linalg.det(block) < 0:
        d_corner = np.diag([1.0, -1.0])
    rot = d_corner @ block
    theta_c = atan2(rot[1, 0], rot[0, 0])

    d_vec = np.sign(np.diag(m))
    d_vec[ca] = d_corner[0, 0]
    d_vec[ca + 1] = d_corner[1, 1]

    expected = np.diag(d_vec.copy())
    expected[ca:ca + 2, ca:ca + 2] = d_corner @ _givens_matrix(2, 0, theta_c)
    if np.max(np.abs(m - expected)) > 1e-6:
        raise ValueError("block elimination failed to reach the corner form")

    # time order: right factors, corner rotation, sign diagonal, then the left
    # factors in reverse; pushing the diagonal past a rotation on axes (a, a+1)
    # multiplies its angle by d[a] * d[a+1]
    rotations = right + [(ca, theta_c)]
    rotations += [(a, (d_vec[a] * d_vec[a + 1]) * theta) for a, theta in reversed(left)]
    return _assemble(n, rotations, d_vec, tol)


def _apply_rotations(q: np.ndarray, gates, n_qubits: int) -> None:
    """Apply rotation gates to the rows of q, one gathered update per depth layer."""
    for layer in _layers(gates, n_qubits):
        axes = np.array([2 * g.qubit + isinstance(g, XXRot) for g in layer])
        c = np.array([cos(g.theta) for g in layer])[:, None]
        s = np.array([sin(g.theta) for g in layer])[:, None]
        upper, lower = q[axes], q[axes + 1]
        q[axes] = c * upper - s * lower
        q[axes + 1] = s * upper + c * lower


def program_to_orthogonal(p: GateProgram) -> np.ndarray:
    """Compose gate actions on the Majorana axes to recover the rotation.

    Gates of one depth layer act on disjoint axis pairs, so each layer is one
    gathered two-row update, with the arithmetic of a gate-by-gate product:
    every row sees the same operations in the same order. The Pauli layer
    flips axes on qubits outside its support too, so it splits the program
    in two, each part layered on its own.
    """
    q = np.eye(2 * p.n_qubits)
    cut = next((k for k, g in enumerate(p.gates) if isinstance(g, PauliLayer)), len(p.gates))
    _apply_rotations(q, p.gates[:cut], p.n_qubits)
    if cut < len(p.gates):
        q *= _layer_action(p.gates[cut].letters)[:, None]
        _apply_rotations(q, p.gates[cut + 1:], p.n_qubits)
    return q
