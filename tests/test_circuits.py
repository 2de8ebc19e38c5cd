"""Compiler round trips, dense consistency, and gate statistics."""
from itertools import product

import numpy as np
import pytest

import freeferm as ff
from freeferm import dense, oracle
from freeferm.circuits import (
    PauliLayer,
    _assemble,
    _givens_matrix,
    _layer_action,
    _layer_letters,
    XXRot,
    ZRot,
    compile_blocked,
    compile_naive,
    program_to_orthogonal,
)
from freeferm.dense import dense_unitary

from conftest import (
    random_orthogonal,
    reference_assemble,
    reference_compile_naive,
    reference_layer_action,
    reference_program_to_orthogonal,
    stats_compare,
)

COMPILERS = [compile_naive, compile_blocked]


# ------------------------------------------------------------ gate actions

def test_empty_program_is_identity():
    prog = ff.GateProgram(2, ())
    assert np.array_equal(program_to_orthogonal(prog), np.eye(4))


def test_zrot_action_is_givens():
    theta = 0.4
    prog = ff.GateProgram(1, (ZRot(0, theta),))
    expected = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    assert np.max(np.abs(program_to_orthogonal(prog) - expected)) < 1e-15


def test_pauli_layer_action():
    prog = ff.GateProgram(3, (PauliLayer("ZII"),))
    got = np.diag(program_to_orthogonal(prog))
    assert np.array_equal(got, [-1, -1, 1, 1, 1, 1])
    # dense conjugation agrees
    u = dense.pauli_matrix("ZII")
    for mu, sign in enumerate(got):
        lhs = u.conj().T @ dense.build_majorana(3, mu).matrix @ u
        assert np.array_equal(lhs, sign * dense.build_majorana(3, mu).matrix)


def dense_composition(prog):
    """Reference: multiply in one dense 2n x 2n action per gate."""
    dim = 2 * prog.n_qubits
    q = np.eye(dim)
    for gate in prog.gates:
        if isinstance(gate, PauliLayer):
            action = np.diag(_layer_action(gate.letters))
        else:
            axis = 2 * gate.qubit + isinstance(gate, XXRot)
            action = _givens_matrix(dim, axis, gate.theta)
        q = action @ q
    return q


@pytest.mark.parametrize("n", [3, 8, 16])
@pytest.mark.parametrize("compiler", COMPILERS)
def test_row_updates_match_dense_composition(n, compiler, rng):
    for _ in range(2):
        prog = compiler(random_orthogonal(2 * n, rng))
        assert np.max(np.abs(program_to_orthogonal(prog) - dense_composition(prog))) < 1e-12


def test_gate_actions_match_dense(rng):
    # every gate type: U^dag g U composed densely equals the claimed action
    n = 3
    gates = [ZRot(1, 0.7), XXRot(0, -1.2), XXRot(1, 0.3), PauliLayer("XZY")]
    for gate in gates:
        prog = ff.GateProgram(n, (gate,))
        q = program_to_orthogonal(prog)
        u = dense_unitary(prog)
        for mu in range(2 * n):
            lhs = u.conj().T @ dense.build_majorana(n, mu).matrix @ u
            rhs = sum(q[mu, v] * dense.build_majorana(n, v).matrix for v in range(2 * n))
            assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_program_invariants():
    with pytest.raises(ValueError):
        ff.GateProgram(2, (PauliLayer("II"), PauliLayer("ZI")))
    with pytest.raises(ValueError):
        ff.GateProgram(2, (XXRot(1, 0.1),))
    with pytest.raises(ValueError):
        ff.GateProgram(2, (PauliLayer("III"),))


# ------------------------------------------------------- compiler specifics

def test_naive_identity():
    prog = compile_naive(np.eye(6))
    assert prog.stats().rotation_count == 0
    assert prog.gates == (PauliLayer("III"),)


def test_naive_sign_layers():
    n = 3
    q = np.diag([1.0, 1.0, 1.0, 1.0, -1.0, -1.0])
    prog = compile_naive(q)
    assert prog.gates == (PauliLayer("IIZ"),)

    # block diag(1, -1) at mode p compiles to X_p with a Z tail
    q = np.diag([1.0, -1.0, 1.0, 1.0, 1.0, 1.0])
    prog = compile_naive(q)
    assert prog.gates == (PauliLayer("XZZ"),)
    q = np.diag([1.0, 1.0, -1.0, 1.0, 1.0, 1.0])
    prog = compile_naive(q)
    assert prog.gates == (PauliLayer("IYZ"),)


def test_blocked_identity():
    prog = compile_blocked(np.eye(8))
    assert prog.stats().rotation_count == 0
    assert prog.gates == (PauliLayer("IIII"),)


@pytest.mark.parametrize("n", list(range(1, 9)))
def test_round_trip_both_schemes(n, rng):
    for _ in range(100):
        q = random_orthogonal(2 * n, rng)
        for compiler in COMPILERS:
            assert oracle.round_trip_deviation(compiler(q), q) <= 1e-9


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_dense_conjugation(n, rng):
    q = random_orthogonal(2 * n, rng)
    for compiler in COMPILERS:
        assert oracle.conjugation_deviation(compiler(q), q) <= 1e-8


def test_reflections_compile_and_parity(rng):
    n = 3
    parity = dense.pauli_matrix("Z" * n)
    for _ in range(5):
        q = random_orthogonal(2 * n, rng)
        det = np.linalg.det(q)
        for compiler in COMPILERS:
            u = dense_unitary(compiler(q))
            comm = u @ parity - parity @ u
            if det > 0:
                assert np.max(np.abs(comm)) < 1e-10
            else:
                anti = u @ parity + parity @ u
                assert np.max(np.abs(anti)) < 1e-10


def test_embedded_unitaries_compile(rng):
    from conftest import random_unitary

    n = 4
    u = random_unitary(n, rng)
    q = ff.embed_unitary(u)
    for compiler in COMPILERS:
        assert oracle.round_trip_deviation(compiler(q), q) <= 1e-9


# ------------------------------------------------------------------- stats

def test_rotation_counts_scale_quadratically(rng):
    sizes = [4, 8, 16, 32, 64]
    counts = {"naive": [], "blocked": []}
    depths = {"naive": [], "blocked": []}
    for n in sizes:
        q = random_orthogonal(2 * n, rng)
        for name, compiler in (("naive", compile_naive), ("blocked", compile_blocked)):
            st = compiler(q).stats()
            counts[name].append(st.rotation_count)
            depths[name].append(st.depth)
    logs = np.log(np.array(sizes, dtype=float))
    for name in counts:
        count_slope = np.polyfit(logs, np.log(counts[name]), 1)[0]
        depth_slope = np.polyfit(logs, np.log(depths[name]), 1)[0]
        assert abs(count_slope - 2.0) < 0.2
        assert abs(depth_slope - 1.0) < 0.2


def test_stats_compare_small_instance(rng):
    report = stats_compare(random_orthogonal(4, rng))
    assert 0.5 <= report["depth_ratio"] <= 2.0
    assert 0.5 <= report["rotation_ratio"] <= 2.0


def test_naive_count_is_parameter_minimal(rng):
    # a generic rotation needs n(2n-1) angles; the QR scheme meets it exactly
    n = 8
    q = random_orthogonal(2 * n, rng)
    assert compile_naive(q).stats().rotation_count == n * (2 * n - 1)


def test_depth_definition():
    prog = ff.GateProgram(3, (ZRot(0, 0.1), ZRot(1, 0.1), XXRot(0, 0.2), ZRot(2, 0.3)))
    # layer 1: Z0 | Z1 | Z2, layer 2: XX(0,1)
    assert prog.stats().depth == 2


# ------------------------------------------- sequential reference equality

@pytest.mark.parametrize("n", list(range(1, 9)) + [16, 32])
def test_naive_wavefront_matches_sequential_loop(n, rng):
    for _ in range(3 if n <= 8 else 1):
        q = random_orthogonal(2 * n, rng)
        assert compile_naive(q).gates == reference_compile_naive(q).gates


def structured_orthogonals(rng, n=4):
    """Q with exact zeros below the diagonal, where elimination steps are skipped."""
    dim = 2 * n
    signs = rng.choice([-1.0, 1.0], size=dim)
    blocks = np.zeros((dim, dim))
    blocks[:2, :2] = random_orthogonal(2, rng)
    blocks[2:, 2:] = random_orthogonal(dim - 2, rng)
    split = np.zeros((dim, dim))
    split[:4, :4] = random_orthogonal(4, rng)
    split[4:, 4:] = random_orthogonal(dim - 4, rng)
    return {
        "identity": np.eye(dim),
        "permutation": np.eye(dim)[rng.permutation(dim)],
        "signed permutation": np.eye(dim)[rng.permutation(dim)] * signs,
        "block diagonal 2+6": blocks,
        "block diagonal 4+4": split,
        "reversal": np.eye(dim)[::-1],
    }


@pytest.mark.parametrize("compiler", COMPILERS)
def test_structured_inputs_match_references(compiler, rng):
    for name, q in structured_orthogonals(rng).items():
        prog = compiler(q)
        if compiler is compile_naive:
            assert prog.gates == reference_compile_naive(q).gates, name
        recomposed = program_to_orthogonal(prog)
        assert np.array_equal(recomposed, reference_program_to_orthogonal(prog)), name
        assert np.max(np.abs(recomposed - q)) < 1e-9, name


def random_program(n, gates, rng, layer_at=None):
    """Random rotations, with a random Pauli layer inserted at ``layer_at``."""
    out = []
    for _ in range(gates):
        if n > 1 and rng.random() < 0.5:
            out.append(XXRot(int(rng.integers(n - 1)), float(rng.normal())))
        else:
            out.append(ZRot(int(rng.integers(n)), float(rng.normal())))
    if layer_at is not None:
        out.insert(layer_at, PauliLayer("".join(rng.choice(list("IXYZ"), size=n))))
    return ff.GateProgram(n, tuple(out))


@pytest.mark.parametrize("layer_at", [None, 0, 20, 40])
@pytest.mark.parametrize("n", [1, 2, 5])
def test_layered_recomposition_matches_gate_by_gate(n, layer_at, rng):
    for _ in range(5):
        prog = random_program(n, 40, rng, layer_at)
        assert np.array_equal(program_to_orthogonal(prog), reference_program_to_orthogonal(prog))
    for compiler in COMPILERS:
        prog = compiler(random_orthogonal(2 * n, rng))
        assert np.array_equal(program_to_orthogonal(prog), reference_program_to_orthogonal(prog))


def test_layer_action_matches_to_pauli(rng):
    strings = ["".join(w) for length in range(1, 5) for w in product("IXYZ", repeat=length)]
    strings += ["".join(rng.choice(list("IXYZ"), size=int(rng.integers(5, 24))))
                for _ in range(50)]
    for letters in strings:
        assert np.array_equal(_layer_action(letters), reference_layer_action(letters)), letters


def test_layer_letters_invert_layer_action():
    # _layer_action is a bijection from strings onto sign vectors, so this fixes every letter
    for n in range(1, 7):
        for signs in product([1.0, -1.0], repeat=2 * n):
            assert _layer_action(_layer_letters(signs)).tolist() == list(signs), signs


def random_stream(rng):
    """Qubit count, tagged primitives with one sign layer at a random place, and the
    same rotations with that layer pushed to the end, as the compilers hand them over.
    """
    n = int(rng.integers(1, 7))
    specials = [0.0, -0.0, np.pi, -np.pi, 1e-15, -1e-15]
    axes, thetas = [], []
    for _ in range(int(rng.integers(0, 41))):
        repeat = axes and rng.random() < 0.5
        axes.append(axes[-1] if repeat else int(rng.integers(2 * n - 1)))
        special = rng.random() < 0.3
        thetas.append(specials[int(rng.integers(len(specials)))] if special
                      else float(rng.normal()))
    signs = rng.choice([-1.0, 1.0], size=2 * n)
    cut = int(rng.integers(len(axes) + 1))
    prims = [("givens", a, t) for a, t in zip(axes, thetas)]
    prims.insert(cut, ("diag", signs))
    rotations = [(a, t if k < cut else (signs[a] * signs[a + 1]) * t)
                 for k, (a, t) in enumerate(zip(axes, thetas))]
    return n, prims, rotations, signs


def test_assemble_matches_tagged_interpreter():
    # repr compares gate type, qubit and the angle's bits and float type
    rng = np.random.default_rng(1405)
    for _ in range(3000):
        n, prims, rotations, signs = random_stream(rng)
        got = _assemble(n, rotations, signs, ff.DEFAULT)
        want = reference_assemble(n, prims)
        assert [repr(g) for g in got.gates] == [repr(g) for g in want.gates], prims


# ------------------------------------------------------------ serialization

def test_program_json_round_trip(rng):
    from freeferm import io

    q = random_orthogonal(6, rng)
    prog = compile_blocked(q)
    back = io.program_from_json(io.program_to_json(prog), prog.n_qubits)
    assert back == prog
