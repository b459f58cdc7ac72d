import numpy as np
import pytest

from disentlab.errors import NotPositiveSemidefinite
from disentlab.linalg import (
    CONTRACTION_SLACK,
    Eigendecomposition,
    SymMatrix,
    eig_sym,
    project_contraction,
    spd_sqrt,
)


def _random_sym(rng, d, scale=1.0):
    m = rng.standard_normal((d, d)) * scale
    return SymMatrix(m + m.T)


def _random_spd(rng, d, lo=0.1, hi=10.0):
    q = np.linalg.qr(rng.standard_normal((d, d)))[0]
    w = rng.uniform(lo, hi, size=d)
    return SymMatrix((q * w) @ q.T)


class TestSymMatrix:
    def test_symmetrizes_by_averaging(self):
        m = SymMatrix([[1.0, 2.0], [0.0, 1.0]])
        assert np.array_equal(m.entries, [[1.0, 1.0], [1.0, 1.0]])
        assert np.array_equal(m.entries, m.entries.T)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            SymMatrix(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            SymMatrix(np.zeros((0, 0)))

    def test_entries_frozen(self):
        m = SymMatrix(np.eye(2))
        with pytest.raises(ValueError):
            m.entries[0, 0] = 5.0


class TestEigSym:
    def test_diagonal_case(self):
        w, v = eig_sym(SymMatrix(np.diag([3.0, 1.0])))
        assert np.allclose(w, [3.0, 1.0], atol=1e-14)
        assert np.allclose(np.abs(v), np.eye(2), atol=1e-14)

    def test_hand_solved_two_by_two(self):
        # [[2,1],[1,2]] has eigenpairs (3, (1,1)/sqrt(2)) and (1, (1,-1)/sqrt(2)).
        w, v = eig_sym(SymMatrix([[2.0, 1.0], [1.0, 2.0]]))
        s = 1.0 / np.sqrt(2.0)
        assert np.allclose(w, [3.0, 1.0], atol=1e-14)
        assert np.allclose(v[:, 0], [s, s], atol=1e-14)
        assert np.allclose(v[:, 1], [s, -s], atol=1e-14)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            m = _random_sym(rng, 6, scale=3.0)
            w, v = eig_sym(m)
            scale = np.linalg.norm(m.entries)
            assert np.linalg.norm((v * w) @ v.T - m.entries) <= 1e-10 * max(scale, 1.0)
            assert np.linalg.norm(v.T @ v - np.eye(6)) <= 1e-10
            assert np.all(np.diff(w) <= 1e-12)

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(11)
        m = _random_sym(rng, 5)
        _, v = eig_sym(m)
        for col in range(5):
            nz = np.flatnonzero(np.abs(v[:, col]) > 1e-12)
            assert v[nz[0], col] > 0

    @staticmethod
    def _loop_sign_rule(m: SymMatrix):
        """The per-column sign rule that eig_sym's one pass must reproduce bit for bit."""
        w, v = np.linalg.eigh(m.entries)
        w = w[::-1].copy()
        v = v[:, ::-1].copy()
        for col in range(v.shape[1]):
            anchors = np.flatnonzero(np.abs(v[:, col]) > 1e-12)
            pivot = anchors[0] if anchors.size else 0
            if v[pivot, col] < 0:
                v[:, col] = -v[:, col]
        return w, v

    @staticmethod
    def _sign_rule_cases(rng, d):
        """Symmetric d x d matrices that test the sign rule's edge cases.

        Random matrices, and axis-aligned ones whose eigenvectors have exact
        zeros or components near the anchor threshold above their pivots; one
        couples coordinate 0 so weakly that most eigenvectors lead with a
        component below _SIGN_EPS; and repeated eigenvalues, whose
        eigenvectors within the repeated space are LAPACK's choice.
        """
        perm = np.eye(d)[rng.permutation(d)]
        tiny = np.diag(rng.uniform(1.0, 5.0, d))
        tiny[0, -1] = tiny[-1, 0] = 1e-12 * (d > 1)
        faint = _random_sym(rng, d).entries.copy()
        faint[0, 1:] *= 1e-15
        faint[1:, 0] *= 1e-15
        q = np.linalg.qr(rng.standard_normal((d, d)))[0]
        repeated = np.repeat(rng.uniform(0.5, 3.0, (d + 1) // 2), 2)[:d]
        return [
            _random_sym(rng, d, scale=3.0),
            SymMatrix(np.diag(rng.uniform(-2.0, 2.0, d))),
            SymMatrix(perm @ np.diag(-rng.uniform(0.5, 2.0, d)) @ perm.T),
            SymMatrix(tiny),
            SymMatrix(faint),
            SymMatrix((q * repeated) @ q.T),
            SymMatrix(np.eye(d)),
            SymMatrix(np.zeros((d, d))),
        ]

    def test_sign_rule_matches_per_column_loop(self):
        rng = np.random.default_rng(12)
        for d in range(1, 17):
            for m in self._sign_rule_cases(rng, d):
                w, v = eig_sym(m)
                want_w, want_v = self._loop_sign_rule(m)
                assert np.array_equal(w, want_w)
                assert np.array_equal(v, want_v)
                assert v.flags["C_CONTIGUOUS"]

    def test_stack_equals_one_matrix_calls_bit_for_bit(self):
        rng = np.random.default_rng(13)
        for d in range(1, 9):
            cases = self._sign_rule_cases(rng, d) + self._sign_rule_cases(rng, d)
            stack = np.stack([m.entries for m in cases])
            w, v = eig_sym(stack)
            assert w.shape == (len(cases), d) and v.shape == stack.shape
            for m, got_w, got_v in zip(cases, w, v):
                want_w, want_v = eig_sym(m)
                assert np.array_equal(got_w, want_w)
                assert np.array_equal(got_v, want_v)
            # a (2, F/2, d, d) stack too, and a plain 2-D array as a SymMatrix
            w4, v4 = eig_sym(stack.reshape(2, -1, d, d))
            assert np.array_equal(w4.reshape(w.shape), w)
            assert np.array_equal(v4.reshape(v.shape), v)
            assert all(np.array_equal(a, b) for a, b in zip(eig_sym(stack[0]), eig_sym(cases[0])))

    def test_faint_coupling_leads_with_components_below_the_anchor(self):
        # the case that makes the sign rule skip a component must occur
        rng = np.random.default_rng(14)
        m = self._sign_rule_cases(rng, 5)[4]
        _, v = eig_sym(m)
        assert np.any((np.abs(v[0]) > 0) & (np.abs(v[0]) <= 1e-12))

    def test_rejects_non_square_shapes(self):
        for shape in [(3,), (2, 3), (4, 2, 3)]:
            with pytest.raises(ValueError, match="square"):
                eig_sym(np.zeros(shape))

    def test_returns_named_tuple(self):
        out = eig_sym(SymMatrix(np.eye(3)))
        assert isinstance(out, Eigendecomposition)


class TestSpdSqrt:
    def test_identity(self):
        r = spd_sqrt(SymMatrix(np.eye(3)))
        assert np.allclose(r.entries, np.eye(3), atol=1e-14)

    def test_diagonal(self):
        r = spd_sqrt(SymMatrix(np.diag([4.0, 9.0])))
        assert np.allclose(r.entries, np.diag([2.0, 3.0]), atol=1e-14)

    def test_multiply_back(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = _random_spd(rng, 5)
            r = spd_sqrt(m)
            err = np.linalg.norm(r.entries @ r.entries - m.entries)
            assert err <= 1e-9 * np.linalg.norm(m.entries)

    def test_commutes_with_input(self):
        rng = np.random.default_rng(4)
        m = _random_spd(rng, 6)
        r = spd_sqrt(m)
        comm = r.entries @ m.entries - m.entries @ r.entries
        assert np.linalg.norm(comm) <= 1e-10 * np.linalg.norm(m.entries)

    def test_clamps_tiny_negative_eigenvalues(self):
        m = SymMatrix(np.diag([1.0, -5e-11]))
        r = spd_sqrt(m)
        assert np.allclose(r.entries, np.diag([1.0, 0.0]), atol=1e-5)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveSemidefinite, match="^matrix has eigenvalue -1.0"):
            spd_sqrt(SymMatrix(np.diag([1.0, -1.0])))

    def test_stack_equals_one_matrix_calls_bit_for_bit(self):
        rng = np.random.default_rng(9)
        cases = [_random_spd(rng, 4) for _ in range(5)]
        cases += [SymMatrix(np.diag([3.0, 2.0, 0.0, -5e-11])), SymMatrix(np.eye(4))]
        tol = rng.uniform(1e-10, 1e-9, len(cases))
        roots = spd_sqrt(np.stack([m.entries for m in cases]), tol)
        assert isinstance(roots, np.ndarray) and roots.shape == (len(cases), 4, 4)
        for m, t, got in zip(cases, tol, roots):
            assert np.array_equal(got, spd_sqrt(m, t).entries)
        assert np.array_equal(spd_sqrt(np.stack([m.entries for m in cases])), roots)

    def test_stack_names_the_rejected_matrix(self):
        stack = np.stack([np.eye(2), np.diag([1.0, -1e-9]), np.diag([1.0, -2.0])])
        with pytest.raises(NotPositiveSemidefinite, match="^matrix 1 has eigenvalue -1.0"):
            spd_sqrt(stack)
        # a per-matrix tolerance admits matrix 1, and a one-matrix stack names none
        with pytest.raises(NotPositiveSemidefinite, match="^matrix 2 has eigenvalue -2.0"):
            spd_sqrt(stack, np.array([0.0, 1e-8, 0.0]))
        with pytest.raises(NotPositiveSemidefinite, match="^matrix has eigenvalue -2.0"):
            spd_sqrt(stack[2:])


class TestProjectContraction:
    def test_clips_only_large_singular_values(self):
        out = project_contraction(np.diag([2.0, 0.5]))
        s = np.linalg.svd(out, compute_uv=False)
        assert np.allclose(sorted(s, reverse=True), [1.0, 0.5], atol=1e-12)

    def test_contractive_input_unchanged(self):
        rng = np.random.default_rng(5)
        b = rng.standard_normal((6, 3))
        b *= 0.9 / np.linalg.svd(b, compute_uv=False)[0]
        assert np.array_equal(project_contraction(b), b)

    def test_singular_vectors_preserved(self):
        rng = np.random.default_rng(6)
        b = rng.standard_normal((5, 3))
        u, s, vt = np.linalg.svd(b, full_matrices=False)
        out = project_contraction(b)
        expected = (u * np.minimum(s, 1.0)) @ vt
        assert np.allclose(out, expected, atol=1e-12)

    def test_random_probe_bound_and_idempotence(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            b = rng.standard_normal((rng.integers(2, 7), rng.integers(1, 5))) * 3.0
            out = project_contraction(b)
            assert np.linalg.svd(out, compute_uv=False)[0] <= 1.0 + 1e-12
            assert np.array_equal(project_contraction(out), out)

    def test_stack_equals_one_matrix_calls_bit_for_bit(self):
        rng = np.random.default_rng(6)
        stack = rng.standard_normal((8, 5, 3))
        stack[::3] *= 0.05  # some matrices are already contractive
        out = project_contraction(stack)
        for m, got in zip(stack, out):
            assert np.array_equal(got, project_contraction(m))
        assert np.array_equal(out[0], stack[0])

    def test_contractive_stack_returned_unchanged(self):
        stack = 0.1 * np.random.default_rng(7).standard_normal((4, 3, 2))
        assert project_contraction(stack) is stack

    @pytest.mark.parametrize("d, r", [(1, 1), (3, 1), (3, 2), (4, 4), (5, 3), (8, 8), (16, 12)])
    def test_semi_orthonormal_matrix_is_a_fixed_point_to_16_ulp(self, d, r):
        # The information objective's gradient at a semi-orthonormal B̃ is B̃
        # itself, so every projected step P(B̃ + t·B̃) must come back to B̃:
        # within the 16 ulp of CONTRACTION_SLACK, the rounding by which
        # lingauss stops such an ascent after one rejected candidate. (For
        # B̃ + t·B̃·S with a general PSD S the rounding can exceed 16 ulp; such
        # an ascent keeps halving its step until a candidate moves B̃ by no
        # more, or the step falls below step_size·2⁻⁴⁰.)
        rng = np.random.default_rng(100 * d + r)
        bound = CONTRACTION_SLACK - 1.0
        for _ in range(20):
            b = np.linalg.qr(rng.standard_normal((d, r)))[0]
            for t in 10.0 ** np.arange(-12, 2):  # 1e-12 to 10
                moved = np.linalg.norm(project_contraction(b + t * b) - b)
                assert moved <= bound * np.linalg.norm(b), (t, moved)
