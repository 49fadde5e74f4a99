"""Kinetic model layer: reaction terms, Jacobians, equilibria, case analysis."""

from fractions import Fraction

import numpy as np
import pytest

from rdlab import CompetitionModel, ConfigError, DegenerateModelError
from rdlab.analysis import _norm_batch
from rdlab.model import (
    classify,
    condition_report,
    equilibria,
    jacobian,
    load_model,
    model_to_dict,
    reaction,
    region_membership,
    support_solutions,
    two_species_case,
)


def _frac_det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


# The benchmark matrix in exact rationals: entries are decimal fractions, so
# every determinant below is exact.
FRAC_MATRIX = [
    [Fraction(2), Fraction(11, 10), Fraction(31, 10)],
    [Fraction(31, 10), Fraction(2), Fraction(9, 10)],
    [Fraction(19, 20), Fraction(29, 10), Fraction(2)],
]


def _frac_replace_col(m, j, col):
    return [[col[i] if k == j else m[i][k] for k in range(3)] for i in range(3)]


class TestReactionAndJacobian:
    def test_reaction_hand_values(self, reference_kinetics):
        U = np.array([0.1, 0.2, 0.3])
        # row i of a U: 2*0.1 + 1.1*0.2 + 3.1*0.3 etc.
        aU = np.array([1.35, 0.98, 1.275])
        expected = U * (1.0 - aU)
        got = reaction(reference_kinetics, U)
        assert np.allclose(got, expected, rtol=0.0, atol=1e-15)

    def test_reaction_batch_matches_loop(self, reference_kinetics):
        rng = np.random.default_rng(11)
        pts = rng.uniform(0.0, 2.0, size=(40, 3))
        batch = reaction(reference_kinetics, pts.T)
        for k, p in enumerate(pts):
            assert np.allclose(batch[:, k], reaction(reference_kinetics, p))

    def test_coordinate_planes_invariant(self, reference_kinetics):
        # an absent species has zero growth, so each coordinate plane traps the flow
        rng = np.random.default_rng(12)
        for i in range(3):
            U = rng.uniform(0.0, 2.0, size=3)
            U[i] = 0.0
            assert reaction(reference_kinetics, U)[i] == 0.0

    def test_jacobian_matches_finite_differences(self, reference_kinetics):
        # the reaction is quadratic, so central differences are exact up to roundoff
        rng = np.random.default_rng(13)
        h = 1e-6
        for _ in range(1000):
            U = rng.uniform(0.0, 2.0, size=3)
            J = jacobian(reference_kinetics, U)
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                col = (reaction(reference_kinetics, U + e)
                       - reaction(reference_kinetics, U - e)) / (2.0 * h)
                assert np.max(np.abs(J[:, j] - col)) < 1e-8

    def test_frobenius_sq_closed_form_two_species(self):
        # independent route: the expanded polynomial in (u, v, b, c)
        rng = np.random.default_rng(14)
        for _ in range(20):
            b, c = rng.uniform(0.2, 3.0, size=2)
            model = CompetitionModel(a=np.array([[1.0, b], [c, 1.0]]), d=np.ones(2))
            pts = rng.uniform(0.0, 2.0, size=(500, 2))
            u, v = pts.T
            closed = (
                2.0 - 4.0 * u - 4.0 * v - 2.0 * b * v - 2.0 * c * u
                + 4.0 * u * u + 4.0 * v * v
                + (b * b + c * c) * (u * u + v * v)
                + 4.0 * (b + c) * u * v
            )
            assert np.max(np.abs(_norm_batch(model, pts, "frobenius") ** 2 - closed)) < 1e-12

    def test_operator_norm_bounded_by_frobenius(self, reference_kinetics):
        pts = np.random.default_rng(15).uniform(0.0, 1.5, size=(100, 3))
        op = _norm_batch(reference_kinetics, pts, "operator")
        fro = _norm_batch(reference_kinetics, pts, "frobenius")
        assert np.all(op <= fro + 1e-12)


class TestEquilibria:
    def test_support_enumeration(self, reference_kinetics):
        sols = support_solutions(reference_kinetics)
        assert len(sols) == 8  # every subset of three species
        by_support = {s.support: s for s in sols}
        assert by_support[()].status == "equilibrium"
        for i in range(3):
            assert by_support[(i,)].status == "equilibrium"
        # all three two-species systems put one component below zero
        for pair in [(0, 1), (0, 2), (1, 2)]:
            assert by_support[pair].status == "not-positive"
        assert by_support[(0, 1, 2)].status == "equilibrium"

    def test_pair_supports_exact_cramer(self):
        # exact-rational route through each 2 x 2 subsystem
        for pair in [(0, 1), (0, 2), (1, 2)]:
            sub = [[FRAC_MATRIX[i][j] for j in pair] for i in pair]
            det = sub[0][0] * sub[1][1] - sub[0][1] * sub[1][0]
            assert det != 0
            x = ((sub[1][1] - sub[0][1]) / det, (sub[0][0] - sub[1][0]) / det)
            assert min(x) < 0, "each pair system must have a negative component"

    def test_exactly_five_equilibria(self, reference_kinetics):
        eqs = equilibria(reference_kinetics)
        assert len(eqs) == 5
        assert sorted(e.label for e in eqs) == ["P_0", "P_1", "P_u", "P_v", "P_w"]

    def test_residuals_below_threshold(self, reference_kinetics):
        for eq in equilibria(reference_kinetics):
            res = np.max(np.abs(reaction(reference_kinetics, eq.point)))
            assert res < 1e-10, eq.label

    def test_stability_labels(self, reference_kinetics):
        stab = {e.label: e.stability for e in equilibria(reference_kinetics)}
        assert stab["P_0"] == "source"
        assert stab["P_u"] == "saddle"
        assert stab["P_v"] == "saddle"
        assert stab["P_w"] == "saddle"
        assert stab["P_1"] == "saddle"

    def test_classify_rejects_non_equilibrium(self, reference_kinetics):
        with pytest.raises(ValueError):
            classify(reference_kinetics, np.array([0.4, 0.4, 0.4]))


class TestConditionReport:
    def test_exact_rational_oracle(self, reference_kinetics):
        # all determinants recomputed in exact arithmetic
        ones = [Fraction(1)] * 3
        W = _frac_det3(FRAC_MATRIX)
        W_u = _frac_det3(_frac_replace_col(FRAC_MATRIX, 0, ones))
        W_v = _frac_det3(_frac_replace_col(FRAC_MATRIX, 1, ones))
        W_w = _frac_det3(_frac_replace_col(FRAC_MATRIX, 2, ones))
        assert W == Fraction(37759, 2000)
        assert (W_u, W_v, W_w) == (Fraction(297, 100), Fraction(88, 25), Fraction(117, 40))
        p = (
            FRAC_MATRIX[0][0] * W_u / W
            + FRAC_MATRIX[1][1] * W_v / W
            + FRAC_MATRIX[2][2] * W_w / W
            - 1
        )
        assert p == Fraction(-99, 37759)

        rep = condition_report(reference_kinetics)
        assert abs(rep.W - float(W)) < 1e-12 * float(W)
        assert abs(rep.W_u - float(W_u)) < 1e-12
        assert abs(rep.W_v - float(W_v)) < 1e-12
        assert abs(rep.W_w - float(W_w)) < 1e-12
        assert abs(rep.p - float(p)) < 1e-15
        assert rep.p == pytest.approx(-0.0026218914695834705, abs=1e-15)
        expected_point = np.array([float(W_u / W), float(W_v / W), float(W_w / W)])
        assert np.max(np.abs(rep.interior_point - expected_point)) < 1e-14

    def test_reference_case_assignment(self, reference_kinetics):
        rep = condition_report(reference_kinetics)
        assert rep.W > 0 and rep.W_u > 0 and rep.W_v > 0 and rep.W_w > 0
        assert rep.p < 0
        assert rep.ineq9_holds
        assert rep.case == "periodic-attractor-candidate"

    def test_weak_competition_is_stable_case(self):
        a = np.array([[1.0, 0.1, 0.1], [0.1, 1.0, 0.1], [0.1, 0.1, 1.0]])
        rep = condition_report(CompetitionModel(a=a, d=np.ones(3)))
        # symmetric weak coupling: interior point at 1/1.2 each, surplus 3/1.2 - 1 > 0
        assert rep.case == "P1-stable"
        assert rep.p == pytest.approx(1.5, abs=1e-12)

    def test_symmetric_strong_competition_not_covered(self):
        a = np.array([[1.0, 2.0, 2.0], [2.0, 1.0, 2.0], [2.0, 2.0, 1.0]])
        rep = condition_report(CompetitionModel(a=a, d=np.ones(3)))
        assert rep.p == pytest.approx(-0.4, abs=1e-12)
        assert not rep.ineq9_holds
        assert rep.case == "not-covered"

    def test_mixed_determinant_signs_outside_cone(self):
        a = np.array([[1.0, 0.5, 0.5], [0.5, 1.0, 0.5], [3.0, 3.0, 1.0]])
        rep = condition_report(CompetitionModel(a=a, d=np.ones(3)))
        assert rep.case == "P1-outside-cone"
        assert rep.interior_point is None

    def test_singular_matrix_raises(self):
        a = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [2.0, 1.0, 1.0]])
        with pytest.raises(DegenerateModelError):
            condition_report(CompetitionModel(a=a, d=np.ones(3)))

    def test_requires_three_species(self):
        model = CompetitionModel(a=np.array([[1.0, 0.5], [0.5, 1.0]]), d=np.ones(2))
        with pytest.raises(ValueError):
            condition_report(model)


class TestCharacteristicCubic:
    """Eigenvalues at the interior point against the factored cubic.

    With P = (alpha, beta, gamma) the interior equilibrium and
    p = sum_i a[i, i] P_i - 1, the linearization's characteristic polynomial
    factors as (lambda + 1)(lambda^2 + p lambda + alpha beta gamma det(a)).
    Roots of that cubic are an independent route to the spectrum.
    """

    @staticmethod
    def _cubic_roots(rep):
        prod = float(np.prod(rep.interior_point)) * rep.W
        quad = np.roots([1.0, rep.p, prod])
        roots = np.concatenate([[-1.0 + 0.0j], quad.astype(complex)])
        return roots[np.lexsort((roots.imag, roots.real))]

    @staticmethod
    def _spectrum(model, rep):
        eig = np.linalg.eigvals(jacobian(model, rep.interior_point))
        return eig[np.lexsort((eig.imag, eig.real))]

    def test_reference_matrix(self, reference_kinetics):
        rep = condition_report(reference_kinetics)
        diff = np.abs(self._cubic_roots(rep) - self._spectrum(reference_kinetics, rep))
        assert np.max(diff) < 1e-8

    def test_random_admissible_matrices(self):
        rng = np.random.default_rng(7)
        accepted = 0
        while accepted < 20:
            a = rng.uniform(0.5, 3.0, size=(3, 3))
            model = CompetitionModel(a=a, d=np.ones(3))
            try:
                rep = condition_report(model)
            except DegenerateModelError:
                continue
            if rep.interior_point is None:
                continue
            accepted += 1
            diff = np.abs(self._cubic_roots(rep) - self._spectrum(model, rep))
            assert np.max(diff) < 1e-8


class TestRegions:
    def test_membership_cases(self, reference_kinetics):
        assert region_membership(reference_kinetics, np.zeros(3)) == "D_minus"
        assert region_membership(reference_kinetics, np.array([0.5, 0.0, 0.0])) == "A"
        assert region_membership(reference_kinetics, np.ones(3)) == "D_plus"

    def test_interior_point_sits_on_all_ties(self, reference_kinetics):
        rep = condition_report(reference_kinetics)
        assert region_membership(reference_kinetics, rep.interior_point) == "A"

    def test_negative_state_rejected(self, reference_kinetics):
        with pytest.raises(ValueError):
            region_membership(reference_kinetics, np.array([-0.1, 0.2, 0.2]))


class TestTwoSpecies:
    @pytest.mark.parametrize(
        "b,c,expected",
        [
            (0.3, 0.3, "coexistence"),
            (0.3, 1.5, "u-wins"),
            (1.5, 0.3, "v-wins"),
            (1.5, 1.5, "bistable"),
        ],
    )
    def test_case_table(self, b, c, expected):
        model = CompetitionModel(a=np.array([[1.0, b], [c, 1.0]]), d=np.ones(2))
        assert two_species_case(model) == expected

    def test_unit_coupling_degenerate(self):
        model = CompetitionModel(a=np.array([[1.0, 1.0], [0.5, 1.0]]), d=np.ones(2))
        with pytest.raises(DegenerateModelError):
            two_species_case(model)

    def test_requires_unit_diagonal(self):
        model = CompetitionModel(a=np.array([[2.0, 0.5], [0.5, 1.0]]), d=np.ones(2))
        with pytest.raises(ValueError):
            two_species_case(model)


class TestLoadModel:
    def test_roundtrip_through_dict(self, reference_kinetics):
        model = load_model(model_to_dict(reference_kinetics))
        assert np.array_equal(model.a, reference_kinetics.a)
        assert np.array_equal(model.d, reference_kinetics.d)

    def test_roundtrip_through_file(self, tmp_path, reference_model):
        import json

        path = tmp_path / "model.json"
        path.write_text(json.dumps(model_to_dict(reference_model)))
        model = load_model(str(path))
        assert np.array_equal(model.a, reference_model.a)
        assert np.array_equal(model.d, reference_model.d)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            load_model({"n": 2, "a": [[1, 0.5], [0.5, 1]], "d": [1, 1], "extra": 1})

    def test_unreadable_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match=r"^cannot read model file .*missing\.json: "):
            load_model(str(tmp_path / "missing.json"))

    @pytest.mark.parametrize("text", ["5", "null", "[1, 2]"])
    def test_file_without_an_object_rejected(self, tmp_path, text):
        # a number or null raised an uncaught TypeError from set(data)
        path = tmp_path / "model.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match="JSON object"):
            load_model(str(path))

    @pytest.mark.parametrize("key, value", [("d", {}), ("d", ""), ("a", [[1.0, 0.5], [0.5]])])
    def test_non_numeric_arrays_rejected(self, key, value):
        # a dict raised an uncaught TypeError, a string or a ragged matrix a ValueError
        data = {"n": 2, "a": [[1.0, 0.5], [0.5, 1.0]], "d": [1.0, 1.0], key: value}
        message = {"d": r"^model\.d must be a non-empty array of numbers$",
                   "a": r"^model: interaction matrix must be square and nonempty$"}[key]
        with pytest.raises(ConfigError, match=message):
            load_model(data)

    @pytest.mark.parametrize("data, message", [
        ({"n": 1, "a": [["1.0"]], "d": [1.0]}, r"^model\.a\[0\]\[0\] must be a finite number$"),
        ({"n": 1, "a": [[1.0]], "d": [True]}, r"^model\.d\[0\] must be a finite number$"),
    ])
    def test_string_and_boolean_entries_rejected(self, data, message):
        # np.array(..., dtype=float) once read "1.0" and true as 1.0
        with pytest.raises(ConfigError, match=message):
            load_model(data)

    @pytest.mark.parametrize("n", [True, 1.0, "1"])
    def test_size_must_be_an_int(self, n):
        # true passed as 1 before, because (1, 1) == (True, True)
        with pytest.raises(ConfigError, match=r"^model\.n must be an integer$"):
            load_model({"n": n, "a": [[1.0]], "d": [1.0]})

    @pytest.mark.parametrize("n", [0, 2])
    def test_size_must_match_the_matrix(self, n):
        with pytest.raises(ConfigError, match=f"'a' must be {n}x{n}"):
            load_model({"n": n, "a": [[1.0]], "d": [1.0]})

    def test_file_without_n_loads(self, tmp_path):
        import json

        path = tmp_path / "model.json"
        path.write_text(json.dumps({"a": [[1.0, 0.3], [0.3, 1.0]], "d": [1.0, 2.0]}))
        model = load_model(str(path))
        assert model.n == 2
        assert np.array_equal(model.d, [1.0, 2.0])

    def test_file_errors_name_the_file(self, tmp_path):
        import json

        path = tmp_path / "model.json"
        path.write_text(json.dumps({"a": [[1.0]], "d": [1.0], "x": 1}))
        with pytest.raises(ConfigError, match=r"^model file '.*model\.json' has unknown keys: x$"):
            load_model(path)

    def test_nonpositive_entries_rejected(self):
        with pytest.raises(ValueError):
            CompetitionModel(a=np.array([[1.0, 0.0], [0.5, 1.0]]), d=np.ones(2))
        with pytest.raises(ValueError):
            CompetitionModel(a=np.array([[1.0, 0.5], [0.5, 1.0]]), d=np.array([1.0, -1.0]))
