import math

import numpy as np
import pytest

from phasebc.codestates import CodeParams
from phasebc.fock import FockVector, coherent_vector
from phasebc.phasespace import (
    GridSpec,
    StellarPolynomial,
    stellar_polynomial,
    wigner_mixture,
    wigner_sigma,
)

from oracles import class_vectors


class TestWigner:
    def test_single_gaussian_peak(self):
        grid = wigner_mixture([(1.0, 0.0)], GridSpec.centered(4.0, 161))
        assert abs(grid.values.max() - 1.0 / math.pi) < 1e-12
        i = np.argmax(np.abs(grid.xs) < 1e-12)
        assert grid.values[i, i] == grid.values.max()

    def test_unit_integral(self):
        params = CodeParams.from_energy(1.0, 6)
        for b in (0, 1):
            grid = wigner_sigma(b, params, GridSpec.centered(6.0, 241))
            assert abs(grid.integral() - 1.0) < 1e-4

    def test_nonnegative_everywhere(self):
        grid = wigner_sigma(0, CodeParams.from_energy(1.0, 6))
        assert grid.values.min() >= -1e-15

    def test_linear_in_weights(self):
        spec = GridSpec.centered(3.0, 81)
        a = wigner_mixture([(1.0, 0.5)], spec)
        b = wigner_mixture([(1.0, -0.5j)], spec)
        mixed = wigner_mixture([(0.3, 0.5), (0.7, -0.5j)], spec)
        assert np.abs(mixed.values - (0.3 * a.values + 0.7 * b.values)).max() < 1e-14

    def test_distinguishability_gap_ordering(self):
        # coarse grid separates the two code books at M=6 but not at M=32
        spec = GridSpec.centered(5.0, 201)
        gaps = {}
        for M in (6, 32):
            params = CodeParams.from_energy(1.0, M)
            g0 = wigner_sigma(0, params, spec)
            g1 = wigner_sigma(1, params, spec)
            gaps[M] = float(np.abs(g0.values - g1.values).max())
        assert gaps[6] > 1e-3          # computed value ~1.37e-3
        assert gaps[32] < 1e-6         # numerically indistinguishable
        assert gaps[6] > 100.0 * gaps[32]

    def test_empty_mixture(self):
        with pytest.raises(ValueError):
            wigner_mixture([], GridSpec.centered(1.0, 11))

    def test_csv_lines(self):
        grid = wigner_mixture([(1.0, 0.0)], GridSpec.centered(1.0, 3))
        lines = list(grid.csv_lines())
        assert lines[0] == "x,p,w"
        assert len(lines) == 1 + 9
        x, p, w = lines[1].split(",")
        assert float(x) == grid.xs[0] and float(p) == grid.ps[0]
        assert float(w) == grid.values[0, 0]  # 17 digits round-trip exactly

    def test_csv_lines_match_per_value_formatting(self):
        grid = wigner_mixture([(0.5, 0.3 - 0.2j), (0.5, -1.1j)],
                              GridSpec((-1.3, 0.7), (-0.4, 2.1), 7))
        expected = ["x,p,w"] + [
            f"{grid.xs[i]:.17g},{grid.ps[j]:.17g},{grid.values[i, j]:.17g}"
            for i in range(grid.xs.size) for j in range(grid.ps.size)
        ]
        assert list(grid.csv_lines()) == expected


class TestStellarPolynomial:
    def test_coefficients(self):
        v = coherent_vector(1.0, 6)
        poly = stellar_polynomial(v)
        n = np.arange(7)
        expected = np.asarray(v.amps) / np.sqrt(
            np.array([math.factorial(int(i)) for i in n]))
        assert np.abs(poly.coeffs - expected).max() < 1e-15

    def test_zero_state_rejected(self):
        with pytest.raises(ValueError):
            stellar_polynomial(FockVector(3, np.zeros(4)))

    def test_single_photon_one_origin_root(self):
        v = FockVector(4, np.array([0.0, 1.0, 0.0, 0.0, 0.0]))
        poly = stellar_polynomial(v)
        assert poly.degree == 1
        assert poly.origin_multiplicity() == 1

    @pytest.mark.parametrize("r", [0, 1, 2, 3])
    def test_sector_vector_origin_multiplicity(self, r):
        params = CodeParams.from_energy(1.0, 4)
        v = class_vectors(0, params)[r]
        poly = stellar_polynomial(v)
        assert poly.origin_multiplicity() == r

    def test_trailing_zeros_stripped(self):
        v = FockVector(6, np.array([0.5, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0]))
        assert stellar_polynomial(v).degree == 1


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec((1.0, -1.0), (-1.0, 1.0))
        with pytest.raises(ValueError):
            GridSpec((-1.0, 1.0), (-1.0, 1.0), points=1)

    # a TypeError from linspace, and NumPy warnings where the span is inf or nan
    @pytest.mark.parametrize("spec", [
        lambda: GridSpec.centered(1.0, 2.5),
        lambda: GridSpec.centered(math.inf),
        lambda: GridSpec.centered(1e308, 3),
        lambda: GridSpec((np.float64(-1e308), np.float64(1e308)), (-1.0, 1.0), 3),
        lambda: GridSpec((-1.0, 1.0), ("-1", True), 3),
    ], ids=["float-points", "inf-halfwidth", "span-overflow", "numpy-span-overflow",
            "non-real-bounds"])
    def test_domain_refused_with_value_error(self, spec):
        with pytest.raises(ValueError):
            spec()

    def test_bounds_and_points_kept_as_python_numbers(self):
        spec = GridSpec((np.float32(-1.5), 1), (-1.0, np.float64(2.0)), np.int64(5))
        assert spec == GridSpec((-1.5, 1.0), (-1.0, 2.0), 5)
        assert {type(x) for x in spec.x_range + spec.p_range} == {float}
        assert type(spec.points) is int

    def test_axes_uniform(self):
        xs, ps = GridSpec.centered(2.0, 41).axes()
        dx = np.diff(xs)
        assert np.abs(dx - dx[0]).max() < 1e-12
        assert xs[0] == -2.0 and xs[-1] == 2.0 and ps.size == 41
