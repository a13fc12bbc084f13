"""Grid calculus: differentiation, quadrature, norms, and the dump format."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtmlab.grid import (
    FieldState,
    Grid,
    differentiate,
    dump_state,
    h1_norm_sq,
    load_state,
    norms,
    quadrature,
    write_table,
    zero_state,
)
from mtmlab.soliton import eval_soliton, SolitonParams
from conftest import random_decaying_state
from oracles import h1_norm_sq_physical


class TestGridInvariants:
    @pytest.mark.parametrize("n, named", [(257, "even point count"), (1024.0, "integer")])
    def test_periodic_needs_even_points(self, n, named):
        with pytest.raises(ValueError, match=named):
            Grid(10.0, n)

    def test_minimum_point_count(self):
        with pytest.raises(ValueError):
            Grid(10.0, 4)

    @pytest.mark.parametrize("half_length", [np.inf, np.nan, 0.0])
    def test_half_length_finite_and_positive(self, half_length):
        with pytest.raises(ValueError, match="half_length"):
            Grid(half_length, 8)

    def test_spacing_and_positions(self):
        g = Grid(20.0, 256)
        assert g.dx == pytest.approx(40.0 / 256)
        assert g.x[0] == pytest.approx(-20.0)

    def test_field_state_checks(self):
        g = Grid(10.0, 64)
        with pytest.raises(ValueError):
            FieldState(g, np.zeros(63), np.zeros(64))
        bad = np.zeros(64, dtype=complex)
        bad[3] = np.nan
        with pytest.raises(ValueError):
            FieldState(g, bad, np.zeros(64))

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_field_state_time_finite(self, t):
        with pytest.raises(ValueError, match="field time t must be finite"):
            FieldState(Grid(10.0, 64), np.zeros(64), np.zeros(64), t)


class TestDifferentiate:
    def test_resolved_mode_is_exact(self):
        g = Grid(20.0, 256)
        f = np.sin(np.pi * g.x / g.half_length)
        expected = (np.pi / g.half_length) * np.cos(np.pi * g.x / g.half_length)
        assert np.max(np.abs(differentiate(f, g) - expected)) < 1e-10

    def test_constant_derivative_vanishes(self):
        g = Grid(20.0, 256)
        assert np.max(np.abs(differentiate(np.ones(g.n), g))) < 1e-14

    def test_complex_exponential(self):
        g = Grid(20.0, 256)
        k = 2.0 * np.pi / g.half_length
        f = np.exp(1j * k * g.x)
        assert np.max(np.abs(differentiate(f, g) - 1j * k * f)) < 1e-10

    @settings(max_examples=20, deadline=None)
    @given(
        a=st.floats(-5, 5, allow_nan=False),
        b=st.floats(-5, 5, allow_nan=False),
    )
    def test_linearity(self, a, b):
        g = Grid(15.0, 128)
        f1 = np.exp(-(g.x**2)) * np.exp(0.3j * g.x)
        f2 = np.cos(np.pi * g.x / g.half_length)
        lhs = differentiate(a * f1 + b * f2, g)
        rhs = a * differentiate(f1, g) + b * differentiate(f2, g)
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * (1.0 + abs(a) + abs(b))

    def test_integration_by_parts(self):
        g = Grid(20.0, 512)
        f = np.exp(-(g.x**2)) * (1.0 + 0.5j * g.x)
        h = np.exp(-((g.x - 1.0) ** 2) / 2.0)
        total = quadrature(f * differentiate(h, g), g) + quadrature(differentiate(f, g) * h, g)
        assert abs(total) < 1e-8

    def test_periodic_derivative_has_zero_mean(self):
        g = Grid(20.0, 256)
        f = np.exp(-(g.x**2)) + 0.2j * np.sin(np.pi * g.x / 20.0)
        assert abs(quadrature(differentiate(f, g), g)) < 1e-14

    def test_length_mismatch(self):
        g = Grid(10.0, 64)
        with pytest.raises(ValueError):
            differentiate(np.zeros(32), g)


class TestQuadrature:
    def test_constant_on_periodic(self):
        g = Grid(20.0, 256)
        assert quadrature(np.ones(g.n), g) == pytest.approx(40.0)

    def test_sech_squared_on_line(self):
        g = Grid(40.0, 2048)
        val = quadrature(1.0 / np.cosh(g.x) ** 2, g)
        assert abs(val - 2.0) < 1e-8

    def test_odd_integrand_cancels(self):
        g = Grid(40.0, 2048)
        val = quadrature(g.x / np.cosh(g.x), g)
        assert abs(val) < 1e-12

    def test_length_mismatch(self):
        g = Grid(10.0, 64)
        with pytest.raises(ValueError):
            quadrature(np.zeros(65), g)


class TestNorms:
    def test_zero_field(self):
        vals = norms(zero_state(Grid(10.0, 64)))
        assert all(v == 0.0 for v in vals.values())

    def test_soliton_charge_at_zero_frequency(self):
        g = Grid(30.0, 1024)
        state = eval_soliton(SolitonParams(0.0), g)
        assert norms(state)["L2_sq"] == pytest.approx(np.pi, abs=1e-8)

    def test_gaussian_l2(self):
        g = Grid(20.0, 1024)
        state = FieldState(g, np.exp(-(g.x**2)), np.zeros(g.n))
        assert norms(state)["L2_sq"] == pytest.approx(np.sqrt(np.pi / 2.0), abs=1e-8)

    def test_h1_adds_derivative_energy(self):
        g = Grid(20.0, 1024)
        state = FieldState(g, np.exp(-(g.x**2)), np.zeros(g.n))
        vals = norms(state)
        grad_sq = np.sqrt(np.pi / 2.0)  # ||d/dx exp(-x^2)||^2 happens to equal ||.||^2
        assert vals["H1_sq"] == pytest.approx(vals["L2_sq"] + grad_sq, abs=1e-8)


class TestH1InnerProduct:
    def test_weights_zero_the_nyquist_derivative(self):
        g = Grid(10.0, 64)
        assert np.array_equal(g.h1_weights, 1.0 + g.wavenumbers_odd**2)
        assert g.h1_weights[g.n // 2] == 1.0

    @pytest.mark.parametrize("seed", range(4))
    def test_parseval_norms_match_physical_oracle(self, seed):
        g = Grid(20.0, 256)
        state = random_decaying_state(g, seed)
        pair = (state.u, state.v)
        ref = h1_norm_sq_physical(pair, g)
        assert h1_norm_sq(state.u, g) == pytest.approx(
            h1_norm_sq_physical(state.u, g), rel=1e-13, abs=0.0)
        assert h1_norm_sq(pair, g) == pytest.approx(ref, rel=1e-13, abs=0.0)
        assert norms(state)["H1_sq"] == pytest.approx(ref, rel=1e-13, abs=0.0)

    def test_stack_is_per_field_bit_for_bit(self):
        g = Grid(20.0, 256)
        state = random_decaying_state(g, 5)
        for order in (1, 2):
            du, dv = differentiate((state.u, state.v), g, order)
            assert np.array_equal(du, differentiate(state.u, g, order))
            assert np.array_equal(dv, differentiate(state.v, g, order))
        assert norms(state)["H1_sq"] == h1_norm_sq(state.u, g) + h1_norm_sq(state.v, g)

    def test_norms_transform_the_pair_once(self, fft_calls):
        state = random_decaying_state(Grid(20.0, 256), 2)
        fft_calls.clear()
        norms(state)
        assert fft_calls == {"fft": 1}


class TestDumpFormat:
    def test_round_trip(self, tmp_path):
        g = Grid(12.0, 128)
        state = FieldState(g, np.exp(-(g.x**2)) * 1j, np.cos(g.x / 4.0), t=1.25)
        path = tmp_path / "state.csv"
        dump_state(state, path)
        first = path.read_text().splitlines()
        assert first[0].startswith("# t=1.25 L=12.0 N=128 bc=periodic")
        assert first[1] == "x,re_u,im_u,re_v,im_v"
        back = load_state(path)
        assert back.grid == g
        assert back.t == state.t
        assert np.max(np.abs(back.u - state.u)) == 0.0
        assert np.max(np.abs(back.v - state.v)) == 0.0

    def test_non_periodic_dump_rejected(self, tmp_path):
        g = Grid(12.0, 128)
        path = tmp_path / "state.csv"
        dump_state(zero_state(g), path)
        text = path.read_text().replace("bc=periodic", "bc=line", 1)
        path.write_text(text)
        with pytest.raises(ValueError, match="bc=periodic"):
            load_state(path)

    @pytest.mark.parametrize("key", ["t", "L", "N"])
    def test_missing_metadata_key_named(self, tmp_path, key):
        path = tmp_path / "state.csv"
        dump_state(zero_state(Grid(12.0, 128)), path)
        meta, rest = path.read_text().split("\n", 1)
        meta = " ".join(tok for tok in meta.split() if not tok.startswith(f"{key}="))
        path.write_text(meta + "\n" + rest)
        with pytest.raises(ValueError, match=f"lacks {key}"):
            load_state(path)

    def test_malformed_metadata_token_named(self, tmp_path):
        path = tmp_path / "state.csv"
        dump_state(zero_state(Grid(12.0, 128)), path)
        rest = path.read_text().split("\n", 1)[1]
        path.write_text("# written by hand\n" + rest)
        with pytest.raises(ValueError, match="metadata token 'written' is not key=value: "
                                             "'# written by hand'"):
            load_state(path)

    @pytest.mark.parametrize("t", ["nan", "inf"])
    def test_non_finite_time_rejected(self, tmp_path, t):
        path = tmp_path / "state.csv"
        dump_state(zero_state(Grid(12.0, 128)), path)
        path.write_text(path.read_text().replace("t=0.0", f"t={t}", 1))
        with pytest.raises(ValueError, match="field time t must be finite"):
            load_state(path)

    def test_empty_body_rejected(self, tmp_path):
        path = tmp_path / "state.csv"
        path.write_text("# t=0.0 L=12.0 N=128 bc=periodic\nx,re_u,im_u,re_v,im_v\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy empty-input warning either
            with pytest.raises(ValueError, match="no data rows"):
                load_state(path)

    @pytest.mark.parametrize("edit, named", [
        (lambda lines: lines[:2] + [row.rsplit(",", 2)[0] for row in lines[2:]],
         "dump rows have 3 columns"),
        (lambda lines: [lines[0].replace("L=12.0", "L=abc")] + lines[1:], "L=abc is not a number"),
        (lambda lines: lines[:10], "dump has 8 data rows for N=16"),
    ], ids=["columns", "key", "rows"])
    def test_malformed_table_named(self, tmp_path, edit, named):
        path = tmp_path / "state.csv"
        dump_state(zero_state(Grid(12.0, 16)), path)
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        with pytest.raises(ValueError, match=named):
            load_state(path)


class TestWriteTable:
    def test_header_lines_and_rows(self, tmp_path):
        path = tmp_path / "table.csv"
        write_table(path, "# note\na,b,c", [(0.1, "x", 2), (np.float64(1e-8), np.float64(-0.0), 3)])
        assert path.read_text() == "# note\na,b,c\n0.1,x,2\n1e-08,-0.0,3\n"

    def test_raising_rows_leave_no_file(self, tmp_path):
        def rows():
            yield (1.0, 2.0)
            raise RuntimeError("row failed")

        path = tmp_path / "table.csv"
        with pytest.raises(RuntimeError, match="row failed"):
            write_table(path, "a,b", rows())
        assert not path.exists()
