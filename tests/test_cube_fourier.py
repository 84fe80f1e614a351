import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import naive_adjacency, naive_convolve, naive_wht
from cube_spectra import (
    CubeFunction,
    IntCubeFunction,
    convolve,
    essential_support_size,
    hamming_weights,
    int_wht,
    inverse_wht,
    moments,
    wht,
)
from cube_spectra import cube_fourier
from oracles import adjacency_kernel, krawtchouk_sums


def test_wht_constant_is_delta():
    f = CubeFunction(1, [1.0, 1.0])
    assert wht(f).values.tolist() == [1.0, 0.0]


def test_wht_adjacency_kernel_transform_n3():
    # transform of the neighbor kernel is n - 2|S|, here (3,1,1,-1,1,-1,-1,-3)
    got = wht(adjacency_kernel(3)).values
    assert got.tolist() == [3.0, 1.0, 1.0, -1.0, 1.0, -1.0, -1.0, -3.0]


def test_wht_character_is_delta():
    w11 = CubeFunction(2, [1.0, -1.0, -1.0, 1.0])
    assert wht(w11).values.tolist() == [0.0, 0.0, 0.0, 1.0]


def test_wht_matches_naive(rng):
    for n in (1, 2, 5, 8):
        f = rng.standard_normal(1 << n)
        np.testing.assert_allclose(
            wht(CubeFunction(n, f)).values, naive_wht(f), atol=1e-12
        )


def test_inverse_wht_examples():
    assert inverse_wht(CubeFunction(1, [1.0, 0.0])).values.tolist() == [1.0, 1.0]
    c = 2.75
    assert inverse_wht(CubeFunction(2, [c, 0, 0, 0])).values.tolist() == [c] * 4


def test_round_trip(rng):
    for n in range(1, 13):
        f = rng.standard_normal(1 << n)
        back = inverse_wht(wht(CubeFunction(n, f))).values
        assert np.max(np.abs(back - f)) < 1e-12


def test_convolve_identity_element(rng):
    n = 4
    f = rng.standard_normal(1 << n)
    e = np.zeros(1 << n)
    e[0] = float(1 << n)
    got = convolve(CubeFunction(n, f), CubeFunction(n, e)).values
    np.testing.assert_allclose(got, f, atol=1e-12)


def test_convolve_indicator_pair():
    ind = CubeFunction(2, [1.0, 0.0, 0.0, 1.0])  # {00, 11}
    got = convolve(ind, ind).values
    np.testing.assert_allclose(got, [0.5, 0.0, 0.0, 0.5], atol=1e-13)


def test_convolve_with_all_ones_gives_mean(rng):
    n = 3
    g = rng.standard_normal(1 << n)
    ones = CubeFunction(n, np.ones(1 << n))
    got = convolve(ones, CubeFunction(n, g)).values
    np.testing.assert_allclose(got, np.full(1 << n, g.mean()), atol=1e-13)


def test_convolve_matches_naive(rng):
    for n in (1, 3, 6):
        f = rng.standard_normal(1 << n)
        g = rng.standard_normal(1 << n)
        got = convolve(CubeFunction(n, f), CubeFunction(n, g)).values
        np.testing.assert_allclose(got, naive_convolve(f, g), atol=1e-12)


def test_convolve_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        convolve(CubeFunction(1, [1, 0]), CubeFunction(2, [1, 0, 0, 0]))


def _kernel_adjacency(f):
    """The adjacency operator as the library computes it: convolution with the kernel."""
    return convolve(f, adjacency_kernel(f.n)).values


def test_adjacency_delta():
    f = CubeFunction(2, [1.0, 0.0, 0.0, 0.0])
    assert naive_adjacency(f.values, 2).tolist() == [0.0, 1.0, 1.0, 0.0]
    assert np.max(np.abs(_kernel_adjacency(f) - [0.0, 1.0, 1.0, 0.0])) < 1e-12


def test_adjacency_constant():
    n = 5
    got = naive_adjacency(np.ones(1 << n), n)
    assert got.tolist() == [float(n)] * (1 << n)
    assert np.max(np.abs(_kernel_adjacency(CubeFunction(n, np.ones(1 << n))) - n)) < 1e-12


def test_adjacency_on_lifted_profile():
    # profile (1,1,1) over n=2 lifts to all-ones; neighbor sums give profile (2,2,2)
    f = CubeFunction(2, np.ones(4))
    out = naive_adjacency(f.values, 2)
    via_conv = _kernel_adjacency(f)
    w = hamming_weights(2)
    for i in range(3):
        expected = i * 1 + (2 - i) * 1
        assert all(out[w == i] == expected)
        assert np.max(np.abs(via_conv[w == i] - expected)) < 1e-12


def test_adjacency_agrees_with_kernel_convolution(rng):
    for n in (2, 5, 9):
        f = CubeFunction(n, rng.standard_normal(1 << n))
        via_conv = convolve(f, adjacency_kernel(n)).values
        assert np.max(np.abs(naive_adjacency(f.values, n) - via_conv)) < 1e-12


def test_moments_indicator():
    vals = np.zeros(16)
    vals[[1, 5, 7]] = 1.0
    mean, second = moments(CubeFunction(4, vals))
    assert mean == 3 / 16 and second == 3 / 16


def test_moments_small_example():
    mean, second = moments(CubeFunction(1, [2.0, 1.0]))
    assert mean == 1.5 and second == 2.5


def test_moments_character():
    mean, second = moments(CubeFunction(2, [1.0, -1.0, -1.0, 1.0]))
    assert mean == 0.0 and second == 1.0


def test_moments_parseval(rng):
    for n in range(1, 13):
        f = rng.standard_normal(1 << n)
        _, second = moments(CubeFunction(n, f))
        fhat = wht(CubeFunction(n, f)).values
        assert abs(second - fhat @ fhat) < 1e-12


def test_essential_support_examples():
    vals = np.zeros(8)
    vals[[0, 3, 6]] = 1.0
    assert essential_support_size(CubeFunction(3, vals)) == pytest.approx(3.0)
    assert essential_support_size(CubeFunction(1, [2.0, 1.0])) == pytest.approx(1.8)
    delta = np.zeros(4)
    delta[2] = 5.0
    assert essential_support_size(CubeFunction(2, delta)) == pytest.approx(1.0)


def test_essential_support_bounded_by_support(rng):
    for _ in range(50):
        n = int(rng.integers(1, 9))
        vals = rng.standard_normal(1 << n)
        vals[rng.random(1 << n) < 0.5] = 0.0
        if not vals.any():
            continue
        ess = essential_support_size(CubeFunction(n, vals))
        assert ess <= np.count_nonzero(vals) + 1e-9


def test_essential_support_zero_function_rejected():
    with pytest.raises(ValueError, match="zero function"):
        essential_support_size(CubeFunction(2, np.zeros(4)))


def test_int_wht_roundtrip_and_exactness(rng):
    n = 6
    vals = rng.integers(-5, 6, size=1 << n)
    f = IntCubeFunction(n, vals)
    twice = int_wht(int_wht(f)).values
    assert (twice == vals * (1 << n)).all()  # self-inverse up to 2^n, exactly


def test_validation_errors():
    with pytest.raises(ValueError, match="expected 4 values"):
        CubeFunction(2, [1.0, 2.0])
    with pytest.raises(ValueError, match="finite"):
        CubeFunction(1, [np.nan, 0.0])
    with pytest.raises(ValueError, match="dimension"):
        CubeFunction(0, [1.0])
    with pytest.raises(ValueError, match="integers"):
        IntCubeFunction(2, [0.5, 1, 1, 1])  # the int64 cast would store 0
    assert IntCubeFunction(2, [1.0, True, 0, -3]).values.tolist() == [1, 1, 0, -3]


def test_dimension_cap_is_read_at_call_time(monkeypatch):
    monkeypatch.setattr(cube_fourier, "TRANSFORM_DIMENSION_CAP", 3)
    with pytest.raises(ValueError, match=r"\[1, 3\]"):
        CubeFunction(4, np.zeros(16))
    monkeypatch.undo()
    CubeFunction(4, np.zeros(16))  # fine again


def test_krawtchouk_recurrence_matches_the_defining_sums():
    # the three-term recurrence against the comb sums it replaced, at every
    # dimension a transform accepts
    for n in range(cube_fourier.TRANSFORM_DIMENSION_CAP + 1):
        k = cube_fourier.krawtchouk(n)
        assert k.dtype == np.int64 and not k.flags.writeable
        np.testing.assert_array_equal(k, krawtchouk_sums(n), err_msg=str(n))


def test_values_are_frozen():
    f = CubeFunction(2, [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError):
        f.values[0] = 9.0


@settings(deadline=None, max_examples=40)
@given(
    n=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_property_round_trip_and_parseval(n, seed):
    gen = np.random.default_rng(seed)
    f = gen.standard_normal(1 << n)
    g = gen.standard_normal(1 << n)
    F, G = CubeFunction(n, f), CubeFunction(n, g)
    assert np.max(np.abs(inverse_wht(wht(F)).values - f)) < 1e-12
    lhs = float((f * g).mean())
    rhs = float(wht(F).values @ wht(G).values)
    assert abs(lhs - rhs) < 1e-12


@settings(deadline=None, max_examples=30)
@given(
    n=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_property_convolution_commutes_and_associates(n, seed):
    gen = np.random.default_rng(seed)
    f = CubeFunction(n, gen.standard_normal(1 << n))
    g = CubeFunction(n, gen.standard_normal(1 << n))
    h = CubeFunction(n, gen.standard_normal(1 << n))
    fg = convolve(f, g).values
    gf = convolve(g, f).values
    assert np.max(np.abs(fg - gf)) < 1e-12
    a = convolve(convolve(f, g), h).values
    b = convolve(f, convolve(g, h)).values
    assert np.max(np.abs(a - b)) < 1e-12


@settings(deadline=None, max_examples=30)
@given(
    n=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_property_convolution_theorem(n, seed):
    gen = np.random.default_rng(seed)
    f = CubeFunction(n, gen.standard_normal(1 << n))
    g = CubeFunction(n, gen.standard_normal(1 << n))
    lhs = wht(convolve(f, g)).values
    rhs = wht(f).values * wht(g).values
    assert np.max(np.abs(lhs - rhs)) < 1e-12
