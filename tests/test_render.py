"""render.cells gives the bytes of '%.17g' % v for every float64."""

from fractions import Fraction

import numpy as np
import pytest

from jdan import render


def assert_exact(values):
    """render's text of each value is '%.17g' % v, a block of 2^16 values at a time."""
    values = np.asarray(values, dtype=np.float64)
    for lo in range(0, values.size, 1 << 16):
        block = values[lo:lo + (1 << 16)]
        want = ["%.17g" % v for v in block.tolist()]
        got = render.lines(*render.cells(block[:, None]))
        if got != "\n".join(want) + "\n":
            bad = [(w, g) for w, g in zip(want, got.split("\n")) if w != g]
            pytest.fail(f"{len(bad)} values differ, first {bad[:5]}")


def random_bits(rng, n, exponents=(0, 2047)):
    """n doubles of random sign and mantissa, biased exponents drawn from [lo, hi)."""
    sign = rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63)
    exponent = rng.integers(*exponents, n, dtype=np.uint64) << np.uint64(52)
    return (sign | exponent | rng.integers(0, 1 << 52, n, dtype=np.uint64)).view(np.float64)


@pytest.fixture
def fallbacks(monkeypatch):
    """A list that gets the number of values each '%' fallback call renders."""
    counts = []
    percent = render._percent
    monkeypatch.setattr(render, "_percent",
                        lambda text, end, rows, values: counts.append(len(values))
                        or percent(text, end, rows, values))
    return counts


# 10^6 random bit patterns in all: half over every exponent (mostly exponent notation, which
# Python formats in about 1 us each), half over the exponents of fixed notation


def test_random_bit_patterns_over_every_exponent_and_sign():
    bits = np.random.default_rng(20).integers(0, 1 << 64, 5 * 10**5, dtype=np.uint64,
                                              endpoint=False)
    assert np.unique(bits >> np.uint64(52)).size == 4096  # every sign and exponent, inf and nan
    assert_exact(bits.view(np.float64))


def test_random_fixed_notation_values_take_the_arithmetic(fallbacks):
    # binary exponents -14 to 56 hold every value from 1e-4 to 1e17
    values = random_bits(np.random.default_rng(21), 5 * 10**5, (1023 - 14, 1023 + 57))
    fixed = (np.abs(values) >= 1e-4) & (np.abs(values) < 1e17)
    assert_exact(values)
    assert sum(fallbacks) <= values.size - fixed.sum() + 100  # besides the bounds, very few


def test_zeros_infinities_nan_and_the_smallest_doubles():
    assert_exact([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                  2.2250738585072014e-308, -2.2250738585072014e-308])


def test_powers_of_ten_and_their_neighbours():
    values = []
    for k in range(-6, 19):
        for toward in (-np.inf, np.inf):
            v = float(f"1e{k}")
            for _ in range(4):  # 10^k itself, then three neighbours on this side
                values += [v, -v]
                v = np.nextafter(v, toward)
    assert_exact(values)


def test_whole_numbers_up_to_1e17():
    rng = np.random.default_rng(22)
    assert_exact(np.concatenate([np.arange(10_001.0), 2.0 ** np.arange(57),
                                 rng.integers(0, 10**17, 10**5, endpoint=True).astype(float)]))


def test_ties_at_the_eighteenth_digit_round_half_even():
    # v = M 2^(X - 17) with M odd and 10^X <= v < 10^(X + 1) puts v 10^(16 - X) at k + 1/2
    rng = np.random.default_rng(23)
    values = []
    for x in range(-4, 16):
        lo = int(np.ceil(10.0**x * 2.0 ** (17 - x)))
        hi = min(int(10.0 ** (x + 1) * 2.0 ** (17 - x)), 1 << 53)
        m = rng.integers(lo // 2, hi // 2, 500) * 2 + 1
        ties = np.ldexp(m.astype(np.float64), x - 17)
        assert all((Fraction(v) * 10 ** (16 - x)).denominator == 2 for v in ties[:20].tolist())
        values.append(ties)
    assert_exact(np.concatenate(values))


def test_an_exponent_guess_one_off_fails_the_check():
    # log10 can be one off next to a power of ten; the exact product catches either side
    v = np.array([1e-3, 0.5, 1.0, 123.25, 1234567.875])
    x = np.floor(np.log10(v)).astype(np.intp)
    assert render._digits(v, x)[1].all()
    assert not render._digits(v, x - 1)[1].any() and not render._digits(v, x + 1)[1].any()
    below = np.nextafter(1e16, 0)  # whose log10 rounds up to 16
    assert not render._digits(np.array([below]), np.array([16]))[1]
