"""The CSV number format against its oracle, Python's ``'%.17g' % x``.

Seeded edge classes of float64, each formatted by ``numfmt.csv_chunks``
and compared byte for byte with the same rows joined from the oracle.
"""

import numpy as np
import pytest

from tdnh import numfmt

RNG_SEED = 31


def oracle(series: np.ndarray) -> str:
    return "".join(",".join(numfmt.NUMBER % v for v in row) + "\n" for row in series.tolist())


def formatted(series: np.ndarray) -> str:
    return "".join(numfmt.csv_chunks(series))


def ulp_steps(values: np.ndarray, steps: int) -> np.ndarray:
    out = values.copy()
    for _ in range(abs(steps)):
        out = np.nextafter(out, np.inf if steps > 0 else -np.inf)
    return out


def edge_classes() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(RNG_SEED)
    tens = 10.0 ** np.arange(-300, 301)
    return {
        "powers of ten +-3 ulps": np.concatenate([ulp_steps(tens, k) for k in range(-3, 4)]),
        "x.5 near 1e16": np.concatenate([
            rng.integers(10 ** 15, 2 ** 52, 2000) + 0.5,
            1e16 + np.arange(-2000, 2000, dtype=float),
            1e17 + 16.0 * np.arange(-500, 500)]),
        # 2**-k is a 17-digit tie wherever 5**k has 18 digits
        "powers of two": np.concatenate([2.0 ** np.arange(-1074, 1024),
                                         -(2.0 ** np.arange(-60, 60))]),
        "signed zeros, infinities, nan": np.array([0.0, -0.0, np.inf, -np.inf, np.nan,
                                                   -np.nan, 5e-324, -5e-324]),
        "random bit patterns": rng.integers(0, 2 ** 64, 20000, dtype=np.uint64).view(float),
        "integers up to 2**62": rng.integers(-(2 ** 62), 2 ** 62, 5000).astype(float),
        "three-digit exponents": rng.uniform(1, 10, 5000) * 10.0 ** rng.integers(-308, 308, 5000),
        "every %g form": rng.standard_normal(5000) * 10.0 ** rng.integers(-8, 22, 5000),
    }


@pytest.mark.parametrize("name", list(edge_classes()))
def test_edge_class_matches_oracle(name):
    values = edge_classes()[name]
    series = np.resize(values, (-(-values.size // 7), 7))   # 7 columns, last row wraps
    assert formatted(series) == oracle(series)


def test_row_counts_around_the_chunk_size():
    chunk = numfmt._CHUNK_ROWS
    series = edge_classes()["every %g form"][:(2 * chunk + 3) * 2].reshape(-1, 2)
    for rows in (0, 1, chunk - 1, chunk, chunk + 1, 2 * chunk + 3):
        assert formatted(series[:rows]) == oracle(series[:rows])
    assert formatted(series[:, :1]) == oracle(series[:, :1])


def test_fast_path_proves_ordinary_values():
    # only ties and the margin around them go to the oracle.  Exact ties
    # need few fractional bits, so they crowd |x| in [1e5, 1e17); outside
    # it, random doubles meet neither
    rng = np.random.default_rng(RNG_SEED)
    exponents = rng.choice(np.r_[-250:5, 20:250], 20000)
    values = np.abs(rng.standard_normal(20000)) * 10.0 ** exponents
    # next to a power of ten, log10's guess of the exponent is corrected
    tens = 10.0 ** np.r_[-250:5, 20:251]
    values = np.concatenate([values] + [ulp_steps(tens, k) for k in range(-3, 4)])
    _, _, proven = numfmt._digits(values)
    assert proven.all()


def test_report_formatter():
    assert numfmt.fmt(0.1) == "0.10000000000000001"
    assert numfmt.fmt(np.float64(1e-300)) == "1e-300"
    assert numfmt.fmt(2.0 ** -25) == "2.9802322387695312e-08"   # a tie, to even
