"""Scenario configuration files.

Configs are flat sectioned key-value text (INI syntax) with expression
strings optionally quoted::

    [scenario]
    kind = hermitian            ; static | hermitian | nonhermitian
    omega = 0.0
    c1 = 2.0
    c2 = 1.0
    x_re = "cos(2*pi*t)"
    y_re = "sin(2*pi*t)"
    z_im = "1.2*sin(2*pi*t)"

    [grid]
    start = 0.0
    stop = 1.0
    steps = 20000

Optional sections: ``[signatures]`` (``levels = +1, -1``, ordered by
descending real energy), ``[tolerances]`` (per-check overrides),
``[checks]`` (``run = name, name, ...`` to restrict the battery),
``[output]`` (``csv``/``report`` paths) and ``[regimes]`` (sweep axes for
the static regime map, ``axis1 = z_im, 0.0, 3.0, 61``).

All expressions are parsed eagerly on load; malformed ones are rejected
with the offending section and key named.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field

from tdnh import expr, tolerances
from tdnh.evolution import TimeGrid
from tdnh.linalg import shape_generic
from tdnh.model import Coefficient, ParameterPath, coefficient_value, require_nonzero

__all__ = ["ConfigError", "RegimeAxis", "ScenarioConfig", "load_config"]

KINDS = ("static", "hermitian", "nonhermitian")

_FREE_COEFFS = {
    "hermitian": ("x_re", "y_re", "z_im"),
    "nonhermitian": ("x_re", "y_im", "z_im"),
}
_STATIC_COEFFS = ("x_re", "x_im", "y_re", "y_im", "z_im")
_SWEEPABLE = ("x_re", "y_re", "y_im", "z_im")


class ConfigError(ValueError):
    """Configuration file is missing, malformed, or inconsistent."""


@dataclass(frozen=True)
class RegimeAxis:
    name: str
    lo: float
    hi: float
    count: int


@dataclass
class ScenarioConfig:
    kind: str
    omega: float
    c1: float | None
    c2: float | None
    coefficients: dict[str, Coefficient]
    grid: TimeGrid
    signatures: tuple[int, ...] = (1, -1)
    tolerance_overrides: dict[str, float] = field(default_factory=dict)
    checks: list[str] | None = None
    csv_path: str | None = None
    report_path: str | None = None
    regime_axes: list[RegimeAxis] = field(default_factory=list)
    x_im_derived: bool = False

    def static_path(self) -> ParameterPath:
        """The static kind's coefficient path; a derived x_im solves the
        symmetry constraint x_re*x_im = -y_re*y_im."""
        co = self.coefficients

        @shape_generic
        def derived_x_im(t):
            xr = coefficient_value(co["x_re"], t)
            require_nonzero(xr, t, "x_re vanishes at t={t}; cannot derive x_im")
            return -coefficient_value(co["y_re"], t) * coefficient_value(co["y_im"], t) / xr

        return ParameterPath(
            omega=self.omega,
            x_re=co["x_re"],
            x_im=derived_x_im if self.x_im_derived else co["x_im"],
            y_re=co["y_re"],
            y_im=co["y_im"],
            z_re=0.0,
            z_im=co["z_im"],
        )


def _strip_quotes(text: str) -> str:
    text = text.strip()
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "\"'":
        return text[1:-1]
    return text


def _parse_coefficient(section: str, key: str, text: str) -> Coefficient:
    text = _strip_quotes(text)
    try:
        return float(text)
    except ValueError:
        pass
    try:
        return expr.parse(text)
    except expr.ParseError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from exc


def _get_float(cp: configparser.ConfigParser, section: str, key: str,
               default: float | None = None) -> float:
    if not cp.has_option(section, key):
        if default is None:
            raise ConfigError(f"missing required key '{key}' in section [{section}]")
        return default
    text = _strip_quotes(cp.get(section, key))
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: not a number: {text!r}") from exc


def load_config(path: str) -> ScenarioConfig:
    """Read and validate a scenario config; expressions parse eagerly."""
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh, source=path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    if not cp.has_section("scenario"):
        raise ConfigError("missing [scenario] section")
    if not cp.has_option("scenario", "kind"):
        raise ConfigError("missing required key 'kind' in section [scenario]")
    kind = _strip_quotes(cp.get("scenario", "kind")).lower()
    if kind not in KINDS:
        raise ConfigError(f"[scenario] kind: expected one of {KINDS}, got {kind!r}")

    omega = _get_float(cp, "scenario", "omega", 0.0)

    coefficients: dict[str, Coefficient] = {}
    x_im_derived = False
    c1 = c2 = None
    if kind in _FREE_COEFFS:
        c1 = _get_float(cp, "scenario", "c1")
        c2 = _get_float(cp, "scenario", "c2", 0.0)
        for key in _FREE_COEFFS[kind]:
            if not cp.has_option("scenario", key):
                raise ConfigError(f"missing required key '{key}' in section [scenario] "
                                  f"for kind '{kind}'")
            coefficients[key] = _parse_coefficient("scenario", key, cp.get("scenario", key))
        if kind == "hermitian" and abs(c1 * c1 - c2 * c2) <= 1e-12 * (c1 * c1 + c2 * c2 + 1.0):
            raise ConfigError("[scenario] c1, c2: need c1^2 != c2^2, else the metric is singular")
        if kind == "nonhermitian":
            if c1 == 0.0:
                raise ConfigError("[scenario] c1: must be nonzero")
            for key in ("y_im", "x_re"):
                c = coefficients[key]
                const = c if isinstance(c, float) else expr.constant_value(c)
                if const == 0.0:
                    raise ConfigError(
                        f"[scenario] {key}: must not be identically zero "
                        "(the constraint scalar divides by it)"
                    )
    else:  # static
        if not cp.has_option("scenario", "x_re"):
            raise ConfigError("missing required key 'x_re' in section [scenario] for kind 'static'")
        for key in _STATIC_COEFFS:
            if cp.has_option("scenario", key):
                coefficients[key] = _parse_coefficient("scenario", key, cp.get("scenario", key))
            else:
                coefficients[key] = 0.0
        if "x_im" not in [k for k in _STATIC_COEFFS if cp.has_option("scenario", k)]:
            x_im_derived = True
        if cp.has_option("scenario", "z_re"):
            z_re = _parse_coefficient("scenario", "z_re", cp.get("scenario", "z_re"))
            const = z_re if isinstance(z_re, float) else expr.constant_value(z_re)
            if const != 0.0:
                raise ConfigError("[scenario] z_re: the static model requires z_re = 0")

    if not cp.has_section("grid"):
        raise ConfigError("missing [grid] section")
    start = _get_float(cp, "grid", "start")
    stop = _get_float(cp, "grid", "stop")
    steps_f = _get_float(cp, "grid", "steps")
    if steps_f != int(steps_f):
        raise ConfigError("[grid] steps: must be an integer")
    try:
        grid = TimeGrid(start, stop, int(steps_f))
    except ValueError as exc:
        raise ConfigError(f"[grid]: {exc}") from exc

    signatures: tuple[int, ...] = (1, -1)
    if cp.has_option("signatures", "levels"):
        parts = [p.strip() for p in cp.get("signatures", "levels").split(",")]
        try:
            signatures = tuple(int(p) for p in parts)
        except ValueError as exc:
            raise ConfigError(f"[signatures] levels: {exc}") from exc
        if len(signatures) != 2 or any(abs(s) != 1 for s in signatures):
            raise ConfigError("[signatures] levels: expected two entries of +1 or -1")

    overrides: dict[str, float] = {}
    if cp.has_section("tolerances"):
        for key in cp.options("tolerances"):
            overrides[key] = _get_float(cp, "tolerances", key)
        try:
            tolerances.resolve(overrides)
        except KeyError as exc:  # its message names the key
            raise ConfigError(f"[tolerances]: {exc.args[0]}") from exc

    checks: list[str] | None = None
    if cp.has_option("checks", "run"):
        checks = [p.strip() for p in cp.get("checks", "run").split(",") if p.strip()]
        if not checks:
            raise ConfigError("[checks] run: empty check list")

    csv_path = _strip_quotes(cp.get("output", "csv")) if cp.has_option("output", "csv") else None
    report_path = (
        _strip_quotes(cp.get("output", "report")) if cp.has_option("output", "report") else None
    )

    regime_axes: list[RegimeAxis] = []
    if cp.has_section("regimes"):
        for key in ("axis1", "axis2"):
            if not cp.has_option("regimes", key):
                continue
            parts = [p.strip() for p in cp.get("regimes", key).split(",")]
            if len(parts) != 4:
                raise ConfigError(f"[regimes] {key}: expected 'name, lo, hi, count'")
            name = parts[0]
            if name not in _SWEEPABLE:
                raise ConfigError(f"[regimes] {key}: sweep coefficient must be one of {_SWEEPABLE}")
            try:
                lo, hi, count = float(parts[1]), float(parts[2]), int(parts[3])
            except ValueError as exc:
                raise ConfigError(f"[regimes] {key}: {exc}") from exc
            if count < 2:
                raise ConfigError(f"[regimes] {key}: count must be >= 2")
            if key == "axis2" and not regime_axes:
                raise ConfigError("[regimes] axis2: needs axis1")
            if key == "axis2" and name == regime_axes[0].name:
                raise ConfigError(f"[regimes] axis2: {name} is already swept by axis1")
            regime_axes.append(RegimeAxis(name, lo, hi, count))

    return ScenarioConfig(
        kind=kind,
        omega=omega,
        c1=c1,
        c2=c2,
        coefficients=coefficients,
        grid=grid,
        signatures=signatures,
        tolerance_overrides=overrides,
        checks=checks,
        csv_path=csv_path,
        report_path=report_path,
        regime_axes=regime_axes,
        x_im_derived=x_im_derived,
    )
