"""Weight schedules for semigroup interpolation bounds.

Each gradient or entropy bound comes from a pair (or triple) of time
weights (a, l, b) on [0, T] satisfying two differential inequalities
tied to the curvature-dimension constants:

    gradient kind:  da/dt + (rho1 - 1/l - 2b) a + C >= 0
                    dl/dt + rho20 + (rho21 + (da/dt)/a) l >= 0
    entropy kind:   same first condition,
                    dl/dt + rho20 + ((da/dt)/a) l >= 0

The entropy kind is used with the commuting-gradient form of the
inequality where the weight multiplies log-gradients and rho21 plays
no role.  Every schedule carries exact derivative samples; the checker
combines them with central differences so that a wrong analytic
derivative cannot go unnoticed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

DEFAULT_GRID = 2048
#: interior points at either end that the difference cross-check skips, at least
_END_SKIP = 2
#: fewest grid intervals: n intervals leave n - 1 interior points, and the
#: cross-check needs one past the skipped ends
MIN_GRID = 2 * _END_SKIP + 2


@dataclass
class Schedule:
    """Sampled weight functions with their exact derivatives."""

    label: str
    kind: str                    # "gradient" or "entropy"
    t: np.ndarray
    a: np.ndarray
    l: np.ndarray
    b: np.ndarray
    C: float
    da: np.ndarray
    dl: np.ndarray

    def interior(self) -> slice:
        return slice(1, len(self.t) - 1)


@dataclass
class ScheduleCheck:
    """Admissibility margins of one schedule for one constant set."""

    label: str
    margin: float                # min over both conditions, interior grid
    margin_first: float
    margin_second: float
    issues: list[str] = field(default_factory=list)


def _fd(t: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Central differences on the interior, same length as interior grid."""
    return (y[2:] - y[:-2]) / (t[2:] - t[:-2])


def _margins(s: Schedule, constants, da, dl) -> tuple[np.ndarray, np.ndarray]:
    """Both conditions on the interior grid, with the derivatives da, dl there."""
    rho1, rho20, rho21 = constants.rho1, constants.rho20, constants.rho21
    it = s.interior()
    t, a, l, b = s.t[it], s.a[it], s.l[it], s.b[it]
    if np.any(a <= 0) or np.any(l <= 0):
        raise ValueError(f"schedule {s.label!r} must be positive on the open interval")
    first = da + (rho1 - 1.0 / l - 2.0 * b) * a + s.C
    if s.kind == "gradient":
        second = dl + rho20 + rho21 * l + da * l / a
    elif s.kind == "entropy":
        second = dl + rho20 + da * l / a
    else:
        raise ValueError(f"unknown schedule kind {s.kind!r}")
    return first, second


def admissibility_margins(s: Schedule, constants) -> ScheduleCheck:
    """Minimum slack of both conditions over the interior grid.

    The analytic derivatives give the reported margins, and central
    differences act as a consistency check away from the interval ends;
    the schedule needs at least MIN_GRID grid intervals for that.  The
    difference error shrinks as the squared grid step, and so does the
    tolerated disagreement.
    """
    if len(s.t) - 1 < MIN_GRID:
        raise ValueError(f"schedule {s.label!r} needs at least {MIN_GRID} grid intervals")
    issues: list[str] = []
    it = s.interior()
    first, second = _margins(s, constants, s.da[it], s.dl[it])
    margin_first = float(first.min())
    margin_second = float(second.min())

    f_fd, s_fd = _margins(s, constants, _fd(s.t, s.a), _fd(s.t, s.l))
    # compare away from the ends, where central differences of the
    # possibly singular weights are trustworthy
    k = max(len(f_fd) // 50, _END_SKIP)
    sl = slice(k, len(f_fd) - k)
    fd_dev = float(
        max(np.max(np.abs(first[sl] - f_fd[sl])), np.max(np.abs(second[sl] - s_fd[sl])))
    )
    scale = 1.0 + float(np.max(np.abs(first[sl]))) + float(np.max(np.abs(second[sl])))
    if fd_dev > 1e-3 * scale * (DEFAULT_GRID / (len(s.t) - 1)) ** 2:
        issues.append(f"analytic and difference derivatives disagree by {fd_dev:g}")

    return ScheduleCheck(
        label=s.label,
        margin=min(margin_first, margin_second),
        margin_first=margin_first,
        margin_second=margin_second,
        issues=issues,
    )


def ratio_monotonicity(s: Schedule) -> float:
    """Min of d/dt (a / l) on the interior grid (central differences)."""
    r = s.a / np.where(s.l == 0, np.nan, s.l)
    d = _fd(s.t, r)
    return float(np.nanmin(d))


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------


def _grid(T: float, n: int) -> np.ndarray:
    return np.linspace(0.0, T, n + 1)


def gradient_constant_weight(
    constants, T: float, l: float = 1.0, n: int = DEFAULT_GRID
) -> Schedule:
    """Constant l with exponentially decaying a; always admissible."""
    rho1, rho20, rho21 = constants.rho1, constants.rho20, constants.rho21
    alpha = min(rho1 - 1.0 / l, rho21 + rho20 / l)
    t = _grid(T, n)
    a = np.exp(-alpha * t)
    return Schedule(
        label=f"grad-a(l={l:g})",
        kind="gradient",
        t=t,
        a=a,
        l=np.full_like(t, l),
        b=np.zeros_like(t),
        C=0.0,
        da=-alpha * a,
        dl=np.zeros_like(t),
    )


def gradient_variance_linear(constants, T: float, n: int = DEFAULT_GRID) -> Schedule:
    """Linear a and l vanishing at T; yields the variance bound."""
    rho1, rho20, rho21 = constants.rho1, constants.rho20, constants.rho21
    if rho20 <= 0:
        raise ValueError("variance schedule needs rho20 > 0")
    k1 = max(0.0, -rho1)
    k2 = max(0.0, -rho21)
    t = _grid(T, n)
    slope = rho20 / (T * k2 + 2.0)
    return Schedule(
        label="grad-b",
        kind="gradient",
        t=t,
        a=T - t,
        l=slope * (T - t),
        b=np.zeros_like(t),
        C=1.0 + k1 * T + (T * k2 + 2.0) / rho20,
        da=np.full_like(t, -1.0),
        dl=np.full_like(t, -slope),
    )


def gradient_variance_exponential(
    constants, T: float, n: int = DEFAULT_GRID
) -> Schedule:
    """Saturating a = (1 - e^(-rho1 (T-t))) / rho1 with matched l.

    At rho1 = 0 it is the linear schedule grad-b (then k1 = k2 = 0).
    """
    rho1, rho20, rho21 = constants.rho1, constants.rho20, constants.rho21
    if rho1 < 0 or rho21 < 0 or rho20 <= 0:
        raise ValueError("exponential schedule needs rho1, rho21 >= 0 and rho20 > 0")
    if rho1 == 0:
        return replace(gradient_variance_linear(constants, T, n), label="grad-c")
    t = _grid(T, n)
    tau = T - t
    em = np.exp(-rho1 * tau)
    a = (1.0 - em) / rho1
    da = -em
    with np.errstate(invalid="ignore", divide="ignore"):
        l = rho20 * (em - 1.0 + rho1 * tau) / (rho1 * (1.0 - em))
        l = np.where(tau <= 0, 0.0, l)
        dl = np.where(a > 0, -rho20 - l * da / np.where(a > 0, a, 1.0), 0.0)
    return Schedule(
        label="grad-c",
        kind="gradient",
        t=t,
        a=a,
        l=l,
        b=np.zeros_like(t),
        C=1.0 + 2.0 / rho20,
        da=da,
        dl=dl,
    )


def gradient_reverse(
    constants, T: float, l0: float = 1.0, n: int = DEFAULT_GRID
) -> Schedule:
    """Increasing a = t with negative C; bounds variance from below."""
    rho1, rho20, rho21 = constants.rho1, constants.rho20, constants.rho21
    if rho1 < 0 or rho20 < 0 or rho21 < 0:
        raise ValueError("reverse schedule needs nonnegative constants")
    t = _grid(T, n)
    slope = (l0 + T) / T
    return Schedule(
        label=f"grad-d(l0={l0:g})",
        kind="gradient",
        t=t,
        a=t.copy(),
        l=slope * t,
        b=np.zeros_like(t),
        C=-l0 / (l0 + T),
        da=np.ones_like(t),
        dl=np.full_like(t, slope),
    )


def entropy_schedule(constants, T: float, n: int = DEFAULT_GRID) -> Schedule:
    """Entropy-kind schedule with b = 0; pairs with log-gradient bounds."""
    return replace(
        gradient_variance_exponential(constants, T, n),
        label="entropy",
        kind="entropy",
    )


def liyau_schedule(
    constants, T: float, alpha: float, n: int = DEFAULT_GRID
) -> Schedule:
    """Power-law family behind the dimensional gradient-Laplacian bound.

    alpha > 0 maps to the exponent beta = (alpha+2)/(alpha+1) in (1, 2);
    both conditions hold with equality, so the margins here are a pure
    probe of the checker's numerical floor.
    """
    rho1, rho20 = constants.rho1, constants.rho20
    if rho20 <= 0 or alpha <= 0:
        raise ValueError("power schedule needs rho20 > 0 and alpha > 0")
    t = _grid(T, n)
    tau = T - t
    a = tau ** (alpha + 1.0)
    l = rho20 * tau / (alpha + 2.0)
    coef = alpha + 1.0 + (alpha + 2.0) / rho20
    with np.errstate(divide="ignore"):
        b = 0.5 * (rho1 - coef / np.where(tau > 0, tau, np.nan))
    return Schedule(
        label=f"liyau(alpha={alpha:g})",
        kind="entropy",
        t=t,
        a=a,
        l=l,
        b=np.nan_to_num(b, nan=0.0, posinf=0.0, neginf=0.0),
        C=0.0,
        da=-(alpha + 1.0) * tau**alpha,
        dl=np.full_like(t, -rho20 / (alpha + 2.0)),
    )


def builtin_schedules(
    constants,
    T: float,
    n: int = DEFAULT_GRID,
) -> tuple[list[Schedule], dict[str, str]]:
    """All built-in schedules whose hypotheses the constants satisfy.

    Returns (schedules, skipped) where skipped maps labels of omitted
    schedules to the hypothesis they violate.
    """
    out: list[Schedule] = []
    skipped: dict[str, str] = {}
    out.append(gradient_constant_weight(constants, T, 1.0, n))
    for label, builder in [
        ("grad-b", lambda: gradient_variance_linear(constants, T, n)),
        ("grad-c", lambda: gradient_variance_exponential(constants, T, n)),
        ("grad-d", lambda: gradient_reverse(constants, T, 1.0, n)),
        ("entropy", lambda: entropy_schedule(constants, T, n)),
    ]:
        try:
            out.append(builder())
        except ValueError as err:
            skipped[label] = str(err)
    for alpha in (0.5, 1.0, 2.0):
        try:
            out.append(liyau_schedule(constants, T, alpha, n))
        except ValueError as err:
            skipped[f"liyau(alpha={alpha:g})"] = str(err)
    return out, skipped
