"""Weight schedule admissibility for the shipped constant sets."""

import numpy as np
import pytest

import srlab.schedules as sch
from srlab.models import DeclaredConstants

HEIS = DeclaredConstants(2, 0.0, 0.5, 0.0)
SU2 = DeclaredConstants(3, 4.0, 0.25, 0.0)


def admissible(chk):
    """The schedules row's rule: no issue, and the margin within 1e-8."""
    return not chk.issues and chk.margin >= -1e-8


@pytest.mark.parametrize("consts", [HEIS, SU2], ids=["heisenberg", "su2"])
def test_builtin_schedules_admissible(consts):
    for n in (128, 256, 2048):
        built, skipped = sch.builtin_schedules(consts, T=1.0, n=n)
        assert not skipped
        labels = {s.label for s in built}
        assert {"grad-a(l=1)", "grad-b", "grad-c", "grad-d(l0=1)", "entropy"} <= labels
        # refinement keeps the margins on the admissible side
        refined, _ = sch.builtin_schedules(consts, T=1.0, n=2 * n)
        for s in built + refined:
            chk = sch.admissibility_margins(s, consts)
            assert admissible(chk), (n, s.label, chk.margin, chk.issues)


def test_heisenberg_exponential_schedule_degenerates():
    built, _ = sch.builtin_schedules(HEIS, T=1.0)
    by_label = {s.label: s for s in built}
    # (c) equals (b) when the lower-order constants vanish
    assert np.allclose(by_label["grad-c"].a, by_label["grad-b"].a)
    assert np.allclose(by_label["grad-c"].l, by_label["grad-b"].l)


def test_su2_exponential_schedule_ratio_monotone():
    s = sch.gradient_variance_exponential(SU2, T=1.0)
    assert sch.ratio_monotonicity(s) > 0.0


def test_constructed_violation_fails_by_one():
    t = np.linspace(0.0, 1.0, 2049)
    l = 2.0
    s = sch.Schedule(
        label="violation",
        kind="gradient",
        t=t,
        a=np.ones_like(t),
        l=np.full_like(t, l),
        b=np.zeros_like(t),
        C=-(HEIS.rho1 - 1.0 / l) - 1.0,
        da=np.zeros_like(t),
        dl=np.zeros_like(t),
    )
    chk = sch.admissibility_margins(s, HEIS)
    assert chk.margin_first == pytest.approx(-1.0)
    assert not admissible(chk)


def test_schedule_positivity_enforced():
    t = np.linspace(0.0, 1.0, 101)
    s = sch.Schedule(
        "neg", "gradient", t, a=t - 0.5, l=np.ones_like(t), b=np.zeros_like(t),
        C=0.0, da=np.ones_like(t), dl=np.zeros_like(t),
    )
    with pytest.raises(ValueError):
        sch.admissibility_margins(s, HEIS)


def test_hypothesis_violations_skip_schedules():
    # negative rho20 rules out every schedule that divides by it
    consts = DeclaredConstants(2, 0.0, -0.5, 0.0)
    built, skipped = sch.builtin_schedules(consts, T=1.0)
    assert "grad-b" in skipped
    assert "grad-c" in skipped
    assert "entropy" in skipped
    assert any(s.label.startswith("grad-a") for s in built)


def test_fd_cross_check_catches_wrong_derivatives():
    s = sch.gradient_variance_linear(HEIS, T=1.0)
    s.da = s.da + 0.5  # corrupt the analytic derivative
    chk = sch.admissibility_margins(s, HEIS)
    assert chk.issues


def test_liyau_schedule_needs_positive_alpha():
    with pytest.raises(ValueError):
        sch.liyau_schedule(HEIS, 1.0, 0.0)


def test_entropy_kind_uses_reduced_condition():
    # for the entropy kind the second condition has no rho21 term
    consts_with_rho21 = DeclaredConstants(2, 0.0, 0.5, -5.0)
    g = sch.entropy_schedule(HEIS, 1.0, n=256)
    chk = sch.admissibility_margins(g, consts_with_rho21)
    assert chk.margin_second >= -1e-8


def test_schedule_grid_minimum():
    # the difference cross-check skips points at both ends and needs one more
    ok = sch.gradient_constant_weight(HEIS, 1.0, n=sch.MIN_GRID)
    assert admissible(sch.admissibility_margins(ok, HEIS))
    short = sch.gradient_constant_weight(HEIS, 1.0, n=sch.MIN_GRID - 1)
    with pytest.raises(ValueError, match="grid intervals"):
        sch.admissibility_margins(short, HEIS)
