"""Delay-domain priors: profiles, gridded PDPs, realizations, spread metrics."""

import math

import numpy as np
import pytest

from sparsechan.channel import (
    ImpulseProfile,
    PowerDelayProfile,
    delay_spread,
    eta95,
    etu_profile,
    realize_channel,
    to_continuous_pdp,
)
from sparsechan.cli import _write_pdp_csv
from sparsechan.signal_model import SystemConfig


def test_impulse_profile_validation():
    with pytest.raises(ValueError):
        ImpulseProfile(taps=())
    with pytest.raises(ValueError):
        ImpulseProfile(taps=((-1e-9, 0.0),))
    with pytest.raises(ValueError):
        ImpulseProfile(taps=((0.0, 0.0), (0.0, -3.0)))  # not strictly increasing
    for tap in ((5e-7, math.nan), (5e-7, math.inf), (5e-7, -math.inf), (math.nan, 0.0),
                (math.inf, 0.0)):
        with pytest.raises(ValueError, match="finite"):
            ImpulseProfile(taps=((0.0, 0.0), tap))


def test_impulse_profile_accessors():
    prof = ImpulseProfile(taps=((0.0, 0.0), (1e-6, -3.0)))
    np.testing.assert_allclose(prof.delays_s, [0.0, 1e-6])
    np.testing.assert_allclose(prof.powers_db, [0.0, -3.0])
    np.testing.assert_allclose(prof.linear_powers, [1.0, 10 ** -0.3])


def test_impulse_profile_csv_round_trip(tmp_path):
    prof = ImpulseProfile(taps=((0.0, -1.0), (5e-7, 0.0), (2.3e-6, -5.0)))
    path = tmp_path / "profile.csv"
    path.write_text("delay_ns,power_db\n0,-1\n500,0\n2300,-5\n")
    back = ImpulseProfile.from_csv(path)
    np.testing.assert_allclose(back.delays_s, prof.delays_s, rtol=1e-5)
    np.testing.assert_allclose(back.powers_db, prof.powers_db, rtol=1e-5)
    for header in ("wrong,header", "delay_ns,power"):
        (tmp_path / "bad.csv").write_text(f"{header}\n1,2\n")
        with pytest.raises(ValueError, match="expected columns delay_ns,power_db"):
            ImpulseProfile.from_csv(tmp_path / "bad.csv")
    (tmp_path / "short.csv").write_text("delay_ns,power_db\n0,0\n500\n")
    with pytest.raises(ValueError, match="line 3: expected delay_ns,power_db"):
        ImpulseProfile.from_csv(tmp_path / "short.csv")


def test_etu_table():
    prof = etu_profile()
    assert len(prof.taps) == 9
    np.testing.assert_allclose(
        prof.delays_s * 1e9, [0, 50, 120, 200, 230, 500, 1600, 2300, 5000]
    )
    np.testing.assert_allclose(
        prof.powers_db, [-1, -1, -1, 0, 0, 0, -3, -5, -7]
    )
    # headline statistics of the tabulated profile
    assert prof.linear_powers.sum() == pytest.approx(6.39993, rel=1e-5)
    assert delay_spread(prof.delays_s, prof.linear_powers) == pytest.approx(
        0.99094e-6, rel=1e-4
    )


def test_pdp_validation_and_normalization():
    with pytest.raises(ValueError):
        PowerDelayProfile(variances=np.array([1.0, -0.1]), bin_width_s=1e-7)
    with pytest.raises(ValueError):
        PowerDelayProfile(variances=np.array([1.0]), bin_width_s=0.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="bin width must be finite"):
            PowerDelayProfile(variances=np.ones(4), bin_width_s=bad)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            PowerDelayProfile(variances=np.array([1.0, bad]), bin_width_s=1e-7)
    pdp = PowerDelayProfile(variances=np.array([1.0, 3.0]), bin_width_s=1e-7)
    assert pdp.d == 2
    assert pdp.total_power == pytest.approx(4.0)
    normed = pdp.normalized()
    assert normed.total_power == pytest.approx(1.0)
    np.testing.assert_allclose(normed.variances, [0.25, 0.75])
    with pytest.raises(ValueError):
        PowerDelayProfile(np.zeros(4), 1e-7).normalized()


def test_pdp_csv(tmp_path):
    pdp = PowerDelayProfile(variances=np.array([0.5, 0.0, 0.25]), bin_width_s=1e-7)
    path = tmp_path / "pdp.csv"
    _write_pdp_csv(path, pdp)
    data = path.read_bytes()
    assert b"\r" not in data
    lines = data.decode().strip().splitlines()
    assert lines[0] == "bin_index,delay_ns,variance_linear"
    assert len(lines) == 4
    assert lines[1].split(",") == ["0", "0", "0.5"]
    assert lines[2].split(",") == ["1", "100", "0"]


def test_cluster_carries_tap_power():
    cfg = SystemConfig(d=128, n_pilots=32)
    solo = ImpulseProfile(taps=((1e-6, -3.0),))
    pdp = to_continuous_pdp(solo, cfg, cluster_rms_s=2e-7)
    assert pdp.total_power == pytest.approx(10 ** -0.3, rel=1e-12)
    k0 = round(1e-6 / cfg.bin_width_s)
    assert pdp.variances[k0] > 0
    assert np.all(pdp.variances[:k0] == 0)
    # causal decaying cluster: strictly decreasing over its extent
    body = pdp.variances[pdp.variances > 0]
    assert np.all(np.diff(body) < 0)


def test_cluster_rms_width_matches_request():
    cfg = SystemConfig(d=512, n_pilots=32)
    solo = ImpulseProfile(taps=((0.0, 0.0),))
    target = 3e-7
    pdp = to_continuous_pdp(solo, cfg, cluster_rms_s=target)
    got = delay_spread(np.arange(pdp.d) * pdp.bin_width_s, pdp.variances)
    assert got == pytest.approx(target, rel=1e-6)


def test_clusters_overlap_and_add():
    cfg = SystemConfig(d=64, n_pilots=16)
    prof = ImpulseProfile(taps=((0.0, 0.0), (cfg.bin_width_s, 0.0)))
    pdp = to_continuous_pdp(prof, cfg, cluster_rms_s=2e-7)
    solo = to_continuous_pdp(
        ImpulseProfile(taps=((0.0, 0.0),)), cfg, cluster_rms_s=2e-7
    )
    expect = solo.variances + np.roll(solo.variances, 1)
    np.testing.assert_allclose(pdp.variances, expect, rtol=1e-10, atol=1e-15)


def test_cluster_truncated_at_grid_end_keeps_power():
    cfg = SystemConfig(d=16, n_pilots=4)
    solo = ImpulseProfile(taps=(((cfg.d - 2) * cfg.bin_width_s, 0.0),))
    pdp = to_continuous_pdp(solo, cfg, cluster_rms_s=3e-7)
    assert pdp.total_power == pytest.approx(1.0, rel=1e-12)
    assert np.all(pdp.variances[:-2] == 0)


def test_tap_off_grid_rejected():
    cfg = SystemConfig(d=16, n_pilots=4)
    prof = ImpulseProfile(taps=((17 * cfg.bin_width_s, 0.0),))
    with pytest.raises(ValueError):
        to_continuous_pdp(prof, cfg)
    with pytest.raises(ValueError):
        to_continuous_pdp(etu_profile(), cfg, cluster_rms_s=0.0)
    with pytest.raises(ValueError, match="cluster RMS width"):
        to_continuous_pdp(etu_profile(), cfg, cluster_rms_s=float("nan"))


def test_etu_on_desk_grid():
    cfg = SystemConfig(d=600, n_pilots=200)
    pdp = to_continuous_pdp(etu_profile(), cfg, cluster_rms_s=1e-7, normalize=True)
    assert pdp.total_power == pytest.approx(1.0, rel=1e-12)
    active = np.flatnonzero(pdp.variances > 0)
    assert active.size == 33
    assert active.max() == 51  # the 5 us tap's cluster tail
    assert eta95(pdp.variances) == 12


def test_realize_channel_moments():
    var = np.array([2.0, 0.0, 0.5, 0.0])
    pdp = PowerDelayProfile(variances=var, bin_width_s=1e-7)
    rng = np.random.default_rng(10)
    draws = np.array([realize_channel(pdp, rng) for _ in range(4000)])
    assert np.all(draws[:, 1] == 0)
    assert np.all(draws[:, 3] == 0)
    emp = np.mean(np.abs(draws) ** 2, axis=0)
    np.testing.assert_allclose(emp[[0, 2]], var[[0, 2]], rtol=0.08)
    # circular symmetry: pseudo-variance vanishes
    assert abs(np.mean(draws[:, 0] ** 2)) < 0.1


def test_eta95_against_sort_accumulate_oracle():
    rng = np.random.default_rng(11)
    for _ in range(25):
        v = rng.random(40) ** 3
        got = eta95(v)
        ordered = np.sort(v)[::-1]
        count = 0
        acc = 0.0
        target = 0.95 * v.sum()
        for x in ordered:
            acc += x
            count += 1
            if acc >= target * (1 - 1e-12):
                break
        assert got == count


def test_eta95_edges():
    assert eta95(np.array([1.0])) == 1
    # 20 equal bins: 19 of them hold exactly 95 percent
    assert eta95(np.ones(20)) == 19
    with pytest.raises(ValueError):
        eta95(np.zeros(4))
    with pytest.raises(ValueError):
        eta95(np.array([1.0, -1.0]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            eta95(np.array([1.0, bad, 2.0]))


def test_delay_spread():
    # two equal taps tau apart have rms spread tau / 2
    assert delay_spread(np.array([0.0, 2e-6]), np.array([1.0, 1.0])) == pytest.approx(
        1e-6
    )
    assert delay_spread(np.array([5e-7]), np.array([3.0])) == 0.0
    with pytest.raises(ValueError):
        delay_spread(np.array([0.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        delay_spread(np.array([0.0]), np.array([-1.0]))
    with pytest.raises(ValueError):
        delay_spread(np.array([0.0]), np.array([0.0]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="powers must be finite"):
            delay_spread(np.array([0.0, 1e-6]), np.array([1.0, bad]))
        with pytest.raises(ValueError, match="delays must be finite"):
            delay_spread(np.array([0.0, bad]), np.array([1.0, 1.0]))

