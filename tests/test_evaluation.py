"""Scoring, the capacity bound, and the Monte Carlo sweep harness."""

import concurrent.futures
import dataclasses
import math
from itertools import product

import numpy as np
import pytest

from sparsechan import baseline, evaluation
from sparsechan.baseline import (
    SupportSet,
    estimate_dft,
    estimate_li_mmse,
    estimate_linear_interp,
    estimate_mmse_oracle,
    estimate_reduced_rank_ls,
    pilot_sample_covariance,
)
from sparsechan.channel import ImpulseProfile, etu_profile, realize_channel
from sparsechan.evaluation import (
    ESTIMATOR_NAMES,
    NMSE_DB_FLOOR,
    CapacityParams,
    SweepConfig,
    SweepRow,
    capacity_lower_bound,
    false_alarm_calibration,
    run_sweep,
)
from sparsechan.signal_model import (
    Observation,
    ObservationSet,
    PilotPattern,
    SystemConfig,
    synthesize_observation,
)
from sparsechan.sparse_recovery import (
    DetectionConfig,
    SamplePdp,
    algorithm_a1,
    algorithm_a2,
    algorithm_a3,
    detect_support,
    omp,
    sample_pdp,
)

ETU = etu_profile()


def _smoke_config(**overrides):
    base = dict(
        system=SystemConfig(d=48, n_pilots=16),
        profile=ETU,
        snr_db=(10.0, 20.0),
        n_trials=4,
        estimators=ESTIMATOR_NAMES,
        n_prior_sets=3,
        master_seed=5,
    )
    base.update(overrides)
    return SweepConfig(**base)


# ------------------------------------------------------------------- capacity


def test_capacity_params_validation():
    ok = dict(rho=1.0, sigma_e_sq=0.1, n_symbols=10, n_pilots=2)
    CapacityParams(**ok)
    for bad in (
        dict(ok, rho=0.0),
        dict(ok, rho=float("nan")),
        dict(ok, sigma_e_sq=-0.1),
        dict(ok, sigma_e_sq=1.5),
        dict(ok, n_symbols=0),
        dict(ok, n_pilots=11),
        dict(ok, n_pilots=-1),
        dict(ok, n_symbols=2.5),
    ):
        with pytest.raises(ValueError):
            CapacityParams(**bad)
    params = CapacityParams(**ok)
    for norms in (np.array([-1.0]), np.array([1.0, np.nan]), np.array([1.0, np.inf])):
        with pytest.raises(ValueError, match="energies"):
            capacity_lower_bound(params, norms)


def test_capacity_lower_bound_formula():
    rho, se = 4.0, 0.3
    norms = np.array([0.5, 1.0, 2.0])
    params = CapacityParams(rho=rho, sigma_e_sq=se, n_symbols=12, n_pilots=3)
    eff = rho * (1 - se) / (1 + rho * se)
    expect = (1 - 3 / 12) * float(np.mean(np.log2(1 + eff * norms)))
    assert capacity_lower_bound(params, norms) == pytest.approx(expect, rel=1e-12)
    # zero estimation error keeps the nominal SNR
    clean = CapacityParams(rho=rho, sigma_e_sq=0.0, n_symbols=12, n_pilots=0)
    assert capacity_lower_bound(clean, norms) == pytest.approx(
        float(np.mean(np.log2(1 + rho * norms))), rel=1e-12
    )
    with pytest.raises(ValueError):
        capacity_lower_bound(params, np.empty(0))
    with pytest.raises(ValueError):
        capacity_lower_bound(params, np.array([-1.0]))


# --------------------------------------------------------------- sweep config


def test_sweep_config_validation():
    ok = _smoke_config()
    assert ok.snr_db == (10.0, 20.0)
    with pytest.raises(ValueError):
        _smoke_config(snr_db=())
    with pytest.raises(ValueError):
        _smoke_config(snr_db=(10.0, 10.0))
    for snr in (float("nan"), math.inf, -4000.0, 4000.0):
        with pytest.raises(ValueError, match="finite"):
            _smoke_config(snr_db=(snr,))
    with pytest.raises(ValueError):
        _smoke_config(n_trials=0)
    with pytest.raises(ValueError, match="master_seed must be non-negative, got -1"):
        _smoke_config(master_seed=-1)
    with pytest.raises(ValueError):
        _smoke_config(estimators=())
    with pytest.raises(ValueError):
        _smoke_config(estimators=("dft", "nope"))
    with pytest.raises(ValueError):
        _smoke_config(estimators=("dft", "dft"))
    with pytest.raises(ValueError):
        _smoke_config(n_prior_sets=0)
    # a non-integral count or seed would construct and then fail inside run_sweep
    for name, value in (("n_trials", 2.5), ("n_prior_sets", 2.5), ("master_seed", 1.5)):
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {value}"):
            _smoke_config(**{name: value})
    with pytest.raises(ValueError):
        _smoke_config(system=SystemConfig(d=16, n_pilots=16))
    # derived inputs are resolved, and checked, on construction
    with pytest.raises(ValueError, match="alpha"):
        _smoke_config(alpha=1.0)
    with pytest.raises(ValueError, match="cluster RMS width"):
        _smoke_config(cluster_rms_s=0.0)
    with pytest.raises(ValueError, match="outside"):
        _smoke_config(profile=ImpulseProfile(taps=((0.0, 0.0), (1e-3, -3.0))))


# ------------------------------------------------------------------ the sweep


def test_run_sweep_smoke_all_estimators():
    cfg = _smoke_config()
    res = run_sweep(cfg, keep_trials=True)
    assert len(res.rows) == len(ESTIMATOR_NAMES) * 2
    for r in res.rows:
        assert r.failures == 0
        assert r.n_trials == 4
        assert r.master_seed == 5
        assert math.isfinite(r.nmse_db)
        assert 0.0 < r.capacity_fraction <= 1.0
    # the error-free reference hits the dB floor and keeps exactly the
    # data-symbol share of the ideal rate
    for snr in (10.0, 20.0):
        ideal = res.row("ideal", snr)
        assert ideal.nmse_db == NMSE_DB_FLOOR
        assert ideal.capacity_fraction == pytest.approx(1 - 16 / 48, rel=1e-12)
    with pytest.raises(KeyError):
        res.row("dft", 15.0)
    # per-trial detail: aggregate equals the ratio of sums
    errs = res.trial_errors[("omp", 10.0)]
    norms = res.trial_norms[10.0]
    assert errs.shape == norms.shape == (4,)
    assert not np.any(np.isnan(errs))
    assert np.all(norms > 0)
    agg = 10 * math.log10(errs.sum() / norms.sum())
    assert res.row("omp", 10.0).nmse_db == pytest.approx(agg, rel=1e-12)
    assert np.all(res.trial_errors[("ideal", 20.0)] == 0)


def test_run_sweep_reproducible_and_spacing_default():
    res1 = run_sweep(_smoke_config())
    res2 = run_sweep(_smoke_config())
    assert res1.rows == res2.rows
    assert res1.trial_errors is None
    # the uniform pattern is spaced d // n_pilots
    np.testing.assert_array_equal(_smoke_config().uni_pattern.indices, np.arange(16) * 3)


@pytest.fixture(scope="module")
def full_table_sweep():
    return run_sweep(_smoke_config(), keep_trials=True)


@pytest.mark.parametrize("name", ESTIMATOR_NAMES)
def test_run_sweep_results_independent_of_selection(full_table_sweep, name):
    alone = run_sweep(_smoke_config(estimators=(name,)), keep_trials=True)
    assert alone.rows == [r for r in full_table_sweep.rows if r.estimator == name]
    for snr in (10.0, 20.0):
        np.testing.assert_array_equal(
            alone.trial_errors[(name, snr)], full_table_sweep.trial_errors[(name, snr)]
        )


def test_run_sweep_parallel_matches_sequential():
    cfg = _smoke_config(estimators=ESTIMATOR_NAMES)
    seq = run_sweep(cfg, n_workers=1)
    par = run_sweep(cfg, n_workers=2)
    assert seq.rows == par.rows


def _uni_obs(trial):
    """The uniform observation of a one-trial block."""
    return Observation(trial.uni_y[0], trial.config.uni_pattern, trial.sigma2)


def _priors_uni(trial):
    """The uniform prior sets of a one-trial block as observations."""
    pattern = trial.config.uni_pattern
    return [Observation(y, pattern, trial.sigma2) for y in trial.priors_uni_y[0]]


def _rand_sets(trial):
    """The pseudo-random sets of a one-trial block as observations, the scored one first."""
    return tuple(
        Observation(y, PilotPattern(pilots, trial.d, "pseudo_random"), trial.sigma2)
        for pilots, y in zip(trial.pilots[0], trial.y[0])
    )


def test_run_sweep_results_independent_of_block_size_and_workers(monkeypatch):
    # 7 trials split into blocks of 1 and into one ragged block of the default
    # size; every trial error must also be the public per-trial call's, bit
    # for bit, for the baselines run once per block as for the pursuits.
    cfg = _smoke_config(n_trials=7)
    blocked = run_sweep(cfg, keep_trials=True)
    par = run_sweep(cfg, n_workers=3)  # one process per block: two
    assert blocked.rows == par.rows
    monkeypatch.setattr(evaluation, "_BLOCK", 1)
    single = run_sweep(cfg, keep_trials=True)
    assert single.rows == blocked.rows
    for key, errors in blocked.trial_errors.items():
        np.testing.assert_array_equal(single.trial_errors[key], errors)
    public = {
        "dft": ("uniform", lambda t: estimate_dft(_uni_obs(t), cfg.system).channel_freq),
        "li": ("uniform", lambda t: estimate_linear_interp(_uni_obs(t), cfg.system).channel_freq),
        "li-mmse": (
            "uniform",
            lambda t: estimate_li_mmse(
                _uni_obs(t), pilot_sample_covariance(_priors_uni(t), t.sigma2), t.sigma2, cfg.system
            ).channel_freq,
        ),
        "mmse": (
            "pseudo_random",
            lambda t: estimate_mmse_oracle(
                _rand_sets(t)[0], cfg.pdp, t.sigma2, cfg.system
            ).channel_freq,
        ),
        "rrls": (
            "uniform",
            lambda t: estimate_reduced_rank_ls(
                _uni_obs(t), SupportSet(cfg.rrls_support), cfg.system
            ).channel_freq,
        ),
        "omp": ("pseudo_random", lambda t: omp(_rand_sets(t)[0]).channel_freq()),
        "a1": (
            "pseudo_random",
            lambda t: algorithm_a1(ObservationSet(_rand_sets(t)), t.det)[0].channel_freq(),
        ),
        "a2": (
            "pseudo_random",
            lambda t: algorithm_a2(
                _rand_sets(t)[0], sample_pdp(ObservationSet(_rand_sets(t)[1:])), t.det
            ).channel_freq(),
        ),
        "a3": (
            "pseudo_random",
            lambda t: algorithm_a3(ObservationSet(_rand_sets(t)), t.det)[0].channel_freq(),
        ),
    }
    for si, snr in enumerate(cfg.snr_db):
        block = evaluation._Block(cfg, si, range(cfg.n_trials))
        for ti in range(cfg.n_trials):
            trial = block.trial(ti)
            for name, (kind, estimate) in public.items():
                data = {"uniform": cfg.uni_data, "pseudo_random": trial.rand_data[0]}[kind]
                err = estimate(trial)[data] - trial.true_freq[0, data]
                assert blocked.trial_errors[(name, snr)][ti] == np.mean(np.abs(err) ** 2)


@pytest.mark.parametrize(
    "estimators, patterns_per_trial",
    [(("dft", "li", "li-mmse", "mmse", "rrls"), 1), (("dft", "exomp"), 1 + 3)],
)
def test_run_sweep_builds_only_the_prior_sets_its_estimators_read(
    monkeypatch, estimators, patterns_per_trial
):
    # Every trial still draws every pattern seed, but only the scored
    # pseudo-random pattern is built unless an estimator reads the prior sets
    # (3 in the smoke config); the selection test shows the skip moves no value.
    seeds = []
    rows = evaluation._pseudo_random_rows

    def counting(d, n, trial_seeds):
        seeds.extend(trial_seeds)
        return rows(d, n, trial_seeds)

    monkeypatch.setattr(evaluation, "_pseudo_random_rows", counting)
    cfg = _smoke_config(estimators=estimators)
    run_sweep(cfg)
    assert len(seeds) == patterns_per_trial * cfg.n_trials * len(cfg.snr_db)


def test_run_sweep_builds_no_pattern_observation_or_pdp_objects(monkeypatch):
    # A block is arrays, of which every estimator entry reads slices: once
    # the config holds its uniform pattern, a sweep of every estimator
    # constructs no pilot pattern, observation, observation set or sample PDP.
    cfg = _smoke_config()
    built = []
    for cls in (PilotPattern, Observation, ObservationSet, SamplePdp):

        def counting(self, post_init=cls.__post_init__):
            built.append(type(self).__name__)
            post_init(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    run_sweep(cfg)
    assert built == []


def _sequential_trial(cfg, snr_idx, trial_idx):
    """A trial's spectrum, energy and observations from one public call per draw.

    The calls follow the order the ``_Block`` docstring documents.
    """
    system, n = cfg.system, cfg.n_prior_sets
    sigma2 = 10.0 ** (-cfg.snr_db[snr_idx] / 10.0)
    rng = np.random.default_rng([cfg.master_seed, snr_idx, trial_idx])

    def pseudo_random():
        return PilotPattern.pseudo_random(system, int(rng.integers(0, 2**63)))

    theta0 = realize_channel(cfg.pdp, rng)
    observations = [synthesize_observation(system, cfg.uni_pattern, theta0, sigma2, rng)]
    pattern = pseudo_random()
    observations.append(synthesize_observation(system, pattern, theta0, sigma2, rng))
    for _ in range(n):
        theta = realize_channel(cfg.pdp, rng)
        pattern = pseudo_random()
        observations.append(synthesize_observation(system, pattern, theta, sigma2, rng))
    for _ in range(n):
        theta = realize_channel(cfg.pdp, rng)
        observations.append(synthesize_observation(system, cfg.uni_pattern, theta, sigma2, rng))
    return np.fft.fft(theta0), float(np.vdot(theta0, theta0).real), observations


@pytest.mark.parametrize("n_prior_sets", [1, 3])
def test_trial_synthesis_follows_the_documented_draw_order(n_prior_sets):
    # A block of trials 0-3 and the ragged block of trials 4-6 that blocks
    # of four leave at seven trials hold each trial's rows bit for bit, as
    # do the one-trial blocks ``trial`` returns.
    cfg = _smoke_config(snr_db=(0.0, 10.0, 20.0), n_prior_sets=n_prior_sets)
    uni, d = cfg.uni_pattern.indices, cfg.system.d
    for snr_idx, trials in product((0, 2), (range(0, 4), range(4, 7))):
        block = evaluation._Block(cfg, snr_idx, trials)
        assert block.norm.shape == (len(trials),)
        for i, trial_idx in enumerate(trials):
            true_freq, norm, observations = _sequential_trial(cfg, snr_idx, trial_idx)
            one = block.trial(i)
            for b, t in ((block, i), (one, 0)):
                np.testing.assert_array_equal(b.true_freq[t], true_freq)
                assert b.norm[t] == norm
                got = [
                    (uni, b.uni_y[t]),
                    *zip(b.pilots[t], b.y[t]),
                    *((uni, y) for y in b.priors_uni_y[t]),
                ]
                assert len(got) == len(observations) == 2 + 2 * n_prior_sets
                for (pilots, y), want in zip(got, observations):
                    np.testing.assert_array_equal(y, want.y)
                    np.testing.assert_array_equal(pilots, want.pattern.indices)
                    assert b.sigma2 == want.noise_var
                np.testing.assert_array_equal(b.noise_vars[t], b.sigma2)
                data = np.setdiff1d(np.arange(d), observations[1].pattern.indices)
                np.testing.assert_array_equal(b.rand_data[t], data)
                # The sample PDPs of all pseudo-random sets and of the prior ones.
                rand = observations[1 : 2 + n_prior_sets]
                full = sample_pdp(ObservationSet(rand))
                prior = sample_pdp(ObservationSet(rand[1:]))
                np.testing.assert_array_equal(b.full_values[t], full.values)
                np.testing.assert_array_equal(b.prior_values[t], prior.values)


class _RecordingPool:
    """Stands in for the process pool: records its size, maps in this process."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def test_run_sweep_starts_one_worker_per_block_at_most(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    cfg = _smoke_config(estimators=("dft",), n_trials=3)  # 2 SNR points, 1 block each
    reference = run_sweep(cfg)
    assert run_sweep(cfg, n_workers=500).rows == reference.rows
    assert run_sweep(cfg, n_workers=2).rows == reference.rows
    monkeypatch.setattr(evaluation, "_BLOCK", 1)
    assert run_sweep(cfg, n_workers=4).rows == reference.rows
    assert _RecordingPool.sizes == [2, 2, 4]
    # NaN must not run on one process, nor 2.5 fail inside concurrent.futures
    for bad in (0, -3, float("nan")):
        with pytest.raises(ValueError, match=f"n_workers must be positive, got {bad}"):
            run_sweep(cfg, n_workers=bad)
    with pytest.raises(ValueError, match="n_workers must be an integer, got 2.5"):
        run_sweep(cfg, n_workers=2.5)


def _check_rows_aggregate_trials(res, config):
    # Every row is the ratio of sums over its valid trials, and its capacity
    # fraction is the bound at that error over the bound at zero error with
    # no pilots, on the same trials.
    d, n_pilots = config.system.d, config.system.n_pilots
    for row in res.rows:
        errs = res.trial_errors[(row.estimator, row.snr_db)]
        valid = ~np.isnan(errs)
        assert row.failures == int(np.isnan(errs).sum())
        if not valid.any():
            assert math.isnan(row.nmse_db) and math.isnan(row.capacity_fraction)
            continue
        norms = res.trial_norms[row.snr_db][valid]
        lin = errs[valid].sum() / norms.sum()
        db = max(10 * math.log10(lin) if lin > 0 else -math.inf, NMSE_DB_FLOOR)
        assert row.nmse_db == pytest.approx(db, rel=1e-12, abs=1e-12)
        rho = 10 ** (row.snr_db / 10)
        rate = capacity_lower_bound(CapacityParams(rho, min(lin, 1.0), d, n_pilots), norms)
        ideal = capacity_lower_bound(CapacityParams(rho, 0.0, d, 0), norms)
        assert row.capacity_fraction == pytest.approx(rate / ideal, rel=1e-12)


def test_run_sweep_counts_deterministic_failures():
    # With four pilots every 32 carriers on d=128, delay bins repeat mod 4;
    # the strongest profile bins {0, 1, 3, 4} put two taps on one column, so
    # the fixed-support least squares is singular in every trial while the
    # other estimators keep working.
    cfg = SweepConfig(
        system=SystemConfig(d=128, n_pilots=4),
        profile=ETU,
        snr_db=(10.0,),
        n_trials=3,
        estimators=("rrls", "dft"),
        n_prior_sets=2,
        master_seed=5,
        cluster_rms_s=1e-9,
    )
    res = run_sweep(cfg, keep_trials=True)
    bad = res.row("rrls", 10.0)
    assert bad.failures == 3
    assert math.isnan(bad.nmse_db)
    assert math.isnan(bad.capacity_fraction)
    assert np.all(np.isnan(res.trial_errors[("rrls", 10.0)]))
    good = res.row("dft", 10.0)
    assert good.failures == 0
    assert math.isfinite(good.nmse_db)
    _check_rows_aggregate_trials(res, cfg)


@pytest.mark.parametrize("n_workers", [1, 2])
def test_run_sweep_raises_programming_errors(monkeypatch, n_workers):
    # Only numeric LinAlgErrors count as estimator failures; a bug in an
    # estimator, one run per trial (exomp's) or one run on the whole block (a
    # pursuit's or a baseline's), must stop the sweep, in the workers as well.
    def broken(*args, **kwargs):
        raise TypeError("broken estimator")

    for name, function in (
        ("exomp", "_ex_omp_row"),
        ("li", "_interp_rows"),
        ("dft", "_dft_taps"),
        ("omp", "_omp_rows"),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(evaluation, function, broken)
            cfg = _smoke_config(estimators=("ideal", name), n_trials=2)
            with pytest.raises(TypeError, match="broken estimator"):
                run_sweep(cfg, n_workers=n_workers)


def test_run_sweep_scores_a_linalg_error_for_its_trial_only(monkeypatch):
    # One trial of a block fails; the others in the block, and every other
    # estimator on the failing trial, keep their unpatched errors.  The patch
    # is on the row code under both the mmse block entry and
    # estimate_mmse_oracle: the block fails as a whole, and the rerun one
    # trial at a time fails that trial alone.
    cfg = _smoke_config(n_trials=4)
    reference = run_sweep(cfg, keep_trials=True)
    support_taps = baseline._support_taps
    target = evaluation._Block(cfg, 1, range(2, 3)).y[0, 0]

    def failing_once(d, pilots, y, *args):
        if any(np.array_equal(row, target) for row in y):
            raise np.linalg.LinAlgError("singular")
        return support_taps(d, pilots, y, *args)

    monkeypatch.setattr(baseline, "_support_taps", failing_once)
    res = run_sweep(cfg, keep_trials=True)
    assert res.row("mmse", 20.0).failures == 1
    for key, errors in res.trial_errors.items():
        want = reference.trial_errors[key].copy()
        if key == ("mmse", 20.0):
            want[2] = np.nan
        np.testing.assert_array_equal(errors, want)
    _check_rows_aggregate_trials(res, cfg)


def test_sweep_result_csv_round_trip(tmp_path):
    res = run_sweep(_smoke_config(estimators=("li", "dft")))
    out = tmp_path / "rows.csv"
    res.to_csv(out)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == (
        "estimator,snr_db,nmse_db,capacity_fraction,n_trials,failures,master_seed"
    )
    assert lines[0].split(",") == [f.name for f in dataclasses.fields(SweepRow)]
    assert len(lines) == 1 + 4
    names = [ln.split(",")[0] for ln in lines[1:]]
    assert names == ["dft", "dft", "li", "li"]
    first = lines[1].split(",")
    row = res.row("dft", 10.0)
    assert float(first[1]) == 10.0
    assert float(first[2]) == pytest.approx(row.nmse_db, rel=1e-9)
    assert first[4:] == ["4", "0", "5"]
    assert "nan" not in out.read_text()


def test_summary_is_printable():
    res = run_sweep(_smoke_config(estimators=("dft",), snr_db=(10.0,)))
    text = res.summary()
    assert "dft" in text and "nmse_db" in text
    assert len(text.split("\n")) == 2


# ---------------------------------------------------------------- calibration


def test_false_alarm_calibration_runs_and_counts():
    system = SystemConfig(d=32, n_pilots=8)
    rows = false_alarm_calibration(
        system, alphas=(0.05, 0.2), n_sets_list=(1, 2), n_bins=3200, master_seed=3
    )
    assert len(rows) == 4
    for row in rows:
        assert row["n_bins"] == 3200
        assert 0 <= row["false_alarms"] <= 3200
        assert row["rate"] == row["false_alarms"] / 3200
        alpha = row["alpha"]
        assert row["stderr"] == pytest.approx(
            math.sqrt(alpha * (1 - alpha) / 3200), rel=1e-12
        )
        # plumbing check only; statistical calibration is covered at scale
        assert 0.3 * alpha < row["rate"] < 2.5 * alpha
    again = false_alarm_calibration(
        system, alphas=(0.05, 0.2), n_sets_list=(1, 2), n_bins=3200, master_seed=3
    )
    assert again == rows


def test_false_alarm_calibration_follows_the_documented_draw_order():
    # Per trial and set: a pattern seed, then the set's noise on an all-zero
    # channel, as the public calls below draw them.  The calibration takes
    # blocks of 16 // n_sets trials (at least one), and none of those sizes
    # divides the 101 trials, so every set count ends on a partial block.
    system = SystemConfig(d=32, n_pilots=8)
    alphas, set_counts, n_bins, seed = (0.05, 0.2), (1, 3, 5, 8, 20), 3232, 4
    rows = false_alarm_calibration(system, alphas, set_counts, n_bins=n_bins, master_seed=seed)
    zeros = np.zeros(system.d, dtype=np.complex128)
    dets = [DetectionConfig(alpha=alpha, noise_var=1.0) for alpha in alphas]
    want = []
    for set_idx, n_sets in enumerate(set_counts):
        counts = [0] * len(alphas)
        for t in range(n_bins // system.d):
            rng = np.random.default_rng([seed, set_idx, t])
            obs = []
            for _ in range(n_sets):
                pattern = PilotPattern.pseudo_random(system, int(rng.integers(0, 2**63)))
                obs.append(synthesize_observation(system, pattern, zeros, 1.0, rng))
            spdp = sample_pdp(ObservationSet(tuple(obs)))
            counts = [c + detect_support(spdp, det).size for c, det in zip(counts, dets)]
        want += [(alpha, n_sets, count) for alpha, count in zip(alphas, counts)]
    assert [(r["alpha"], r["n_sets"], r["false_alarms"]) for r in rows] == want


def test_false_alarm_calibration_validation(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("drew before the values were checked")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    system = SystemConfig(d=32, n_pilots=8)
    with pytest.raises(ValueError):
        false_alarm_calibration(system, alphas=(), n_sets_list=(1,))
    with pytest.raises(ValueError):
        false_alarm_calibration(system, alphas=(0.1,), n_sets_list=())
    with pytest.raises(ValueError, match="n_bins must cover at least one trial"):
        false_alarm_calibration(system, alphas=(0.1,), n_sets_list=(1,), n_bins=16)
    for n_bins in (math.inf, math.nan):
        with pytest.raises(ValueError, match=f"n_bins must .* be finite, got {n_bins}"):
            false_alarm_calibration(system, alphas=(0.1,), n_sets_list=(1,), n_bins=n_bins)
    with pytest.raises(ValueError, match="master_seed must be non-negative, got -1"):
        false_alarm_calibration(system, alphas=(0.1,), n_sets_list=(1,), master_seed=-1)
    with pytest.raises(ValueError, match="master_seed must be an integer, got 1.5"):
        false_alarm_calibration(system, alphas=(0.1,), n_sets_list=(1,), master_seed=1.5)
    # a repeated alpha would share one count, so both of its rows read double rate
    with pytest.raises(ValueError, match="alphas must be distinct"):
        false_alarm_calibration(system, alphas=(0.05, 0.05), n_sets_list=(1,))
    with pytest.raises(ValueError, match="set counts must be distinct"):
        false_alarm_calibration(system, alphas=(0.05,), n_sets_list=(2, 1, 2))
    # Every value is checked before the first draw, not when the loop reaches
    # the combination that uses it.
    with pytest.raises(ValueError, match="set counts must be positive, got 0"):
        false_alarm_calibration(system, alphas=(0.1,), n_sets_list=(1, 0))
    with pytest.raises(ValueError, match="set counts must be an integer, got 2.5"):
        false_alarm_calibration(system, alphas=(0.1,), n_sets_list=(1, 2.5))
    with pytest.raises(ValueError, match="alpha must lie strictly inside"):
        false_alarm_calibration(system, alphas=(0.1, 1.5), n_sets_list=(1,))
    # n_bins is a lower bound on the bins examined, so a fraction rounds up
    # to whole trials.
    monkeypatch.undo()
    (row,) = false_alarm_calibration(system, alphas=(0.1,), n_sets_list=(1,), n_bins=640.5)
    assert row["n_bins"] == 672
