"""Command line front end.

Four subcommands:

* ``sweep``        Monte Carlo NMSE/capacity sweep over SNR, CSV output
* ``capacity``     same runner, defaults and summary oriented to rate fractions
* ``pdp``          resolve a power delay profile and report its metrics
* ``detect-calib`` empirical false-alarm rates of the support detector

Configuration comes from a flat ``key = value`` file (``#`` starts a comment;
keys are dotted, e.g. ``sweep.n_trials``), optionally overridden on the
command line with repeated ``--set key=value`` flags.  ``--seed`` overrides
the configured master seed; when no seed is configured at all, one is drawn
from system entropy and printed so the run can be reproduced.

Exit codes: 0 on success, 1 when a sweep finished but some estimator failed
on more than half its trials, 2 on configuration or usage errors.
"""

from __future__ import annotations

import argparse
import secrets
import sys

from .channel import (
    ImpulseProfile,
    delay_spread,
    eta95,
    etu_profile,
    to_continuous_pdp,
)
from .evaluation import (
    SweepConfig,
    false_alarm_calibration,
    run_sweep,
)
from .signal_model import SystemConfig
from .sparse_recovery import OmpConfig

__all__ = ["main", "ConfigError", "parse_config_text"]


class ConfigError(Exception):
    """A configuration problem attributable to one key."""

    def __init__(self, key: str, message: str) -> None:
        self.key = key
        super().__init__(f"{key}: {message}")


def parse_config_text(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines into a flat string dict."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key:
            raise ConfigError(f"line {lineno}", f"expected 'key = value', got {raw!r}")
        out[key] = value
    return out


# Every key any subcommand understands.  A config file may carry keys used
# only by other subcommands (so one preset can drive several tools), but a
# key outside this schema is rejected as a likely typo.
_KNOWN_KEYS = frozenset(
    {
        "system.d",
        "system.n_pilots",
        "system.subcarrier_spacing_hz",
        "channel.profile",
        "channel.cluster_rms_us",
        "sweep.snr_db",
        "sweep.n_trials",
        "sweep.estimators",
        "sweep.n_prior_sets",
        "sweep.master_seed",
        "sweep.uniform_spacing",
        "detect.alpha",
        "omp.max_iters",
        "omp.residual_gamma",
        "capacity.n_symbols",
        "calib.alphas",
        "calib.n_sets",
        "calib.n_bins",
    }
)


class _Config:
    """Typed access to the flat key/value map; every getter names its key on error."""

    def __init__(self, raw: dict[str, str]) -> None:
        self.raw = raw
        unknown = sorted(set(raw) - _KNOWN_KEYS)
        if unknown:
            raise ConfigError(unknown[0], "unknown configuration key")

    def has(self, key: str) -> bool:
        return key in self.raw

    def get_str(self, key: str, default: str) -> str:
        return self.raw.get(key, default)

    def get_int(self, key: str, default: int | None) -> int | None:
        if key not in self.raw:
            return default
        try:
            return int(self.raw[key])
        except ValueError as exc:
            raise ConfigError(key, f"expected an integer, got {self.raw[key]!r}") from exc

    def get_float(self, key: str, default: float) -> float:
        if key not in self.raw:
            return default
        try:
            return float(self.raw[key])
        except ValueError as exc:
            raise ConfigError(key, f"expected a number, got {self.raw[key]!r}") from exc

    def get_float_list(self, key: str, default: tuple[float, ...]) -> tuple[float, ...]:
        if key not in self.raw:
            return default
        try:
            return tuple(float(v) for v in self.raw[key].split(",") if v.strip())
        except ValueError as exc:
            raise ConfigError(key, f"expected comma-separated numbers, got {self.raw[key]!r}") from exc

    def get_int_list(self, key: str, default: tuple[int, ...]) -> tuple[int, ...]:
        if key not in self.raw:
            return default
        try:
            return tuple(int(v) for v in self.raw[key].split(",") if v.strip())
        except ValueError as exc:
            raise ConfigError(key, f"expected comma-separated integers, got {self.raw[key]!r}") from exc

    def get_str_list(self, key: str, default: tuple[str, ...]) -> tuple[str, ...]:
        if key not in self.raw:
            return default
        return tuple(v.strip() for v in self.raw[key].split(",") if v.strip())


def _load_config(path: str | None, overrides: list[str] | None) -> _Config:
    raw: dict[str, str] = {}
    if path is not None:
        try:
            with open(path) as fh:
                raw = parse_config_text(fh.read())
        except OSError as exc:
            raise ConfigError(path, f"cannot read config file: {exc}") from exc
    for item in overrides or []:
        key, sep, value = item.partition("=")
        if not sep or not key.strip():
            raise ConfigError(item, "override must look like key=value")
        raw[key.strip()] = value.strip()
    return _Config(raw)


def _build_system(cfg: _Config) -> SystemConfig:
    try:
        return SystemConfig(
            d=cfg.get_int("system.d", 600),
            n_pilots=cfg.get_int("system.n_pilots", 200),
            subcarrier_spacing_hz=cfg.get_float("system.subcarrier_spacing_hz", 15e3),
        )
    except ValueError as exc:
        raise ConfigError("system.*", str(exc)) from exc


def _build_profile(cfg: _Config) -> ImpulseProfile:
    name = cfg.get_str("channel.profile", "etu")
    if name == "etu":
        return etu_profile()
    try:
        return ImpulseProfile.from_csv(name)
    except (OSError, ValueError, KeyError) as exc:
        raise ConfigError("channel.profile", f"cannot load {name!r}: {exc}") from exc


def _build_omp(cfg: _Config) -> OmpConfig:
    try:
        return OmpConfig(
            max_iters=cfg.get_int("omp.max_iters", None),
            residual_gamma=cfg.get_float("omp.residual_gamma", 1.0),
        )
    except ValueError as exc:
        raise ConfigError("omp.*", str(exc)) from exc


def _resolve_seed(cfg: _Config, seed_flag: int | None) -> tuple[int, bool]:
    if seed_flag is not None:
        return seed_flag, False
    configured = cfg.get_int("sweep.master_seed", None)
    if configured is not None:
        return configured, False
    return secrets.randbits(32), True


def _run_sweep_command(args: argparse.Namespace, capacity_focus: bool) -> int:
    cfg = _load_config(args.config, args.set)
    system = _build_system(cfg)
    profile = _build_profile(cfg)
    seed, drawn = _resolve_seed(cfg, args.seed)
    if capacity_focus:
        default_estimators = ("ideal", "li", "exomp")
    else:
        default_estimators = ("dft", "li", "li-mmse", "mmse", "omp", "a1", "a2", "a3", "exomp")
    try:
        sweep_cfg = SweepConfig(
            system=system,
            profile=profile,
            snr_db=cfg.get_float_list("sweep.snr_db", (0.0, 5.0, 10.0, 15.0, 20.0)),
            n_trials=cfg.get_int("sweep.n_trials", 500),
            estimators=cfg.get_str_list("sweep.estimators", default_estimators),
            n_prior_sets=cfg.get_int("sweep.n_prior_sets", 8),
            master_seed=seed,
            alpha=cfg.get_float("detect.alpha", 1e-3),
            cluster_rms_s=cfg.get_float("channel.cluster_rms_us", 0.1) * 1e-6,
            omp=_build_omp(cfg),
            n_symbols=cfg.get_int("capacity.n_symbols", None),
            uniform_spacing=cfg.get_int("sweep.uniform_spacing", None),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError("sweep.*", str(exc)) from exc
    if drawn:
        print(f"master_seed = {seed}  (drawn from entropy; pass --seed {seed} to reproduce)")
    result = run_sweep(sweep_cfg, n_workers=args.threads)
    print(result.summary())
    if args.out:
        result.to_csv(args.out)
        print(f"wrote {args.out}")
    worst = max(result.rows, key=lambda r: r.failures)
    if worst.failures * 2 > worst.n_trials:
        print(
            f"error: estimator {worst.estimator!r} failed on {worst.failures} of "
            f"{worst.n_trials} trials at {worst.snr_db} dB",
            file=sys.stderr,
        )
        return 1
    return 0


def _run_pdp_command(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config, args.set)
    system = _build_system(cfg)
    profile = _build_profile(cfg)
    cluster_rms_s = cfg.get_float("channel.cluster_rms_us", 0.1) * 1e-6
    continuous = to_continuous_pdp(profile, system, cluster_rms_s=cluster_rms_s)
    powers = profile.linear_powers
    print(f"taps: {len(profile.taps)}")
    print(f"total_power_linear: {powers.sum():.6g}")
    print(f"rms_delay_spread_us: {delay_spread(profile.delays_s, powers) * 1e6:.6g}")
    print(f"eta95_taps: {eta95(powers)}")
    print(f"grid_bins: {system.d}")
    print(f"bin_width_ns: {system.bin_width_s * 1e9:.6g}")
    print(f"eta95_bins: {eta95(continuous.variances)}")
    if args.out:
        continuous.to_csv(args.out)
        print(f"wrote {args.out}")
    return 0


def _run_calib_command(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config, args.set)
    system = _build_system(cfg)
    seed, drawn = _resolve_seed(cfg, args.seed)
    alphas = cfg.get_float_list("calib.alphas", (1e-3, 1e-2, 5e-2))
    n_sets = cfg.get_int_list("calib.n_sets", (1, 5, 8))
    n_bins = cfg.get_int("calib.n_bins", 200_000)
    if drawn:
        print(f"master_seed = {seed}  (drawn from entropy; pass --seed {seed} to reproduce)")
    try:
        rows = false_alarm_calibration(
            system, alphas, n_sets, n_bins=n_bins, master_seed=seed
        )
    except ValueError as exc:
        raise ConfigError("calib.*", str(exc)) from exc
    print(f"{'alpha':>10} {'n_sets':>7} {'n_bins':>9} {'rate':>12} {'dev_sigma':>10}")
    for row in rows:
        dev = (row["rate"] - row["alpha"]) / row["stderr"]
        print(
            f"{row['alpha']:>10g} {row['n_sets']:>7d} {row['n_bins']:>9d} "
            f"{row['rate']:>12.6g} {dev:>10.2f}"
        )
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write("alpha,n_sets,n_bins,false_alarms,rate,stderr\n")
            for row in rows:
                fh.write(
                    f"{row['alpha']:g},{row['n_sets']},{row['n_bins']},"
                    f"{row['false_alarms']},{row['rate']:.10g},{row['stderr']:.10g}\n"
                )
        print(f"wrote {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsechan",
        description="Sparse delay-domain channel estimation simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", metavar="PATH", default=None, help="config file")
        p.add_argument("--out", metavar="PATH", default=None, help="output CSV path")
        p.add_argument(
            "--set",
            metavar="KEY=VALUE",
            action="append",
            default=[],
            help="override one config key (repeatable)",
        )
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument(
            "--threads", type=int, default=1, help="worker processes for trials"
        )

    sweep = sub.add_parser("sweep", help="NMSE/capacity sweep over SNR")
    add_common(sweep)
    capacity = sub.add_parser("capacity", help="sweep with capacity-oriented defaults")
    add_common(capacity)
    pdp = sub.add_parser("pdp", help="resolve a power delay profile and report metrics")
    add_common(pdp)
    calib = sub.add_parser("detect-calib", help="detector false-alarm calibration")
    add_common(calib)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "sweep":
            return _run_sweep_command(args, capacity_focus=False)
        if args.command == "capacity":
            return _run_sweep_command(args, capacity_focus=True)
        if args.command == "pdp":
            return _run_pdp_command(args)
        if args.command == "detect-calib":
            return _run_calib_command(args)
        parser.error(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
