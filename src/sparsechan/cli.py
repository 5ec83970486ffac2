"""Command line front end.

Three subcommands:

* ``sweep``        Monte Carlo NMSE/capacity sweep over SNR, CSV output
* ``pdp``          resolve a power delay profile and report its metrics
* ``detect-calib`` empirical false-alarm rates of the support detector

Configuration comes from a flat ``key = value`` file (``#`` starts a comment;
keys are dotted, e.g. ``sweep.n_trials``), optionally overridden on the
command line with repeated ``--set key=value`` flags.  Every key given is
parsed and every value checked before any work starts, whichever subcommand
reads it, and so is the directory of ``--out``.  Each subcommand takes only
the flags it reads.  ``--seed`` overrides the configured master seed; when no
seed is configured at all, one is drawn from system entropy and printed so
the run can be reproduced.

Exit codes: 0 on success, 1 when a sweep finished but some estimator failed
on more than half its trials, 2 on configuration or usage errors.
"""

from __future__ import annotations

import argparse
import os
import secrets
import sys
from collections.abc import Callable
from typing import Any

from .channel import (
    ImpulseProfile,
    PowerDelayProfile,
    delay_spread,
    eta95,
    etu_profile,
    to_continuous_pdp,
)
from .evaluation import (
    SweepConfig,
    _write_csv,
    false_alarm_calibration,
    run_sweep,
)
from .signal_model import SystemConfig

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


def _list_of(item: Callable[[str], Any]) -> Callable[[str], tuple]:
    return lambda text: tuple(item(v.strip()) for v in text.split(",") if v.strip())


_floats, _ints, _names = _list_of(float), _list_of(int), _list_of(str)


# What each parser expects, for the error message when it rejects a value.
_EXPECTED = {
    int: "an integer",
    float: "a number",
    _floats: "comma-separated numbers",
    _ints: "comma-separated integers",
}

# Every key any subcommand understands, with its parser and default.  A config
# file may carry keys used only by other subcommands (so one preset can drive
# several tools), but a key outside this table is rejected as a likely typo.
# Only ``sweep.master_seed`` defaults to None: the seed is then drawn at run time.
_KEYS: dict[str, tuple[Callable[[str], Any], Any]] = {
    "system.d": (int, 600),
    "system.n_pilots": (int, 200),
    "system.subcarrier_spacing_hz": (float, 15e3),
    "channel.profile": (str, "etu"),
    "channel.cluster_rms_us": (float, 0.1),
    "sweep.snr_db": (_floats, (0.0, 5.0, 10.0, 15.0, 20.0)),
    "sweep.n_trials": (int, 500),
    "sweep.estimators": (_names, _names("dft,li,li-mmse,mmse,omp,a1,a2,a3,exomp")),
    "sweep.n_prior_sets": (int, 8),
    "sweep.master_seed": (int, None),
    "detect.alpha": (float, 1e-3),
    "calib.alphas": (_floats, (1e-3, 1e-2, 5e-2)),
    "calib.n_sets": (_ints, (1, 5, 8)),
    "calib.n_bins": (int, 200_000),
}


def _load_config(path: str | None, overrides: list[str] | None) -> dict[str, Any]:
    """Every key of ``_KEYS`` mapped to its parsed value or its default."""
    raw: dict[str, str] = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                raw = parse_config_text(fh.read())
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(path, f"cannot read config file: {exc}") from exc
    for item in overrides or []:
        key, sep, value = item.partition("=")
        if not sep or not key.strip():
            raise ConfigError(item, "override must look like key=value")
        raw[key.strip()] = value.strip()
    unknown = sorted(set(raw) - set(_KEYS))
    if unknown:
        raise ConfigError(unknown[0], "unknown configuration key")
    cfg = {key: default for key, (_, default) in _KEYS.items()}
    for key, text in raw.items():
        parse = _KEYS[key][0]
        try:
            cfg[key] = parse(text)
        except ValueError as exc:
            raise ConfigError(key, f"expected {_EXPECTED[parse]}, got {text!r}") from exc
    return cfg


def _checked(family: str, make: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    """Call into the library, reporting its ValueError as a config error of ``family``."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(family, str(exc)) from exc


def _build_system(cfg: dict[str, Any]) -> SystemConfig:
    return _checked(
        "system.*",
        SystemConfig,
        d=cfg["system.d"],
        n_pilots=cfg["system.n_pilots"],
        subcarrier_spacing_hz=cfg["system.subcarrier_spacing_hz"],
    )


def _build_profile(cfg: dict[str, Any]) -> ImpulseProfile:
    name = cfg["channel.profile"]
    if name == "etu":
        return etu_profile()
    try:
        return ImpulseProfile.from_csv(name)
    except (OSError, ValueError) as exc:
        raise ConfigError("channel.profile", f"cannot load {name!r}: {exc}") from exc


def _resolve_seed(cfg: dict[str, Any], seed_flag: int | None) -> tuple[int, bool]:
    seed = seed_flag if seed_flag is not None else cfg["sweep.master_seed"]
    return (secrets.randbits(32), True) if seed is None else (seed, False)


def _run_sweep_command(cfg: dict[str, Any], args: argparse.Namespace) -> int:
    """NMSE/capacity sweep over SNR"""
    if args.threads < 1:
        raise ConfigError("--threads", f"need at least 1 worker process, got {args.threads}")
    system = _build_system(cfg)
    profile = _build_profile(cfg)
    seed, drawn = _resolve_seed(cfg, args.seed)
    sweep_cfg = _checked(
        "sweep.*",
        SweepConfig,
        system=system,
        profile=profile,
        snr_db=cfg["sweep.snr_db"],
        n_trials=cfg["sweep.n_trials"],
        estimators=cfg["sweep.estimators"],
        n_prior_sets=cfg["sweep.n_prior_sets"],
        master_seed=seed,
        alpha=cfg["detect.alpha"],
        cluster_rms_s=cfg["channel.cluster_rms_us"] * 1e-6,
    )
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


def _run_pdp_command(cfg: dict[str, Any], args: argparse.Namespace) -> int:
    """resolve a power delay profile and report metrics"""
    system = _build_system(cfg)
    profile = _build_profile(cfg)
    continuous = _checked(
        "channel.*",
        to_continuous_pdp,
        profile,
        system,
        cluster_rms_s=cfg["channel.cluster_rms_us"] * 1e-6,
    )
    powers = profile.linear_powers
    print(f"taps: {len(profile.taps)}")
    print(f"total_power_linear: {powers.sum():.6g}")
    print(f"rms_delay_spread_us: {delay_spread(profile.delays_s, powers) * 1e6:.6g}")
    print(f"eta95_taps: {eta95(powers)}")
    print(f"grid_bins: {system.d}")
    print(f"bin_width_ns: {system.bin_width_s * 1e9:.6g}")
    print(f"eta95_bins: {eta95(continuous.variances)}")
    if args.out:
        _write_pdp_csv(args.out, continuous)
        print(f"wrote {args.out}")
    return 0


def _write_pdp_csv(path, pdp: PowerDelayProfile) -> None:
    """Write one row per bin with header ``bin_index,delay_ns,variance_linear``."""
    width = pdp.bin_width_s
    rows = [(k, f"{k * width * 1e9:.6g}", f"{v:.12g}") for k, v in enumerate(pdp.variances)]
    _write_csv(path, ("bin_index", "delay_ns", "variance_linear"), rows)


def _run_calib_command(cfg: dict[str, Any], args: argparse.Namespace) -> int:
    """detector false-alarm calibration"""
    system = _build_system(cfg)
    seed, drawn = _resolve_seed(cfg, args.seed)
    if drawn:
        print(f"master_seed = {seed}  (drawn from entropy; pass --seed {seed} to reproduce)")
    rows = _checked(
        "calib.*",
        false_alarm_calibration,
        system,
        cfg["calib.alphas"],
        cfg["calib.n_sets"],
        n_bins=cfg["calib.n_bins"],
        master_seed=seed,
    )
    print(f"{'alpha':>10} {'n_sets':>7} {'n_bins':>9} {'rate':>12} {'dev_sigma':>10}")
    for row in rows:
        dev = (row["rate"] - row["alpha"]) / row["stderr"]
        print(
            f"{row['alpha']:>10g} {row['n_sets']:>7d} {row['n_bins']:>9d} "
            f"{row['rate']:>12.6g} {dev:>10.2f}"
        )
    if args.out:
        _write_csv(args.out, rows[0].keys(), [row.values() for row in rows])
        print(f"wrote {args.out}")
    return 0


# Each subcommand's handler; its docstring is the subcommand's help text.
_COMMANDS: dict[str, Callable[[dict[str, Any], argparse.Namespace], int]] = {
    "sweep": _run_sweep_command,
    "pdp": _run_pdp_command,
    "detect-calib": _run_calib_command,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsechan",
        description="Sparse delay-domain channel estimation simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {name: sub.add_parser(name, help=run.__doc__) for name, run in _COMMANDS.items()}
    for p in commands.values():
        p.add_argument("--config", metavar="PATH", default=None, help="config file")
        p.add_argument("--out", metavar="PATH", default=None, help="output CSV path")
        p.add_argument(
            "--set",
            metavar="KEY=VALUE",
            action="append",
            default=[],
            help="override one config key (repeatable)",
        )
    for name in ("sweep", "detect-calib"):
        commands[name].add_argument("--seed", type=int, default=None, help="master seed override")
    commands["sweep"].add_argument(
        "--threads",
        type=int,
        default=1,
        help="worker processes for blocks of trials (at least 1; at most one per block)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.out is not None and not os.path.isdir(os.path.dirname(args.out) or "."):
            raise ConfigError("--out", f"no directory to write {args.out!r} into")
        if args.out is not None and os.path.isdir(args.out):
            raise ConfigError("--out", f"{args.out!r} is a directory")
        cfg = _load_config(args.config, args.set)
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
