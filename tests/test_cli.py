"""Command line front end: config parsing, subcommands, exit codes."""

import concurrent.futures
import dataclasses
import re
import subprocess
import sys
from pathlib import Path

import pytest

from sparsechan import cli
from sparsechan.cli import ConfigError, main, parse_config_text
from sparsechan.evaluation import SweepConfig

ROOT = Path(__file__).resolve().parent.parent

TINY = [
    "--set", "system.d=48",
    "--set", "system.n_pilots=16",
    "--set", "sweep.snr_db=10",
    "--set", "sweep.n_trials=2",
    "--set", "sweep.n_prior_sets=2",
]


# ------------------------------------------------------------- config parsing


def test_parse_config_text_basics():
    text = """
    # a comment
    system.d = 600   # trailing comment
    sweep.snr_db = 0,5,10

    sweep.estimators= dft, li
    """
    out = parse_config_text(text)
    assert out == {
        "system.d": "600",
        "sweep.snr_db": "0,5,10",
        "sweep.estimators": "dft, li",
    }


def test_parse_config_text_rejects_bad_lines():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("just words")
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("a.b = 1\n= naked value")


def test_unknown_key_is_rejected(capsys):
    assert main(["pdp", "--set", "bogus.key=1"]) == 2
    assert "bogus.key" in capsys.readouterr().err


def test_bad_override_shape_and_type(capsys, tmp_path):
    assert main(["sweep", "--set", "nonsense"]) == 2
    assert "key=value" in capsys.readouterr().err
    assert main(["sweep", "--set", "sweep.n_trials=abc"]) == 2
    assert "expected an integer" in capsys.readouterr().err
    assert main(["sweep", "--set", "omp.max_iters=0"]) == 2
    assert "omp" in capsys.readouterr().err
    assert main(["sweep", "--set", "sweep.snr_db=10,10"]) == 2
    assert "SNR points must be distinct" in capsys.readouterr().err
    assert main(["sweep", *TINY, "--set", "sweep.estimators="]) == 2
    assert "need at least one estimator" in capsys.readouterr().err
    # every key given is parsed, even one the subcommand does not read
    assert main(["pdp", "--set", "sweep.n_trials=abc"]) == 2
    assert "sweep.n_trials: expected an integer, got 'abc'" in capsys.readouterr().err
    nan_tap, inf_tap = tmp_path / "nan_tap.csv", tmp_path / "inf_tap.csv"
    nan_tap.write_text("delay_ns,power_db\n0,0\n500,nan\n")
    inf_tap.write_text("delay_ns,power_db\n0,0\n500,inf\n")
    # values the library resolves, checked before any trial runs
    for argv, message in [
        (["sweep", *TINY, "--set", "detect.alpha=2"], "alpha must lie strictly inside"),
        (["sweep", *TINY, "--set", "channel.cluster_rms_us=0"], "cluster RMS width"),
        (["pdp", "--set", "system.subcarrier_spacing_hz=1e6"],
         "tap at 1600 ns falls outside the 600-bin grid"),
        (["pdp", "--set", "channel.cluster_rms_us=0"], "cluster RMS width"),
        # a negative seed is rejected by name, not by numpy mid-run
        (["sweep", *TINY, "--seed", "-1"],
         "sweep.*: master_seed must be non-negative, got -1"),
        (["sweep", *TINY, "--set", "sweep.master_seed=-3"],
         "master_seed must be non-negative, got -3"),
        (["detect-calib", "--seed", "-5"],
         "calib.*: master_seed must be non-negative, got -5"),
        # a repeated alpha would be counted twice into one row
        (["detect-calib", "--set", "calib.alphas=0.05,0.05"],
         "calib.*: alphas must be distinct"),
        (["detect-calib", "--set", "calib.n_sets=1,1"],
         "calib.*: set counts must be distinct"),
        # NaN fails the positivity checks
        (["pdp", "--set", "channel.cluster_rms_us=nan"],
         "channel.*: cluster RMS width must be positive, got nan"),
        (["sweep", *TINY, "--set", "channel.cluster_rms_us=nan"],
         "cluster RMS width must be positive, got nan"),
        (["pdp", "--set", "system.subcarrier_spacing_hz=nan"],
         "system.*: subcarrier spacing must be positive, got nan"),
        # an infinite spacing is blamed on the system, not on the profile
        (["pdp", "--set", "system.subcarrier_spacing_hz=inf"],
         "system.*: total bandwidth must be finite"),
        (["sweep", *TINY, "--set", "system.subcarrier_spacing_hz=inf"],
         "system.*: total bandwidth must be finite"),
        # a non-finite tap power is blamed on the profile, not on the estimators
        (["sweep", *TINY, "--set", "sweep.estimators=dft,li", "--set",
          f"channel.profile={nan_tap}", "--seed", "1"],
         "channel.profile: cannot load"),
        (["sweep", *TINY, "--set", "sweep.estimators=dft,li", "--set",
          f"channel.profile={inf_tap}", "--seed", "1"],
         "taps must be finite, got inf dB at 5e-07 s"),
        # a finite but huge spacing names both widths
        (["pdp", "--set", "system.subcarrier_spacing_hz=1e300"],
         "cluster RMS width 1e-07 s too large for this grid (bin_width_s 1.66667e-303 s)"),
    ]:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err, err


@pytest.mark.parametrize(
    "preset",
    sorted((ROOT / "configs").glob("*.cfg")),
    ids=lambda p: p.name,
)
def test_shipped_presets_load(preset):
    assert main(["pdp", "--config", str(preset)]) == 0
    # the preset also runs, cut short, through the command its header names
    command = re.search(r"sparsechan (\S+) --config", preset.read_text()).group(1)
    if command == "detect-calib":
        cut = ["--set", "calib.n_bins=600"]
    else:
        cut = ["--set", "sweep.n_trials=1", "--set", "sweep.snr_db=10"]
    assert main([command, "--config", str(preset), *cut]) == 0


def test_readme_key_table_matches_cli():
    text = (ROOT / "README.md").read_text()
    table = text.split("### Config keys", 1)[1].split("\n\n", 2)[1]
    first_column = [line.split("|")[1] for line in table.splitlines()[2:]]
    keys = [k for cell in first_column for k in re.findall(r"`([^`]+)`", cell)]
    assert sorted(keys) == sorted(cli._KEYS)


@pytest.mark.parametrize(
    "argv",
    [
        ["pdp", "--seed", "1"],
        ["pdp", "--threads", "2"],
        ["detect-calib", "--threads", "2"],
        ["capacity"],
    ],
    ids=" ".join,
)
def test_subcommands_take_only_the_flags_they_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "sparsechan" in capsys.readouterr().err


def test_unwritable_out_is_rejected_before_any_work(monkeypatch, capsys, tmp_path):
    def no_work(*args, **kwargs):
        raise AssertionError("ran work for an --out that cannot be written")

    monkeypatch.setattr(cli, "run_sweep", no_work)
    monkeypatch.setattr(cli, "false_alarm_calibration", no_work)
    missing = tmp_path / "no" / "x.csv"
    for argv, message in [
        (["sweep", *TINY, "--seed", "1", "--out", str(missing)],
         f"no directory to write {str(missing)!r} into"),
        (["detect-calib", "--seed", "1", "--out", str(missing)], "no directory to write"),
        (["detect-calib", "--seed", "1", "--out", str(tmp_path)],
         f"{str(tmp_path)!r} is a directory"),
        (["pdp", "--out", str(tmp_path)], "is a directory"),
    ]:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("config error: --out: ") and message in err, err


def test_missing_config_file(capsys):
    assert main(["pdp", "--config", "/no/such/file.cfg"]) == 2
    assert "cannot read config file" in capsys.readouterr().err


def test_config_file_that_is_not_utf8_is_a_config_error(capsys, tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"system.d = 600\n\xff\n")
    assert main(["pdp", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: cannot read config file: "), err


# ------------------------------------------------------------------------ pdp


def test_pdp_reports_default_profile(capsys, tmp_path):
    out = tmp_path / "pdp.csv"
    assert main(["pdp", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "taps: 9" in text
    assert "total_power_linear: 6.39993" in text
    assert "rms_delay_spread_us: 0.990938" in text
    assert "eta95_taps: 8" in text
    assert "grid_bins: 600" in text
    assert "bin_width_ns: 111.111" in text
    assert "eta95_bins: 12" in text
    data = out.read_bytes()
    assert b"\r" not in data  # LF line ends, as every CSV the CLI writes
    lines = data.decode().split("\n")
    assert lines[0] == "bin_index,delay_ns,variance_linear"
    assert lines[-1] == "" and len(lines) == 1 + 600 + 1
    rows = [line.split(",") for line in lines[1:-1]]
    assert rows[0][:2] == ["0", "0"] and rows[1][:2] == ["1", "111.111"]
    assert all(f"{float(v):.12g}" == v for _, _, v in rows)


def test_pdp_loads_profile_csv(capsys, tmp_path):
    prof = tmp_path / "two_taps.csv"
    prof.write_text("delay_ns,power_db\n0,0\n500,-3\n")
    assert main(["pdp", "--set", f"channel.profile={prof}"]) == 0
    assert "taps: 2" in capsys.readouterr().out
    assert main(["pdp", "--set", "channel.profile=/no/such.csv"]) == 2
    assert "channel.profile" in capsys.readouterr().err
    short = tmp_path / "short_row.csv"
    short.write_text("delay_ns,power_db\n0,0\n500\n")
    assert main(["pdp", "--set", f"channel.profile={short}"]) == 2
    assert "channel.profile: cannot load" in capsys.readouterr().err


# ---------------------------------------------------------------------- sweep


def test_sweep_writes_csv_and_respects_seed(capsys, tmp_path):
    out = tmp_path / "rows.csv"
    argv = ["sweep", *TINY, "--set", "sweep.estimators=dft,li",
            "--seed", "9", "--out", str(out)]
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert "dft" in text and f"wrote {out}" in text
    assert "drawn from entropy" not in text
    first = out.read_text()
    lines = first.strip().split("\n")
    assert lines[0].startswith("estimator,snr_db,nmse_db")
    assert len(lines) == 1 + 2
    assert main(argv) == 0
    assert out.read_text() == first  # same seed, same bytes


def test_sweep_config_file_with_override(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "system.d = 48\nsystem.n_pilots = 16\nsweep.snr_db = 10\n"
        "sweep.n_trials = 2\nsweep.n_prior_sets = 2\n"
        "sweep.estimators = dft\nsweep.master_seed = 7\n"
    )
    out = tmp_path / "rows.csv"
    argv = ["sweep", "--config", str(cfg), "--set", "sweep.n_trials=3",
            "--out", str(out)]
    assert main(argv) == 0
    assert "drawn from entropy" not in capsys.readouterr().out
    row = out.read_text().strip().split("\n")[1].split(",")
    assert row[4] == "3"  # override beat the file
    assert row[6] == "7"  # configured seed used


def test_cli_passes_every_sweep_setting(monkeypatch):
    # A SweepConfig field the CLI never sets would be a setting nothing reaches.
    passed = []

    def recorder(**kwargs):
        passed.append(set(kwargs))
        return SweepConfig(**kwargs)

    monkeypatch.setattr(cli, "SweepConfig", recorder)
    assert main(["sweep", *TINY, "--set", "sweep.estimators=dft", "--seed", "1"]) == 0
    assert passed == [{f.name for f in dataclasses.fields(SweepConfig) if f.init}]


def test_threads_start_one_worker_per_block_and_reject_below_one(monkeypatch, capsys):
    sizes = []

    class RecordingPool:  # records the pool size and maps in this process
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    args = ["sweep", *TINY, "--set", "sweep.snr_db=10,20", "--set", "sweep.estimators=dft"]
    assert main([*args, "--seed", "1", "--threads", "500"]) == 0
    assert sizes == [2]  # two SNR points of two trials: two blocks
    capsys.readouterr()
    for bad in ("0", "-3"):
        assert main([*args, "--threads", bad]) == 2
        assert f"config error: --threads: need at least 1 worker process, got {bad}" in (
            capsys.readouterr().err
        )
    assert sizes == [2]


def test_sweep_draws_seed_from_entropy_when_unset(capsys):
    argv = ["sweep", *TINY, "--set", "sweep.estimators=dft"]
    assert main(argv) == 0
    assert "drawn from entropy; pass --seed" in capsys.readouterr().out


def test_sweep_exit_one_when_estimator_keeps_failing(capsys):
    argv = [
        "sweep",
        "--set", "system.d=128",
        "--set", "system.n_pilots=4",
        "--set", "sweep.snr_db=10",
        "--set", "sweep.n_trials=2",
        "--set", "sweep.n_prior_sets=2",
        "--set", "sweep.estimators=rrls",
        "--set", "channel.cluster_rms_us=0.001",
        "--seed", "5",
    ]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "rrls" in err and "failed on 2 of 2 trials" in err


# --------------------------------------------------------------- detect-calib


def test_detect_calib_command(capsys, tmp_path):
    out = tmp_path / "calib.csv"
    argv = [
        "detect-calib",
        "--set", "system.d=32",
        "--set", "system.n_pilots=8",
        "--set", "calib.alphas=0.1",
        "--set", "calib.n_sets=1,2",
        "--set", "calib.n_bins=640",
        "--seed", "4",
        "--out", str(out),
    ]
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert "alpha" in text and "rate" in text
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "alpha,n_sets,n_bins,false_alarms,rate,stderr"
    assert len(lines) == 1 + 2
    assert main(["detect-calib", "--set", "calib.n_bins=4"]) == 2
    assert "calib" in capsys.readouterr().err


# -------------------------------------------------------------- entry point


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "sparsechan.cli", "pdp"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "taps: 9" in proc.stdout
