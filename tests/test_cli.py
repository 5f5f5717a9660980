"""Tests for the command-line experiment runner."""

import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.harness.cli import build_parser, main


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


def test_import_loads_neither_numpy_nor_scipy():
    """Importing the package and the CLI loads neither numpy nor scipy,
    and the package re-exports the Section 5 proof entry points."""
    code = (
        "import sys, repro, repro.harness.cli, repro.security.solver\n"
        "heavy = sorted(m for m in ('numpy', 'scipy') if m in sys.modules)\n"
        "assert not heavy, heavy\n"
        "assert repro.prove_safety is repro.security.solver.prove_safety\n"
        "names = {}\n"
        "exec('from repro import *', names)\n"
        "assert names['simulate_optimal_attack'] is repro.simulate_optimal_attack\n"
    )
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_table1_command(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "NBL" in out and "8192" in out


def test_security_command(capsys):
    assert main(["security"]) == 0
    out = capsys.readouterr().out
    assert "SAFE" in out and "UNSAFE" not in out


def test_table4_command(capsys):
    assert main(["table4"]) == 0
    out = capsys.readouterr().out
    assert "blockhammer" in out and "graphene" in out


def test_table8_command_with_subset(capsys):
    code = main(
        [
            "table8",
            "--scale", "512",
            "--instructions", "8000",
            "--warmup-us", "5",
            "--apps", "429.mcf",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "429.mcf" in out


def test_rhli_command_small(capsys):
    code = main(["rhli", "--scale", "512", "--instructions", "8000", "--warmup-us", "5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "blockhammer-observe" in out


def test_chansweep_command_small(capsys):
    code = main(
        [
            "chansweep",
            "--scale", "512",
            "--instructions", "2000",
            "--warmup-us", "2",
            "--mixes", "1",
            "--channel-sweep", "1,2",
            "--mechanisms", "blockhammer",
            "--pinned",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    # Summary rows for both channel counts and both layouts, plus the
    # per-channel attribution table.
    assert "interleaved" in out and "pinned" in out
    assert "attack-000-pinned" in out
    assert "atk RHLI" in out


def test_chansweep_rejects_bad_channel_list():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["chansweep", "--channel-sweep", "1,zero"])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["chansweep", "--channel-sweep", "0"])


def test_execution_keywords_from_flags():
    """--workers/--retries/--job-timeout/--on-error/--progress build the
    one set of run_jobs keywords every sweep command forwards."""
    from repro.harness.cli import _execution
    from repro.harness.parallel import SweepReport
    from repro.harness.retry import ExecPolicy

    report = SweepReport()
    args = build_parser().parse_args(
        [
            "fig4",
            "--workers", "3",
            "--retries", "4",
            "--job-timeout", "30",
            "--on-error", "skip",
            "--progress",
        ]
    )
    execution = _execution(args, report)
    assert execution["policy"] == ExecPolicy(
        attempts=5, job_timeout_s=30.0, on_error="skip"
    )
    assert execution["workers"] == 3
    assert execution["progress"] is True
    assert execution["report"] is report
    assert execution["cache"] is None  # no cache flag given
    defaults = _execution(build_parser().parse_args(["fig4"]), report)
    assert defaults["policy"] == ExecPolicy()
    assert defaults["workers"] is None and defaults["progress"] is False


def test_cli_leaves_process_environment_unchanged(capsys):
    """Execution flags reach the sweep as run_jobs keywords, never
    through the process environment."""
    import os

    before = dict(os.environ)
    code = main(
        [
            "fig4",
            "--scale", "512",
            "--instructions", "2000",
            "--warmup-us", "2",
            "--apps", "403.gcc",
            "--mechanisms", "none",
            "--retries", "4",
            "--on-error", "skip",
            "--progress",
        ]
    )
    assert code == 0
    capsys.readouterr()
    assert dict(os.environ) == before


def test_fig4_honours_mechanisms(tmp_path, capsys):
    """fig4 --mechanisms sweeps only the named mechanisms: one app and
    one mechanism is the baseline plus one job."""
    import json

    path = tmp_path / "report.json"
    code = main(
        [
            "fig4",
            "--scale", "512",
            "--instructions", "2000",
            "--warmup-us", "2",
            "--apps", "403.gcc",
            "--mechanisms", "para",
            "--report-json", str(path),
        ]
    )
    assert code == 0
    assert json.loads(path.read_text())["total"] == 2
    out = capsys.readouterr().out
    assert "para" in out and "blockhammer" not in out


@pytest.mark.parametrize(
    "argv",
    [
        ["fig4", "--retries", "-1"],
        ["fig4", "--job-timeout", "0"],
        ["fig4", "--on-error", "explode"],
        ["fig5", "--workers", "0"],
        ["fig5", "--workers", "-3"],
        ["fig5", "--mixes", "-1"],
        ["rhli", "--mixes", "0"],
    ],
    ids=lambda argv: "=".join(argv[1:]).lstrip("-"),
)
def test_exec_policy_flags_validate(argv):
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)


@pytest.mark.parametrize(
    "argv", [["fig5", "--channels", "0"], ["table1", "--channels", "-3"]]
)
def test_channels_flag_rejects_non_positive_counts(argv, capsys):
    """argparse rejects the count before any command runs."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--channels" in capsys.readouterr().err


def test_progress_prints_sweep_report(capsys):
    code = main(
        [
            "fig4",
            "--scale", "512",
            "--instructions", "2000",
            "--warmup-us", "2",
            "--apps", "403.gcc",
            "--mechanisms", "none",
            "--progress",
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "sweep:" in captured.err
    assert "0 failed" in captured.err
    assert "single:403.gcc" in captured.err  # per-job progress lines
    assert "mechanism" in captured.out  # the figure table still prints


def test_trace_command_writes_artifacts(tmp_path, capsys):
    """The trace subcommand runs one attack-mix scenario and writes a
    valid Perfetto trace plus the epoch-metrics CSV."""
    import csv
    import json

    from repro.obs.metrics import FIELDS

    trace_path = tmp_path / "trace.json"
    metrics_path = tmp_path / "metrics.csv"
    code = main(
        [
            "trace",
            "--scale", "4096",
            "--instructions", "6000",
            "--warmup-us", "5",
            "--metrics-epoch-ns", "5000",
            "--trace-out", str(trace_path),
            "--metrics-out", str(metrics_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "blockhammer" in out and "trace events" in out
    document = json.loads(trace_path.read_text())
    assert document["displayTimeUnit"] == "ns"
    names = {e.get("name") for e in document["traceEvents"]}
    assert "ACT" in names and "measure_start" in names
    with open(metrics_path) as handle:
        rows = list(csv.DictReader(handle))
    assert rows and tuple(rows[0]) == FIELDS


def test_trace_command_is_a_cached_sweep(tmp_path, capsys):
    """`trace` is a one-job sweep: it honours --cache-dir and
    --report-json, and a warm rerun executes nothing and writes the same
    table, trace and metrics bytes."""
    import json

    trace_path = tmp_path / "trace.json"
    metrics_path = tmp_path / "metrics.csv"
    outputs = {}
    for run in ("cold", "warm"):
        report = tmp_path / f"{run}.json"
        code = main(
            [
                "trace",
                "--scale", "4096",
                "--instructions", "6000",
                "--warmup-us", "5",
                "--metrics-epoch-ns", "5000",
                "--cache-dir", str(tmp_path / "cache"),
                "--report-json", str(report),
                "--trace-out", str(trace_path),
                "--metrics-out", str(metrics_path),
            ]
        )
        assert code == 0
        outputs[run] = (
            json.loads(report.read_text())["executed"],
            capsys.readouterr().out,
            trace_path.read_bytes(),
            metrics_path.read_bytes(),
        )
    assert outputs["cold"][0] == 1 and outputs["warm"][0] == 0
    assert outputs["cold"][1:] == outputs["warm"][1:]


def test_trace_command_ring_limit(tmp_path, capsys):
    """A tiny --trace-limit drops events and the summary reports it."""
    code = main(
        [
            "trace",
            "--scale", "4096",
            "--instructions", "4000",
            "--warmup-us", "5",
            "--trace-limit", "50",
            "--trace-out", str(tmp_path / "t.json"),
            "--metrics-out", str(tmp_path / "m.csv"),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    dropped = int(next(l for l in out.splitlines() if "dropped" in l).split()[-1])
    assert dropped > 0


def test_report_json_writes_sweep_artifact(tmp_path, capsys):
    import json

    path = tmp_path / "report.json"
    code = main(
        [
            "fig5",
            "--mixes", "1",
            "--mechanisms", "none",
            "--scale", "2048",
            "--instructions", "2000",
            "--warmup-us", "2",
            "--report-json", str(path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "none" in out and "blockhammer" not in out  # mechanisms filter
    document = json.loads(path.read_text())
    assert document["total"] > 0 and document["executed"] == document["total"]
    assert len(document["jobs"]) == document["total"]
    assert document["aggregate"]["executed_events"] > 0


def test_report_json_without_sweep_warns(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main(["table1", "--report-json", str(path)])
    assert code == 0
    assert not path.exists()
    assert "no sweep ran" in capsys.readouterr().err


def test_stale_report_never_leaks_into_next_command(tmp_path, capsys):
    """Each command observes its own sweep report: a non-sweep command
    run after a sweep in the same process has nothing to publish."""
    assert main(
        [
            "fig5",
            "--mixes", "1",
            "--mechanisms", "none",
            "--scale", "2048",
            "--instructions", "2000",
            "--warmup-us", "2",
        ]
    ) == 0
    capsys.readouterr()
    path = tmp_path / "stale.json"
    assert main(["table1", "--report-json", str(path)]) == 0
    assert not path.exists()  # no sweep ran in this command
