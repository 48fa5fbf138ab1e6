"""perfbench/tracing.py wraps cyclelift functions by module path (its
`cli.sweep_*` spans name the sweeps as `cyclelift.cli` binds them), so
`perfbench/run.py --trace 1` breaks when one of those names moves.
This installs its Tracer, runs one small `verify` job per traced sweep
and one README `cycle` command, and checks that each span counted its
call."""

import importlib.util
from pathlib import Path

from cyclelift import cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

JOBS = {
    "cli.sweep_rho": ["rho", "--delta", "-2", "--max", "20"],
    "cli.sweep_r_formula": ["r-formula", "--p", "3", "--delta", "-10",
                            "--count", "1", "--radius", "2"],
    "cli.sweep_chart_consistency": ["chart", "--p", "3", "--delta", "-10",
                                    "--count", "1", "--radius", "2"],
    "cli.sweep_local_compare": ["local-compare", "--p", "3", "--delta", "-10",
                                "--alpha-max", "0"],
}


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_sweep_spans_count_each_verify_job(capsys):
    tracer = load_tracing().Tracer()
    original = cli.sweep_rho
    try:
        tracer.install()
        codes = [cli.main(["verify", *argv]) for argv in JOBS.values()]
        spans = tracer.snapshot()["spans"]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [0] * len(JOBS)
    for name in JOBS:
        assert spans[name][0] == 1, name
    assert spans["cli.emit"][0] == len(JOBS)
    assert spans["cli.random_vector"][0] > 0
    assert cli.sweep_rho is original


def test_localcycles_spans_count_one_cycle_command(capsys):
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        code = cli.main(["cycle", "--p", "5", "--delta", "-2", "--sign", "minus",
                         "--b", "0+5d,5+0d"])
        spans = tracer.snapshot()["spans"]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    # The cycle command's writer, localcycles.cycle_json_chunks, is a
    # generator that cli.emit drains, so its time is in the emit span.
    for name in ("localcycles.unitary_cycle", "localcycles.path_words", "cli.emit"):
        assert spans[name][0] == 1, name
