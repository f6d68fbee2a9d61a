"""Tests for the command-line interface (reduced step counts)."""

import argparse
import hashlib

import pytest

from repro.cli import build_parser, main


class TestStaticCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "LUMI-G" in out
        assert "miniHPC" in out

    def test_backends(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out.split()
        assert {"cray", "nvml", "rapl", "rocm", "dummy"} <= set(out)

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_no_command(self):
        with pytest.raises(SystemExit):
            main([])


#: SHA-256 of each command's stdout at ``--steps 2``.  The ``figN``
#: commands and ``campaign run`` share one sweep table, so these pin both
#: paths to the same tables.
# fmt: off
GOLDEN_STDOUT = {
    "fig1 --systems CSCS-A100 LUMI-G --cards 8 16 --plot": "c57cb57e4a381c832f7104c8a1c094757c279056f175d6aab5a4e8665f89cfce",
    "fig2 --cards 8 --plot": "83c5bfff61de7b51fd1ceafbfcb8d2c65f50e6592de5f66f6bd3ba5186ce127f",
    "fig3 --cards 8 --top 3": "453e3f2792ac9ea828d178c3207ff842c246229b73a87ff3e0caf5b8879ccc8c",
    "fig4 --sides 200 300 --freqs 1410 1005 --plot": "d7180c9af7fc04e5f88212fc6d6817ddd98a070928df534a94ea60eedb812bd8",
    "fig5 --freqs 1410 1005 --plot": "0dafb5d6ec36a4acae1093b35993fe0c4b9f0e611146a1fca230668705c6708d",
    "campaign run fig1 --no-cache --quiet": "3d6498f49255df8ba66061f0e2f9c8ed5ef1f3e029141c020e42deef17051c3f",
    "campaign run fig4 --no-cache --quiet": "0e80d8dba0dcda416152565ae971e6c1048a84786e12592eb8e0aeef532174cd",
    "campaign run fig5 --no-cache --quiet": "90d86168737347e5b9b12400d788d13202c10660306e7ce26df2ba04ff347564",
    "campaign run weak-scaling --no-cache --quiet": "50f4d7db20507c7fbb7bfb719649596f22dde93de79a4e22e0eb448a39be27b3",
}
# fmt: on


class TestExperimentCommands:
    def test_fig1(self, capsys):
        code = main(
            ["fig1", "--systems", "CSCS-A100", "--cards", "8", "--steps", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "PMT/Slurm" in out
        assert "CSCS-A100" in out

    def test_fig2(self, capsys):
        assert main(["fig2", "--cards", "8", "--steps", "2"]) == 0
        out = capsys.readouterr().out
        assert "LUMI-Turb" in out
        assert "GPU" in out

    def test_fig3(self, capsys):
        assert main(["fig3", "--cards", "8", "--steps", "2", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "MomentumEnergy" in out

    def test_fig4(self, capsys):
        code = main(
            [
                "fig4", "--sides", "200", "--freqs", "1410", "1005",
                "--steps", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "200^3" in out
        assert "1.000" in out

    def test_fig5(self, capsys):
        code = main(["fig5", "--freqs", "1410", "1005", "--steps", "3"])
        assert code == 0
        assert "DomainDecompAndSync" in capsys.readouterr().out

    def test_report_writes_measurements(self, capsys, tmp_path):
        out_file = tmp_path / "run.json"
        code = main(
            [
                "report", "--system", "CSCS-A100", "--cards", "8",
                "--steps", "3", "--out", str(out_file),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ConsumedEnergy" in out
        assert "PMT/Slurm" in out
        assert out_file.exists()
        from repro.instrumentation import RunMeasurements

        run = RunMeasurements.read(out_file)
        assert run.system_name == "CSCS-A100"

    def test_tune(self, capsys):
        code = main(
            ["tune", "--freqs", "1410", "1005", "--steps", "5", "--side", "300"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "EDP vs baseline" in out

    def test_invalid_card_count_reports_error(self, capsys):
        code = main(["fig1", "--systems", "LUMI-G", "--cards", "6", "--steps", "1"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(GOLDEN_STDOUT))
    def test_stdout_is_unchanged(self, command, capsys):
        """A figure command and its campaign twin print pinned bytes."""
        assert main([*command.split(), "--steps", "2"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[command]

    def test_compare(self, capsys):
        code = main(
            [
                "compare", "--system-a", "CSCS-A100", "--system-b", "LUMI-G",
                "--cards", "8", "--steps", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Optimization targets" in out
        assert "MomentumEnergy" in out


def option_table(parser, path=()):
    """``{command path: [option row, ...]}`` for a parser and its subparsers.

    A row is ``(option strings, dest, default, choices, nargs, required,
    type name)``, in declaration order (the order ``--help`` lists them).
    """
    table = {}
    rows = []
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                table.update(option_table(child, path + (name,)))
            continue
        rows.append(
            (
                tuple(action.option_strings),
                action.dest,
                action.default,
                None if action.choices is None else tuple(action.choices),
                action.nargs,
                action.required,
                getattr(action.type, "__name__", None),
            )
        )
    table[" ".join(path)] = rows
    return table


class TestOptionSurface:
    def test_every_command_option_is_pinned(self):
        """Every subcommand's options, defaults and types, as declared.

        A change here changes what users can type; update the table
        only on purpose.
        """
        assert option_table(build_parser()) == CLI_OPTIONS

    def test_campaign_gc_takes_only_the_cache_dir(self, capsys, tmp_path):
        assert main(["campaign", "gc", "--cache-dir", str(tmp_path)]) == 0
        assert "0 temp files reaped" in capsys.readouterr().out
        with pytest.raises(SystemExit):
            main(["campaign", "gc", "--cache-dir", str(tmp_path), "--seed", "1"])


# fmt: off
CLI_OPTIONS = {
    "": [],
    "backends": [],
    "campaign": [],
    "campaign clean": [
        ((), "sweep", None, ("fig1", "fig4", "fig5", "weak-scaling"), "?", False, None),
        (("--cache-dir",), "cache_dir", None, None, None, False, None),
        (("--seed",), "seed", 0, None, None, False, "int"),
        (("--steps",), "steps", None, None, None, False, "int"),
        (("--sides",), "sides", [200, 300, 450], None, "+", False, "int"),
        (("--freqs",), "freqs", [1410.0, 1230.0, 1005.0], None, "+", False, "float"),
        (("--side",), "side", 450, None, None, False, "int"),
        (("--system",), "system", "CSCS-A100", ("CSCS-A100", "LUMI-G", "miniHPC"), None, False, None),
        (("--cards",), "cards", [8, 16, 24, 32, 40, 48], None, "+", False, "int"),
        (("--governor",), "governor", None, ("min-energy", "min-edp", "power-cap"), None, False, None),
    ],
    "campaign gc": [
        (("--cache-dir",), "cache_dir", None, None, None, False, None),
    ],
    "campaign run": [
        ((), "sweep", None, ("fig1", "fig4", "fig5", "weak-scaling"), None, True, None),
        (("--cache-dir",), "cache_dir", None, None, None, False, None),
        (("--seed",), "seed", 0, None, None, False, "int"),
        (("--steps",), "steps", None, None, None, False, "int"),
        (("--sides",), "sides", [200, 300, 450], None, "+", False, "int"),
        (("--freqs",), "freqs", [1410.0, 1230.0, 1005.0], None, "+", False, "float"),
        (("--side",), "side", 450, None, None, False, "int"),
        (("--system",), "system", "CSCS-A100", ("CSCS-A100", "LUMI-G", "miniHPC"), None, False, None),
        (("--cards",), "cards", [8, 16, 24, 32, 40, 48], None, "+", False, "int"),
        (("--governor",), "governor", None, ("min-energy", "min-edp", "power-cap"), None, False, None),
        (("--workers",), "workers", None, None, None, False, "int"),
        (("--no-cache",), "no_cache", False, None, 0, False, None),
        (("--quiet",), "quiet", False, None, 0, False, None),
        (("--audit",), "audit", False, None, 0, False, None),
        (("--audit-strict",), "audit_strict", False, None, 0, False, None),
    ],
    "campaign status": [
        ((), "sweep", None, ("fig1", "fig4", "fig5", "weak-scaling"), None, True, None),
        (("--cache-dir",), "cache_dir", None, None, None, False, None),
        (("--seed",), "seed", 0, None, None, False, "int"),
        (("--steps",), "steps", None, None, None, False, "int"),
        (("--sides",), "sides", [200, 300, 450], None, "+", False, "int"),
        (("--freqs",), "freqs", [1410.0, 1230.0, 1005.0], None, "+", False, "float"),
        (("--side",), "side", 450, None, None, False, "int"),
        (("--system",), "system", "CSCS-A100", ("CSCS-A100", "LUMI-G", "miniHPC"), None, False, None),
        (("--cards",), "cards", [8, 16, 24, 32, 40, 48], None, "+", False, "int"),
        (("--governor",), "governor", None, ("min-energy", "min-edp", "power-cap"), None, False, None),
    ],
    "campaign work": [
        ((), "sweep", None, ("fig1", "fig4", "fig5", "weak-scaling"), None, True, None),
        (("--cache-dir",), "cache_dir", None, None, None, False, None),
        (("--seed",), "seed", 0, None, None, False, "int"),
        (("--steps",), "steps", None, None, None, False, "int"),
        (("--sides",), "sides", [200, 300, 450], None, "+", False, "int"),
        (("--freqs",), "freqs", [1410.0, 1230.0, 1005.0], None, "+", False, "float"),
        (("--side",), "side", 450, None, None, False, "int"),
        (("--system",), "system", "CSCS-A100", ("CSCS-A100", "LUMI-G", "miniHPC"), None, False, None),
        (("--cards",), "cards", [8, 16, 24, 32, 40, 48], None, "+", False, "int"),
        (("--governor",), "governor", None, ("min-energy", "min-edp", "power-cap"), None, False, None),
        (("--profile-systems",), "profile_systems", None, ("CSCS-A100", "LUMI-G", "miniHPC"), "*", False, None),
    ],
    "compare": [
        (("--system-a",), "system_a", "CSCS-A100", ("CSCS-A100", "LUMI-G", "miniHPC"), None, False, None),
        (("--system-b",), "system_b", "LUMI-G", ("CSCS-A100", "LUMI-G", "miniHPC"), None, False, None),
        (("--case",), "case", "Subsonic Turbulence", ("Evrard Collapse", "Subsonic Turbulence"), None, False, None),
        (("--cards",), "cards", 8, None, None, False, "int"),
        (("--counter",), "counter", "gpu", ("gpu", "cpu", "node"), None, False, None),
        (("--steps",), "steps", 100, None, None, False, "int"),
    ],
    "export-trace": [
        (("--system",), "system", "CSCS-A100", ("CSCS-A100", "LUMI-G", "miniHPC"), None, False, None),
        (("--case",), "case", "Sedov Blast", ("Evrard Collapse", "Sedov Blast", "Subsonic Turbulence"), None, False, None),
        (("--cards",), "cards", 8, None, None, False, "int"),
        (("--interval",), "interval", None, None, None, False, "float"),
        (("--out-dir",), "out_dir", "artifacts", None, None, False, None),
        (("--steps",), "steps", 100, None, None, False, "int"),
    ],
    "fig1": [
        (("--plot",), "plot", False, None, 0, False, None),
        (("--systems",), "systems", ["LUMI-G", "CSCS-A100"], ("CSCS-A100", "LUMI-G", "miniHPC"), "+", False, None),
        (("--cards",), "cards", [8, 16, 24, 32, 40, 48], None, "+", False, "int"),
        (("--steps",), "steps", 100, None, None, False, "int"),
    ],
    "fig2": [
        (("--plot",), "plot", False, None, 0, False, None),
        (("--cards",), "cards", 48, None, None, False, "int"),
        (("--steps",), "steps", 100, None, None, False, "int"),
    ],
    "fig3": [
        (("--cards",), "cards", 48, None, None, False, "int"),
        (("--top",), "top", 6, None, None, False, "int"),
        (("--steps",), "steps", 100, None, None, False, "int"),
    ],
    "fig4": [
        (("--plot",), "plot", False, None, 0, False, None),
        (("--sides",), "sides", [200, 300, 450], None, "+", False, "int"),
        (("--freqs",), "freqs", [1410.0, 1230.0, 1005.0], None, "+", False, "float"),
        (("--steps",), "steps", 100, None, None, False, "int"),
    ],
    "fig5": [
        (("--plot",), "plot", False, None, 0, False, None),
        (("--freqs",), "freqs", [1410.0, 1230.0, 1005.0], None, "+", False, "float"),
        (("--steps",), "steps", 100, None, None, False, "int"),
    ],
    "publish": [
        (("--url",), "url", None, None, None, True, None),
        (("--tenant",), "tenant", "default", None, None, False, None),
        (("--backpressure",), "backpressure", "wait", ("wait", "shed"), None, False, None),
        (("--batch-ticks",), "batch_ticks", 32, None, None, False, "int"),
        (("--system",), "system", "CSCS-A100", ("CSCS-A100", "LUMI-G", "miniHPC"), None, False, None),
        (("--case",), "case", "Sedov Blast", ("Evrard Collapse", "Sedov Blast", "Subsonic Turbulence"), None, False, None),
        (("--cards",), "cards", 8, None, None, False, "int"),
        (("--interval",), "interval", None, None, None, False, "float"),
        (("--steps",), "steps", 20, None, None, False, "int"),
    ],
    "report": [
        (("--system",), "system", "CSCS-A100", ("CSCS-A100", "LUMI-G", "miniHPC"), None, False, None),
        (("--case",), "case", "Subsonic Turbulence", ("Evrard Collapse", "Subsonic Turbulence"), None, False, None),
        (("--cards",), "cards", 8, None, None, False, "int"),
        (("--out",), "out", None, None, None, False, None),
        (("--inject-fault",), "inject_fault", None, ("freeze", "dropout", "glitch"), None, False, None),
        (("--fault-target",), "fault_target", "gpu0", None, None, False, None),
        (("--no-resilient",), "no_resilient", False, None, 0, False, None),
        (("--timeseries",), "timeseries", False, None, 0, False, None),
        (("--artifacts-dir",), "artifacts_dir", "artifacts", None, None, False, None),
        (("--governor",), "governor", None, ("min-energy", "min-edp", "power-cap"), None, False, None),
        (("--power-cap",), "power_cap", None, None, None, False, "float"),
        (("--audit",), "audit", False, None, 0, False, None),
        (("--audit-strict",), "audit_strict", False, None, 0, False, None),
        (("--steps",), "steps", 100, None, None, False, "int"),
    ],
    "serve": [
        (("--host",), "host", "127.0.0.1", None, None, False, None),
        (("--port",), "port", 0, None, None, False, "int"),
        (("--http-port",), "http_port", 0, None, None, False, "int"),
        (("--max-pending",), "max_pending", 262144, None, None, False, "int"),
    ],
    "table1": [],
    "tune": [
        (("--freqs",), "freqs", [1410.0, 1230.0, 1005.0], None, "+", False, "float"),
        (("--side",), "side", 450, None, None, False, "int"),
        (("--objective",), "objective", "edp", ("edp", "energy"), None, False, None),
        (("--max-slowdown",), "max_slowdown", None, None, None, False, "float"),
        (("--steps",), "steps", 40, None, None, False, "int"),
    ],
    "watch": [
        (("--system",), "system", "CSCS-A100", ("CSCS-A100", "LUMI-G", "miniHPC"), None, False, None),
        (("--case",), "case", "Sedov Blast", ("Evrard Collapse", "Sedov Blast", "Subsonic Turbulence"), None, False, None),
        (("--cards",), "cards", 8, None, None, False, "int"),
        (("--interval",), "interval", None, None, None, False, "float"),
        (("--every",), "every", 50, None, None, False, "int"),
        (("--width",), "width", 48, None, None, False, "int"),
        (("--url",), "url", None, None, None, False, None),
        (("--tenant",), "tenant", None, None, None, False, None),
        (("--frames",), "frames", None, None, None, False, "int"),
        (("--steps",), "steps", 20, None, None, False, "int"),
    ],
}
# fmt: on
