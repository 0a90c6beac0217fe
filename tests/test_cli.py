"""Tests for the command-line interface and its exit-code contract."""

import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from hnncert.cli import (
    EXIT_CERTIFIED,
    EXIT_INCONCLUSIVE,
    EXIT_OBSTRUCTION,
    EXIT_USAGE,
    main,
)

GREEN = {
    "rank": 2,
    "endos": [["aab", "bba"], ["abb", "baa"]],
    "caps": {"audit_loops": 5, "audit_loop_length": 6},
}
BS = {"rank": 1, "endos": [["aa"]]}
IDENTICAL = {"rank": 2, "endos": [["aab", "bba"], ["aab", "bba"]]}
STUBBORN = {"rank": 2, "endos": [["ab", "ba"]], "caps": {"pullback": 2}}
ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"


def installed_distribution():
    """The installed hnncert distribution, or None when it is not installed."""
    try:
        return importlib.metadata.distribution("hnncert")
    except importlib.metadata.PackageNotFoundError:
        return None


def write(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestExitCodes:
    def test_certified_is_zero(self, tmp_path, capsysbinary):
        assert main(["--input", write(tmp_path, GREEN)]) == EXIT_CERTIFIED

    def test_bs_obstruction_is_two(self, tmp_path, capsysbinary):
        assert main(["--input", write(tmp_path, BS)]) == EXIT_OBSTRUCTION

    def test_not_disjoint_is_three(self, tmp_path, capsysbinary):
        # a budget verdict, not an obstruction: images shrink with the power,
        # so a larger cap could still separate them
        assert main(["--input", write(tmp_path, IDENTICAL)]) == EXIT_INCONCLUSIVE

    def test_inconclusive_is_three(self, tmp_path, capsysbinary):
        assert main(["--input", write(tmp_path, STUBBORN)]) == EXIT_INCONCLUSIVE

    def test_missing_file_is_one(self, tmp_path, capsys):
        code = main(["--input", str(tmp_path / "absent.json")])
        assert code == EXIT_USAGE
        assert "cannot read" in capsys.readouterr().err

    def test_parse_error_is_one(self, tmp_path, capsys):
        path = write(tmp_path, {"rank": 2, "endos": [["ab", "ba"]], "bogus": 1})
        assert main(["--input", path]) == EXIT_USAGE
        assert "bogus" in capsys.readouterr().err

    def test_rank_beyond_letter_syntax_is_one(self, tmp_path, capsys):
        # integer-list images parse at any rank, but a report spells words
        # in letters a-z
        rank = 27
        config = {"rank": rank, "endos": [[[i, i] for i in range(1, rank + 1)]]}
        assert main(["--input", write(tmp_path, config)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "rank" in err
        assert "Traceback" not in err

    def test_bad_flag_is_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--frobnicate"])
        assert exc.value.code == EXIT_USAGE

    def test_missing_required_input_is_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == EXIT_USAGE


class TestReports:
    def test_json_to_stdout(self, tmp_path, capsysbinary):
        main(["--input", write(tmp_path, BS)])
        payload = json.loads(capsysbinary.readouterr().out)
        assert payload["verdict"] == "obstruction_BS"
        assert payload["witness"]["loop"] == "a"
        assert payload["witness"]["degree"] == 2

    def test_output_file(self, tmp_path, capsysbinary):
        out = tmp_path / "report.json"
        main(["--input", write(tmp_path, GREEN), "--output", str(out)])
        payload = json.loads(out.read_bytes())
        assert payload["verdict"] == "certified_hyperbolic"
        assert payload["N"] == 2
        assert capsysbinary.readouterr().out == b""

    def test_text_format(self, tmp_path, capsysbinary):
        main(["--input", write(tmp_path, BS), "--format", "text"])
        text = capsysbinary.readouterr().out.decode()
        assert text.startswith("verdict: obstruction_BS")
        assert "loop=a" in text

    def test_unwritable_output_is_one(self, tmp_path, capsys):
        code = main(
            [
                "--input",
                write(tmp_path, BS),
                "--output",
                str(tmp_path / "no" / "dir" / "r.json"),
            ]
        )
        assert code == EXIT_USAGE
        assert "cannot write" in capsys.readouterr().err


class TestFlags:
    def report_for(self, tmp_path, capsysbinary, args):
        main(args)
        return json.loads(capsysbinary.readouterr().out)

    def test_cap_overrides_reach_config(self, tmp_path, capsysbinary):
        path = write(tmp_path, STUBBORN)
        payload = self.report_for(
            tmp_path,
            capsysbinary,
            [
                "--input", path,
                "--pullback-cap", "3",
                "--disjointness-cap", "5",
                "--expansion-cap", "7",
            ],
        )
        caps = payload["evidence"]["config"]["caps"]
        assert caps["pullback"] == 3
        assert caps["disjointness"] == 5
        assert caps["expansion"] == 7

    def test_seed_override_changes_digest(self, tmp_path, capsysbinary):
        path = write(tmp_path, BS)
        base = self.report_for(tmp_path, capsysbinary, ["--input", path])
        reseeded = self.report_for(
            tmp_path, capsysbinary, ["--input", path, "--seed", "9"]
        )
        assert base["config_digest"] != reseeded["config_digest"]
        assert base["verdict"] == reseeded["verdict"]

    def test_invalid_cap_override_is_one(self, tmp_path, capsys):
        code = main(["--input", write(tmp_path, BS), "--pullback-cap", "0"])
        assert code == EXIT_USAGE

    def test_diagnostics_flag(self, tmp_path, capsysbinary):
        payload = self.report_for(
            tmp_path,
            capsysbinary,
            ["--input", write(tmp_path, GREEN), "--diagnostics"],
        )
        assert "diagnostics" in payload["evidence"]

    def test_lenient_flag(self, tmp_path, capsysbinary):
        path = write(tmp_path, {**BS, "bogus": 1})
        with pytest.warns(UserWarning, match="bogus"):
            code = main(["--input", path, "--lenient"])
        assert code == EXIT_OBSTRUCTION


class TestConsoleScript:
    @pytest.mark.skipif(
        installed_distribution() is None,
        reason="the hnncert distribution is not installed "
        "(importlib.metadata.PackageNotFoundError), so it has no console script",
    )
    def test_installed_entry_point(self, tmp_path):
        entry_points = installed_distribution().entry_points
        scripts = {
            ep.name: ep.value for ep in entry_points.select(group="console_scripts")
        }
        assert scripts.get("certify") == "hnncert.cli:main"
        exe = shutil.which("certify")
        assert exe, "console script 'certify' is not on PATH"
        result = subprocess.run(
            [exe, "--input", write(tmp_path, BS)],
            capture_output=True,
            timeout=120,
        )
        assert result.returncode == EXIT_OBSTRUCTION
        assert json.loads(result.stdout)["verdict"] == "obstruction_BS"

    def test_pyproject_declares_entry_point(self):
        # covers the console-script wiring where the distribution is absent
        tomllib = pytest.importorskip("tomllib")
        with PYPROJECT.open("rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts["certify"] == "hnncert.cli:main"
        target = importlib.metadata.EntryPoint(
            name="certify", value=scripts["certify"], group="console_scripts"
        )
        assert target.load() is main

    def test_module_invocation_matches(self, tmp_path):
        # pyproject's pytest ``pythonpath`` reaches only this process, so the
        # child gets the source tree on its own path
        result = subprocess.run(
            [sys.executable, "-m", "hnncert.cli", "--input", write(tmp_path, BS)],
            capture_output=True,
            timeout=120,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        )
        assert result.returncode == EXIT_OBSTRUCTION
