"""CLI entry points (run against tiny worlds to stay fast)."""

import pytest

from repro.cli import detect_main, econ_main, offload_main


class TestEconCLI:
    def test_explicit_decay(self, capsys):
        assert econ_main(["--decay", "0.8"]) == 0
        out = capsys.readouterr().out
        assert "viable: YES" in out
        assert "ñ" in out and "m̃" in out

    def test_nonviable_parameters(self, capsys):
        assert econ_main(["--decay", "3.0"]) == 0
        assert "viable: NO" in capsys.readouterr().out

    def test_bad_prices_raise(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            econ_main(["--decay", "0.5", "--remote-unit", "9.0"])
        assert exit_info.value.code == 2
        assert "--remote-unit" in capsys.readouterr().err

    def test_price_outside_the_model_is_a_usage_error(self, capsys):
        # p = 1 puts transit below remote peering's per-unit price.
        with pytest.raises(SystemExit) as exit_info:
            econ_main(["--transit-price", "1", "--decay", "0.5"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "argument" in err and "--transit-price" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag,value", [
        ("--decay", "nan"), ("--decay", "inf"), ("--transit-price", "inf"),
    ])
    def test_non_finite_value_is_a_usage_error(self, capsys, flag, value):
        argv = ["--decay", "0.5", flag, value]
        with pytest.raises(SystemExit) as exit_info:
            econ_main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}" in err and "must be finite" in err


class TestDetectCLI:
    def test_restricted_run(self, capsys):
        assert detect_main(["--seed", "3", "--ixps", "TOP-IX", "Netnod"]) == 0
        out = capsys.readouterr().out
        assert "TOP-IX" in out
        assert "analyzed" in out
        assert "Detected remote fraction" in out

    def test_unknown_ixp_errors(self):
        with pytest.raises(SystemExit):
            detect_main(["--ixps", "NOPE-IX"])

    def test_typo_among_known_ixps_is_a_usage_error(self, capsys):
        # Each name is looked up, so a typo cannot shrink the study.
        with pytest.raises(SystemExit) as exit_info:
            detect_main(["--ixps", "TOP-IX", "NOPE-IX"])
        assert exit_info.value.code == 2
        assert "NOPE-IX" in capsys.readouterr().err


@pytest.mark.slow
class TestOffloadCLI:
    def test_offload_run(self, capsys):
        assert offload_main(["--seed", "3", "--group", "4",
                             "--max-ixps", "3"]) == 0
        out = capsys.readouterr().out
        assert "Greedy expansion consensus" in out
        assert "candidates" in out


class TestReportCLI:
    def test_small_report_to_file(self, tmp_path, capsys):
        from repro.cli import report_main

        target = tmp_path / "report.txt"
        assert report_main(["--small", "--seed", "3",
                            "--output", str(target)]) == 0
        text = target.read_text()
        assert "REMOTE PEERING DETECTION STUDY" in text
        assert "TRAFFIC OFFLOAD STUDY" in text
        assert "ECONOMIC VIABILITY" in text
        assert "written to" in capsys.readouterr().out
