"""Numeric CLI arguments fail fast: a non-finite or non-positive
``--scale``, a non-finite ``--zipf-s`` and a scan month outside the
timeline exit 2 with a one-line error, before any work is done."""

import pytest

from repro.cli import main

SCALED_COMMANDS = {
    "audit": ["audit"],
    "campaign": ["campaign"],
    "campaign-deliver": ["campaign", "deliver"],
    "serve": ["serve"],
}

MONTH_COMMANDS = {
    "audit-serial": ["audit"],
    "audit-process": ["audit", "--backend", "process", "--jobs", "2"],
    "campaign-deliver": ["campaign", "deliver"],
}


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("command", SCALED_COMMANDS)
def test_scale_must_be_finite_and_positive(command, value, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(SCALED_COMMANDS[command] + ["--scale", value])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "--scale: expected a finite number > 0" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_serve_zipf_s_must_be_finite(value, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["serve", "--zipf-s", value])
    assert excinfo.value.code == 2
    assert "--zipf-s: expected a finite number > 0" in \
        capsys.readouterr().err


@pytest.mark.parametrize("month", ["-1", "12"])
@pytest.mark.parametrize("command", MONTH_COMMANDS)
def test_month_outside_the_scan_window_exits_2(command, month, capsys):
    argv = MONTH_COMMANDS[command] + ["--scale", "0.001", "--month", month]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: month {month} is outside the scan "
                            f"months [0, 11]\n")
    assert captured.out == ""


def test_audit_out_of_range_month_saves_nothing(tmp_path, capsys):
    store = tmp_path / "store"
    assert main(["audit", "--scale", "0.001", "--month", "-1",
                 "--save", str(store)]) == 2
    assert not store.exists() or not any(store.iterdir())
