"""The threshold flags generated from the monitors' rule tables.

Every threshold flag of the five monitoring subcommands is parsed by
its bound's kind: a valid value must land in the monitor's thresholds,
and ``nan`` or ``-1`` must be refused with exit code 2.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.obs.exporters import month_jsonl_line
from repro.obs.monitor import FeedMonitor
from repro.trace import MetricsRegistry


class _Reached(Exception):
    """Carries the thresholds a handler handed on, and stops it there."""


def _stop_campaign(timeline, **kwargs):
    raise _Reached(kwargs["monitor"].thresholds)


def _stop_delivery(config, **kwargs):
    raise _Reached({"": kwargs["thresholds"],
                    "tlsrpt-": kwargs["tlsrpt_thresholds"]})


def _stop_serve(config, **kwargs):
    raise _Reached(kwargs["thresholds"])


def _stop_health(monitor):
    raise _Reached(monitor.thresholds)


@pytest.fixture
def stopped(monkeypatch, tmp_path):
    """Argument vectors of the five subcommands, each stopped where
    its thresholds reach the monitor."""
    monkeypatch.setattr("repro.analysis.series.run_campaign",
                        _stop_campaign)
    monkeypatch.setattr(
        "repro.measurement.delivery_campaign.run_delivery_campaign",
        _stop_delivery)
    monkeypatch.setattr("repro.measurement.serve.run_serve", _stop_serve)
    monkeypatch.setattr(FeedMonitor, "health", _stop_health)
    feed = tmp_path / "feed.jsonl"
    feed.write_text(month_jsonl_line(0, "2024-01-01", MetricsRegistry())
                    + "\n", encoding="utf-8")
    (tmp_path / "reports.jsonl").write_text("", encoding="utf-8")
    return {
        "campaign": ["campaign", "--scale", "0.001"],
        "monitor": ["monitor", str(feed)],
        "deliver": ["campaign", "deliver"],
        "tlsrpt": ["tlsrpt", str(tmp_path)],
        "serve": ["serve"],
    }


#: (subcommand, flag, threshold field, a valid value, its parsed value)
FLAGS = [
    (command, flag, field, text, value)
    for command in ("campaign", "monitor")
    for flag, field, text, value in (
        ("--transient-rate-alert", "transient_rate_alert", "0.3", 0.3),
        ("--transient-jump-alert", "transient_jump_alert", "0.4", 0.4),
        ("--cache-hit-drop-warn", "cache_hit_drop_warn", "0.5", 0.5),
        ("--bucket-shift-warn", "bucket_shift_warn", "0.6", 0.6),
        ("--retry-jump-warn", "retry_jump_warn", "2.5", 2.5),
    )
] + [
    ("deliver", "--bounce-rate-alert", "bounce_rate_alert", "0.1", 0.1),
    ("deliver", "--plaintext-rate-warn", "plaintext_rate_warn", "0.2",
     0.2),
    ("deliver", "--refused-rate-warn", "refused_rate_warn", "0.45", 0.45),
    ("deliver", "--tlsrpt-failure-rate-warn", "failure_rate_warn", "0.4",
     0.4),
    ("deliver", "--tlsrpt-failure-rate-alert", "failure_rate_alert",
     "0.9", 0.9),
    ("tlsrpt", "--failure-rate-warn", "failure_rate_warn", "0.05", 0.05),
    ("tlsrpt", "--failure-rate-alert", "failure_rate_alert", "0.95",
     0.95),
    ("serve", "--hit-rate-floor-warn", "hit_rate_floor_warn", "0.7", 0.7),
    ("serve", "--p99-latency-alert", "p99_latency_alert", "12.5", 12.5),
    ("serve", "--fanin-warn", "fanin_warn", "7", 7),
]
_IDS = [f"{command}{flag}" for command, flag, *_ in FLAGS]


def _thresholds_reached(argv, flag):
    with pytest.raises(_Reached) as reached:
        main(argv)
    thresholds = reached.value.args[0]
    if isinstance(thresholds, dict):   # campaign deliver: two monitors
        thresholds = thresholds["tlsrpt-" if flag.startswith(
            "--tlsrpt-") else ""]
    return thresholds


@pytest.mark.parametrize("command,flag,field,text,value", FLAGS, ids=_IDS)
def test_valid_value_reaches_the_monitor(stopped, command, flag, field,
                                         text, value):
    defaults = _thresholds_reached(stopped[command], flag)
    thresholds = _thresholds_reached(stopped[command] + [flag, text], flag)
    assert getattr(thresholds, field) == value
    assert getattr(defaults, field) != value
    changed = {name for name, setting in thresholds.as_dict().items()
               if setting != defaults.as_dict()[name]}
    assert changed == {field}


@pytest.mark.parametrize("bad", ["nan", "-1"])
@pytest.mark.parametrize("command,flag,field,text,value", FLAGS, ids=_IDS)
def test_nan_and_negative_exit_2(stopped, capsys, command, flag, field,
                                 text, value, bad):
    with pytest.raises(SystemExit) as excinfo:
        main(stopped[command] + [flag, bad])
    assert excinfo.value.code == 2
    assert flag in capsys.readouterr().err
