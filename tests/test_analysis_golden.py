"""Golden digests for every analysis output of a checkpointed campaign.

Each digest below is the sha256 of one output the paper's figures,
censuses and health checks are read from, over the three stores in
``conftest.py`` (clean, fault-seeded, process-written):

* the figure dump — Figures 4-10 and Table 2 from ``load_campaign``;
* per month, the :class:`SnapshotSummary` ``repr`` and the taxonomy
  bucket, Figure-8 mismatch and Table-2 delegation censuses of the
  month's decoded snapshots;
* the monitor rebuilt by ``CampaignMonitor.from_state``: its JSONL
  feed, drift table and health report;
* ``repro audit --load … --stats`` stdout and ``--metrics-out`` bytes.

The pins were computed through the original object-based aggregations
(one ``DomainSnapshot`` at a time), before the column ports became the
only implementation; a moved digest means a figure changed.
"""

import hashlib
import json
import re

import pytest

from repro.analysis.series import load_campaign
from repro.measurement.classify import EntityClassifier
from repro.measurement.delegation import delegation_census
from repro.measurement.executor import ScanStats
from repro.measurement.inconsistency import mismatch_census
from repro.measurement.store_io import load_state
from repro.measurement.taxonomy import snapshot_summary
from repro.obs.monitor import CampaignMonitor

GOLDEN = {
    "clean": {
        "figures": "c79823fb4c825afc777dda70e2b2e3fa5d8aeeeb84998f"
                   "21373f7d1280ab4e5a",
        "summary": "399e65383d608a7b3dea30ec63500dbd76d4978634c51d"
                   "a64a4aae659e56072c",
        "buckets": "f0d8043eb4c38430322f09444eb7ae3df98e53a8418630"
                   "5bba2c63520eb08a84",
        "mismatch": "67ad8e5ae89fce954c9db55e9c3180adde3cbd5f419052"
                    "f967ff4a16412dff2a",
        "delegation": "c517d9ed73b1772ec4ddccff7bdff6b63b098f6dd67bd6"
                      "c0165c35975599ba54",
        "feed": "aa6cb6644ad5e258711945cc1cbdeaf6281b4d2a80ee4f"
                "79937804eef8d76d6f",
        "drift": "c01b9e47ca316ce7f610ee91964cdfcac295a5b07e71d6"
                 "e0d5b4cf2da8a25ecc",
        "health": "3f37d6195b0a2b984b3a291dbd0b3cdbb827f06a8194e2"
                  "06ec6554668e20201a",
    },
    "faulted": {
        "figures": "8abf6c91b60dfc99d34d3c9ac3ab2879e7a1fa88122acb"
                   "b9a221c25df8083a68",
        "summary": "04e4c553f56b21cffc087eff1c77e491ea3bbc50ef3f60"
                   "dff3eccce717f2a9ed",
        "buckets": "ae672d06b3d465dffac36a6f27738c18f3df0c59b39eed"
                   "49f48f3a66ce5f354f",
        "mismatch": "eecba997ad5cc0fadbc99e2e7e4c0912c020f7a523753b"
                    "859c1db66011409433",
        "delegation": "07e42ce430241f82297e374fd1eb57d7e76a3f6278923b"
                      "3034fdab2ca7bc142b",
        "feed": "4dd0e7c09ce6117dbe458aa3ad29df2907430b52592934"
                "adfdc9cff5087ce33f",
        "drift": "592ab4c8d23f6b427d5c51d22c29a53284d84b24c9ed74"
                 "3a2bd3f22bfc91594a",
        "health": "fc18e0def844a643ecb7b8463e32f50772aa68a6a664b4"
                  "74f2a094c481f44d64",
    },
    # Written by ``scan_population``: each canonical slice is scanned
    # with empty resolver, probe and PKIX caches, so no lookup is served
    # from the cache the world build's ACME validation warmed, and every
    # lookup meets the fault plan.
    "process": {
        "figures": "4d370d10d168ca88d2a8538939db56ca4ed95cfca923d4"
                   "7bd7574eeef3ef6eac",
        "summary": "59173385d6dd8e86a2823672a8a7ac4105976ab567d4be"
                   "270cef52277a40196b",
        "buckets": "fde3825f39332bd093cd4a33ec26cbb1098c44591e6469"
                   "4b1355285a3f08e007",
        "mismatch": "eecba997ad5cc0fadbc99e2e7e4c0912c020f7a523753b"
                    "859c1db66011409433",
        "delegation": "07e42ce430241f82297e374fd1eb57d7e76a3f6278923b"
                      "3034fdab2ca7bc142b",
        "feed": "5f5d106fae697ba7d212e8089530ec6fa0f784e0c2f656"
                "7a6ef4ba2f4797870d",
        "drift": "43c2573c4205f2e878720d958b21f34ad440eced886dde"
                 "89ccd93b139c737ab8",
        "health": "611f4deb3064a81fa7b7685f8a9c91b4b454e0bdbec7a0"
                  "ac011a9cee7a0fdd6f",
    },
}

#: ``audit --load`` over the fault-seeded store.
AUDIT_GOLDEN = {
    "stats_stdout": "cb746748b36a97ad1b31fb1e44ca380bd572ec2f9486c5"
                    "c9b831ee82bb951c87",
    "metrics_out": "4495f38217626da405715d307100afcf497ed7ab4dac45"
                   "082c693bfcc3570879",
}

#: ``audit --stats`` lines that carry host wall-clock seconds from the
#: manifest; their values (and the store's path) are masked before
#: hashing.
_WALL_CLOCK = re.compile(
    r"^(  (?:world build|scan|checkpoint commit) +)\d+\.\d+s$", re.M)


def sha256(text) -> str:
    data = text.encode("utf-8") if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


def _dumps(value) -> str:
    return json.dumps(value, sort_keys=True, default=str)


def figure_dump(analysis) -> str:
    """Every figure series and Table 2, serialised canonically."""
    payload = {
        "figure4": analysis.figure4_series(),
        "figure5_self": analysis.figure5_series("self-managed"),
        "figure5_third": analysis.figure5_series("third-party"),
        "figure6_self": analysis.figure6_series("self-managed"),
        "figure6_third": analysis.figure6_series("third-party"),
        "figure7": analysis.figure7_series(),
        "figure8": analysis.figure8_series(),
        "figure9": analysis.figure9_series(),
        "figure10": analysis.figure10_series(),
        "table2": analysis.table2_census(),
    }
    return json.dumps(payload, sort_keys=True, default=str, indent=1)


def month_outputs(state_dir) -> dict:
    """Per-month summary reprs and censuses, one text per output."""
    state = load_state(state_dir)
    texts = {"summary": [], "buckets": [], "mismatch": [], "delegation": []}
    for entry in state.months:
        snapshots = state.store.month(entry.month)
        verdicts = EntityClassifier(snapshots).classify_all()
        texts["summary"].append(repr(snapshot_summary(snapshots, verdicts)))
        record = CampaignMonitor().observe_month(
            entry.month, entry.date, ScanStats.from_dict(entry.stats),
            snapshots)
        texts["buckets"].append(_dumps(
            {key: value for key, value in record.metrics.counters.items()
             if key.startswith("taxonomy.")}))
        texts["mismatch"].append(repr(mismatch_census(snapshots)))
        texts["delegation"].append(_dumps(delegation_census(snapshots)))
    return {name: "\n".join(lines) for name, lines in texts.items()}


def monitor_outputs(state_dir) -> dict:
    monitor = CampaignMonitor.from_state(state_dir)
    health = monitor.health()
    return {"feed": monitor.to_jsonl(),
            "drift": _dumps(monitor.drift()),
            "health": health.render() + "\n" + _dumps(health.as_dict())}


def audit_stdout(state_dir, capsys, *extra) -> str:
    from repro.cli import main
    capsys.readouterr()
    assert main(["audit", "--load", state_dir, "--stats", *extra]) == 0
    out = capsys.readouterr().out.replace(state_dir, "<state>")
    return _WALL_CLOCK.sub(r"\1<wall>s", out)


def _state_name(request) -> str:
    return request.node.callspec.params["any_state"]


def test_figure_dump(any_state, request):
    digest = sha256(figure_dump(load_campaign(any_state)))
    assert digest == GOLDEN[_state_name(request)]["figures"]


@pytest.mark.parametrize("output",
                         ["summary", "buckets", "mismatch", "delegation"])
def test_month_censuses(any_state, request, output):
    digest = sha256(month_outputs(any_state)[output])
    assert digest == GOLDEN[_state_name(request)][output]


@pytest.mark.parametrize("output", ["feed", "drift", "health"])
def test_monitor_from_state(any_state, request, output):
    digest = sha256(monitor_outputs(any_state)[output])
    assert digest == GOLDEN[_state_name(request)][output]


def test_audit_load_stats_stdout(faulted_state, capsys):
    assert (sha256(audit_stdout(faulted_state, capsys))
            == AUDIT_GOLDEN["stats_stdout"])


def test_audit_load_metrics_out(faulted_state, tmp_path, capsys):
    from repro.cli import main
    out = tmp_path / "month1.prom"
    assert main(["audit", "--load", faulted_state, "--month", "1",
                 "--metrics-out", str(out)]) == 0
    capsys.readouterr()
    assert sha256(out.read_bytes()) == AUDIT_GOLDEN["metrics_out"]
