"""The measurement pipeline: scanning, classification, and analysis."""

from repro.measurement.snapshots import DomainSnapshot, SnapshotStore
from repro.measurement.scanner import Scanner
from repro.measurement.classify import EntityClassifier, EntityVerdict
from repro.measurement.taxonomy import categorize, snapshot_summary
from repro.measurement.inconsistency import classify_mismatch
from repro.measurement.historical import historical_series
from repro.measurement.delegation import identify_provider, delegation_census
from repro.measurement.senderside import SenderSideTestbed, SenderProfile
from repro.measurement.notify import DisclosureCampaign
from repro.measurement.offline import OfflineAssessment, assess_zone
from repro.measurement.repair import RepairAction, apply_repairs, plan_repairs

__all__ = [
    "OfflineAssessment", "assess_zone",
    "RepairAction", "apply_repairs", "plan_repairs",
    "DomainSnapshot", "SnapshotStore", "Scanner",
    "EntityClassifier", "EntityVerdict",
    "categorize", "snapshot_summary",
    "classify_mismatch", "historical_series",
    "identify_provider", "delegation_census",
    "SenderSideTestbed", "SenderProfile",
    "DisclosureCampaign",
]
