"""Shared error taxonomy for the MTA-STS reproduction.

The paper classifies MTA-STS deployment faults into a hierarchy
(Section 4.2): individual errors in the DNS record, the policy server,
or the MX hosts, plus inconsistency errors between the policy and the
MX records.  Every layer of this library reports failures through the
enumerations defined here so that the measurement pipeline can fold
low-level faults (a TLS alert, an HTTP 404) into the paper's top-level
categories without string matching.
"""

from __future__ import annotations

import enum


class ReproError(Exception):
    """Base class for all exceptions raised by this library.

    ``transient`` marks failures injected by the deterministic fault
    layer (:class:`repro.netsim.network.FaultPlan`): a transient error
    would have succeeded had the fault schedule been exhausted, so the
    scan pipeline retries it and — when retries run out — classifies
    the observation as *transient* rather than as a hard
    misconfiguration.  Deterministic failures (closed ports, NXDOMAIN,
    expired certificates) keep the default ``False``.
    """

    transient = False


# ---------------------------------------------------------------------------
# Simulated-network layer
# ---------------------------------------------------------------------------

class NetworkError(ReproError):
    """A simulated transport-level failure (connect refused, timeout).

    ``fault`` is the :class:`~repro.netsim.network.FaultKind` that
    injected the failure (``None`` for a deterministic one).  An error
    :func:`~repro.netsim.retry.connect_with_retries` gives up on carries
    ``charge``: the :class:`~repro.netsim.network.ConnectCharge` its
    whole retry loop added to the counters.
    """

    fault = None
    charge = None


class ConnectionRefused(NetworkError):
    """No listener on the target IP/port, or the host rejects TCP."""


class ConnectionTimeout(NetworkError):
    """The target host is unreachable or drops SYNs (blackhole)."""


class ConnectionReset(NetworkError):
    """The connection was accepted but torn down mid-exchange (RST)."""

    def __init__(self, message: str = "", *, bytes_delivered: int = 0):
        self.bytes_delivered = bytes_delivered
        super().__init__(message or "connection reset")


# ---------------------------------------------------------------------------
# Persistence layer
# ---------------------------------------------------------------------------

class StoreCorruption(ReproError):
    """A persisted campaign store failed integrity verification.

    Raised by :mod:`repro.measurement.store_io` when a shard's content
    digest does not match the manifest, a shard is truncated or
    unparsable, a recorded shard is missing, or the manifest itself is
    damaged or written by an unsupported schema version.  The message
    always names the offending artifact — resume never proceeds from a
    silent partial load.
    """


# ---------------------------------------------------------------------------
# DNS layer
# ---------------------------------------------------------------------------

class DnsError(ReproError):
    """Base class for resolution failures."""

    rcode = "SERVFAIL"


class NxDomain(DnsError):
    """The queried name does not exist (authoritative denial)."""

    rcode = "NXDOMAIN"


class NoData(DnsError):
    """The name exists but has no records of the queried type."""

    rcode = "NODATA"


class ServFail(DnsError):
    """The authoritative server failed (lame delegation, fault injection)."""

    rcode = "SERVFAIL"


class DnsTimeout(DnsError):
    """No authoritative server answered within the resolver's budget."""

    rcode = "TIMEOUT"


class CnameLoop(DnsError):
    """CNAME chasing exceeded the loop-protection limit."""

    rcode = "SERVFAIL"


# ---------------------------------------------------------------------------
# TLS / PKI layer
# ---------------------------------------------------------------------------

class TlsError(ReproError):
    """Base class for handshake failures; carries a :class:`TlsFailure`."""

    def __init__(self, failure: "TlsFailure", message: str = ""):
        self.failure = failure
        super().__init__(message or failure.value)


class TlsFailure(enum.Enum):
    """Why a simulated TLS handshake failed.

    These mirror the certificate-error classes the paper reports in
    Figures 5 and 6: Common Name / SAN mismatches, self-signed chains,
    expired certificates, and servers with no certificate installed for
    the requested name (SSL alerts such as ``unrecognized_name``).
    """

    NO_TLS_SUPPORT = "no-tls-support"
    NO_CERTIFICATE = "no-certificate"        # SSL alert: no cert for this SNI
    HOSTNAME_MISMATCH = "hostname-mismatch"  # CN/SAN does not cover the name
    SELF_SIGNED = "self-signed"
    UNTRUSTED_ROOT = "untrusted-root"
    EXPIRED = "expired"
    NOT_YET_VALID = "not-yet-valid"
    REVOKED = "revoked"
    HANDSHAKE_ALERT = "handshake-alert"      # generic fatal alert


# ---------------------------------------------------------------------------
# MTA-STS core taxonomy (the paper's Section 4 categories)
# ---------------------------------------------------------------------------

class StsRecordError(enum.Enum):
    """Syntactic faults in the ``_mta-sts`` TXT record (Section 4.3.2)."""

    MISSING = "missing"                # no record at all
    MULTIPLE_RECORDS = "multiple-records"
    BAD_VERSION = "bad-version"        # does not begin with v=STSv1
    MISSING_ID = "missing-id"
    INVALID_ID = "invalid-id"          # non-alphanumeric id (e.g. hyphen)
    INVALID_EXTENSION = "invalid-extension"


class PolicyFetchStage(enum.Enum):
    """The stage at which policy retrieval failed (Figure 5 x-axis)."""

    DNS = "dns"
    TCP = "tcp"
    TLS = "tls"
    HTTP = "http"
    SYNTAX = "policy-syntax"


class PolicySyntaxError(enum.Enum):
    """Semantic faults in a fetched policy file (Section 4.3.3)."""

    EMPTY_FILE = "empty-file"
    BAD_VERSION = "bad-version"
    MISSING_VERSION = "missing-version"
    MISSING_MODE = "missing-mode"
    INVALID_MODE = "invalid-mode"
    MISSING_MAX_AGE = "missing-max-age"
    INVALID_MAX_AGE = "invalid-max-age"
    NO_MX_PATTERNS = "no-mx-patterns"
    INVALID_MX_PATTERN = "invalid-mx-pattern"  # email address, trailing dot, empty
    MALFORMED_LINE = "malformed-line"
    DUPLICATE_KEY = "duplicate-key"


class PolicyWarning(enum.Enum):
    """Non-fatal policy faults: the policy stays usable, but the census
    records the deviation (a silent clamp would hide it)."""

    MAX_AGE_OVER_BOUND = "max-age-over-bound"


class MisconfigCategory(enum.Enum):
    """The paper's four top-level misconfiguration categories (Figure 4)."""

    DNS_RECORD = "dns-record"
    POLICY_RETRIEVAL = "policy-retrieval"
    MX_CERTIFICATE = "mx-certificate"
    INCONSISTENCY = "inconsistency"
    #: Not one of the paper's four: the observation failed on a
    #: fault-injected transient error that survived the retry budget,
    #: so the domain's true posture is unknown for this snapshot.
    TRANSIENT = "transient"


class MismatchClass(enum.Enum):
    """Inconsistency sub-classes between mx patterns and MX records (Fig. 8)."""

    TLD = "tld-mismatch"
    DOMAIN = "complete-domain-mismatch"
    THREE_LD = "3ld-plus-mismatch"
    TYPO = "typo"


class ManagingEntity(enum.Enum):
    """Who operates a component, per the Section 4.3.1 heuristics."""

    SELF_MANAGED = "self-managed"
    THIRD_PARTY = "third-party"
    UNCLASSIFIED = "unclassified"


class PolicyError(ReproError):
    """Raised by strict policy parsing; carries a :class:`PolicySyntaxError`."""

    def __init__(self, kind: PolicySyntaxError, message: str = ""):
        self.kind = kind
        super().__init__(message or kind.value)


class RecordError(ReproError):
    """Raised by strict record parsing; carries a :class:`StsRecordError`."""

    def __init__(self, kind: StsRecordError, message: str = ""):
        self.kind = kind
        super().__init__(message or kind.value)
