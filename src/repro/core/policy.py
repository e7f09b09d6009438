"""The MTA-STS policy file (RFC 8461 §3.2).

The policy is a key/value text document served at
``https://mta-sts.<domain>/.well-known/mta-sts.txt``.  Parsing here is
strict in what it rejects but forgiving in what it reports: the
lenient entry point :func:`check_policy_text` returns *every* fault it
finds, which is what the measurement pipeline needs to reproduce the
paper's policy-syntax error census (§4.3.3): empty files, invalid mx
patterns (email addresses, trailing dots, empty patterns), missing or
malformed fields.
"""

from __future__ import annotations

import enum
import functools
import re
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import PolicyError, PolicySyntaxError, PolicyWarning

MAX_POLICY_AGE = 31_557_600          # RFC 8461: max_age upper bound (1 year)

_MX_PATTERN_RE = re.compile(
    r"^(\*\.)?([a-z0-9_]([a-z0-9_-]*[a-z0-9_])?\.)+[a-z]{2,}$")


class PolicyMode(enum.Enum):
    ENFORCE = "enforce"
    TESTING = "testing"
    NONE = "none"


@dataclass(frozen=True, slots=True)
class Policy:
    """A parsed, valid MTA-STS policy."""

    version: str
    mode: PolicyMode
    max_age: int
    mx_patterns: Tuple[str, ...]


def render_policy(policy: Policy, *, line_ending: str = "\r\n") -> str:
    """Serialise a policy to RFC 8461 wire format (CRLF separated)."""
    lines = [f"version: {policy.version}",
             f"mode: {policy.mode.value}"]
    lines.extend(f"mx: {pattern}" for pattern in policy.mx_patterns)
    lines.append(f"max_age: {policy.max_age}")
    return line_ending.join(lines) + line_ending


def _valid_mx_pattern(pattern: str) -> bool:
    """Syntactic validity of one mx pattern.

    Rejects the malformations §4.3.3 catalogues: empty patterns, email
    addresses, trailing dots, embedded wildcards anywhere but the
    leftmost whole label.
    """
    if not pattern:
        return False
    if "@" in pattern or pattern.endswith(".") or " " in pattern:
        return False
    if "*" in pattern and not pattern.startswith("*."):
        return False
    if pattern.count("*") > 1:
        return False
    return bool(_MX_PATTERN_RE.match(pattern.lower()))


@dataclass(frozen=True, slots=True)
class PolicyCheck:
    """Lenient parse result: a policy if salvageable, plus all faults."""

    policy: Optional[Policy] = None
    errors: Tuple[PolicySyntaxError, ...] = ()
    details: Tuple[str, ...] = ()
    #: Non-fatal deviations: the policy parses and is used, but the
    #: fault is surfaced rather than silently corrected.
    warnings: Tuple[PolicyWarning, ...] = ()
    warning_details: Tuple[str, ...] = ()

    @property
    def valid(self) -> bool:
        return self.policy is not None and not self.errors


@functools.lru_cache(maxsize=1024)
def check_policy_text(text: str) -> PolicyCheck:
    """Inspect raw policy text, collecting every syntax fault.

    Accepts both CRLF and bare LF line endings (the standard says CRLF;
    real senders, and the paper's scanner, accept LF).  The result is
    a pure function of *text*, so it is memoised: a repeated text gets
    the same frozen :class:`PolicyCheck` back.
    """
    if not text.strip():
        return PolicyCheck(errors=(PolicySyntaxError.EMPTY_FILE,),
                           details=("policy body is empty",))

    errors: List[PolicySyntaxError] = []
    details: List[str] = []
    warnings: List[PolicyWarning] = []
    warning_details: List[str] = []

    def add(kind: PolicySyntaxError, detail: str) -> None:
        errors.append(kind)
        details.append(detail)

    version: Optional[str] = None
    mode_text: Optional[str] = None
    max_age_text: Optional[str] = None
    mx_values: List[str] = []
    seen_keys: set[str] = set()

    for raw_line in text.replace("\r\n", "\n").split("\n"):
        line = raw_line.strip()
        if not line:
            continue
        if ":" not in line:
            add(PolicySyntaxError.MALFORMED_LINE,
                f"line without ':' separator: {line!r}")
            continue
        key, _, value = line.partition(":")
        key = key.strip().lower()
        value = value.strip()
        if key == "mx":
            mx_values.append(value)
            continue
        if key in seen_keys:
            add(PolicySyntaxError.DUPLICATE_KEY, f"duplicate key {key!r}")
            continue
        seen_keys.add(key)
        if key == "version":
            version = value
        elif key == "mode":
            mode_text = value
        elif key == "max_age":
            max_age_text = value
        # Unknown keys are permitted for extensibility; ignored.

    if version is None:
        add(PolicySyntaxError.MISSING_VERSION, "no version field")
    elif version != "STSv1":
        add(PolicySyntaxError.BAD_VERSION,
            f"unsupported version {version!r}")

    mode: Optional[PolicyMode] = None
    if mode_text is None:
        add(PolicySyntaxError.MISSING_MODE, "no mode field")
    else:
        try:
            mode = PolicyMode(mode_text.lower())
        except ValueError:
            add(PolicySyntaxError.INVALID_MODE,
                f"unknown mode {mode_text!r}")

    # ``str.isdigit`` accepts non-ASCII digits — some of which
    # ``int()`` parses (Arabic-Indic "١٢٣") and some of which it
    # rejects with ValueError (superscripts like "²") — so the check
    # must be ASCII-only.  An in-range value above the RFC 8461 bound
    # is still usable (senders cap it themselves) but is recorded as a
    # warning instead of being silently clamped.
    max_age: Optional[int] = None
    if max_age_text is None:
        add(PolicySyntaxError.MISSING_MAX_AGE, "no max_age field")
    elif not (max_age_text.isascii() and max_age_text.isdigit()):
        add(PolicySyntaxError.INVALID_MAX_AGE,
            f"max_age is not a non-negative integer: {max_age_text!r}")
    else:
        max_age = int(max_age_text)
        if max_age > MAX_POLICY_AGE:
            warnings.append(PolicyWarning.MAX_AGE_OVER_BOUND)
            warning_details.append(
                f"max_age {max_age} exceeds RFC 8461 bound "
                f"{MAX_POLICY_AGE}; clamped")
            max_age = MAX_POLICY_AGE

    # mx patterns are required unless mode is none (RFC 8461 §3.2).
    if not mx_values and mode is not PolicyMode.NONE:
        add(PolicySyntaxError.NO_MX_PATTERNS, "no mx fields")
    for pattern in mx_values:
        if not _valid_mx_pattern(pattern):
            add(PolicySyntaxError.INVALID_MX_PATTERN,
                f"invalid mx pattern {pattern!r}")

    policy = None
    if (version == "STSv1" and mode is not None and max_age is not None
            and (mx_values or mode is PolicyMode.NONE)):
        policy = Policy(
            version="STSv1", mode=mode, max_age=max_age,
            mx_patterns=tuple(p.lower() for p in mx_values))
    return PolicyCheck(policy, tuple(errors), tuple(details),
                       tuple(warnings), tuple(warning_details))


def parse_policy(text: str) -> Policy:
    """Strict parse: raise :class:`PolicyError` at the first fault."""
    check = check_policy_text(text)
    if not check.valid:
        kind = check.errors[0]
        detail = check.details[0] if check.details else kind.value
        raise PolicyError(kind, detail)
    assert check.policy is not None
    return check.policy
