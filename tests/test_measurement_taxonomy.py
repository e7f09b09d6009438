"""Tests for the error taxonomy and inconsistency classification."""

import pytest

from repro.core.policy import Policy, PolicyMode
from repro.ecosystem.deployment import DomainSpec, deploy_domain
from repro.ecosystem.misconfig import Fault, apply_fault
from repro.errors import MisconfigCategory, MismatchClass
from repro.measurement.inconsistency import classify_mismatch, mismatch_census
from repro.measurement.scanner import Scanner
from repro.measurement.taxonomy import (
    categorize, delivery_failure_expected, snapshot_summary,
)


class TestClassifyMismatch:
    def test_matching_is_not_a_mismatch(self):
        verdict = classify_mismatch(["*.example.com"], ["mx.example.com"])
        assert not verdict.mismatch

    def test_typo_detected(self):
        verdict = classify_mismatch(["mial.example.com"],
                                    ["mail.example.com"])
        assert verdict.mismatch_class is MismatchClass.TYPO

    def test_tld_swap_is_not_a_typo(self):
        # Figure 8's rule: TLD mismatches do not qualify as typos.
        verdict = classify_mismatch(["mail.example.net"],
                                    ["mail.example.com"])
        assert verdict.mismatch_class is MismatchClass.TLD

    def test_3ld_mismatch(self):
        verdict = classify_mismatch(["mta-sts.mail.example.com"],
                                    ["mail.example.com"])
        assert verdict.mismatch_class is MismatchClass.THREE_LD

    def test_complete_domain_mismatch(self):
        verdict = classify_mismatch(["mx.oldprovider.net"],
                                    ["aspmx.l.google.com"])
        assert verdict.mismatch_class is MismatchClass.DOMAIN

    def test_wildcard_patterns_participate(self):
        verdict = classify_mismatch(["*.exampel.com"], ["mx.example.com"])
        assert verdict.mismatch_class is MismatchClass.TYPO

    def test_empty_inputs_no_verdict(self):
        assert not classify_mismatch([], ["mx.example.com"]).mismatch
        assert not classify_mismatch(["a.example.com"], []).mismatch

    def test_typo_precedence_over_3ld(self):
        # A pattern 1 edit away from the MX also shares the eSLD; the
        # typo class wins per the paper's ordering.
        verdict = classify_mismatch(["mai.example.com"],
                                    ["mail.example.com"])
        assert verdict.mismatch_class is MismatchClass.TYPO


class TestClassifyMismatchCanonicalisation:
    """classify_mismatch must fold hostnames exactly like every other
    host comparison in the pipeline (canonical_host / casefold), not
    ``str.lower``, which leaves U+1E9E ẞ and ß distinct from "ss"."""

    def test_casefold_covered_pattern_is_not_a_mismatch(self):
        # ẞ.casefold() == "ss": the pattern covers the MX once folded.
        verdict = classify_mismatch(["mail.STRAẞE.example"],
                                    ["mail.strasse.example"])
        assert not verdict.mismatch

    def test_sharp_s_esld_agrees_with_casefold(self):
        # Regression: lower() keeps ß, so the eSLDs "straße.example"
        # and "strasse.example" looked unrelated and this fell through
        # to DOMAIN instead of the 3LD+ class.
        verdict = classify_mismatch(["mta-sts.straẞe.example"],
                                    ["mail.strasse.example"])
        assert verdict.mismatch_class is MismatchClass.THREE_LD

    def test_sharp_s_typo_distance_uses_canonical_text(self):
        # "straẞe" folds to "strasse", one edit from "strasze"; under
        # lower() the ß survives and the distance inflates.
        verdict = classify_mismatch(["straẞe.example"],
                                    ["strasze.example"])
        assert verdict.mismatch_class is MismatchClass.TYPO
        assert "1 edits" in verdict.evidence

    def test_dotted_capital_i_parity_with_policy_matching(self):
        # İ and its folded spelling i+U+0307 are the same host both
        # here and in policy_covers_mx.
        verdict = classify_mismatch(["İmx.example.com"],
                                    ["i̇mx.example.com"])
        assert not verdict.mismatch

    def test_whitespace_and_root_dot_are_canonicalised(self):
        verdict = classify_mismatch(["mta-sts.example.com."],
                                    ["  mail.example.com.  "])
        assert verdict.mismatch_class is MismatchClass.THREE_LD

    def test_uncanonicalisable_names_are_ignored(self):
        # "a..b" has an empty label; canonical_host maps it to "" and
        # classification sees no usable hosts at all.
        assert not classify_mismatch(["mx.example.com"], ["a..b"]).mismatch
        assert not classify_mismatch(["a..b"], ["mx.example.com"]).mismatch


class TestCategorizeSnapshots:
    """``Scanner.scan_domain`` plus the taxonomy is the one per-domain
    verdict: the Figure-4 categories and the delivery-failure class."""

    def scan(self, world, domain="example.com"):
        return Scanner(world).scan_domain(domain, 0)

    @staticmethod
    def deploy(world, mode, mx_count=1, domain="strict.com"):
        """*domain* with *mx_count* self-managed MX hosts and a *mode*
        policy listing exactly those hosts."""
        spec = DomainSpec(domain=domain, self_mx_count=mx_count)
        spec.policy = Policy(version="STSv1", mode=mode, max_age=86400,
                             mx_patterns=tuple(spec.intended_mx()))
        return deploy_domain(world, spec)

    def test_healthy(self, world, simple_domain):
        assert categorize(self.scan(world)) == []

    @pytest.mark.parametrize("fault, category", [
        (Fault.RECORD_INVALID_ID, MisconfigCategory.DNS_RECORD),
        (Fault.POLICY_TLS_CN_MISMATCH, MisconfigCategory.POLICY_RETRIEVAL),
        (Fault.POLICY_SYNTAX_EMPTY, MisconfigCategory.POLICY_RETRIEVAL),
        (Fault.MX_CERT_EXPIRED, MisconfigCategory.MX_CERTIFICATE),
        (Fault.MISMATCH_DOMAIN, MisconfigCategory.INCONSISTENCY),
        (Fault.MISMATCH_3LD, MisconfigCategory.INCONSISTENCY),
    ])
    def test_single_fault_maps_to_category(self, world, simple_domain,
                                           fault, category):
        apply_fault(world, simple_domain, fault)
        world.resolver.flush_cache()
        assert category in categorize(self.scan(world))

    @pytest.mark.parametrize("mode", [PolicyMode.TESTING,
                                      PolicyMode.ENFORCE])
    def test_bad_mx_line_is_a_retrieval_error_only(self, world, mode):
        # The policy fails syntax checks, so its mx patterns are not
        # judged against the MX records (§4.4): no inconsistency.
        deployed = self.deploy(world, mode)
        apply_fault(world, deployed, Fault.POLICY_SYNTAX_BAD_MX)
        snap = self.scan(world, "strict.com")
        assert categorize(snap) == [MisconfigCategory.POLICY_RETRIEVAL]
        assert not delivery_failure_expected(snap)

    @pytest.mark.parametrize("mode, fault, mx_count, mx_index, expected", [
        (PolicyMode.ENFORCE, None, 1, 0, False),
        (PolicyMode.TESTING, Fault.MISMATCH_DOMAIN, 1, 0, False),
        (PolicyMode.ENFORCE, Fault.MX_CERT_SELF_SIGNED, 1, None, True),
        (PolicyMode.TESTING, Fault.MX_CERT_SELF_SIGNED, 1, None, False),
        (PolicyMode.ENFORCE, Fault.MX_CERT_SELF_SIGNED, 2, 0, False),
        (PolicyMode.ENFORCE, Fault.MX_CERT_SELF_SIGNED, 2, None, True),
        (PolicyMode.ENFORCE, Fault.POLICY_HTTP_404, 1, 0, False),
    ])
    def test_delivery_failure(self, world, mode, fault, mx_count, mx_index,
                              expected):
        # A compliant sender fails only in enforce mode, with a
        # retrievable policy, when no MX matches or every matching MX
        # presents an invalid certificate.
        deployed = self.deploy(world, mode, mx_count)
        if fault is not None:
            apply_fault(world, deployed, fault, mx_index=mx_index)
        snap = self.scan(world, "strict.com")
        assert delivery_failure_expected(snap) is expected
        assert bool(categorize(snap)) is (fault is not None)

    def test_non_sts_domain_has_no_categories(self, world):
        deploy_domain(world, DomainSpec(domain="plain.com",
                                        deploy_sts=False))
        assert categorize(self.scan(world, "plain.com")) == []

    def test_delivery_failure_requires_enforce(self, world):
        deployed = deploy_domain(world, DomainSpec(
            domain="strict.com",
            policy=Policy(version="STSv1", mode=PolicyMode.ENFORCE,
                          max_age=86400, mx_patterns=("mail.strict.com",))))
        apply_fault(world, deployed, Fault.MISMATCH_DOMAIN)
        world.resolver.flush_cache()
        assert delivery_failure_expected(self.scan(world, "strict.com"))

    def test_summary_aggregates(self, world, simple_domain):
        broken = deploy_domain(world, DomainSpec(domain="broken.com"))
        apply_fault(world, broken, Fault.POLICY_HTTP_404)
        scanner = Scanner(world)
        snaps = [scanner.scan_domain("example.com", 0),
                 scanner.scan_domain("broken.com", 0)]
        summary = snapshot_summary(snaps)
        assert summary.total_sts == 2
        assert summary.misconfigured == 1
        assert summary.category_counts["policy-retrieval"] == 1
        assert summary.misconfigured_percent() == 50.0


class TestMismatchCensus:
    def test_census_counts_by_class(self, world):
        specs = {
            "typo.com": Fault.MISMATCH_TYPO,
            "tld.com": Fault.MISMATCH_TLD,
            "threeld.com": Fault.MISMATCH_3LD,
            "whole.com": Fault.MISMATCH_DOMAIN,
        }
        scanner = Scanner(world)
        snaps = []
        for domain, fault in specs.items():
            deployed = deploy_domain(world, DomainSpec(domain=domain))
            apply_fault(world, deployed, fault)
            snaps.append(scanner.scan_domain(domain, 0))
        census = mismatch_census(snaps)
        counts = census["counts"]
        assert counts[MismatchClass.TYPO] == 1
        assert counts[MismatchClass.TLD] == 1
        assert counts[MismatchClass.THREE_LD] == 1
        assert counts[MismatchClass.DOMAIN] == 1
