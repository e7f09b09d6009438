"""Focused tests for smaller paths not covered elsewhere: fetch-result
derivations, entity-verdict semantics, error taxonomy completeness,
and queue introspection."""

from repro.core.fetch import PolicyFetchResult
from repro.core.record import evaluate_txt_rrset
from repro.errors import (
    ManagingEntity, MisconfigCategory, MismatchClass, PolicyFetchStage,
    StsRecordError, TlsFailure,
)
from repro.measurement.classify import EntityVerdict
from repro.pki.validation import ValidationResult, classify_failure


class TestPolicyFetchResultDerivations:
    def test_empty_result_is_not_sts(self):
        result = PolicyFetchResult(domain="x.com")
        result.record_eval = evaluate_txt_rrset([])
        assert not result.sts_enabled
        assert result.record is None
        assert result.failed_stage is None
        assert not result.fully_valid

    def test_record_error_surfaces(self):
        result = PolicyFetchResult(domain="x.com")
        result.record_eval = evaluate_txt_rrset(["v=STSv1; id=ab cd;"])
        assert result.sts_enabled
        assert result.record_error is StsRecordError.INVALID_ID

    def test_no_fetch_with_sts_record_counts_as_dns_stage(self):
        # A result whose HTTPS stage never ran (the fetcher bailed out)
        # reports the DNS stage for an STS-enabled domain.
        result = PolicyFetchResult(domain="x.com")
        result.record_eval = evaluate_txt_rrset(["v=STSv1; id=1;"])
        assert result.failed_stage is PolicyFetchStage.DNS


class TestEntityVerdict:
    def test_paper_tutanota_example(self):
        # §4.5.1's worked example: mail.tutanota.de vs
        # mta-sts.tutanota.com share the label 'tutanota'.
        verdict = EntityVerdict(
            domain="customer.com",
            mx=ManagingEntity.THIRD_PARTY,
            policy=ManagingEntity.THIRD_PARTY,
            mx_provider_sld="tutanota.de",
            policy_provider_sld="tutanota.com")
        assert verdict.both_outsourced
        assert verdict.same_provider

    def test_different_providers(self):
        verdict = EntityVerdict(
            domain="customer.com",
            mx=ManagingEntity.THIRD_PARTY,
            policy=ManagingEntity.THIRD_PARTY,
            mx_provider_sld="google.com",
            policy_provider_sld="dmarcinput.com")
        assert verdict.both_outsourced
        assert not verdict.same_provider

    def test_self_managed_is_not_outsourced(self):
        verdict = EntityVerdict(domain="x.com",
                                mx=ManagingEntity.SELF_MANAGED,
                                policy=ManagingEntity.THIRD_PARTY)
        assert not verdict.both_outsourced
        assert not verdict.same_provider

    def test_missing_slds_never_same(self):
        verdict = EntityVerdict(domain="x.com",
                                mx=ManagingEntity.THIRD_PARTY,
                                policy=ManagingEntity.THIRD_PARTY)
        assert not verdict.same_provider


class TestErrorTaxonomyCompleteness:
    def test_every_tls_failure_classifies(self):
        for failure in TlsFailure:
            result = ValidationResult.fail(failure, "x")
            assert classify_failure(result)    # no KeyError for any class

    def test_enum_values_are_stable_identifiers(self):
        # Snapshot schemas persist these strings; lock them down.
        assert MisconfigCategory.POLICY_RETRIEVAL.value == "policy-retrieval"
        assert MismatchClass.THREE_LD.value == "3ld-plus-mismatch"
        assert PolicyFetchStage.SYNTAX.value == "policy-syntax"
        assert StsRecordError.MULTIPLE_RECORDS.value == "multiple-records"

    def test_valid_result_classifies_as_valid(self):
        assert classify_failure(ValidationResult.ok()) == "valid"


class TestQueueIntrospection:
    def test_next_wakeup_and_pending(self, world, simple_domain):
        from repro.netsim.network import TcpBehavior
        from repro.smtp.delivery import Message, SendingMta
        from repro.smtp.queue import MailQueue
        from repro.smtp.server import SMTP_PORT

        mx = simple_domain.mx_hosts[0]
        world.network.set_behavior(mx.ip, SMTP_PORT, TcpBehavior.TIMEOUT)
        sender = SendingMta("q.net", world.network, world.resolver,
                            world.trust_store, world.clock)
        queue = MailQueue(sender, world.clock)
        assert queue.next_wakeup() is None
        entry = queue.submit(Message("a@q.net", "b@example.com"))
        assert queue.pending() == [entry]
        wakeup = queue.next_wakeup()
        assert wakeup is not None and wakeup > world.clock.now()

    def test_drain_empty_queue_is_noop(self, world):
        from repro.smtp.delivery import SendingMta
        from repro.smtp.queue import MailQueue
        sender = SendingMta("q.net", world.network, world.resolver,
                            world.trust_store, world.clock)
        before = world.clock.now()
        MailQueue(sender, world.clock).drain()
        assert world.clock.now() == before


class TestRecordRendering:
    def test_render_includes_extensions(self):
        from repro.core.record import StsRecord
        record = StsRecord("STSv1", "20240101", (("ext", "v"),))
        assert record.render() == "v=STSv1; id=20240101; ext=v;"

    def test_mx_observation_defaults(self):
        from repro.measurement.snapshots import MxObservation
        observation = MxObservation(hostname="mx.x.com")
        assert not observation.cert_valid
        assert observation.failure_class == ""
