"""Tests for the retrying mail queue and the policy refresh daemon."""

import pytest

from repro.clock import DAY, Duration
from repro.core.policy import Policy, PolicyMode, render_policy
from repro.core.refresh import RefreshDaemon
from repro.core.sender import MtaStsSender
from repro.ecosystem.deployment import DomainSpec, deploy_domain
from repro.ecosystem.misconfig import Fault, apply_fault
from repro.smtp.delivery import DeliveryStatus, Message, SendingMta
from repro.smtp.queue import MailQueue, QueueOutcome


@pytest.fixture
def plain_sender(world):
    return SendingMta("queue.relay.net", world.network, world.resolver,
                      world.trust_store, world.clock)


class TestMailQueue:
    def test_immediate_delivery(self, world, plain_sender, simple_domain):
        queue = MailQueue(plain_sender, world.clock)
        entry = queue.submit(Message("a@q.net", "b@example.com"))
        assert entry.outcome is QueueOutcome.DELIVERED
        assert entry.attempts == 1

    def test_permanent_failure_bounces(self, world, plain_sender):
        queue = MailQueue(plain_sender, world.clock)
        entry = queue.submit(Message("a@q.net", "b@nonexistent.org"))
        assert entry.outcome is QueueOutcome.BOUNCED
        assert entry.last_status is DeliveryStatus.NO_MX

    def test_temporary_failure_retries(self, world, plain_sender,
                                       simple_domain):
        from repro.netsim.network import TcpBehavior
        from repro.smtp.server import SMTP_PORT
        mx = simple_domain.mx_hosts[0]
        world.network.set_behavior(mx.ip, SMTP_PORT, TcpBehavior.TIMEOUT)
        queue = MailQueue(plain_sender, world.clock)
        entry = queue.submit(Message("a@q.net", "b@example.com"))
        assert entry.active
        assert entry.last_status is DeliveryStatus.UNREACHABLE
        # The MX comes back; the retry delivers.
        world.network.set_behavior(mx.ip, SMTP_PORT, TcpBehavior.ACCEPT)
        world.clock.advance(Duration(15 * 60))
        queue.run_due()
        assert entry.outcome is QueueOutcome.DELIVERED
        assert entry.attempts == 2

    def test_not_retried_before_schedule(self, world, plain_sender,
                                         simple_domain):
        from repro.netsim.network import TcpBehavior
        from repro.smtp.server import SMTP_PORT
        mx = simple_domain.mx_hosts[0]
        world.network.set_behavior(mx.ip, SMTP_PORT, TcpBehavior.TIMEOUT)
        queue = MailQueue(plain_sender, world.clock)
        entry = queue.submit(Message("a@q.net", "b@example.com"))
        world.clock.advance(Duration(60))
        assert queue.run_due() == []     # too early
        assert entry.attempts == 1

    def test_exhausted_schedule_bounces(self, world, plain_sender,
                                        simple_domain):
        from repro.netsim.network import TcpBehavior
        from repro.smtp.server import SMTP_PORT
        mx = simple_domain.mx_hosts[0]
        world.network.set_behavior(mx.ip, SMTP_PORT, TcpBehavior.TIMEOUT)
        queue = MailQueue(plain_sender, world.clock,
                          retry_schedule=(Duration(60), Duration(60)))
        entry = queue.submit(Message("a@q.net", "b@example.com"))
        queue.drain()
        assert entry.outcome is QueueOutcome.BOUNCED
        assert entry.attempts == 3      # initial + 2 retries

    def test_lifetime_cap(self, world, plain_sender, simple_domain):
        from repro.netsim.network import TcpBehavior
        from repro.smtp.server import SMTP_PORT
        mx = simple_domain.mx_hosts[0]
        world.network.set_behavior(mx.ip, SMTP_PORT, TcpBehavior.TIMEOUT)
        queue = MailQueue(plain_sender, world.clock,
                          retry_schedule=(DAY, DAY, DAY, DAY, DAY, DAY),
                          lifetime=Duration(2 * 86_400))
        entry = queue.submit(Message("a@q.net", "b@example.com"))
        queue.drain()
        assert entry.outcome is QueueOutcome.BOUNCED
        assert entry.attempts <= 4

    def test_policy_refusal_retried_until_policy_fixed(self, world,
                                                       fetcher,
                                                       simple_domain):
        """The lucidgrow pattern: an enforce-mode mismatch bounces until
        the provider fixes the policy, then the queued mail flows."""
        policy = Policy(version="STSv1", mode=PolicyMode.ENFORCE,
                        max_age=3600, mx_patterns=("mail.example.com",))
        simple_domain.spec.policy = policy      # the injector keeps mode
        simple_domain.set_policy_text(render_policy(policy))
        apply_fault(world, simple_domain, Fault.MISMATCH_DOMAIN)
        world.resolver.flush_cache()
        sender = MtaStsSender("relay.net", world.network, world.resolver,
                              world.trust_store, world.clock, fetcher)
        queue = MailQueue(sender, world.clock)
        entry = queue.submit(Message("a@q.net", "b@example.com"))
        assert entry.active
        assert entry.last_status is DeliveryStatus.REFUSED_BY_POLICY
        # The provider fixes the mx patterns; the cached bad policy
        # expires (max_age 1h) before the next retries finish.
        simple_domain.set_policy_text(render_policy(policy))
        simple_domain.set_record("v=STSv1; id=fixed1;")
        world.resolver.flush_cache()
        queue.drain()
        assert entry.outcome is QueueOutcome.DELIVERED

    def test_greylisted_mx_delivers_via_retry(self, world, plain_sender,
                                              simple_domain):
        mx = simple_domain.mx_hosts[0]
        mx.greylist_first_contact = True
        queue = MailQueue(plain_sender, world.clock)
        entry = queue.submit(Message("a@q.net", "b@example.com"))
        # The SendingMta itself retries EHLO once after greylisting, so
        # even first contact succeeds; the queue records one attempt.
        assert entry.outcome is QueueOutcome.DELIVERED
        assert entry.attempts == 1


class TestRefreshDaemon:
    def _prime(self, world, fetcher, max_age=3 * 86_400):
        deployed = deploy_domain(world, DomainSpec(
            domain="fresh.com",
            policy=Policy(version="STSv1", mode=PolicyMode.ENFORCE,
                          max_age=max_age,
                          mx_patterns=("mail.fresh.com",))))
        sender = MtaStsSender("relay.net", world.network, world.resolver,
                              world.trust_store, world.clock, fetcher)
        sender.send(Message("a@r.net", "b@fresh.com"))
        assert sender.cache.get("fresh.com") is not None
        return deployed, sender

    def test_not_due_before_window(self, world, fetcher):
        _, sender = self._prime(world, fetcher)
        daemon = RefreshDaemon(sender.cache, fetcher, world.clock)
        assert daemon.due_entries() == []

    def test_revalidation_restarts_clock(self, world, fetcher):
        _, sender = self._prime(world, fetcher)
        daemon = RefreshDaemon(sender.cache, fetcher, world.clock)
        world.clock.advance(Duration(2 * 86_400 + 3600))   # inside window
        results = daemon.run_once()
        assert [r.action for r in results] == ["revalidated"]
        # The entry is fresh again for a full max_age.
        world.clock.advance(Duration(2 * 86_400))
        assert sender.cache.get("fresh.com") is not None

    def test_refresh_picks_up_new_policy(self, world, fetcher):
        deployed, sender = self._prime(world, fetcher)
        daemon = RefreshDaemon(sender.cache, fetcher, world.clock)
        new_policy = Policy(version="STSv1", mode=PolicyMode.TESTING,
                            max_age=86_400,
                            mx_patterns=("mail.fresh.com",))
        deployed.set_policy_text(render_policy(new_policy))
        deployed.set_record("v=STSv1; id=v2;")
        world.resolver.flush_cache()
        world.clock.advance(Duration(2 * 86_400 + 3600))
        results = daemon.run_once()
        assert [r.action for r in results] == ["refreshed"]
        assert sender.cache.get("fresh.com").policy.mode is \
            PolicyMode.TESTING

    def test_missing_record_lets_cache_age_out(self, world, fetcher):
        deployed, sender = self._prime(world, fetcher)
        daemon = RefreshDaemon(sender.cache, fetcher, world.clock)
        deployed.remove_record()
        world.resolver.flush_cache()
        world.clock.advance(Duration(2 * 86_400 + 3600))
        results = daemon.run_once()
        assert [r.action for r in results] == ["skipped"]
        world.clock.advance(Duration(86_400))
        assert sender.cache.get("fresh.com") is None    # aged out

    def test_fetch_failure_reported(self, world, fetcher):
        deployed, sender = self._prime(world, fetcher)
        daemon = RefreshDaemon(sender.cache, fetcher, world.clock)
        deployed.set_record("v=STSv1; id=v2;")
        apply_fault(world, deployed, Fault.POLICY_HTTP_404)
        world.resolver.flush_cache()
        world.clock.advance(Duration(2 * 86_400 + 3600))
        results = daemon.run_once()
        assert [r.action for r in results] == ["fetch-failed"]

    def test_run_until_keeps_rarely_mailed_domain_warm(self, world,
                                                       fetcher):
        _, sender = self._prime(world, fetcher)
        daemon = RefreshDaemon(sender.cache, fetcher, world.clock)
        for _ in range(30):
            world.clock.advance(Duration(86_400))
            daemon.run_once()
        # A month later — far beyond max_age — the policy is still hot.
        assert sender.cache.get("fresh.com") is not None
