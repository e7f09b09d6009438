"""Unit tests for DNS names, eSLD derivation, and edit distance."""

import pytest

from repro.dns.name import (
    DnsName, effective_sld, levenshtein, registrable_part,
)


class TestParsing:
    def test_simple_name(self):
        name = DnsName.parse("mail.example.com")
        assert name.labels == ("mail", "example", "com")

    def test_lowercased(self):
        assert DnsName.parse("MAIL.Example.COM").text == "mail.example.com"

    def test_trailing_dot_stripped(self):
        assert DnsName.parse("example.com.").text == "example.com"

    def test_underscore_labels(self):
        assert DnsName.parse("_mta-sts.example.com").labels[0] == "_mta-sts"

    def test_wildcard_label(self):
        assert DnsName.parse("*.example.com").labels[0] == "*"

    @pytest.mark.parametrize("bad", ["", ".", "a..b", "-leading.example.com",
                                     "trailing-.example.com",
                                     "a" * 64 + ".com"])
    def test_invalid_names(self, bad):
        with pytest.raises(ValueError):
            DnsName.parse(bad)

    def test_try_parse_returns_none(self):
        assert DnsName.try_parse("a..b") is None
        assert DnsName.try_parse("ok.example.com") is not None

    def test_total_length_limit(self):
        label = "a" * 60
        too_long = ".".join([label] * 5)
        with pytest.raises(ValueError):
            DnsName.parse(too_long)


class TestArithmetic:
    def test_parent(self):
        assert DnsName.parse("a.b.c").parent().text == "b.c"

    def test_parent_of_tld_fails(self):
        with pytest.raises(ValueError):
            DnsName.parse("com").parent()

    def test_child(self):
        assert DnsName.parse("example.com").child("mail").text == \
            "mail.example.com"

    def test_subdomain_relations(self):
        apex = DnsName.parse("example.com")
        sub = DnsName.parse("a.b.example.com")
        assert sub.is_subdomain_of(apex)
        assert apex.is_subdomain_of(apex)
        assert not apex.is_subdomain_of(sub)

    def test_not_subdomain_of_partial_label(self):
        assert not DnsName.parse("notexample.com").is_subdomain_of(
            DnsName.parse("example.com"))

    def test_tld(self):
        assert DnsName.parse("mail.example.se").tld() == "se"


class TestEffectiveSld:
    def test_plain_tld(self):
        assert effective_sld("mail.example.com").text == "example.com"

    def test_name_is_already_sld(self):
        assert effective_sld("example.com").text == "example.com"

    def test_bare_tld_has_no_sld(self):
        assert effective_sld("com") is None

    def test_multi_label_suffix(self):
        assert effective_sld("www.example.co.uk").text == "example.co.uk"

    def test_bare_multi_label_suffix(self):
        assert effective_sld("co.uk") is None

    def test_registrable_part_falls_back(self):
        assert registrable_part("com") == "com"
        assert registrable_part("deep.sub.example.org") == "example.org"


class TestLevenshtein:
    def test_identical(self):
        assert levenshtein("abc", "abc") == 0

    def test_single_edit(self):
        assert levenshtein("mail", "mial") == 2   # transposition = 2 edits
        assert levenshtein("mail", "mall") == 1
        assert levenshtein("mail", "mails") == 1
        assert levenshtein("mail", "ail") == 1

    def test_known_distance(self):
        assert levenshtein("kitten", "sitting") == 3

    def test_cap_short_circuits(self):
        assert levenshtein("a" * 50, "b" * 50, cap=3) == 4

    def test_cap_exact_boundary(self):
        assert levenshtein("abc", "abd", cap=1) == 1

    def test_length_difference_beyond_cap(self):
        assert levenshtein("a", "a" * 10, cap=3) == 4

    def test_symmetry(self):
        assert levenshtein("flaw", "lawn") == levenshtein("lawn", "flaw")


class TestCanonicalHost:
    def test_basic_canonicalisation(self):
        from repro.dns.name import canonical_host
        assert canonical_host(" MX1.Example.COM. ") == "mx1.example.com"
        assert canonical_host(DnsName.parse("A.B.C")) == "a.b.c"

    def test_casefold_not_lower(self):
        from repro.dns.name import canonical_host
        # Dotted capital I and sharp s have case mappings that
        # str.lower() and str.casefold() disagree on; every comparison
        # site must fold the same way, so the helper pins casefold.
        assert canonical_host("ẞ.example") == "ss.example"
        assert canonical_host("İ.example") == "İ".casefold() + ".example"

    def test_empty_label_guard(self):
        from repro.dns.name import canonical_host
        assert canonical_host("a..b") == ""
        assert canonical_host(".") == ""
        assert canonical_host("") == ""
        assert canonical_host("   ") == ""

    def test_parse_matches_canonical_host(self):
        from repro.dns.name import canonical_host
        for text in ("MX1.Example.COM.", "  a.b  ", "X_Y.example"):
            assert DnsName.parse(text).text == canonical_host(text)
