"""Tests for DomainName."""

import copy
import pickle

import pytest

from repro.dns.name import ROOT, DomainName
from repro.errors import NameError_
from repro.rng import stable_hash


class TestParsing:
    def test_basic(self):
        assert DomainName("www.example.com").labels == ("www", "example", "com")

    def test_case_insensitive(self):
        assert DomainName("WWW.Example.COM") == DomainName("www.example.com")

    def test_trailing_dot_accepted(self):
        assert DomainName("example.com.") == DomainName("example.com")

    def test_root(self):
        assert DomainName("").is_root
        assert DomainName(".").is_root
        assert str(ROOT) == "."

    def test_from_labels_iterable(self):
        assert DomainName(("www", "example", "com")) == DomainName("www.example.com")

    def test_copy_constructor(self):
        name = DomainName("a.b.c")
        assert DomainName(name) == name

    @pytest.mark.parametrize("bad", ["a..b", "-bad.com", "bad-.com", "ex ample.com", "a!b.com"])
    def test_invalid_names(self, bad):
        with pytest.raises(NameError_):
            DomainName(bad)

    def test_label_too_long(self):
        with pytest.raises(NameError_):
            DomainName("a" * 64 + ".com")

    def test_name_too_long(self):
        with pytest.raises(NameError_):
            DomainName(".".join(["abcdefgh"] * 40))


class TestStructure:
    def test_parent(self):
        assert DomainName("www.example.com").parent() == DomainName("example.com")

    def test_parent_of_root_raises(self):
        with pytest.raises(NameError_):
            ROOT.parent()

    def test_child(self):
        assert DomainName("example.com").child("WWW") == DomainName("www.example.com")

    def test_tld(self):
        assert DomainName("www.example.com").tld == "com"
        with pytest.raises(NameError_):
            _ = ROOT.tld

    def test_is_subdomain_of(self):
        name = DomainName("a.b.example.com")
        assert name.is_subdomain_of("example.com")
        assert name.is_subdomain_of("b.example.com")
        assert name.is_subdomain_of(name)
        assert name.is_subdomain_of(ROOT)
        assert not name.is_subdomain_of("other.com")
        assert not DomainName("example.com").is_subdomain_of("www.example.com")

    def test_subdomain_requires_label_boundary(self):
        # "badexample.com" is not under "example.com".
        assert not DomainName("badexample.com").is_subdomain_of("example.com")

    def test_ancestors(self):
        ancestors = DomainName("a.b.example.com").ancestors()
        assert [str(a) for a in ancestors] == ["b.example.com", "example.com", "com"]

    def test_suffixes_longest_first(self):
        suffixes = DomainName("www.example.com").suffixes()
        assert [str(s) for s in suffixes] == ["www.example.com", "example.com", "com"]

    def test_apex_and_www(self):
        name = DomainName("deep.www.example.com")
        assert name.apex == DomainName("example.com")
        assert name.www() == DomainName("www.example.com")
        assert DomainName("example.com").is_apex
        assert not name.is_apex

    def test_apex_of_tld_raises(self):
        with pytest.raises(NameError_):
            _ = DomainName("com").apex


class TestValueSemantics:
    def test_equality_with_string(self):
        assert DomainName("example.com") == "EXAMPLE.com"
        assert DomainName("example.com") == "example.com."
        assert DomainName("example.com") != "other.com"
        assert DomainName("example.com") != "not a valid...name!!"

    def test_hash_consistency(self):
        assert len({DomainName("a.com"), DomainName("A.com")}) == 1

    def test_ordering_is_reversed_label_order(self):
        # DNS canonical ordering groups names by suffix.
        names = sorted([DomainName("b.com"), DomainName("a.net"), DomainName("a.com")])
        assert [str(n) for n in names] == ["a.com", "b.com", "a.net"]

    def test_len_is_label_count(self):
        assert len(DomainName("a.b.c")) == 3
        assert len(ROOT) == 0

    def test_str_roundtrip(self):
        assert DomainName(str(DomainName("x.y.io"))) == DomainName("x.y.io")


class TestInterning:
    def test_text_labels_and_copy_give_one_object(self):
        name = DomainName("WWW.Example.com.")
        assert DomainName(("www", "example", "com")) is name
        assert DomainName(["WWW", "EXAMPLE", "COM"]) is name
        assert DomainName("www.example.com") is name
        assert DomainName(name) is name

    def test_root_is_interned(self):
        assert DomainName("") is ROOT
        assert DomainName(".") is ROOT
        assert DomainName(()) is ROOT

    def test_derived_names_are_interned(self):
        name = DomainName("deep.www.example.com")
        assert name.parent() is DomainName("www.example.com")
        expected = ("deep.www.example.com", "www.example.com", "example.com", "com")
        assert all(
            got is DomainName(text) for got, text in zip(name.suffixes(), expected)
        )
        assert name.apex is DomainName("example.com")
        assert name.www() is DomainName("www.example.com")
        assert DomainName("example.com").child("WWW") is DomainName("www.example.com")

    @pytest.mark.parametrize(
        "text, labels",
        [
            ("", ()),
            ("com", ("com",)),
            ("www.example.com", ("www", "example", "com")),
            ("ns1.cloudflare.net", ("ns1", "cloudflare", "net")),
        ],
    )
    def test_hash_is_stable_hash_of_labels(self, text, labels):
        assert DomainName(text)._hash == stable_hash(labels)

    def test_golden_hashes(self):
        # Pinned values: set/dict layouts and every artifact depend on them.
        assert hash(ROOT) == 0x1E0F3C2932570DA9
        assert hash(DomainName("www.example.com")) == 0x3215AB07B403AE94
        assert hash(DomainName("ns1.cloudflare.net")) == 0x2F0B0F65B5F26CD5

    def test_pickle_preserves_identity(self):
        name = DomainName("a.b.example.org")
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(name, protocol)) is name
        assert pickle.loads(pickle.dumps(ROOT)) is ROOT

    def test_copy_and_deepcopy_preserve_identity(self):
        name = DomainName("x.example.net")
        assert copy.copy(name) is name
        assert copy.deepcopy(name) is name
        assert copy.deepcopy({name: [name]}) == {name: [name]}

    def test_bad_name_raises_every_time(self):
        for _ in range(2):
            with pytest.raises(NameError_):
                DomainName("bad..name.com")
        for _ in range(2):
            with pytest.raises(NameError_):
                DomainName(("bad", "", "com"))
