"""URI minting: determinism, template priority, round-trip inverse.

Mirrors the reference's COIN tests and the canonical_uri /
basefile_from_uri inverse property (swedishlegalsource.py:437-448)."""

import os

import pytest
from hypothesis import given, strategies as st

from ferenda_ray.uri import (
    DEFAULT_BASE, SlugTransform, Template, URISpace, basefile_from_uri,
    doc_uri, entity_uri, frag_uri)


def test_doc_uri_shape():
    u = doc_uri("org0/repo1", "src/a.py", "ab" * 20)
    assert u == f"{DEFAULT_BASE}res/org0/repo1/src/a.py@{'ab' * 20}"


def test_frag_uri():
    u = doc_uri("org0/repo1", "src/a.py", "c" * 40)
    assert frag_uri(u, "2.1") == u + "#S2.1"


def test_roundtrip_simple():
    u = doc_uri("org0/repo1", "src/pkg/a.py", "f" * 40)
    got = basefile_from_uri(u)
    assert got == {"repo": "org0/repo1", "path": "src/pkg/a.py",
                   "commit": "f" * 40, "ordinal": None}


def test_roundtrip_fragment():
    u = frag_uri(doc_uri("o/r", "x/y.go", "1" * 40), "3")
    got = basefile_from_uri(u)
    assert got["ordinal"] == "3"
    assert got["path"] == "x/y.go"


def test_non_space_uri_rejected():
    assert basefile_from_uri("https://other.example/res/a/b") is None
    assert basefile_from_uri(entity_uri("x")) is None


_path_seg = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789_-", min_size=1, max_size=8)


@given(org=_path_seg, name=_path_seg,
       segs=st.lists(_path_seg, min_size=1, max_size=4),
       commit=st.text(alphabet="0123456789abcdef", min_size=7, max_size=40),
       ordinal=st.one_of(st.none(), st.from_regex(r"[1-9](\.[1-9]){0,2}",
                                                  fullmatch=True)))
def test_roundtrip_property(org, name, segs, commit, ordinal):
    repo = f"{org}/{name}"
    path = "/".join(segs)
    u = doc_uri(repo, path, commit)
    if ordinal:
        u = frag_uri(u, ordinal)
    got = basefile_from_uri(u)
    assert got == {"repo": repo, "path": path, "commit": commit,
                   "ordinal": ordinal}


def test_template_priority_and_specificity():
    space = URISpace("https://x.org/", [
        Template(uri_template="{+base}a/{p}", bindings=frozenset({"p"})),
        Template(uri_template="{+base}b/{p}/{q}",
                 bindings=frozenset({"p", "q"})),
    ])
    # more-specific template wins when both match (coin.py:38-41)
    assert space.mint({"p": "x", "q": "y"}) == "https://x.org/b/x/y"
    assert space.mint({"p": "x"}) == "https://x.org/a/x"
    assert space.mint({}) is None


def test_slug_transform():
    s = SlugTransform(char_replacements=(("å", "a"),))
    assert s("  Hello World å ") == "hello_world_a"


def test_for_type_gate():
    t = Template(uri_template="{+base}t/{p}", bindings=frozenset({"p"}),
                 for_type="Doc")
    space = URISpace("https://x.org/", [t])
    assert space.mint({"p": "v"}) is None
    assert space.mint({"p": "v", "rdf_type": "Doc"}) == "https://x.org/t/v"


def test_fragment_template_recursive_base():
    # relToBase semantics (coin.py:181-202): fragment minted off a
    # recursively-minted parent
    space = URISpace("https://x.org/", [
        Template(uri_template="{+base}d/{p}", bindings=frozenset({"p"})),
        Template(uri_template="", fragment_template="#F{o}",
                 bindings=frozenset({"o"}), raw_bindings=frozenset({"o"}),
                 priority=1),
    ])
    assert space.mint({"o": "2", "parent": {"p": "doc"}}) == \
        "https://x.org/d/doc#F2"


# --- legaluri conformance (test/files/legaluri, integrationLegalURI
#     Construct) -----------------------------------------------------------

LEGALURI_FIXDIR = "/root/reference/test/files/legaluri"


@pytest.mark.skipif(not os.path.isdir(LEGALURI_FIXDIR),
                    reason="fixtures absent")
def test_legaluri_construct_fixtures():
    import ast
    import glob
    from ferenda_ray.uri import legaluri_construct
    pairs = sorted(glob.glob(os.path.join(LEGALURI_FIXDIR, "*.py")))
    assert len(pairs) >= 4
    for py in pairs:
        with open(py) as fp:
            attrs = ast.literal_eval(fp.read().strip())
        with open(py[:-3] + ".txt") as fp:
            want = fp.read().strip()
        assert legaluri_construct(attrs) == want, py


def test_legaluri_lagrum_fragment():
    from ferenda_ray.uri import legaluri_construct
    assert legaluri_construct({"type": 1, "law": "1962:700",
                               "chapter": "4", "section": "9"}) \
        == "http://rinfo.lagrummet.se/publ/sfs/1962:700#K4P9"
