"""JSON API conformance vs the reference's golden responses
(test/files/api/basicapi-*.json and advancedapi-*.json, built by
test/integrationAPI.py:23-127).  BOTH golden families are asserted as
JSON value equality: the basicapi set over test/files/base, the
advancedapi set over the three examplerepos corpora (see the
``advanced_*`` fixtures below).

The golden families are asserted only where the reference tree exists:
each golden test skips on the directory it reads (``BASE`` for the
basicapi set, ``TESTREPOS`` for the advancedapi set).
``test_cap_applies_to_post_filter_hits`` builds its own index and runs
everywhere."""

import json
import os

import pytest

from ferenda_ray.sources.turtle import parse_turtle
from ferenda_ray.stages.api import (api_search, api_stats, doc_meta,
                                    resource_rows)

BASE = "/root/reference/test/files/base"
API = "/root/reference/test/files/api"

needs_base = pytest.mark.skipif(not os.path.isdir(BASE),
                                reason="reference tree absent")


def _corpus():
    docs, triples = [], []
    for bf in ("a", "b", "c"):
        with open(f"{BASE}/parsed/123/{bf}.xhtml") as fp:
            docs.append({"doc_uri": f"http://example.org/base/123/{bf}",
                         "basefile": f"123/{bf}", "repo": "base",
                         "xhtml": fp.read()})
        with open(f"{BASE}/distilled/123/{bf}.ttl") as fp:
            triples.extend(parse_turtle(fp.read()))
    return resource_rows(docs), doc_meta(triples)


def _want(name):
    with open(f"{API}/{name}") as fp:
        return json.load(fp)


INDEX, META = _corpus() if os.path.isdir(BASE) else (None, None)


@needs_base
def test_fulltext_query():
    got = api_search(INDEX, META, q="tail",
                     query_string="q=tail")
    assert got == _want("basicapi-fulltext-query.json")


@needs_base
def test_faceted_query():
    got = api_search(INDEX, META,
                     filters={"dcterms_publisher": "*/publisher/A"},
                     query_string="dcterms_publisher=*%2Fpublisher%2FA")
    assert got == _want("basicapi-faceted-query.json")


@needs_base
def test_complex_query():
    got = api_search(INDEX, META, q="haystack",
                     filters={"dcterms_publisher": "*/publisher/B"},
                     query_string="q=haystack&dcterms_publisher="
                                  "*%2Fpublisher%2FB")
    assert got == _want("basicapi-complex-query.json")


@needs_base
def test_stats():
    assert api_stats(META) == _want("basicapi-stats.json")


@needs_base
def test_stats_legacy():
    assert api_stats(META, legacy=True) \
        == _want("basicapi-stats.legacy.json")


@needs_base
def test_complex_query_legacy():
    got = api_search(INDEX, META, q="haystack",
                     filters={"publisher": "*/publisher/B"},
                     path="/-/publ", legacy=True,
                     query_string="q=haystack&publisher="
                                  "*%2Fpublisher%2FB")
    assert got == _want("basicapi-complex-query.legacy.json")


@needs_base
def test_distributed_index(ray_session):
    """The same index rows as a Ray Dataset give identical responses
    (scoring runs in map_batches, only hits are collected)."""
    import ray.data as rd
    ds = rd.from_arrow(INDEX)
    got = api_search(ds, META, q="tail", query_string="q=tail")
    assert got == _want("basicapi-fulltext-query.json")


@needs_base
def test_fulltext_query_legacy():
    got = api_search(INDEX, META, q="tail", path="/-/publ",
                     legacy=True, query_string="q=tail")
    assert got == _want("basicapi-fulltext-query.legacy.json")


@needs_base
def test_faceted_query_legacy():
    # the reference's legacy test reuses the non-legacy querystring
    # verbatim (integrationAPI.py:91-104), so 'current' keeps the
    # dcterms_ prefix even in legacy mode
    got = api_search(INDEX, META, filters={"publisher": "*/publisher/A"},
                     path="/-/publ", legacy=True,
                     query_string="dcterms_publisher=*%2Fpublisher%2FA")
    assert got == _want("basicapi-faceted-query.legacy.json")


# --- advanced API (examplerepos DocRepo1-3, advancedapi-* goldens) --------

TESTREPOS = "/root/reference/test/files/testrepos"


def _advanced_rows():
    from ferenda_ray.stages.api import build_advanced_rows, label_map
    # the commondata label graph is inline turtle in the reference's
    # examplerepos.py (DocRepo1.commondata) — read it as fixture data
    src = open("/root/reference/test/examplerepos.py").read()
    ttl = src.split('data="""', 1)[1].split('"""', 1)[0]
    labels = label_map(parse_turtle(ttl))
    docs = []
    for repo in ("repo1", "repo2", "repo3"):
        for bf in "abcd":
            with open(f"{TESTREPOS}/{repo}/parsed/{bf}.xhtml") as fp:
                docs.append({
                    "repo": repo,
                    "doc_uri": f"http://example.org/{repo}/{bf}",
                    "xhtml": fp.read()})
    return build_advanced_rows(docs, labels)


ADV_ROWS = _advanced_rows() if os.path.isdir(TESTREPOS) else []
needs_testrepos = pytest.mark.skipif(not ADV_ROWS,
                                     reason="testrepos absent")


@needs_testrepos
def test_advanced_indexing():
    from ferenda_ray.stages.api import advanced_query
    got = advanced_query(ADV_ROWS, {"uri": "*/repo1/a"},
                         query_string="uri=*/repo1/a")
    assert got == _want("advancedapi-indexing.json")


@needs_testrepos
def test_advanced_faceting():
    from ferenda_ray.stages.api import advanced_stats
    assert advanced_stats(ADV_ROWS) == _want("advancedapi-faceting.json")


@needs_testrepos
def test_advanced_query_parameters():
    from ferenda_ray.stages.api import advanced_query
    got = advanced_query(ADV_ROWS,
                         {"dc_subject": "red", "schema_free": "true"},
                         query_string="dc_subject=red&schema_free=true")
    assert got == _want("advancedapi-query-parameters.json")


@needs_testrepos
def test_advanced_query_type():
    from ferenda_ray.stages.api import advanced_query
    got = advanced_query(ADV_ROWS, {"rdf_type": "ex:OtherType"},
                         query_string="rdf_type=ex:OtherType")
    assert got == _want("advancedapi-query-type.json")


@needs_testrepos
def test_advanced_query_customfacet():
    from ferenda_ray.stages.api import advanced_query
    got = advanced_query(ADV_ROWS,
                         {"aprilfools": "true", "_stats": "on"},
                         query_string="aprilfools=true&_stats=on")
    assert got == _want("advancedapi-query-customfacet.json")


@needs_testrepos
def test_advanced_query_range():
    from ferenda_ray.stages.api import advanced_query
    got = advanced_query(
        ADV_ROWS,
        {"min-dcterms_issued": "2012-04-01",
         "max-dcterms_issued": "2012-04-03"},
        query_string="min-dcterms_issued=2012-04-01"
                     "&max-dcterms_issued=2012-04-03")
    assert got == _want("advancedapi-query-range.json")


@needs_testrepos
def test_advanced_query_yearselector():
    from ferenda_ray.stages.api import advanced_query
    got = advanced_query(ADV_ROWS, {"year-dcterms_issued": "2013"},
                         query_string="year-dcterms_issued=2013")
    assert got == _want("advancedapi-query-yearselector.json")


def test_cap_applies_to_post_filter_hits(ray_session):
    """The facet filter runs inside the distributed score pass, so
    rows excluded by the filter never consume max_hits slots:
    totalResults counts exactly the allowed matches even when the raw
    text-match count exceeds the cap."""
    import pyarrow as pa
    import ray.data as rd

    n = 40
    idx = pa.table({
        "doc_uri": [f"http://x/d{i}" for i in range(n)],
        "uri": [f"http://x/d{i}" for i in range(n)],
        "basefile": [f"d{i}" for i in range(n)],
        "repo": ["base"] * n,
        "title": [f"doc {i}" for i in range(n)],
        "text": ["needle in every doc"] * n,
    })
    meta = {f"http://x/d{i}": {
        "iri": f"http://x/d{i}",
        "dcterms_publisher": ("http://pub/A" if i >= n - 3
                              else "http://pub/B")} for i in range(n)}
    got = api_search(rd.from_arrow(idx), meta, q="needle",
                     filters={"dcterms_publisher": "*pub/A"},
                     max_hits=5)
    # only 3 docs pass the filter; the 37 pub/B matches (which arrive
    # FIRST in scan order) must not eat the 5-row cap
    assert got["totalResults"] == 3
    assert len(got["items"]) == 3
