"""Map-column operator tests (TagsFilter / attribute-map analogs)."""

import pyarrow as pa

from hypertrace_ingester_ray.functions.maps import (
    filter_map_keys,
    lowercase_map_keys,
    map_get,
)


def _maps(rows):
    return pa.chunked_array(
        [pa.array(rows, pa.map_(pa.string(), pa.string()))]
    )


def test_lowercase_keys():
    col = _maps([[("Foo", "1"), ("BAR", "2")], []])
    out = lowercase_map_keys(col)
    assert out.to_pylist() == [[("foo", "1"), ("bar", "2")], []]


def test_filter_denied_prefix_with_allow_list():
    col = _maps(
        [
            [("http.url", "u"), ("http.secret", "s"), ("grpc.code", "0")],
            [("http.method", "GET")],
            [],
        ]
    )
    out = filter_map_keys(
        col, denied_prefixes=["http."], allow_list=["http.url"]
    )
    assert out.to_pylist() == [
        [("http.url", "u"), ("grpc.code", "0")],
        [],
        [],
    ]


def test_map_get_first_match_and_nulls():
    col = _maps(
        [
            [("a", "1"), ("b", "2"), ("a", "dup")],
            [("b", "3")],
            [],
        ]
    )
    out = map_get(col, "a")
    assert out.to_pylist() == ["1", None, None]


def test_conventions_helpers():
    """M12 convention helpers: url build, host:port split, status family."""
    import pyarrow as pa

    from hypertrace_ingester_ray.functions import conventions as cv

    url = cv.build_url(
        pa.array(["SQL", "HTTP", None]),
        pa.array(["db", "svc", "x"]),
        pa.array(["/q", None, "/y"]),
    )
    assert url.to_pylist() == ["sql://db/q", "http://svc", None]

    host, port = cv.split_host_port(pa.array(["db:5432", "svc", "a:1"]))
    assert host.to_pylist() == ["db", "svc", "a"]
    assert port.to_pylist() == [5432, None, 1]

    sc = cv.status_class(pa.array([200, 404, 503, None], pa.int32()))
    assert sc.to_pylist() == ["2xx", "4xx", "5xx", None]
    assert cv.is_client_error(pa.array([400, 200, None], pa.int32())).to_pylist() == [True, False, None]
    assert cv.is_server_error(pa.array([500, 404], pa.int32())).to_pylist() == [True, False]

    full = cv.full_http_url(
        pa.array(["GET"]), pa.array(["svc"]), pa.array(["/p"]), pa.array(["a=1"])
    )
    assert full.to_pylist() == ["GET http://svc/p?a=1"]


def test_serialize_map_sliced_offsets():
    """serialize_map must rebase offsets for a SLICED MapArray (non-zero
    offset keeps full child arrays, ADVICE r2)."""
    import pyarrow as pa
    from hypertrace_ingester_ray.functions.maps import serialize_map

    m = pa.array(
        [[("b", "2"), ("a", "1")], [("c", "3")], [("d", "4"), ("e", "5")]],
        pa.map_(pa.string(), pa.string()),
    )
    sliced = m.slice(1, 2)
    out = serialize_map(sliced).to_pylist()
    assert out == ["c=3", "d=4;e=5"]
    # full array still key-sorts within rows
    assert serialize_map(m).to_pylist() == ["a=1;b=2", "c=3", "d=4;e=5"]


def test_parse_query_params_order_independent_of_call_mates():
    """A row's map must not depend on the other rows parsed in the same
    call: entries are ordered by key string, so 'hdr' sorts before 'page'
    whichever key the call saw first."""
    from hypertrace_ingester_ray.functions.maps import parse_query_params

    q = "page=1&tag=a&hdr=x&tag=b"
    alone = parse_query_params(pa.array([q])).to_pylist()
    mixed = parse_query_params(pa.array(["zz=1&page=2", q, "hdr=3"])).to_pylist()
    assert mixed[1] == alone[0]
    assert [k.rsplit(".", 1)[1] for k, _ in alone[0]] == ["hdr", "page", "tag"]
    assert dict(alone[0])["http.request.query.param.tag"] == "a,b"


def test_tags_independent_of_partition_mates():
    """The same conversation processed alone and next to a conversation
    with different query keys gives identical per_turn tags."""
    from hypertrace_ingester_ray.enrichers import build_default_registry
    from hypertrace_ingester_ray.pipelines.ingest import process_partition
    from hypertrace_ingester_ray.stages.normalize import normalize_batch

    def conv(cid, queries):
        n = len(queries)
        return pa.table(
            {
                "conv_id": pa.array([cid] * n, pa.string()),
                "turn_idx": pa.array(range(n), pa.int32()),
                "role": pa.array(["user"] * n, pa.string()),
                "text": pa.array(
                    [f"GET /api/v{i}?{q} HTTP/1.1 status=200 dur_ms=5 bytes=9"
                     for i, q in enumerate(queries)],
                    pa.string(),
                ),
                "tool": pa.array([None] * n, pa.string()),
                "ts": pa.array([1000 + i for i in range(n)], pa.timestamp("us")),
            }
        )

    target = conv("B", ["page=1&q=view&hdr=x", "stmt=s&page=2"])
    # "A" sorts first, so its keys reach the dictionary before B's
    mate = conv("A", ["stmt=1&zz=2&hdr=4", "body=b&q=v"])
    registry = build_default_registry()

    def tags_of_b(table):
        views, _ = process_partition(normalize_batch(table), registry=registry)
        pt = views["per_turn"]
        return [t for c, t in zip(pt["conv_id"].to_pylist(),
                                  pt["tags"].to_pylist()) if c == "B"]

    alone = tags_of_b(target)
    assert alone == tags_of_b(pa.concat_tables([mate, target]))
    assert [k for k, _ in alone[0]] == sorted(k for k, _ in alone[0])
