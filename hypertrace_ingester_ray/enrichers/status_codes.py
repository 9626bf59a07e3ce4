"""Full status-code → message / state tables (E2 depth).

Mirrors the reference's complete mappers:

- ``HttpCodeMapper`` (/root/reference/hypertrace-trace-enricher/
  hypertrace-trace-enricher-impl/src/main/java/org/hypertrace/traceenricher/
  util/HttpCodeMapper.java:20-78): the RFC 7231/7233/7235 code→message table;
  state = SUCCESS for 2xx/3xx, FAIL otherwise.
- ``GrpcCodeMapper`` (.../util/GrpcCodeMapper.java:13-38): grpc status code →
  ``io.grpc.Status.Code`` name; state = SUCCESS only for OK (0).

These tables are imported by the SQL-oracle builder too, so the engine and
the DuckDB mirror can never drift.
"""

from __future__ import annotations

# HttpCodeMapper.java codeToMessage, verbatim (including the quirky
# "505 HTTP Version Not Supported" and "(Unused)" entries)
HTTP_CODE_TO_MESSAGE = {
    200: "OK",
    201: "Created",
    202: "Accepted",
    203: "Non-Authoritative Information",
    204: "No Content",
    205: "Reset Content",
    206: "Partial Content",
    300: "Multiple Choices",
    301: "Moved Permanently",
    302: "Found",
    303: "See Other",
    304: "Not Modified",
    305: "Use Proxy",
    306: "(Unused)",
    307: "Temporary Redirect",
    308: "Permanent Redirect",
    400: "Bad Request",
    401: "Unauthorized",
    402: "Payment Required",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    406: "Not Acceptable",
    407: "Proxy Authentication Required",
    408: "Request Timeout",
    409: "Conflict",
    410: "Gone",
    411: "Length Required",
    412: "Precondition Failed",
    413: "Payload Too Large",
    414: "URI Too Long",
    415: "Unsupported Media Type",
    416: "Range Not Satisfiable",
    417: "Expectation Failed",
    418: "I'm a teapot",
    425: "Too Early",
    426: "Upgrade Required",
    428: "Precondition Required",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    451: "Unavailable For Legal Reasons",
    500: "Internal Server Error",
    501: "Not Implemented",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
    505: "505 HTTP Version Not Supported",
    506: "Variant Also Negotiates",
    510: "Not Extended",
    511: "Network Authentication Required",
}

# GrpcCodeMapper.java getMessage → io.grpc Status.Code.name() by code value
GRPC_CODE_NAMES = {
    0: "OK",
    1: "CANCELLED",
    2: "UNKNOWN",
    3: "INVALID_ARGUMENT",
    4: "DEADLINE_EXCEEDED",
    5: "NOT_FOUND",
    6: "ALREADY_EXISTS",
    7: "PERMISSION_DENIED",
    8: "RESOURCE_EXHAUSTED",
    9: "FAILED_PRECONDITION",
    10: "ABORTED",
    11: "OUT_OF_RANGE",
    12: "UNIMPLEMENTED",
    13: "INTERNAL",
    14: "UNAVAILABLE",
    15: "DATA_LOSS",
    16: "UNAUTHENTICATED",
}

API_STATUS_SUCCESS = "SUCCESS"
API_STATUS_FAIL = "FAIL"
