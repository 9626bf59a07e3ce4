"""Config-declared attribute projection with typed value coercion.

The analog of the reference's trace-reader attribute library (the one
reference module round 4 left uncovered): a user declares output columns
as CONFIG — ``(name, kind, definition)`` — instead of writing projection
code, and :func:`project_attributes` appends them as typed columns in one
vectorized ``map_batches`` stage.

Reference parity:

- ``ValueCoercer.java:14-130`` — string / double / long → typed literal
  coercion (:func:`coerce_scalar` is the scalar mirror; the column paths
  are vocabulary-bounded vectorized versions of the same rules).
- ``DefaultValueResolver.java:48-131`` — definition dispatch:
  ``source_path`` (attribute-map lookup), ``source_field`` (typed
  first-class column), ``literal``, ``first_value_present`` (first-match
  resolution, DefaultValueResolver.java:122-131), ``expression``
  (operator registry with all-or-nothing argument resolution,
  DefaultValueResolver.java:133-170).
- ``SpanValueSource.java:24-49`` — the enriched → raw → resource
  attribute lookup chain maps to the ordered ``tags_cols`` tuple; source
  fields START/END_TIME map to ``field_cols``.

Kind semantics (AttributeKind analog): ``string``/``bytes`` (treated the
same, ValueCoercer.java:23-25), ``int64``, ``double``, ``bool``,
``timestamp`` (epoch millis as int64 — the reference's longLiteral).
Unsupported kinds (string_array / string_map / undefined) resolve to NULL,
the Optional.empty() analog.  Documented divergences from the JVM: Java
``Double.toString`` switches to scientific notation at |v| >= 1e7 (we keep
decimal form), and Java accepts trailing ``d``/``f`` suffixes and hex
float literals (``0x1.8p1``) in double strings (we don't; plain decimal /
scientific syntax and the case-sensitive ``Infinity``/``NaN`` names match
exactly — see ``_parse_double``).
"""

from __future__ import annotations

import re
from datetime import datetime, timezone
from typing import Any, Callable, Dict, Mapping, Optional, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ray.data import Dataset

from .maps import map_get

_INT_RE = re.compile(r"^[+-]?\d+$")
_I64_MIN, _I64_MAX = -(2**63), 2**63 - 1

#: AttributeKind → output Arrow type
KIND_ARROW_TYPES: Dict[str, pa.DataType] = {
    "string": pa.string(),
    "bytes": pa.string(),  # bytes and string coerce the same
    "int64": pa.int64(),
    "double": pa.float64(),
    "bool": pa.bool_(),
    "timestamp": pa.int64(),  # epoch millis (longLiteral)
}


# ---------------------------------------------------------------------------
# scalar coercion (ValueCoercer.toLiteral mirrors)
# ---------------------------------------------------------------------------


def _parse_long(s: str) -> Optional[int]:
    """Long.valueOf: base-10 with optional sign, int64 range, no frills."""
    if _INT_RE.match(s):
        v = int(s)
        if _I64_MIN <= v <= _I64_MAX:
            return v
    return None


# ASCII digits only: FloatingDecimal rejects other Unicode digits, which
# Python's \d (and float()) would accept
_JAVA_DOUBLE_RE = re.compile(
    r"^[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?$", re.ASCII
)
_JAVA_TRIM_CHARS = "".join(map(chr, range(0x21)))


def _parse_double(s: str) -> Optional[float]:
    """Double.parseDouble mirror: decimal syntax plus the case-sensitive
    named values with an optional sign — NOT Python float(), which also
    accepts '1_0', 'inf', 'infinity' and 'nan' in any case (all rejected by
    the JVM).  Trims like Java's ``String.trim``: only chars <= U+0020, so
    a no-break space or other Unicode whitespace makes the value invalid."""
    t = s.strip(_JAVA_TRIM_CHARS)
    if t in ("Infinity", "+Infinity"):
        return float("inf")
    if t == "-Infinity":
        return float("-inf")
    if t in ("NaN", "+NaN", "-NaN"):
        return float("nan")
    if _JAVA_DOUBLE_RE.match(t):
        try:
            return float(t)
        except (ValueError, TypeError):
            return None
    return None


def _parse_bool(s: str) -> Optional[bool]:
    low = s.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    return None


def _parse_instant_millis(s: str) -> Optional[int]:
    """Instant.parse analog: ISO-8601 with explicit offset → epoch millis
    (exact integer arithmetic, truncated to millis like toEpochMilli)."""
    try:
        dt = datetime.fromisoformat(s.replace("Z", "+00:00"))
    except (ValueError, TypeError):
        return None
    if dt.tzinfo is None:
        return None  # Instant.parse requires an offset
    dt = dt.astimezone(timezone.utc)
    epoch = dt - datetime(1970, 1, 1, tzinfo=timezone.utc)
    return epoch.days * 86_400_000 + epoch.seconds * 1000 + epoch.microseconds // 1000


def _double_to_str(v: float) -> str:
    if v != v:
        return "NaN"
    if v == float("inf"):
        return "Infinity"
    if v == float("-inf"):
        return "-Infinity"
    if v == int(v) and abs(v) < 1e16:
        return f"{int(v)}.0"  # Java prints 42.0, python str gives '42.0' too
    return repr(v)


def _double_to_long(v: float) -> int:
    """Java Number.longValue() on a double: truncate toward zero; NaN → 0,
    ±inf → Long.MAX/MIN."""
    if v != v:
        return 0
    if v == float("inf"):
        return _I64_MAX
    if v == float("-inf"):
        return _I64_MIN
    t = int(v)
    return max(_I64_MIN, min(_I64_MAX, t))


def _coerce_from_string(s: str, kind: str):
    if kind == "double":
        return _parse_double(s)
    if kind == "int64":
        return _parse_long(s)
    if kind == "bool":
        return _parse_bool(s)
    if kind in ("string", "bytes"):
        return s
    if kind == "timestamp":
        v = _parse_long(s)
        return v if v is not None else _parse_instant_millis(s)
    return None


def _coerce_from_double(v: float, kind: str):
    if kind == "double":
        return v
    if kind in ("int64", "timestamp"):
        return _double_to_long(v)
    if kind in ("string", "bytes"):
        return _double_to_str(v)
    return None  # no bool overload (ValueCoercer.java:46-47)


def _coerce_from_long(v: int, kind: str):
    if kind == "double":
        return float(v)
    if kind in ("int64", "timestamp"):
        return v
    if kind in ("string", "bytes"):
        return str(v)
    return None


def coerce_scalar(value, kind: str):
    """ValueCoercer.toLiteral scalar mirror; None is the Optional.empty
    analog.  Dispatches on the runtime type like the Java overloads."""
    if value is None or kind not in KIND_ARROW_TYPES:
        return None
    if isinstance(value, bool):  # before int: bool is an int subtype
        return None  # the reference has no boolean input overload
    if isinstance(value, str):
        return _coerce_from_string(value, kind)
    if isinstance(value, float):
        return _coerce_from_double(value, kind)
    if isinstance(value, int):
        return _coerce_from_long(value, kind)
    return None


# ---------------------------------------------------------------------------
# vectorized column coercion
# ---------------------------------------------------------------------------


def _combine(col) -> pa.Array:
    return col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col


def coerce_string_array(col, kind: str) -> pa.Array:
    """toLiteral(String, kind) over a whole column: unique values coerced
    once (vocabulary-bounded scalar work), then one vectorized take."""
    arr = _combine(col)
    n = len(arr)
    if kind not in KIND_ARROW_TYPES:
        return pa.nulls(n, pa.null())
    if kind in ("string", "bytes"):
        return arr.cast(pa.string())
    enc = arr.dictionary_encode()
    uniq = enc.dictionary.to_pylist()
    lut = pa.array(
        [None if u is None else _coerce_from_string(u, kind) for u in uniq],
        KIND_ARROW_TYPES[kind],
    )
    if len(lut) == 0:
        return pa.nulls(n, KIND_ARROW_TYPES[kind])
    return lut.take(enc.indices)  # null indices propagate to null output


def coerce_long_array(col, kind: str) -> pa.Array:
    arr = _combine(col)
    n = len(arr)
    if kind in ("int64", "timestamp"):
        return arr.cast(pa.int64())
    if kind == "double":
        return arr.cast(pa.float64())
    if kind in ("string", "bytes"):
        return arr.cast(pa.string())  # String.valueOf(long)
    return pa.nulls(n, KIND_ARROW_TYPES.get(kind, pa.null()))


def coerce_double_array(col, kind: str) -> pa.Array:
    arr = _combine(col).cast(pa.float64())
    n = len(arr)
    if kind == "double":
        return arr
    if kind in ("int64", "timestamp"):
        v = arr.to_numpy(zero_copy_only=False)
        out = np.zeros(len(v), np.int64)  # NaN values → 0 (longValue())
        out[v == np.inf] = _I64_MAX
        out[v == -np.inf] = _I64_MIN
        fin = np.isfinite(v)
        # clip BEFORE the trunc cast: float→int64 overflow is undefined
        out[fin] = np.trunc(np.clip(v[fin], _I64_MIN, _I64_MAX)).astype(
            np.int64
        )
        res = pa.array(out, pa.int64())
        if arr.null_count:  # nulls (also NaN in numpy) stay null, not 0
            res = pc.if_else(pc.is_valid(arr), res, pa.scalar(None, pa.int64()))
        return res
    if kind in ("string", "bytes"):
        enc = arr.dictionary_encode()
        lut = pa.array(
            [
                None if u is None else _double_to_str(u)
                for u in enc.dictionary.to_pylist()
            ],
            pa.string(),
        )
        if len(lut) == 0:
            return pa.nulls(n, pa.string())
        return lut.take(enc.indices)
    return pa.nulls(n, KIND_ARROW_TYPES.get(kind, pa.null()))


def _op_concatenate(args: Sequence[pa.Array]) -> pa.Array:
    """CONCATENATE registry operator: string-concat with all-or-nothing
    null semantics (DefaultValueResolver.resolveArgumentList:157-170 —
    any unresolved argument voids the whole expression)."""
    return pc.binary_join_element_wise(*args, "")  # emit_null default


#: expression-operator registry (AttributeProjectionRegistry analog);
#: extensible via AttributeProjector(registry={...})
DEFAULT_REGISTRY: Dict[str, Callable[[Sequence[pa.Array]], pa.Array]] = {
    "concatenate": _op_concatenate,
}


class AttributeProjector:
    """Vectorized batch stage appending one typed column per spec.

    ``specs``: list of ``{"name": str, "kind": str, "definition": {...}}``
    where ``definition`` is exactly ONE of (AttributeDefinition analog):

    - ``{"source_path": key}`` — lookup ``key`` through the ordered
      ``tags_cols`` map-column chain (first column containing the key per
      row wins — the enriched → raw → resource chain of
      SpanValueSource.getAttribute), then string-coerce to ``kind``.
    - ``{"source_column": col}`` — read a first-class column (the metric /
      typed-field path) with type-dispatched coercion.
    - ``{"source_field": "start_time"|"end_time"}`` — resolved through
      ``field_cols`` to a timestamp column, read as epoch millis
      (SpanValueSource.getSourceField), then long-coerced to ``kind``.
    - ``{"literal": value}`` — constant, scalar-coerced once.
    - ``{"first_value_present": [definition, ...]}`` — first non-null
      match per row (row-wise coalesce of the resolved children).
    - ``{"expression": {"operator": op, "args": [definition, ...]}}`` —
      registry operator over string-resolved args (all-or-nothing), the
      result string-coerced to ``kind``.

    Unknown source fields / operators raise at CONSTRUCTION (config error),
    mirroring SpanValueSource's UnsupportedOperationException; unresolvable
    VALUES become NULL (Optional.empty), never errors.
    """

    def __init__(
        self,
        specs: Sequence[Mapping[str, Any]],
        *,
        tags_cols: Sequence[str] = ("tags",),
        field_cols: Optional[Mapping[str, str]] = None,
        registry: Optional[Mapping[str, Callable]] = None,
    ):
        self.specs = [dict(s) for s in specs]
        self.tags_cols = tuple(tags_cols)
        self.field_cols = dict(field_cols or {})
        self.registry = {**DEFAULT_REGISTRY, **(registry or {})}
        for s in self.specs:
            if "name" not in s or "kind" not in s or "definition" not in s:
                raise ValueError(f"attribute spec needs name/kind/definition: {s}")
            self._validate(s["definition"])

    def _validate(self, d: Mapping[str, Any]) -> None:
        known = (
            "source_path",
            "source_column",
            "source_field",
            "literal",
            "first_value_present",
            "expression",
        )
        keys = [k for k in known if k in d]
        if len(keys) != 1:
            raise ValueError(
                f"definition must have exactly one of {known}: {dict(d)}"
            )
        if "source_field" in d and d["source_field"] not in self.field_cols:
            raise ValueError(
                f"unsupported source field {d['source_field']!r} "
                f"(field_cols maps {sorted(self.field_cols)})"
            )
        if "expression" in d:
            expr = d["expression"]
            if expr.get("operator") not in self.registry:
                raise ValueError(
                    f"unregistered projection operator: {expr.get('operator')!r}"
                )
            for a in expr.get("args", []):
                self._validate(a)
        if "first_value_present" in d:
            for c in d["first_value_present"]:
                self._validate(c)

    # -- resolution -------------------------------------------------------

    def _lookup_path(self, batch: pa.Table, key: str) -> Optional[pa.Array]:
        """Ordered map-column chain: first column holding the key per row."""
        acc = None
        for tc in self.tags_cols:
            if tc not in batch.column_names:
                continue
            v = map_get(batch[tc], key)
            acc = v if acc is None else pc.coalesce(acc, v)
        return acc

    def _resolve(self, batch: pa.Table, d: Mapping[str, Any], kind: str) -> pa.Array:
        n = batch.num_rows
        out_type = KIND_ARROW_TYPES.get(kind, pa.null())
        if "literal" in d:
            v = coerce_scalar(d["literal"], kind)
            if v is None:
                return pa.nulls(n, out_type)
            return pa.array([v] * n, out_type)
        if "source_path" in d:
            vals = self._lookup_path(batch, d["source_path"])
            if vals is None:
                return pa.nulls(n, out_type)
            return coerce_string_array(vals, kind)
        if "source_column" in d:
            col = d["source_column"]
            if col not in batch.column_names:
                return pa.nulls(n, out_type)
            return self._coerce_any(batch[col], kind)
        if "source_field" in d:
            col = self.field_cols[d["source_field"]]
            if col not in batch.column_names:
                return pa.nulls(n, out_type)
            millis = self._to_epoch_millis(batch[col])
            return coerce_long_array(millis, kind)
        if "first_value_present" in d:
            arrays = [
                self._resolve(batch, c, kind) for c in d["first_value_present"]
            ]
            arrays = [a for a in arrays if not pa.types.is_null(a.type)]
            if not arrays:
                return pa.nulls(n, out_type)
            return pc.coalesce(*arrays) if len(arrays) > 1 else arrays[0]
        expr = d["expression"]
        args = [self._resolve(batch, a, "string") for a in expr.get("args", [])]
        if not args:
            return pa.nulls(n, out_type)
        result = self.registry[expr["operator"]](args)
        return coerce_string_array(result, kind)

    @staticmethod
    def _to_epoch_millis(col) -> pa.Array:
        arr = _combine(col)
        if pa.types.is_timestamp(arr.type):
            return pc.divide(
                arr.cast(pa.timestamp("us")).cast(pa.int64()), 1000
            )
        return arr.cast(pa.int64())  # already epoch millis by contract

    def _coerce_any(self, col, kind: str) -> pa.Array:
        arr = _combine(col)
        t = arr.type
        if pa.types.is_string(t) or pa.types.is_large_string(t):
            return coerce_string_array(arr, kind)
        if pa.types.is_floating(t):
            return coerce_double_array(arr, kind)
        if pa.types.is_integer(t):
            return coerce_long_array(arr, kind)
        if pa.types.is_timestamp(t):
            return coerce_long_array(self._to_epoch_millis(arr), kind)
        return pa.nulls(len(arr), KIND_ARROW_TYPES.get(kind, pa.null()))

    def __call__(self, batch: pa.Table) -> pa.Table:
        for s in self.specs:
            if s["name"] in batch.column_names:
                # append_column would happily create a DUPLICATE column
                # name; every later batch[name]/select(name) downstream
                # then hits ambiguous-field behavior far from the config
                # error's origin — fail here, at the projection, instead
                raise ValueError(
                    f"attribute spec {s['name']!r} collides with an "
                    "existing column; project under a new name"
                )
            batch = batch.append_column(
                s["name"], self._resolve(batch, s["definition"], s["kind"])
            )
        return batch


def project_attributes(
    ds: Dataset,
    specs: Sequence[Mapping[str, Any]],
    *,
    tags_cols: Sequence[str] = ("tags",),
    field_cols: Optional[Mapping[str, str]] = None,
    registry: Optional[Mapping[str, Callable]] = None,
) -> Dataset:
    """Append every config-declared attribute column in one vectorized
    ``map_batches`` stage (specs validate eagerly, before any task runs)."""
    proj = AttributeProjector(
        specs, tags_cols=tags_cols, field_cols=field_cols, registry=registry
    )
    return ds.map_batches(proj, batch_format="pyarrow")
