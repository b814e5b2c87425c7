"""The versioned artifact envelope and the codec registry.

Every result the flow produces can leave the Python process as an
*artifact*: a JSON document wrapped in a small versioned envelope::

    {"schema_version": 1, "kind": "mapping-result", ...body...}

The envelope carries exactly two reserved keys.  ``schema_version`` is
the compatibility contract: a reader refuses documents written by a
*newer* schema (it cannot know what it would silently drop) and accepts
equal versions; when the schema evolves incompatibly the version is
bumped and the old decoder kept for one release (see
``docs/artifacts.md`` for the policy).  ``kind`` names the codec that
produced the body, so :func:`from_payload` can reconstruct the domain
object without the caller knowing its type.

Encoding is *canonical*: :func:`canonical_json` sorts keys, uses compact
separators and forbids NaN, so the same domain object always serializes
to the same bytes.  That property is what makes artifacts
content-addressable -- :func:`artifact_digest` over the canonical bytes
is a stable identity -- and what lets ``repro batch`` guarantee
byte-identical workspaces regardless of worker count or scheduling.

Codecs register themselves with :func:`register` (see
:mod:`repro.artifacts.codecs`); :func:`to_payload` dispatches on the
object's exact type and :func:`from_payload` on the envelope's ``kind``.
A dataclass registered without an encoder/decoder pair gets the *field
codec*: its body is exactly its fields, converted by one rule driven by
the type hints (see :func:`register` and ``docs/artifacts.md``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import typing
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Tuple, Type, Union

from repro.exceptions import ReproError

#: Version of the artifact schema this build reads and writes.
SCHEMA_VERSION = 1

#: Envelope keys no codec body may use.
RESERVED_KEYS = ("schema_version", "kind")


class ArtifactError(ReproError):
    """Raised for unserializable objects and malformed/foreign payloads."""


# ----------------------------------------------------------------------
# canonical encoding
# ----------------------------------------------------------------------
def canonical_json(payload: Dict[str, Any]) -> str:
    """Deterministic JSON text: sorted keys, compact, no NaN.

    Two payloads describing the same content always render to the same
    bytes, so equal artifacts can be compared (and deduplicated) without
    parsing.
    """
    try:
        return json.dumps(
            payload,
            sort_keys=True,
            separators=(",", ":"),
            ensure_ascii=False,
            allow_nan=False,
        )
    except (TypeError, ValueError) as error:
        raise ArtifactError(
            f"payload is not canonically JSON-encodable: {error}"
        ) from None


def artifact_digest(payload: Dict[str, Any]) -> str:
    """Content address of a payload: SHA-256 of its canonical bytes."""
    return hashlib.sha256(
        canonical_json(payload).encode("utf-8")
    ).hexdigest()


# ----------------------------------------------------------------------
# the envelope
# ----------------------------------------------------------------------
def envelope(kind: str, body: Dict[str, Any]) -> Dict[str, Any]:
    """Wrap a codec body in the versioned envelope."""
    for key in RESERVED_KEYS:
        if key in body:
            raise ArtifactError(
                f"codec body for kind {kind!r} uses reserved key {key!r}"
            )
    payload = {"schema_version": SCHEMA_VERSION, "kind": kind}
    payload.update(body)
    return payload


def check_envelope(
    payload: Any, kind: Optional[str] = None, lenient: bool = False
) -> Optional[Dict[str, Any]]:
    """Validate the envelope; returns the payload for chaining.

    ``kind`` pins the expected kind (pass ``None`` to accept any
    registered one).  Documents written by a newer schema version are
    rejected -- this reader cannot know what it would misinterpret.

    ``lenient=True`` downgrades a *malformed* envelope (not an object,
    missing/mistyped ``schema_version`` or ``kind``) to a ``None``
    return instead of raising -- the classification the store uses to
    treat corrupt files as cache misses.  A newer ``schema_version``
    (healthy document, reader too old) and a ``kind`` mismatch (an
    addressing bug) raise either way.
    """
    if not isinstance(payload, dict):
        if lenient:
            return None
        raise ArtifactError(
            f"artifact payload must be an object, got "
            f"{type(payload).__name__}"
        )
    version = payload.get("schema_version")
    if not isinstance(version, int) or isinstance(version, bool):
        if lenient:
            return None
        raise ArtifactError(
            "artifact payload has no integer 'schema_version'"
        )
    if version > SCHEMA_VERSION:
        raise ArtifactError(
            f"artifact has schema_version {version}, this build reads "
            f"up to {SCHEMA_VERSION}; upgrade to consume it"
        )
    found = payload.get("kind")
    if not isinstance(found, str) or not found:
        if lenient:
            return None
        raise ArtifactError("artifact payload has no 'kind'")
    if kind is not None and found != kind:
        raise ArtifactError(
            f"expected artifact kind {kind!r}, got {found!r}"
        )
    return payload


# ----------------------------------------------------------------------
# fraction helpers (shared by many codecs)
# ----------------------------------------------------------------------
def encode_fraction(value: Optional[Fraction]) -> Optional[str]:
    """``Fraction`` -> exact string form (``None`` passes through)."""
    return None if value is None else str(value)


def decode_fraction(value: Optional[str]) -> Optional[Fraction]:
    if value is None:
        return None
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError):
        raise ArtifactError(
            f"invalid fraction {value!r} in artifact payload"
        ) from None


# ----------------------------------------------------------------------
# the codec registry
# ----------------------------------------------------------------------
Encoder = Callable[[Any], Dict[str, Any]]
Decoder = Callable[[Dict[str, Any]], Any]

_ENCODERS: Dict[Type, Tuple[str, Encoder]] = {}
_DECODERS: Dict[str, Decoder] = {}


def register(
    kind: str,
    cls: Type,
    encode: Optional[Encoder] = None,
    decode: Optional[Decoder] = None,
) -> None:
    """Register a codec: ``encode(obj) -> body``, ``decode(payload) -> obj``.

    ``encode`` returns the *body* only (the envelope is added here);
    ``decode`` receives the full validated payload.  Without the pair,
    ``cls`` must be a dataclass and gets the field codec: the body is
    exactly its fields, keyed by field name (:func:`_field_codec`).
    """
    if kind in _DECODERS:
        raise ArtifactError(f"artifact kind {kind!r} already registered")
    if cls in _ENCODERS:
        raise ArtifactError(
            f"type {cls.__name__} already has an artifact codec "
            f"({_ENCODERS[cls][0]!r})"
        )
    if encode is None:
        encode, decode = _field_codec(cls)
    _ENCODERS[cls] = (kind, encode)
    _DECODERS[kind] = decode


def registered_kinds() -> Tuple[str, ...]:
    return tuple(sorted(_DECODERS))


def kind_of(obj: Any) -> str:
    """The artifact kind an object serializes as."""
    try:
        return _ENCODERS[type(obj)][0]
    except KeyError:
        raise ArtifactError(
            f"no artifact codec for type {type(obj).__name__}"
        ) from None


def to_payload(obj: Any) -> Dict[str, Any]:
    """Serialize a domain object into its enveloped canonical payload."""
    try:
        kind, encode = _ENCODERS[type(obj)]
    except KeyError:
        raise ArtifactError(
            f"no artifact codec for type {type(obj).__name__}; "
            f"registered kinds: {', '.join(registered_kinds())}"
        ) from None
    return envelope(kind, encode(obj))


def from_payload(payload: Dict[str, Any]) -> Any:
    """Reconstruct the domain object an artifact payload describes."""
    check_envelope(payload)
    kind = payload["kind"]
    try:
        decode = _DECODERS[kind]
    except KeyError:
        raise ArtifactError(
            f"unknown artifact kind {kind!r}; registered kinds: "
            f"{', '.join(registered_kinds())}"
        ) from None
    try:
        return decode(payload)
    except (
        AttributeError, KeyError, IndexError, TypeError, ValueError
    ) as error:
        raise ArtifactError(
            f"malformed {kind!r} artifact payload: {error!r}"
        ) from None


# ----------------------------------------------------------------------
# the field codec: a dataclass's body is exactly its fields
# ----------------------------------------------------------------------
#: A compiled value converter; ``None`` is the identity (primitives).
Converter = Optional[Callable[[Any], Any]]

_PRIMITIVES = (str, int, float, bool)


def _field_codec(cls: Type) -> Tuple[Encoder, Decoder]:
    """Encoder/decoder whose body is exactly ``cls``'s dataclass fields.

    Each field's converter is compiled once, from the type hints, on
    first use -- when every codec a hint can name is registered.
    Decoding is strict: every field key must be present (extra keys,
    such as the envelope's, are ignored).
    """
    plan: Optional[List[Tuple[str, Converter, Converter]]] = None

    def compiled() -> List[Tuple[str, Converter, Converter]]:
        nonlocal plan
        if plan is None:
            import repro.artifacts.codecs  # noqa: F401  (hinted codecs)

            hints = typing.get_type_hints(cls)
            plan = [
                (f.name, *_converters(hints[f.name]))
                for f in dataclasses.fields(cls)
            ]
        return plan

    def encode(obj: Any) -> Dict[str, Any]:
        body = {}
        for name, to_json, _ in compiled():
            value = getattr(obj, name)
            body[name] = value if to_json is None else to_json(value)
        return body

    def decode(payload: Dict[str, Any]) -> Any:
        values = {}
        for name, _, from_json in compiled():
            value = payload[name]
            values[name] = value if from_json is None else from_json(value)
        return cls(**values)

    return encode, decode


def _converters(hint: Any) -> Tuple[Converter, Converter]:
    """The (encode, decode) converters of one type hint."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is Union:
        present = [arg for arg in args if arg is not type(None)]
        if len(present) == 1:
            return tuple(_or_none(c) for c in _converters(present[0]))
    elif origin in (list, tuple):
        # List[X], Tuple[X, ...] and Tuple[X, X]: one item type
        items = {arg for arg in args if arg is not Ellipsis}
        if len(items) == 1:
            to_json, from_json = _converters(items.pop())
            rebuild = list if origin is list else tuple
            return (
                list if to_json is None
                else lambda value: [to_json(item) for item in value],
                rebuild if from_json is None
                else lambda value: rebuild(from_json(item) for item in value),
            )
    elif origin is dict:
        to_json, from_json = _converters(args[1])
        return (
            dict if to_json is None
            else lambda value: {k: to_json(v) for k, v in value.items()},
            dict if from_json is None
            else lambda value: {k: from_json(v) for k, v in value.items()},
        )
    elif hint is Fraction:
        return encode_fraction, decode_fraction
    elif isinstance(hint, type) and any(
        issubclass(registered, hint) for registered in _ENCODERS
    ):
        return to_payload, from_payload
    elif dataclasses.is_dataclass(hint):
        return _field_codec(hint)
    elif hint in _PRIMITIVES:
        return None, None
    raise ArtifactError(f"no artifact field rule for type {hint!r}")


def _or_none(convert: Converter) -> Converter:
    if convert is None:
        return None
    return lambda value: None if value is None else convert(value)
