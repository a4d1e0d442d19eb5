"""Canonical JSON wire formats.

Every document carries a "format" tag with a version suffix; readers reject
unknown tags.  Canonical bytes are json.dumps with sorted keys and compact
separators, so byte-identity comparisons (privacy audits, replay) are
deterministic.  Symbols serialize as plain integers in [0, q).  Readers
take every integer field, header or symbol, only as a JSON integer: true,
0.7 and "0" are refused rather than read as 1, 0 and 0.  An answer's
uncoded rows are range-checked against its q here; parity rows are checked
when they are decoded (`mds._combine`).
"""

from __future__ import annotations

import json
from collections import Counter

from .errors import FieldConstructionError, WireFormatError
from .fields import make_field
from .model import SideInfo
from .protocol import Answer, ClassPayload, JointPayload, Query

QUERY_FORMAT = "ppir.query/1"
ANSWER_FORMAT = "ppir.answer/1"
SIDE_FORMAT = "ppir.side/1"


def canonical_bytes(doc: dict) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


_INT_ONLY = {int}


def _int(value, what):
    """value when it is a JSON integer, else WireFormatError."""
    if type(value) is not int:
        raise WireFormatError(f"{what} must be an integer, got {value!r}")
    return value


def _ints(values, what, items="values"):
    """A list of JSON integers as a tuple.

    The element types are checked in C, once per list, so a long symbol row
    costs no Python call per symbol.
    """
    if not set(map(type, values)) <= _INT_ONLY:
        raise WireFormatError(f"{what} must hold integer {items} only")
    return tuple(values)


def _labels(pairs):
    """Label pairs (class, identifier), each two JSON integers, as tuples."""
    return tuple([(i, a) for i, a in (_ints(pair, "labels") for pair in pairs)])


def _expect(doc, fmt):
    if not isinstance(doc, dict) or doc.get("format") != fmt:
        raise WireFormatError(f"expected a {fmt} document")
    return doc


# --- query --------------------------------------------------------------------


def query_to_json(query: Query) -> dict:
    doc = {"format": QUERY_FORMAT, "scheme": query.scheme}
    if query.scheme in ("usi", "musi"):
        doc["side_counts"] = list(query.side_counts)
        doc["demand"] = query.demand
    elif query.scheme == "fsi":
        # known_flags stay user-local; the wire carries picks and the count
        doc["picks"] = list(query.picks)
        doc["known_count"] = query.known_count
    else:
        raise WireFormatError(f"unknown scheme {query.scheme!r}")
    return doc


def query_from_json(doc: dict) -> Query:
    _expect(doc, QUERY_FORMAT)
    scheme = doc.get("scheme")
    try:
        if scheme in ("usi", "musi"):
            return Query(
                scheme=scheme,
                side_counts=_ints(doc["side_counts"], "side_counts"),
                demand=_int(doc["demand"], "demand"),
            )
        if scheme == "fsi":
            return Query(
                scheme="fsi",
                picks=_ints(doc["picks"], "picks"),
                known_count=_int(doc["known_count"], "known_count"),
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise WireFormatError(f"malformed query document: {exc}") from exc
    raise WireFormatError(f"unknown scheme {scheme!r}")


# --- answer -------------------------------------------------------------------


def _payload_to_json(payload) -> dict:
    if isinstance(payload, ClassPayload):
        doc = {"class_id": payload.class_id, "mode": payload.mode,
               "symbols": [list(r) for r in payload.symbols]}
        if payload.mode == "uncoded":
            doc["labels"] = [list(lab) for lab in payload.labels]
        else:
            doc["identifier_order"] = list(payload.identifier_order)
            doc["code_length"] = payload.code_length
        return doc
    if isinstance(payload, JointPayload):
        return {
            "mode": "joint-parity",
            "picks": list(payload.picks),
            "known_count": payload.known_count,
            "code_length": payload.code_length,
            "symbols": [list(r) for r in payload.symbols],
        }
    raise WireFormatError(f"unknown payload type {type(payload).__name__}")


def _payload_from_json(doc: dict):
    try:
        mode = doc["mode"]
        symbols = tuple([_ints(row, "payload symbol rows", "symbols") for row in doc["symbols"]])
        if mode == "uncoded":
            return ClassPayload(
                class_id=_int(doc["class_id"], "class_id"),
                mode="uncoded",
                labels=_labels(doc["labels"]),
                identifier_order=None,
                code_length=None,
                symbols=symbols,
            )
        if mode == "parity":
            return ClassPayload(
                class_id=_int(doc["class_id"], "class_id"),
                mode="parity",
                labels=None,
                identifier_order=_ints(doc["identifier_order"], "identifier_order"),
                code_length=_int(doc["code_length"], "code_length"),
                symbols=symbols,
            )
        if mode == "joint-parity":
            return JointPayload(
                picks=_ints(doc["picks"], "picks"),
                known_count=_int(doc["known_count"], "known_count"),
                code_length=_int(doc["code_length"], "code_length"),
                symbols=symbols,
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise WireFormatError(f"malformed payload: {exc}") from exc
    raise WireFormatError(f"unknown payload mode {mode!r}")


def answer_to_json(answer: Answer) -> dict:
    return {
        "format": ANSWER_FORMAT,
        "q": answer.q,
        "msg_len": answer.msg_len,
        "payloads": [_payload_to_json(p) for p in answer.payloads],
        "extras": [list(e) if isinstance(e, (list, tuple)) else e for e in answer.extras],
    }


def answer_from_json(doc: dict) -> Answer:
    """Parse an answer; q must be a field order, rows must match the msg_len
    header and identifiers not repeat.

    Uncoded symbols must lie in [0, q): nothing decodes them, so nothing
    else would check them.
    """
    _expect(doc, ANSWER_FORMAT)
    try:
        answer = Answer(
            q=_int(doc["q"], "q"),
            msg_len=_int(doc["msg_len"], "msg_len"),
            payloads=tuple(_payload_from_json(p) for p in doc["payloads"]),
            extras=tuple(tuple(e) if isinstance(e, list) else e for e in doc.get("extras", [])),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise WireFormatError(f"malformed answer document: {exc}") from exc
    try:
        make_field(answer.q)
    except FieldConstructionError as exc:
        raise WireFormatError(f"answer header q: {exc}") from exc
    for n, payload in enumerate(answer.payloads):
        for row in payload.symbols:
            if len(row) != answer.msg_len:
                raise WireFormatError(
                    f"payload {n} has a row of {len(row)} symbols, "
                    f"the header's msg_len is {answer.msg_len}"
                )
        if isinstance(payload, ClassPayload):
            names = payload.labels if payload.mode == "uncoded" else payload.identifier_order
            if len(set(names)) != len(names):
                raise WireFormatError(f"payload {n} (class {payload.class_id}) repeats an identifier")
            if payload.mode == "uncoded" and any(
                min(row) < 0 or max(row) >= answer.q for row in payload.symbols if row
            ):
                raise WireFormatError(
                    f"payload {n} (class {payload.class_id}) has an uncoded symbol "
                    f"outside [0, {answer.q})"
                )
    return answer


# --- side information -----------------------------------------------------------


def side_to_json(side: SideInfo, side_values) -> dict:
    """User-side bundle: labels, counts and the held message values."""
    return {
        "format": SIDE_FORMAT,
        "per_class_counts": list(side.per_class_counts),
        "labels": [list(lab) for lab in side.label_set],
        "messages": [list(side_values[lab]) for lab in side.label_set],
    }


def side_from_json(doc: dict):
    _expect(doc, SIDE_FORMAT)
    try:
        labels = _labels(doc["labels"])
        messages = [_ints(row, "side-information messages", "symbols") for row in doc["messages"]]
        counts = _ints(doc["per_class_counts"], "per_class_counts")
    except (KeyError, TypeError, ValueError) as exc:
        raise WireFormatError(f"malformed side-information document: {exc}") from exc
    if len(messages) != len(labels):
        raise WireFormatError(
            f"side-information document has {len(messages)} messages for {len(labels)} labels"
        )
    if len(set(labels)) != len(labels):
        raise WireFormatError("side-information document repeats a label")
    if Counter(i for i, _ in labels) != Counter({i: k for i, k in enumerate(counts) if k}):
        raise WireFormatError(
            f"per_class_counts {list(counts)} contradict the labels' class counts"
        )
    side = SideInfo(per_class_counts=counts, label_set=labels)
    return side, dict(zip(labels, messages))
