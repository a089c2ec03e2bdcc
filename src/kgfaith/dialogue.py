"""Dialogue records: history, grounding triples, response, span labels.

Records travel as JSON lines. Triples inside records use entity and
relation names (not ids) so files stay readable and graph-independent.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, NamedTuple

from .errors import MalformedLine
from .kg import read_lines

logger = logging.getLogger(__name__)


class MentionSpan(NamedTuple):
    """A linked entity mention: [begin, end) character offsets into a text."""

    begin: int
    end: int
    surface: str
    entity: str
    entity_id: int | None = None


@dataclass
class DialogueRecord:
    """One grounded exchange: prior turns, grounding triples, response.

    ``spans`` optionally pre-links the response: (entity name, begin, end),
    a non-empty string and two integer offsets.
    """

    history: list[str]
    triples: list[tuple[str, str, str]]
    response: str
    gold_response: str | None = None
    spans: list[tuple[str, int, int]] | None = None
    extra: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "history": list(self.history),
            "triples": [list(t) for t in self.triples],
            "response": self.response,
        }
        if self.gold_response is not None:
            out["gold_response"] = self.gold_response
        if self.spans is not None:
            out["spans"] = [list(s) for s in self.spans]
        out.update(self.extra)
        return out

    @classmethod
    def from_json(cls, obj: dict[str, Any]) -> DialogueRecord:
        history = obj.get("history")
        triples = obj.get("triples")
        response = obj.get("response")
        if (
            not isinstance(history, list)
            or not all(isinstance(h, str) for h in history)
            or not isinstance(response, str)
            or not isinstance(triples, list)
        ):
            raise ValueError("record needs history: [str], triples: [[s,p,o]], response: str")
        parsed: list[tuple[str, str, str]] = []
        for t in triples:
            if not isinstance(t, (list, tuple)) or len(t) != 3:
                raise ValueError(f"triple must have 3 parts, got {t!r}")
            if not all(isinstance(part, str) and part for part in t):
                raise ValueError(f"triple parts must be non-empty strings, got {t!r}")
            parsed.append((t[0], t[1], t[2]))
        spans = obj.get("spans")
        parsed_spans: list[tuple[str, int, int]] | None = None
        if spans is not None:
            if not isinstance(spans, list):
                raise ValueError("spans must be a list of [entity, begin, end]")
            parsed_spans = []
            for s in spans:
                if not isinstance(s, (list, tuple)) or len(s) != 3:
                    raise ValueError(f"span must be [entity, begin, end], got {s!r}")
                ent, b, e = s
                if not isinstance(ent, str) or not ent:
                    raise ValueError(f"span entity must be a non-empty string, got {s!r}")
                parsed_spans.append((ent, b, e))
            check_spans([(b, e) for _, b, e in parsed_spans], response)
        for key in ("gold_response", "refined_response"):
            if not isinstance(obj.get(key, ""), str):
                raise ValueError(f"{key} must be a string")
        known = {"history", "triples", "response", "gold_response", "spans"}
        extra = {k: v for k, v in obj.items() if k not in known}
        return cls(
            history=list(history),
            triples=parsed,
            response=response,
            gold_response=obj.get("gold_response"),
            spans=parsed_spans,
            extra=extra,
        )


def check_spans(spans: list[tuple[Any, Any]], response: str) -> None:
    """The one check of [begin, end) spans of a response: read from a file or spliced.

    Offsets must be JSON integers (not booleans, not 0.0) with
    0 <= begin < end <= len(response), and spans may touch but not
    overlap. Raises ValueError naming the first span that breaks this.
    """
    for b, e in spans:
        if type(b) is not int or type(e) is not int:  # bool is an int too
            raise ValueError(f"span offsets must be numbers: JSON integers, got {b!r}, {e!r}")
        if not 0 <= b < e <= len(response):
            raise ValueError(f"span [{b}, {e}) out of range for response")
    ordered = sorted(spans, key=lambda span: span[0])
    for (b, e), (nb, ne) in zip(ordered, ordered[1:]):
        if nb < e:
            raise ValueError(f"spans [{b}, {e}) and [{nb}, {ne}) overlap")


def splice(
    text: str, edits: list[tuple[int, int, str]]
) -> tuple[str, list[tuple[int, int]]]:
    """Apply non-overlapping span replacements left to right.

    Each edit is (begin, end, replacement), its span one that check_spans
    accepts. Returns the new text and the new [begin, end) span of every
    replacement, in edit order, with all offsets shifted to account for
    earlier edits.
    """
    check_spans([(begin, end) for begin, end, _ in edits], text)
    ordered = sorted(range(len(edits)), key=lambda i: edits[i][0])
    pieces: list[str] = []
    new_spans: dict[int, tuple[int, int]] = {}
    cursor = 0
    delta = 0
    for i in ordered:
        begin, end, repl = edits[i]
        pieces.append(text[cursor:begin])
        pieces.append(repl)
        new_begin = begin + delta
        new_spans[i] = (new_begin, new_begin + len(repl))
        delta += len(repl) - (end - begin)
        cursor = end
    pieces.append(text[cursor:])
    return "".join(pieces), [new_spans[i] for i in range(len(edits))]


def read_dialogues(path: str | Path) -> list[DialogueRecord]:
    """Parse a JSONL file of dialogue records.

    Blank lines are skipped; a line that is not valid JSON or not a
    valid record raises MalformedLine carrying the 1-based line number.
    """
    records: list[DialogueRecord] = []
    for lineno, raw in read_lines(path):
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise ValueError("record must be a JSON object")
            records.append(DialogueRecord.from_json(obj))
        except ValueError as err:  # json.JSONDecodeError included
            raise MalformedLine(lineno, f"a JSON dialogue record ({err})") from err
    logger.info("read %d dialogue records from %s", len(records), path)
    return records


def write_dialogues(path: str | Path, blobs: Iterable[dict[str, Any]]) -> int:
    """Write JSON objects (``to_json()`` records) as lines; returns the number written."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for blob in blobs:
            fh.write(json.dumps(blob) + "\n")
            n += 1
    return n
