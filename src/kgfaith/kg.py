"""Triple store: vocabularies, immutable graph, k-hop subgraphs.

Entities and relations are interned into contiguous integer ids in
first-seen order. The graph is immutable after construction and keeps
both out-edge and in-edge indexes, plus an undirected adjacency built on
first use, so a k-hop ball and edge queries cost the degrees they
touch, not the size of the graph. A ball asked again for the same centers
and radius is read back: the graph keeps the balls it has searched while
they hold at most two elements per triple in all, as many as the edge
indexes hold.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, TypeVar

from .errors import EmptyGraph, MalformedLine, UnknownEntity, UnknownRelation

logger = logging.getLogger(__name__)

_T = TypeVar("_T")


def canonical(name: str) -> str:
    """Fold a name for matching: lowercase, whitespace collapsed to single spaces."""
    return " ".join(name.split()).lower()


# Groups of characters that re.IGNORECASE matches to one another although
# their lowercase forms differ (the extra cases of Python 3.11's re
# module); fold() maps each group to its first character.
_CASE_GROUPS = (
    "i\u0131", "s\u017f", "\xb5\u03bc", "\u0345\u03b9\u1fbe", "\u0390\u1fd3",
    "\u03b0\u1fe3", "\u03b2\u03d0", "\u03b5\u03f5", "\u03b8\u03d1", "\u03ba\u03f0",
    "\u03c0\u03d6", "\u03c1\u03f1", "\u03c2\u03c3", "\u03c6\u03d5", "\u0432\u1c80",
    "\u0434\u1c81", "\u043e\u1c82", "\u0441\u1c83", "\u0442\u1c84\u1c85", "\u044a\u1c86",
    "\u0463\u1c87", "\u1c88\ua64b", "\u1e61\u1e9b", "\ufb05\ufb06",
)
_FOLD = str.maketrans({c: group[0] for group in _CASE_GROUPS for c in group[1:]})


def fold(text: str) -> str:
    """Fold case one character at a time, the way re.IGNORECASE compares.

    Two characters fold alike exactly when a case-insensitive pattern
    made of one matches the other, and the result keeps the length of
    the text, so positions carry over. str.lower() already is that fold
    except for U+0130 (İ), which it lengthens where re lowers it to "i",
    and for the groups above.
    """
    return text.replace("\u0130", "i").lower().translate(_FOLD)


def _is_word(char: str) -> bool:
    """True for what re's \\w matches in a str pattern."""
    return char.isalnum() or char == "_"


def check_radius(k: int) -> None:
    """The one check of a neighborhood radius."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")


class Triple(NamedTuple):
    """One directed edge (subject, predicate, object) as integer ids."""

    s: int
    p: int
    o: int


class Vocabulary:
    """Interns strings to contiguous ids in first-seen order.

    Lookup is case-insensitive and whitespace-insensitive; the stored
    name keeps the spelling of the first occurrence.
    """

    def __init__(self) -> None:
        self._names: list[str] = []
        self._ids: dict[str, int] = {}

    def add(self, name: str) -> int:
        key = canonical(name)
        idx = self._ids.get(key)
        if idx is None:
            idx = len(self._names)
            self._ids[key] = idx
            self._names.append(name.strip())
        return idx

    def get(self, name: str) -> int | None:
        return self._ids.get(canonical(name))

    def name_of(self, idx: int) -> str:
        return self._names[idx]

    @property
    def names(self) -> list[str]:
        return list(self._names)

    def __len__(self) -> int:
        return len(self._names)

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)


@dataclass(frozen=True)
class GraphStats:
    entities: int
    relations: int
    triples: int
    mean_degree: float
    max_degree: int


@dataclass(frozen=True)
class Subgraph:
    """A k-hop ball plus every edge induced on it, as khop_subgraph returns it.

    Only ``kgfaith subgraph`` builds one; the library's stages take the
    ball alone from KnowledgeGraph.ball.
    """

    nodes: frozenset[int]
    triples: tuple[Triple, ...]


class KnowledgeGraph:
    """Immutable triple store with out/in adjacency indexes.

    Both indexes map an entity to its edges, the Triple objects of
    ``triples`` in graph order, so a node's edges are read without a scan.
    Values derived from the graph plus other inputs are kept by memo(),
    and the balls it has searched by ball().
    """

    def __init__(
        self,
        triples: Iterable[Triple],
        entities: Vocabulary,
        relations: Vocabulary,
    ) -> None:
        self.triples: tuple[Triple, ...] = tuple(triples)
        self.entities = entities
        self.relations = relations
        out: dict[int, list[Triple]] = {}
        inc: dict[int, list[Triple]] = {}
        for t in self.triples:
            out.setdefault(t.s, []).append(t)
            inc.setdefault(t.o, []).append(t)
        self._out = {s: tuple(v) for s, v in out.items()}
        self._in = {o: tuple(v) for o, v in inc.items()}
        self._memo: dict[str, tuple[object, object]] = {}
        # (center ids, radius) -> ball, and the elements the kept balls
        # may still add; see ball().
        self._balls: dict[tuple[frozenset[int], int], frozenset[int]] = {}
        self._ball_room = 2 * len(self.triples)

    def memo(self, name: str, key: object, build: Callable[[], _T]) -> _T:
        """The value build() derives from this graph and the inputs ``key`` stands for.

        Each name keeps one slot: the value is built again only when the
        key differs (by ==) from the one it was built under. The key must
        be a snapshot the caller cannot change, such as a tuple or a copy.
        A build that raises leaves the slot as it was.
        """
        slot = self._memo.get(name)
        if slot is not None and slot[0] == key:
            return slot[1]  # type: ignore[return-value]
        value = build()
        self._memo[name] = (key, value)
        return value

    # --- resolution -------------------------------------------------

    def resolve_entity(self, entity: int | str) -> int:
        if isinstance(entity, str):
            idx = self.entities.get(entity)
            if idx is None:
                raise UnknownEntity(entity)
            return idx
        if not 0 <= entity < len(self.entities):
            raise UnknownEntity(entity)
        return entity

    def resolve_relation(self, relation: str) -> int:
        idx = self.relations.get(relation)
        if idx is None:
            raise UnknownRelation(relation)
        return idx

    # --- adjacency ---------------------------------------------------

    def out_edges(self, entity: int) -> tuple[Triple, ...]:
        """The triples whose subject is the entity, in graph order (the stored tuple)."""
        return self._out.get(entity, ())

    def objects(self, subject: int, relation: int) -> set[int]:
        """Objects of the edges leaving the subject under the relation, as a new set."""
        return {t.o for t in self._out.get(subject, ()) if t.p == relation}

    def in_edges(self, entity: int) -> tuple[Triple, ...]:
        """The triples whose object is the entity, in graph order (the stored tuple)."""
        return self._in.get(entity, ())

    @cached_property
    def _adjacency(self) -> list[tuple[int, ...]]:
        """Entity id -> its distinct neighbors ignoring edge direction.

        Built on first use, so loading a graph does not pay for it. Tuples
        hold a neighbor list in less memory than sets.
        """
        adjacency = []
        for v in range(len(self.entities)):
            near = {t.o for t in self._out.get(v, ())}
            near.update(t.s for t in self._in.get(v, ()))
            adjacency.append(tuple(near))
        return adjacency

    def degree(self, entity: int) -> int:
        return len(self._out.get(entity, ())) + len(self._in.get(entity, ()))

    @cached_property
    def relation_slots(self) -> dict[int, tuple[frozenset[int], frozenset[int]]]:
        """Relation id -> (entities seen as its subject, entities seen as its object)."""
        subjects: dict[int, set[int]] = {}
        objects: dict[int, set[int]] = {}
        for t in self.triples:
            subjects.setdefault(t.p, set()).add(t.s)
            objects.setdefault(t.p, set()).add(t.o)
        return {p: (frozenset(subjects[p]), frozenset(objects[p])) for p in subjects}

    # --- queries -----------------------------------------------------

    def ball(self, centers: Iterable[int | str], k: int) -> frozenset[int]:
        """The entities within k hops of the centers, edge direction ignored.

        Every center is resolved (an unknown one raises UnknownEntity, and
        nothing is kept) before the one breadth-first search from all of
        them. The graph keeps the ball under its set of center ids and its
        radius, so a later call with the same set and radius, such as a
        refiner's after the critic's for one response, returns it without
        searching. Balls are kept while the kept elements fit in
        2 * len(triples), as many as the edge indexes hold; a ball that
        does not fit is returned but not kept, the room is left for smaller
        ones, and nothing is evicted.
        """
        check_radius(k)
        ids = frozenset(self.resolve_entity(c) for c in centers)
        kept = self._balls.get((ids, k))
        if kept is not None:
            return kept
        seen = set(ids)
        frontier = seen
        adjacency = self._adjacency
        for _ in range(k):
            if not frontier:
                break
            frontier = set().union(*map(adjacency.__getitem__, frontier)) - seen
            seen |= frontier
        near = frozenset(seen)
        if len(near) <= self._ball_room:
            self._balls[ids, k] = near
            self._ball_room -= len(near)
        return near

    def khop_subgraph(self, centers: Iterable[int | str], k: int) -> Subgraph:
        """The k-hop ball around the centers with its induced edges, in graph order.

        Edges between two frontier nodes count too. One scan of every triple
        finds them, O(|triples|), paid once by its command, ``kgfaith subgraph``.
        """
        nodes = self.ball(centers, k)
        return Subgraph(nodes, tuple(t for t in self.triples if t.s in nodes and t.o in nodes))

    def stats(self) -> GraphStats:
        n = len(self.entities)
        degrees = [self.degree(e) for e in range(n)]
        return GraphStats(
            entities=n,
            relations=len(self.relations),
            triples=len(self.triples),
            mean_degree=(sum(degrees) / n) if n else 0.0,
            max_degree=max(degrees, default=0),
        )

    def name_triple(self, t: Triple) -> tuple[str, str, str]:
        return (
            self.entities.name_of(t.s),
            self.relations.name_of(t.p),
            self.entities.name_of(t.o),
        )


def read_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """Yield (1-based line number, line) for each line of a UTF-8 text file.

    Every data-file reader goes through here. A line ends at a newline
    byte and keeps it, with any carriage return before it; a line that
    is not UTF-8 raises MalformedLine.
    """
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                yield lineno, raw.decode("utf-8")
            except UnicodeDecodeError:
                raise MalformedLine(lineno, "UTF-8 text") from None


def _read_tsv(path: str | Path, arity: int) -> Iterator[tuple[int, list[str]]]:
    """Yield (1-based line number, stripped fields) for each data line.

    Blank lines and lines starting with ``#`` are skipped. A line that
    does not split into exactly ``arity`` non-blank tab-separated fields
    raises MalformedLine with its line number.
    """
    for lineno, raw in read_lines(path):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = [f.strip() for f in line.split("\t")]
        if len(fields) != arity or not all(fields):
            raise MalformedLine(lineno, f"{arity} tab-separated fields")
        yield lineno, fields


def load_triples(path: str | Path) -> KnowledgeGraph:
    """Read a tab-separated triple file into a graph.

    Each line is ``subject<TAB>predicate<TAB>object``. Ids are assigned
    in first-seen order (subject before object within a line). A file
    with no triples raises EmptyGraph.
    """
    entities = Vocabulary()
    relations = Vocabulary()
    triples: list[Triple] = []
    seen: set[Triple] = set()
    for lineno, (s, p, o) in _read_tsv(path, 3):
        t = Triple(entities.add(s), relations.add(p), entities.add(o))
        if t in seen:
            logger.debug("duplicate triple at line %d ignored", lineno)
            continue
        seen.add(t)
        triples.append(t)
    if not triples:
        raise EmptyGraph(str(path))
    logger.info(
        "loaded %d triples, %d entities, %d relations from %s",
        len(triples), len(entities), len(relations), path,
    )
    return KnowledgeGraph(triples, entities, relations)


class AliasTable:
    """Maps entity names to surface forms usable in running text.

    Built once from (entity, surface) pairs in file order, and never
    changed after. The first surface listed for an entity is its preferred
    rendering. Surface lookup is case- and whitespace-insensitive; when two
    entities claim one surface the first mapping wins. The surface keys
    behind entities_in and match_spans, and the links_back set, are each
    built on first use.
    """

    def __init__(self, pairs: Iterable[tuple[str, str]]) -> None:
        """Each entity is stripped and each surface's whitespace collapsed;
        a pair left with a blank side is skipped."""
        self._surfaces: dict[str, list[str]] = {}
        self._entity_of: dict[str, str] = {}
        for entity, surface in pairs:
            entity = entity.strip()
            surface = " ".join(surface.split())
            if not entity or not surface:
                continue
            forms = self._surfaces.setdefault(entity, [])
            if surface not in forms:
                forms.append(surface)
            owner = self._entity_of.setdefault(canonical(surface), entity)
            if owner != entity:
                logger.warning(
                    "surface %r already maps to %s; ignoring mapping to %s",
                    surface, owner, entity,
                )

    @classmethod
    def from_names(cls, names: Iterable[str]) -> AliasTable:
        """Identity table: every name is its own (only) surface form."""
        return cls((name, name) for name in names)

    @cached_property
    def _owners(self) -> tuple[dict[str, list[str]], set[int], set[str]]:
        """canonical() surface -> every entity listing it, for the raw-substring
        rule of history checks, with the keys' lengths and first characters."""
        owners: dict[str, list[str]] = {}
        for entity, surface in self.items():
            owners.setdefault(canonical(surface), []).append(entity)
        return owners, {len(key) for key in owners}, {key[0] for key in owners}

    @cached_property
    def _folded(self) -> tuple[set[str], list[int], set[str]]:
        """fold() of every surface, for case-insensitive mention linking, with
        the keys' lengths (longest first) and first characters."""
        surfaces = [surface for _, surface in self.items()]
        # One fold() over all surfaces: they hold no newline, and fold()
        # keeps lengths, so splitting at newlines gives each folded surface.
        folded = set(fold("\n".join(surfaces)).split("\n")) if surfaces else set()
        lengths = sorted({len(key) for key in folded}, reverse=True)
        return folded, lengths, {key[0] for key in folded}

    def match_spans(self, text: str) -> list[tuple[int, int]]:
        """Leftmost-longest, case-insensitive, non-overlapping surface matches.

        A match is a slice of the text equal to a surface under fold()
        that neither follows nor precedes a word character, so
        punctuation inside a surface form does not break it. At each
        start the longest surface wins, so "Charlie and the Chocolate
        Factory" beats "Charlie", and the scan resumes after a match.
        A start costs one set lookup per distinct surface length.
        """
        if not self._surfaces or not text:
            return []
        surfaces, lengths, starts = self._folded
        folded = fold(text)
        n = len(text)
        spans: list[tuple[int, int]] = []
        i = 0
        while i < n:
            resume = i + 1
            if folded[i] in starts and not (i and _is_word(text[i - 1])):
                for length in lengths:
                    end = i + length
                    if (
                        end <= n
                        and folded[i:end] in surfaces
                        and (end == n or not _is_word(text[end]))
                    ):
                        spans.append((i, end))
                        resume = end
                        break
            i = resume
        return spans

    def entities_in(self, folded: str) -> set[str]:
        """Entities with a canonical() surface inside the text, which comes canonical().

        A raw substring counts ("e1" is in "let us discuss e12"), and a
        surface several entities list counts for each of them. Every
        position holding the first character of some surface is probed
        once per surface length, so the cost follows the text and the
        number of distinct lengths, not the number of surfaces.
        """
        owners, lengths, starts = self._owners
        found: set[str] = set()
        for i, char in enumerate(folded):
            if char in starts:
                for n in lengths:
                    key = folded[i : i + n]
                    if key in owners:
                        found.update(owners[key])
        return found

    @cached_property
    def links_back(self) -> frozenset[str]:
        """Entities whose preferred surface resolves back to them.

        Those are the names for which entity_of(preferred(name)) == name:
        a surface spliced in for one of them links to it again.
        """
        entity_of = self._entity_of
        return frozenset(
            entity
            for entity, forms in self._surfaces.items()
            if entity_of[canonical(forms[0])] == entity
        )

    def preferred(self, entity: str) -> str:
        forms = self._surfaces.get(entity)
        return forms[0] if forms else entity

    def entity_of(self, surface: str) -> str | None:
        return self._entity_of.get(canonical(surface))

    def items(self) -> Iterator[tuple[str, str]]:
        """All kept (entity, surface) pairs: entities in the order first listed,
        each with its surfaces in the order listed."""
        for entity, forms in self._surfaces.items():
            for surface in forms:
                yield entity, surface


def load_aliases(path: str | Path) -> AliasTable:
    """Read ``entity<TAB>surface`` lines; comments and blanks skipped."""
    return AliasTable(pair for _, pair in _read_tsv(path, 2))


def load_entity_types(path: str | Path) -> Mapping[str, str]:
    """Read ``entity<TAB>type`` lines into a read-only map; last mapping wins.

    No one holds the dict behind the map, so it never changes, and
    corruption's memo keeps it as its key without a copy.
    """
    return MappingProxyType({entity: kind for _, (entity, kind) in _read_tsv(path, 2)})
