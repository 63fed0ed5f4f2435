"""Matroids with exact rank oracles.

Elements are dense integer indices ``0..m-1``; a :class:`GroundSet` carries
optional display labels next to the indices. Three primitive backends give
the rank function (column vectors over an exact field, a rank-3 line
presentation, an explicit circuit list), and minors are represented lazily
against their parent oracle. The lattice walk (``Matroid.flats_of_rank``)
goes depth-first from cl(empty set) to the rank asked for and stores each
rank as one dict, the only store of its flats: it maps each flat's bitmask
(bit e for element e) to the bitmask of the flat the walk found it from. A
flat is a bitmask from the kernel's cover groups to the levels and the flat
census; a ``Flat`` is made only for a caller that reads one, and
``Flat.elements`` makes the frozenset on first use. On a vector matroid each
flat's cover state is stepped from the state of the flat it was found from,
and only the states on the walk's path are alive. Rank and closure queries
are memoized per matroid and answer a walked flat off its level. The
connected flats are stored as connected levels (``connected_flats_of_rank``):
on a reflection arrangement, from rank 3 up, the connected walk's, which
expands only the connected covers; else the full walk's levels, filtered one
level at a time with no rank or closure query. A walked flat's connectivity
is read off them, and a simple matroid's off its stored lines when they join
all of E; other flats go through a greedy-basis oracle.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import AbstractSet, Iterable, NamedTuple, Sequence

from . import kernels
from .errors import BudgetExceeded, InputError
from .field import Field, primitive_int_vector

# the covers a budgeted walk issues unless told otherwise (E7's full walk: 883,281)
MAX_COVERS = 3_000_000


class GroundSet:
    """A finite ground set 0..size-1 with display labels."""

    __slots__ = ("size", "labels")

    def __init__(self, size: int, labels: Sequence[str] | None = None):
        if size < 0:
            raise InputError("ground set size must be non-negative")
        if labels is None:
            labels = [str(i) for i in range(size)]
        labels = list(labels)
        if len(labels) != size:
            raise InputError("label count does not match ground set size")
        if len(set(labels)) != size:
            raise InputError("labels must be distinct")
        self.size = size
        self.labels = labels

    def label(self, e: int) -> str:
        return self.labels[e]

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise InputError(f"unknown element label {label!r}") from None

    def __len__(self):
        return self.size

    def __iter__(self):
        return iter(range(self.size))

    def __repr__(self):
        return f"GroundSet({self.size})"


def _mask(elements: Iterable[int]) -> int:
    """The bitmask of a set of elements: bit e for element e."""
    mask = 0
    for e in elements:
        mask |= 1 << e
    return mask


def _members(mask: int) -> list[int]:
    """The elements of a bitmask, ascending."""
    members = []
    while mask:
        low = mask & -mask
        members.append(low.bit_length() - 1)
        mask ^= low
    return members


_MEMBER_FIRST = str.maketrans("01", "10")


def _canonical_key(mask: int) -> str:
    """A sort key that orders nonempty bitmasks as their sorted element tuples.

    Character e is "0" for a member, "1" for a non-member, up to the greatest
    member: at the least element two sets differ in, the set holding it comes
    first, unless the other set ends before it, as its tuple does."""
    return bin(mask)[:1:-1].translate(_MEMBER_FIRST)


class Flat:
    """A flat with its rank, held as the bitmask of its elements (``mask``).

    ``elements`` is a frozenset, made on first use for a flat made from its
    mask (``Flat.of_mask``); flats with equal masks and ranks are equal."""

    __slots__ = ("mask", "rank", "_elements")

    def __init__(self, elements: Iterable[int], rank: int):
        self._elements = frozenset(elements)
        self.mask = _mask(self._elements)
        self.rank = rank

    @classmethod
    def of_mask(cls, mask: int, rank: int) -> "Flat":
        flat = cls.__new__(cls)
        flat.mask, flat.rank, flat._elements = mask, rank, None
        return flat

    @property
    def elements(self) -> frozenset[int]:
        if self._elements is None:
            self._elements = frozenset(_members(self.mask))
        return self._elements

    def __eq__(self, other):
        if not isinstance(other, Flat):
            return NotImplemented
        return self.mask == other.mask and self.rank == other.rank

    def __hash__(self):
        return hash((self.mask, self.rank))

    def __repr__(self):
        return f"Flat(elements={self.elements!r}, rank={self.rank!r})"

    def __contains__(self, e: int) -> bool:
        return e in self.elements

    def __len__(self):
        return self.mask.bit_count()

    def __iter__(self):
        return iter(self.elements)

    def sorted(self) -> tuple[int, ...]:
        return tuple(_members(self.mask))


class _SetOnce:
    """A record whose attributes are set once: its fields in ``__init__``,
    a cache on first use. Setting one again raises AttributeError, so an
    instance can be shared and, where its class says so, hashed."""

    __slots__ = ()

    def __setattr__(self, name, value):
        if hasattr(self, name):
            raise AttributeError(f"{type(self).__name__}.{name} is read-only")
        object.__setattr__(self, name, value)


class ElementBijection(NamedTuple):
    """A bijection between ground sets, stored as the forward image tuple."""

    forward: tuple[int, ...]

    def __call__(self, e: int) -> int:
        return self.forward[e]

    def image(self, subset: Iterable[int]) -> frozenset[int]:
        return frozenset(self.forward[e] for e in subset)

    def inverse(self) -> "ElementBijection":
        inv = [0] * len(self.forward)
        for i, j in enumerate(self.forward):
            inv[j] = i
        return ElementBijection(tuple(inv))

    def compose(self, first: "ElementBijection") -> "ElementBijection":
        """self after first: (self.compose(first))(e) == self(first(e))."""
        return ElementBijection(tuple(self.forward[j] for j in first.forward))

    @property
    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.forward))


# ---------------------------------------------------------------------------
# backends


class VectorBackend:
    """Columns of an exact matrix; rank queries go through the kernels."""

    name = "vectors"

    def __init__(self, field: Field, vectors: Sequence[Sequence]):
        self.field = field
        self.vectors = [[field.coerce(x) for x in v] for v in vectors]
        widths = {len(v) for v in self.vectors}
        if len(widths) > 1:
            raise InputError("vectors of mixed dimension")
        if field.kind == "Q":
            self._rows = [primitive_int_vector(v) for v in self.vectors]
            self._rank = kernels.rank_int
            self._closure = kernels.closure_int
            self._fundamental = kernels.fundamental_int
            self._covers = kernels.covers_int
            self._step = kernels.cover_step_int
        elif field.kind == "Qsqrt5":
            from .quad import primitive_quad_vector

            self._rows = [primitive_quad_vector(v) for v in self.vectors]
            self._rank = kernels.rank_quad
            self._closure = kernels.closure_quad
            self._fundamental = kernels.fundamental_quad
            self._covers = kernels.covers_quad
            self._step = kernels.cover_step_quad
        else:
            from .fp import residue_vector

            p = field.p
            self._rows = [residue_vector(v) for v in self.vectors]
            self._rank = lambda rows: kernels.rank_mod(rows, p)
            self._closure = lambda rows, sub: kernels.closure_mod(rows, p, sub)
            self._fundamental = lambda rows, sub, ask: kernels.fundamental_mod(rows, p, sub, ask)
            self._covers = lambda rows, flat: kernels.covers_mod(rows, p, flat)
            self._step = lambda state, g, skip=0: kernels.cover_step_mod(state, p, g, skip)

    @property
    def size(self) -> int:
        return len(self._rows)

    def rank_subset(self, subset: tuple[int, ...]) -> int:
        return self._rank([self._rows[i] for i in subset])

    def closure_fast(self, subset: tuple[int, ...]):
        return self._closure(self._rows, list(subset))

    def fundamental_fast(self, subset: tuple[int, ...], asked: tuple[int, ...]):
        return self._fundamental(self._rows, list(subset), asked)

    def covers_fast(self, flat: tuple[int, ...]) -> kernels.CoverState:
        """The flat's cover state, from scratch: per cover, its elements outside it."""
        return self._covers(self._rows, list(flat))

    def cover_step(self, state: kernels.CoverState, g: int, skip: int = 0) -> kernels.CoverState:
        """The cover state of the g-th cover, by one step from the flat's,
        without the covers inside ``skip`` (``kernels.cover_step_*``)."""
        return self._step(state, g, skip)

    @cached_property
    def reflection_closed(self) -> bool:
        """Whether the vectors are a simple reflection arrangement: nonzero,
        pairwise non-proportional, and closed up to sign and scale under
        their own reflections. False over F_p, which has no inner product
        to reflect in."""
        if self.field.kind == "Q":
            return kernels.reflection_closed_int(self._rows)
        return self.field.kind == "Qsqrt5" and kernels.reflection_closed_quad(self._rows)


class LineBackend:
    """A simple rank-3 matroid presented by its lines of three or more points.

    Pairs lying on no listed line are (implicitly) trivial two-point flats.
    """

    name = "lines"

    def __init__(self, size: int, lines: Iterable[Iterable[int]]):
        self.size = size
        self.lines = []
        pair_line: dict[tuple[int, int], int] = {}
        for line in lines:
            L = frozenset(line)
            if len(L) < 3:
                raise InputError("a listed line needs at least 3 points")
            if not all(0 <= e < size for e in L):
                raise InputError("line element out of range")
            lid = len(self.lines)
            for a, b in itertools.combinations(sorted(L), 2):
                if (a, b) in pair_line:
                    raise InputError(
                        f"elements {a},{b} lie on two listed lines"
                    )
                pair_line[(a, b)] = lid
            self.lines.append(L)
        self._pair_line = pair_line

    def _line_through(self, a: int, b: int) -> frozenset[int] | None:
        lid = self._pair_line.get((a, b) if a < b else (b, a))
        return self.lines[lid] if lid is not None else None

    def rank_subset(self, subset: tuple[int, ...]) -> int:
        n = len(subset)
        if n <= 2:
            return n
        a, b = subset[0], subset[1]
        line = self._line_through(a, b)
        if line is not None and all(e in line for e in subset):
            return 2
        return 3

    def closure_fast(self, subset: tuple[int, ...]):
        r = self.rank_subset(subset)
        if r <= 1:
            return r, list(subset)
        if r == 2:
            line = self._line_through(subset[0], subset[1])
            return 2, sorted(line) if line is not None else list(subset)
        return 3, list(range(self.size))


class CircuitBackend:
    """Rank via greedy independence over an explicit circuit list.

    The list must be the circuits of a matroid: an antichain that satisfies
    circuit elimination. Both are checked unless ``checked`` says the
    caller built the list from a matroid.
    """

    name = "circuits"

    def __init__(self, size: int, circuits: Iterable[Iterable[int]], *,
                 checked: bool = False):
        self.size = size
        seen = set()
        self.circuit_list: list[frozenset[int]] = []
        for c in circuits:
            C = frozenset(c)
            if not C:
                raise InputError("empty circuit")
            if not all(0 <= e < size for e in C):
                raise InputError("circuit element out of range")
            if C not in seen:
                seen.add(C)
                self.circuit_list.append(C)
        if not checked:
            # imported here: a job that checks no list does not compile it
            from .circuits import check_circuit_axioms

            check_circuit_axioms(size, self.circuit_list)
        self._by_element: list[list[frozenset[int]]] = [[] for _ in range(size)]
        for C in self.circuit_list:
            for e in C:
                self._by_element[e].append(C)

    def rank_subset(self, subset: tuple[int, ...]) -> int:
        indep: set[int] = set()
        for e in subset:
            trial = indep | {e}
            if not any(C <= trial for C in self._by_element[e]):
                indep.add(e)
        return len(indep)


class MinorBackend:
    """Restriction/contraction oracle against a parent matroid."""

    name = "minor"

    def __init__(self, parent: "Matroid", kept: Sequence[int], contracted: Iterable[int]):
        self.parent = parent
        self.kept = tuple(kept)
        self.contracted = frozenset(contracted)
        self._base = parent.rank(self.contracted)

    @property
    def size(self) -> int:
        return len(self.kept)

    def rank_subset(self, subset: tuple[int, ...]) -> int:
        mapped = {self.kept[i] for i in subset}
        return self.parent.rank(mapped | self.contracted) - self._base


# ---------------------------------------------------------------------------


class Matroid:
    """A matroid over a dense integer ground set, defined by a rank oracle."""

    name: str | None = None

    def __init__(self, backend, labels: Sequence[str] | None = None, *,
                 ground: GroundSet | None = None):
        if ground is None:
            ground = GroundSet(backend.size, labels)
        if ground.size != getattr(backend, "size", ground.size):
            raise InputError("backend size disagrees with ground set")
        self.ground = ground
        self.backend = backend
        self._full_rank: int | None = None
        self._full_connected: bool | None = None
        # the answers of the oracle's own rank and closure queries
        self._rank_cache: dict[frozenset[int], int] = {}
        self._closure_cache: dict[frozenset[int], Flat] = {}
        # per rank up to the deepest walk, in canonical order, each flat's bitmask
        # -> the bitmask of the flat the walk found it from (None for cl(empty set))
        self._flats_cache: dict[int, dict[int, int | None]] = {}
        # per rank, its connected flats, as above: the connected walk's or the full walk's
        self._connected_cache: dict[int, dict[int, int | None]] = {}
        # the cover state of cl(empty set), which every walk starts from
        self._root_state: kernels.CoverState | None = None

    # -- basics ------------------------------------------------------------

    @property
    def size(self) -> int:
        return self.ground.size

    def elements(self) -> range:
        return range(self.size)

    def _check_subset(self, subset: Iterable[int]) -> frozenset[int]:
        S = frozenset(subset)
        for e in S:
            if not isinstance(e, int) or not 0 <= e < self.size:
                raise InputError(f"element {e!r} outside ground set")
        return S

    def rank(self, subset: Iterable[int]) -> int:
        S = self._check_subset(subset)
        hit = self._rank_cache.get(S)
        if hit is not None:
            return hit
        walked = self._walked_rank(_mask(S))
        if walked is not None:
            return walked
        r = self._rank_cache[S] = self.backend.rank_subset(tuple(sorted(S)))
        return r

    def full_rank(self) -> int:
        if self._full_rank is None:
            self._full_rank = self.rank(range(self.size))
        return self._full_rank

    def is_independent(self, subset: Iterable[int]) -> bool:
        S = self._check_subset(subset)
        return self.rank(S) == len(S)

    def closure(self, subset: Iterable[int]) -> Flat:
        S = self._check_subset(subset)
        hit = self._closure_cache.get(S)
        if hit is not None:
            return hit
        walked = self._walked_rank(_mask(S))
        if walked is not None:
            return Flat(S, walked)
        fast = getattr(self.backend, "closure_fast", None)
        if fast is not None:
            r, members = fast(tuple(sorted(S)))
            flat = Flat(frozenset(members), r)
        else:
            r = self.rank(S)
            members = set(S)
            for e in range(self.size):
                if e not in S and self.rank(S | {e}) == r:
                    members.add(e)
            flat = Flat(frozenset(members), r)
        self._closure_cache[S] = flat
        self._closure_cache.setdefault(flat.elements, flat)
        self._rank_cache.setdefault(S, flat.rank)
        self._rank_cache.setdefault(flat.elements, flat.rank)
        return flat

    def is_flat(self, subset: Iterable[int]) -> bool:
        S = self._check_subset(subset)
        return self.closure(S).mask == _mask(S)

    def _walked_rank(self, mask: int) -> int | None:
        """The rank of the walked flat with this bitmask, or None."""
        for k, level in self._flats_cache.items():
            if mask in level:
                return k
        return None

    def is_simple(self) -> bool:
        """No loops, and every rank-1 flat is one element.

        Reads the points off the walk's rank-1 level: a walk to rank 1 is
        the one covers elimination of the empty flat, whose state deeper
        walks start from.
        """
        if self.closure(()).elements:
            return False
        # without loops, a nonempty ground set has rank at least 1
        return not self.size or all(P.bit_count() == 1 for P in self._level(1))

    # -- flats, level by level ----------------------------------------------

    def _covers(self, F: frozenset[int]):
        """The flats covering a flat F, ordered by their least element outside F."""
        fast = getattr(self.backend, "covers_fast", None)
        if fast is not None:
            state, mask = fast(tuple(sorted(F))), _mask(F)
            for group in state.groups:
                yield Flat.of_mask(mask | group, state.rank + 1)
            return
        # One closure per cover: for every e in G \ F, cl(F + e) is a flat of
        # rank r(F) + 1 inside G = cl(F + e0), so it is G itself.
        seen = set(F)
        for e in range(self.size):
            if e not in seen:
                G = self.closure(F | {e})
                seen.update(G.elements)
                yield G

    def flats_of_rank(self, k: int, *, max_covers: int | None = None) -> list[Flat]:
        """All rank-k flats, canonically ordered by sorted element tuple.

        Read off the stored levels when a walk has reached rank k; else one
        depth-first walk from cl(empty set) to rank k (``_walk``) replaces
        them with levels 0 to k. So a caller that reads several levels asks
        for the deepest first. ``max_covers`` caps the covers that walk
        issues, counted from cl(empty set): past it the walk raises
        BudgetExceeded with the flats it found per rank, and stores nothing.
        """
        return [Flat.of_mask(G, k) for G in self._level(k, max_covers)]

    def _level(self, k: int, max_covers: int | None = None) -> dict[int, int | None]:
        """The walk's stored level k, walked to as ``flats_of_rank`` walks."""
        self._check_walk(k, max_covers)
        if k not in self._flats_cache:
            self._walk(k, max_covers)
        return self._flats_cache[k]

    def connected_flats_of_rank(self, k: int, *, max_covers: int | None = None) -> list[Flat]:
        """All connected rank-k flats, canonically ordered by sorted element tuple,
        read off ``_connected_level``; ``max_covers`` is as in ``flats_of_rank``."""
        return [Flat.of_mask(G, k) for G in self._connected_level(k, max_covers)]

    def _connected_level(self, k: int, max_covers: int | None = None) -> dict[int, int | None]:
        """The stored connected level k, the connected part of the walked level k.

        From rank 3 up, on a simple reflection arrangement
        (``VectorBackend.reflection_closed``), one connected walk to rank k
        (``_walk``) stores the connected levels 0 to k. Elsewhere, and
        wherever the full walk has already stored rank k, the full walk's
        levels are filtered (``_connected_levels``): up to rank 2 both walks
        expand the points alone, so the full walk costs no more.
        """
        self._check_walk(k, max_covers)
        if k not in self._connected_cache:
            if k < 3 or k in self._flats_cache or not getattr(
                self.backend, "reflection_closed", False
            ):
                self._level(k, max_covers)
                self._connected_cache = self._connected_levels()[0]
            else:
                self._walk(k, max_covers, connected=True)
        return self._connected_cache[k]

    def _check_walk(self, k: int, max_covers: int | None) -> None:
        if not 0 <= k <= self.full_rank():
            raise InputError(f"no flats of rank {k} (matroid rank {self.full_rank()})")
        if max_covers is not None and max_covers < 0:
            raise InputError(f"max_covers must be non-negative, got {max_covers}")

    def _walk(self, k: int, max_covers: int | None, connected: bool = False) -> None:
        """Walk the lattice of flats depth-first from cl(empty set) to rank k.

        The path is an explicit stack of flats, each a bitmask with its
        rank, its cover state and the bitmasks of the covers not yet issued:
        F | g for each group g of the state, one int per cover. A cover G of
        F not seen before (an int lookup in its level) is recorded as
        ``level[G] = F``, the flat it was found from (read by
        ``_connected_levels``), and, below rank k, pushed at once. On a
        vector matroid its cover state is one ``cover_step`` from the state
        of F: one step per flat below rank k, at most k states alive, and
        the empty flat eliminated from scratch once per matroid. Elsewhere
        the covers come from one closure per cover. The levels are stored,
        in canonical order, only when the walk completes.

        The connected walk (``connected``) records and pushes a cover G of
        a flat F of rank 1 or more only when G has two or more elements
        outside F: ``(G & ~F).bit_count() >= 2``. Run from the points of a
        simple matroid, it records connected flats alone (``fan``'s module
        docstring has the proof, and the proof that on a reflection
        arrangement it records them all). Its levels go to
        ``_connected_cache``, and its budget counts every cover it issues.

        The full walk to rank 2 keys each line once, from the first point it
        visits on the line: it steps each point P with the lines already
        recorded through P as ``skip`` (``_point_state``). Those are the
        lines through any non-loop element e of P, as cl{e} = P. Only there:
        a deeper walk steps on from the points' states, so they must hold
        every cover.
        """
        root = self.closure(()).mask
        if k and self._root_state is None and getattr(self.backend, "covers_fast", None):
            self._root_state = self.backend.covers_fast(tuple(_members(root)))
        # cl(empty set) has no element, so it is not connected
        levels = [{} if connected else {root: None}] + [{} for _ in range(k)]
        issued = 0
        lines = [0] * self.size if k == 2 and not connected else None
        path = [self._on_path(root, 0, self._root_state)] if k else []
        while path:
            F, rank, state, covers = path[-1]
            level = levels[rank + 1]
            for g, G in covers:
                issued += 1
                if max_covers is not None and issued > max_covers:
                    counts = [len(found) for found in levels[1:]]
                    walk, kind = ("connected-flat", "connected ") if connected else ("flat-lattice", "")
                    raise BudgetExceeded(
                        f"the {walk} walk to rank {k} needs more than {max_covers} "
                        f"covers; it had found {sum(counts)} {kind}flats, by rank "
                        f"from 1 to {k}: {', '.join(map(str, counts))}"
                    )
                if connected and rank and (G & ~F).bit_count() < 2 or G in level:
                    continue
                level[G] = F
                if rank + 1 < k:
                    if state is None:
                        step = None
                    elif lines is None:
                        step = self.backend.cover_step(state, g)
                    else:
                        step = self._point_state(state, g, G, G & ~F, lines)
                    path.append(self._on_path(G, rank + 1, step))
                    break
            else:
                path.pop()
        stored = {
            j: {G: level[G] for G in sorted(level, key=_canonical_key)}
            for j, level in enumerate(levels)
        }
        if connected:
            self._connected_cache = stored
        else:
            self._flats_cache = stored

    def _point_state(self, state: kernels.CoverState, g: int, P: int, group: int,
                     lines: list[int]) -> kernels.CoverState:
        """The cover state of the point P, the g-th cover of cl(empty set)
        (``group`` is P without the loops), in a walk to the lines. ``lines``
        holds per element the union of the recorded lines through it: P's
        step skips those through its least non-loop element, and each line
        it adds then joins ``lines`` at its elements outside P."""
        step = self.backend.cover_step(state, g, lines[(group & -group).bit_length() - 1])
        for rest in step.groups:
            for e in _members(rest):
                lines[e] |= P | rest
        return step

    def _on_path(self, F: int, rank: int, state: kernels.CoverState | None):
        """The flat F (a bitmask) of this rank as the walk's path holds it:
        with its cover state (None off a vector matroid) and its covers'
        bitmasks, numbered as ``cover_step`` numbers them."""
        if state is None:
            covers = (G.mask for G in self._covers(frozenset(_members(F))))
        else:
            covers = map(F.__or__, state.groups)
        return F, rank, state, enumerate(covers)

    def flat_census(self) -> list[AbstractSet[int]]:
        """The flats as bitmasks, indexed by rank; rank r(M) holds E alone.

        Each level below rank r(M) is the read-only key view of the walk's
        level, not a copy.
        """
        r = self.full_rank()
        if r:
            self._level(r - 1)
        top = frozenset(((1 << self.size) - 1,))
        return [self._flats_cache[k].keys() for k in range(r)] + [top]

    # -- connectivity --------------------------------------------------------

    def is_connected(self, flat: Iterable[int]) -> bool:
        """Connectivity of the restriction to a flat.

        A flat the lattice walk found is connected iff it is in its rank's
        connected level (``_connected_level``), with no flatness, rank or
        closure query. E, before the walk reaches it, is connected when the
        stored lines join it (``_lines_join``); any other flat, such as the
        join of two rays, and E where the lines do not decide, uses the
        fundamental-circuit graph of a greedy basis (``_connected``). E's
        verdict is kept, as its rank is.
        """
        F = self._check_subset(flat)
        mask = _mask(F)
        walked = self._walked_rank(mask)
        if walked is not None:
            return mask in self._connected_level(walked)
        if len(F) == self.size:
            if self._full_connected is None:
                self._full_connected = self._lines_join() or self._connected(F)
            return self._full_connected
        if not self.is_flat(F):
            raise InputError("connectivity is defined here only for flats")
        return self._connected(F)

    def _connected_levels(self) -> tuple[dict[int, dict[int, int | None]], list]:
        """The full walk's stored levels, each kept to its connected flats, and
        the components of each flat with exactly two, both of positive rank:
        ((A, r(A)), (B, r(B))), with A and B as bitmasks.

        The components of M|G, as bitmasks with their ranks, come level by
        level from those of the flat F that level r(G) maps G to, with no
        rank or closure query; only the level below's components are kept.
        """
        connected: dict[int, dict[int, int | None]] = {}
        pairs: list[tuple[tuple[int, int], ...]] = []
        below: dict[int, tuple[tuple[int, int], ...]] = {}
        for r, level in self._flats_cache.items():
            components: dict[int, tuple[tuple[int, int], ...]] = {}
            for G, F in level.items():
                if F is None:
                    # the flat cl(empty set) the walk starts from: each loop alone
                    comps = tuple((1 << e, 0) for e in _members(G))
                else:
                    # G covers F. If M|G has the components C_i, then F is the
                    # union of the flats F & C_i of the C_i, and 1 = r(G) - r(F)
                    # is the sum of the r(C_i) - r(F & C_i); so all of G \ F
                    # lies in one component C, and every other component lies
                    # in F, where it is a connected separator of M|F: a
                    # component of F. A component K of F is a separator of M|G
                    # iff r(K) + r(G \ K) = r(G). A loop always is. Otherwise K
                    # holds no loop, so G \ K is then a flat (cl(G \ K) & K is
                    # the closure of the empty set in M|K), and conversely a
                    # flat G \ K of rank r(G) - r(K) makes K a separator. That
                    # rank is below r(G), and the walk stores every level up to
                    # r(G) at once, so the lookup sees every flat of it. The
                    # components of F that are not separators join G \ F.
                    kept = [
                        (K, rK) for K, rK in below[F]
                        if rK == 0 or G & ~K in self._flats_cache[r - rK]
                    ]
                    rest = G & ~sum(K for K, _ in kept)  # disjoint masks: + is |
                    comps = (*kept, (rest, r - sum(rK for _, rK in kept)))
                    if len(comps) == 2 and comps[0][1] and comps[1][1]:
                        pairs.append(comps)
                components[G] = comps
            connected[r] = {G: F for G, F in level.items() if len(components[G]) == 1}
            below = components
        return connected, pairs

    def _lines_join(self) -> bool:
        """Whether M is simple and its stored lines of three or more points
        join all of E, read off the stored levels with no backend call.

        Any 3 points of a line of a simple matroid form a circuit, and
        elements that share a circuit lie in one component (Oxley 2011,
        §4.1), so then M is connected. False, leaving the verdict to
        ``_connected``, when the stored levels 0 and 1 do not show M simple,
        when no lines are stored, or when they leave E apart. On a simple
        matroid the connected lines are exactly these lines.
        """
        if 1 not in self._flats_cache or not self.is_simple():
            return False
        lines = self._connected_cache.get(2)
        if lines is None:
            if 2 not in self._flats_cache:
                return False
            lines = [L for L in self._flats_cache[2] if L.bit_count() >= 3]
        full, reached, grown = (1 << self.size) - 1, 1, True
        while grown and reached != full:
            grown = False
            for L in lines:
                if L & reached and L & ~reached:
                    reached |= L
                    grown = True
        return reached == full

    def _connected(self, F: frozenset[int]) -> bool:
        """Whether M|F is connected, for a flat F, by the fundamental-circuit
        graph of a greedy basis B of F (Krogdahl 1977): each element is
        joined to its support in B (``_fundamental``)."""
        if len(F) < 2:
            return len(F) == 1
        basis, supports = self._fundamental(F, F)
        edges = [supports[e] for e in F]
        if not all(edges):  # a loop, alone in its component
            return False
        reached = 1
        for _ in basis:  # each pass reaches a new member of B, or no pass will
            for s in edges:
                if s & reached:
                    reached |= s
        return reached == (1 << len(basis)) - 1

    def _fundamental(self, subset: Iterable[int],
                     asked: Iterable[int]) -> tuple[list[int], dict[int, int]]:
        """A greedy basis B of the subset in ascending order, and each asked
        element e of the subset's closure, ascending, mapped to its support in
        B, the members of B on its fundamental circuit, as a bitmask (bit j
        for B[j]). For T within B, cl(T) = {e : supp(e) within T} (Oxley 2011,
        §1.2). A vector matroid reads both off one elimination
        (``kernels.fundamental_*``); others take 2|B| closures, for
        supp(e) = {b_j : e not in cl(B - b_j)}.
        """
        S, asked = tuple(sorted(subset)), tuple(sorted(asked))
        fast = getattr(self.backend, "fundamental_fast", None)
        if fast is not None:
            return fast(S, asked)
        basis: list[int] = []
        span = self.closure(())
        for e in S:
            if e not in span.elements:
                basis.append(e)
                span = self.closure(basis)
        rests = [self.closure(basis[:j] + basis[j + 1:]).mask for j in range(len(basis))]
        return basis, {
            e: sum(1 << j for j, rest in enumerate(rests) if not rest >> e & 1)
            for e in asked if e in span
        }

    # -- circuits -------------------------------------------------------------

    def circuits(self, *, max_elements: int = 16) -> list[frozenset[int]]:
        """All circuits (minimal dependent sets), smallest first.

        Exponential in general, so guarded by a ground-set budget; the
        circuit backend returns its defining list directly.
        """
        if isinstance(self.backend, CircuitBackend):
            return sorted(self.backend.circuit_list, key=lambda C: (len(C), sorted(C)))
        if self.size > max_elements:
            raise BudgetExceeded(
                f"circuit enumeration over {self.size} elements exceeds the "
                f"budget of {max_elements}; raise max_elements to override"
            )
        found: list[frozenset[int]] = []
        r = self.full_rank()
        for k in range(1, min(self.size, r + 1) + 1):
            for S in itertools.combinations(range(self.size), k):
                fs = frozenset(S)
                if any(C <= fs for C in found):
                    continue
                if self.rank(fs) < k:
                    found.append(fs)
        return sorted(found, key=lambda C: (len(C), sorted(C)))

    # -- minors ----------------------------------------------------------------

    def restrict(self, subset: Iterable[int]) -> "Matroid":
        S = sorted(self._check_subset(subset))
        ground = GroundSet(len(S), [self.ground.label(e) for e in S])
        return Matroid(MinorBackend(self, S, ()), ground=ground)

    def contract(self, subset: Iterable[int] | int) -> "Matroid":
        if isinstance(subset, int):
            subset = {subset}
        C = self._check_subset(subset)
        kept = [e for e in range(self.size) if e not in C]
        ground = GroundSet(len(kept), [self.ground.label(e) for e in kept])
        return Matroid(MinorBackend(self, kept, C), ground=ground)

    def simplify(self) -> tuple["Matroid", list[int | None]]:
        """Merge parallel classes and drop loops.

        Returns the simple quotient together with the explicit quotient map:
        old index -> new index, or None for deleted loops.
        """
        # every rank-1 flat is one parallel class together with the loops
        loops = self.closure(()).elements
        classes = sorted(
            sorted(F.elements - loops)
            for F in (self.flats_of_rank(1) if self.full_rank() else ())
        )
        quotient: list[int | None] = [None] * self.size
        for i, cls in enumerate(classes):
            for e in cls:
                quotient[e] = i
        return self.restrict([cls[0] for cls in classes]), quotient

    def __repr__(self):
        return f"Matroid(size={self.size}, backend={self.backend.name})"


# ---------------------------------------------------------------------------
# flat censuses


def census_mismatch(census: Sequence[AbstractSet[int]],
                    other: Sequence[AbstractSet[int]],
                    forward: Sequence[int] | None = None) -> int | None:
    """The least rank whose flats ``forward`` does not carry onto ``other``'s, or None.

    Both censuses are lists of flat bitmasks by rank (``Matroid.flat_census``),
    and ``forward`` is an element bijection as its image sequence, the
    identity when None. Censuses of different length first disagree at the
    least rank that only one of them has.
    """
    common = min(len(census), len(other))
    for k in range(common):
        mapped = census[k] if forward is None else {
            _mask(forward[e] for e in _members(F)) for F in census[k]
        }
        if mapped != other[k]:
            return k
    return None if len(census) == len(other) else common
