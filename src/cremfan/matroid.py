"""Matroids with exact rank oracles.

Elements are dense integer indices ``0..m-1``; a :class:`GroundSet` carries
optional display labels next to the indices. Three primitive backends give
the rank function (column vectors over an exact field, a rank-3 line
presentation, an explicit circuit list), and minors are represented lazily
against their parent oracle. The lattice walk (``Matroid.flats_of_rank``)
goes from cl(empty set) to the rank asked for and stores each rank as one
dict, the only store of its flats: it maps each flat's bitmask (bit e for
element e) to the bitmask of a flat of the rank below that it covers; a
``Flat`` is made only for a caller that reads one. The walk (``_walk``)
is depth-first, fills orbits of automorphisms on a reflection arrangement
and reads covers off cover states, each stepped from the state of a flat
it covers: by the kernels on a vector matroid, by closures elsewhere. The
rank and closure oracle (``_rank_of``, ``_closure_of``) takes bitmasks,
answers a walked flat off its level and caches the rest by bitmask; the
public queries check their elements once (``_check_subset``). The
connected flats are stored as connected levels
(``connected_flats_of_rank``), which a walked flat's connectivity is read
off.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

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


# the flats per block of a level's index of recorded flats (``_Recorded``)
_BLOCK = 4096


class _Recorded:
    """The flats of one level a walk has recorded, indexed by element: per
    block of ``_BLOCK`` flats, in recording order, each element's bitset of
    the block's flats that hold it (bit i for the block's i-th flat). The
    blocks keep the bitsets short, so reading the few flats above a basis
    does not cost operations on ints as long as the level (E7's level 5
    holds 36,435 flats)."""

    __slots__ = ("_size", "_blocks")

    def __init__(self, size: int):
        self._size = size
        self._blocks: list[tuple[list[int], list[int]]] = [([], [0] * size)]

    def add(self, G: int, elements: Iterable[int]) -> None:
        """Record the flat G, holding the given elements."""
        flats, holders = self._blocks[-1]
        if len(flats) == _BLOCK:
            flats, holders = [], [0] * self._size
            self._blocks.append((flats, holders))
        bit = 1 << len(flats)
        flats.append(G)
        for e in elements:
            holders[e] |= bit

    def above(self, basis: Sequence[int]) -> tuple[int, int]:
        """How many recorded flats hold every element of ``basis``, and
        their union."""
        first, rest = basis[0], basis[1:]
        count = union = 0
        for flats, holders in self._blocks:
            hit = holders[first]
            for e in rest:
                hit &= holders[e]
            count += hit.bit_count()
            while hit:  # from the top bit down, so each step shortens the int
                top = hit.bit_length() - 1
                union |= flats[top]
                hit ^= 1 << top
        return count, union


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
    """Columns of an exact matrix; rank queries go through the kernels.
    Over Q their rows are made from the given entries (ints make no
    Fraction), and ``vectors`` is built on first read."""

    name = "vectors"

    def __init__(self, field: Field, vectors: Sequence[Sequence]):
        self.field = field
        self._entries = [tuple(v) for v in vectors]
        if field.kind == "Q":
            self._rows = [primitive_int_vector(v) for v in self._entries]
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
        if len({len(v) for v in self._entries}) > 1:
            raise InputError("vectors of mixed dimension")

    @cached_property
    def vectors(self) -> list[list]:
        """The vectors, as field elements."""
        coerce = self.field.coerce
        return [[coerce(x) for x in v] for v in self._entries]

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
    def reflections(self):
        """None unless the vectors are nonzero, pairwise non-proportional and
        closed up to sign and scale under their own reflections (none over F_p,
        which has no inner product); else the reflection pass's ``orbits.Reflections``."""
        if self.field.kind not in ("Q", "Qsqrt5"):
            return None
        from .orbits import reflections

        return reflections(self._rows, self.field.kind)


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
        self.contracted = _mask(contracted)  # a bitmask of the parent's elements
        self._base = parent._rank_of(self.contracted)

    @property
    def size(self) -> int:
        return len(self.kept)

    def rank_subset(self, subset: tuple[int, ...]) -> int:
        mapped = _mask(self.kept[i] for i in subset)
        return self.parent._rank_of(mapped | self.contracted) - self._base


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
        # the answers of the oracle's own rank and closure queries, by bitmask
        self._rank_cache: dict[int, int] = {}
        self._closure_cache: dict[int, int] = {}
        # per rank up to the deepest walk, in canonical order, each flat's bitmask
        # -> the bitmask of a flat it covers (None for cl(empty set))
        self._flats_cache: dict[int, dict[int, int | None]] = {}
        # per rank, its connected flats' bitmasks, with no values, as above
        self._connected_cache: dict[int, dict[int, None]] = {}
        # the cover state of cl(empty set), which every walk starts from
        self._root_state: kernels.CoverState | None = None

    # -- basics ------------------------------------------------------------

    @property
    def size(self) -> int:
        return self.ground.size

    def elements(self) -> range:
        return range(self.size)

    def _check_subset(self, subset: Iterable[int]) -> int:
        """The bitmask of a subset of E; InputError for an element outside E."""
        mask = 0
        for e in subset:
            if not isinstance(e, int) or not 0 <= e < self.size:
                raise InputError(f"element {e!r} outside ground set")
            mask |= 1 << e
        return mask

    def rank(self, subset: Iterable[int]) -> int:
        return self._rank_of(self._check_subset(subset))

    def _rank_of(self, S: int) -> int:
        """The rank of the subset with bitmask S."""
        hit = self._rank_cache.get(S)
        if hit is not None:
            return hit
        walked = self._walked_rank(S)
        if walked is not None:
            return walked
        r = self._rank_cache[S] = self.backend.rank_subset(tuple(_members(S)))
        return r

    def full_rank(self) -> int:
        if self._full_rank is None:
            self._full_rank = self._rank_of((1 << self.size) - 1)
        return self._full_rank

    def is_independent(self, subset: Iterable[int]) -> bool:
        S = self._check_subset(subset)
        return self._rank_of(S) == S.bit_count()

    def closure(self, subset: Iterable[int]) -> Flat:
        C = self._closure_of(self._check_subset(subset))
        return Flat.of_mask(C, self._rank_of(C))

    def _closure_of(self, S: int) -> int:
        """The bitmask of the closure of the subset with bitmask S."""
        hit = self._closure_cache.get(S)
        if hit is not None:
            return hit
        if self._walked_rank(S) is not None:
            return S
        fast = getattr(self.backend, "closure_fast", None)
        if fast is not None:
            r, members = fast(tuple(_members(S)))
            C = _mask(members)
        else:
            r, C = self._rank_of(S), S
            for e in range(self.size):
                if not S >> e & 1 and self._rank_of(S | 1 << e) == r:
                    C |= 1 << e
        self._closure_cache[S] = C
        self._closure_cache.setdefault(C, C)
        self._rank_cache.setdefault(S, r)
        self._rank_cache.setdefault(C, r)
        return C

    def is_flat(self, subset: Iterable[int]) -> bool:
        S = self._check_subset(subset)
        return self._closure_of(S) == S

    def _walked_rank(self, mask: int) -> int | None:
        """The rank of the walked flat with this bitmask, or None."""
        for k, level in self._flats_cache.items():
            if mask in level:
                return k
        return None

    def is_simple(self) -> bool:
        """No loops, and every rank-1 flat is one element: read off the walk's
        rank-1 level, the empty flat's state, which deeper walks start from."""
        if self._closure_of(0):
            return False
        # without loops, a nonempty ground set has rank at least 1
        return not self.size or all(P.bit_count() == 1 for P in self._level(1))

    # -- flats, level by level ----------------------------------------------

    def _closure_state(self, F: int, rank: int, skip: int = 0) -> kernels.CoverState:
        """The cover state of a flat F of this rank by closures, ``reps`` None:
        one closure per cover not inside ``skip``, by least element."""
        groups, rest = [], (1 << self.size) - 1 & ~(F | skip)
        while rest:
            group = self._closure_of(F | rest & -rest) & ~F  # cl(F + e) for the least e left
            groups.append(group)
            rest &= ~group
        return kernels.CoverState(rank, groups, None)

    def _root(self) -> tuple[int, kernels.CoverState]:
        """cl(empty set) and its cover state, made once per matroid."""
        root = self._closure_of(0)
        if self._root_state is None:
            fast = getattr(self.backend, "covers_fast", None)
            self._root_state = fast(tuple(_members(root))) if fast else self._closure_state(root, 0)
        return root, self._root_state

    def _step(self, state: kernels.CoverState, g: int, G: int, skip: int = 0) -> kernels.CoverState:
        """The state of G, the g-th cover of ``state``'s flat, less G's covers in ``skip``."""
        if state.reps is None:
            return self._closure_state(G, state.rank + 1, skip)
        return self.backend.cover_step(state, g, skip)

    def _store(self, levels: list[dict[int, int | None]], connected: bool = False) -> None:
        """Store walked levels in canonical order, as the full or, ``connected``,
        the connected levels, freeing each once it is sorted."""
        stored = {}
        for j, level in enumerate(levels):
            stored[j] = {G: level[G] for G in sorted(level, key=_canonical_key)}
            levels[j] = None
        if connected:
            self._connected_cache = stored
        else:
            self._flats_cache = stored

    def flats_of_rank(self, k: int, *, max_covers: int | None = None) -> list[Flat]:
        """All rank-k flats, canonically ordered by sorted element tuple.

        Read off the stored levels when a walk has reached rank k; else one
        walk (``_walk``) from cl(empty set) to rank k replaces them with
        levels 0 to k, so a caller that reads several levels asks for the
        deepest first. Past ``max_covers`` covers, counted from cl(empty
        set), the walk raises BudgetExceeded and stores nothing."""
        return [Flat.of_mask(G, k) for G in self._level(k, max_covers)]

    def _level(self, k: int, max_covers: int | None = None) -> dict[int, int | None]:
        """The walk's stored level k, walked to as ``flats_of_rank`` walks."""
        self._check_walk(k, max_covers)
        if k not in self._flats_cache:
            self._walk(k, max_covers, self._generators(k))
        return self._flats_cache[k]

    def connected_flats_of_rank(self, k: int, *, max_covers: int | None = None) -> list[Flat]:
        """All connected rank-k flats, canonically ordered by sorted element tuple,
        read off ``_connected_level``; ``max_covers`` is as in ``flats_of_rank``."""
        return [Flat.of_mask(G, k) for G in self._connected_level(k, max_covers)]

    def _connected_level(self, k: int, max_covers: int | None = None) -> dict[int, int | None]:
        """The stored connected level k: from rank 3 up on a reflection
        arrangement, one connected walk stores the connected levels 0 to k;
        elsewhere, or once the full walk has stored rank k, the full walk's
        levels are filtered (``_connected_levels``). Up to rank 2 both walks
        expand the points alone, so the full walk costs no more."""
        self._check_walk(k, max_covers)
        if k not in self._connected_cache:
            perms = () if k in self._flats_cache else self._generators(k)
            if perms:
                self._walk(k, max_covers, perms, connected=True)
            else:
                self._level(k, max_covers)
                self._connected_levels()
        return self._connected_cache[k]

    def _generators(self, k: int) -> Sequence[list[int]]:
        """The automorphisms a walk to rank k fills orbits with: a reflection
        arrangement's generators from rank 3 up, else none (below rank 3 the
        walk's n + 1 eliminations or fewer cost less than the reflection pass)."""
        reflections = k >= 3 and getattr(self.backend, "reflections", None)
        return reflections.generators if reflections else ()

    def _check_walk(self, k: int, max_covers: int | None) -> None:
        if not 0 <= k <= self.full_rank():
            raise InputError(f"no flats of rank {k} (matroid rank {self.full_rank()})")
        if max_covers is not None and max_covers < 0:
            raise InputError(f"max_covers must be non-negative, got {max_covers}")

    def _walk(self, k: int, max_covers: int | None, perms: Sequence[list[int]] = (),
              connected: bool = False) -> None:
        """Walk the lattice of flats depth-first from cl(empty set) to rank k
        (``connected``: its connected flats), filling orbits under the
        automorphisms ``perms`` (element permutations), if any.

        The path is an explicit stack of flats, each a bitmask with its
        rank, its cover state and its covers not yet issued, F | g per group
        g of the state. A cover G of F not seen before (an int lookup in its
        level) is recorded as ``level[G] = F``, the flat it was found from
        (read by ``_connected_levels``; None in the connected walk, which
        past the points records G only when |G - F| >= 2: :mod:`cremfan.fan`),
        and, below rank k, pushed at once with its state one ``_step`` from
        F's (at most k states alive); the levels are stored (``_store``) when
        it completes. With ``perms``, recording G fills its orbit (argued in
        :mod:`cremfan.orbits` and :mod:`cremfan.fan`) and pushes G alone; an
        image Y = h(X) is recorded with h(level[X]) as the key object of F's
        orbit.

        With neither, G is stepped with ``skip`` the union of its covers
        already recorded: with x_i the least element the path's i-th flat
        adds, G = cl(x_1, ..., x_j), so they are the recorded flats of rank
        j + 1 holding every x_i, read off a per-rank index (``_Recorded``)
        or, in the walk to the lines, the recorded lines through x_1
        (``lines``, ``through``). The walk then issues one cover per flat,
        with the levels, values and order of a walk that skips nothing.
        Proof, for G the g-th cover of F: a state by closures holds G's
        covers outside the skip, each whole, as they partition E - G and the
        skip is G and some of them. A kernel step makes G's state from F's:

        * for a cover C of F other than G, all of C - F lies in one cover of
          G (for e in C - F, cl(G + e) holds C); so a group of F's state
          inside the skip lies inside one recorded cover of G, and no cover
          of G left unrecorded loses a group to the skip;
        * F's state lacks only covers C of F recorded when F was pushed. A
          recorded flat below rank k is pushed at once and fully expanded
          before the walk moves on, and C is not on the path, whose top is
          F; so every cover of C is recorded, and a cover of G can lose a
          group only when it is itself recorded and skipped;
        * hence, by induction from the empty flat's state, made from scratch,
          each state holds exactly the covers not yet recorded when it was
          made, each with its whole group.

        The budget counts a flat's covers when its state is made, cl(empty
        set)'s first: |orbit| * (covers in the state + recorded covers
        skipped). That is every cover of every flat below rank k, as a walk
        that skips nothing and fills no orbit counts them, so both stop alike."""
        root, state = self._root()
        # cl(empty set) has no element, so it is not connected
        levels = [{} if connected else {root: None}] + [{} for _ in range(k)]
        issued = 0

        def count(state: kernels.CoverState, size: int = 1, skipped: int = 0) -> None:
            nonlocal issued
            issued += size * (len(state.groups) + skipped)
            if max_covers is not None and issued > max_covers:
                walk, kind = ("connected-flat", "connected ") if connected else ("flat-lattice", "")
                counts = [len(found) for found in levels[1:]]
                raise BudgetExceeded(
                    f"the {walk} walk to rank {k} needs more than {max_covers} "
                    f"covers; it had found {sum(counts)} {kind}flats, by rank "
                    f"from 1 to {k}: {', '.join(map(str, counts))}"
                )

        lines = index = keys = None
        if perms:
            from .orbits import _tables, fill_orbit

            tables, width = [_tables(perm) for perm in perms], (self.size + 7) // 8
            # per path rank, the key objects of the path flat's orbit
            keys = None if connected else [{root: root}] + [None] * k
        elif not connected and k == 2:
            lines, through = [0] * self.size, [0] * self.size
        elif not connected:
            # per rank, the recorded flats the walk skips; per path rank,
            # the path flat's basis x_1, ..., x_j and its elements (no loop)
            index = [None, None] + [_Recorded(self.size) for _ in range(2, k + 1)]
            bases, held = [()] * k, [[]] * k
        path = [self._on_path(root, 0, state)] if k else []
        if k:
            count(state)
        while path:
            F, rank, state, covers = path[-1]
            level = levels[rank + 1]
            recorded = index[rank + 1] if index is not None else None
            for g, G in covers:
                if G in level or connected and rank and (G ^ F).bit_count() < 2:
                    continue
                level[G] = None if connected else F
                orbit = fill_orbit(level, G, tables, width, keys and keys[rank]) if perms else [G]
                if index is not None:
                    elements = held[rank] + _members(G & ~F)
                    if recorded is not None:
                        recorded.add(G, elements)
                if rank + 1 < k:
                    skipped = skip = 0
                    if lines is not None or index is not None:
                        group = G & ~F
                        x = (group & -group).bit_length() - 1
                        if index is None:
                            skipped, skip = through[x], lines[x]
                        else:
                            held[rank + 1], bases[rank + 1] = elements, bases[rank] + (x,)
                            skipped, skip = index[rank + 2].above(bases[rank + 1])
                    step = self._step(state, g, G, skip)
                    count(step, len(orbit), skipped)
                    if lines is not None:
                        # each line the point G adds joins lines at its elements outside G
                        for rest in step.groups:
                            for e in _members(rest):
                                lines[e] |= G | rest
                                through[e] += 1
                    if keys is not None:
                        keys[rank + 1] = dict(zip(orbit, orbit))
                    # freed before the descent; held, it raised E8 --s-graph's peak RSS 6.5 MB
                    del orbit
                    path.append(self._on_path(G, rank + 1, step))
                    break
            else:
                path.pop()
        self._store(levels, connected)

    def _on_path(self, F: int, rank: int, state: kernels.CoverState):
        """The flat F (a bitmask) of this rank as the walk's path holds it: with
        its cover state and its covers' bitmasks, numbered as ``_step`` numbers them."""
        return F, rank, state, enumerate(map(F.__or__, state.groups))

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
        return self._is_connected(self._check_subset(flat))

    def _is_connected(self, F: int) -> bool:
        """``is_connected`` of the flat with bitmask F."""
        walked = self._walked_rank(F)
        if walked is not None:
            return F in self._connected_level(walked)
        if F == (1 << self.size) - 1:
            if self._full_connected is None:
                self._full_connected = self._lines_join() or self._connected(F)
            return self._full_connected
        if self._closure_of(F) != F:
            raise InputError("connectivity is defined here only for flats")
        return self._connected(F)

    def _connected_levels(self) -> list[tuple[tuple[int, int], ...]]:
        """Store the full walk's levels, kept to their connected flats, as the
        connected levels; return the components of each flat with exactly two,
        both of positive rank: ((A, r(A)), (B, r(B))), with A and B bitmasks.

        The components of M|G, as bitmasks with their ranks, come level by
        level from those of the flat F that level r(G) maps G to, with no
        rank or closure query; only the level below's components are kept.
        """
        connected: dict[int, dict[int, None]] = {}
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
            connected[r] = dict.fromkeys(G for G in level if len(components[G]) == 1)
            below = components
        self._connected_cache = connected
        return pairs

    def _lines_join(self) -> bool:
        """Whether M is simple and its stored lines of three or more points
        join all of E, read off the stored levels with no backend call. Any
        3 points of a line of a simple matroid form a circuit, and elements
        that share a circuit lie in one component (Oxley 2011, §4.1), so M is
        then connected. False, leaving the verdict to ``_connected``, when the
        stored levels 0 and 1 do not show M simple, when no lines are stored,
        or when they leave E apart. On a simple matroid the connected lines
        are exactly these lines."""
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

    def _connected(self, F: int) -> bool:
        """Whether M|F is connected, for a flat F (a bitmask), by the
        fundamental-circuit graph of a greedy basis B of F (Krogdahl 1977):
        each element is joined to its support in B (``_fundamental``)."""
        if F.bit_count() < 2:
            return F.bit_count() == 1
        members = _members(F)
        basis, supports = self._fundamental(members, members)
        edges = [supports[e] for e in members]
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
        B, span = 0, self._closure_of(0)
        for e in S:
            if not span >> e & 1:
                basis.append(e)
                B |= 1 << e
                span = self._closure_of(B)
        rests = [self._closure_of(B & ~(1 << b)) for b in basis]
        return basis, {
            e: sum(1 << j for j, rest in enumerate(rests) if not rest >> e & 1)
            for e in asked if span >> e & 1
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
        # by size, then in the order of the sorted tuples: smallest first
        found: list[int] = []
        r = self.full_rank()
        for k in range(1, min(self.size, r + 1) + 1):
            for S in itertools.combinations(range(self.size), k):
                mask = _mask(S)
                if any(C & mask == C for C in found):
                    continue
                if self._rank_of(mask) < k:
                    found.append(mask)
        return [frozenset(_members(C)) for C in found]

    # -- minors ----------------------------------------------------------------

    def restrict(self, subset: Iterable[int]) -> "Matroid":
        S = _members(self._check_subset(subset))
        ground = GroundSet(len(S), [self.ground.label(e) for e in S])
        return Matroid(MinorBackend(self, S, ()), ground=ground)

    def contract(self, subset: Iterable[int] | int) -> "Matroid":
        if isinstance(subset, int):
            subset = {subset}
        C = self._check_subset(subset)
        kept = [e for e in range(self.size) if not C >> e & 1]
        ground = GroundSet(len(kept), [self.ground.label(e) for e in kept])
        return Matroid(MinorBackend(self, kept, _members(C)), ground=ground)

    def simplify(self) -> tuple["Matroid", list[int | None]]:
        """Merge parallel classes and drop loops.

        Returns the simple quotient together with the explicit quotient map:
        old index -> new index, or None for deleted loops.
        """
        # every rank-1 flat is one parallel class together with the loops
        loops = self._closure_of(0)
        classes = sorted(
            _members(P & ~loops) for P in (self._level(1) if self.full_rank() else ())
        )
        quotient: list[int | None] = [None] * self.size
        for i, cls in enumerate(classes):
            for e in cls:
                quotient[e] = i
        return self.restrict([cls[0] for cls in classes]), quotient

    def __repr__(self):
        return f"Matroid(size={self.size}, backend={self.backend.name})"

