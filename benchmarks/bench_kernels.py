"""Time the exact elimination kernels on the package's hot-path shapes.

Runs the three kernel families (integer, mod-p, quadratic) on workloads
shaped like the package's hot paths: rank queries over random subsets of
root-system matrices and a pair-closure sweep.  Prints one line per
workload with its best time.

A second table times the covers of every low-rank flat of D5, H4 and B6
over F7: one ``covers_*`` elimination per flat against one closure of
F + e per cover, as the flat-lattice walk would issue them.

Two more tables time the Cremona enumeration: the pair-remainder table
cl{a, b} \\ {a, b} built by one closure per pair against reading it off
the line census (B5, E6, H4, E7), with the groups of the point states the
census's walk steps next to its lines (one each, as the walk keys each
line from the first point on it), and the nodes and seconds of the
exact-cover search on K7, A7, B6 and B8, which still branch (line census
already built), and on E8, which the counting bound refutes at the root
(on a fresh matroid, line census included).

A per-basis table times the work a ``cremona --enumerate`` job does
around the search on its inputs K5, K6, K7, B4 and B5: the re-check of
every basis found (``cremona_check``, one fundamental-circuit elimination
each, with the pivots handed to ``_reduce_int`` and those it skips, for
the row being 0 at their lead, counted in a separate untimed run), the
invariants of the bases' Cremona maps read off their r basis columns
(``crem_invariants``, what the CLI reports), and, for comparison, the same
two read off the full m x m map (``crem_map``).

The next table checks the connectivity of every flat of D5, B5 and E6
twice, after the lattice walk (untimed): read off the walk
(``Matroid.is_connected``) and by the greedy-basis oracle
(``Matroid._connected``), with the seconds and the fundamental-circuit
eliminations (``fundamental_fast`` backend calls) of each, and asserts
that the two agree.

The last table walks the flat lattice of D5, E6, K7 over F_101 and E7 to
rank r - 1, depth-first with each flat's cover state stepped from the
state of the flat it was found from (``Matroid._walk`` with no
generators, as ``flats_of_rank`` runs it on every matroid but a
reflection arrangement).  It gives the cover steps, asserted equal to
the flats the walk expands (those of rank 1 to r - 2), the coordinates
eliminated (counted in a separate untimed run: one per pivot a row is
reduced by in ``_reduce_*``, one per other cover's direction in a cover
step) and the seconds (E7: one run).
A second line gives, per rank of the flat expanded, the covers its state
kept, asserted equal to the flats found one rank up, and the covers
already recorded that it skipped; together they are what the walk's
budget counts.  On a reflection arrangement (D5, E6, E7) a third line
runs the same walk given the reflection generators, which fills orbits
(``Matroid._walk``, as ``flats_of_rank`` runs it), asserts that it
stores the same levels, and gives its cover steps, coordinates and
seconds, and per rank the orbits of the level (counted afterwards
under the walk's generators) and the eliminations the walk made there
(the empty flat's from scratch, a cover step for every other), asserted
equal to the orbits below rank r - 1. A fourth line gives the reflection
pass that found the generators: the reflections it certified by their
images, of n (the others it reached by conjugation), and its seconds;
H4 and E8, too large to walk here, get that line alone.  After the depth-first walk, and
after the connected levels are read off it, it lists the entries and the
bytes of each per-matroid store: the levels (each
flat's bitmask, mapped to the bitmask of the flat it was found from),
``_rank_cache`` and ``_closure_cache``, keyed by bitmask, and the
connected levels (``_connected_cache``, bitmasks with no values).  The bytes are a deep
``sys.getsizeof`` that counts each object once, in the store that reaches
it first, in that order.  Last it prints the process's peak RSS, which the
E7 walk sets.

A closing line walks D5 depth-first to rank 4 by closures, its backend's
cover kernels set aside as line, circuit and minor matroids have none: each
state is one closure per cover not yet recorded
(``Matroid._closure_state``).  It asserts the depth-first walk's levels,
values and order, and gives the backend closures, asserted equal to the
flats found plus cl(empty set) (402; 1,400 when every cover's seed was
closed), and the seconds.

Usage: python benchmarks/bench_kernels.py [--repeat N]
"""

from __future__ import annotations

import argparse
import itertools
import random
import resource
import sys
import time

from cremfan import fp, kernels, matroid, orbits, quad
from cremfan.cremona import crem_invariants, cremona_check, enumerate_cremona_bases
from cremfan.exact_cover import _exact_cover_bases, _line_remainders
from cremfan.field import Field, primitive_int_vector
from cremfan.fp import residue_vector
from cremfan.generators import coxeter_matroid, from_spec_string, positive_roots
from cremfan.isomorphism import crem_map
from cremfan.matroid import _members
from cremfan.quad import primitive_quad_vector
from cremfan.serialize import matroid_from_dict, matroid_to_dict


def _int_rows(family: str, n: int) -> list[tuple[int, ...]]:
    field, vectors, _labels = positive_roots(family, n)
    return [primitive_int_vector(v) for v in vectors]


def _quad_rows() -> list[tuple[int, ...]]:
    field, vectors, _labels = positive_roots("H", 4)
    return [primitive_quad_vector(v) for v in vectors]


def _mod_rows(p: int) -> list[tuple[int, ...]]:
    field = Field.from_spec(f"Fp:{p}")
    _f, vectors, _labels = positive_roots("B", 6)
    coerced = [[field.coerce(int(x)) for x in v] for v in vectors]
    return [residue_vector(v) for v in coerced]


def _best(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _bench(label: str, fn, repeat: int) -> None:
    print(f"{label:<38} {_best(fn, repeat) * 1e3:8.2f} ms")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3,
                        help="repetitions per workload; best time wins")
    args = parser.parse_args()

    rng = random.Random(20260815)
    e8 = _int_rows("E", 8)
    subsets = [rng.sample(range(len(e8)), 9) for _ in range(2000)]

    def rank_sweep():
        for s in subsets:
            kernels.rank_int([e8[i] for i in s])

    pairs = [(i, j) for i in range(0, len(e8), 3) for j in range(i + 1, len(e8), 7)]

    def closure_sweep():
        for i, j in pairs:
            kernels.closure_int(e8, [i, j])

    _bench("E8 rank, 2000 random 9-subsets", rank_sweep, args.repeat)
    _bench("E8 pair closures (~680 spans)", closure_sweep, args.repeat)

    h4 = _quad_rows()
    quad_subsets = [rng.sample(range(len(h4)), 4) for _ in range(2000)]

    def quad_sweep():
        for s in quad_subsets:
            kernels.rank_quad([h4[i] for i in s])

    _bench("H4 rank over Q(sqrt5), 2000 4-subsets", quad_sweep, args.repeat)

    b6 = _mod_rows(7)
    mod_subsets = [rng.sample(range(len(b6)), 6) for _ in range(2000)]

    def mod_sweep():
        for s in mod_subsets:
            kernels.rank_mod([b6[i] for i in s], 7)

    _bench("B6 rank over F7, 2000 6-subsets", mod_sweep, args.repeat)

    print()
    _bench_covers("D5 covers, flats of rank <= 3", _int_rows("D", 5),
                  kernels.covers_int, kernels.closure_int, 3, args.repeat)
    _bench_covers("H4 covers, flats of rank <= 2", h4,
                  kernels.covers_quad, kernels.closure_quad, 2, args.repeat)
    _bench_covers("B6 over F7 covers, flats of rank <= 2", b6,
                  lambda rows, F: kernels.covers_mod(rows, 7, F),
                  lambda rows, S: kernels.closure_mod(rows, 7, S), 2, args.repeat)

    print()
    for spec in ("B5", "E6", "H4", "E7"):
        _bench_remainders(spec, args.repeat)
    print()
    for spec in ("K7", "A7", "B6", "B8"):
        _bench_search(spec, args.repeat)
    _bench_search("E8", args.repeat, census=True)
    print()
    for spec in ("K5", "K6", "K7", "B4", "B5"):
        _bench_basis_work(spec, args.repeat)
    print()
    for spec in ("D5", "B5", "E6"):
        _bench_connectivity(spec, args.repeat)
    print()
    for spec in ("D5", "E6", "K7/Fp:101"):
        _bench_stepped_walk(spec, args.repeat)
    _bench_stepped_walk("E7", 1)
    for spec in ("H4", "E8"):
        _bench_reflection_pass(spec, args.repeat, f"{spec} (no walk)")
    _bench_closure_walk("D5", args.repeat)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{'':38} peak RSS of the process {peak:.1f} MB")


def _bench_covers(label: str, rows, covers, closure, max_rank: int, repeat: int) -> None:
    # the flats of rank <= max_rank, walked level by level (set-up, untimed)
    flats, level = [], [[]]
    for _ in range(max_rank + 1):
        flats += level
        nxt = {}
        for F in level:
            for group in covers(rows, F).groups:
                G = sorted(F + _members(group))
                nxt.setdefault(tuple(G), G)
        level = list(nxt.values())

    def one_elimination():
        for F in flats:
            covers(rows, F)

    def closure_per_cover():
        for F in flats:
            seen = set(F)
            for e in range(len(rows)):
                if e not in seen:
                    seen.update(closure(rows, F + [e])[1])

    t_cov = _best(one_elimination, repeat)
    t_cl = _best(closure_per_cover, repeat)
    print(
        f"{label:<38} {len(flats):5d} flats   covers {t_cov * 1e3:8.2f} ms   "
        f"closure per cover {t_cl * 1e3:8.2f} ms   x{t_cl / t_cov:5.1f}"
    )


def _remainders_by_closures(M) -> list[list[int]]:
    # the reference: one closure per pair of elements
    n = M.size
    rem = [[0] * n for _ in range(n)]
    for a, b in itertools.combinations(range(n), 2):
        mask = M.closure((a, b)).mask
        rem[a][b] = rem[b][a] = mask & ~(1 << a | 1 << b)
    return rem


def _best_fresh(spec: str, fn, repeat: int) -> tuple[float, object]:
    # each repetition on a freshly generated matroid, so no cache is warm
    best, result = float("inf"), None
    for _ in range(repeat):
        M = coxeter_matroid(spec)
        t0 = time.perf_counter()
        result = fn(M)
        best = min(best, time.perf_counter() - t0)
    return best, result


def _line_census_groups(spec: str) -> tuple[int, int]:
    # the summed groups of the point states a fresh walk to the lines
    # steps, and the lines it finds
    M, groups = coxeter_matroid(spec), [0]
    on_path = M._on_path

    def counted(F, rank, state):
        if rank == 1:
            groups[0] += len(state.groups)
        return on_path(F, rank, state)

    M._on_path = counted
    lines = len(M.flats_of_rank(2))
    return groups[0], lines


def _bench_remainders(spec: str, repeat: int) -> None:
    t_cl, by_closures = _best_fresh(spec, _remainders_by_closures, repeat)
    t_lines, (by_lines, _through) = _best_fresh(spec, _line_remainders, repeat)
    assert by_lines == by_closures
    n = len(by_lines)
    groups, lines = _line_census_groups(spec)
    print(
        f"{spec} remainder table ({n} elements)".ljust(38)
        + f" closure per pair {t_cl * 1e3:8.2f} ms   line census "
        f"{t_lines * 1e3:8.2f} ms   x{t_cl / t_lines:5.1f}"
        f"   {groups} point-state groups, {lines} lines"
    )


def _bench_search(spec: str, repeat: int, census: bool = False) -> None:
    def search(M):
        return _exact_cover_bases(M, 10 ** 7)

    if census:
        t, (bases, nodes) = _best_fresh(spec, search, repeat)
    else:
        M = from_spec_string(spec)
        M.flats_of_rank(2)  # the line census, untimed
        bases, nodes = search(M)
        t = _best(lambda: search(M), repeat)
    label = f"{spec} Cremona search" + (" with line census" if census else "")
    print(
        label.ljust(38)
        + f" {nodes:7d} nodes   {len(bases)} bases   {t * 1e3:9.2f} ms"
    )


def _counted_recheck(M, datas) -> tuple[int, int]:
    # the pivots handed to _reduce_int by the re-checks, and those skipped
    # for the row being 0 at their lead
    reduce = kernels._reduce_int
    counts = [0, 0]

    def counted(vec, pivots):
        counts[0] += len(pivots)
        counts[1] += sum(1 for k, (c, _) in enumerate(pivots) if not reduce(vec, pivots[:k])[c])
        return reduce(vec, pivots)

    kernels._reduce_int = counted
    try:
        for data in datas:
            cremona_check(M, data.basis)
    finally:
        kernels._reduce_int = reduce
    return counts[0], counts[1]


def _bench_basis_work(spec: str, repeat: int) -> None:
    M = from_spec_string(spec)
    datas = enumerate_cremona_bases(M)
    t_check = _best(lambda: [cremona_check(M, d.basis) for d in datas], repeat)
    t_columns = _best(lambda: [crem_invariants(d) for d in datas], repeat)
    t_full = _best(lambda: [
        (lm.one_multiple(), lm.quotient_determinant()) for lm in map(crem_map, datas)
    ], repeat)
    pivots, skipped = _counted_recheck(M, datas)
    print(
        f"{spec} per-basis work ({len(datas)} bases)".ljust(38)
        + f" re-check {t_check * 1e3:7.3f} ms {pivots:5d} pivots {skipped:5d} skipped"
        f"   invariants: r columns {t_columns * 1e3:7.3f} ms   m x m map {t_full * 1e3:7.3f} ms"
    )


def _bench_connectivity(spec: str, repeat: int) -> None:
    # each repetition on a fresh matroid with its whole lattice walked, so
    # the connected levels are not stored yet
    runs = {}
    for method in ("walk", "oracle"):
        best = float("inf")
        for _ in range(repeat):
            M = coxeter_matroid(spec)
            flats = [F for k in range(M.full_rank() + 1) for F in M.flats_of_rank(k)]
            eliminations = [0]
            fundamental_fast = M.backend.fundamental_fast

            def counted(subset, asked, fundamental_fast=fundamental_fast,
                        eliminations=eliminations):
                eliminations[0] += 1
                return fundamental_fast(subset, asked)

            M.backend.fundamental_fast = counted
            # the public query takes elements, the oracle a bitmask
            if method == "walk":
                test, args = M.is_connected, [F.elements for F in flats]
            else:
                test, args = M._connected, [F.mask for F in flats]
            t0 = time.perf_counter()
            verdicts = [test(F) for F in args]
            best = min(best, time.perf_counter() - t0)
        runs[method] = (best, eliminations[0], verdicts)
    assert runs["walk"][2] == runs["oracle"][2]
    (t_walk, c_walk, verdicts), (t_oracle, c_oracle, _) = runs["walk"], runs["oracle"]
    print(
        f"{spec} connectivity of {len(verdicts)} flats".ljust(38)
        + f" walk {t_walk * 1e3:8.2f} ms {c_walk:5d} fundamental   oracle "
        f"{t_oracle * 1e3:8.2f} ms {c_oracle:5d} fundamental   x{t_oracle / t_walk:5.1f}"
        f"   {sum(verdicts)} connected"
    )


def _walk_levels(spec: str, by_orbits: bool = False):
    # a fresh matroid walked to rank r - 1 by Matroid._walk, with no
    # generators or, by_orbits, with its reflection generators (the
    # reflection pass included).  "K7/Fp:101" is K7 over F_101.
    name, _, field = spec.partition("/")
    M = from_spec_string(name)
    if field:
        M = matroid_from_dict({**matroid_to_dict(M), "field": field})
    r = M.full_rank()
    t0 = time.perf_counter()
    M._walk(r - 1, None, M.backend.reflections.generators if by_orbits else ())
    return time.perf_counter() - t0, M


def _deep_size(obj, seen: set) -> int:
    # the bytes of obj and of the objects it reaches that seen has not
    # counted yet: containers, their items, and the attributes of flats
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    size = sys.getsizeof(obj)
    if isinstance(obj, dict):
        items = [x for item in obj.items() for x in item]
    elif isinstance(obj, (list, tuple, set, frozenset)):
        items = obj
    else:
        items = [getattr(obj, slot, None) for slot in getattr(type(obj), "__slots__", ())]
        if hasattr(obj, "__dict__"):
            items.append(vars(obj))
    return size + sum(_deep_size(x, seen) for x in items)


def _store_sizes(M) -> str:
    # the entries each per-matroid store holds, and its bytes
    stores = {
        "levels": (sum(map(len, M._flats_cache.values())), M._flats_cache),
        "rank": (len(M._rank_cache), M._rank_cache),
        "closure": (len(M._closure_cache), M._closure_cache),
        "connected": (sum(map(len, M._connected_cache.values())), M._connected_cache),
    }
    seen: set = set()
    return "   ".join(
        f"{name} {n} ({_deep_size(store, seen) / 1024:.1f} KB)"
        for name, (n, store) in stores.items()
    )


def _counted_walk(spec: str, by_orbits: bool = False):
    # cover steps and coordinates eliminated in one walk, with the steps
    # and the reductions wrapped; per rank of the flat expanded, the covers
    # its state kept and the recorded ones it skipped (read off the
    # depth-first walk's index of recorded flats: a basis of j elements asks
    # for the covers of a flat of rank j); and per rank, the states the steps
    # made. VectorBackend binds the step of its
    # domain when it is built, so the matroid is made after the patch. The
    # steps are read through kernels, as the backends read them; each
    # reduction is patched in its home module, whose kernels read it there
    counts = [0, 0]
    made: dict[int, int] = {}
    kept: dict[int, int] = {}
    skipped: dict[int, int] = {}
    steps = ("cover_step_int", "cover_step_quad", "cover_step_mod")
    homes = {"_reduce_int": kernels, "_reduce_quad": quad, "_reduce_mod": fp}
    originals = {name: getattr(kernels, name) for name in steps}
    originals.update((name, getattr(home, name)) for name, home in homes.items())
    above = matroid._Recorded.above

    def stepper(name):
        def step(state, *args):
            # (g, skip) or, over F_p, (p, g, skip); skip is optional
            g, *skip = args[1:] if name == "cover_step_mod" else args
            dropped = state.groups[g] | (skip[0] if skip else 0)
            counts[0] += 1
            counts[1] += sum(1 for group in state.groups if group & ~dropped)
            stepped = originals[name](state, *args)
            made[stepped.rank] = made.get(stepped.rank, 0) + 1
            kept[stepped.rank] = kept.get(stepped.rank, 0) + len(stepped.groups)
            return stepped
        return step

    def reducer(name):
        def reduce(vec, pivots, **p):
            counts[1] += len(pivots)
            return originals[name](vec, pivots, **p)
        return reduce

    def recorded_above(index, basis):
        count, union = above(index, basis)
        skipped[len(basis)] = skipped.get(len(basis), 0) + count
        return count, union

    for name in steps:
        setattr(kernels, name, stepper(name))
    for name, home in homes.items():
        setattr(home, name, reducer(name))
    matroid._Recorded.above = recorded_above
    try:
        _seconds, M = _walk_levels(spec, by_orbits)
    finally:
        for name, original in originals.items():
            setattr(homes.get(name, kernels), name, original)
        matroid._Recorded.above = above
    # the empty flat's covers, eliminated from scratch: every point, none skipped
    kept[0] = len(M.flats_of_rank(1))
    by_rank = [(kept[k], skipped.get(k, 0)) for k in sorted(kept)]
    return counts[0], counts[1], M, by_rank, made


def _orbit_counts(M, k: int) -> list[int]:
    # per rank 0 to k, the orbits of the stored level under the generators
    # the walk filled it with, each filled as the walk fills one
    tables = [orbits._tables(perm) for perm in M.backend.reflections.generators]
    width, counts = (M.size + 7) // 8, []
    for j in range(k + 1):
        seen: dict[int, None] = {}
        counts.append(0)
        for H in M._flats_cache[j]:
            if H not in seen:
                seen[H] = None
                orbits.fill_orbit(seen, H, tables, width)
                counts[-1] += 1
    return counts


def _bench_stepped_walk(spec: str, repeat: int) -> None:
    best = min(_walk_levels(spec)[0] for _ in range(repeat))
    steps, coordinates, M, by_rank, _made = _counted_walk(spec)
    r = M.full_rank()
    levels = [len(M.flats_of_rank(k)) for k in range(r)]
    expanded = sum(levels[1:r - 1])
    assert steps == expanded, f"{steps} cover steps for {expanded} flats expanded"
    # one cover kept per flat found: each state holds the covers not yet recorded
    assert [covers for covers, _ in by_rank] == levels[1:], by_rank
    M.connected_flats_of_rank(r - 1)  # the connected levels, filtered from the walk's
    print(
        f"{spec} walk to rank {r - 1} ({sum(levels)} flats)".ljust(38)
        + f" {steps:5d} steps = flats expanded   {coordinates:6d} coordinates"
        f"   {best * 1e3:8.2f} ms"
    )
    print(
        f"{'':38} covers kept/skipped, by rank expanded: "
        + "  ".join(f"{k}: {kept}/{skipped}" for k, (kept, skipped) in enumerate(by_rank))
    )
    if M.backend.reflections:
        _bench_orbit_walk(spec, repeat, M)
    print(f"{'':38} stores after the walk: {_store_sizes(M)}")


def _bench_orbit_walk(spec: str, repeat: int, reference) -> None:
    best = min(_walk_levels(spec, by_orbits=True)[0] for _ in range(repeat))
    steps, coordinates, M, _by_rank, made = _counted_walk(spec, by_orbits=True)
    k = M.full_rank() - 1
    assert all(list(M._flats_cache[j].keys()) == list(reference._flats_cache[j].keys())
               for j in range(k + 1)), "the orbit walk's levels differ"
    orbits = _orbit_counts(M, k)
    # the empty flat's elimination from scratch (the matroid is fresh), then
    # the cover steps that made a state of each rank: one per orbit below k
    eliminations = [1] + [made.get(j, 0) for j in range(1, k + 1)]
    assert eliminations[1:] == orbits[1:k] + [0], (eliminations, orbits)
    print(
        f"{'':38} by orbits {steps:5d} steps   {coordinates:6d} coordinates   "
        f"{best * 1e3:8.2f} ms   orbits/eliminations by rank: "
        + "  ".join(f"{j}: {n}/{e}" for j, (n, e) in enumerate(zip(orbits, eliminations)))
    )
    _bench_reflection_pass(spec, repeat)


def _walk_by_closures(spec: str):
    # a fresh matroid with no cover kernels, walked depth-first to rank
    # r - 1: its seconds, the matroid and the backend closures it made
    M, calls = from_spec_string(spec), [0]
    r = M.full_rank()
    M.backend.covers_fast = None
    closure = M.backend.closure_fast

    def counted(subset):
        calls[0] += 1
        return closure(subset)

    M.backend.closure_fast = counted
    t0 = time.perf_counter()
    M._walk(r - 1, None)
    return time.perf_counter() - t0, M, calls[0]


def _bench_closure_walk(spec: str, repeat: int) -> None:
    best = min(_walk_by_closures(spec)[0] for _ in range(repeat))
    _seconds, M, closures = _walk_by_closures(spec)
    reference = _walk_levels(spec)[1]
    assert all(list(level.items()) == list(reference._flats_cache[j].items())
               for j, level in M._flats_cache.items()), "the walk by closures differs"
    found = sum(map(len, list(M._flats_cache.values())[1:]))
    assert closures == found + 1, f"{closures} closures for {found} flats found"
    print(
        f"{spec} walk by closures to rank {M.full_rank() - 1}".ljust(38)
        + f" {closures:5d} backend closures = flats found + 1   {best * 1e3:8.2f} ms"
    )


def _reflection_pass(spec: str, repeat: int) -> tuple[int, int, float]:
    # the reflections the pass over a fresh type's rows certifies by their
    # images (counted in a separate untimed run), its rows, and its best
    # seconds (``orbits.reflections``, which keeps nothing between calls)
    backend = from_spec_string(spec).backend
    rows, kind = backend._rows, backend.field.kind
    certified, conjugates = [], orbits._conjugates
    orbits._conjugates = lambda n, reflection: conjugates(
        n, lambda u: certified.append(u) or reflection(u)
    )
    try:
        orbits.reflections(rows, kind)
    finally:
        orbits._conjugates = conjugates
    return len(certified), len(rows), _best(lambda: orbits.reflections(rows, kind), repeat)


def _bench_reflection_pass(spec: str, repeat: int, label: str = "") -> None:
    certified, n, best = _reflection_pass(spec, repeat)
    print(f"{label:38} reflection pass: {certified} of {n} reflections certified"
          f"   {best * 1e3:8.2f} ms")


if __name__ == "__main__":
    main()
