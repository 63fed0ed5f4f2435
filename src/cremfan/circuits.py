"""Check that a circuit list is the circuit set of a matroid.

``CircuitBackend`` imports this module only when it checks a list, so a
job that loads no circuit list does not compile it.
"""

from __future__ import annotations

from .errors import BudgetExceeded, InputError
from .matroid import _members

# Work allowed to check a circuit list: the pairs of circuits compared plus
# the containment tests of circuit elimination. U:2,9 (84 circuits) needs
# 9,366 (2 ms on a 2-CPU VM) and U:4,12 (792 circuits) about 1.3 million
# (0.24 s); past the cap CircuitBackend raises BudgetExceeded.
MAX_CIRCUIT_CHECKS = 2_000_000


def check_circuit_axioms(size: int, circuits: list[frozenset[int]]) -> None:
    """Refuse a list that is not an antichain or breaks circuit elimination.

    Strong elimination, which every matroid satisfies: circuits C != D
    sharing e have, for each f in C - D, a circuit through f inside
    W = (C | D) - e. It is tested for one f per pair, against the
    circuits through f. A list that passes satisfies weak elimination
    (some circuit inside W), so it is a matroid's; a W known to hold a
    circuit is not tested again. Sets are bitmasks here.
    """
    n = len(circuits)
    work = n * (n - 1) // 2

    def spend(units: int) -> None:
        nonlocal work
        work += units
        if work > MAX_CIRCUIT_CHECKS:
            raise BudgetExceeded(
                f"checking the {n} circuits takes more than "
                f"{MAX_CIRCUIT_CHECKS} pair and containment tests"
            )

    spend(0)
    masks = [sum(1 << e for e in C) for C in circuits]
    through: list[list[int]] = [[] for _ in range(size)]
    for m, C in zip(masks, circuits):
        for e in C:
            through[e].append(m)
    holds_circuit: set[int] = set()
    for i, C in enumerate(masks):
        for D in masks[i + 1:]:
            common = C & D
            if not common:
                continue
            if common == C or common == D:
                raise InputError("circuit list is not an antichain")
            union = C | D
            only_c = C & ~common
            f = (only_c & -only_c).bit_length() - 1
            while common:
                bit = common & -common
                common ^= bit
                W = union ^ bit
                if W in holds_circuit:
                    continue
                spend(len(through[f]))
                if not any(K & W == K for K in through[f]):
                    raise InputError(
                        f"circuits {_members(C)} and {_members(D)} share "
                        f"{bit.bit_length() - 1}, but no circuit through {f} lies "
                        "in their union without it: the list breaks circuit "
                        "elimination"
                    )
                holds_circuit.add(W)
