"""The letter normal form as a plain pass loop, kept as the oracle for
``mcgcalc.words.normalize_conjugator``.

This is the package routine as it was before a pass stopped restarting
when no rule could fire again: after a drop, and after a sort that moved
a twist, it always ran one more whole pass, which changed nothing.  So
the two must agree on every conjugator, letter and base.
"""

from __future__ import annotations

from typing import Iterable

from mcgcalc.errors import McgError
from mcgcalc.words import Pair, _free_reduce_pairs

_NO_NAMES: frozenset[str] = frozenset()


def normalize_conjugator(system, pairs: Iterable[Pair], base: str) -> tuple[tuple[Pair, ...], str]:
    """Bring a flattened conjugator over ``base`` into normal form.

    Returns the reduced conjugator and the (possibly rewritten) base.
    """
    disjoint_of = system._disjoint_of
    conj = list(pairs)
    for _ in range(100000):
        conj = _free_reduce_pairs(conj)
        # the tail rules keep conj freely reduced, so they run to a fixed
        # point within the pass; a pass per firing would cost O(n) each
        while conj:
            if conj[-1][0] == base:
                conj.pop()
            elif (
                len(conj) >= 2
                and system.is_meet1(conj[-1][0], base)
                and conj[-2] == (base, conj[-1][1])
            ):
                # t_a^e(b) = t_b^-e(a); keep only when the new twist cancels.
                base = conj[-1][0]
                del conj[-2:]
            else:
                break
        # a twist disjoint from the base and every later-applied kept
        # twist goes; no name is disjoint from itself, so a repeat stays
        kept: list[Pair] = []
        support = {base}
        for name, sign in reversed(conj):
            if not support <= disjoint_of.get(name, _NO_NAMES):
                kept.append((name, sign))
                support.add(name)
        if len(kept) < len(conj):
            conj = kept[::-1]
            continue
        ordered = _sort_commuting(system, conj)
        if ordered == conj:
            return tuple(conj), base
        conj = ordered
    raise McgError("letter normalization did not stabilize")


def _sort_commuting(system, conj: list[Pair]) -> list[Pair]:
    """Sort adjacent commuting twists: a twist moves left past a twist of
    a different, disjoint and earlier-declared curve, and past no other.

    This is the insertion sort of those adjacent swaps: each twist lands
    right after the rightmost placed twist that blocks it.  Whether one
    twist blocks another depends only on the two names, so keeping each
    name's rightmost placed twist, in order, finds that spot in O(curve
    names) per twist, and a linked list places the twist there in O(1).
    """
    disjoint_of = system._disjoint_of
    head = None  # the placed twists as a linked list of [twist, next] nodes
    last: dict[str, list] = {}  # name -> node of its rightmost placed twist
    order: list[str] = []  # the names in ``last``, in the order of their nodes
    for twist in conj:
        name = twist[0]
        disjoint = disjoint_of.get(name, _NO_NAMES)
        k = len(order)
        while k and order[k - 1] in disjoint and \
                system.decl_index(order[k - 1]) < system.decl_index(name):
            k -= 1
        if k:
            blocker = last[order[k - 1]]
            node = blocker[1] = [twist, blocker[1]]
        else:
            node = head = [twist, head]
        if name in last:
            # a name blocks itself, so it stood at or before the blocker
            order.remove(name)
            k -= 1
        order.insert(k, name)
        last[name] = node
    out = []
    while head is not None:
        out.append(head[0])
        head = head[1]
    return out
