"""Structural validation of linked lists.

Two levels of checking are provided:

* :func:`validate_list` — vectorized O(n) heuristics (index ranges,
  unique self-loop, in-degree structure).  These catch all *local*
  corruption and most global corruption but cannot, by themselves,
  distinguish a single chain from a chain plus a disjoint cycle.
* :func:`validate_list_strict` — full traversal from the head plus a
  pointer-doubling reachability certificate; O(n log n) work but fully
  sound.  Used by the test suite and by the public API when
  ``validate=True`` is requested.

Both raise :class:`ListStructureError` with a specific message on the
first violation found.
"""

from __future__ import annotations

import numpy as np

from .generate import INDEX_DTYPE, LinkedList

__all__ = [
    "ListStructureError",
    "validate_list",
    "validate_list_strict",
    "is_valid_list",
]


class ListStructureError(ValueError):
    """Raised when a successor array does not encode a single valid list."""


def _is_single_chain(nxt: np.ndarray, head: int) -> bool:
    """True iff :func:`validate_list` accepts ``(nxt, head)``, for n > 1.

    Counts in-degree *including* the tail's self-loop, so a valid list
    has in-degree 1 everywhere except at the head (0) and at the tail
    ``t`` (2: its proper predecessor plus ``nxt[t] == t``).  A second
    self-loop on a node with no proper predecessor leaves every
    in-degree as it was, so the self-loops are counted too.
    """
    if nxt.ndim != 1 or nxt.dtype != INDEX_DTYPE:
        return False
    n = nxt.shape[0]
    if n < 2 or not 0 <= head < n:
        return False
    # range first: bincount sizes its output by the largest index
    if int(nxt.min()) < 0 or int(nxt.max()) >= n:
        return False
    indeg = np.bincount(nxt, minlength=n)
    odd = np.flatnonzero(indeg != 1)
    if odd.size != 2 or indeg[head] != 0:
        return False
    tail = int(odd[0]) + int(odd[1]) - head
    if indeg[tail] != 2 or nxt[tail] != tail:
        return False
    return np.count_nonzero(nxt == np.arange(n, dtype=INDEX_DTYPE)) == 1


def validate_list(lst: LinkedList) -> None:
    """Vectorized structural checks (necessary conditions).

    Verifies:

    * all successor indices are in range,
    * there is exactly one self-loop (the tail),
    * the head has in-degree 0 from proper links (or is the tail of a
      singleton list),
    * every non-head node has in-degree exactly 1 from proper links.

    Together these conditions say the proper links form a *functional
    graph* in which every node except the head has a unique
    predecessor; a disjoint extra cycle would give some node in-degree
    1 while making the total reachable count wrong, which only the
    strict check detects.

    A valid list is accepted by one in-degree pass
    (:func:`_is_single_chain`); anything else re-runs the checks one
    at a time to raise the message of the first one that fails.
    """
    nxt = lst.next
    n = lst.n
    if _is_single_chain(nxt, lst.head):
        return
    # step by step, so each failure names its first violation
    if nxt.ndim != 1:
        raise ListStructureError("next must be one-dimensional")
    if nxt.dtype != INDEX_DTYPE:
        raise ListStructureError(f"next must have dtype {INDEX_DTYPE}, got {nxt.dtype}")
    if np.any((nxt < 0) | (nxt >= n)):
        bad = int(np.flatnonzero((nxt < 0) | (nxt >= n))[0])
        raise ListStructureError(
            f"next[{bad}] = {int(nxt[bad])} out of range [0, {n})"
        )
    idx = np.arange(n, dtype=INDEX_DTYPE)
    self_loops = np.flatnonzero(nxt == idx)
    if self_loops.size != 1:
        raise ListStructureError(
            f"expected exactly one self-loop (tail); found {self_loops.size}"
        )
    tail = int(self_loops[0])
    if n == 1:
        if lst.head != tail:
            raise ListStructureError("singleton list must have head == tail")
        return
    if lst.head == tail:
        raise ListStructureError("head is the tail of a multi-node list")
    # in-degree over proper (non-self) links
    proper = nxt[nxt != idx]
    indeg = np.bincount(proper, minlength=n)
    if indeg[lst.head] != 0:
        raise ListStructureError(
            f"head {lst.head} has in-degree {int(indeg[lst.head])}; expected 0"
        )
    others = indeg[idx != lst.head]
    if np.any(others != 1):
        which = idx[idx != lst.head][np.flatnonzero(others != 1)[0]]
        raise ListStructureError(
            f"node {int(which)} has in-degree {int(indeg[which])}; expected 1"
        )


def validate_list_strict(lst: LinkedList) -> None:
    """Sound validation: local checks + pointer-doubling reachability.

    After :func:`validate_list` passes, repeatedly squares the
    successor map (``next ← next∘next``, ⌈log₂ n⌉ rounds).  In a valid
    list every node's pointer converges to the tail; any disjoint cycle
    leaves its members pointing inside the cycle, never at the tail.
    """
    validate_list(lst)
    n = lst.n
    tail = lst.tail
    ptr = lst.next.copy()
    rounds = max(1, int(np.ceil(np.log2(max(n, 2)))))
    for _ in range(rounds):
        ptr = ptr[ptr]
    if not np.all(ptr == tail):
        stranded = int(np.flatnonzero(ptr != tail)[0])
        raise ListStructureError(
            f"node {stranded} cannot reach the tail; the structure contains "
            "a cycle disjoint from the head chain"
        )


def is_valid_list(lst: LinkedList, strict: bool = True) -> bool:
    """Boolean convenience wrapper around the validators."""
    try:
        if strict:
            validate_list_strict(lst)
        else:
            validate_list(lst)
    except ListStructureError:
        return False
    return True
