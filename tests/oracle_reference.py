"""Test-only reference: bounded_search over every frame of each class.

bounded_search used to enumerate every frame in the class at each world
count n.  It now skips the frames in which no world reaches every world,
since a model on such a frame has a generated submodel on fewer worlds
that the search reaches first.  first_models keeps the former order over
every frame, so differential tests can check that the two return the
same first model, or both None.  It shares the oracle's evaluator,
density test and model check, which the change left as they were.

The former order, in each class, was n ascending, then ra mask, rb mask
and valuation ascending, with the least satisfying world as the root.
Each class's frames are a subsequence of all frames in that order, so
one pass over every frame finds the first model of several classes at
once, as long as they agree on whether rb is enumerated.
"""

from functools import lru_cache

from densemodal import KripkeModel, atom_names, sort_key, verify
from densemodal.oracle import ALL, DENSE, _eval_mask, _relations, _weakly_dense, search_is_bimodal


@lru_cache(maxsize=None)
def _in_class(succ_a, succ_b, frame_class) -> bool:
    if frame_class == ALL:
        return True
    return _weakly_dense(succ_a, succ_a if frame_class == DENSE else succ_b)


def first_models(formulas, classes, max_worlds) -> dict:
    """Each class's first model of all the formulas within max_worlds worlds, or None."""
    targets = sorted(set(formulas), key=sort_key)
    names = sorted(set().union(*(atom_names(f) for f in targets)))
    found = dict.fromkeys(classes)
    for bimodal in (False, True):
        pending = [c for c in classes if search_is_bimodal(targets, c) == bimodal]
        for n in range(1, max_worlds + 1):
            full = (1 << n) - 1
            rels = _relations(n)
            for succ_a in rels:
                for succ_b in rels if bimodal else rels[:1]:
                    fitting = [c for c in pending if _in_class(succ_a, succ_b, c)]
                    if not fitting:
                        continue
                    for val_mask in range(1 << (n * len(names))):
                        val_masks = {name: (val_mask >> (i * n)) & full for i, name in enumerate(names)}
                        memo = {}
                        sat = full
                        for f in targets:
                            sat &= _eval_mask(f, val_masks, succ_a, succ_b, n, full, memo)
                            if not sat:
                                break
                        if sat:
                            root = (sat & -sat).bit_length() - 1
                            model = KripkeModel.from_masks(range(n), succ_a, succ_b, val_masks, root)
                            for c in fitting:
                                verify(model, targets, c, "first_models result")
                                found[c] = model
                                pending.remove(c)
                            break
                    if not pending:
                        break
                if not pending:
                    break
            if not pending:
                break
    return found
