"""Reference walks for the pruned searches of tc and ETC.

Each chain is searched on its own with ``Chain.lookup``, highest
priority ceiling first, and skipped once its ceiling is strictly below
the best rule found so far.  ETC groups are walked in list (creation)
order with the same skip.  Both walks also return what the search
would cost with no cut at all, which pruning may only lower.
"""

from tuplechain.model import best_rule


def ceiling_walk(chains, key, best=None):
    """(best, probes, unpruned probes) over ``chains``, starting from
    ``best``."""
    probes = full = 0
    for chain in sorted(chains, key=lambda c: c.top, reverse=True):
        r, p = chain.lookup(key)
        full += p
        if best is None or chain.top >= best.priority:
            probes += p
            best = best_rule(best, r)
    return best, probes, full


def etc_walk(c, key):
    """The same for an ETC classifier: one head probe per group not
    cut, then its local chains behind the head entry the key hits."""
    best = None
    probes = full = 0
    for g in c.groups:
        he = g.head.get(key & g.head_mask)
        chains = he.local.chains if he is not None else []
        full += 1 + sum(ch.lookup(key)[1] for ch in chains)
        if best is None or g.top >= best.priority:
            best, p, _ = ceiling_walk(chains, key, best)
            probes += 1 + p
    return best, probes, full
