"""Reference models for differential tests of the kernel.

Each model is the textbook definition, written recursively, with no caches,
no flags and no fuel tricks, and is meant only for small terms.
"""
from ptslab.term import App, Lam, Pi, PrimJ, _contract, _match_redex


def has_no_redex_or_j(t, memo=None):
    """True iff no node of t is a beta redex or an application of J, the
    invariant a term's ``nf`` flag states.  memo (id -> answer) keeps a
    term with shared subterms linear; the caller keeps t alive."""
    memo = {} if memo is None else memo
    if id(t) not in memo:
        if type(t) not in (Lam, App, Pi):
            memo[id(t)] = True
        elif type(t) is App and type(t.left) in (Lam, PrimJ):
            memo[id(t)] = False
        else:
            memo[id(t)] = (has_no_redex_or_j(t.left, memo)
                           and has_no_redex_or_j(t.right, memo))
    return memo[id(t)]


def contract_by_descent(t, path, jrules=None):
    """t with the redex at path contracted, found by following path from the
    root and rebuilding on the way back, or None when path reaches no redex
    (an index other than 0 or 1, a step past a leaf, or a node that is not
    a redex)."""
    if not path:
        rule = _match_redex(t, jrules)
        return None if rule is None else _contract(t, rule)
    if type(t) not in (Lam, App, Pi) or path[0] not in (0, 1):
        return None
    sub = contract_by_descent(t.right if path[0] else t.left, path[1:], jrules)
    if sub is None:
        return None
    return type(t)(t.left, sub) if path[0] else type(t)(sub, t.right)


def node_paths(t, path=()):
    """The path of every node of t, read as a tree, plus one path per node
    that leads nowhere: past a leaf (0) or through index 2."""
    if type(t) not in (Lam, App, Pi):
        return [path, path + (0,)]
    return [path, path + (2,), *node_paths(t.left, path + (0,)),
            *node_paths(t.right, path + (1,))]
