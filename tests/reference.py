"""Reference models for differential tests of the kernel.

Each model is the textbook definition, written recursively, with no caches,
no flags and no fuel tricks, and is meant only for small terms.
"""
from ptslab.term import App, Lam, Pi, PrimJ


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
