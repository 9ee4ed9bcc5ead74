"""Reference models for differential tests of the kernel.

Each model is either the textbook definition, written recursively with no
caches, no flags and no fuel tricks, or the plainer walk that a faster one
in the kernel replaced; all are meant only for small terms.
reference_normalize looks term.step_normal_order up at call time, so that a
test's patch of the reducer applies to it too.
"""
import ptslab.term as term_module
from ptslab.term import (App, CycleDetected, FuelExhausted, Lam, NormalForm,
                         Pi, PrimJ, ReductionTrace, Step, _contract,
                         _match_redex, contract_at, redex_positions)

_NODES = (Lam, App, Pi)


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


def reference_step(t, jrules=None):
    """The frame-list search that step_normal_order replaced, with its
    inline rebuild; it skips subtrees flagged normal and writes nothing."""
    frames = [[t, -1]]
    while frames:
        f = frames[-1]
        node = f[0]
        if f[1] == -1:
            if node.nf:
                frames.pop()
                continue
            rule = term_module._match_redex(node, jrules)
            if rule is not None:
                res = term_module._contract(node, rule)
                path = tuple(fr[1] - 1 for fr in frames[:-1])
                for fr in reversed(frames[:-1]):
                    parent, idx = fr[0], fr[1] - 1
                    if idx == 0:
                        res = type(parent)(res, parent.right)
                    else:
                        res = type(parent)(parent.left, res)
                return res, path, rule
            f[1] = 0
        ch = (node.left, node.right) if type(node) in _NODES else ()
        if f[1] < len(ch):
            f[1] += 1
            frames.append([ch[f[1] - 1], -1])
        else:
            frames.pop()
    return None


def reference_positions(t, jrules=None):
    """The walk that redex_positions replaced: every node, whatever its
    normality flag, then sorted."""
    out = []
    stack = [(t, ())]
    while stack:
        node, path = stack.pop()
        if term_module._match_redex(node, jrules) is not None:
            out.append(path)
        if type(node) in _NODES:
            stack.append((node.right, path + (1,)))
            stack.append((node.left, path + (0,)))
    return sorted(out)


def reference_normalize(t, fuel, detect_cycles=False, jrules=None,
                        keep_steps=True):
    """The term-keyed cycle table that the hash table replaced: every term
    seen is kept.  The reducer is looked up at call time so that a patched
    one applies here too."""
    steps = []
    seen = {} if detect_cycles else None
    cur, count = t, 0
    while True:
        if seen is not None:
            first = seen.get(cur)
            if first is not None:
                return ReductionTrace(tuple(steps),
                                      CycleDetected(count - first, cur), count)
            seen[cur] = count
        r = term_module.step_normal_order(cur, jrules)
        if r is None:
            return ReductionTrace(tuple(steps), NormalForm(cur), count)
        if count >= fuel:
            return ReductionTrace(tuple(steps), FuelExhausted(cur, fuel), count)
        nxt, path, rule = r
        if keep_steps:
            steps.append(Step(path, rule, cur, nxt))
        cur = nxt
        count += 1


def reference_whnf(t, fuel, jrules=None):
    """The weak head normalisation that weak_head replaced: each step walks
    the spine from the root, contracts or closes at the outermost node that
    admits it, and rebuilds the spine; fuel steps, then one more to tell a
    weak head normal form from exhaustion (None)."""
    for _ in range(fuel + 1):
        parents, node = [], t
        while type(node) is App:
            rule = term_module._match_redex(node, jrules)
            new = (term_module._contract(node, rule) if rule is not None
                   else term_module._close_j_args(node, jrules))
            if new is not None:
                break
            parents.append(node)
            node = node.left
        else:
            return t
        t = term_module._rebuild(parents, (0,) * len(parents), new)
    return None


def reference_one_step_reachable(a, b):
    """The two-pass check: every position, then each contraction again."""
    return a == b or any(contract_at(a, p) == b for p in redex_positions(a))
