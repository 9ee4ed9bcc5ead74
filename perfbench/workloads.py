"""The four ptslab workloads and the verdicts that gate them.

A workload builds its inputs once (``setup``) and then answers passes
(``run_pass``): one pass submits every item, one at a time, each only after
the previous verdict, and compares each verdict with the known answer.
Nothing from ``ptslab`` is imported before ``setup``, so its time includes
importing the library.

Why these four:

* ``hurkens``: substitution-bound, and the only workload that carries the
  cycle table's memory and collector cost.
* ``flat``: deep application spines with little sharing, so the redex
  search and spine rebuild dominate; no cycle table.
* ``typecheck``: the only workload where the checker (``systems``) and the
  J delta rules carry the time.
* ``corpus``: many tiny terms, where per-call overhead shows; the only
  workload that runs ``syntax``, ``erase`` and the full-beta redex search in
  its timed phase.
"""
from __future__ import annotations

import importlib
import random
from dataclasses import dataclass

MODULES = ("term", "systems", "syntax", "erase", "encodings", "codes",
           "corpus", "paradox")


def load() -> dict:
    """Import the library; ``ptslab.erase`` is reached through importlib
    because the package rebinds the name ``erase`` to the function."""
    return {m: importlib.import_module(f"ptslab.{m}") for m in MODULES}


@dataclass
class Tally:
    """Items verdicted, items whose verdict differs from the known answer,
    and contractions made."""
    items: int = 0
    failed: int = 0
    steps: int = 0

    def verdict(self, ok: bool, steps: int = 0) -> None:
        self.items += 1
        self.failed += not ok
        self.steps += steps


# Step counts of flat(#k) on the seed commit.  1, 2, 4, 7 and 8 are the
# registered type codes; codes above 8 fall through the recursion's default
# branch to rho, the type of code 8.
FLAT_STEPS = {1: 182, 2: 401, 4: 1217, 7: 3746, 8: 5033,
              9: 12203, 10: 20581, 11: 30348, 12: 41697}
FLAT_FUEL = 10_000_000


class Hurkens:
    """``ptslab demo hurkens``: the paradox types at bot in star, and
    normal-order reduction with cycle detection exhausts a fixed fuel
    without finding a cycle.  One item, so the seed has no effect."""
    name = "hurkens"

    def __init__(self, fuel: int = 200_000):
        self.fuel = fuel

    def setup(self, seed: int) -> Tally:
        m = load()
        self.term_mod = m["term"]
        self.term = m["paradox"].build_hurkens()
        tally = Tally()
        tally.verdict(m["paradox"].hurkens_type_checks())
        return tally

    def run_pass(self) -> Tally:
        tm = self.term_mod
        tr = tm.normalize(self.term, self.fuel, detect_cycles=True,
                          keep_steps=False)
        tally = Tally()
        tally.verdict(type(tr.outcome) is tm.FuelExhausted
                      and tr.step_count == self.fuel, tr.step_count)
        return tally


class Flat:
    """Decode flat(#k) by course-of-values recursion inside star.  The seed
    orders the codes."""
    name = "flat"

    def __init__(self, codes: tuple[int, ...] = tuple(FLAT_STEPS)):
        self.codes = codes

    def setup(self, seed: int) -> Tally:
        m = load()
        tm, cd = m["term"], m["codes"]
        self.term_mod = tm
        fm = cd.build_flat_machinery()
        rho = fm.table.term_of(8)
        self.items = [(k, tm.App(fm.flat, cd.church(k)),
                       fm.table.term_of(k) if k <= 8 else rho)
                      for k in self.codes]
        random.Random(seed).shuffle(self.items)
        return Tally()

    def run_pass(self) -> Tally:
        tm = self.term_mod
        tally = Tally()
        for k, term, want in self.items:
            tr = tm.normalize(term, FLAT_FUEL, keep_steps=False)
            tally.verdict(type(tr.outcome) is tm.NormalForm
                          and tr.outcome.term == want
                          and tr.step_count == FLAT_STEPS[k], tr.step_count)
        return tally


class Typecheck:
    """Subject-reduction probes on the Hurkens prefix in star and on the J
    loop K{rho} K in f+j, then a cold re-check of the Appendix-B pieces, as
    acceptance criteria 4 and 7 do.  The seed orders the items."""
    name = "typecheck"

    def __init__(self, hurkens_steps: int = 1000, loop_steps: int = 100_000):
        self.hurkens_steps = hurkens_steps
        self.loop_steps = loop_steps

    def setup(self, seed: int) -> Tally:
        m = load()
        sy, cd, tm = m["systems"], m["codes"], m["term"]
        self.systems = sy
        rho, K = m["encodings"].entry("rho").term, m["encodings"].entry("K").term
        fm = cd.build_flat_machinery()
        d = cd.base_defs()
        parse = m["syntax"].parse_term
        star = sy.SYSTEMS["star"]
        self.items = [
            ("probe", star, m["paradox"].build_hurkens(), self.hurkens_steps,
             200_000),
            ("probe", sy.SYSTEMS["f+j"], tm.App(tm.App(K, rho), K),
             self.loop_steps, tm.DEFAULT_FUEL),
            ("check", star, fm.list_type, parse("V -> V")),
            ("check", star, fm.flat, parse("Nty -> V", d)),
            ("infer", star, fm.delta),
            ("check", star, fm.prop1.F, parse("Nty -> List V", d)),
            ("check", star, fm.prop2.T, parse("Nty -> Nty", d)),
            ("check", star, fm.prop2.F, parse("Nty -> Nty", d)),
            ("check", star, fm.prop2.A, parse("Nty -> V", d)),
        ]
        random.Random(seed).shuffle(self.items)
        return Tally()

    def run_pass(self) -> Tally:
        sy = self.systems
        tally = Tally()
        for kind, spec, term, *rest in self.items:
            if kind == "probe":
                steps, fuel = rest
                rep = sy.subject_reduction_probe(spec, sy.EMPTY, term, steps,
                                                 fuel)
                tally.verdict(rep.ok and rep.steps_taken == steps,
                              rep.steps_taken)
                continue
            try:
                if kind == "check":
                    sy.check(spec, sy.EMPTY, term, rest[0])
                else:
                    sy.infer(spec, sy.EMPTY, term)
                ok = True
            except sy.TypingError:
                ok = False
            tally.verdict(ok)
        return tally


class Corpus:
    """A seeded well-typed System F corpus; every term is checked, normalised,
    erased step by step, sampled for confluence and round-tripped through
    the printer and parser."""
    name = "corpus"
    fuel = 10_000

    def __init__(self, size: int = 20_000):
        self.size = size

    def setup(self, seed: int) -> Tally:
        m = load()
        self.m = m
        self.seed = seed
        self.items = m["corpus"].welltyped_corpus(self.size, seed=seed)
        return Tally()

    def run_pass(self) -> Tally:
        m = self.m
        tm, sy, er, sx = m["term"], m["systems"], m["erase"], m["syntax"]
        spec = sy.SYSTEMS["f"]
        rng = random.Random(self.seed)
        tally = Tally()
        for t, ty in self.items:
            try:
                sy.check(spec, sy.EMPTY, t, ty)
                ok = True
            except sy.TypingError:
                ok = False
            tr = tm.normalize(t, self.fuel)
            steps = tr.step_count
            ok = ok and type(tr.outcome) is tm.NormalForm
            ok = ok and all(er.u_one_step_reachable(er.erase(s.before),
                                                    er.erase(s.after))
                            for s in tr.steps)
            positions = tm.redex_positions(t)
            if len(positions) >= 2:
                sides = [tm.normalize(tm.contract_at(t, p), self.fuel,
                                      keep_steps=False)
                         for p in rng.sample(positions, 2)]
                steps += 2 + sum(s.step_count for s in sides)
                ok = ok and all(type(s.outcome) is tm.NormalForm
                                for s in sides) \
                    and sides[0].outcome.term == sides[1].outcome.term
            ok = ok and sx.parse_term(sx.pretty(t)) == t
            tally.verdict(ok, steps)
        return tally


WORKLOADS = {w.name: w for w in (Hurkens, Flat, Typecheck, Corpus)}
