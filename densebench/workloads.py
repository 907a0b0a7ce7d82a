"""The three workloads: seeded, endless op streams with fixed per-op deadlines.

Each stream is a sequence of rounds.  A round holds a fixed number of ops
of every slice, shuffled, so that every run sees the same mix whatever its
seed, and the latency percentiles fall inside one slice rather than on the
edge between two.

Every slice has its deadline in `Workload.deadlines`, several times the
slowest op time of the slice at the seed commit.  No op is meant to fail:
slices whose ops run past any deadline a run can afford at the seed
commit are left out, so a failed op is a change in the program.
Why each workload was chosen is stated in BENCHMARK.json.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator

from . import gen
from .ops import Op

BIMODAL = ("a", "b")


@dataclass(frozen=True)
class Workload:
    name: str
    deadlines: dict
    stream: Callable[[random.Random, object], Iterator[list]]


def _round(rng: random.Random, plan) -> list:
    """One shuffled round: `count` ops from each (count, make_op) entry."""
    ops = [make(rng) for count, make in plan for _ in range(count)]
    rng.shuffle(ops)
    return ops


# --------------------------------------------------------------------------
# kde_solve: random unimodal modal 2-CNF, stratified by free bits.


def kde_formula(rng: random.Random, bits: int) -> tuple:
    """Random unimodal modal 2-CNF of depth 1-2 with exactly `bits` free bits."""
    while True:
        params = gen.CnfParams(
            clauses=rng.randint(1, 2 + bits // 3),
            width=2,
            depth=rng.randint(1, 2),
            atoms=rng.randint(2, 4),
            modal_prob=0.6,
        )
        phi = gen.random_cnf(rng, params)
        if gen.free_bits(phi) == bits and gen.depth(phi) == params.depth:
            return phi


def kvalid_formula(rng: random.Random) -> tuple:
    """`psi -> chi` for a random depth-1 2-CNF psi with 2-3 clauses.

    Half the time chi keeps some of psi's clauses, which makes the
    implication K-valid; otherwise chi is a fresh random clause.  The
    formula has 4-6 free bits, so its relativization has at most 7.
    """
    clause = gen.CnfParams(clauses=1, width=2, depth=1, atoms=3, modal_prob=0.5)
    while True:
        clauses = [gen.random_cnf(rng, clause) for _ in range(rng.randint(2, 3))]
        if rng.random() < 0.5:
            kept = rng.sample(clauses, rng.randint(1, len(clauses)))
        else:
            kept = [gen.random_cnf(rng, clause)]
        phi = gen.implies(gen.big(gen.conj, clauses), gen.big(gen.conj, kept))
        if 4 <= gen.free_bits(phi) <= 6:
            return phi


def _kde_op(bits: int):
    def make(rng: random.Random) -> Op:
        phi = kde_formula(rng, bits)
        mode = rng.choice(("sat", "valid"))
        return Op(f"bits{bits}", "solve", "kde", gen.render(phi, False), mode=mode)

    return make


def _kvalid_op(rng: random.Random) -> Op:
    phi = kvalid_formula(rng)
    return Op("kvalid", "translate", "kde", gen.render(phi, False), mode="valid")


# Ops per round.  Ops at 8 and 9 free bits take 0.5-2.3 s and 3-11 s at
# the seed commit and an op at 10 free bits about a minute, more than a run
# can afford, so they are left out.  The 4-6 bit slices have tight op
# times, and the weights put the median inside the 5-bit slice and p90
# inside the 6-bit slice.
KDE_PLAN = [
    (30, _kde_op(4)),
    (35, _kde_op(5)),
    (28, _kde_op(6)),
    (3, _kvalid_op),
    (3, _kde_op(7)),
]


def kde_stream(rng: random.Random, prog) -> Iterator[list]:
    while True:
        yield _round(rng, KDE_PLAN)


# --------------------------------------------------------------------------
# kdeab_solve: two bimodal slices.


def kdeab_cnf(rng: random.Random, clauses: int, depth: int) -> tuple:
    """Slice cnf: `clauses` top-level disjunctive clauses of depth `depth`."""
    params = gen.CnfParams(
        clauses=clauses, width=2, depth=depth, atoms=rng.randint(2, 3),
        modal_prob=0.5, modalities=BIMODAL,
    )
    while True:
        phi = gen.random_cnf(rng, params)
        if gen.depth(phi) == params.depth:
            return phi


def kdeab_lits(rng: random.Random) -> tuple:
    """Slice lits: a conjunction of three a/b box and diamond literals of depth 2 over 2-3 atoms.

    Larger shapes have a tail no deadline a run can afford covers: at the
    seed commit, with 3-4 literals of depth 2-3, 2 ops in 3,000 ran in
    `continuations` past 1 s, some for minutes; with 3-4 literals of depth
    2, one op in 12,000 took 2 s.  Three literals of depth 2 answered
    within 0.27 s in 12,000 ops.
    """
    params = gen.CnfParams(clauses=1, width=2, depth=2, atoms=rng.randint(2, 3), modal_prob=0.5, modalities=BIMODAL)
    while True:
        phi = gen.random_modal_conj(rng, 3, params)
        if gen.depth(phi) == 2:
            return phi


def _cnf_op(clauses: int, mode: str, depth: int):
    def make(rng: random.Random) -> Op:
        phi = kdeab_cnf(rng, clauses, depth)
        return Op(f"cnf{clauses}", "solve", "kdeab", gen.render(phi, True), mode=mode)

    return make


def _lits_op(rng: random.Random) -> Op:
    phi = kdeab_lits(rng)
    return Op("lits", "solve", "kdeab", gen.render(phi, True), mode=rng.choice(("sat", "valid")))


# Ops per round.  Saturation cost grows about sixfold per top-level
# disjunction: a sat op with 3 clauses takes about 30 ms, with 4 about
# 0.23 s and with 5 about 1 s (0.4-2.1 s) at the seed commit, so 5 clauses
# are left out.  Counter mode (`--bound counter`) is left out too: about
# half of its ops walk 2**(M*(d+1)) windows and never answer.
# Valid-mode cnf ops negate the formula, which leaves a single top-level
# disjunction, and answer in 4-7 ms.  The weights put the median among
# the lits and valid-mode ops and p90 inside the 3-clause sat slice.
# Half of every cnf slice has depth 1 and half depth 2, rather than a
# coin flip per op: a 3-clause sat op takes about 23 ms at depth 1 and
# 36-40 ms at depth 2, so the share of each would move p90 with the seed.
KDEAB_PLAN = [
    (39, _lits_op),
    (10, _cnf_op(3, "valid", 1)),
    (10, _cnf_op(3, "valid", 2)),
    (10, _cnf_op(4, "valid", 1)),
    (10, _cnf_op(4, "valid", 2)),
    (9, _cnf_op(3, "sat", 1)),
    (9, _cnf_op(3, "sat", 2)),
    (1, _cnf_op(4, "sat", 1)),
    (1, _cnf_op(4, "sat", 2)),
]


def kdeab_stream(rng: random.Random, prog) -> Iterator[list]:
    while True:
        yield _round(rng, KDEAB_PLAN)


# --------------------------------------------------------------------------
# xval: a seeded sample of the exhaustive corpora the acceptance tests use.

# (slice, logic, max nodes, atoms, oracle frame class, oracle worlds, ops
# per round from the shallow and the deep stratum).  The two-atom slice is
# kept small: 1-2% of its formulas need 0.25-0.35 s of refutation, and a
# few more or fewer of them per run would dominate the run's throughput.
#
# Each corpus is split into two strata by `one_world_sat`, and every round
# takes a fixed number from each, in proportion to the strata's sizes
# (69/31%, 71/29% and 81/19%).  A formula true at a one-world model lets
# the oracle stop at its first models (3-5 ms per op at the seed commit);
# the others send it through every model up to its world bound (5-60 ms
# for `uni_p`, up to 0.3 s for `uni_pq`), and they hold the p90.  Fixed
# counts keep the share of slow ops, and so p90 and throughput, from
# moving with the seed.
XVAL_SLICES = (
    ("uni_p", "kde", 7, ("p",), "dense", 3, (17, 7)),
    ("uni_pq", "kde", 6, ("p", "q"), "dense", 3, (3, 1)),
    ("bi_p", "kdeab", 6, ("p",), "weakly-dense", 2, (10, 2)),
)


def one_world_sat(phi, atoms) -> bool:
    """Whether the program formula `phi` holds at some one-world model.

    The two one-world frames, a point without edges and a point on which
    every relation is reflexive, are dense and weakly dense alike.
    """
    valuations = [{a for i, a in enumerate(atoms) if bits >> i & 1} for bits in range(2 ** len(atoms))]
    return any(_holds(phi, loop, true) for loop in (False, True) for true in valuations)


def _holds(phi, loop: bool, true: set) -> bool:
    kind = type(phi).__name__
    if kind == "Atom":
        return phi.name in true
    if kind == "Falsum":
        return False
    if kind == "Not":
        return not _holds(phi.child, loop, true)
    if kind == "And":
        return _holds(phi.left, loop, true) and _holds(phi.right, loop, true)
    if kind == "Box":
        return not loop or _holds(phi.child, loop, true)
    raise ValueError(f"unexpected formula node {kind}")


def xval_stream(rng: random.Random, prog) -> Iterator[list]:
    formula = prog.formula
    plan = []
    for name, logic, nodes, atoms, frame_class, worlds, counts in XVAL_SLICES:
        modalities = ("a",) if logic == "kde" else BIMODAL
        mode = formula.UNIMODAL if logic == "kde" else formula.BIMODAL
        corpus = formula.all_formulas(nodes, atoms, modalities)
        strata: tuple = ([], [])  # shallow, deep
        for phi in corpus:
            strata[not one_world_sat(phi, atoms)].append(phi)
        for count, stratum in zip(counts, strata):

            def make(rng, name=name, logic=logic, stratum=stratum, mode=mode, frame_class=frame_class, worlds=worlds):
                text = formula.render(stratum[rng.randrange(len(stratum))], mode)
                return Op(name, "xval", logic, text, frame_class=frame_class, worlds=worlds)

            plan.append((count, make))
    while True:
        yield _round(rng, plan)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "kde_solve",
            {"bits4": 3.0, "bits5": 3.0, "bits6": 3.0, "bits7": 3.0, "kvalid": 3.0},
            kde_stream,
        ),
        Workload(
            "kdeab_solve",
            {"lits": 3.0, "cnf3": 3.0, "cnf4": 3.0},
            kdeab_stream,
        ),
        Workload(
            "xval",
            {"uni_p": 3.0, "uni_pq": 3.0, "bi_p": 3.0},
            xval_stream,
        ),
    )
}
