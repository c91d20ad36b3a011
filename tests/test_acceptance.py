"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is oracle- and property-based and finishes well
under the five-minute budget.
"""

import random

import pytest

from bcoloring import (
    Graph,
    b_chromatic_number,
    best_decomposition,
    brute_force_bcoloring,
    brute_force_chi_b,
    brute_force_fallcoloring,
    compute_tables,
    is_b_coloring,
    is_fall_coloring,
    linear_decomposition,
    module_width,
    solve_bcoloring,
    solve_bcoloring_vc,
    solve_bcoloring_vc_witness,
    solve_bcoloring_witness,
    solve_fallcoloring,
    solve_fallcoloring_witness,
)
from bcoloring.decomposition import equivalence_classes
from helpers import atlas_connected_corpus, enumerate_bcol_signatures, random_graph


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}")
    assert ok, f"{criterion} failed: {detail}"


@pytest.fixture(scope="module")
def corpus():
    """All connected graphs with n <= 6 up to isomorphism, with heuristic
    decompositions."""
    graphs = atlas_connected_corpus(6)
    assert len(graphs) == 143  # 1 + 1 + 2 + 6 + 21 + 112
    return [(g, best_decomposition(g, "heuristic")) for g in graphs]


@pytest.fixture(scope="module")
def table_audit():
    """Criterion 4/8 shared sweep: per-node DP tables vs brute force, plus
    observed type counts against the 2*3^w bound."""
    rng = random.Random(20240)
    audits = 0
    set_mismatches = []
    bound_violations = []
    while audits < 100:
        g = random_graph(rng, rng.randint(1, 5), rng.uniform(0.15, 0.85))
        d = best_decomposition(g, "heuristic")
        for k in range(1, min(g.n, 4) + 1):
            audits += 1
            table = compute_tables(g, d, k)
            for t in d.postorder():
                expected = enumerate_bcol_signatures(g, d, t, k)
                got = set(table.tables[t])
                if got != expected:
                    set_mismatches.append((g.edges(), k, t))
                observed = set()
                for sig in table.tables[t]:
                    observed.update(dict(sig))
                bound = 2 * 3 ** len(equivalence_classes(g, d, t))
                if len(observed) > bound:
                    bound_violations.append((g.edges(), k, t))
    return audits, set_mismatches, bound_violations


def test_criterion_1_oracle_equivalence_bcoloring(corpus):
    mismatches = 0
    checks = 0
    for g, d in corpus:
        for k in range(1, g.n + 1):
            checks += 1
            expected = brute_force_bcoloring(g, k) is not None
            if solve_bcoloring(g, d, k) != expected:
                mismatches += 1
    _report(
        "criterion 1 (b-coloring DP vs oracle, connected n<=6)",
        mismatches == 0,
        f"{checks} checks, {mismatches} mismatches",
    )


def test_criterion_2_oracle_equivalence_vc(corpus):
    mismatches = 0
    checks = 0
    for g, _ in corpus:
        for k in range(1, g.n + 1):
            checks += 1
            expected = brute_force_bcoloring(g, k) is not None
            if solve_bcoloring_vc(g, k) != expected:
                mismatches += 1
    _report(
        "criterion 2 (vertex-cover solver vs oracle, connected n<=6)",
        mismatches == 0,
        f"{checks} checks, {mismatches} mismatches",
    )


def test_criterion_3_oracle_equivalence_fall(corpus):
    mismatches = 0
    checks = 0
    for g, d in corpus:
        for k in range(1, g.n + 1):
            checks += 1
            expected = brute_force_fallcoloring(g, k) is not None
            if solve_fallcoloring(g, d, k) != expected:
                mismatches += 1
    _report(
        "criterion 3 (fall-coloring DP vs oracle, connected n<=6)",
        mismatches == 0,
        f"{checks} checks, {mismatches} mismatches",
    )


def test_criterion_4_table_semantics(table_audit):
    audits, set_mismatches, _ = table_audit
    _report(
        "criterion 4 (per-node table equals brute-force signature set)",
        audits >= 100 and not set_mismatches,
        f"{audits} instances, {len(set_mismatches)} node mismatches",
    )


def test_criterion_5_decomposition_invariance():
    rng = random.Random(20241)
    disagreements = 0
    instances = 0
    for _ in range(50):
        n = rng.randint(1, 7)
        g = random_graph(rng, n, rng.uniform(0.15, 0.85))
        order1, order2 = list(range(n)), list(range(n))
        rng.shuffle(order1)
        rng.shuffle(order2)
        decs = [
            linear_decomposition(g, order1),
            linear_decomposition(g, order2),
            best_decomposition(g, "exact-tiny"),
        ]
        instances += 1
        for k in range(1, n + 1):
            if len({solve_bcoloring(g, d, k) for d in decs}) != 1:
                disagreements += 1
            if len({solve_fallcoloring(g, d, k) for d in decs}) != 1:
                disagreements += 1
    _report(
        "criterion 5 (answers invariant across decompositions, n<=7)",
        instances >= 50 and disagreements == 0,
        f"{instances} graphs x 3 decompositions, {disagreements} disagreements",
    )


def test_criterion_6_closed_form_anchors():
    problems = []
    for n in range(1, 8):
        g = Graph.complete(n)
        d = best_decomposition(g, "heuristic")
        if b_chromatic_number(g, d) != n:
            problems.append(f"chi_b(K_{n}) != {n}")
    for m in range(2, 7):
        g = Graph.star(m)
        d = best_decomposition(g, "heuristic")
        if b_chromatic_number(g, d) != 2 or brute_force_chi_b(g) != 2:
            problems.append(f"chi_b(K_1_{m}) != 2")
    c4 = Graph.cycle(4)
    if not solve_fallcoloring(c4, best_decomposition(c4, "heuristic"), 2):
        problems.append("fall(C_4, 2) should hold")
    c5 = Graph.cycle(5)
    d5 = best_decomposition(c5, "heuristic")
    for k in range(1, 6):
        if solve_fallcoloring(c5, d5, k) or brute_force_fallcoloring(c5, k):
            problems.append(f"fall(C_5, {k}) should fail")
    for n in range(1, 7):
        g = Graph.complete(n)
        if module_width(g, best_decomposition(g, "exact-tiny")) != 1:
            problems.append(f"module_width(exact K_{n}) != 1")
    _report(
        "criterion 6 (closed-form anchors)",
        not problems,
        "; ".join(problems) if problems else "all anchors hold",
    )


def test_criterion_7_witness_soundness(corpus):
    checked = 0
    failures = 0
    for g, d in corpus:
        for k in range(1, g.n + 1):
            if brute_force_bcoloring(g, k) is not None:
                for witness in (
                    solve_bcoloring_witness(g, d, k),
                    solve_bcoloring_vc_witness(g, k),
                ):
                    checked += 1
                    if witness is None or not is_b_coloring(g, witness[0]):
                        failures += 1
            if brute_force_fallcoloring(g, k) is not None:
                checked += 1
                fall_witness = solve_fallcoloring_witness(g, d, k)
                if fall_witness is None or not is_fall_coloring(g, fall_witness):
                    failures += 1
    _report(
        "criterion 7 (witness soundness on all yes-instances)",
        checked > 0 and failures == 0,
        f"{checked} witnesses, {failures} failures",
    )


def test_criterion_8_type_count_bound(table_audit):
    audits, _, bound_violations = table_audit
    _report(
        "criterion 8 (observed types never exceed 2*3^w)",
        audits >= 100 and not bound_violations,
        f"{audits} instances, {len(bound_violations)} violations",
    )
