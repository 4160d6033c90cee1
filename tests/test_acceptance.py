"""Acceptance suite: one test per numbered criterion, timed against its budget.

Each criterion prints a single PASS/FAIL line (run with -s to see them live).
Criterion 8's uniform-family clause compares the exact defect values 1/1000
and 0.1 * 1/100, which are equal, so its strict inequality cannot hold; the
assertion is kept as stated and the failure is expected and documented.
"""

import itertools
import json
import random
import time

import numpy as np
import pytest

import ergolab as lab
from ergolab import (
    AlgebraElement,
    Alphabet,
    State,
    bergelson_average,
    folner_defect,
    four_state_system,
    furstenberg_average,
    gap_scan,
    invariant_mean_projection,
    joining_polytope,
    matrix_element,
    power,
    product_coupling,
    relative_disjointness,
    rotation,
    tensor_product,
    coupling_of,
    uniform,
    unique_ergodicity_check,
    weak_mixing_check,
    weighted_coupling_average,
    weighted_mean_flow,
)
from conftest import letters_of, mixing_corpus, naive_reduce, word_from_letters
from test_cli import base_configs, run_cli


def report(number, label, ok, elapsed, budget):
    print(f"ACCEPTANCE {number:>2} [{label}]: {'PASS' if ok else 'FAIL'} "
          f"({elapsed:.1f}s of {budget:.0f}s budget)")
    assert ok, f"criterion {number} ({label}) failed"
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def lam(word, coeff=1.0):
    return AlgebraElement.unitary(word, coeff)


def test_c01_free_group_oracle():
    start = time.time()
    two = Alphabet({"a": None, "b": 3})
    letters = [("a", 0, 1), ("a", 0, -1), ("b", 0, 1), ("b", 0, -1)]
    ok = True
    cases = 0
    for length in range(0, 7):
        for seq in itertools.product(letters, repeat=length):
            cases += 1
            seq = list(seq)
            word = word_from_letters(two, seq)
            ok = ok and letters_of(word) == naive_reduce(seq)
            inverted = [(f, i, -e) for f, i, e in reversed(seq)]
            ok = ok and letters_of(word.inverse()) == naive_reduce(inverted)
    ok = ok and cases >= 3000

    four = Alphabet({"a": None, "b": None, "c": 3, "d": 2})
    rng = random.Random(20240601)
    fams = list(four.lengths.items())

    def draw():
        seq = []
        for _ in range(rng.randint(0, 12)):
            fam, m = rng.choice(fams)
            idx = rng.randint(0, m - 1) if m else rng.randint(-3, 3)
            seq.append((fam, idx, rng.choice([-1, 1])))
        return seq

    for _ in range(10**5):
        su, sv = draw(), draw()
        u, v = word_from_letters(four, su), word_from_letters(four, sv)
        if letters_of(u * v) != naive_reduce(su + sv):
            ok = False
            break
    report(1, "free-group oracle", ok, time.time() - start, 10.0)


def test_c02_conditional_expectation_laws():
    start = time.time()
    ab = Alphabet({"s": None, "c": 3})
    cyc = Alphabet({"c": 3})
    rng = random.Random(20240602)
    mu = State.trace()
    one = AlgebraElement.one(ab)
    ok = one.finite_orbit_part().distance(one) <= 1e-12

    def rand_el(alphabet, terms):
        el = AlgebraElement.zero(alphabet)
        fams = list(alphabet.lengths.items())
        for _ in range(terms):
            w = alphabet.identity()
            for _ in range(rng.randint(0, 3)):
                fam, m = rng.choice(fams)
                idx = rng.randint(0, m - 1) if m else rng.randint(-3, 3)
                w = w * alphabet.letter(fam, idx, rng.choice([-1, 1]))
            el = el + lam(w, complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
        return el

    worst = 0.0
    for _ in range(10**4):
        a = rand_el(ab, 3)
        b = AlgebraElement.from_terms(ab, rand_el(cyc, 2).items())
        c = AlgebraElement.from_terms(ab, rand_el(cyc, 2).items())
        ea = a.finite_orbit_part()
        worst = max(worst, ea.finite_orbit_part().distance(ea))
        worst = max(worst, (b * a * c).finite_orbit_part().distance(b * ea * c))
        worst = max(worst, abs(mu(ea) - mu(a)))
    ok = ok and worst < 1e-12
    report(2, "conditional expectation laws", ok, time.time() - start, 30.0)


def test_c03_one_hit_matrix_elements():
    start = time.time()
    ab = Alphabet({"s": None, "c": 3})
    rng = random.Random(20240603)
    fams = list(ab.lengths.items())

    def rand_word(max_letters):
        w = ab.identity()
        for _ in range(rng.randint(0, max_letters)):
            fam, m = rng.choice(fams)
            idx = rng.randint(0, m - 1) if m else rng.randint(-4, 4)
            w = w * ab.letter(fam, idx, rng.choice([-1, 1]))
        return w

    ok = True
    for _ in range(200):
        f, h = rand_word(4), rand_word(4)
        g = rand_word(3) * ab.letter("s", rng.randint(-4, 4))
        while g.orbit().finite:
            g = rand_word(3) * ab.letter("s", rng.randint(-4, 4))
        element = lam(g)
        hits = sum(
            1 for n in range(1, 201) if matrix_element(f, element.shifted(n), h) != 0.0
        )
        ok = ok and hits <= 1
    report(3, "one-hit matrix elements", ok, time.time() - start, 30.0)


def test_c04_mixing_of_all_orders():
    start = time.time()
    ok = True
    thresholds = []
    hit_scans = 0
    for states, ops, perm in mixing_corpus():
        k = len(ops)
        res = gap_scan(states, ops, perm, scan_window=40, gap_max=40)
        ok = ok and res.scanned == 40 * 40 ** (k - 1)
        ok = ok and res.threshold is not None and res.threshold <= 40
        thresholds.append(res.threshold)
        if res.violations:
            hit_scans += 1
    # the mechanism must actually be exercised: some scans see violations
    ok = ok and hit_scans > 0 and max(thresholds) > 1
    print(f"  gap thresholds observed: max={max(thresholds)}, scans with "
          f"violations: {hit_scans}/{len(thresholds)}")
    report(4, "mixing of all orders", ok, time.time() - start, 300.0)


def test_c05_furstenberg_positivity():
    start = time.time()
    ab = Alphabet({"s": None, "c": 3})
    one = AlgebraElement.one(ab)

    shift_case = furstenberg_average(one + lam(ab.word("s[0]")), 2, 500)
    ok = shift_case.comparison == 8.0
    running = 0.0
    for n, value in enumerate(shift_case.values, start=1):
        running += abs(value)
        ok = ok and running / n == 8.0

    cycle_case = furstenberg_average(one + lam(ab.word("c[0]")), 1, 600)
    # independent period-3 oracle: the trace is 6 when the shift is a
    # multiple of 3 (both non-unit picks cancel) and 4 otherwise
    oracle = sum(6.0 if n % 3 == 0 else 4.0 for n in range(1, 601)) / 600.0
    ok = ok and cycle_case.average > 0.0
    ok = ok and abs(cycle_case.average - oracle) <= 1e-12
    report(5, "recurrence positivity", ok, time.time() - start, 60.0)


def test_c06_double_average_equalities():
    start = time.time()
    ab = Alphabet({"s": None, "c": 3})
    one = AlgebraElement.one(ab)
    ops = [
        one + lam(ab.word("c[0]"), 0.5),
        lam(ab.word("c[1] c[0]^-1")),
        lam(ab.word("c[2]"), 2.0),
        one,
    ]
    ok = all(op.finite_orbit_part().distance(op) == 0.0 for op in ops)
    res = bergelson_average(*ops, 0, 0, 6)
    ok = ok and res.average == res.projected_average

    shifted_slot = bergelson_average(one, lam(ab.word("s[0]")), one, one, 0, 0, 8)
    ok = ok and shifted_slot.average == 0.0
    report(6, "double-average equalities", ok, time.time() - start, 60.0)


def test_c07_weighted_mean_ergodic():
    start = time.time()
    flow = lab.UnitaryFlow(np.diag([0.0, 1.0, np.sqrt(2.0)]))
    x = np.ones(3) / np.sqrt(3.0)
    target = lab.fixed_space_projection(flow) @ x
    schemes = [
        ("uniform", uniform(lab.CONTINUOUS), 0.05),
        ("power(1)", power(1.0, lab.CONTINUOUS), 0.05),
        ("power(-0.5)", power(-0.5, lab.CONTINUOUS), 0.05),
        ("log", lab.log_family(lab.CONTINUOUS), 0.1),
        ("voronoi(1)", lab.voronoi(1.0, lab.CONTINUOUS), 0.05),
    ]
    ok = True
    finals = {}
    for name, scheme, tol in schemes:
        errors = [
            float(np.linalg.norm(weighted_mean_flow(flow, x, scheme, n) - target))
            for n in (10**2, 10**3, 10**4)
        ]
        ok = ok and all(b <= a for a, b in zip(errors, errors[1:]))
        ok = ok and errors[-1] < tol
        finals[name] = errors[-1]
    print(f"  final errors: { {k: round(v, 5) for k, v in finals.items()} }")

    sub_flow = lab.UnitaryFlow(np.diag([0.0, 1.0]))
    y = np.array([1.0, 1.0])
    w, s = lab.transformed_average_check(sub_flow, y, lab.PowerSubstitution(1.0), 400.0)
    ok = ok and float(np.max(np.abs(w - s))) < 5e-3
    w, s = lab.transformed_average_check(sub_flow, y, lab.ExpSubstitution(), 12.0)
    ok = ok and float(np.max(np.abs(w - s))) < 5e-3
    report(7, "weighted mean ergodic theorem", ok, time.time() - start, 120.0)


def test_c08_folner_defect_decay():
    start = time.time()
    families = [
        power(1.0, lab.CONTINUOUS),
        power(-0.5, lab.CONTINUOUS),
        lab.log_family(lab.CONTINUOUS),
        lab.voronoi(1.0, lab.CONTINUOUS),
    ]
    ok = all(
        folner_defect(scheme, 1.0, 1000) < folner_defect(scheme, 1.0, 100)
        for scheme in families
    )
    report(8, "weighted-family defect decay", ok, time.time() - start, 10.0)


def test_c08_folner_uniform_tenth():
    # The uniform defect is exactly shift/index, so the two sides tie at
    # 0.001 and the strict inequality is unattainable; kept as stated.
    start = time.time()
    d_hundred = folner_defect(uniform(lab.CONTINUOUS), 1.0, 100)
    d_thousand = folner_defect(uniform(lab.CONTINUOUS), 1.0, 1000)
    ok = d_thousand < 0.1 * d_hundred
    report(8, "uniform defect tenth-decade", ok, time.time() - start, 10.0)


def test_c09_four_state_example():
    start = time.time()
    ok = True
    scheme = uniform()
    for p in (0.0, 0.3, 0.5, 0.9):
        sys4 = four_state_system(p)
        eig = np.sort(np.linalg.eigvals(sys4.transition).real)
        ok = ok and float(np.max(np.abs(eig - np.sort([p, 1.0, -1.0, 1.0])))) < 1e-10
        deficiency = (np.eye(4) - sys4.proj_peripheral) @ np.eye(4)
        for n in range(1, 101):
            values = sys4.family @ np.linalg.matrix_power(sys4.transition, n) @ deficiency
            ok = ok and float(np.max(np.abs(values))) <= 1e-12

    sys4 = four_state_system(0.5)
    fail_report = weak_mixing_check(
        sys4.as_markov(sys4.proj_fixed, np.eye(4)),
        scheme, 10**4, 1e-12, vectors=sys4.eigenbasis,
    )
    ok = ok and not fail_report.passed
    ok = ok and fail_report.witness == (1, 2)
    ok = ok and fail_report.max_defect >= 0.99

    limit = invariant_mean_projection(sys4.transition, scheme, 10**4)
    ok = ok and float(np.max(np.abs(limit.mean - sys4.proj_fixed))) < 1e-3
    report(9, "four-state example", ok, time.time() - start, 30.0)


def test_c10_tensor_theorems():
    start = time.time()
    scheme = uniform()
    sys4 = four_state_system(0.5)
    base = sys4.as_markov(sys4.proj_peripheral, sys4.family)
    doubled = tensor_product(base, base)
    ok = weak_mixing_check(doubled, scheme, 500, 1e-10).passed

    r = 0.5
    mixing_factor = lab.MarkovSystem(
        np.array([[1.0, 0.0], [1.0 - r, r]]),
        np.array([[1.0, 0.0], [1.0, 0.0]]),
        np.array([[1.0, 0.0]]),
    )
    ok = ok and bool(
        np.allclose(mixing_factor.transition @ mixing_factor.idempotent,
                    mixing_factor.idempotent)
    )
    ok = ok and weak_mixing_check(mixing_factor, scheme, 2000, 1e-9).passed
    ergodic_factor = lab.MarkovSystem(
        np.array([[0.0, 1.0], [1.0, 0.0]]), np.full((2, 2), 0.5), np.eye(2)
    )
    mixed = tensor_product(mixing_factor, ergodic_factor)
    ok = ok and unique_ergodicity_check(mixed, scheme, 10**4, 1e-6).passed
    report(10, "tensor theorems", ok, time.time() - start, 60.0)


def test_c11_joinings():
    start = time.time()
    ok = True
    for na, nb in ((2, 3), (3, 4), (2, 5)):
        a, b = rotation(na), rotation(nb)
        rep = relative_disjointness(joining_polytope(a, b))
        ok = ok and rep.disjoint and rep.spread < 1e-9
        ok = ok and float(
            np.max(np.abs(rep.unique_joining - 1.0 / (na * nb)))
        ) < 1e-9

    a, b = rotation(2), rotation(3)
    kappa = coupling_of(a, b, [["1/3", "1/6", "0"], ["0", "1/6", "1/3"]])
    exact = weighted_coupling_average(a, b, kappa, uniform(), 6)
    ok = ok and exact.matrix == product_coupling(a, b).matrix
    near = weighted_coupling_average(a, b, kappa, power(1.0), 6000)
    ok = ok and max(
        abs(float(v) - 1.0 / 6.0) for row in near.matrix for v in row
    ) < 1e-3

    self_pair = relative_disjointness(joining_polytope(rotation(2), rotation(2)))
    ok = ok and not self_pair.disjoint and self_pair.witnesses is not None
    w1, w2 = self_pair.witnesses
    ok = ok and float(np.max(np.abs(w1 - w2))) > 0.4
    report(11, "joining certificates", ok, time.time() - start, 60.0)


def test_c12_cli_determinism(tmp_path):
    start = time.time()
    ok = True
    for kind, config in sorted(base_configs().items()):
        path = tmp_path / f"{kind}-config.json"
        path.write_text(json.dumps(config))
        artifacts = []
        for attempt in ("first", "second"):
            out = tmp_path / f"{kind}-{attempt}"
            proc = run_cli(["run", str(path), "--out", str(out), "--quiet"], tmp_path)
            ok = ok and proc.returncode == 0
            artifacts.append(
                (
                    (out / f"{kind}.csv").read_bytes(),
                    (out / f"{kind}.json").read_bytes(),
                )
            )
        ok = ok and artifacts[0] == artifacts[1]

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"experiment": "no-such-kind"}))
    proc = run_cli(["run", str(bad)], tmp_path)
    ok = (ok and proc.returncode == 1 and proc.stderr.startswith("error:")
          and "Traceback" not in proc.stderr)

    failing = dict(base_configs()["joinings"])
    failing["expect"] = {"disjoint": False}
    path = tmp_path / "failing.json"
    path.write_text(json.dumps(failing))
    ok = ok and run_cli(["run", str(path), "--out", str(tmp_path / "f"), "--quiet"],
                        tmp_path).returncode == 2
    report(12, "CLI determinism and exit codes", ok, time.time() - start, 120.0)
