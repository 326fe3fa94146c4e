"""Property tests over Haar eigenbases and the spectra each protocol allows.

For each drawn gate the exact distribution sums to 1, every branch that
promises eigenstates delivers them, and sampling shots changes nothing but
the histogram. Every protocol's eigenbasis analysis, and double phase
estimation's closed form, is checked against the simulated network it
replaces. Through the command line, a valid config gives the same bytes on
every run and a malformed one an errors report, and the report writer writes
what ``json.dumps`` would. A failing property test still reports its
falsifying example when warnings are errors.
"""

import decimal
import itertools
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
from decimal import Decimal
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsinglet.cli import MAX_SHOTS, ReadingTable, main, report_json
from qsinglet.discrimination import build_idp_povm
from qsinglet.floattext import float_texts
from qsinglet.linalg import (
    MAX_SEED,
    eigendecompose_2x2_unitary,
    generate_gate,
    haar_random_unitary,
    wrap_phase,
)
from qsinglet.phase_estimation import double_pe_output_state, nearest_grid, run_double_pe
from qsinglet.protocols import (
    control_wiring,
    equatorial_state,
    pm1_output_state,
    protocol_known_phases,
    protocol_pm1,
    protocol_quartet,
    protocol_square_trick,
    quartet_output_state,
)
from qsinglet.qudit import (
    INVOLUTION_ATOL,
    householder_reflection,
    minus_one_output_state,
    run_qudit_minus_one,
    spectrum_check_minus_one,
)
from qsinglet.singlet import network_output_state
from dense_reference import eta_basis, x_pattern_basis

SHOTS = 257
PROPERTY = settings(max_examples=20, deadline=None)

TWO_PI = 2.0 * math.pi

seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)
orders = st.booleans()
angles = st.floats(min_value=0.0, max_value=TWO_PI, exclude_max=True)


def two_phase_gate(phases, swap, seed):
    phases = list(phases)[::-1] if swap else list(phases)
    return generate_gate(2, phases, seed)


def check_readout(run):
    """``run(shots)`` returns a ProtocolReport; check the exact and sampled
    runs and return the exact one."""
    exact, sampled = run(0), run(SHOTS)
    assert abs(sum(exact.exact_distribution.values()) - 1.0) <= 1e-12
    for branch in exact.branches.values():
        if branch.fidelities is not None:
            assert min(branch.fidelities) >= 1.0 - 1e-10
    assert sampled.exact_distribution == exact.exact_distribution
    assert sampled.branches == exact.branches
    assert exact.histogram == {}
    assert sum(sampled.histogram.values()) == SHOTS
    assert set(sampled.histogram) == set(sampled.exact_distribution)
    return exact


# the eigenbasis analysis against the dense network: probabilities within
# P_ATOL, and fidelities within F_ATOL wherever the dense reference's own
# ratio keeps its digits (probability above DENSE_P_MIN)
P_ATOL = 1e-12
F_ATOL = 1e-10
DENSE_P_MIN = 1e-6


def dense_readout(out, rows, vectors):
    """Reference analysis of reading the control qubits of the dense network
    state ``out`` with one outcome per row (element |row><row|).

    Returns (probs, fids) with fids[m][w][j] = <v_j|rho_w|v_j> of singlet
    party w in the residual of outcome m, v_j the columns of ``vectors``.
    """
    d = vectors.shape[0]
    residuals = np.conjugate(rows) @ out.amps.reshape(rows.shape[1], -1)
    probs = np.sum(np.abs(residuals) ** 2, axis=1)
    fids = []
    for residual, p in zip(residuals, probs):
        tensor = residual.reshape((d,) * d)
        fids.append([
            np.sum(np.abs(np.conjugate(vectors).T @ np.moveaxis(tensor, w, 0).reshape(d, -1)) ** 2,
                   axis=1) / p
            for w in range(d)
        ])
    return probs, fids


def assert_matches_dense(report, out, rows, vectors, located):
    """``report``'s probabilities, in row order, and each branch's fidelities
    ``located(branch)``, as (fidelity, party, column of vectors), equal the
    dense reference's."""
    probs, fids = dense_readout(out, rows, vectors)
    labels = list(report.exact_distribution)
    for label, p in zip(labels, probs):
        assert abs(report.exact_distribution[label] - p) <= P_ATOL
    for label, branch in report.branches.items():
        if label in labels[:len(rows)] and probs[labels.index(label)] > DENSE_P_MIN:
            for fid, party, column in located(branch):
                assert abs(fid - fids[labels.index(label)][party][column]) <= F_ATOL


def numpy_eigenvectors(u, phases):
    """The general solver's eigenvectors of ``u``, column k for ``phases[k]``."""
    values, vectors = np.linalg.eig(u)
    order = [int(np.argmin(np.abs(values - np.exp(1j * p)))) for p in phases]
    assert sorted(order) == list(range(len(phases)))
    return vectors[:, order]


def assert_two_wire_matches_dense(report, u, out, rows):
    phases = list(eigendecompose_2x2_unitary(u))

    def located(branch):
        return [(f, w, phases.index(phase))
                for w, (f, phase) in enumerate(zip(branch.fidelities, branch.eigenphases))]

    assert_matches_dense(report, out, rows, numpy_eigenvectors(u, phases), located)


@PROPERTY
@given(seed=seeds, swap=orders, shot_seed=seeds)
def test_pm1(seed, swap, shot_seed):
    u = two_phase_gate((0.0, math.pi), swap, seed)
    exact = check_readout(lambda shots: protocol_pm1(u, shot_seed, shots))
    assert_two_wire_matches_dense(exact, u, pm1_output_state(u), x_pattern_basis(1)[0])


@PROPERTY
@given(seed=seeds, swap=orders, shot_seed=seeds)
def test_square_trick(seed, swap, shot_seed):
    u = two_phase_gate((0.0, math.pi / 2.0), swap, seed)
    exact = check_readout(lambda shots: protocol_square_trick(u, shot_seed, shots))
    out = network_output_state(u, control_wiring([1, 1]))
    assert_two_wire_matches_dense(exact, u, out, x_pattern_basis(1)[0])


@PROPERTY
@given(
    pair=st.sampled_from(list(itertools.combinations(range(4), 2))),
    seed=seeds, swap=orders, shot_seed=seeds,
)
def test_quartet_every_fourth_root_pair(pair, seed, swap, shot_seed):
    u = two_phase_gate([k * math.pi / 2.0 for k in pair], swap, seed)
    exact = check_readout(lambda shots: protocol_quartet(u, shot_seed, shots))
    rows = eta_basis()[0]
    assert_two_wire_matches_dense(exact, u, quartet_output_state(u), rows)


@PROPERTY
@given(
    theta1=st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True),
    gap=st.floats(min_value=0.3, max_value=2.0 * math.pi - 0.3),
    seed=seeds, swap=orders, shot_seed=seeds,
)
def test_known_phases_separated_pairs(theta1, gap, seed, swap, shot_seed):
    theta2 = math.fmod(theta1 + gap, 2.0 * math.pi)
    u = two_phase_gate((theta1, theta2), swap, seed)
    exact = check_readout(lambda shots: protocol_known_phases(u, theta1, theta2, shot_seed, shots))
    # the conclusive POVM elements are rank 1: |r><r| with r their top eigenvector
    povm = build_idp_povm(equatorial_state(theta1), equatorial_state(theta2))
    rows = []
    for element in povm.elements[:2]:
        values, vectors = np.linalg.eigh(element)
        rows.append(math.sqrt(values[-1]) * vectors[:, -1])
    out = network_output_state(u, control_wiring([1]))
    assert_two_wire_matches_dense(exact, u, out, np.stack(rows))
    control = out.amps.reshape(2, -1)
    p_fail = np.real(np.trace(povm.elements[2] @ control @ np.conjugate(control).T))
    assert abs(exact.exact_distribution["fail"] - p_fail) <= P_ATOL


# pi to 60 digits, for the 40-digit references below
DECIMAL_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494")


def decimal_cos(x: Decimal) -> Decimal:
    """cos x to 40 digits or better: its Taylor series after reducing x into
    [-pi, pi]. Call it in a context of at least 50 digits."""
    x = x.remainder_near(2 * DECIMAL_PI)
    term = total = Decimal(1)
    k = 0
    while abs(term) > Decimal("1e-45"):
        k += 2
        term *= -x * x / (k * (k - 1))
        total += term
    return total


# the known-phases closed form against a 40-digit evaluation of it
CLOSED_FORM_ATOL = Decimal("1e-15")


@settings(max_examples=200, deadline=None)
@given(
    theta1=angles,
    gap=st.floats(min_value=0.01, max_value=TWO_PI - 0.01),
    seed=seeds, swap=orders,
)
def test_known_phases_matches_a_40_digit_evaluation(theta1, gap, seed, swap):
    """With the gate's float eigenphases phi taken as exact, conclusive
    outcome "v1" has probability mean_phi sin^2((phi - theta2)/2) / (1 +
    |cos((theta1 - theta2)/2)|), "v2" likewise with theta1, and "fail" the
    rest; each conclusive fidelity is the matching phase's share of the sum."""
    theta2 = math.fmod(theta1 + gap, TWO_PI)
    u = two_phase_gate((theta1, theta2), swap, seed)
    report = protocol_known_phases(u, theta1, theta2, shots=0)
    with decimal.localcontext() as context:
        context.prec = 50
        phases = [Decimal(float(p)) for p in eigendecompose_2x2_unitary(u)]
        t1, t2 = Decimal(theta1), Decimal(theta2)
        norm = 1 + abs(decimal_cos((t1 - t2) / 2))

        def weight(phase, theta):
            return (1 - decimal_cos(phase - theta)) / 2 / norm

        expected = {
            label: sum(weight(p, theta) for p in phases) / 2
            for label, theta in (("v1", t2), ("v2", t1))
        }
        expected["fail"] = 1 - expected["v1"] - expected["v2"]
        for label, p in expected.items():
            assert abs(Decimal(report.exact_distribution[label]) - p) <= CLOSED_FORM_ATOL
        for label, theta in (("v1", t2), ("v2", t1)):
            branch = report.branches[label]
            share = weight(Decimal(branch.eigenphases[0]), theta) / sum(
                weight(p, theta) for p in phases
            )
            for fid in branch.fidelities:
                assert abs(Decimal(fid) - share) <= CLOSED_FORM_ATOL


def assert_qudit_matches_dense(report, u):
    d = u.shape[0]
    target = spectrum_check_minus_one(u)[:, None]
    assert_matches_dense(report, minus_one_output_state(u), x_pattern_basis(d - 1)[0], target,
                         lambda branch: [(branch.fidelity, branch.located_wire, 0)])


@PROPERTY
@given(d=st.integers(min_value=2, max_value=5), seed=seeds, shot_seed=seeds)
def test_qudit_minus_one_householder(d, seed, shot_seed):
    u = householder_reflection(haar_random_unitary(d, seed)[:, 0])
    exact = check_readout(lambda shots: run_qudit_minus_one(u, shot_seed, shots))
    # every allowed pattern, one per singlet party, occurs
    assert len(exact.branches) == d
    assert_qudit_matches_dense(exact, u)


@PROPERTY
@given(
    d=st.integers(min_value=2, max_value=5), seed=seeds,
    defect=st.floats(min_value=0.0, max_value=0.9 * INVOLUTION_ATOL),
)
def test_qudit_near_the_involution_tolerance_matches_dense(d, seed, defect):
    """The analysis assumes the phases pi, 0, ..., 0 exactly; an accepted gate
    may miss them by up to the involution tolerance."""
    # |exp(2i eps) - 1| <= 2|eps| bounds every entry of u @ u - I
    eps = np.random.default_rng(seed).uniform(-0.5, 0.5, size=d) * defect
    phases = wrap_phase(np.array([math.pi] + [0.0] * (d - 1)) + eps)
    u = generate_gate(d, phases.tolist(), seed)
    assert np.max(np.abs(u @ u - np.eye(d))) <= INVOLUTION_ATOL
    assert_qudit_matches_dense(run_qudit_minus_one(u, shots=0), u)


@settings(max_examples=300, deadline=None)
@given(phi=st.floats(allow_nan=False, allow_infinity=False))
@example(phi=-0.0)
@example(phi=-5e-324)
@example(phi=-1e-18)
@example(phi=TWO_PI)
@example(phi=-TWO_PI)
@example(phi=3.0 * TWO_PI)
@example(phi=1e300)
@example(phi=-1e300)
def test_wrap_phase_of_a_float_is_bitwise_the_array_rule(phi):
    expected = struct.pack("<d", wrap_phase(np.array([phi]))[0])
    for scalar in (phi, np.float64(phi)):
        out = wrap_phase(scalar)
        assert type(out) is float
        assert struct.pack("<d", out) == expected


@st.composite
def double_pe_cases(draw):
    """(n, on_grid, phases): both phases on the n-bit grid, or two phases at
    least 0.3 apart."""
    n = draw(st.integers(min_value=1, max_value=6))
    if draw(st.booleans()):
        size = 2 ** n
        k1 = draw(st.integers(min_value=0, max_value=size - 1))
        k2 = draw(st.integers(min_value=0, max_value=size - 1).filter(lambda k: k != k1))
        return n, True, (TWO_PI * k1 / size, TWO_PI * k2 / size)
    theta1 = draw(angles)
    gap = draw(st.floats(min_value=0.3, max_value=TWO_PI - 0.3))
    return n, False, (theta1, math.fmod(theta1 + gap, TWO_PI))


def wrapped_distance(z, xbar, size):
    d = abs(z - xbar) % size
    return min(d, size - d)


@PROPERTY
@given(case=double_pe_cases(), seed=seeds, shot_seed=seeds)
def test_double_pe_closed_form_matches_dense_network(case, seed, shot_seed):
    n, on_grid, phases = case
    u = generate_gate(2, phases, seed)
    exact = run_double_pe(u, n)
    sampled = run_double_pe(u, n, shots=SHOTS, seed=shot_seed)
    size = 2 ** n
    psi = double_pe_output_state(u, n).amps.reshape(size, size, 2, 2)
    joint = np.sum(np.abs(psi) ** 2, axis=(2, 3))
    assert np.max(np.abs(exact.exact_joint - joint)) <= 1e-12
    assert abs(np.sum(exact.exact_joint) - 1.0) <= 1e-12
    assert np.array_equal(sampled.exact_joint, exact.exact_joint)
    assert sampled.observed[1].sum() == SHOTS
    assert [b.z_a * size + b.z_b for b in sampled.branches] == sampled.observed[0].tolist()

    vectors = numpy_eigenvectors(u, exact.eigenphases)
    xbars = [nearest_grid(float(p), n).xbar for p in exact.eigenphases]
    for branch in exact.branches + sampled.branches:
        # the dense residual's reduced states are the reference
        mat = psi[branch.z_a, branch.z_b] / math.sqrt(joint[branch.z_a, branch.z_b])
        halves = (
            (mat @ np.conjugate(mat).T, branch.z_a, branch.fidelity_a, branch.match_a),
            (mat.T @ np.conjugate(mat), branch.z_b, branch.fidelity_b, branch.match_b),
        )
        for rho, z, fid, match in halves:
            fids = [float(np.real(np.vdot(v, rho @ v))) for v in vectors.T]
            assert abs(fid - fids[match]) <= 1e-10
            if abs(fid - 0.5) > 1e-9:
                assert match == min(range(2), key=lambda k: (wrapped_distance(z, xbars[k], size), k))
            if on_grid:
                assert fid >= 1.0 - 1e-10


SCHEMA = json.loads(resources.files("qsinglet").joinpath("report_schema.json").read_text())
CLI = settings(max_examples=20, deadline=None)


def generated_gate(dim, phases, seed):
    return {"dim": dim, "phases": [float(p) for p in phases], "seed": seed}


@st.composite
def valid_configs(draw):
    """A config of a drawn protocol that the program must run, at small sizes."""
    protocol = draw(st.sampled_from([
        "pm1", "square-trick", "known-phases", "quartet", "double-pe",
        "qudit-minus-one", "tomography",
    ]))
    seed = draw(seeds)
    params = {}
    if protocol in ("pm1", "square-trick", "tomography"):
        pair = [0.0, math.pi if protocol != "square-trick" else math.pi / 2.0]
        gate = generated_gate(2, draw(st.permutations(pair)), seed)
    elif protocol == "quartet":
        pair = draw(st.sampled_from(list(itertools.permutations(range(4), 2))))
        gate = generated_gate(2, [k * math.pi / 2.0 for k in pair], seed)
    elif protocol == "qudit-minus-one":
        d = draw(st.integers(min_value=2, max_value=5))
        flip = draw(st.integers(min_value=0, max_value=d - 1))
        gate = generated_gate(d, [math.pi if k == flip else 0.0 for k in range(d)], seed)
        params = {"d": d}
    else:
        theta1 = draw(angles)
        theta2 = math.fmod(theta1 + draw(st.floats(min_value=0.3, max_value=TWO_PI - 0.3)), TWO_PI)
        gate = generated_gate(2, draw(st.permutations([theta1, theta2])), seed)
        if protocol == "known-phases":
            params = {"theta1": theta1, "theta2": theta2}
        else:
            params = {"n": draw(st.integers(min_value=1, max_value=4))}
    if protocol == "tomography" and draw(st.booleans()):
        params = {"phase_grid_size": draw(st.integers(min_value=3, max_value=64))}
    least = 1 if protocol == "tomography" else 0
    return {
        "protocol": protocol,
        "gate": gate,
        "shots": draw(st.integers(min_value=least, max_value=300)),
        "seed": draw(seeds),
        "params": params,
    }


def run_config(config, directory: Path, name: str):
    """(exit status, report text) of ``qsinglet run`` on a config written to
    ``directory``."""
    path, out = directory / f"{name}.json", directory / f"{name}.report.json"
    path.write_text(json.dumps(config) if not isinstance(config, str) else config)
    status = main(["run", "--config", str(path), "--out", str(out)])
    return status, out.read_text()


@CLI
@given(config=valid_configs())
def test_valid_config_reruns_to_identical_bytes(config):
    with tempfile.TemporaryDirectory() as tmp:
        first = run_config(config, Path(tmp), "a")
        second = run_config(config, Path(tmp), "b")
    assert first[0] == second[0] == 0
    # the timestamp under meta is the one line that may differ
    strip = lambda text: [line for line in text.splitlines() if '"timestamp":' not in line]
    assert strip(first[1]) == strip(second[1])
    jsonschema.validate(json.loads(first[1]), SCHEMA)


HUGE = 10 ** 29
wrong_types = st.one_of(
    st.none(), st.booleans(), st.text(max_size=5), st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)
bad_ints = st.one_of(
    st.sampled_from([-1, -HUGE, HUGE, 10 ** 400]), wrong_types,
    st.floats(allow_nan=False, allow_infinity=False),
)
bad_numbers = st.one_of(
    st.sampled_from([math.inf, -math.inf, math.nan, 10 ** 400, -(10 ** 400)]), wrong_types,
)
PROTOCOL_NAMES = SCHEMA["properties"]["config"]["properties"]["protocol"]["enum"]
# for each parameter: a protocol that takes it, with valid values for the rest
PARAM_HOMES = {
    "n": ("double-pe", {"n": 2}),
    "d": ("qudit-minus-one", {"d": 3}),
    "phase_grid_size": ("tomography", {}),
    "theta1": ("known-phases", {"theta1": 0.5, "theta2": 2.0}),
    "theta2": ("known-phases", {"theta1": 0.5, "theta2": 2.0}),
}
OUT_OF_RANGE = [
    ("n", 0), ("n", 11), ("n", HUGE), ("d", 1), ("d", 6), ("d", HUGE),
    ("phase_grid_size", 2), ("phase_grid_size", 1025), ("phase_grid_size", HUGE),
]
# well-formed configs whose gate breaks the protocol's precondition
VIOLATIONS = [
    {"protocol": "pm1", "gate": generated_gate(2, [0.0, math.pi / 2.0], 1), "params": {}},
    {"protocol": "square-trick", "gate": generated_gate(2, [0.0, math.pi], 1), "params": {}},
    {"protocol": "quartet", "gate": generated_gate(2, [0.0, 1.0], 1), "params": {}},
    {"protocol": "quartet", "gate": generated_gate(2, [math.pi, math.pi], 1), "params": {}},
    {"protocol": "known-phases", "gate": generated_gate(2, [0.2, 1.7], 1),
     "params": {"theta1": 0.2, "theta2": 2.7}},
    {"protocol": "double-pe", "gate": generated_gate(2, [0.4, 0.4], 1), "params": {"n": 3}},
    {"protocol": "double-pe", "gate": generated_gate(3, [0.0, 0.0, math.pi], 1),
     "params": {"n": 3}},
    {"protocol": "qudit-minus-one", "gate": generated_gate(3, [0.0, math.pi, math.pi], 1),
     "params": {"d": 3}},
    {"protocol": "qudit-minus-one", "gate": generated_gate(3, [0.0, 0.0, math.pi], 1),
     "params": {"d": 4}},
    {"protocol": "tomography", "gate": generated_gate(2, [0.0, math.pi], 1), "shots": 0,
     "params": {}},
]


@st.composite
def refused_configs(draw):
    """A config, or raw config text, that the program must refuse."""
    config = draw(valid_configs())
    kind = draw(st.sampled_from([
        "not-an-object", "unknown-key", "unknown-protocol", "shots", "seed", "param-type",
        "param-range", "unknown-param", "missing-param", "gate-source", "gate-field",
        "violation",
    ]))
    if kind == "not-an-object":
        return draw(st.sampled_from(["[]", "3", '"pm1"', "null", "{", ""]))
    if kind == "unknown-key":
        config[draw(st.sampled_from(["plot", "Shots", ""]))] = 1
    elif kind == "unknown-protocol":
        config["protocol"] = draw(st.one_of(
            st.text(max_size=8).filter(lambda t: t not in PROTOCOL_NAMES), wrong_types
        ))
    elif kind == "shots":
        config["shots"] = draw(st.one_of(bad_ints, st.sampled_from([-5, MAX_SHOTS + 1])))
    elif kind == "seed":
        config["seed"] = draw(st.one_of(bad_ints, st.just(MAX_SEED)))
    elif kind == "param-type":
        key = draw(st.sampled_from(sorted(PARAM_HOMES)))
        config["protocol"], params = PARAM_HOMES[key]
        bad = draw(bad_numbers if key.startswith("theta") else bad_ints)
        config["params"] = dict(params, **{key: bad})
    elif kind == "param-range":
        key, value = draw(st.sampled_from(OUT_OF_RANGE))
        config["protocol"], params = PARAM_HOMES[key]
        config["params"] = dict(params, **{key: value})
    elif kind == "unknown-param":
        # each parameter belongs to its home protocol alone
        foreign = [key for key, (home, _) in PARAM_HOMES.items() if home != config["protocol"]]
        key = draw(st.sampled_from(foreign + ["unknown"]))
        config["params"] = dict(config["params"], **{key: 3})
    elif kind == "missing-param":
        config["protocol"] = draw(st.sampled_from(["known-phases", "double-pe", "qudit-minus-one"]))
        config["params"] = {}
    elif kind == "gate-source":
        gate = config["gate"]
        config["gate"] = draw(st.one_of(
            wrong_types.filter(lambda v: not isinstance(v, dict)),
            st.sampled_from([
                {}, {"file": "no/such/gate.json"}, dict(gate, file="gate.json"),
                {"dim": gate["dim"], "phases": gate["phases"]},
            ]),
            st.builds(lambda v: {"file": v}, st.one_of(st.integers(0, 2), wrong_types).filter(
                lambda v: not isinstance(v, str)
            )),
        ))
    elif kind == "gate-field":
        gate = config["gate"]
        field = draw(st.sampled_from(["dim", "phases", "seed"]))
        if field == "dim":
            gate["dim"] = draw(st.one_of(bad_ints, st.sampled_from([1, 6, HUGE])))
        elif field == "phases":
            gate["phases"] = draw(st.one_of(
                wrong_types.filter(lambda v: not isinstance(v, list)),
                st.lists(bad_numbers, min_size=1, max_size=3),
                st.builds(lambda extra: gate["phases"] + [extra], angles),
            ))
        else:
            gate["seed"] = draw(st.one_of(bad_ints, st.just(MAX_SEED)))
    else:
        config.update(draw(st.sampled_from(VIOLATIONS)))
    return config


TOMOGRAPHY = {"protocol": "tomography", "gate": generated_gate(2, [0.0, math.pi], 1),
              "shots": 10, "seed": 0, "params": {}}
THREE_BY_THREE = generated_gate(3, [0.0, math.pi, 0.0], 1)


@settings(max_examples=100, deadline=None)
@given(config=refused_configs())
@example(config=dict(TOMOGRAPHY, shots=HUGE))
@example(config=dict(TOMOGRAPHY, seed=HUGE))
@example(config=dict(TOMOGRAPHY, gate={"dim": 2, "phases": [10 ** 400, 0.0], "seed": 1}))
@example(config=dict(TOMOGRAPHY, gate=dict(generated_gate(2, [0.0, 1.0], 1), dim=HUGE)))
@example(config=dict(TOMOGRAPHY, gate={"file": 0}))
@example(config=dict(TOMOGRAPHY, gate={"file": True}))
@example(config=dict(TOMOGRAPHY, protocol="known-phases",
                     params={"theta1": 10 ** 400, "theta2": 1.0}))
@example(config=dict(TOMOGRAPHY, protocol="double-pe", params={"n": HUGE}))
@example(config=dict(TOMOGRAPHY, shots=0))
@example(config=dict(TOMOGRAPHY, protocol="pm1", gate=THREE_BY_THREE))
@example(config=dict(TOMOGRAPHY, protocol="double-pe", gate=THREE_BY_THREE, params={"n": 3}))
# more than DEGENERACY_ATOL apart, both within SPECTRUM_ATOL of i: not distinct roots
@example(config=dict(TOMOGRAPHY, protocol="quartet",
                     gate={"dim": 2, "phases": [math.pi / 2, math.pi / 2 + 1e-10], "seed": 1}))
def test_refused_config_gives_errors_report(config):
    with tempfile.TemporaryDirectory() as tmp:
        status, text = run_config(config, Path(tmp), "c")
    report = json.loads(text)
    assert status == 1, (config, text)
    assert set(report) == {"meta", "errors"}, (config, text)
    jsonschema.validate(report, SCHEMA)


# numbers that compare equal but print differently, plus the non-finite ones
TRICKY_NUMBERS = [0.0, -0.0, 1, 1.0, True, False, math.nan, math.inf, -math.inf]
numbers = st.one_of(
    st.sampled_from(TRICKY_NUMBERS), st.integers(), st.floats(allow_nan=True)
)
json_values = st.recursive(
    st.one_of(st.none(), st.text(), numbers),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=4), inner, max_size=4)
    ),
    max_leaves=30,
)
# a register size, then distinct flat readings z_a * 2^n + z_b in any order
reading_sets = st.integers(min_value=1, max_value=10).flatmap(
    lambda n: st.tuples(
        st.just(n), st.lists(st.integers(0, 4 ** n - 1), unique=True, max_size=300)
    )
)


@settings(max_examples=300, deadline=None)
@given(
    case=reading_sets.filter(lambda case: case[1]),
    siblings=st.dictionaries(st.text(max_size=4), json_values, max_size=4),
    key=st.text(max_size=4),
    indent=st.sampled_from(["", "  ", "    "]),
)
@example(case=(2, [9, 1]), siblings={'a"b': 1, "é": [-0.0, math.nan]}, key="m", indent="  ")
def test_report_writer_equals_json_dumps(case, siblings, key, indent):
    """A dict holding a ReadingTable is the one value report_json writes key
    by key; it equals json.dumps of the dict with the table's as_dict()."""
    n, readings = case
    values = np.arange(1, len(readings) + 1) / (len(readings) + 1)
    table = ReadingTable.keyed(n, np.array(readings, dtype=np.int64), values, float_texts(values))
    value = {**siblings, key: table}
    expected = json.dumps({**value, key: table.as_dict()}, sort_keys=True, indent=2)
    assert report_json(value, indent) == expected.replace("\n", "\n" + indent)


@settings(max_examples=200, deadline=None)
@given(case=reading_sets)
# "1,10" < "1,2" < "10,1" < "2,1": the comma sorts below every digit
@example(case=(4, [1 * 16 + 10, 10 * 16 + 1, 1 * 16 + 2, 2 * 16 + 1, 0]))
# fewer keys than texts, and every reading of an n = 3 pair
@example(case=(10, [3 * 1024 + 700, 700 * 1024 + 3]))
@example(case=(3, list(range(64))[::-1]))
def test_double_pe_keys_are_built_in_key_order(case):
    n, readings = case
    # a distinct probability per reading, so a key on the wrong value shows
    probabilities = [(i + 1) / (len(readings) + 1) for i in range(len(readings))]
    values = np.array(probabilities)
    table = ReadingTable.keyed(
        n, np.array(readings, dtype=np.int64), values, float_texts(values)
    ).as_dict()
    assert list(table) == sorted(table)
    assert table == {
        f"{z // 2 ** n},{z % 2 ** n}": p for z, p in zip(readings, probabilities)
    }


def test_failing_property_test_reports_its_example_under_warnings_as_errors(tmp_path):
    # tests/conftest.py loaded as a plugin, as pytest loads it for this suite
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 5\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-W", "error", "-p", "conftest", "test_fails.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert "Falsifying example" in run.stdout, run.stdout + run.stderr
    assert "INTERNALERROR" not in run.stdout + run.stderr
