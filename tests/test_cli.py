"""Tests for the command line runner and its JSON report contract."""

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from importlib import resources
from pathlib import Path
from unittest import mock

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qsinglet
from qsinglet.cli import (
    MAX_SHOTS,
    PROTOCOLS,
    ReadingTable,
    apply_overrides,
    build_parser,
    generate_gate,
    load_config,
    main,
    report_json,
    resolve_gate,
    run_experiment,
    validate_config,
)
from qsinglet.linalg import EigenSystem, load_unitary, save_unitary
from qsinglet.phase_estimation import MAX_REGISTER_QUBITS, g_amplitude, nearest_grid, run_double_pe
from qsinglet.protocols import (
    protocol_known_phases,
    protocol_pm1,
    protocol_quartet,
    protocol_square_trick,
)
from qsinglet.qudit import MAX_QUDIT_DIM
from qsinglet.register import State
from test_sampling import ranking_oracle

SCHEMA = json.loads(
    resources.files("qsinglet").joinpath("report_schema.json").read_text()
)

PM1_CONFIG = {
    "protocol": "pm1",
    "gate": {"dim": 2, "phases": [0.0, np.pi], "seed": 3},
    "shots": 16,
    "seed": 1,
    "params": {},
}


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


def run_cli(args):
    return main([str(a) for a in args])


class TestConfigHandling:
    def test_load_config_defaults(self, tmp_path):
        path = write_config(tmp_path, {"protocol": "pm1", "gate": {"file": "g.json"}})
        config = load_config(path)
        assert config["shots"] == 1
        assert config["seed"] == 0
        assert config["params"] == {}

    def test_load_config_rejects_unknown_keys(self, tmp_path):
        path = write_config(tmp_path, {"protocol": "pm1", "plot": True})
        with pytest.raises(ValueError, match="unknown config keys"):
            load_config(path)
        path = write_config(tmp_path, {"params": [1, 2]}, "bad.json")
        with pytest.raises(ValueError):
            load_config(path)

    def test_validate_config_unknown_protocol(self):
        # a list or dict is unhashable: it must still get the same text
        for protocol in ("bogus", None, 3, ["pm1"], {"pm1": 1}):
            config = dict(PM1_CONFIG, protocol=protocol)
            expected = f"unknown protocol {protocol!r}; choose from {', '.join(PROTOCOLS)}"
            with pytest.raises(ValueError) as refusal:
                validate_config(config)
            assert str(refusal.value) == expected

    def test_validate_config_param_contracts(self):
        with pytest.raises(ValueError, match="requires params"):
            validate_config(dict(PM1_CONFIG, protocol="double-pe"))
        with pytest.raises(ValueError, match="does not accept"):
            validate_config(dict(PM1_CONFIG, params={"n": 3}))
        with pytest.raises(ValueError, match="shots"):
            validate_config(dict(PM1_CONFIG, shots=-1))
        with pytest.raises(ValueError, match="seed"):
            validate_config(dict(PM1_CONFIG, seed=-1))
        with pytest.raises(ValueError, match="n must be"):
            validate_config(
                dict(PM1_CONFIG, protocol="double-pe", params={"n": 99})
            )

    def test_apply_overrides(self, tmp_path):
        path = write_config(tmp_path, PM1_CONFIG)
        args = build_parser().parse_args(
            ["run", "--config", path, "--protocol", "double-pe", "--shots", "7",
             "--seed", "2", "--n", "4"]
        )
        merged = apply_overrides(load_config(path), args)
        assert merged["protocol"] == "double-pe"
        assert merged["shots"] == 7
        assert merged["seed"] == 2
        assert merged["params"]["n"] == 4


class TestGateSources:
    def test_generate_gate_deterministic_bytes(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        save_unitary(out1, generate_gate(2, [0.0, np.pi], 5))
        save_unitary(out2, generate_gate(2, [0.0, np.pi], 5))
        assert out1.read_bytes() == out2.read_bytes()
        u = load_unitary(out1)
        vals = np.sort_complex(np.linalg.eigvals(u))
        np.testing.assert_allclose(vals, [-1.0, 1.0], atol=1e-10)

    def test_generate_gate_validation(self):
        with pytest.raises(ValueError, match="phases"):
            generate_gate(3, [0.0, np.pi], 0)
        with pytest.raises(ValueError, match="dim"):
            generate_gate(1, [0.0], 0)
        with pytest.raises(ValueError, match="seed"):
            generate_gate(2, [0.0, 1.0], -1)

    def test_resolve_gate_from_file(self, tmp_path):
        path = tmp_path / "gate.json"
        u = generate_gate(2, [0.0, np.pi], 7)
        save_unitary(path, u)
        np.testing.assert_allclose(resolve_gate({"file": str(path)}), u)

    def test_resolve_gate_from_generator_source(self):
        u = resolve_gate({"dim": 3, "phases": [0.0, 0.0, np.pi], "seed": 2})
        assert u.shape == (3, 3)
        np.testing.assert_allclose(u @ u, np.eye(3), atol=1e-10)

    def test_resolve_gate_rejects_malformed(self):
        with pytest.raises(ValueError):
            resolve_gate({"file": "x", "dim": 2})
        with pytest.raises(ValueError):
            resolve_gate("gate.json")
        with pytest.raises(ValueError):
            resolve_gate({"dim": 2, "phases": 3.0, "seed": 0})


class TestRunExperiment:
    def test_pm1_report_shape(self):
        report = run_experiment(dict(PM1_CONFIG))
        jsonschema.validate(report, SCHEMA)
        assert set(report) == {
            "meta", "config", "exact_distribution", "fidelities", "gate_uses", "histogram",
        }
        assert report["gate_uses"] == 1
        assert abs(report["exact_distribution"]["+x"] - 0.5) <= 1e-12
        assert sum(report["histogram"].values()) == 16

    def test_zero_shots_drops_histogram(self):
        report = run_experiment(dict(PM1_CONFIG, shots=0))
        jsonschema.validate(report, SCHEMA)
        assert "histogram" not in report

    def test_unknown_protocol_raises(self):
        for protocol in ("nope", ["pm1"], {"pm1": 1}):
            with pytest.raises(ValueError, match="unknown protocol"):
                run_experiment(dict(PM1_CONFIG, protocol=protocol))

    def test_tomography_carries_estimate(self):
        config = {
            "protocol": "tomography",
            "gate": {"dim": 2, "phases": [0.0, np.pi], "seed": 1},
            "shots": 500,
            "seed": 0,
            "params": {"phase_grid_size": 8},
        }
        report = run_experiment(config)
        jsonschema.validate(report, SCHEMA)
        estimate = report["estimate"]
        assert estimate["shots_per_setting"] == 500
        assert report["gate_uses"] == 500 * 9
        assert abs(estimate["p00"] + estimate["p10"] - 1.0) < 1e-12

    def test_double_pe_distribution_keys(self):
        config = {
            "protocol": "double-pe",
            "gate": {"dim": 2, "phases": [0.5, 2.5], "seed": 4},
            "shots": 32,
            "seed": 0,
            "params": {"n": 3},
        }
        report = run_experiment(config)
        jsonschema.validate(report, SCHEMA)
        for key, p in report["exact_distribution"].items():
            za, zb = key.split(",")
            assert 0 <= int(za) < 8 and 0 <= int(zb) < 8
            assert p > 1e-12
        assert len(report["exact_distribution"]) <= 4096
        assert report["gate_uses"] == 2 * 7

    def test_double_pe_distribution_cap_keeps_lower_index_on_a_tie(self):
        """Off-grid n = 8 run whose 4096th and 4097th entries are an exact tie."""
        config = {
            "protocol": "double-pe",
            "gate": {"dim": 2, "phases": [5.753913082936317, 0.5007266100522114],
                     "seed": 440806662},
            "shots": 0,
            "seed": 1929232158,
            "params": {"n": 8},
        }
        report = run_double_pe(resolve_gate(config["gate"]), 8)
        flat = report.exact_joint.reshape(-1)
        ranked = ranking_oracle(flat, 4097)
        assert flat[ranked[4095]] == flat[ranked[4096]]
        oracle = ranked[:4096]
        assert oracle[-1] == 22 * 256 + 184
        # the library keeps the readings in flat order; the report's map is in key order
        assert report.kept.tolist() == sorted(oracle)
        assert report.kept_probabilities.tolist() == [float(flat[i]) for i in sorted(oracle)]
        distribution = run_experiment(config)["exact_distribution"]
        assert distribution == {f"{i // 256},{i % 256}": float(flat[i]) for i in oracle}
        assert "22,184" in distribution and "184,22" not in distribution

    @pytest.mark.parametrize("shots", [0, 5])
    def test_on_grid_n10_double_pe_keys(self, shots):
        """An on-grid n = 10 run keeps two of the 2^20 readings; their keys
        are in string order ("1000,99" before "99,1000")."""
        config = {
            "protocol": "double-pe",
            "gate": {"dim": 2, "phases": [2 * np.pi * 99 / 1024, 2 * np.pi * 1000 / 1024],
                     "seed": 5},
            "shots": shots, "seed": 0, "params": {"n": 10},
        }
        report = run_experiment(config)
        assert list(report["exact_distribution"].items()) == [("1000,99", 0.5), ("99,1000", 0.5)]
        assert set(report["fidelities"]) == {"1000,99", "99,1000"}

    @pytest.mark.parametrize(
        "phases, gate_seed, seed",
        [
            # dpe-sweep seed 3 op 91 and seed 8 op 781: phases one grid step apart
            ([0.5364083968167054, 0.5373964945013426], 895567054, 939623445),
            ([5.850447811208377, 5.862266893484494], 74477395, 680545495),
        ],
    )
    def test_double_pe_near_degenerate_gate_matches_its_nominal_phases(
        self, phases, gate_seed, seed
    ):
        config = {
            "protocol": "double-pe",
            "gate": {"dim": 2, "phases": phases, "seed": gate_seed},
            "shots": 0,
            "seed": seed,
            "params": {"n": 10},
        }
        distribution = run_experiment(config)["exact_distribution"]
        g1, g2 = (g_amplitude(np.arange(1024), nearest_grid(p, 10)) for p in phases)
        straight = np.abs(np.outer(g1, g2)) ** 2 / 2.0
        joint = straight + straight.T
        assert len(distribution) == 4096
        for key, p in distribution.items():
            za, zb = (int(z) for z in key.split(","))
            assert abs(p - joint[za, zb]) <= 1e-12

    def test_double_pe_refuses_a_degenerate_gate(self, tmp_path, capsys):
        """-I on a Haar basis is degenerate; its eigenphases must not come out split."""
        config = {
            "protocol": "double-pe",
            "gate": {"dim": 2, "phases": [np.pi, np.pi], "seed": 1259249279},
            "shots": 0,
            "seed": 0,
            "params": {"n": 2},
        }
        assert run_cli(["run", "--config", write_config(tmp_path, config)]) == 1
        report = json.loads(capsys.readouterr().out)
        jsonschema.validate(report, SCHEMA)
        assert set(report) == {"meta", "errors"}

    def test_qudit_gate_dimension_mismatch(self):
        config = {
            "protocol": "qudit-minus-one",
            "gate": {"dim": 2, "phases": [0.0, np.pi], "seed": 0},
            "shots": 0,
            "seed": 0,
            "params": {"d": 3},
        }
        with pytest.raises(ValueError, match="does not match"):
            run_experiment(config)


PROTOCOL_CONFIGS = {
    "pm1": PM1_CONFIG,
    "square-trick": {
        "protocol": "square-trick",
        "gate": {"dim": 2, "phases": [0.0, np.pi / 2], "seed": 2},
        "shots": 8, "seed": 0, "params": {},
    },
    "known-phases": {
        "protocol": "known-phases",
        "gate": {"dim": 2, "phases": [0.2, 1.7], "seed": 2},
        "shots": 8, "seed": 0, "params": {"theta1": 0.2, "theta2": 1.7},
    },
    "quartet": {
        "protocol": "quartet",
        "gate": {"dim": 2, "phases": [0.0, np.pi / 2], "seed": 2},
        "shots": 8, "seed": 0, "params": {},
    },
    "double-pe": {
        "protocol": "double-pe",
        "gate": {"dim": 2, "phases": [0.3, 2.0], "seed": 2},
        "shots": 8, "seed": 0, "params": {"n": 2},
    },
    "qudit-minus-one": {
        "protocol": "qudit-minus-one",
        "gate": {"dim": 3, "phases": [0.0, 0.0, np.pi], "seed": 2},
        "shots": 8, "seed": 0, "params": {"d": 3},
    },
    "tomography": {
        "protocol": "tomography",
        "gate": {"dim": 2, "phases": [0.0, np.pi], "seed": 2},
        "shots": 64, "seed": 0, "params": {},
    },
}


@pytest.mark.parametrize("protocol", sorted(PROTOCOL_CONFIGS))
def test_every_protocol_report_validates(protocol):
    assert protocol in PROTOCOLS
    report = run_experiment(dict(PROTOCOL_CONFIGS[protocol]))
    jsonschema.validate(report, SCHEMA)
    assert report["config"]["protocol"] == protocol
    assert report["gate_uses"] >= 1


@pytest.mark.parametrize("protocol", sorted(PROTOCOL_CONFIGS))
def test_no_run_builds_a_dense_state(protocol, monkeypatch):
    """Every runner reads its report off closed forms; the dense simulator is
    only a test reference."""

    def refuse(self):
        raise AssertionError("a run built a dense State")

    monkeypatch.setattr(State, "__post_init__", refuse)
    least = 1 if protocol == "tomography" else 0
    for shots in (least, 8):
        report = run_experiment(dict(PROTOCOL_CONFIGS[protocol], shots=shots))
        assert report["gate_uses"] >= 1


def test_no_two_by_two_run_builds_an_eigensystem(monkeypatch):
    """The 2x2 runners read only the gate's two eigenphases; no eigenvector
    basis is built, validated or thrown away."""
    # each gate is built before the patch: synthesis legitimately builds one
    runs = [
        (generate_gate(2, [0.0, np.pi], 1), lambda u, shots: protocol_pm1(u, 1, shots)),
        (generate_gate(2, [np.pi / 2, 0.0], 2),
         lambda u, shots: protocol_square_trick(u, 1, shots)),
        (generate_gate(2, [0.4, 2.2], 3),
         lambda u, shots: protocol_known_phases(u, 0.4, 2.2, 1, shots)),
        (generate_gate(2, [np.pi, 1.5 * np.pi], 4), lambda u, shots: protocol_quartet(u, 1, shots)),
        (generate_gate(2, [0.7, 2.9], 5), lambda u, shots: run_double_pe(u, 4, shots, 1)),
    ]

    def refuse(self):
        raise AssertionError("a run built an EigenSystem")

    monkeypatch.setattr(EigenSystem, "__post_init__", refuse)
    for gate, run in runs:
        for shots in (0, 8):
            assert run(gate, shots).gate_uses >= 1


def near_equal_known_phases(p_conclusive):
    """Known-phases on phases 0.5 and 0.5 + delta, delta chosen so that each
    conclusive outcome has probability ``p_conclusive``."""
    theta2 = 0.5 + 2.0 * math.acos(1.0 - 2.0 * p_conclusive)
    return {
        "protocol": "known-phases",
        "gate": {"dim": 2, "phases": [0.5, theta2], "seed": 3},
        "shots": 0, "seed": 0, "params": {"theta1": 0.5, "theta2": theta2},
    }


# at 1.5e-12 and below the conclusive outcomes sit within a factor of two of
# PROB_FLOOR, so doubling or halving the floor moves a key set
@pytest.mark.parametrize(
    "p_conclusive, keys",
    [
        *((p, {"fail"}) for p in (1e-13, 4e-13, 7e-13, 9e-13)),
        *((p, {"fail", "v1", "v2"}) for p in (1.5e-12, 2e-12)),
    ],
)
def test_known_phases_keeps_conclusive_branches_above_the_floor(tmp_path, p_conclusive, keys):
    out = tmp_path / "report.json"
    config = write_config(tmp_path, near_equal_known_phases(p_conclusive))
    assert run_cli(["run", "--config", config, "--out", out]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert set(report["fidelities"]) == keys
    # rounding 1 - 2 p_conclusive moves the probability by up to 6e-4 relative
    assert abs(report["exact_distribution"]["v1"] - p_conclusive) <= 1e-3 * p_conclusive
    assert all(min(f) >= 1.0 - 1e-10 for f in report["fidelities"].values() if f is not None)


OFF_GRID_DOUBLE_PE = {
    "protocol": "double-pe",
    "gate": {"dim": 2, "phases": [5.753913082936317, 0.5007266100522114], "seed": 440806662},
    "shots": 0,
    "seed": 1929232158,
    "params": {"n": 8},
}


# one report of each shape: every protocol, the d = 5 locator's 16-float map
# (11 of them 0.0), an exact and two sampled off-grid double-pe runs, and a
# refused config's errors report
REPORT_SHAPES = {
    **PROTOCOL_CONFIGS,
    "qudit-minus-one-d5": dict(
        PROTOCOL_CONFIGS["qudit-minus-one"],
        gate={"dim": 5, "phases": [0.0, 0.0, 0.0, 0.0, np.pi], "seed": 2}, params={"d": 5},
    ),
    "double-pe-off-grid": OFF_GRID_DOUBLE_PE,
    "double-pe-off-grid-shots": dict(OFF_GRID_DOUBLE_PE, shots=1000),
    "double-pe-n4-shots": dict(OFF_GRID_DOUBLE_PE, shots=300, params={"n": 4}),
    "errors": dict(PM1_CONFIG, protocol="bogus"),
}


@pytest.mark.parametrize("config", REPORT_SHAPES.values(), ids=REPORT_SHAPES)
def test_report_bytes_are_json_dumps_of_the_report(tmp_path, config):
    out = tmp_path / "report.json"
    run_cli(["run", "--config", write_config(tmp_path, config), "--out", out])
    text = out.read_text(encoding="utf-8")
    # floats round-trip through their repr, so loading loses nothing
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


FIXED_META = {"tool": "qsinglet", "version": qsinglet.__version__,
              "timestamp": "2000-01-01T00:00:00+00:00"}


def assert_cli_writes_run_experiment_report(tmp_path, config):
    """The file ``cli.main`` writes is ``json.dumps`` of ``run_experiment``'s
    report byte for byte (meta pinned), and the CLI never reaches the dict
    path's ``ReadingTable.as_dict``."""
    path = write_config(tmp_path, config)
    out = tmp_path / "report.json"

    def refuse(*args, **kwargs):
        raise AssertionError("the CLI path fell back to ReadingTable.as_dict")

    with mock.patch.object(qsinglet.cli, "_meta", lambda: dict(FIXED_META)):
        try:
            report, status = run_experiment(dict(config)), 0
        except ValueError as exc:
            report, status = {"meta": dict(FIXED_META), "errors": [str(exc)]}, 1
        with mock.patch.object(qsinglet.cli.ReadingTable, "as_dict", refuse):
            assert run_cli(["run", "--config", path, "--out", out]) == status
    assert out.read_text(encoding="utf-8") == json.dumps(report, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("config", REPORT_SHAPES.values(), ids=REPORT_SHAPES)
def test_cli_writes_the_run_experiment_report(tmp_path, config):
    assert_cli_writes_run_experiment_report(tmp_path, config)


@st.composite
def double_pe_configs(draw):
    """Double-pe configs at n = 1..10: phases on the grid, off it, or one grid
    step apart (from an on- or off-grid start), at shots 0, 1 or 1000."""
    n = draw(st.integers(min_value=1, max_value=MAX_REGISTER_QUBITS))
    step = 2 * np.pi / 2 ** n
    kind = draw(st.sampled_from(["on", "off", "adjacent"]))
    if kind == "on":
        k1, k2 = draw(st.lists(st.integers(0, 2 ** n - 1), min_size=2, max_size=2, unique=True))
        phases = [k1 * step, k2 * step]
    elif kind == "off":
        theta = draw(st.floats(min_value=0.0, max_value=2 * np.pi, exclude_max=True))
        gap = draw(st.floats(min_value=0.05, max_value=2 * np.pi - 0.05))
        phases = [theta, (theta + gap) % (2 * np.pi)]
    else:
        start = draw(st.integers(0, 2 ** n - 1)) + draw(st.sampled_from([0.0, 0.25, 0.5]))
        phases = [start * step, ((start + 1) * step) % (2 * np.pi)]
    return {
        "protocol": "double-pe",
        "gate": {"dim": 2, "phases": phases, "seed": draw(st.integers(0, 2 ** 31 - 1))},
        "shots": draw(st.sampled_from([0, 1, 1000])),
        "seed": draw(st.integers(0, 2 ** 31 - 1)),
        "params": {"n": n},
    }


@settings(max_examples=60, deadline=None)
@given(config=double_pe_configs())
# pinned: full 4096-entry maps at n = 10 (exact) and n = 8 (sampled), and n = 1
@example(config=dict(OFF_GRID_DOUBLE_PE, params={"n": 10}))
@example(config=dict(OFF_GRID_DOUBLE_PE, shots=1000))
@example(config=dict(OFF_GRID_DOUBLE_PE, shots=1, params={"n": 1}))
def test_cli_writes_the_run_experiment_report_for_double_pe(config):
    with tempfile.TemporaryDirectory() as tmp:
        assert_cli_writes_run_experiment_report(Path(tmp), config)


# n = 6 is the largest register whose readings are selected from the dense
# joint, n = 7 the smallest selected from the two profiles
@pytest.mark.parametrize("n", [3, 6, 7, 8])
@pytest.mark.parametrize("shots", [0, 1, 1000])
def test_double_pe_maps_are_the_library_report(n, shots):
    """The fidelities and histogram written from arrays are the library's
    branches and observed readings: half A's fidelity first, counts as ints.
    Every reading of this off-grid gate clears the floor, so the map is full."""
    config = dict(OFF_GRID_DOUBLE_PE, shots=shots, params={"n": n})
    report = run_experiment(config)
    assert len(report["exact_distribution"]) == min(4 ** n, 4096)
    library = run_double_pe(resolve_gate(config["gate"]), n, shots=shots, seed=config["seed"])
    assert report["fidelities"] == {
        f"{b.z_a},{b.z_b}": [b.fidelity_a, b.fidelity_b] for b in library.branches
    }
    assert all(type(f) is float for pair in report["fidelities"].values() for f in pair)
    if shots:
        size = 2 ** n
        assert report["histogram"] == {
            f"{z // size},{z % size}": count
            for z, count in zip(*(a.tolist() for a in library.observed))
        }
        assert all(type(c) is int for c in report["histogram"].values())
    else:
        assert "histogram" not in report


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 10),
    rows=st.lists(
        st.tuples(
            st.integers(0, 2 ** 20 - 1),
            st.floats(0.0, 1.0),
            st.floats(0.0, 1.0),
            st.integers(1, MAX_SHOTS),
        ),
        min_size=1,
        max_size=40,
        unique_by=lambda row: row[0],
    ),
    indent=st.sampled_from(["", "  ", "    "]),
)
def test_pair_and_count_tables_write_their_dict_reports(n, rows, indent):
    """A table of float pairs is written as json.dumps writes two-float
    lists, and a table of counts as it writes ints, alone or as one value
    of a report-like dict."""
    readings = np.array(sorted({r % 4 ** n for r, *_ in rows}), dtype=np.int64)
    chosen = {r % 4 ** n: row for r, *row in rows}
    pairs = np.array([chosen[r][:2] for r in readings.tolist()]).reshape(-1, 2)
    counts = np.array([chosen[r][2] for r in readings.tolist()], dtype=np.int64)
    texts = np.array([repr(f).encode() for f in pairs.reshape(-1).tolist()], dtype="S")
    for table in (
        ReadingTable.keyed(n, readings, pairs, texts.reshape(-1, 2)),
        ReadingTable.keyed(n, readings, counts, counts.astype("S")),
    ):
        assert table.json_text(indent) == report_json(table.as_dict(), indent)
        assert list(table.as_dict()) == sorted(table.as_dict())
        report = {"config": {"params": {"n": n}, "shots": 0}, "map": table, "gate_uses": 3}
        expected = json.dumps(dict(report, map=table.as_dict()), sort_keys=True, indent=2)
        assert report_json(report, indent) == expected.replace("\n", "\n" + indent)


def seeded_labelled_configs(count):
    """``count`` configs of each labelled protocol (the -1 locator at each
    d = 2..5), with gates, phase orders, shots and seeds drawn from one seed."""
    draw = np.random.default_rng(23)
    quarter = np.pi / 2
    configs = []
    for _ in range(count):
        theta1 = draw.uniform(0.0, 2 * np.pi)
        theta2 = (theta1 + draw.uniform(0.3, 2 * np.pi - 0.3)) % (2 * np.pi)
        k1, k2 = draw.choice(4, size=2, replace=False).tolist()
        runs = [
            ("pm1", [0.0, np.pi], {}),
            ("square-trick", [0.0, quarter], {}),
            ("known-phases", [theta1, theta2], {"theta1": theta1, "theta2": theta2}),
            ("quartet", [k1 * quarter, k2 * quarter], {}),
        ]
        for d in range(2, MAX_QUDIT_DIM + 1):
            flip = int(draw.integers(d))
            runs.append(("qudit-minus-one", [np.pi if k == flip else 0.0 for k in range(d)],
                         {"d": d}))
        for protocol, phases, params in runs:
            if len(phases) == 2 and draw.integers(2):
                phases = phases[::-1]
            gate = {"dim": len(phases), "phases": phases, "seed": int(draw.integers(2 ** 31))}
            configs.append({
                "protocol": protocol, "gate": gate, "shots": int(draw.choice([0, 1, 100])),
                "seed": int(draw.integers(2 ** 31)), "params": params,
            })
    return configs


def test_reports_hold_probabilities_and_fidelities_in_the_unit_interval(tmp_path):
    """Every report shape, and every labelled report of a seeded sample,
    validates against the schema, whose probabilities and fidelities lie in
    [0, 1] with no allowance for rounding."""
    assert SCHEMA["properties"]["exact_distribution"]["additionalProperties"]["maximum"] == 1
    validator = jsonschema.validators.validator_for(SCHEMA)(SCHEMA)
    for name, config in REPORT_SHAPES.items():
        out = tmp_path / f"{name}.json"
        run_cli(["run", "--config", write_config(tmp_path, config), "--out", out])
        validator.validate(json.loads(out.read_text(encoding="utf-8")))
    for config in seeded_labelled_configs(40):
        validator.validate(run_experiment(config))


class TestMain:
    def test_run_writes_valid_report(self, tmp_path, capsys):
        path = write_config(tmp_path, PM1_CONFIG)
        assert run_cli(["run", "--config", path]) == 0
        report = json.loads(capsys.readouterr().out)
        jsonschema.validate(report, SCHEMA)
        assert report["config"]["shots"] == 16

    def test_run_out_file_and_determinism(self, tmp_path, capsys):
        path = write_config(tmp_path, PM1_CONFIG)
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert run_cli(["run", "--config", path, "--out", out1]) == 0
        assert run_cli(["run", "--config", path, "--out", out2]) == 0
        assert capsys.readouterr().out == ""
        a, b = json.loads(out1.read_text()), json.loads(out2.read_text())
        a.pop("meta")
        b.pop("meta")
        assert a == b

    def test_run_overrides_shots(self, tmp_path, capsys):
        path = write_config(tmp_path, PM1_CONFIG)
        assert run_cli(["run", "--config", path, "--shots", 0]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["shots"] == 0
        assert "histogram" not in report

    def test_run_error_report(self, tmp_path, capsys):
        for protocol in ("bogus", ["pm1"], {"pm1": 1}):
            path = write_config(tmp_path, dict(PM1_CONFIG, protocol=protocol))
            assert run_cli(["run", "--config", path]) == 1
            captured = capsys.readouterr()
            report = json.loads(captured.out)
            jsonschema.validate(report, SCHEMA)
            assert report["errors"][0].startswith(f"unknown protocol {protocol!r}; choose from ")
            assert "unknown protocol" in captured.err

    def test_gen_gate_file_and_generator_source_give_one_report(self, tmp_path, capsys):
        """A gate written by gen-gate and the same arguments as run's
        generator source give the same gate. Tomography's estimate reads the
        gate's entries, where pm1's report reads only its eigenphases."""
        source = {"dim": 2, "phases": [0.0, np.pi], "seed": 7}
        gate = tmp_path / "gate.json"
        assert run_cli(["gen-gate", "--dim", 2, "--phases", 0.0, np.pi, "--seed", 7,
                        "--out", gate]) == 0
        config = write_config(tmp_path, {"protocol": "tomography", "gate": source, "shots": 100})
        generated, from_file = tmp_path / "generated.json", tmp_path / "from-file.json"
        assert run_cli(["run", "--config", config, "--out", generated]) == 0
        assert run_cli(["run", "--config", config, "--gate", gate, "--out", from_file]) == 0
        reports = [json.loads(path.read_text()) for path in (generated, from_file)]
        for report in reports:
            del report["meta"], report["config"]
        assert reports[0] == reports[1]

    def test_run_missing_config_file(self, tmp_path, capsys):
        assert run_cli(["run", "--config", tmp_path / "absent.json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert "errors" in report

    def test_run_spectrum_error_is_reported(self, tmp_path, capsys):
        config = dict(PM1_CONFIG, gate={"dim": 2, "phases": [0.0, 1.0], "seed": 0})
        path = write_config(tmp_path, config)
        assert run_cli(["run", "--config", path]) == 1
        report = json.loads(capsys.readouterr().out)
        assert any("eigenphase" in e for e in report["errors"])

    @pytest.mark.parametrize(
        "protocol, target, delta, status",
        [
            ("pm1", np.pi, 5e-9, 0),
            ("square-trick", np.pi / 2, 5e-9, 0),
            ("pm1", np.pi, 2e-8, 1),
            ("square-trick", np.pi / 2, 2e-8, 1),
            ("quartet", np.pi / 2, 2e-8, 1),
            ("pm1", np.pi, 7.5e-9, 0),
            ("square-trick", np.pi / 2, 7.5e-9, 0),
        ],
        ids=["pm1-runs", "square-trick-runs", "pm1-refused", "square-trick-refused",
             "quartet-refused", "pm1-runs-at-0.75", "square-trick-runs-at-0.75"],
    )
    def test_spectrum_tolerance_boundary(self, tmp_path, capsys, protocol, target, delta, status):
        # SPECTRUM_ATOL is 1e-8: a phase 5e-9 or 7.5e-9 off its target runs
        # and reads exactly, one 2e-8 off is refused. 5e-9 sits on a bound of
        # half the tolerance, where rounding decides; 7.5e-9 clears it.
        gate = tmp_path / "gate.json"
        save_unitary(gate, np.diag([1.0, np.exp(1j * (target + delta))]))
        path = write_config(tmp_path, {"protocol": protocol, "gate": {"file": str(gate)}, "shots": 0})
        assert run_cli(["run", "--config", path]) == status
        report = json.loads(capsys.readouterr().out)
        jsonschema.validate(report, SCHEMA)
        if status:
            assert any("eigenphase" in e for e in report["errors"])
        else:
            assert report["exact_distribution"] == {"+x": 0.5, "-x": 0.5}
            assert report["fidelities"] == {"+x": [1.0, 1.0], "-x": [1.0, 1.0]}

    @pytest.mark.parametrize(
        "protocol, defect, status",
        [
            ("pm1", 5e-11, 0),
            ("pm1", 2e-10, 1),
            ("qudit-minus-one", 5e-10, 0),
            ("qudit-minus-one", 2e-9, 1),
        ],
        ids=["unitary-half", "unitary-twice", "involution-half", "involution-twice"],
    )
    def test_gate_tolerance_boundary(self, tmp_path, capsys, protocol, defect, status):
        # UNITARY_ATOL is 1e-10 and INVOLUTION_ATOL 1e-9: a file gate whose
        # unitarity defect (pm1) or involution defect (qudit) is half its
        # tolerance runs, one at twice it is refused
        if protocol == "pm1":
            # column 0 scaled by 1 + eps puts 2 eps + eps^2 on [0, 0] of u^dagger u - I
            u = generate_gate(2, [0.0, np.pi], 7)
            u[:, 0] *= 1.0 + defect / 2.0
            params, refusal = {}, "matrix JSON content is not unitary within 1e-10"
        else:
            # u^2 - I is e^{2i eps} - 1 on [2, 2], of modulus 2 sin eps
            u = np.diag([1.0, 1.0, -np.exp(1j * math.asin(defect / 2.0))])
            params, refusal = {"d": 3}, "gate must square to the identity within 1e-9"
        # written by hand: save_unitary refuses a gate that is not unitary
        entries = [[z.real, z.imag] for z in u.reshape(-1).tolist()]
        gate = tmp_path / "gate.json"
        gate.write_text(json.dumps({"dim": len(u), "entries": entries}))
        config = {"protocol": protocol, "gate": {"file": str(gate)}, "shots": 0, "params": params}
        assert run_cli(["run", "--config", write_config(tmp_path, config)]) == status
        report = json.loads(capsys.readouterr().out)
        jsonschema.validate(report, SCHEMA)
        assert report.get("errors") == ([refusal] if status else None)

    def test_gate_file_with_huge_entries_is_refused_without_warnings(self, tmp_path, capsys):
        """Entries far past modulus 1 are refused before u^dagger u is formed,
        where they would overflow: no numpy warning, so none becomes an
        exception under ``-W error``."""
        gate = tmp_path / "gate.json"
        gate.write_text(json.dumps({"dim": 2, "entries": [[1e200, 0], [0, 0], [0, 0], [1e200, 0]]}))
        config = {"protocol": "pm1", "gate": {"file": str(gate)}, "shots": 0, "params": {}}
        path = write_config(tmp_path, config)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["run", "--config", path]) == 1
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        jsonschema.validate(report, SCHEMA)
        refusal = "matrix JSON content is not unitary within 1e-10"
        assert report["errors"] == [refusal]
        assert captured.err == f"error: {refusal}\n"

    def test_gate_file_with_bare_number_entries_is_refused_by_name(self, tmp_path, capsys):
        gate = tmp_path / "gate.json"
        gate.write_text(json.dumps({"dim": 2, "entries": [1, 0, 0, 1]}))
        config = {"protocol": "pm1", "gate": {"file": str(gate)}, "shots": 0, "params": {}}
        assert run_cli(["run", "--config", write_config(tmp_path, config)]) == 1
        report = json.loads(capsys.readouterr().out)
        jsonschema.validate(report, SCHEMA)
        assert report["errors"] == ["matrix JSON needs 'entries' as dim*dim = 4 [re, im] pairs"]

    @pytest.mark.parametrize(
        "gap, errors",
        [
            (5e-13, ["gate spectrum is degenerate"]),
            (2e-12, ["eigenphases must be distinct"]),
            (5e-9, ["eigenphases must be distinct"]),
            (7.5e-9, ["eigenphases must be distinct"]),
            (1.5e-8, None),
            (2e-8, None),
        ],
        ids=["degenerate-half", "degenerate-twice", "distinct-half", "distinct-three-quarters",
             "distinct-three-halves", "distinct-twice"],
    )
    def test_double_pe_spectrum_tolerance_boundary(self, tmp_path, capsys, gap, errors):
        # DEGENERACY_ATOL is 1e-12 and double-pe's distinct-phase bound
        # SPECTRUM_ATOL 1e-8: eigenvalues e^{0.7i} and e^{i(0.7 + gap)} lie
        # about gap apart, so a gap of half a bound is refused by it and one of
        # twice it gets past it. A bound moved to exactly a tested gap is left
        # to rounding, so 0.75 and 1.5 times SPECTRUM_ATOL pin it from inside
        gate = tmp_path / "gate.json"
        save_unitary(gate, np.diag([np.exp(0.7j), np.exp(1j * (0.7 + gap))]))
        config = {"protocol": "double-pe", "gate": {"file": str(gate)}, "shots": 0,
                  "params": {"n": 3}}
        assert run_cli(["run", "--config", write_config(tmp_path, config)]) == (1 if errors else 0)
        report = json.loads(capsys.readouterr().out)
        jsonschema.validate(report, SCHEMA)
        assert report.get("errors") == errors

    def test_spectrum_error_text_is_free_of_solver_noise(self, tmp_path, capsys):
        # the computed phases of these gates differ in their last bits
        texts = set()
        for gate_seed in range(12):
            gate = {"dim": 2, "phases": [0.0, np.pi / 2], "seed": gate_seed}
            path = write_config(tmp_path, dict(PM1_CONFIG, gate=gate))
            assert run_cli(["run", "--config", path]) == 1
            texts.add(tuple(json.loads(capsys.readouterr().out)["errors"]))
        assert len(texts) == 1

    def test_gen_gate_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "gate.json"
        args = ["gen-gate", "--dim", 2, "--phases", 0.0, 3.141592653589793,
                "--seed", 9, "--out", out]
        assert run_cli(args) == 0
        first = out.read_bytes()
        assert run_cli(args) == 0
        assert out.read_bytes() == first
        capsys.readouterr()
        u = load_unitary(out)
        config = dict(PM1_CONFIG, gate={"file": str(out)})
        report = run_experiment(config)
        assert abs(report["exact_distribution"]["+x"] - 0.5) <= 1e-12
        assert u.shape == (2, 2)

    def test_run_reports_allocation_failure(self, tmp_path, capsys, monkeypatch):
        def exhausted(source):
            raise MemoryError("cannot allocate the gate")

        monkeypatch.setattr("qsinglet.cli.resolve_gate", exhausted)
        path = write_config(tmp_path, PM1_CONFIG)
        assert run_cli(["run", "--config", path]) == 1
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        jsonschema.validate(report, SCHEMA)
        assert set(report) == {"meta", "errors"}
        assert report["errors"] == ["cannot allocate the gate"]
        assert "error:" in captured.err

    def test_run_reports_json_nested_past_the_decoder_depth(self, tmp_path, capsys):
        deep = "[" * 100_000 + "]" * 100_000
        config = tmp_path / "deep.json"
        config.write_text('{"protocol": "pm1", "gate": ' + deep + "}")
        gate = tmp_path / "gate.json"
        gate.write_text(deep)
        for args in (["--config", config], ["--config", write_config(tmp_path, PM1_CONFIG),
                                            "--gate", gate]):
            assert run_cli(["run", *args]) == 1
            captured = capsys.readouterr()
            report = json.loads(captured.out)
            jsonschema.validate(report, SCHEMA)
            assert set(report) == {"meta", "errors"}
            assert captured.err.startswith("error:")
            assert "Traceback" not in captured.err

    def test_run_reports_an_unwritable_out_path(self, tmp_path, capsys):
        out = tmp_path / "missing" / "report.json"
        ok = write_config(tmp_path, PM1_CONFIG)
        refused = write_config(tmp_path, dict(PM1_CONFIG, protocol="bogus"), "bad.json")
        for config, errors in ((ok, 1), (refused, 2)):
            assert run_cli(["run", "--config", config, "--out", out]) == 1
            captured = capsys.readouterr()
            # there is nowhere to write the report, so none is written
            assert captured.out == ""
            lines = captured.err.splitlines()
            assert len(lines) == errors and all(line.startswith("error:") for line in lines)
            assert "report.json" in lines[-1]
            assert not out.parent.exists()

    def test_run_refuses_gate_larger_than_any_protocol_accepts(self, tmp_path, capsys):
        config = dict(PM1_CONFIG, gate={"dim": 6, "phases": [0.0] * 5 + [np.pi], "seed": 0})
        path = write_config(tmp_path, config)
        assert run_cli(["run", "--config", path]) == 1
        report = json.loads(capsys.readouterr().out)
        jsonschema.validate(report, SCHEMA)
        assert report["errors"] == [f"dim must be at most {MAX_QUDIT_DIM}, got 6"]

    def test_gen_gate_reports_allocation_failure(self, tmp_path, capsys, monkeypatch):
        def exhausted(dim, phases, seed):
            raise MemoryError("cannot allocate the gate")

        monkeypatch.setattr("qsinglet.cli.generate_gate", exhausted)
        args = ["gen-gate", "--dim", 2, "--phases", 0.0, 1.0, "--seed", 0,
                "--out", tmp_path / "gate.json"]
        assert run_cli(args) == 1
        assert "error: cannot allocate the gate" in capsys.readouterr().err
        assert not (tmp_path / "gate.json").exists()

    def test_gen_gate_errors(self, tmp_path, capsys):
        out = tmp_path / "gate.json"
        assert run_cli(["gen-gate", "--dim", 1, "--phases", 0.0, "--seed", 0,
                        "--out", out]) == 1
        assert run_cli(["gen-gate", "--dim", 2, "--phases", 0.0, "--seed", 0,
                        "--out", out]) == 1
        assert "error" in capsys.readouterr().err

    def test_gen_gate_refuses_dim_larger_than_any_protocol_accepts(self, tmp_path, capsys,
                                                                    monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("generate_gate called for a refused dim")

        monkeypatch.setattr("qsinglet.cli.generate_gate", never)
        out = tmp_path / "gate.json"
        for dim in (MAX_QUDIT_DIM + 1, 10 ** 6):
            args = ["gen-gate", "--dim", dim, "--phases", *[0.0] * 7, "--seed", 0, "--out", out]
            assert run_cli(args) == 1
            captured = capsys.readouterr()
            assert captured.err == f"error: dim must be at most {MAX_QUDIT_DIM}, got {dim}\n"
            assert captured.out == ""
        assert not out.exists()

    def test_gen_gate_accepts_the_largest_dim(self, tmp_path, capsys):
        out = tmp_path / "gate.json"
        phases = [0.0] * (MAX_QUDIT_DIM - 1) + [np.pi]
        assert run_cli(["gen-gate", "--dim", MAX_QUDIT_DIM, "--phases", *phases,
                        "--seed", 0, "--out", out]) == 0
        assert load_unitary(out).shape == (MAX_QUDIT_DIM, MAX_QUDIT_DIM)
        capsys.readouterr()

    def test_bad_flag_exits_with_usage(self, tmp_path):
        with pytest.raises(SystemExit):
            run_cli(["run", "--config", "c.json", "--protocol", "bogus"])
        with pytest.raises(SystemExit):
            run_cli([])


class TestParserReuse:
    """``main`` may be called many times in one process and builds its parser once."""

    @staticmethod
    def report(capsys):
        report = json.loads(capsys.readouterr().out)
        del report["meta"]
        return report

    def test_later_calls_construct_no_parser(self, tmp_path, capsys, monkeypatch):
        path = write_config(tmp_path, PM1_CONFIG)
        assert run_cli(["run", "--config", path]) == 0
        constructed = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            constructed.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        for _ in range(3):
            assert run_cli(["run", "--config", path]) == 0
        assert run_cli(["gen-gate", "--dim", 2, "--phases", 0.0, 1.0, "--seed", 0,
                        "--out", tmp_path / "gate.json"]) == 0
        assert constructed == []
        capsys.readouterr()

    def test_override_flags_stay_with_their_call(self, tmp_path, capsys):
        path = write_config(tmp_path, PM1_CONFIG)
        assert run_cli(["run", "--config", path]) == 0
        first = self.report(capsys)
        overridden = ["run", "--config", path, "--protocol", "double-pe", "--n", 4,
                      "--shots", 0, "--seed", 9]
        assert run_cli(overridden) == 0
        report = self.report(capsys)
        assert report["config"]["protocol"] == "double-pe"
        assert (report["config"]["shots"], report["config"]["seed"]) == (0, 9)
        assert report["config"]["params"] == {"n": 4}
        assert run_cli(["run", "--config", path]) == 0
        assert self.report(capsys) == first

    @pytest.mark.parametrize("bad", [["run"], ["run", "--config", "c.json", "--bogus", "1"]])
    def test_a_usage_error_leaves_the_parser_usable(self, tmp_path, capsys, bad):
        path = write_config(tmp_path, PM1_CONFIG)
        assert run_cli(["run", "--config", path]) == 0
        first = self.report(capsys)
        with pytest.raises(SystemExit) as exc:
            run_cli(bad)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: qsinglet") and "error:" in err
        assert run_cli(["run", "--config", path]) == 0
        assert self.report(capsys) == first

    def test_gen_gate_and_run_interleave(self, tmp_path, capsys):
        gates = [tmp_path / f"gate{i}.json" for i in range(2)]
        path = write_config(tmp_path, PM1_CONFIG)
        reports = []
        for gate in gates:
            assert run_cli(["gen-gate", "--dim", 2, "--phases", 0.0, np.pi, "--seed", 9,
                            "--out", gate]) == 0
            capsys.readouterr()
            assert run_cli(["run", "--config", path, "--gate", gate]) == 0
            reports.append(self.report(capsys))
        assert gates[0].read_bytes() == gates[1].read_bytes()
        assert reports[0]["config"].pop("gate") == {"file": str(gates[0])}
        assert reports[1]["config"].pop("gate") == {"file": str(gates[1])}
        assert reports[0] == reports[1]


class TestProtocolTable:
    def test_schema_protocols_and_param_bounds_match_the_table(self):
        config = SCHEMA["properties"]["config"]["properties"]
        assert config["protocol"]["enum"] == list(PROTOCOLS)
        schema_params = config["params"]["properties"]
        table = {p.key: p for protocol in PROTOCOLS.values() for p in protocol.params}
        assert set(schema_params) == set(table)
        for key, param in table.items():
            entry = schema_params[key]
            assert entry["type"] == {int: "integer", float: "number"}[param.kind]
            assert entry.get("minimum") == param.minimum
            assert entry.get("maximum") == param.maximum
        assert table["n"].maximum == MAX_REGISTER_QUBITS
        assert table["d"].maximum == MAX_QUDIT_DIM
        grid = SCHEMA["properties"]["estimate"]["properties"]["phase_grid_size"]
        assert (grid["minimum"], grid["maximum"]) == (3, 1024)
        assert (table["phase_grid_size"].minimum, table["phase_grid_size"].maximum) == (3, 1024)
        generated = config["gate"]["oneOf"][1]["properties"]["dim"]
        assert (generated["minimum"], generated["maximum"]) == (2, MAX_QUDIT_DIM)
        assert (config["shots"]["minimum"], config["shots"]["maximum"]) == (0, MAX_SHOTS)

    def test_phase_grid_size_is_bounded(self, tmp_path, capsys):
        config = dict(PROTOCOL_CONFIGS["tomography"], params={"phase_grid_size": 1024})
        assert validate_config(config) is config
        path = write_config(tmp_path, dict(config, params={"phase_grid_size": 1025}))
        assert run_cli(["run", "--config", path]) == 1
        report = json.loads(capsys.readouterr().out)
        jsonschema.validate(report, SCHEMA)
        assert report["errors"] == ["phase_grid_size must be at most 1024, got 1025"]

    @pytest.mark.parametrize("protocol", ["tomography", "pm1"])
    def test_shots_are_bounded(self, tmp_path, capsys, protocol):
        config = dict(PROTOCOL_CONFIGS[protocol], shots=MAX_SHOTS)
        assert validate_config(config) is config
        path = write_config(tmp_path, dict(config, shots=MAX_SHOTS + 1))
        assert run_cli(["run", "--config", path]) == 1
        report = json.loads(capsys.readouterr().out)
        jsonschema.validate(report, SCHEMA)
        assert report["errors"] == [f"shots must be at most {MAX_SHOTS}, got {MAX_SHOTS + 1}"]

    def test_override_flags_come_from_the_table(self, tmp_path):
        path = write_config(tmp_path, PM1_CONFIG)
        args = build_parser().parse_args(
            ["run", "--config", path, "--protocol", "known-phases",
             "--theta1", "0.5", "--theta2", "2", "--d", "3"]
        )
        merged = apply_overrides(load_config(path), args)
        assert merged["params"] == {"theta1": 0.5, "theta2": 2.0, "d": 3}
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--config", path, "--phase_grid_size", "4"])

    def test_runners_are_looked_up_in_the_cli_module_at_call_time(self, tmp_path, monkeypatch):
        # a tracer wraps these qsinglet.cli bindings after import; each run
        # must call the wrapper, not a function captured when the table was built
        runners = {
            "pm1": "protocol_pm1",
            "square-trick": "protocol_square_trick",
            "known-phases": "protocol_known_phases",
            "quartet": "protocol_quartet",
            "qudit-minus-one": "run_qudit_minus_one",
            "double-pe": "run_double_pe",
            "tomography": "tomography_baseline",
        }
        assert set(runners) == set(PROTOCOLS)
        calls = {}

        def counted(name, runner):
            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return runner(*args, **kwargs)
            return wrapper

        for name in runners.values():
            monkeypatch.setattr(qsinglet.cli, name, counted(name, getattr(qsinglet.cli, name)))
        expected = {}
        for protocol, name in runners.items():
            path = write_config(tmp_path, PROTOCOL_CONFIGS[protocol])
            assert run_cli(["run", "--config", path]) == 0
            expected[name] = 1
            assert calls == expected, protocol


def test_module_entry_point_runs_without_runtime_warning():
    src = str(Path(qsinglet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "qsinglet.cli", "--help"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert "usage: qsinglet" in result.stdout
