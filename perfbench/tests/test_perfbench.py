"""Tests of the benchmark's own code: generator, oracle, span arithmetic and
failure accounting. Run with ``python3 -m pytest perfbench/tests -q``."""

import json
import math
from collections import Counter

import numpy as np
import pytest

import gen
import oracle
import spans
import worker
from qsinglet.cli import generate_gate, run_experiment
from qsinglet.phase_estimation import run_double_pe
from qsinglet.protocols import tomography_baseline


def take(workload, seed, count):
    stream = gen.cycles(workload, seed)
    return [next(stream) for _ in range(count)]


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert json.dumps(take(workload, 7, 2)) == json.dumps(take(workload, 7, 2))
    assert json.dumps(take(workload, 7, 2)) != json.dumps(take(workload, 8, 2))


def kind(config):
    return (config["protocol"], config["params"].get("n"), config["params"].get("d"), config["shots"])


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_every_cycle_holds_the_same_mix(workload):
    first, second = take(workload, 3, 2)
    if workload == "protocol-mix":
        # the invalid slot changes kind from cycle to cycle; the rest is fixed
        first = [c for c in first if oracle.refusal(c) is None]
        second = [c for c in second if oracle.refusal(c) is None]
    assert Counter(map(kind, first)) == Counter(map(kind, second))


def test_protocol_mix_refuses_one_config_per_cycle():
    for cycle in take("protocol-mix", 5, 4):
        assert sum(oracle.refusal(c) is not None for c in cycle) == 1


def test_dpe_sweep_is_half_on_grid():
    (cycle,) = take("dpe-sweep", 2, 1)
    on = [oracle._on_grid(c) for c in cycle]
    assert sum(on) == len(cycle) // 2


def small_configs():
    rng = np.random.default_rng(0)
    configs = [gen.protocol_config(rng, p, None, 50)
               for p in ("pm1", "square-trick", "quartet", "known-phases", "tomography")]
    configs += [gen.protocol_config(rng, "qudit-minus-one", d, 50) for d in (2, 3, 4, 5)]
    configs += [gen.double_pe_config(rng, 3, spectrum, shots)
                for spectrum in ("on", "off") for shots in (0, 200)]
    return configs


@pytest.mark.parametrize("config", small_configs(), ids=lambda c: f"{c['protocol']}-{c['shots']}")
def test_oracle_accepts_the_library_report(config):
    assert oracle.check_report(config, 0, run_experiment(dict(config))) == []


@pytest.mark.parametrize("kind", gen.INVALID_KINDS)
def test_oracle_knows_which_configs_the_library_refuses(kind):
    config = gen.invalid_config(np.random.default_rng(1), kind, 10)
    assert oracle.refusal(config) is not None
    with pytest.raises(ValueError):
        run_experiment(dict(config))


def test_gate_and_double_pe_closed_form_match_the_library():
    source = {"dim": 2, "phases": [0.4, 2.0], "seed": 9}
    gate = generate_gate(2, source["phases"], source["seed"])
    np.testing.assert_array_equal(oracle.gate_matrix(source), gate)
    report = run_double_pe(gate, 4)
    np.testing.assert_allclose(oracle.double_pe_joint(source["phases"], 4), report.exact_joint,
                               rtol=0, atol=1e-12)


def test_tomography_estimate_matches_the_library():
    config = {"protocol": "tomography", "gate": {"dim": 2, "phases": [0.0, math.pi], "seed": 4},
              "shots": 500, "seed": 8, "params": {}}
    est = tomography_baseline(oracle.gate_matrix(config["gate"]), 500, seed=8)
    expected = oracle.tomography_estimate(config)
    assert expected["p00"] == est.p00 and expected["p10"] == est.p10
    assert abs(expected["relative_phase"] - est.relative_phase) <= 1e-12


def test_self_time_subtracts_child_spans():
    # root [0, 10] with children [1, 4] and [3, 6] (overlapping) and a
    # grandchild [2, 3] under the first child; an unrelated root [11, 12]
    tree = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("b", 3.0, 6.0, 0, 0),
        ("c", 2.0, 3.0, 1, 0),
        ("other", 11.0, 12.0, -1, 1),
    ]
    assert spans.self_times(tree) == pytest.approx([5.0, 2.0, 3.0, 1.0, 1.0])


def test_self_times_sum_to_root_durations_on_nested_spans():
    tree = [("r", 0.0, 8.0, -1, 0), ("x", 1.0, 5.0, 0, 0), ("y", 2.0, 3.0, 1, 0), ("z", 6.0, 7.5, 0, 0)]
    assert sum(spans.self_times(tree)) == pytest.approx(8.0)


def test_tracer_wraps_every_binding_and_restores_them():
    import qsinglet.phase_estimation
    import qsinglet.protocols
    import qsinglet.qudit
    import qsinglet.register

    original = qsinglet.register.apply_controlled
    tracer = spans.Tracer()
    tracer.install()
    try:
        for module in (qsinglet.register, qsinglet.protocols, qsinglet.qudit, qsinglet.phase_estimation):
            assert module.apply_controlled is not original
        run_experiment({"protocol": "pm1", "gate": {"dim": 2, "phases": [0.0, math.pi], "seed": 1},
                        "shots": 0, "seed": 0, "params": {}})
    finally:
        tracer.uninstall()
    assert qsinglet.protocols.apply_controlled is original
    names = Counter(span[0] for span in tracer.spans)
    assert names["protocols.protocol_pm1"] == 1
    assert names["register.apply_controlled"] == 1
    assert names["register.State"] > 0
    assert tracer.absent == []


def test_missing_function_is_reported_absent(monkeypatch):
    monkeypatch.setitem(spans.TRACED, "singlet", ("make_singlet", "no_such_function"))
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["singlet.no_such_function"]


PM1 = {"protocol": "pm1", "gate": {"dim": 2, "phases": [0.0, math.pi], "seed": 3},
       "shots": 20, "seed": 1, "params": {}}


def test_corrupted_report_counts_as_failed(tmp_path, monkeypatch):
    runner = worker.Runner(str(tmp_path), {})
    runner.run(PM1)
    assert (runner.attempted, runner.failed) == (1, 0)

    real_main = worker.qsinglet.cli.main

    def corrupting_main(argv):
        status = real_main(argv)
        out = argv[argv.index("--out") + 1]
        with open(out, encoding="utf-8") as fh:
            report = json.load(fh)
        report["exact_distribution"]["+x"] += 1e-9
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
        return status

    monkeypatch.setattr(worker.qsinglet.cli, "main", corrupting_main)
    runner.run(PM1)
    assert (runner.attempted, runner.failed) == (2, 1)


def test_raising_operation_counts_as_failed(tmp_path, monkeypatch):
    def raising_main(argv):
        raise MemoryError("simulated")

    runner = worker.Runner(str(tmp_path), {})
    monkeypatch.setattr(worker.qsinglet.cli, "main", raising_main)
    runner.run(PM1)
    assert (runner.attempted, runner.failed) == (1, 1)
