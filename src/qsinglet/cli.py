"""Command line front end: run a protocol from a JSON config, or mint gates.

``qsinglet run --config experiment.json`` writes one JSON report per run.
Reports are deterministic byte-for-byte for a fixed config, except for the
timestamp under "meta". ``qsinglet gen-gate`` writes a unitary with chosen
eigenphases and a Haar-random eigenbasis to a matrix JSON file; the same
arguments always produce byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii
from typing import Callable

import numpy as np

from . import __version__
from .linalg import MAX_SEED, generate_gate, load_unitary, require_int, require_number
from .phase_estimation import MAX_REGISTER_QUBITS, run_double_pe
from .protocols import (
    protocol_known_phases,
    protocol_pm1,
    protocol_quartet,
    protocol_square_trick,
    tomography_baseline,
)
from .qudit import MAX_QUDIT_DIM, run_qudit_minus_one

# largest accepted shot count; bounds the time a sampled run can take
MAX_SHOTS = 10 ** 9


def _meta() -> dict:
    """The report's "meta" block; its timestamp is the one nondeterministic field."""
    timestamp = datetime.now(timezone.utc).isoformat()
    return {"tool": "qsinglet", "version": __version__, "timestamp": timestamp}


@dataclass(frozen=True)
class Param:
    """One protocol parameter: its config key, type and bounds.

    A ``flag`` text adds a ``--key`` override to ``qsinglet run``.
    """

    key: str
    kind: type
    required: bool = True
    minimum: int | None = None
    maximum: int | None = None
    flag: str | None = None

    def check(self, value) -> None:
        if self.kind is int:
            require_int(value, self.key, minimum=self.minimum, maximum=self.maximum)
        else:
            require_number(value, self.key)


@dataclass(frozen=True)
class Protocol:
    """A protocol's parameters and its runner.

    ``run(gate, shots, seed, **params)`` returns the report body: the exact
    outcome distribution (when the protocol has one), per-branch fidelities,
    the gate use count, and a histogram when shots > 0.
    """

    params: tuple
    run: Callable[..., dict]


def _labelled_body(report) -> dict:
    body = {
        "exact_distribution": report.exact_distribution,
        "fidelities": {
            label: (list(branch.fidelities) if branch.fidelities is not None else None)
            for label, branch in report.branches.items()
        },
        "gate_uses": report.gate_uses,
    }
    if report.shots_used > 0:
        body["histogram"] = report.histogram
    return body


def _tomography(gate, shots, seed, **params) -> dict:
    if shots < 1:
        raise ValueError("tomography needs shots >= 1 (counts per setting)")
    est = tomography_baseline(gate, shots, seed=seed, **params)
    estimate = asdict(est)
    gate_uses = estimate.pop("gate_uses")
    return {"fidelities": {}, "gate_uses": gate_uses, "estimate": estimate}


@functools.cache
def _text_ranks(n: int) -> np.ndarray:
    """Each n-qubit reading z's position among the sorted texts ``str(0..2^n - 1)``."""
    ranks = np.empty(2 ** n, dtype=np.int64)
    ranks[sorted(range(2 ** n), key=str)] = np.arange(2 ** n)
    # cached and shared by every caller, so nothing may change it
    ranks.flags.writeable = False
    return ranks


def _reading_keys(readings: np.ndarray, n: int):
    """The ``"za,zb"`` keys of distinct flat readings in string order, and that order.

    "," sorts below every digit, so the keys sort as (rank[za], rank[zb]).
    """
    ranks = _text_ranks(n)
    z_a, z_b = np.divmod(readings, 2 ** n)
    order = np.argsort(ranks[z_a] * 2 ** n + ranks[z_b])
    z_a, z_b = z_a[order].tolist(), z_b[order].tolist()
    if len(order) < 2 ** n:
        # fewer keys than texts (every on-grid run keeps one or two): format
        # only the readings present
        return [f"{a},{b}" for a, b in zip(z_a, z_b)], order
    # built per call: cached, the texts of every n run would stay resident
    names = list(map(str, range(2 ** n)))
    heads = [name + "," for name in names]
    return [heads[a] + names[b] for a, b in zip(z_a, z_b)], order


def _double_pe(gate, shots, seed, n) -> dict:
    if gate.shape != (2, 2):
        raise ValueError("double-pe runs on 2x2 gates")
    report = run_double_pe(gate, n, shots=shots, seed=seed)
    # built in key order, so the writer's sort is one linear pass
    keys, order = _reading_keys(report.ranked, n)
    body = {
        "exact_distribution": dict(zip(keys, report.ranked_probabilities[order].tolist())),
        "fidelities": {
            f"{b.z_a},{b.z_b}": [b.fidelity_a, b.fidelity_b] for b in report.branches
        },
        "gate_uses": report.gate_uses,
    }
    if shots > 0:
        body["histogram"] = {f"{za},{zb}": c for (za, zb), c in report.joint_histogram.items()}
    return body


def _qudit(gate, shots, seed, d) -> dict:
    if gate.shape[0] != d:
        raise ValueError(f"gate dimension {gate.shape[0]} does not match requested d={d}")
    return _labelled_body(run_qudit_minus_one(gate, seed=seed, shots=shots))


# The one table of protocols: config validation, the --protocol choices, the
# parameter override flags and the dispatch of run_experiment all read it.
# Runners call the library by name at run time, so wrapping those module
# bindings (as a tracer does) sees every call.
PROTOCOLS = {
    "tomography": Protocol(
        (Param("phase_grid_size", int, required=False, minimum=3, maximum=1024),), _tomography
    ),
    "pm1": Protocol(
        (), lambda gate, shots, seed: _labelled_body(protocol_pm1(gate, seed, shots))
    ),
    "known-phases": Protocol(
        (
            Param("theta1", float, flag="the first known phase"),
            Param("theta2", float, flag="the second known phase"),
        ),
        lambda gate, shots, seed, theta1, theta2: _labelled_body(
            protocol_known_phases(gate, theta1, theta2, seed, shots)
        ),
    ),
    "square-trick": Protocol(
        (), lambda gate, shots, seed: _labelled_body(protocol_square_trick(gate, seed, shots))
    ),
    "quartet": Protocol(
        (), lambda gate, shots, seed: _labelled_body(protocol_quartet(gate, seed, shots))
    ),
    "double-pe": Protocol(
        (
            Param(
                "n", int, minimum=1, maximum=MAX_REGISTER_QUBITS,
                flag="the double-pe register size",
            ),
        ),
        _double_pe,
    ),
    "qudit-minus-one": Protocol(
        (Param("d", int, minimum=2, maximum=MAX_QUDIT_DIM, flag="the qudit dimension"),), _qudit
    ),
}


# parameters with a `qsinglet run` override flag, in table order
FLAG_PARAMS = tuple(p for protocol in PROTOCOLS.values() for p in protocol.params if p.flag)


def load_config(path: str) -> dict:
    """Read an experiment config, filling defaults for shots, seed and params."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    unknown = set(raw) - {"protocol", "gate", "shots", "seed", "params"}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    config = {
        "protocol": raw.get("protocol"),
        "gate": raw.get("gate"),
        "shots": raw.get("shots", 1),
        "seed": raw.get("seed", 0),
        "params": raw.get("params", {}),
    }
    if not isinstance(config["params"], dict):
        raise ValueError("params must be a JSON object")
    return config


def apply_overrides(config: dict, args: argparse.Namespace) -> dict:
    """Fold command line flags over a loaded config."""
    config = dict(config)
    config["params"] = dict(config["params"])
    if args.protocol is not None:
        config["protocol"] = args.protocol
    if args.shots is not None:
        config["shots"] = args.shots
    if args.seed is not None:
        config["seed"] = args.seed
    if args.gate is not None:
        config["gate"] = {"file": args.gate}
    for param in FLAG_PARAMS:
        value = getattr(args, param.key)
        if value is not None:
            config["params"][param.key] = value
    return config


def validate_config(config: dict) -> dict:
    """Type- and range-check a merged config; returns it unchanged on success."""
    protocol = config["protocol"]
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}; choose from {', '.join(PROTOCOLS)}")
    require_int(config["shots"], "shots", minimum=0, maximum=MAX_SHOTS)
    require_int(config["seed"], "seed", minimum=0, maximum=MAX_SEED - 1)
    params = config["params"]
    spec = PROTOCOLS[protocol].params
    missing = {p.key for p in spec if p.required} - set(params)
    if missing:
        raise ValueError(f"protocol {protocol} requires params: {sorted(missing)}")
    extra = set(params) - {p.key for p in spec}
    if extra:
        raise ValueError(f"protocol {protocol} does not accept params: {sorted(extra)}")
    for param in spec:
        if param.key in params:
            param.check(params[param.key])
    return config


def resolve_gate(source) -> np.ndarray:
    """Load or synthesize the gate named by a config's gate source."""
    if not isinstance(source, dict):
        raise ValueError("gate source must be a JSON object")
    # open() takes an int as a file descriptor, so only a string names a file
    if set(source) == {"file"} and isinstance(source["file"], str):
        return load_unitary(source["file"])
    if set(source) == {"dim", "phases", "seed"}:
        if not isinstance(source["phases"], list):
            raise ValueError("gate phases must be a list")
        # no protocol runs a larger gate; refuse it before allocating one
        require_int(source["dim"], "dim", minimum=2, maximum=MAX_QUDIT_DIM)
        return generate_gate(source["dim"], source["phases"], source["seed"])
    raise ValueError(
        "gate source must be {'file': path} or {'dim': ..., 'phases': [...], 'seed': ...}"
    )


# below this many floats a list is formatted directly: the memo's set and dict
# cost more than the repeats they save
FLOAT_MEMO_MIN = 16


def _texts(values: list, indent: str) -> list:
    """The JSON text of each value, nested at ``indent``.

    One type check covers a list of floats or of ints; each distinct float of
    a long one is formatted once. Any other list goes value by value.
    """
    kinds = set(map(type, values))
    if kinds == {float}:
        if len(values) < FLOAT_MEMO_MIN:
            # the sum is finite unless a value is NaN or infinite (or it overflows)
            if math.isfinite(sum(values)):
                return list(map(float.__repr__, values))
        else:
            distinct = set(values)
            if math.isfinite(sum(distinct)):
                memo = dict(zip(distinct, map(float.__repr__, distinct)))
                if 0.0 in memo:
                    # 0.0 == -0.0 but their texts differ, so zeros skip the memo
                    return [memo[v] if v else float.__repr__(v) for v in values]
                return list(map(memo.__getitem__, values))
    elif kinds == {int}:
        return list(map(int.__repr__, values))
    return [report_json(v, indent) for v in values]


def report_json(value, indent: str = "") -> str:
    """Exactly ``json.dumps(value, sort_keys=True, indent=2)``, nested at ``indent``.

    Objects with string keys, lists, strings, ints, finite floats, booleans
    and None are written here, in one pass over the value. Sorting an
    object's keys is one linear pass when it was built in key order, as
    double-pe's ``exact_distribution`` is (its ranking lives in
    ``PeReport.ranked``). What only ``json.dumps`` spells byte for byte (NaN
    and the infinities, non-string keys, other types) is handed to it one
    value at a time: JSON strings hold no raw newline, so re-indenting its
    lines changes nothing else.
    """
    kind = type(value)
    if kind is dict:
        if not value:
            return "{}"
        if set(map(type, value)) == {str}:
            keys = sorted(value)
            if keys == list(value):
                values = list(value.values())
            else:
                values = list(map(value.__getitem__, keys))
            inner = indent + "  "
            lines = map(": ".join, zip(map(encode_basestring_ascii, keys), _texts(values, inner)))
            return "{\n" + inner + (",\n" + inner).join(lines) + "\n" + indent + "}"
    elif kind is list:
        if not value:
            return "[]"
        inner = indent + "  "
        return "[\n" + inner + (",\n" + inner).join(_texts(value, inner)) + "\n" + indent + "]"
    elif kind is str:
        return encode_basestring_ascii(value)
    elif kind is int:
        return int.__repr__(value)
    elif kind is float:
        if math.isfinite(value):
            return float.__repr__(value)
    elif kind is bool:
        return "true" if value else "false"
    elif value is None:
        return "null"
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + indent)


def _emit(report: dict, out_path) -> None:
    text = report_json(report) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def run_experiment(config: dict) -> dict:
    """Validate a merged config, run its protocol, and return the report.

    The report carries "meta" and "config" plus the protocol body (see
    :class:`Protocol`).
    """
    config = validate_config(config)
    gate = resolve_gate(config["gate"])
    body = PROTOCOLS[config["protocol"]].run(
        gate, config["shots"], config["seed"], **config["params"]
    )
    return {"meta": _meta(), "config": config, **body}


def _cmd_run(args) -> int:
    try:
        report, status = run_experiment(apply_overrides(load_config(args.config), args)), 0
    # RecursionError: JSON nested past the decoder's depth
    except (ValueError, TypeError, KeyError, OSError, MemoryError, RecursionError) as exc:
        report, status = {"meta": _meta(), "errors": [str(exc)]}, 1
        print(f"error: {exc}", file=sys.stderr)
    try:
        _emit(report, args.out)
    except OSError as exc:  # nowhere to write the report
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return status


def _cmd_gen_gate(args) -> int:
    try:
        # no protocol runs a larger gate; refuse it before allocating one
        require_int(args.dim, "dim", minimum=2, maximum=MAX_QUDIT_DIM)
        generate_gate(args.dim, args.phases, args.seed, out=args.out)
    except (ValueError, TypeError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {args.dim}x{args.dim} gate to {args.out}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``qsinglet`` parser, built once per process and shared: only parse with it."""
    parser = argparse.ArgumentParser(
        prog="qsinglet",
        description="Singlet-based eigenstate location protocols for unknown gates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a protocol from a JSON config")
    run.add_argument("--config", required=True, help="path to the experiment config JSON")
    run.add_argument("--protocol", choices=PROTOCOLS, help="override the config's protocol")
    run.add_argument("--shots", type=int, help="override shot count (0 = exact only)")
    run.add_argument("--seed", type=int, help="override the sampling seed")
    run.add_argument("--gate", help="override the gate with a matrix JSON file")
    for param in FLAG_PARAMS:
        run.add_argument(f"--{param.key}", type=param.kind, help=f"override {param.flag}")
    run.add_argument("--out", help="write the report here instead of stdout")

    gen = sub.add_parser("gen-gate", help="write a gate with chosen eigenphases")
    gen.add_argument("--dim", type=int, required=True, help="gate dimension")
    gen.add_argument(
        "--phases", type=float, nargs="+", required=True, help="one eigenphase per dimension"
    )
    gen.add_argument("--seed", type=int, required=True, help="seed for the random eigenbasis")
    gen.add_argument("--out", required=True, help="matrix JSON output path")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_gen_gate(args)


if __name__ == "__main__":
    sys.exit(main())
