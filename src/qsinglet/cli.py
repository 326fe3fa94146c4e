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
import sys
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from typing import Callable

import numpy as np

from . import __version__
from .floattext import float_texts
from .linalg import MAX_SEED, generate_gate, load_unitary, require_int, require_number, save_unitary
from .phase_estimation import MAX_REGISTER_QUBITS, run_double_pe
# _labelled calls protocol_* and run_qudit_minus_one by name, through these bindings
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

    ``run(gate, shots, seed, **params)`` returns the report body that
    :func:`_body` assembles, the one shape every protocol writes.
    """

    params: tuple
    run: Callable[..., dict]


def _body(fidelities: dict, gate_uses: int, shots: int = 0, histogram=None, **outcome) -> dict:
    """A report body: ``outcome`` (the exact distribution, or tomography's
    estimate), the fidelities of each analysed branch's output wires, the
    gate use count, and the histogram of ``shots`` sampled readouts when
    there are any (tomography's counts per setting are not readouts)."""
    body = {**outcome, "fidelities": fidelities, "gate_uses": gate_uses}
    if shots > 0:
        body["histogram"] = histogram
    return body


def _labelled(runner: str, gate, shots, seed, **params) -> dict:
    """The body of a labelled protocol: calls the library runner bound to the
    name ``runner`` in this module, looked up at call time."""
    report = globals()[runner](gate, seed=seed, shots=shots, **params)
    fidelities = {
        label: (list(branch.fidelities) if branch.fidelities is not None else None)
        for label, branch in report.branches.items()
    }
    return _body(fidelities, report.gate_uses, shots, report.histogram,
                 exact_distribution=report.exact_distribution)


def _tomography(gate, shots, seed, **params) -> dict:
    if shots < 1:
        raise ValueError("tomography needs shots >= 1 (counts per setting)")
    estimate = asdict(tomography_baseline(gate, shots, seed=seed, **params))
    return _body({}, estimate.pop("gate_uses"), estimate=estimate)


@functools.cache
def _reading_names(n: int) -> tuple:
    """Byte tables over the n-qubit readings z: each z's position among the
    sorted texts ``str(0..2^n - 1)``, and the ``"za,`` heads and ``zb": ``
    tails of the JSON keys ``"za,zb"``."""
    names = np.array([b"%d" % z for z in range(2 ** n)])
    ranks = np.empty(2 ** n, dtype=np.int64)
    # distinct ASCII digit strings, so their byte order is their text order
    ranks[np.argsort(names)] = np.arange(2 ** n)
    tables = ranks, np.char.add(np.char.add(b'"', names), b","), np.char.add(names, b'": ')
    # cached and shared by every caller, so nothing may change them
    for table in tables:
        table.flags.writeable = False
    return tables


@dataclass(frozen=True)
class ReadingTable:
    """A double-pe map from readings to one value column, as arrays: flat
    readings ``za * 2^n + zb`` in ``"za,zb"`` key order, their ``values``
    (floats, float pairs as rows of two, or ints) and each value's JSON text
    as bytes (a pair's two texts as a row of two).

    It is the one value :func:`report_json` does not hand to ``json.dumps``:
    the CLI writes it straight from the arrays (:meth:`json_text`).
    ``as_dict`` is the same map as the ``{"za,zb": value}`` dict that
    :func:`run_experiment` returns. Both take the readings in their stored
    order.
    """

    n: int
    readings: np.ndarray
    values: np.ndarray
    texts: np.ndarray

    @classmethod
    def keyed(cls, n: int, readings: np.ndarray, values: np.ndarray, texts: np.ndarray):
        """The rows put in key order and made read-only. "," sorts below
        every digit, so the keys sort as (rank[za], rank[zb])."""
        ranks = _reading_names(n)[0]
        z_a, z_b = np.divmod(readings, 2 ** n)
        order = np.argsort(ranks[z_a] * 2 ** n + ranks[z_b])
        columns = readings[order], values[order], texts[order]
        for column in columns:
            column.flags.writeable = False
        return cls(n, *columns)

    def as_dict(self) -> dict:
        z_a, z_b = np.divmod(self.readings, 2 ** self.n)
        pairs = zip(z_a.tolist(), z_b.tolist(), self.values.tolist())
        return {f"{a},{b}": v for a, b, v in pairs}

    def json_text(self, indent: str) -> str:
        """Exactly ``json.dumps(self.as_dict(), sort_keys=True, indent=2)``
        nested at ``indent``, joined from the stored texts and cached key
        tables with no key string or dict; a pair is written as
        ``json.dumps`` writes a two-float list."""
        _, heads, tails = _reading_names(self.n)
        z_a, z_b = np.divmod(self.readings, 2 ** self.n)
        inner = indent + "  "
        texts = self.texts
        if texts.ndim == 2:
            deeper = "\n" + inner + "  "
            first = np.char.add(("[" + deeper).encode(), texts[:, 0])
            second = np.char.add(("," + deeper).encode(), texts[:, 1])
            texts = np.char.add(first, np.char.add(second, ("\n" + inner + "]").encode()))
        lines = np.char.add(np.char.add(heads[z_a], tails[z_b]), texts)
        body = (",\n" + inner).encode().join(lines.tolist()).decode()
        return "{\n" + inner + body + "\n" + indent + "}"


def _double_pe(gate, shots, seed, n) -> dict:
    """The double-pe body, each of its three maps a :class:`ReadingTable`.
    Every float they hold is formatted in one :func:`float_texts` call, the
    distribution's probabilities once per distinct value."""
    report = run_double_pe(gate, n, shots=shots, seed=seed)
    z_a, z_b, _, fidelity_a, fidelity_b, _, _ = report.analysed
    fidelities = np.stack((fidelity_a, fidelity_b), axis=1)
    distinct, inverse = np.unique(report.kept_probabilities, return_inverse=True)
    texts = float_texts(np.concatenate((distinct, fidelities.reshape(-1))))
    split = distinct.shape[0]
    histogram = None
    if shots > 0:
        readings, counts = report.observed
        histogram = ReadingTable.keyed(n, readings, counts, counts.astype("S"))
    return _body(
        ReadingTable.keyed(n, z_a * 2 ** n + z_b, fidelities, texts[split:].reshape(-1, 2)),
        report.gate_uses,
        shots,
        histogram,
        exact_distribution=ReadingTable.keyed(
            n, report.kept, report.kept_probabilities, texts[:split][inverse]
        ),
    )


def _qudit(gate, shots, seed, d) -> dict:
    if gate.shape[0] != d:
        raise ValueError(f"gate dimension {gate.shape[0]} does not match requested d={d}")
    return _labelled("run_qudit_minus_one", gate, shots, seed)


# The one table of protocols: config validation, the --protocol choices, the
# parameter override flags and the dispatch of run_experiment all read it.
# Runners call the library by name at run time, so wrapping those module
# bindings (as a tracer does) sees every call.
PROTOCOLS = {
    "tomography": Protocol(
        (Param("phase_grid_size", int, required=False, minimum=3, maximum=1024),), _tomography
    ),
    "pm1": Protocol((), functools.partial(_labelled, "protocol_pm1")),
    "known-phases": Protocol(
        (
            Param("theta1", float, flag="the first known phase"),
            Param("theta2", float, flag="the second known phase"),
        ),
        functools.partial(_labelled, "protocol_known_phases"),
    ),
    "square-trick": Protocol((), functools.partial(_labelled, "protocol_square_trick")),
    "quartet": Protocol((), functools.partial(_labelled, "protocol_quartet")),
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
    # a list or dict is unhashable, so test the type before membership
    if not isinstance(protocol, str) or protocol not in PROTOCOLS:
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


def report_json(value, indent: str = "") -> str:
    """Exactly ``json.dumps(value, sort_keys=True, indent=2)``, nested at
    ``indent``, where each :class:`ReadingTable` counts as its ``as_dict()``.

    A table writes itself from its arrays (:meth:`ReadingTable.json_text`),
    and a dict that holds one, such as a double-pe report, is written key by
    key. ``json.dumps`` writes everything else: JSON strings hold no raw
    newline, so re-indenting its lines changes nothing else.
    """
    if type(value) is ReadingTable:
        return value.json_text(indent)
    if type(value) is dict and ReadingTable in set(map(type, value.values())):
        inner = indent + "  "
        lines = (json.dumps(key) + ": " + report_json(value[key], inner) for key in sorted(value))
        return "{\n" + inner + (",\n" + inner).join(lines) + "\n" + indent + "}"
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + indent)


def _emit(report: dict, out_path) -> None:
    text = report_json(report) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _run(config: dict) -> dict:
    """The report as the CLI writes it: double-pe's maps stay
    :class:`ReadingTable` objects."""
    config = validate_config(config)
    gate = resolve_gate(config["gate"])
    body = PROTOCOLS[config["protocol"]].run(
        gate, config["shots"], config["seed"], **config["params"]
    )
    return {"meta": _meta(), "config": config, **body}


def run_experiment(config: dict) -> dict:
    """Validate a merged config, run its protocol, and return the report.

    The report carries "meta" and "config" plus the protocol body (see
    :class:`Protocol`), all plain JSON values: each of double-pe's maps is a
    ``{"za,zb": value}`` dict in key order. ``qsinglet run`` writes the same
    report, but writes those maps from their key-ordered arrays.
    """
    return {
        key: value.as_dict() if type(value) is ReadingTable else value
        for key, value in _run(config).items()
    }


def _cmd_run(args) -> int:
    try:
        report, status = _run(apply_overrides(load_config(args.config), args)), 0
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
        source = {"dim": args.dim, "phases": args.phases, "seed": args.seed}
        save_unitary(args.out, resolve_gate(source))
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
