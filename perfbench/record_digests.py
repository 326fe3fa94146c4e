"""Record the digests of the reference configs' reports into digests.json.

    python3 perfbench/record_digests.py

Runs every config in ``gen.GOLDEN`` through ``qsinglet run`` from the
checkout's ``src/``, requires each report to pass the oracle, and stores the
sha256 of its histogram, tomography estimate and gate_uses. Rerun it only to
re-anchor the benchmark on purpose: a change that alters a sampled histogram
for a fixed seed is meant to fail against the recorded digests.
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import qsinglet.cli  # noqa: E402

import gen  # noqa: E402
import oracle  # noqa: E402


def main() -> int:
    recorded = {}
    with tempfile.TemporaryDirectory(dir=HERE) as work:
        config_path = os.path.join(work, "config.json")
        out_path = os.path.join(work, "report.json")
        for workload, configs in gen.GOLDEN.items():
            recorded[workload] = []
            for config in configs:
                with open(config_path, "w", encoding="utf-8") as fh:
                    json.dump(config, fh)
                status = qsinglet.cli.main(["run", "--config", config_path, "--out", out_path])
                with open(out_path, encoding="utf-8") as fh:
                    report = json.load(fh)
                problems = oracle.check_report(config, status, report)
                if problems:
                    print(f"{workload}: {config['protocol']} fails the oracle: {problems}", file=sys.stderr)
                    return 1
                recorded[workload].append({"config": config, "digest": oracle.digest(report)})
    with open(os.path.join(HERE, "digests.json"), "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {sum(len(v) for v in recorded.values())} digests")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
