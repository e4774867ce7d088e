"""Fixed measure of the host's speed, for scaling the benchmark's times.

    python3 benchmarks/host_probe.py

Starts an interpreter, imports numpy and does a fixed mix of small-matrix
numpy and pure-Python work, like a relaydiv run.  It imports nothing from
relaydiv, so its time changes with the host and never with the program.
The caller times the process from launch to exit.
"""

import numpy as np


def main() -> int:
    rng = np.random.default_rng(0)
    mats = rng.standard_normal((64, 4, 4)) + 1j * rng.standard_normal((64, 4, 4))
    gram = mats @ mats.conj().transpose(0, 2, 1)
    total = 0.0
    for _ in range(300):
        total += float(np.linalg.eigvalsh(gram).min())
        total += sum(i * i for i in range(400)) * 1e-12
    return 0 if total > 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
