"""Seeded input generators and output checks for the relaydiv benchmark.

Generators write the documented text formats (README "Scheme and codebook
files"): a header line ``N <int> K <int>`` or ``N <int> COUNT <int>``, then
one line per matrix row or codeword with real and imaginary parts
interleaved.  Values are written with ``repr`` so the program reads back
exactly the floats generated here.

Checks return a list of failure messages; an empty list means the output
passed.  They use the relaydiv package only to validate the generated scheme
and where the check is about the program's own estimator (Jensen
dominance); the certify reference is an independent numpy computation.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

import numpy as np

# Distinct salts keep the generated inputs of one workload seed independent.
_SCHEME_SALT = 0x5C4E
_BOOK_SALT = 0xB00C

# Criterion 1 of the acceptance suite: the calibrated slope lies within 0.4
# of the theoretical diversity.
SLOPE_TOLERANCE = 0.4

# mu_min must match the independent reference to MU_REL_TOL relative, or to
# the backward-error bound of a Hermitian eigensolver, MU_EIG_FACTOR * eps *
# lambda_max of the minimising pair, whichever is larger.  The program takes
# eigenvalues of Phi^H Phi, which squares the pair's condition number; on
# near-singular pairs its error reaches ~2 eps lambda_max, above 1e-9
# relative for some seeds.
MU_REL_TOL = 1e-9
MU_EIG_FACTOR = 16.0


def _complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)


def _rows_text(header: str, rows: np.ndarray) -> str:
    lines = [header]
    for row in rows:
        lines.append(" ".join(f"{float(v.real)!r} {float(v.imag)!r}" for v in row))
    return "\n".join(lines) + "\n"


def scheme_matrices(seed: int, k: int, n: int) -> np.ndarray:
    """K Haar-random unitaries scaled by 1/sqrt(N): G G^H = I/N, Gram != I."""
    rng = np.random.default_rng([seed, _SCHEME_SALT])
    mats = []
    for _ in range(k):
        q, r = np.linalg.qr(_complex_gaussian(rng, (n, n)))
        d = np.diag(r)
        mats.append(q * (d / np.abs(d)) / math.sqrt(n))
    return np.array(mats)


def scheme_text(mats: np.ndarray) -> str:
    k, n, _ = mats.shape
    return _rows_text(f"N {n} K {k}", mats.reshape(k * n, n))


def codebook_words(seed: int, size: int, n: int) -> np.ndarray:
    """i.i.d. CN(0, 1) codewords, shape (size, N)."""
    return _complex_gaussian(np.random.default_rng([seed, _BOOK_SALT]), (size, n))


def codebook_text(words: np.ndarray) -> str:
    return _rows_text(f"N {words.shape[1]} COUNT {words.shape[0]}", words)


def parse_rows(text: str) -> tuple[tuple[int, int], np.ndarray]:
    """Header sizes and the complex rows of a scheme or codebook file."""
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    head = lines[0].split()
    nums = np.array([[float(v) for v in ln.split()] for ln in lines[1:]])
    return (int(head[1]), int(head[3])), nums[:, 0::2] + 1j * nums[:, 1::2]


def load_scheme_text(text: str):
    """Parse a generated scheme file and validate it with ``custom_scheme``."""
    from relaydiv.relay_schemes import custom_scheme

    (n, k), rows = parse_rows(text)
    return custom_scheme(list(rows.reshape(k, n, n)))


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def read_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def check_sweep_csv(text: str, snr_db, trials: int | None) -> list[str]:
    """Rows at the requested SNRs, events within trials, fixed trial counts."""
    try:
        rows = read_csv(text)
        got = [float(r["snr_db"]) for r in rows]
        events = [int(r["events"]) for r in rows]
        counts = [int(r["trials"]) for r in rows]
    except (KeyError, ValueError) as exc:
        return [f"unreadable outage CSV: {exc!r}"]
    problems = []
    if got != [float(v) for v in snr_db]:
        problems.append(f"CSV SNR grid {got} != requested {list(snr_db)}")
    if any(not 0 <= e <= t for e, t in zip(events, counts)):
        problems.append("events outside [0, trials]")
    if trials is not None and any(t != trials for t in counts):
        problems.append(f"trial counts {counts} != requested {trials}")
    return problems


def check_slope(csv_text: str, manifest_text: str | None, d_theory: float) -> list[str]:
    """The calibrated slope d_hat lies within SLOPE_TOLERANCE of theory and
    the manifest exists and agrees with the CSV."""
    if manifest_text is None:
        return ["manifest missing"]
    try:
        d_hat = float(read_csv(csv_text)[0]["d_hat"])
        manifest = json.loads(manifest_text)
        manifest_d_hat = float(manifest["d_hat"])
    except (IndexError, KeyError, ValueError) as exc:
        return [f"unreadable slope output: {exc!r}"]
    problems = []
    if not abs(d_hat - d_theory) <= SLOPE_TOLERANCE:
        problems.append(f"|d_hat - {d_theory}| = {abs(d_hat - d_theory):.3f} > {SLOPE_TOLERANCE}")
    if manifest_d_hat != d_hat:
        problems.append("manifest d_hat differs from the CSV")
    return problems


def check_jensen_dominance(csv_text: str, scheme, r: float, seed: int) -> list[str]:
    """Exact-MI outage events >= Jensen outage events at every point, with
    the Jensen estimator rerun on the same (seed + index, trials) stream the
    CLI used for grid point ``index``."""
    from relaydiv.outage_analysis import mc_jensen_outage

    problems = []
    for index, row in enumerate(read_csv(csv_text)):
        rho = 10.0 ** (float(row["snr_db"]) / 10.0)
        jensen = mc_jensen_outage(scheme, r, rho, int(row["trials"]), seed + index, threads=1)
        if int(row["events"]) < jensen.events:
            problems.append(
                f"snr_db={row['snr_db']}: exact events {row['events']} < Jensen {jensen.events}"
            )
    return problems


def reference_mu_min(words: np.ndarray, k: int) -> tuple[float, float]:
    """min over pairs of sigma_min(Phi(dx))^2 for cyclic delay diversity,
    with Phi(dx) built from explicit cyclic shifts and reduced by SVD, and
    sigma_max(Phi(dx))^2 of the minimising pair."""
    n = words.shape[1]
    a, b = np.triu_indices(words.shape[0], k=1)
    dx = words[a] - words[b]
    # Column i of Phi is P_i dx / sqrt(N), where P_i moves entry j+i to j.
    phi = np.stack([np.roll(dx, -i, axis=1) for i in range(k)], axis=2) / math.sqrt(n)
    sv2 = np.linalg.svd(phi, compute_uv=False) ** 2
    p = int(np.argmin(sv2[:, -1]))
    return float(sv2[p, -1]), float(sv2[p, 0])


def check_certify(report: str, size: int, mu_ref: float, lam_max: float) -> list[str]:
    """All pairs checked, full rank, simplified condition agreeing on every
    pair, and mu_min matching the independent reference."""
    pairs = size * (size - 1) // 2
    problems = []
    if f"pairs checked: {pairs}\n" not in report:
        problems.append(f"report does not list {pairs} pairs checked")
    if "full-rank condition: PASS (all pairs)" not in report:
        problems.append("full-rank condition did not pass")
    if f": {pairs}/{pairs} pairs consistent" not in report:
        problems.append("simplified-condition agreement is not P/P")
    m = re.search(r"^mu_min: (\S+)$", report, re.MULTILINE)
    if m is None:
        problems.append("report has no mu_min line")
    elif not abs(float(m.group(1)) - mu_ref) <= max(
        MU_REL_TOL * mu_ref, MU_EIG_FACTOR * np.finfo(float).eps * lam_max
    ):
        problems.append(f"mu_min {m.group(1)} differs from reference {mu_ref!r}")
    return problems
