"""Set-up half of a relaydiv run, for timing in a fresh process.

    python3 benchmarks/setup_probe.py '<config mapping as JSON>'

Imports the package and makes the public calls the CLI runners make before
any Monte Carlo or pair loop starts: config validation, scheme build (which
parses and validates a scheme file), codebook load, and the Gramian.  The
caller times the process from launch to exit.
"""

import json
import sys

from relaydiv.experiment_cli import build_scheme, config_from_mapping, load_codebook_file
from relaydiv.relay_schemes import gramian


def main(raw: str) -> int:
    cfg = config_from_mapping(json.loads(raw))
    scheme = build_scheme(cfg)
    if cfg.codebook:
        load_codebook_file(cfg.codebook, r=cfg.r, rho=10.0 ** (cfg.snr_db[0] / 10.0))
    gramian(scheme)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
