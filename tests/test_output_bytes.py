"""results.csv, report.json and histogram.csv keep their exact bytes under both
missing-value policies.

The hashes were computed with the earlier loader, which parsed every field
with ``int()``, took each column's median with ``statistics.median_low``
and normalized every value on its own; ``tests/test_trace.py`` pins
``trace.csv`` the same way.
"""

import hashlib
import json

import pytest

from conftest import write_wbc_like_file
from dca_lab.cli import EXIT_OK, main

#: sha256 of each output of ``dca-lab run --seed 11`` on
#: ``write_wbc_like_file(seed=7)`` (16 rows with a missing marker), with the
#: default config but for ``attribute_policy.missing_value_policy``.
OUTPUT_SHA256 = {
    "skip_record": {
        "results.csv": "8a997b1c1cff4759667f2174a36a89c0c61ed0f79bc9820a4bd4f36658995b23",
        "report.json": "6483948dcf246b34d7a8e6693f5192490c90f2f94e93ed3c52de7c49b9a5f00f",
        "histogram.csv": "de183a27bb0fe041c275abecd39bce9ac257ec42128c7cab32b2bc9cf031671e",
    },
    "impute_median": {
        "results.csv": "2b389402601a16f732a013b73e5c95bf8cce17e8e30d8fe1de1315e5e3bdb682",
        "report.json": "0113e86d814e0de280bad0becf097241ec3195eb5645ee729df7a6134fc9cb12",
        "histogram.csv": "adf4ef199ee3b38020b677e19885da61c7f987d23a85359a697aa7e22d6a38e6",
    },
}


@pytest.mark.parametrize("policy", sorted(OUTPUT_SHA256))
def test_output_bytes_are_pinned(tmp_path, policy):
    data, config, out = tmp_path / "wbc.csv", tmp_path / "config.json", tmp_path / "out"
    write_wbc_like_file(data, seed=7)
    config.write_text(json.dumps({"attribute_policy": {"missing_value_policy": policy}}))
    argv = ["run", "--data", str(data), "--config", str(config), "--seed", "11", "--out", str(out)]
    assert main(argv) == EXIT_OK
    hashes = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in OUTPUT_SHA256[policy]}
    assert hashes == OUTPUT_SHA256[policy]
