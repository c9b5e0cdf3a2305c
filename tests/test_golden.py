"""Golden files: a saved gbrt model and its importance CSV, byte for byte.

The files under tests/golden were written by `pervml train` and `pervml
importance` with the settings in gbrt_params.txt (row and column
subsampling 0.7, trees up to depth 4). Any drift in tree growth, model
JSON or importance arithmetic changes their bytes.
"""

from pathlib import Path

from pervml import cli

GOLDEN = Path(__file__).parent / "golden"


def test_model_and_importance_bytes_unchanged(tmp_path, capsys):
    out = tmp_path / "out"
    common = ("--target", "compressive", "--out", str(out))
    params = str(GOLDEN / "gbrt_params.txt")
    assert cli.run(["train", *common, "--params", params, "--seed", "7"]) == 0
    model_file = out / "model_gbrt_compressive.json"
    assert cli.run(["importance", *common, "--model-file", str(model_file)]) == 0
    for name in ("model_gbrt_compressive.json", "importance_compressive.csv"):
        assert (out / name).read_bytes() == (GOLDEN / name).read_bytes(), name
