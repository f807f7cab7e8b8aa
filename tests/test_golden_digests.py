"""Golden construction digests: seeded model fitting and dataset synthesis.

Every seeded output of the benchmark must stay byte-identical when the
construction code is optimized. These SHA-256 digests pin, at seed 0, the
full parameter set of the three fitted v1.0 vision reference models (fitted
heads plus calibrated BN statistics) and the default-size imagenet / coco /
ade20k validation inputs, calibration batches and ground truth. A digest
mismatch means some float32 operation sequence or RNG draw order changed.

The digests are defined at one BLAS thread (the benchmark's setting):
multi-threaded OpenBLAS may split a float32 GEMM differently and so round
differently. The tests therefore compute them in a child process with BLAS
pinned. Print the table (only for a deliberate, explained output change)
with ``OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/test_golden_digests.py``.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.datasets import create_dataset
from repro.models import create_reference_model

FITTED_MODELS = ("mobilenet_edgetpu", "mobiledet_ssd", "deeplab_v3plus")
DATASETS = {"imagenet": "mobilenet_edgetpu", "coco": "mobiledet_ssd", "ade20k": "deeplab_v3plus"}

GOLDEN = {
    "model/mobilenet_edgetpu": "b5b5db09f57bf347927330336b00264ea2d7c7106183e16bd84e186dd5047b57",
    "model/mobiledet_ssd": "d39599f867c799bd9b66b807aa4517690b0e31394247e2630674bad6ec0ebb57",
    "model/deeplab_v3plus": "a7457380681c74f0f4cb03b34cae5246f6a36f05792f7fbe2a633c5808783273",
    "dataset/ade20k": "f1e93b6c2e18ec58b81d3180f7e09748830925691ee7de0c2a7e46a9bb826e60",
    "dataset/coco": "511e07fe96e0eaa629530ef3abba45756e5c808c381254594546d87be4750fdc",
    "dataset/imagenet": "67860b34e3e6cf0a5551e87c33652403b5c0d02b0726056378cf2422b0e9b3af",
}


def _update(h, name: str, arr) -> None:
    arr = np.ascontiguousarray(arr)
    h.update(f"{name}|{arr.dtype.str}|{arr.shape}|".encode())
    h.update(arr.tobytes())


def model_digest(name: str) -> str:
    params = create_reference_model(name).graph.params
    h = hashlib.sha256()
    for key in sorted(params):
        _update(h, key, params[key])
    return h.hexdigest()


def _ground_truth_arrays(dataset) -> list[tuple[str, np.ndarray]]:
    if dataset.name == "coco":
        counts = np.asarray([len(objs) for objs in dataset.truths], dtype=np.int64)
        rows = [(*o.box, o.class_id) for objs in dataset.truths for o in objs]
        return [("truth/counts", counts), ("truth/objects", np.asarray(rows, dtype=np.float64))]
    return [("truth/labels", dataset.labels)]


def dataset_digest(name: str) -> str:
    config = create_reference_model(DATASETS[name], fitted=False).config
    dataset = create_dataset(name, None, config)
    h = hashlib.sha256()
    _update(h, "inputs", dataset.inputs)
    for i, batch in enumerate(dataset.calibration_batches()):
        for key in sorted(batch):
            _update(h, f"calibration/{i}/{key}", batch[key])
    for key, arr in _ground_truth_arrays(dataset):
        _update(h, key, arr)
    return h.hexdigest()


def all_digests() -> dict[str, str]:
    out = {f"model/{m}": model_digest(m) for m in FITTED_MODELS}
    out.update({f"dataset/{d}": dataset_digest(d) for d in sorted(DATASETS)})
    return out


@pytest.fixture(scope="module")
def digests():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, __file__, "--json"], env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_golden_digest(digests, key):
    assert digests[key] == GOLDEN[key]


if __name__ == "__main__":
    result = all_digests()
    if "--json" in sys.argv:
        print(json.dumps(result))
    else:
        for key, value in result.items():
            print(f'    "{key}": "{value}",')
