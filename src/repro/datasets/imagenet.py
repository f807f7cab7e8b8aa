"""Synthetic ImageNet-2012 stand-in for the image-classification task.

Validation images are drawn from the same class-prototype generator the
reference model's head was fitted against (fresh seed), so ground truth is
real: FP32 Top-1 reflects genuine signal recovery and quantized models lose
accuracy exactly where their numeric error crosses a decision boundary.
"""

from __future__ import annotations

import numpy as np

from ..metrics.classification import top1_accuracy, topk_accuracy
from ..pipelines.postprocess import top_k
from ..pipelines.preprocess import classification_preprocess
from ..synthdata import classification_scene_batch
from .base import TaskDataset

__all__ = ["SyntheticImageNet"]


class SyntheticImageNet(TaskDataset):
    name = "imagenet"
    task = "image_classification"
    metric_name = "top1"

    def __init__(self, inputs: np.ndarray, labels: np.ndarray,
                 calibration_inputs: np.ndarray):
        self.inputs = inputs
        self.labels = labels
        self._calibration_inputs = calibration_inputs

    @classmethod
    def generate(
        cls,
        model_config: dict,
        *,
        size: int = 512,
        calibration_size: int = 128,
        seed: int = 42,
        signal: float = 1.0,
        noise: float = 0.65,
    ) -> "SyntheticImageNet":
        input_size = model_config["input_size"]
        num_classes = model_config["num_classes"]
        raw_size = int(round(input_size * 256 / 224)) + 8

        raws, labels = classification_scene_batch(
            size, raw_size, num_classes, seed, signal=signal, noise=noise
        )
        inputs = classification_preprocess(raws, input_size)

        cal_raws, _ = classification_scene_batch(
            calibration_size, raw_size, num_classes, seed + 10_000, signal=signal, noise=noise
        )
        cal_inputs = classification_preprocess(cal_raws, input_size)
        return cls(inputs, labels, cal_inputs)

    def __len__(self) -> int:
        return len(self.labels)

    def input_batch(self, indices: np.ndarray) -> dict[str, np.ndarray]:
        return {"images": self.inputs[np.asarray(indices)]}

    def ground_truth(self, index: int) -> int:
        return int(self.labels[index])

    def postprocess(self, outputs: dict[str, np.ndarray], index: int) -> int:
        probs = next(iter(outputs.values()))
        return int(top_k(probs, k=1)[0])

    def evaluate(self, predictions: dict[int, int]) -> dict[str, float]:
        idx = sorted(predictions)
        pred = np.asarray([predictions[i] for i in idx])
        truth = self.labels[idx]
        return {"top1": top1_accuracy(pred, truth) * 100.0}

    def calibration_batches(self, batch_size: int = 16) -> list[dict[str, np.ndarray]]:
        return [
            {"images": self._calibration_inputs[i : i + batch_size]}
            for i in range(0, len(self._calibration_inputs), batch_size)
        ]
