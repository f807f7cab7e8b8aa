"""Synthetic ADE20K stand-in for the semantic-segmentation task.

Validation scenes are Voronoi region maps with class textures; ground truth
is the exact region class per pixel. The last class index plays the role of
the paper's 32nd "everything else" bucket, which the metric ignores.
"""

from __future__ import annotations

import numpy as np

from ..metrics.segmentation import miou_frequent_classes
from ..pipelines.postprocess import segmentation_map
from ..pipelines.preprocess import dense_preprocess
from ..synthdata import segmentation_scene_batch
from .base import TaskDataset

__all__ = ["SyntheticADE20K"]


class SyntheticADE20K(TaskDataset):
    name = "ade20k"
    task = "semantic_segmentation"
    metric_name = "mIoU"

    def __init__(self, inputs, labels, calibration_inputs, num_classes):
        self.inputs = inputs
        self.labels = labels
        self._calibration_inputs = calibration_inputs
        self.num_classes = num_classes

    @classmethod
    def generate(
        cls,
        model_config: dict,
        *,
        size: int = 96,
        calibration_size: int = 32,
        seed: int = 44,
    ) -> "SyntheticADE20K":
        input_size = model_config["input_size"]
        num_classes = model_config["num_classes"]

        # scenes at exact network resolution keep labels pixel-aligned
        raws, labels = segmentation_scene_batch(size, input_size, num_classes, seed)
        inputs = dense_preprocess(raws, input_size)

        cal_raws, _ = segmentation_scene_batch(
            calibration_size, input_size, num_classes, seed + 10_000
        )
        cal_inputs = dense_preprocess(cal_raws, input_size)
        return cls(inputs, labels, cal_inputs, num_classes)

    def __len__(self) -> int:
        return len(self.labels)

    def input_batch(self, indices: np.ndarray) -> dict[str, np.ndarray]:
        return {"images": self.inputs[np.asarray(indices)]}

    def ground_truth(self, index: int) -> np.ndarray:
        return self.labels[index]

    def postprocess(self, outputs: dict[str, np.ndarray], index: int) -> np.ndarray:
        logits = next(iter(outputs.values()))
        return segmentation_map(logits)

    def evaluate(self, predictions: dict[int, np.ndarray]) -> dict[str, float]:
        idx = sorted(predictions)
        preds = [predictions[i] for i in idx]
        truths = [self.labels[i] for i in idx]
        return {"mIoU": miou_frequent_classes(preds, truths, self.num_classes) * 100.0}

    def calibration_batches(self, batch_size: int = 16) -> list[dict[str, np.ndarray]]:
        return [
            {"images": self._calibration_inputs[i : i + batch_size]}
            for i in range(0, len(self._calibration_inputs), batch_size)
        ]
