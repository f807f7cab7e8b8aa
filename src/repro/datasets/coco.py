"""Synthetic COCO-2017 stand-in for the object-detection task.

Validation scenes contain textured rectangles at known normalized boxes (the
same generator the SSD heads were ridge-fitted on, fresh seed), so mAP
measures genuine localization + classification quality.
"""

from __future__ import annotations

import numpy as np

from ..metrics.detection_map import GroundTruthBox, coco_map
from ..pipelines.anchors import anchors_for_model
from ..pipelines.detection import Detection, postprocess_detections
from ..pipelines.preprocess import dense_preprocess
from ..synthdata import detection_scene_batch
from .base import TaskDataset

__all__ = ["SyntheticCOCO"]


class SyntheticCOCO(TaskDataset):
    name = "coco"
    task = "object_detection"
    metric_name = "mAP"

    def __init__(self, inputs, truths, calibration_inputs, anchors, config):
        self.inputs = inputs
        self.truths = truths
        self._calibration_inputs = calibration_inputs
        self.anchors = anchors
        self.config = config

    @classmethod
    def generate(
        cls,
        model_config: dict,
        *,
        size: int = 192,
        calibration_size: int = 64,
        seed: int = 43,
        score_threshold: float = 0.25,
    ) -> "SyntheticCOCO":
        input_size = model_config["input_size"]
        num_classes = model_config["num_classes"]

        raws, objects = detection_scene_batch(size, input_size + 16, num_classes, seed)
        inputs = dense_preprocess(raws, input_size)
        truths = [
            [GroundTruthBox(o.box, o.class_id) for o in objs] for objs in objects
        ]

        cal_raws, _ = detection_scene_batch(
            calibration_size, input_size + 16, num_classes, seed + 10_000
        )
        cal_inputs = dense_preprocess(cal_raws, input_size)
        anchors = anchors_for_model(model_config)
        config = dict(model_config)
        config["score_threshold"] = score_threshold
        return cls(inputs, truths, cal_inputs, anchors, config)

    def __len__(self) -> int:
        return len(self.truths)

    def input_batch(self, indices: np.ndarray) -> dict[str, np.ndarray]:
        return {"images": self.inputs[np.asarray(indices)]}

    def ground_truth(self, index: int) -> list[GroundTruthBox]:
        return self.truths[index]

    def postprocess(self, outputs: dict[str, np.ndarray], index: int) -> list[Detection]:
        scores = outputs[next(k for k in outputs if "scores" in k)]
        boxes = outputs[next(k for k in outputs if "box" in k)]
        return postprocess_detections(
            scores, boxes, self.anchors,
            score_threshold=self.config["score_threshold"],
            variances=self.config["box_variances"],
        )

    def evaluate(self, predictions: dict[int, list[Detection]]) -> dict[str, float]:
        idx = sorted(predictions)
        dets = [predictions[i] for i in idx]
        truths = [self.truths[i] for i in idx]
        return {"mAP": coco_map(dets, truths) * 100.0}

    def calibration_batches(self, batch_size: int = 16) -> list[dict[str, np.ndarray]]:
        return [
            {"images": self._calibration_inputs[i : i + batch_size]}
            for i in range(0, len(self._calibration_inputs), batch_size)
        ]
