"""Model zoo: the Table-1 registry of reference models.

Every model exists in two profiles:

- ``reference`` — a width/resolution-scaled *executable* graph (NumPy can run
  it at benchmark sample counts); used by accuracy mode.
- ``full`` — a *symbolic* graph at the paper's published size; its op list,
  MAC and byte counts drive the hardware performance model.

Both profiles share the identical block structure, which is the property the
substitution in DESIGN.md relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .common import ModelBundle
from .deeplabv3plus import create_deeplab_v3plus
from .mobilebert import create_mobilebert
from .mobiledet import create_mobiledet_ssd
from .mobilenet_edgetpu import create_mobilenet_edgetpu
from .speech import create_mobile_streaming_asr
from .ssd_mobilenet_v2 import create_ssd_mobilenet_v2
from .super_resolution import create_mobile_edge_sr

__all__ = [
    "ModelEntry",
    "MODEL_REGISTRY",
    "available_models",
    "create_reference_model",
    "create_full_model",
    "model_card",
]


@dataclass(frozen=True)
class ModelEntry:
    name: str
    task: str
    factory: Callable[..., ModelBundle]
    full_kwargs: dict
    reference_kwargs: dict
    paper_params: str  # headline parameter count from Table 1
    dataset: str
    benchmark_versions: tuple[str, ...]


MODEL_REGISTRY: dict[str, ModelEntry] = {
    "mobilenet_edgetpu": ModelEntry(
        name="mobilenet_edgetpu",
        task="image_classification",
        factory=create_mobilenet_edgetpu,
        full_kwargs={"input_size": 224, "width": 1.0, "num_classes": 1000},
        reference_kwargs={"input_size": 40, "width": 0.25, "num_classes": 100},
        paper_params="4M",
        dataset="imagenet",
        benchmark_versions=("v0.7", "v1.0"),
    ),
    "ssd_mobilenet_v2": ModelEntry(
        name="ssd_mobilenet_v2",
        task="object_detection",
        factory=create_ssd_mobilenet_v2,
        full_kwargs={"input_size": 300, "width": 1.25, "num_classes": 91,
                     "anchors_per_cell": 6},
        reference_kwargs={"input_size": 96, "width": 0.5, "num_classes": 11,
                          "backbone_depth": "trim"},
        paper_params="17M",
        dataset="coco",
        benchmark_versions=("v0.7",),
    ),
    "mobiledet_ssd": ModelEntry(
        name="mobiledet_ssd",
        task="object_detection",
        factory=create_mobiledet_ssd,
        full_kwargs={"input_size": 320, "width": 1.0, "num_classes": 91},
        reference_kwargs={"input_size": 96, "width": 0.5, "num_classes": 11,
                          "backbone_depth": "trim"},
        paper_params="4M",
        dataset="coco",
        benchmark_versions=("v1.0",),
    ),
    "deeplab_v3plus": ModelEntry(
        name="deeplab_v3plus",
        task="semantic_segmentation",
        factory=create_deeplab_v3plus,
        full_kwargs={"input_size": 512, "width": 1.0, "num_classes": 32},
        reference_kwargs={"input_size": 64, "width": 0.25, "num_classes": 12},
        paper_params="2M",
        dataset="ade20k",
        benchmark_versions=("v0.7", "v1.0"),
    ),
    "mobilebert": ModelEntry(
        name="mobilebert",
        task="question_answering",
        factory=create_mobilebert,
        full_kwargs={
            "seq_len": 384, "vocab_size": 30522, "body": 512, "bottleneck": 128,
            "num_layers": 24, "num_heads": 4, "ffn_stack": 4,
        },
        reference_kwargs={
            "seq_len": 64, "vocab_size": 1000, "body": 128, "bottleneck": 64,
            "num_layers": 3, "num_heads": 4, "ffn_stack": 2,
        },
        paper_params="25M",
        dataset="squad",
        benchmark_versions=("v0.7", "v1.0"),
    ),
    # --- Appendix E "future work" tasks, registered as experimental ---
    "mobile_streaming_asr": ModelEntry(
        name="mobile_streaming_asr",
        task="speech_recognition",
        factory=create_mobile_streaming_asr,
        full_kwargs={
            "num_frames": 300, "feature_dim": 80, "hidden": 640,
            "num_layers": 2, "vocab_size": 128,
        },
        reference_kwargs={
            "num_frames": 60, "feature_dim": 24, "hidden": 64,
            "num_layers": 2, "vocab_size": 28,
        },
        paper_params="in the works (App. E)",
        dataset="speech",
        benchmark_versions=("experimental",),
    ),
    "mobile_edge_sr": ModelEntry(
        name="mobile_edge_sr",
        task="super_resolution",
        factory=create_mobile_edge_sr,
        full_kwargs={"lr_size": 128, "scale": 2, "width": 1.0, "num_blocks": 4},
        reference_kwargs={"lr_size": 24, "scale": 2, "width": 0.5, "num_blocks": 2},
        paper_params="still evolving (App. E)",
        dataset="superres",
        benchmark_versions=("experimental",),
    ),
}


def available_models() -> list[str]:
    return sorted(MODEL_REGISTRY)


def _entry(name: str) -> ModelEntry:
    if name not in MODEL_REGISTRY:
        raise KeyError(f"unknown model {name!r}; available: {available_models()}")
    return MODEL_REGISTRY[name]


def create_reference_model(
    name: str, seed: int | None = None, *, fitted: bool = True
) -> ModelBundle:
    """Executable scaled reference model (the accuracy-mode workhorse).

    ``fitted=True`` (default) runs the closed-form head "training" of
    :mod:`repro.models.fitting` so task heads carry real decision margins;
    pass ``False`` for the raw randomly-initialized network (ablations).
    """
    entry = _entry(name)
    kwargs = dict(entry.reference_kwargs)
    if seed is not None:
        kwargs["seed"] = seed
    bundle = entry.factory(materialize=True, **kwargs)
    if fitted:
        from .fitting import fit_reference_heads  # deferred: fitting imports pipelines

        fit_reference_heads(bundle, seed=(seed or 0) + 7777)
    return bundle


def create_full_model(name: str) -> ModelBundle:
    """Symbolic paper-size model (drives the latency/throughput model)."""
    entry = _entry(name)
    return entry.factory(materialize=False, **entry.full_kwargs)


def model_card(name: str) -> dict:
    """Structural summary: params/MACs at both profiles, Table 1 metadata."""
    entry = _entry(name)
    full = create_full_model(name)
    # head fitting changes parameter values, never the counts reported here
    ref = create_reference_model(name, fitted=False)
    return {
        "name": name,
        "task": entry.task,
        "dataset": entry.dataset,
        "benchmark_versions": entry.benchmark_versions,
        "paper_params": entry.paper_params,
        "full": {
            "params": full.graph.num_parameters,
            "macs_per_sample": full.graph.total_macs,
            "input_shape": full.input_shape,
        },
        "reference": {
            "params": ref.graph.num_parameters,
            "macs_per_sample": ref.graph.total_macs,
            "input_shape": ref.input_shape,
        },
    }
