"""Task pre-processing stages (paper §4.1).

All submitters must run the same steps: vision tasks resize / center-crop /
normalize; QA pads token ids and builds the attention mask. These run outside
the timed region in accuracy mode but are part of what the reference app
defines, so they are implemented (and tested) explicitly.
"""

from __future__ import annotations

import numpy as np

from ..kernels.pooling import resize_bilinear

__all__ = [
    "resize_image",
    "center_crop",
    "normalize_image",
    "classification_preprocess",
    "dense_preprocess",
    "qa_preprocess",
]


def resize_image(image: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize of an HWC image or NHWC batch (uint8 or float) to (out_h, out_w).

    As with :func:`resize_bilinear`, a float32 input already at the target
    size comes back uncopied.
    """
    if image.ndim == 4:
        return resize_bilinear(image, out_h, out_w)
    return resize_bilinear(image[None], out_h, out_w)[0]


def center_crop(image: np.ndarray, crop_h: int, crop_w: int) -> np.ndarray:
    """Center crop of an HWC image or NHWC batch (a view, no copy)."""
    axis = 1 if image.ndim == 4 else 0
    h, w = image.shape[axis : axis + 2]
    if h < crop_h or w < crop_w:
        raise ValueError(f"image {image.shape} smaller than crop ({crop_h}, {crop_w})")
    top = (h - crop_h) // 2
    left = (w - crop_w) // 2
    window = (slice(None),) * axis + (slice(top, top + crop_h), slice(left, left + crop_w))
    return image[window]


def normalize_image(image: np.ndarray) -> np.ndarray:
    """Map [0, 255] pixels to [-1, 1] (the MobileNet-family convention)."""
    out = image.astype(np.float32)
    out /= 127.5
    out -= 1.0
    return out


def classification_preprocess(image: np.ndarray, input_size: int) -> np.ndarray:
    """ImageNet-style: scale the short side ~1.14x the crop, then center-crop.

    Takes one HWC image or an NHWC batch; a batch gives exactly the stacked
    per-image results.
    """
    resize_to = int(round(input_size * 256 / 224))
    image = resize_image(image, resize_to, resize_to)
    image = center_crop(image, input_size, input_size)
    return normalize_image(image)


def dense_preprocess(image: np.ndarray, input_size: int) -> np.ndarray:
    """Detection/segmentation: direct resize to the network input, normalize.

    Takes one HWC image or an NHWC batch, like :func:`classification_preprocess`.
    """
    image = resize_image(image, input_size, input_size)
    return normalize_image(image)


def qa_preprocess(token_ids: np.ndarray, seq_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Pad/truncate ids to ``seq_len``; returns (ids, mask) as float arrays."""
    ids = np.zeros(seq_len, dtype=np.float32)
    n = min(len(token_ids), seq_len)
    ids[:n] = token_ids[:n]
    mask = np.zeros(seq_len, dtype=np.float32)
    mask[:n] = 1.0
    return ids, mask
