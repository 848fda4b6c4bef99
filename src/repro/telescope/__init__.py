"""Network-telescope substrate: the darknet and its packet capture."""

from repro.telescope.capture import DarknetCapture
from repro.telescope.chunks import CaptureChunk
from repro.telescope.darknet import Telescope

__all__ = [
    "CaptureChunk",
    "DarknetCapture",
    "Telescope",
]
