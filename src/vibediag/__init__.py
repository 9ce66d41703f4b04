"""Bearing fault diagnosis from shaft-mounted acceleration recordings.

Pipeline: overlapping windows -> EMD + Hilbert spectrum images (CNN input)
and torsional band-power scalars (MLP input) -> hybrid CNN-MLP classifier,
plus PCA/t-SNE data exploration and a synthetic rig for dataset-free runs.
"""

__version__ = "0.1.0"

from vibediag.signal_model import FaultLabel, Recording  # noqa: F401
