"""Related-work sketches from the paper's Section 1.1, built as comparators.

* :class:`ExponentialHistogram` / :class:`EhSum` — Datar et al. sliding-window
  count/sum maintenance;
* :class:`SurfingWavelets` — Gilbert et al. top-B wavelet synopsis of the
  whole stream (the closest prior work to SWAT).
"""

from .exponential_histogram import EhSum, ExponentialHistogram
from .surfing import SurfingWavelets

__all__ = ["EhSum", "ExponentialHistogram", "SurfingWavelets"]
