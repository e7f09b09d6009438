"""Synthetic popularity ranking (Figure 3).

The paper joins its MTA-STS census against the Tranco top-1M list and
finds adoption correlated with popularity: about 1.2% of the most
popular 10k domains with MX records publish MTA-STS records versus
about 0.4% for the least popular bin.  :class:`TrancoRanking`
generates a ranked population with a rank-dependent adoption
probability interpolating those anchors, which is all the figure
needs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Tuple

TOP_BIN_ADOPTION = 0.012      # 1.2% in the top 10k
BOTTOM_BIN_ADOPTION = 0.004   # 0.4% in the bottom 10k
DEFAULT_LIST_SIZE = 1_000_000
DEFAULT_BIN_SIZE = 10_000


@dataclass
class TrancoRanking:
    """A synthetic ranked list of domains with MX records."""

    list_size: int = DEFAULT_LIST_SIZE
    bin_size: int = DEFAULT_BIN_SIZE
    seed: int = 20241101
    _adopters: List[bool] = field(default_factory=list, repr=False)

    def __post_init__(self):
        rng = random.Random(self.seed)
        self._adopters = [rng.random() < self.adoption_probability(rank)
                          for rank in range(1, self.list_size + 1)]

    def adoption_probability(self, rank: int) -> float:
        """P(MTA-STS | rank), decaying from the top to the bottom bin.

        The decay is convex (power-law-ish) — adoption drops quickly
        outside the very popular head, then flattens, matching the
        figure's shape.
        """
        fraction = (rank - 1) / max(1, self.list_size - 1)
        return (BOTTOM_BIN_ADOPTION
                + (TOP_BIN_ADOPTION - BOTTOM_BIN_ADOPTION)
                * (1.0 - fraction) ** 2.5)

    def binned_adoption(self) -> List[Tuple[int, float]]:
        """Per-bin (start_rank, percent with MTA-STS) — Figure 3's series."""
        out = []
        for start in range(0, self.list_size, self.bin_size):
            window = self._adopters[start:start + self.bin_size]
            pct = 100.0 * sum(window) / len(window)
            out.append((start, pct))
        return out

    def top_bin_percent(self) -> float:
        return self.binned_adoption()[0][1]

    def bottom_bin_percent(self) -> float:
        return self.binned_adoption()[-1][1]
