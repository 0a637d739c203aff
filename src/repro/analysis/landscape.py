"""Controlled MP landscape over the variance-bias plane.

Figures 2-4 scatter *population* submissions over (bias, sigma); the
landscape sweep is the controlled-experiment version: a grid of (bias,
sigma) points, each probed with freshly generated attacks of identical
timing policy, against any defense scheme.  It quantifies the same story
the scatter plots tell — where each defense is weak — without the
population's sampling noise, and it powers the ablation-style comparisons
(e.g. how a config change moves the weak region).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.reporting import format_table
from repro.attacks.base import ProductTarget
from repro.attacks.time_models import TimeModel, UniformWindow
from repro.errors import ValidationError

__all__ = ["MPLandscape", "sweep_landscape"]


@dataclass(frozen=True)
class MPLandscape:
    """MP measured over a (bias, sigma) grid for one scheme.

    ``mp[i, j]`` is the maximum MP over the probes at
    ``(bias_values[i], std_values[j])``.
    """

    scheme_name: str
    bias_values: np.ndarray
    std_values: np.ndarray
    mp: np.ndarray

    def __post_init__(self) -> None:
        if self.mp.shape != (self.bias_values.size, self.std_values.size):
            raise ValidationError(
                f"mp grid shape {self.mp.shape} does not match axes "
                f"({self.bias_values.size}, {self.std_values.size})"
            )
        for arr in (self.bias_values, self.std_values, self.mp):
            arr.setflags(write=False)

    @property
    def peak(self) -> Tuple[float, float, float]:
        """``(bias, std, mp)`` of the strongest grid point."""
        i, j = np.unravel_index(int(np.argmax(self.mp)), self.mp.shape)
        return (
            float(self.bias_values[i]),
            float(self.std_values[j]),
            float(self.mp[i, j]),
        )

    def column_means(self) -> np.ndarray:
        """Mean MP per sigma column (how much variance helps overall)."""
        return self.mp.mean(axis=0)

    def row_means(self) -> np.ndarray:
        """Mean MP per bias row."""
        return self.mp.mean(axis=1)

    def to_text(self) -> str:
        """Render the grid as a table (rows = bias, columns = sigma)."""
        headers = ["bias \\ std"] + [f"{s:.2f}" for s in self.std_values]
        rows = []
        for i, bias in enumerate(self.bias_values):
            rows.append([f"{bias:.2f}"] + [float(v) for v in self.mp[i]])
        table = format_table(
            headers,
            rows,
            float_format=".2f",
            title=f"MP landscape, {self.scheme_name}-scheme (max over probes)",
        )
        bias, std, mp = self.peak
        return table + f"\npeak: bias={bias:.2f}, std={std:.2f}, MP={mp:.3f}"


def sweep_landscape(
    challenge,
    scheme_name: str,
    bias_values: Sequence[float] = (-4.0, -3.0, -2.0, -1.0),
    std_values: Sequence[float] = (0.1, 0.5, 1.0, 1.5),
    probes: int = 3,
    n_ratings: int = 50,
    time_model: Optional[TimeModel] = None,
    targets: Optional[List[ProductTarget]] = None,
    seed: int = 0,
    evaluator=None,
) -> MPLandscape:
    """Probe every (bias, sigma) grid point against scheme ``scheme_name``.

    Each point is probed ``probes`` times with fresh random value draws
    (fixed timing policy, so the landscape isolates the value dimensions)
    and the maximum MP is recorded.  ``bias_values`` are signed: negative
    biases downgrade the downgrade-targets; the boost targets always
    receive the mirrored positive bias (the attack generator applies the
    target's direction to the magnitude).

    Each grid point is one :class:`~repro.exec.LandscapeProbeTask`: the
    whole grid fans out in one dispatch through ``evaluator`` (default:
    an inline :class:`~repro.exec.ParallelEvaluator`) with per-point
    seeds derived from ``seed``, so the surface is identical at any
    worker count.  The task rebuilds the scheme from ``scheme_name``
    (``"P"``, ``"SA"`` or ``"BF"``) and the world from the challenge's
    seed, so ``challenge`` must be seed-reconstructible
    (``RatingChallenge(seed=...)``).
    """
    if probes < 1:
        raise ValidationError(f"probes must be >= 1, got {probes}")
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ValidationError(
            f"seed must be an int (per-point seeds derive from it), got {seed!r}"
        )
    bias_arr = np.asarray(list(bias_values), dtype=float)
    std_arr = np.asarray(list(std_values), dtype=float)
    if bias_arr.size == 0 or std_arr.size == 0:
        raise ValidationError("bias_values and std_values must be non-empty")
    if time_model is None:
        span = challenge.end_day - challenge.start_day
        time_model = UniformWindow(challenge.start_day + 0.2 * span, 0.6 * span)
    if targets is None:
        by_volume = sorted(
            challenge.fair_dataset.product_ids,
            key=lambda pid: len(challenge.fair_dataset[pid]),
        )
        targets = [
            ProductTarget(by_volume[0], -1),
            ProductTarget(by_volume[1], -1),
            ProductTarget(by_volume[2], +1),
            ProductTarget(by_volume[3], +1),
        ]
    from repro.exec import LandscapeProbeTask, ParallelEvaluator, share_challenge

    share_challenge(challenge)  # raises unless seed-reconstructible
    tasks = [
        LandscapeProbeTask(
            challenge_seed=challenge.seed,
            scheme_name=scheme_name,
            bias=float(bias),
            std=float(std),
            probes=probes,
            n_ratings=n_ratings,
            time_model=time_model,
            targets=tuple(targets),
            seed_root=seed,
        )
        for bias in bias_arr
        for std in std_arr
    ]
    if evaluator is None:
        evaluator = ParallelEvaluator()
    values = evaluator.map(tasks)
    return MPLandscape(
        scheme_name=scheme_name,
        bias_values=bias_arr,
        std_values=std_arr,
        mp=np.asarray(values, dtype=float).reshape(bias_arr.size, std_arr.size),
    )
