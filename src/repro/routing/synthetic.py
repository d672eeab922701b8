"""Synthetic gating for industry-scale models (Mixtral-8x7B, GritLM-8x7B).

The paper's Fig. 5–7 experiments fine-tune 87 GB models on 6 V100s; here the
*routing process* of those models is simulated at the trace level (DESIGN.md
§1).  The simulation is built on three empirically grounded ingredients:

1. **Static locality** — per-layer expert popularity drawn from a Dirichlet
   prior whose concentration controls skew.  Low concentration reproduces the
   WikiText regime of Fig. 7(a) (a few dominant experts per layer); higher
   concentration reproduces the more uniform Alpaca regime of Fig. 7(b).
2. **Token-level variation** — tokens select their top-k experts via the
   Gumbel-top-k trick over the layer's popularity logits, so individual
   tokens disagree while aggregate frequencies follow the prior.
3. **Bounded drift** — per-step logit perturbations follow a clipped random
   walk plus a mild sharpening trend, consistent with Theorem 1's prediction
   (drift vanishes for confident selections; popular experts become slightly
   *more* favored during fine-tuning, as the paper observes in Fig. 3(c)).

Stream contract
---------------
Seeded counts are pinned byte for byte (``tests/integration/
test_golden.py``, ``tests/routing/test_synthetic.py``).  One step's
selection consumes the generator exactly as
``rng.gumbel(size=(layers, tokens, experts))`` does, in that C order: one
``rng.random`` double per (layer, token, expert), an exact ``0.0`` skipped
the way numpy's ``random_gumbel`` rejects ``1 - u == 1``.  A token takes
the ``top_k`` experts of highest Gumbel score ``s = l - T log(-log(1 -
u))`` (numpy's formula, ``l`` the expert's logit, ``T`` the gate
temperature).  Counts depend only on the order of each token's scores, so
what is ranked is ``r = log(1 - u) * exp(min((m - l) / T, 700))``, with
``m`` the layer's ``top_k``-th largest logit: ``r`` is ``-exp(-s / T)``
times the positive factor ``exp(m / T)``, so it orders a token's experts
as ``s`` does, at one ``log`` and one multiply per score.  The clamp never
reaches a token's top ``top_k``: at least ``top_k`` experts have a weight
of at most 1, so ``|r| < 37`` for them, while a clamped weight makes
``|r|`` exceed ``1e287``.  A weight or product that underflows belongs to
one of the at most ``top_k - 1`` experts more than ``600 T`` above ``m``,
which always make the top ``top_k``.  The logs are vectorized and may
differ from the scalar libm ones by a few ulps, and ``r`` rounds
differently from ``s``; either can move a count only where two of a
token's scores lie within about 1e-15 of each other.  Each token gets
exactly ``top_k`` experts, an exact tie at the ``top_k``-th score going to
the lower expert index.  The scalar ``rng.gumbel`` → ``argpartition`` form
is the test oracle ``tests.oracles.reference_sample_counts``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..models.config import MoEModelConfig
from .trace import RoutingTrace


@dataclass(frozen=True)
class LocalityRegime:
    """Statistical profile of a (model, dataset) pairing.

    Attributes
    ----------
    name:
        Label used in reports ("wikitext", "alpaca", ...).
    dirichlet_alpha:
        Concentration of the per-layer expert-popularity prior.  Smaller
        means more skewed access (stronger locality).
    gate_temperature:
        Scale of the per-token Gumbel noise; higher makes individual tokens
        deviate more from the layer's popularity ranking.
    drift_scale:
        Standard deviation of the per-step logit random-walk increments.
    drift_clip:
        Hard bound on the cumulative logit drift (models Theorem 1's
        stability: total drift stays small relative to logit gaps).
    sharpening_rate:
        Fractional increase of the logit scale across the whole run; positive
        values make confident selections slightly more confident over time,
        matching Fig. 3(c).
    """

    name: str
    dirichlet_alpha: float
    gate_temperature: float = 0.7
    drift_scale: float = 0.004
    drift_clip: float = 0.15
    sharpening_rate: float = 0.06

    def __post_init__(self) -> None:
        if self.dirichlet_alpha <= 0:
            raise ValueError("dirichlet_alpha must be positive")
        if self.gate_temperature <= 0:
            raise ValueError("gate_temperature must be positive")
        if self.drift_scale < 0 or self.drift_clip < 0:
            raise ValueError("drift parameters must be non-negative")


# The two evaluation regimes of the paper.  WikiText's concentrated access
# ("large white areas in the heatmap") vs Alpaca's diffuse access ("numerous
# light blue blocks") — Section V-B performance analysis.  Concentrations are
# calibrated so the end-to-end pipeline lands in the paper's measured bands
# (traffic reduction 18–25 % on WikiText, 17–20 % on Alpaca) while the
# probability heatmaps keep the figures' qualitative shapes (a few experts
# near P=1 for WikiText; diffuse mid-range access for Alpaca).
WIKITEXT_REGIME = LocalityRegime(name="wikitext", dirichlet_alpha=2.8,
                                 gate_temperature=0.7, sharpening_rate=0.08)
ALPACA_REGIME = LocalityRegime(name="alpaca", dirichlet_alpha=3.0,
                               gate_temperature=0.9, sharpening_rate=0.04)
UNIFORM_REGIME = LocalityRegime(name="uniform", dirichlet_alpha=50.0,
                                gate_temperature=1.2, sharpening_rate=0.0)


def regime_with_alpha(alpha: float, name: Optional[str] = None) -> LocalityRegime:
    """A regime interpolating the skew axis (used by the skew-sweep ablation)."""
    return LocalityRegime(name=name or f"alpha={alpha:g}", dirichlet_alpha=alpha)


def _check_count(name: str, value) -> None:
    """Raise ``ValueError`` unless ``value`` is a positive integer."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
            or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


def _top_k_counts(scores: np.ndarray, k: int) -> np.ndarray:
    """How often each expert is among a token's ``k`` highest scores.

    ``scores`` is ``(experts, tokens)``.  The threshold is each token's
    ``k``-th largest score counting ties: a running k-best
    ``best[0] >= ... >= best[k - 1]`` over the expert rows, each row
    inserted by one ``np.minimum`` and two ``np.maximum`` passes
    (``best[j]`` becomes ``max(best[j], min(best[j - 1], row))``).  Exactly
    ``k`` scores reach it unless the ``(k + 1)``-th ties it; only then are
    the over-full tokens re-selected, the lower expert index first.
    """
    if k == 1:
        threshold = scores.max(axis=0)
    else:
        best = np.empty((k, scores.shape[1]))
        best[0] = scores[0]
        best[1:] = -np.inf
        top, head, tail = best[0], best[:-1], best[1:]
        spill = np.empty_like(tail)
        for row in scores[1:]:
            np.minimum(head, row, out=spill)
            np.maximum(tail, spill, out=tail)
            np.maximum(top, row, out=top)
        threshold = best[-1]
    selected = scores >= threshold
    counts = np.count_nonzero(selected, axis=1)
    if counts.sum() != k * scores.shape[1]:
        over = np.flatnonzero(np.count_nonzero(selected, axis=0) > k)
        ranked = np.argsort(-scores[:, over], axis=0, kind="stable")[:k]
        selected[:, over] = False
        selected[ranked, over] = True
        counts = np.count_nonzero(selected, axis=1)
    return counts


class SyntheticRouter:
    """Trace-level simulator of a pre-trained MoE model's gate.

    Parameters
    ----------
    config:
        Model spec; only ``num_layers``, ``num_experts``, ``top_k`` are used.
    regime:
        Dataset-dependent locality statistics.
    seed:
        Controls both the popularity prior and all per-step sampling.
    """

    def __init__(self, config: MoEModelConfig, regime: LocalityRegime,
                 seed: int = 0):
        self.config = config
        self.regime = regime
        self.seed = seed
        rng = np.random.default_rng(seed)
        popularity = rng.dirichlet(
            np.full(config.num_experts, regime.dirichlet_alpha),
            size=config.num_layers)
        # Popularity as logits; floor avoids -inf for near-zero draws.
        self._base_logits = np.log(np.clip(popularity, 1e-8, None))

    @property
    def base_logits(self) -> np.ndarray:
        """``(layers, experts)`` popularity logits at step 0."""
        return self._base_logits.copy()

    # ------------------------------------------------------------------ #
    # trace generation
    # ------------------------------------------------------------------ #
    def generate_trace(self, num_steps: int, tokens_per_step: int,
                       seed: Optional[int] = None) -> RoutingTrace:
        """Simulate ``num_steps`` fine-tuning steps of routing decisions.

        Placement-independent: the same trace is replayed under every
        placement strategy, exactly as one fine-tuning run would be.
        """
        _check_count("num_steps", num_steps)
        _check_count("tokens_per_step", tokens_per_step)
        cfg, regime = self.config, self.regime
        rng = np.random.default_rng(self.seed + 1 if seed is None else seed)
        layers, experts, k = cfg.num_layers, cfg.num_experts, cfg.top_k

        counts = np.empty((num_steps, layers, experts), dtype=np.int64)
        drift = np.zeros((layers, experts))
        # The step loop is irreducible: the drift random walk is sequential
        # and the per-step draw order is part of the seeded contract the
        # golden tests pin.  A step first consumes the Gumbel stream of
        # ``rng.gumbel(size=(layers, tokens, experts))`` (see the module's
        # stream contract), then one ``(layers, experts)`` normal draw.
        for step in range(num_steps):
            sharpen = 1.0 + regime.sharpening_rate * (step / max(num_steps - 1, 1))
            logits = self._base_logits * sharpen + drift  # (L, E)
            counts[step] = self._sample_counts(logits, tokens_per_step, rng)
            increments = rng.normal(0.0, regime.drift_scale, size=(layers, experts))
            drift = np.clip(drift + increments, -regime.drift_clip, regime.drift_clip)
        return RoutingTrace(model_name=f"{cfg.name}/{regime.name}",
                            top_k=k, tokens_per_step=tokens_per_step,
                            counts=counts)

    def _sample_counts(self, logits: np.ndarray, tokens: int,
                       rng: np.random.Generator) -> np.ndarray:
        """Gumbel-top-k selection counts for one step, a layer at a time.

        Returns the ``(layers, experts)`` count matrix; each layer sums to
        ``tokens * top_k``.  Draws and ranking follow the module's stream
        contract.  A layer at a time keeps each pass's ``(experts,
        tokens)`` block in cache.
        """
        layers, experts = logits.shape
        k = self.config.top_k
        size = tokens * experts
        # log(1 - u) * weights orders a token's experts as their Gumbel
        # scores do; the k-th largest logit keeps the clamp out of every
        # top k (module docstring).
        kth = np.sort(logits, axis=1)[:, experts - k, None]
        weights = np.exp(np.minimum(
            (kth - logits) / self.regime.gate_temperature, 700.0))
        counts = np.empty((layers, experts), dtype=np.int64)
        scores = np.empty((experts, tokens))
        for layer in range(layers):
            u = rng.random(size)
            while not u.all():
                kept = u[u != 0.0]
                u = np.concatenate((kept, rng.random(size - kept.size)))
            np.subtract(1.0, u.reshape(tokens, experts).T, out=scores)
            np.log(scores, out=scores)
            scores *= weights[layer, :, None]
            counts[layer] = _top_k_counts(scores, k)
        return counts

    # ------------------------------------------------------------------ #
    # locality profile (the pre-fine-tuning measurement pass)
    # ------------------------------------------------------------------ #
    def probability_matrix(self, profile_tokens: int = 8192,
                           seed: Optional[int] = None) -> np.ndarray:
        """Estimate ``P[l, e]`` by a profiling pass, as the paper does.

        The estimate is sampled at step-0 statistics (drift-free), mirroring
        "prior to fine-tuning, we pass the dataset through the model".
        """
        _check_count("profile_tokens", profile_tokens)
        rng = np.random.default_rng(self.seed + 2 if seed is None else seed)
        counts = self._sample_counts(self._base_logits, profile_tokens, rng)
        return counts / profile_tokens

    def expected_selection_probability(self, samples: int = 20000,
                                       seed: Optional[int] = None) -> np.ndarray:
        """High-precision Monte-Carlo estimate of the inclusion probabilities.

        Useful for tests that compare profiled vs. true probabilities.
        """
        _check_count("samples", samples)
        return self.probability_matrix(profile_tokens=samples, seed=seed)


def phase_switch_trace(config: MoEModelConfig, regimes, tokens_per_step: int,
                       steps_per_phase: int, seed: int = 0) -> RoutingTrace:
    """A non-stationary workload: concatenated phases, one regime each.

    Models a fine-tuning curriculum that switches datasets mid-run — the
    scenario where static single-profile placement goes stale.
    """
    if steps_per_phase < 1:
        raise ValueError("steps_per_phase must be positive")
    counts = []
    name_parts = []
    for phase, regime in enumerate(regimes):
        router = SyntheticRouter(config, regime, seed=seed + phase * 1000)
        trace = router.generate_trace(steps_per_phase, tokens_per_step)
        counts.append(trace.counts)
        name_parts.append(regime.name)
    return RoutingTrace(model_name=f"{config.name}/{'+'.join(name_parts)}",
                        top_k=config.top_k, tokens_per_step=tokens_per_step,
                        counts=np.concatenate(counts, axis=0))
