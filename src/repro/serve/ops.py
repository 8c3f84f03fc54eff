"""The ranking envelopes: one builder for every serving path.

RT-GCN's output is a cross-sectional ranking.  The four ranking ops
expose it as JSON:

===========  ==========================================================
``scores``   ``scores``: ``{symbol: score}``
``top_k``    ``k`` and ``top_k``: ``[{rank, symbol, score}]``, best first
``rank``     ``ranking``: the whole universe as ``top_k`` rows
``delta``    ``prior_day`` and ``deltas``:
             ``[{symbol, rank, prior_rank, delta, score}]`` by rank
===========  ==========================================================

Every envelope also carries ``version``, ``model``, ``market``, ``day``
and ``stale``.  :func:`ranking` builds all four from a score source, so
the in-process :class:`~repro.serve.service.RankingService`
(micro-batched scores with the stale fallback) and the cluster's forked
workers (a direct forward on shared weights) answer with the same
bytes; the cluster only adds ``generation`` and ``worker``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

#: the ranking ops, keyed by their ``/v1/`` path segment
RANKING_OPS = ("scores", "top_k", "rank", "delta")

#: ``day -> (scores, stale)``
ScoresAt = Callable[[int], Tuple[np.ndarray, bool]]


def _ranks_of(scores: np.ndarray) -> np.ndarray:
    """1-based rank of every entry (1 = highest score, ties stable)."""
    order = np.argsort(-scores, kind="stable")
    ranks = np.empty(len(scores), dtype=int)
    ranks[order] = np.arange(1, len(scores) + 1)
    return ranks


def ranking(op: str, engine, day: Optional[int] = None,
            k: Optional[int] = None,
            scores_at: Optional[ScoresAt] = None) -> Dict[str, Any]:
    """The envelope of ranking op ``op`` at ``day`` (default: latest).

    ``k`` applies to ``top_k`` only (default 10, clamped to the
    universe).  ``scores_at`` defaults to a direct forward on ``engine``.
    Raises :class:`ValueError` for a ``k`` below 1, an unservable day,
    or a delta with no prior servable day.
    """
    if op not in RANKING_OPS:
        raise ValueError(f"unknown ranking op {op!r}; "
                         f"known: {RANKING_OPS}")
    if op == "top_k":
        k = 10 if k is None else k
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
    if scores_at is None:
        def scores_at(at: int) -> Tuple[np.ndarray, bool]:
            return engine.scores(at), False
    day = engine.resolve_day(day)
    symbols = engine.dataset.universe.symbols

    def envelope(stale: bool, **payload: Any) -> Dict[str, Any]:
        return {"version": engine.servable.version,
                "model": engine.servable.model_name,
                "market": engine.dataset.market,
                "day": day, "stale": stale, **payload}

    if op == "delta":
        prior = day - 1
        if prior < engine.servable.window - 1:
            raise ValueError(
                f"day {day} has no prior servable day to diff against")
        scores, stale = scores_at(day)
        prior_scores, prior_stale = scores_at(prior)
        today_ranks, prior_ranks = _ranks_of(scores), _ranks_of(prior_scores)
        return envelope(stale or prior_stale, prior_day=prior, deltas=[
            {"symbol": symbols[i], "rank": int(today_ranks[i]),
             "prior_rank": int(prior_ranks[i]),
             "delta": int(prior_ranks[i] - today_ranks[i]),
             "score": float(scores[i])}
            for i in np.argsort(today_ranks, kind="stable")])
    scores, stale = scores_at(day)
    if op == "scores":
        return envelope(stale, scores={
            symbol: float(score) for symbol, score in zip(symbols, scores)})
    order = np.argsort(-scores, kind="stable")
    if op == "top_k":
        k = min(int(k), len(symbols))
        order = order[:k]
    rows = [{"rank": rank + 1, "symbol": symbols[i],
             "score": float(scores[i])} for rank, i in enumerate(order)]
    if op == "top_k":
        return envelope(stale, k=k, top_k=rows)
    return envelope(stale, ranking=rows)
