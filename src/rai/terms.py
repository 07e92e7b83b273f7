"""Monomial feature terms and dynamic interaction candidates.

A term is a monomial over the original (uncentered) columns, stored as
sorted (column index, power) pairs.  Products of selected terms are the
only way interactions enter the candidate stream, so any interaction in
play always has its building blocks in the model already.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .kernel import Dataset, _unit_centered


@dataclass(frozen=True)
class FeatureTerm:
    """One monomial, e.g. powers ((2, 1), (3, 2)) is X3 * X4^2."""

    powers: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.powers:
            raise ValueError("a term needs at least one factor")
        if any(p < 1 for _, p in self.powers):
            raise ValueError("powers must be positive")
        if list(self.powers) != sorted(self.powers):
            raise ValueError("factors must be sorted by column index")
        if len({j for j, _ in self.powers}) != len(self.powers):
            raise ValueError("duplicate column index in term")

    @classmethod
    @functools.cache
    def marginal(cls, j: int) -> "FeatureTerm":
        # terms are immutable, so every run shares one validated
        # instance per column rather than building p of them each time
        return cls(((j, 1),))

    @classmethod
    def from_exponents(cls, exponents: dict[int, int]) -> "FeatureTerm":
        return cls(tuple(sorted(exponents.items())))

    @property
    def order(self) -> int:
        return sum(p for _, p in self.powers)

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(j for j, _ in self.powers)

    def product(self, other: "FeatureTerm") -> "FeatureTerm":
        merged: dict[int, int] = dict(self.powers)
        for j, p in other.powers:
            merged[j] = merged.get(j, 0) + p
        return FeatureTerm.from_exponents(merged)

    def display(self, names: list[str] | None = None) -> str:
        parts = []
        for j, p in self.powers:
            base = names[j] if names is not None else f"X{j + 1}"
            parts.append(base if p == 1 else f"{base}^{p}")
        return "*".join(parts)


def generate_candidates(selected, newly_added: FeatureTerm,
                        max_order: int | None = None,
                        seen=()) -> list[FeatureTerm]:
    """Products of the newly added term with every selected term.

    `selected` is the post-addition model in selection order, so the
    self-product (squares, cubes, ...) is always among the products.
    Terms already selected, in `seen`, or past `max_order` are left
    out; duplicates collapse to one candidate.
    """
    selected = list(selected)
    if newly_added not in selected:
        raise ValueError("newly added term must already be in the model")
    excluded = set(selected)
    out: list[FeatureTerm] = []
    for t in selected:
        cand = newly_added.product(t)
        if max_order is not None and cand.order > max_order:
            continue
        if cand in excluded or cand in seen:
            continue
        excluded.add(cand)
        out.append(cand)
    return out


def monomial(term: FeatureTerm, raw: np.ndarray) -> np.ndarray:
    """The term's column on the original scale: the elementwise product
    of its raw columns, each raised to its power."""
    col = np.ones(raw.shape[0])
    for j, p in term.powers:
        col = col * raw[:, j] ** p
    return col


def realize(term: FeatureTerm,
            raw: np.ndarray) -> tuple[np.ndarray, float, float] | None:
    """Standardized column for a term, built on the original scale,
    with its centering and scaling constants: (column, mean, scale), or
    None for a term whose monomial is constant.

    The monomial of the raw columns is formed first and only then
    centered and scaled to unit norm, so powers mean powers of the data
    the user supplied, not of centered copies.
    """
    return _unit_centered(monomial(term, raw))


def term_column(dataset: Dataset, term: FeatureTerm) -> np.ndarray | None:
    """Standardized column for any term of the dataset, or None for a
    term whose monomial is constant."""
    if term.order == 1:
        return dataset.columns[:, term.powers[0][0]]
    out = realize(term, dataset.raw)
    return None if out is None else out[0]
