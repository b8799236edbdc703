"""Kronecker tensor decomposition and hierarchical outer-product models:
reconstruction and storage accounting (no fitting)."""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Sequence

from .cpd import CPModel, cp_reconstruct
from .cur import FSTDModel
from .dense import DenseTensor, _sum_tensors
from .ops import kron_tensor, outer_product
from .quantize import QuantizationScheme, qtt_decompress
from .tucker import TuckerModel, tucker_reconstruct
from .ttrain import DENSE_CAP, TTMatrixModel, TTModel, tt_reconstruct, \
    ttm_reconstruct


def _kron_dims(a: DenseTensor, b: DenseTensor) -> tuple[int, ...]:
    order = max(a.order, b.order)
    da = a.dims + (1,) * (order - a.order)
    db = b.dims + (1,) * (order - b.order)
    return tuple(x * y for x, y in zip(da, db))


@dataclass(frozen=True)
class KTDModel:
    """Sum of R Kronecker products of tensor pairs (A_r, B_r)."""

    terms: list  # [(DenseTensor, DenseTensor), ...]

    def __post_init__(self):
        terms = [(a, b) for a, b in self.terms]
        if not terms:
            raise ValueError("KTDModel needs at least one term")
        out = _kron_dims(*terms[0])
        for k, (a, b) in enumerate(terms[1:], start=2):
            if _kron_dims(a, b) != out:
                raise ValueError(f"term {k} produces dims {_kron_dims(a, b)}, "
                                 f"expected {out}")
        object.__setattr__(self, "terms", terms)

    @property
    def dims(self) -> tuple[int, ...]:
        return _kron_dims(*self.terms[0])

    def storage(self) -> int:
        return sum(a.size + b.size for a, b in self.terms)


def ktd_reconstruct(m: KTDModel) -> DenseTensor:
    """Dense sum of per-term tensor Kronecker products."""
    return _sum_tensors(kron_tensor(a, b) for a, b in m.terms)


class HOPTANode:
    """Node of a hierarchical outer-product approximation tree.

    A node is either a leaf holding a dense tensor, or a sum over terms where
    each term is the outer product of two or three child nodes.  Leaves are
    declared explicitly; the recursion has no implicit termination.
    """

    __slots__ = ("tensor", "terms")

    def __init__(self, tensor: DenseTensor | None = None,
                 terms: Sequence[Sequence["HOPTANode"]] | None = None):
        if (tensor is None) == (terms is None):
            raise ValueError("a node is either a leaf or a sum of terms")
        if terms is not None:
            terms = [tuple(term) for term in terms]
            if not terms:
                raise ValueError("an interior node needs at least one term")
            for term in terms:
                if len(term) not in (2, 3):
                    raise ValueError("each term combines 2 or 3 factors")
            ref = tuple(t for node in terms[0] for t in node.dims)
            for k, term in enumerate(terms[1:], start=2):
                got = tuple(t for node in term for t in node.dims)
                if got != ref:
                    raise ValueError(f"term {k} produces dims {got}, "
                                     f"expected {ref}")
        self.tensor = tensor
        self.terms = terms

    @classmethod
    def leaf(cls, tensor: DenseTensor) -> "HOPTANode":
        return cls(tensor=tensor)

    @classmethod
    def sum_of_outer(cls, terms: Sequence[Sequence["HOPTANode"]]) -> "HOPTANode":
        return cls(terms=terms)

    @property
    def dims(self) -> tuple[int, ...]:
        if self.tensor is not None:
            return self.tensor.dims
        return tuple(d for node in self.terms[0] for d in node.dims)

    def storage(self) -> int:
        if self.tensor is not None:
            return self.tensor.size
        return sum(node.storage() for term in self.terms for node in term)


def hopta_reconstruct(node: HOPTANode) -> DenseTensor:
    """Bottom-up evaluation: leaves as-is, an interior node is the sum over
    its terms of the outer products of the children's reconstructions."""
    if node.tensor is not None:
        return node.tensor
    return _sum_tensors(reduce(outer_product, map(hopta_reconstruct, term))
                        for term in node.terms)


def model_storage(m) -> int:
    """Exact count of scalars stored by any model in the package."""
    if isinstance(m, (KTDModel, HOPTANode, CPModel, TuckerModel, TTModel,
                      TTMatrixModel, FSTDModel)):
        return m.storage()
    if isinstance(m, DenseTensor):
        return m.size
    raise TypeError(f"no storage accounting for {type(m).__name__}")


def reconstruct(m, scheme: QuantizationScheme | None = None,
                cap: int = DENSE_CAP) -> DenseTensor:
    """Dense tensor a CP, Tucker, FSTD, TT/MPS, TT/MPO or HOPTA model stands
    for; ``scheme`` marks a TT model as QTT, and ``cap`` bounds the scalars a
    tensor train may densify into."""
    if scheme is not None:
        return qtt_decompress(m, scheme, cap=cap)
    if isinstance(m, TTModel):
        return tt_reconstruct(m, cap=cap)
    if isinstance(m, TTMatrixModel):
        return ttm_reconstruct(m, cap=cap)
    if isinstance(m, CPModel):
        return cp_reconstruct(m)
    if isinstance(m, TuckerModel):
        return tucker_reconstruct(m)
    if isinstance(m, FSTDModel):
        return m.reconstruct()
    if isinstance(m, HOPTANode):
        return hopta_reconstruct(m)
    raise TypeError(f"no reconstruction for {type(m).__name__}")
