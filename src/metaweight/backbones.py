"""Text-pair classifiers with hand-derived gradients in a flat parameter vector.

A pair of token sequences is encoded through a frozen table of hashed
random embeddings: u and v are the mean embeddings of the two sides and the
feature vector is [u, v, |u - v|, u * v]. Three backbone families map that
encoding to class logits:

    logistic   logits = W f + b              W: (C, F)    b: (C,)
    mlp        h = tanh(W1 f + b1)           W1: (H, F)   b1: (H,)
               logits = W2 h + b2            W2: (C, H)   b2: (C,)
    bilinear   logit_c = u' W_c v + b_c      W: (C, d, d) b: (C,)

F = 4 d, where d is the embedding dimension; the bilinear family reads u
and v back out of the first two feature blocks. Parameters live in one flat
float64 vector packed in the order listed above, matrices row-major.

Every family conditions its input by a fixed per-block gain. With
embedding entries uniform within +/- 0.5/d, a single token embedding has
norm near 0.29/sqrt(d); the gain g = 2 sqrt(3 d) brings it to roughly unit
norm, and the element-wise product block gets g^2 because it is quadratic
in the embeddings. Without this standardization, weight gradients would be
orders of magnitude smaller than bias gradients at these embedding scales
and the bias block would drown every gradient inner product, while the
product block would be numerically invisible. The conditioning is part of
the architecture: f enters the formulas above as
[g u, g v, g |u - v|, g^2 (u * v)].

The loss is per-example cross-entropy with the probability floored at
PROB_FLOOR before the log. Gradients are closed form: with
p = softmax(logits) and e_l the one-hot label, d(-log p_l)/dlogits = p - e_l,
back-propagated by hand through each family. The floor only bounds the
reported loss; where it binds (true-class probability below 1e-12) the
analytic gradient is that of the unfloored loss.

Nothing here mutates a ModelState or an EmbeddingTable: every update
constructs a new state from a new vector, and embedding values are marked
read-only at construction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigError, DimensionError, DomainError, NumericalError
from .vectors import RngState, as_vector, require_finite, sample_uniform

PROB_FLOOR = 1e-12
BACKBONE_KINDS = ("logistic", "mlp", "bilinear")

TokenSeq = tuple[str, ...]


@dataclass(frozen=True)
class Example:
    """One labelled text pair; both sides are already tokenized."""

    text_a: TokenSeq
    text_b: TokenSeq
    label: int

    def __post_init__(self):
        object.__setattr__(self, "text_a", tuple(self.text_a))
        object.__setattr__(self, "text_b", tuple(self.text_b))
        if self.label < 0:
            raise DomainError(f"label must be non-negative, got {self.label}")


_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def stable_token_hash(token: str) -> int:
    """64-bit FNV-1a over the UTF-8 bytes; stable across runs and platforms."""
    h = _FNV_OFFSET
    for byte in token.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


@dataclass(frozen=True, eq=False)
class EmbeddingTable:
    """Frozen hashed-bucket embeddings; never updated by any training step."""

    buckets: int
    dim: int
    seed: int
    values: np.ndarray
    _bucket_cache: dict = field(default_factory=dict, repr=False)
    _feature_cache: dict = field(default_factory=dict, repr=False)

    def bucket(self, token: str) -> int:
        cached = self._bucket_cache.get(token)
        if cached is None:
            cached = stable_token_hash(token) % self.buckets
            self._bucket_cache[token] = cached
        return cached


def build_embedding(seed: int, buckets: int, dim: int) -> EmbeddingTable:
    """Seeded table with entries uniform in [-0.5/dim, 0.5/dim)."""
    if buckets < 1 or dim < 1:
        raise DomainError("buckets and dim must both be >= 1")
    half = 0.5 / dim
    values = sample_uniform(RngState(seed), -half, half, buckets * dim).reshape(buckets, dim)
    values.setflags(write=False)
    return EmbeddingTable(buckets=buckets, dim=dim, seed=seed, values=values)


def pooled_embedding(tokens: Sequence[str], emb: EmbeddingTable) -> np.ndarray:
    """Mean embedding of a token sequence; zeros for the empty sequence."""
    if not tokens:
        return np.zeros(emb.dim)
    rows = np.fromiter((emb.bucket(t) for t in tokens), dtype=np.int64, count=len(tokens))
    return emb.values[rows].mean(axis=0)


def featurize_pair(text_a: Sequence[str], text_b: Sequence[str], emb: EmbeddingTable) -> np.ndarray:
    """[u, v, |u - v|, u * v] for the mean embeddings u, v of the two sides."""
    u = pooled_embedding(text_a, emb)
    v = pooled_embedding(text_b, emb)
    return np.concatenate([u, v, np.abs(u - v), u * v])


@dataclass(frozen=True, eq=False)
class BackboneArch:
    """Backbone family plus dimensions; owns the frozen embedding table."""

    kind: str
    embedding: EmbeddingTable
    class_count: int
    hidden_dim: int = 32

    def __post_init__(self):
        if self.kind not in BACKBONE_KINDS:
            raise ConfigError(f"unknown backbone kind {self.kind!r}; expected one of {BACKBONE_KINDS}")
        if self.class_count < 2:
            raise DomainError("class_count must be >= 2")
        if self.hidden_dim < 1:
            raise DomainError("hidden_dim must be >= 1")

    @property
    def feature_dim(self) -> int:
        return 4 * self.embedding.dim

    @property
    def input_gain(self) -> float:
        """Base gain of the fixed input conditioning (see module docstring)."""
        return 2.0 * math.sqrt(3.0 * self.embedding.dim)

    @property
    def input_scale(self) -> np.ndarray:
        """Per-feature conditioning vector [g, g, g, g^2] over the four blocks."""
        return _input_scale(self.embedding.dim)

    @property
    def param_count(self) -> int:
        f, c = self.feature_dim, self.class_count
        if self.kind == "logistic":
            return c * f + c
        if self.kind == "mlp":
            h = self.hidden_dim
            return h * f + h + c * h + c
        d = self.embedding.dim
        return c * d * d + c

    def init_params(self, seed: int) -> np.ndarray:
        """Seeded uniform initialization in [-0.1, 0.1)."""
        return sample_uniform(RngState(seed), -0.1, 0.1, self.param_count)


@functools.lru_cache(maxsize=None)
def _input_scale(dim: int) -> np.ndarray:
    gain = 2.0 * math.sqrt(3.0 * dim)
    scale = np.concatenate([np.full(3 * dim, gain), np.full(dim, gain * gain)])
    scale.setflags(write=False)
    return scale


@dataclass(frozen=True, eq=False)
class ModelState:
    """Flat parameters bound to an architecture; treated as immutable."""

    params: np.ndarray
    arch: BackboneArch

    def __post_init__(self):
        params = np.array(self.params, dtype=np.float64)
        if params.ndim != 1 or params.shape[0] != self.arch.param_count:
            raise DimensionError(
                f"{self.arch.kind} backbone expects {self.arch.param_count} parameters, "
                f"got shape {params.shape}"
            )
        require_finite(params, "model parameters")
        params.setflags(write=False)
        object.__setattr__(self, "params", params)

    @property
    def class_count(self) -> int:
        return self.arch.class_count


def example_features(arch: BackboneArch, example: Example) -> np.ndarray:
    """Features of one example, memoized on the (frozen) embedding table."""
    cache = arch.embedding._feature_cache
    feats = cache.get(example)
    if feats is None:
        feats = featurize_pair(example.text_a, example.text_b, arch.embedding)
        feats.setflags(write=False)
        cache[example] = feats
    return feats


def _unpack_logistic(arch: BackboneArch, params: np.ndarray):
    f, c = arch.feature_dim, arch.class_count
    return params[: c * f].reshape(c, f), params[c * f :]


def _unpack_mlp(arch: BackboneArch, params: np.ndarray):
    f, c, h = arch.feature_dim, arch.class_count, arch.hidden_dim
    o = h * f
    w1 = params[:o].reshape(h, f)
    b1 = params[o : o + h]
    o += h
    w2 = params[o : o + c * h].reshape(c, h)
    o += c * h
    return w1, b1, w2, params[o:]


def _unpack_bilinear(arch: BackboneArch, params: np.ndarray):
    c, d = arch.class_count, arch.embedding.dim
    return params[: c * d * d].reshape(c, d, d), params[c * d * d :]


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = np.exp(logits - logits.max())
    return shifted / shifted.sum()


def _logits(arch: BackboneArch, params: np.ndarray, features: np.ndarray) -> np.ndarray:
    scaled = arch.input_scale * features
    if arch.kind == "logistic":
        w, b = _unpack_logistic(arch, params)
        return w @ scaled + b
    if arch.kind == "mlp":
        w1, b1, w2, b2 = _unpack_mlp(arch, params)
        return w2 @ np.tanh(w1 @ scaled + b1) + b2
    w, b = _unpack_bilinear(arch, params)
    d = arch.embedding.dim
    u, v = scaled[:d], scaled[d : 2 * d]
    return (w @ v) @ u + b


def forward(model: ModelState, features) -> np.ndarray:
    """Class probability vector; deterministic in (model, features)."""
    features = as_vector(features)
    if features.shape[0] != model.arch.feature_dim:
        raise DimensionError(
            f"feature length {features.shape[0]} != architecture feature dim {model.arch.feature_dim}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        probs = _softmax(_logits(model.arch, model.params, features))
    return require_finite(probs, "forward probabilities")


def _check_label(model: ModelState, example: Example) -> None:
    if example.label >= model.class_count:
        raise DomainError(f"label {example.label} out of range for {model.class_count} classes")


def per_example_loss(model: ModelState, example: Example) -> float:
    """Cross-entropy -log p(label), with the probability floored at PROB_FLOOR."""
    _check_label(model, example)
    with np.errstate(over="ignore", invalid="ignore"):
        probs = _softmax(_logits(model.arch, model.params, example_features(model.arch, example)))
    loss = -math.log(max(float(probs[example.label]), PROB_FLOOR))
    if not math.isfinite(loss):
        raise NumericalError("non-finite per-example loss")
    return loss


def _gradient_from_features(arch: BackboneArch, params: np.ndarray, features: np.ndarray, label: int) -> np.ndarray:
    scaled = arch.input_scale * features
    if arch.kind == "logistic":
        w, b = _unpack_logistic(arch, params)
        dlog = _softmax(w @ scaled + b)
        dlog[label] -= 1.0
        return np.concatenate([np.outer(dlog, scaled).ravel(), dlog])
    if arch.kind == "mlp":
        w1, b1, w2, b2 = _unpack_mlp(arch, params)
        hidden = np.tanh(w1 @ scaled + b1)
        dlog = _softmax(w2 @ hidden + b2)
        dlog[label] -= 1.0
        dpre = (w2.T @ dlog) * (1.0 - hidden * hidden)
        return np.concatenate(
            [np.outer(dpre, scaled).ravel(), dpre, np.outer(dlog, hidden).ravel(), dlog]
        )
    w, b = _unpack_bilinear(arch, params)
    d = arch.embedding.dim
    u, v = scaled[:d], scaled[d : 2 * d]
    dlog = _softmax((w @ v) @ u + b)
    dlog[label] -= 1.0
    return np.concatenate([(dlog[:, None, None] * np.outer(u, v)[None, :, :]).ravel(), dlog])


def per_example_gradient(model: ModelState, example: Example) -> np.ndarray:
    """Exact gradient of the per-example cross-entropy in the flat parameters."""
    _check_label(model, example)
    features = example_features(model.arch, example)
    with np.errstate(over="ignore", invalid="ignore"):
        grad = _gradient_from_features(model.arch, model.params, features, example.label)
    return require_finite(grad, "per-example gradient")


def batch_weighted_gradient(model: ModelState, examples: Sequence[Example], weights) -> np.ndarray:
    """sum_i weights_i * grad_i, accumulated in batch order (fixed reduction)."""
    weights = as_vector(weights)
    if weights.shape[0] != len(examples):
        raise DimensionError(f"{len(examples)} examples but {weights.shape[0]} weights")
    total = np.zeros(model.arch.param_count)
    with np.errstate(over="ignore", invalid="ignore"):
        for w_i, ex in zip(weights, examples):
            total += float(w_i) * per_example_gradient(model, ex)
    return require_finite(total, "batch gradient")


def batch_loss(model: ModelState, examples: Sequence[Example]) -> float:
    """Summed per-example cross-entropy over a batch."""
    return float(sum(per_example_loss(model, ex) for ex in examples))


@dataclass(frozen=True, eq=False)
class FeatureBatch:
    """Input-scaled feature rows with their labels, one row per example.

    Built once per dataset by `featurize`; training steps then work on row
    slices from `take`. Scaling is elementwise, so a slice holds exactly the
    values that featurizing the same examples as a batch would give.
    """

    scaled: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return int(self.labels.shape[0])

    def take(self, ids) -> FeatureBatch:
        """The rows at `ids`, in that order, as a new batch."""
        return FeatureBatch(self.scaled[ids], self.labels[ids])


def featurize(arch: BackboneArch, examples: Sequence[Example]) -> FeatureBatch:
    """Scaled feature matrix and label vector of a sequence of examples."""
    labels = np.fromiter((ex.label for ex in examples), dtype=np.int64, count=len(examples))
    if labels.size and labels.max() >= arch.class_count:
        raise DomainError(f"label {labels.max()} out of range for {arch.class_count} classes")
    if len(examples) == 0:
        return FeatureBatch(np.zeros((0, arch.feature_dim)), labels)
    scaled = np.stack([example_features(arch, ex) for ex in examples]) * arch.input_scale
    return FeatureBatch(scaled, labels)


def _batch_stats(arch: BackboneArch, params: np.ndarray, batch: FeatureBatch | Sequence[Example]):
    """Shared forward pass over a batch: scaled features, hidden layer, and
    the per-example logit gradients p - onehot(label), stacked row-wise."""
    if not isinstance(batch, FeatureBatch):
        batch = featurize(arch, batch)
    scaled, labels = batch.scaled, batch.labels
    hidden = None
    if arch.kind == "logistic":
        w, b = _unpack_logistic(arch, params)
        logits = scaled @ w.T + b
    elif arch.kind == "mlp":
        w1, b1, w2, b2 = _unpack_mlp(arch, params)
        hidden = np.tanh(scaled @ w1.T + b1)
        logits = hidden @ w2.T + b2
    else:
        w, b = _unpack_bilinear(arch, params)
        d = arch.embedding.dim
        u, v = scaled[:, :d], scaled[:, d : 2 * d]
        logits = np.einsum("bd,cde,be->bc", u, w, v) + b
    shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = shifted / shifted.sum(axis=1, keepdims=True)
    dlog = probs.copy()
    dlog[np.arange(len(labels)), labels] -= 1.0
    return scaled, hidden, probs, dlog, labels


def batch_weighted_gradient_fast(
    model: ModelState, examples: FeatureBatch | Sequence[Example], weights
) -> np.ndarray:
    """Vectorized sum_i weights_i * grad_i over a FeatureBatch or examples.

    Same quantity as batch_weighted_gradient up to floating-point summation
    order (matrix products instead of a per-example loop); agreement is
    checked against the reference loop in the test suite.
    """
    weights = as_vector(weights)
    if weights.shape[0] != len(examples):
        raise DimensionError(f"{len(examples)} examples but {weights.shape[0]} weights")
    if len(examples) == 0:
        return np.zeros(model.arch.param_count)
    arch = model.arch
    with np.errstate(over="ignore", invalid="ignore"):
        return require_finite(_weighted_gradient_math(arch, model.params, examples, weights), "batch gradient")


def _weighted_gradient_math(arch: BackboneArch, params: np.ndarray, examples, weights) -> np.ndarray:
    scaled, hidden, _, dlog, _ = _batch_stats(arch, params, examples)
    wd = dlog * weights[:, None]
    if arch.kind == "logistic":
        return np.concatenate([(wd.T @ scaled).ravel(), wd.sum(axis=0)])
    if arch.kind == "mlp":
        w1, b1, w2, b2 = _unpack_mlp(arch, params)
        dpre = (wd @ w2) * (1.0 - hidden * hidden)
        return np.concatenate(
            [(dpre.T @ scaled).ravel(), dpre.sum(axis=0), (wd.T @ hidden).ravel(), wd.sum(axis=0)]
        )
    d = arch.embedding.dim
    u, v = scaled[:, :d], scaled[:, d : 2 * d]
    return np.concatenate([np.einsum("bc,bd,be->cde", wd, u, v).ravel(), wd.sum(axis=0)])


def alignment_scores(
    model: ModelState, examples: FeatureBatch | Sequence[Example], reference: np.ndarray
) -> np.ndarray:
    """<grad_i, reference> for every example, without materializing the grads.

    Expands the inner product block by block; equals stacking the
    per-example gradients and multiplying, up to float summation order.
    """
    reference = as_vector(reference)
    if reference.shape[0] != model.arch.param_count:
        raise DimensionError(
            f"reference has length {reference.shape[0]}, expected {model.arch.param_count}"
        )
    if len(examples) == 0:
        return np.zeros(0)
    arch = model.arch
    with np.errstate(over="ignore", invalid="ignore"):
        scaled, hidden, _, dlog, _ = _batch_stats(arch, model.params, examples)
    if arch.kind == "logistic":
        rw, rb = _unpack_logistic(arch, reference)
        scores = np.einsum("bc,cf,bf->b", dlog, rw, scaled) + dlog @ rb
    elif arch.kind == "mlp":
        w1, b1, w2, b2 = _unpack_mlp(arch, model.params)
        rw1, rb1, rw2, rb2 = _unpack_mlp(arch, reference)
        dpre = (dlog @ w2) * (1.0 - hidden * hidden)
        scores = (
            np.einsum("bh,hf,bf->b", dpre, rw1, scaled)
            + dpre @ rb1
            + np.einsum("bc,ch,bh->b", dlog, rw2, hidden)
            + dlog @ rb2
        )
    else:
        d = arch.embedding.dim
        rw, rb = _unpack_bilinear(arch, reference)
        u, v = scaled[:, :d], scaled[:, d : 2 * d]
        scores = np.einsum("bc,cde,bd,be->b", dlog, rw, u, v) + dlog @ rb
    return require_finite(scores, "alignment scores")
