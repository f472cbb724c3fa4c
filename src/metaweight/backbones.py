"""Text-pair classifiers over a flat parameter vector, with hand-derived derivatives.

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

Each family is written once, as three private functions of a matrix X of
scaled feature rows, with J_i = d logits_i / d params:

    _forward(params, X)            -> logits (n, C), and the mlp hidden layer
    _vjp(params, X, hidden, dlog)  -> sum_i dlog_i' J_i, a flat parameter vector
    _jvp(params, X, hidden, r)     -> J_i r for every row, an (n, C) matrix

All three are 2-D matrix products; logistic and bilinear logits are linear
in the parameters, so their J_i r is _forward at r. The rest is generic and
treats one example as a one-row batch. The loss is cross-entropy with the
probability floored at PROB_FLOOR before the log, and its gradient in the
logits is dlog_i = p_i - e_l for p = softmax(logits) and the one-hot label
e_l. The weighted gradient sum_i w_i g_i is _vjp of the rows w_i dlog_i,
and the alignment <g_i, r> is the row-wise dot dlog_i' (J_i r), so no
per-example gradient is formed. The floor only bounds the reported loss;
where it binds (true-class probability below 1e-12) the analytic gradient
is that of the unfloored loss. `linearize` keeps the rows, the hidden layer
and dlog of one forward pass as a Linearized, which every gradient and
alignment at the same ModelState reads instead of running _forward again.

Nothing here mutates a ModelState or an EmbeddingTable: every update
constructs a new state from a new vector, and embedding values are marked
read-only at construction.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigError, DimensionError, DomainError, NumericalError
from .vectors import RngState, as_vector, require_finite, sample_uniform

PROB_FLOOR = 1e-12
BACKBONE_KINDS = ("logistic", "mlp", "bilinear")
# Largest embedding table, in buckets * dim float64 entries (128 MiB); a
# larger request is a configuration error rather than an allocation failure.
MAX_EMBEDDING_ENTRIES = 1 << 24
# Largest trainable parameter vector, in float64 entries (128 MiB), under
# the same rule: an oversized hidden_dim or bilinear dim is refused up front.
MAX_PARAM_COUNT = 1 << 24
# Unseen examples featurized per bulk-kernel call (128 rows of 4 * 32
# float64 are 128 KiB at d = 32): it bounds the kernel's temporaries to a
# few hundred KiB whatever the set's size, and still amortizes its numpy calls.
FEATURIZE_BLOCK = 128

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
    """Frozen hashed-bucket embeddings; never updated by any training step.

    Two memos ride along: `_bucket_cache` maps a token to its bucket, and
    `_feature_cache` maps an Example to its read-only unscaled feature row.
    `featurize` fills the feature memo a block of unseen examples at a time,
    `example_features` one example at a time; both give the bytes
    featurize_pair gives.
    """

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
    if buckets * dim > MAX_EMBEDDING_ENTRIES:
        raise ConfigError(
            f"buckets * embedding_dim = {buckets * dim} exceeds the cap of {MAX_EMBEDDING_ENTRIES} entries"
        )
    half = 0.5 / dim
    values = sample_uniform(RngState(seed), -half, half, buckets * dim).reshape(buckets, dim)
    values.setflags(write=False)
    return EmbeddingTable(buckets=buckets, dim=dim, seed=seed, values=values)


def featurize_pair(text_a: Sequence[str], text_b: Sequence[str], emb: EmbeddingTable) -> np.ndarray:
    """[u, v, |u - v|, u * v] for the mean embeddings u, v of the two sides.

    Both sides' rows come from one gather over their bucket ids. Each side is
    pooled as `.mean(axis=0)` pools it, np.add.reduce over its row slice
    divided by its length, so u and v are the per-side means bit for bit; an
    empty side pools to zeros.
    """
    tokens = (*text_a, *text_b)
    cached = emb._bucket_cache.get
    ids = [cached(t) for t in tokens]
    if None in ids:
        ids = [emb.bucket(t) for t in tokens]
    rows = emb.values[ids]
    na, nb = len(text_a), len(tokens) - len(text_a)
    u = np.add.reduce(rows[:na], axis=0) / na if na else np.zeros(emb.dim)
    v = np.add.reduce(rows[na:], axis=0) / nb if nb else np.zeros(emb.dim)
    return np.concatenate((u, v, np.abs(u - v), u * v))


def _featurize_pairs(examples: Sequence[Example], emb: EmbeddingTable) -> np.ndarray:
    """featurize_pair's rows for many examples at once, bit for bit.

    One lookup pass buckets every token of the block. Sides are grouped by
    token count; each group of G sides of length L is one (G, L, d) gather,
    np.add.reduce over axis 1 and divided by L, which is each side's
    np.add.reduce over its rows divided by its length. An empty side pools
    to zeros.
    """
    sides = [side for ex in examples for side in (ex.text_a, ex.text_b)]
    tokens = list(itertools.chain.from_iterable(sides))
    ids = list(map(emb._bucket_cache.get, tokens))
    if None in ids:
        ids = [emb.bucket(t) for t in tokens]
    ids = np.array(ids, dtype=np.intp)
    starts = np.cumsum([0, *map(len, sides)])
    groups: dict[int, list[int]] = {}  # side length -> the sides of that length
    for i, side in enumerate(sides):
        groups.setdefault(len(side), []).append(i)
    pooled = np.zeros((len(sides), emb.dim))
    for n, group in groups.items():
        if n:
            block = emb.values[ids[starts[group][:, None] + np.arange(n)]]
            pooled[group] = np.add.reduce(block, axis=1) / n
    u, v = pooled[0::2], pooled[1::2]
    return np.concatenate((u, v, np.abs(u - v), u * v), axis=1)


def param_count(kind: str, embedding_dim: int, class_count: int, hidden_dim: int) -> int:
    """Length of the parameter vector of a backbone family at these
    dimensions; a length above MAX_PARAM_COUNT is a ConfigError."""
    f, c, h = 4 * embedding_dim, class_count, hidden_dim
    if kind == "logistic":
        count = c * f + c
    elif kind == "mlp":
        count = h * f + h + c * h + c
    else:
        count = c * embedding_dim * embedding_dim + c
    if count > MAX_PARAM_COUNT:
        raise ConfigError(f"{kind} backbone has {count} parameters, above the cap of {MAX_PARAM_COUNT}")
    return count


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
        param_count(self.kind, self.embedding.dim, self.class_count, self.hidden_dim)  # checks the cap

    @property
    def feature_dim(self) -> int:
        return 4 * self.embedding.dim

    @property
    def input_scale(self) -> np.ndarray:
        """Per-feature conditioning vector [g, g, g, g^2] over the four blocks."""
        return _input_scale(self.embedding.dim)

    @property
    def param_count(self) -> int:
        return param_count(self.kind, self.embedding.dim, self.class_count, self.hidden_dim)

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


def _forward(arch: BackboneArch, params: np.ndarray, X: np.ndarray):
    """Logits (n, C) of the scaled feature rows X, and the hidden layer that
    _vjp and _jvp reuse (None for the families without one)."""
    if arch.kind == "logistic":
        w, b = _unpack_logistic(arch, params)
        return X @ w.T + b, None
    if arch.kind == "mlp":
        w1, b1, w2, b2 = _unpack_mlp(arch, params)
        hidden = np.tanh(X @ w1.T + b1)
        return hidden @ w2.T + b2, hidden
    w, b = _unpack_bilinear(arch, params)
    d = arch.embedding.dim
    u, v = X[:, :d], X[:, d : 2 * d]
    # one (n, d) x (d, d) product per class, then a row-wise dot with v
    return ((u @ w) * v).sum(axis=2).T + b, None


def _vjp(arch: BackboneArch, params: np.ndarray, X: np.ndarray, hidden, dlog: np.ndarray) -> np.ndarray:
    """Flat sum_i dlog_i' J_i, where J_i = d logits_i / d params at the rows X."""
    if arch.kind == "logistic":
        return np.concatenate([(dlog.T @ X).ravel(), dlog.sum(axis=0)])
    if arch.kind == "mlp":
        w1, b1, w2, b2 = _unpack_mlp(arch, params)
        dpre = (dlog @ w2) * (1.0 - hidden * hidden)
        return np.concatenate(
            [(dpre.T @ X).ravel(), dpre.sum(axis=0), (dlog.T @ hidden).ravel(), dlog.sum(axis=0)]
        )
    c, d = arch.class_count, arch.embedding.dim
    u, v = X[:, :d], X[:, d : 2 * d]
    # dW_c = sum_i dlog_ic u_i v_i' for every class in one (C d, n) x (n, d) product
    du = (dlog[:, :, None] * u[:, None, :]).reshape(len(X), c * d)
    return np.concatenate([(du.T @ v).ravel(), dlog.sum(axis=0)])


def _jvp(arch: BackboneArch, params: np.ndarray, X: np.ndarray, hidden, r: np.ndarray) -> np.ndarray:
    """J_i r for every row: the derivative of logits_i along the parameter direction r."""
    if arch.kind == "mlp":
        w1, b1, w2, b2 = _unpack_mlp(arch, params)
        rw1, rb1, rw2, rb2 = _unpack_mlp(arch, r)
        dpre = (X @ rw1.T + rb1) * (1.0 - hidden * hidden)
        return hidden @ rw2.T + rb2 + dpre @ w2.T
    # logistic and bilinear logits are linear in the parameters, so J_i r = logits_i(r)
    return _forward(arch, r, X)[0]


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
    return shifted / shifted.sum(axis=1, keepdims=True)


def _probs(arch: BackboneArch, params: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Class probabilities of the scaled feature rows X."""
    with np.errstate(over="ignore", invalid="ignore"):
        logits, _ = _forward(arch, params, X)
        return _softmax(logits)


def forward(model: ModelState, features) -> np.ndarray:
    """Class probability vector; deterministic in (model, features)."""
    features = as_vector(features)
    if features.shape[0] != model.arch.feature_dim:
        raise DimensionError(
            f"feature length {features.shape[0]} != architecture feature dim {model.arch.feature_dim}"
        )
    probs = _probs(model.arch, model.params, (model.arch.input_scale * features)[None, :])[0]
    return require_finite(probs, "forward probabilities")


def per_example_loss(model: ModelState, example: Example) -> float:
    """Cross-entropy -log p(label), with the probability floored at PROB_FLOOR;
    the probabilities are bit for bit those `forward` gives for the example."""
    return batch_loss(model, featurize(model.arch, (example,)))


def per_example_gradient(model: ModelState, example: Example) -> np.ndarray:
    """Exact gradient of the per-example cross-entropy in the flat parameters."""
    return batch_weighted_gradient_fast(model, featurize(model.arch, (example,)), np.ones(1))


def batch_loss(model: ModelState, batch: Batch) -> float:
    """Summed per-example cross-entropy over the rows, from one forward pass."""
    probs = _probs(model.arch, model.params, batch.scaled)[np.arange(len(batch)), batch.labels]
    loss = float(-np.log(np.maximum(probs, PROB_FLOOR)).sum())
    if not math.isfinite(loss):
        raise NumericalError("non-finite loss")
    return loss


@dataclass(frozen=True, eq=False)
class FeatureBatch:
    """Input-scaled feature rows with their labels, one row per example.

    Built once per dataset by `featurize`, as a scaled copy of the memo rows
    (hits read, misses built by its bulk kernel); training steps then work on
    row slices from `take`. Scaling is elementwise, so a slice holds exactly
    the values that featurizing the same examples as a batch would give.
    """

    scaled: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return int(self.labels.shape[0])

    def take(self, ids) -> FeatureBatch:
        """The rows at `ids`, in that order, as a new batch."""
        return FeatureBatch(self.scaled[ids], self.labels[ids])

    @functools.cached_property
    def class_members(self) -> tuple[np.ndarray, ...]:
        """Row indices of each class present, in ascending class order;
        computed on first use and kept, since the batch never changes."""
        return class_members(self.labels)


def class_members(labels: np.ndarray) -> tuple[np.ndarray, ...]:
    """Ascending row indices of each distinct label, in ascending label order."""
    _, counts = np.unique(labels, return_counts=True)
    return tuple(np.split(np.argsort(labels, kind="stable"), np.cumsum(counts)[:-1]))


def featurize(arch: BackboneArch, examples: Sequence[Example]) -> FeatureBatch:
    """Scaled feature matrix and label vector of a sequence of examples.

    Labels are checked before any feature is built. Rows already in the
    feature memo are reused; the others are built FEATURIZE_BLOCK examples
    at a time by the bulk kernel `_featurize_pairs`, with the bytes
    featurize_pair gives (an unseen example listed twice is built twice, to
    the same bytes), and each goes into the memo as a read-only row, where
    later calls, `predict` and `example_features` find it.
    """
    labels = np.fromiter((ex.label for ex in examples), dtype=np.int64, count=len(examples))
    if labels.size and labels.max() >= arch.class_count:
        raise DomainError(f"label {labels.max()} out of range for {arch.class_count} classes")
    if len(examples) == 0:
        return FeatureBatch(np.zeros((0, arch.feature_dim)), labels)
    cache = arch.embedding._feature_cache
    rows = [cache.get(ex) for ex in examples]
    misses = [i for i, row in enumerate(rows) if row is None]
    for start in range(0, len(misses), FEATURIZE_BLOCK):
        block = misses[start : start + FEATURIZE_BLOCK]
        feats = _featurize_pairs([examples[i] for i in block], arch.embedding)
        feats.setflags(write=False)
        for i, row in zip(block, feats):
            rows[i] = cache[examples[i]] = row
    scaled = np.array(rows)
    scaled *= arch.input_scale
    return FeatureBatch(scaled, labels)


@dataclass(frozen=True, eq=False)
class Linearized:
    """A batch linearized at one model: its scaled rows and labels, the
    hidden layer, and each row's cross-entropy gradient in its logits,
    dlog = p - onehot(label). Everything a gradient or an alignment needs
    at that model, computed once. `model` is kept so that its identity, which
    `linearize` checks, cannot pass to another state while this object lives.
    """

    model: ModelState
    scaled: np.ndarray
    labels: np.ndarray
    hidden: np.ndarray | None
    dlog: np.ndarray

    def __len__(self) -> int:
        return int(self.labels.shape[0])


# A batch as the core takes it: rows, or rows linearized at a model.
Batch = Linearized | FeatureBatch


def as_rows(arch: BackboneArch, batch: Batch | Sequence[Example]) -> Batch:
    """A Linearized or FeatureBatch as it is; a sequence of examples
    featurized. Only the entry points that accept example lists call it."""
    if isinstance(batch, (Linearized, FeatureBatch)):
        return batch
    return featurize(arch, batch)


def linearize(model: ModelState, batch: Batch) -> Linearized:
    """One forward pass over a batch at `model`. A Linearized taken at this
    very model is returned as it is; one taken at any other model, even with
    equal parameters, is recomputed from its rows."""
    if isinstance(batch, Linearized) and batch.model is model:
        return batch
    with np.errstate(over="ignore", invalid="ignore"):
        hidden, dlog = _logit_gradients(model, batch)
    dlog.setflags(write=False)
    return Linearized(model, batch.scaled, batch.labels, hidden, dlog)


def _logit_gradients(model: ModelState, batch: Batch):
    """The hidden layer and each row's cross-entropy gradient in its logits,
    p - onehot(label): the stored parts of a Linearized taken at this model,
    recomputed for anything else."""
    if isinstance(batch, Linearized) and batch.model is model:
        return batch.hidden, batch.dlog
    logits, hidden = _forward(model.arch, model.params, batch.scaled)
    dlog = _softmax(logits)
    dlog[np.arange(len(batch)), batch.labels] -= 1.0
    return hidden, dlog


def batch_weighted_gradient_fast(model: ModelState, examples: Batch, weights) -> np.ndarray:
    """sum_i weights_i * grad_i over the rows, as one VJP; the per-example
    gradients are never materialized."""
    weights = as_vector(weights)
    if weights.shape[0] != len(examples):
        raise DimensionError(f"{len(examples)} examples but {weights.shape[0]} weights")
    with np.errstate(over="ignore", invalid="ignore"):
        hidden, dlog = _logit_gradients(model, examples)
        grad = _vjp(model.arch, model.params, examples.scaled, hidden, dlog * weights[:, None])
    return require_finite(grad, "batch gradient")


def alignment_scores(model: ModelState, examples: Batch, reference: np.ndarray) -> np.ndarray:
    """<grad_i, reference> for every example, as dlog_i' (J_i reference);
    the per-example gradients are never materialized."""
    reference = as_vector(reference)
    if reference.shape[0] != model.arch.param_count:
        raise DimensionError(
            f"reference has length {reference.shape[0]}, expected {model.arch.param_count}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        hidden, dlog = _logit_gradients(model, examples)
        scores = (dlog * _jvp(model.arch, model.params, examples.scaled, hidden, reference)).sum(axis=1)
    return require_finite(scores, "alignment scores")
