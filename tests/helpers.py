"""Shared test utilities: finite-difference oracles, per-side pair pooling,
per-example gradient formulas and loops, per-step training loops over
example batches, the dense permutation test, the per-example synthetic
generator, the per-class target draw, the row-by-row weight-trace CSV, and
tolerance checks."""

from __future__ import annotations

from unittest import mock

import numpy as np

import metaweight.data
from metaweight.backbones import (
    BackboneArch,
    EmbeddingTable,
    Example,
    ModelState,
    _probs,
    batch_weighted_gradient_fast,
    build_embedding,
    example_features,
    featurize,
)
from metaweight.data import ShiftSpec, gen_synthetic_shift
from metaweight.regulator import (
    TARGET_BATCH_CAP,
    init_weights,
    regulate_weights,
    weight_meta_gradient,
    weighted_training_step,
)
from metaweight.stats import PredictionRecord
from metaweight.vectors import RngState, derive_seed


def central_difference_gradient(func, x0: np.ndarray, h: float) -> np.ndarray:
    """Coordinate-wise central differences of a scalar function."""
    grad = np.zeros_like(x0)
    for i in range(x0.size):
        up = x0.copy()
        up[i] += h
        down = x0.copy()
        down[i] -= h
        grad[i] = (func(up) - func(down)) / (2.0 * h)
    return grad


def max_relative_error(a: np.ndarray, b: np.ndarray, floor: float = 1e-8) -> float:
    """Largest |a - b| / max(|a|, |b|) over coordinates where either side
    exceeds `floor`; coordinates below the floor on both sides are skipped."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = np.maximum(np.abs(a), np.abs(b))
    mask = scale > floor
    if not mask.any():
        return 0.0
    return float((np.abs(a - b)[mask] / scale[mask]).max())


def oracle_pooled_embedding(tokens, emb: EmbeddingTable) -> np.ndarray:
    """Mean embedding of one side, from its own gather and `.mean(axis=0)`;
    zeros for the empty side."""
    if not tokens:
        return np.zeros(emb.dim)
    rows = np.fromiter((emb.bucket(t) for t in tokens), dtype=np.int64, count=len(tokens))
    return emb.values[rows].mean(axis=0)


def oracle_featurize_pair(text_a, text_b, emb: EmbeddingTable) -> np.ndarray:
    """[u, v, |u - v|, u * v] with each side pooled on its own."""
    u = oracle_pooled_embedding(text_a, emb)
    v = oracle_pooled_embedding(text_b, emb)
    return np.concatenate([u, v, np.abs(u - v), u * v])


def oracle_scaled_rows(arch: BackboneArch, examples) -> np.ndarray:
    """Input-scaled feature rows of the examples, one oracle pair at a time."""
    rows = [oracle_featurize_pair(ex.text_a, ex.text_b, arch.embedding) for ex in examples]
    return np.array(rows, dtype=np.float64).reshape(len(rows), arch.feature_dim) * arch.input_scale


def oracle_predictions(model: ModelState, examples) -> np.ndarray:
    """Argmax class per example from the oracle rows."""
    return _probs(model.arch, model.params, oracle_scaled_rows(model.arch, examples)).argmax(axis=1)


def oracle_gradient(model: ModelState, example: Example) -> np.ndarray:
    """Per-example cross-entropy gradient from the hand-derived formulas of
    each family, one example at a time, with outer products in place of the
    package's batched forward / VJP."""
    arch, params = model.arch, model.params
    f, c, h, d = arch.feature_dim, arch.class_count, arch.hidden_dim, arch.embedding.dim
    scaled = arch.input_scale * example_features(arch, example)
    onehot = np.eye(c)[example.label]
    if arch.kind == "logistic":
        w, b = params[: c * f].reshape(c, f), params[c * f :]
        dlog = _softmax(w @ scaled + b) - onehot
        return np.concatenate([np.outer(dlog, scaled).ravel(), dlog])
    if arch.kind == "mlp":
        w1, b1 = params[: h * f].reshape(h, f), params[h * f : h * f + h]
        w2, b2 = params[h * f + h : h * f + h + c * h].reshape(c, h), params[h * f + h + c * h :]
        hidden = np.tanh(w1 @ scaled + b1)
        dlog = _softmax(w2 @ hidden + b2) - onehot
        dpre = (w2.T @ dlog) * (1.0 - hidden * hidden)
        return np.concatenate([np.outer(dpre, scaled).ravel(), dpre, np.outer(dlog, hidden).ravel(), dlog])
    w, b = params[: c * d * d].reshape(c, d, d), params[c * d * d :]
    u, v = scaled[:d], scaled[d : 2 * d]
    dlog = _softmax((w @ v) @ u + b) - onehot
    return np.concatenate([(dlog[:, None, None] * np.outer(u, v)[None, :, :]).ravel(), dlog])


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = np.exp(logits - logits.max())
    return shifted / shifted.sum()


def oracle_weighted_gradient(model: ModelState, examples, weights) -> np.ndarray:
    """sum_i weights_i * oracle_gradient_i, accumulated in batch order."""
    total = np.zeros(model.arch.param_count)
    for w_i, ex in zip(weights, examples):
        total += float(w_i) * oracle_gradient(model, ex)
    return total


def oracle_permutation_test(
    preds_a: PredictionRecord, preds_b: PredictionRecord, n_perm: int, rng: RngState
) -> float:
    """The sign-flip permutation test drawn densely: every one of the
    n_perm x n uniforms, a +-1 matrix from them and one product per chunk."""
    diff = (preds_a.predicted == preds_a.true).astype(np.float64) - (
        preds_b.predicted == preds_b.true
    )
    n = diff.shape[0]
    observed = abs(float(diff.mean()))
    exceed = 0
    chunk = max(1, min(n_perm, 4_000_000 // n))
    done = 0
    while done < n_perm:
        take = min(chunk, n_perm - done)
        signs = np.where(rng.uniforms(take * n).reshape(take, n) < 0.5, -1.0, 1.0)
        stats = np.abs(signs @ diff) / n
        exceed += int((stats >= observed).sum())
        done += take
    return (1 + exceed) / (1 + n_perm)


def _oracle_sentence(spec: ShiftSpec, rng: RngState, prefix: str, vocab: int, marker: str) -> tuple[str, ...]:
    draws = rng.uniforms(1 + spec.max_fillers)
    span = spec.max_fillers - spec.min_fillers + 1
    count = spec.min_fillers + min(int(draws[0] * span), span - 1)
    tokens = [marker] * spec.marker_repeats
    tokens.extend(f"{prefix}{min(int(d * vocab), vocab - 1):03d}" for d in draws[1 : 1 + count])
    return tuple(tokens)


def oracle_generate_side(
    spec: ShiftSpec, rng: RngState, prefix: str, vocab: int, n: int, flipped=None
) -> list[Example]:
    """One side of the synthetic shift drawn one example at a time, each
    word taken from the stream in turn; example i stores the inverse of its
    label where `flipped[i]` is set."""
    pairs = spec.marker_pairs
    examples = []
    for i in range(n):
        label = i % 2
        a_idx = rng.choice_int(pairs)
        if label == 1:
            b_idx = a_idx
        else:
            b_idx = (a_idx + 1 + rng.choice_int(pairs - 1)) % pairs
        a = _oracle_sentence(spec, rng, prefix, vocab, f"qm{a_idx:02d}")
        b = _oracle_sentence(spec, rng, prefix, vocab, f"rm{b_idx:02d}")
        stored = 1 - label if flipped is not None and flipped[i] else label
        examples.append(Example(a, b, stored))
    return examples


def oracle_gen_synthetic_shift(spec: ShiftSpec, rng: RngState):
    """gen_synthetic_shift with each side drawn by oracle_generate_side."""
    with mock.patch.object(metaweight.data, "_generate_side", oracle_generate_side):
        return gen_synthetic_shift(spec, rng)


def oracle_shift_by_scan(spec: ShiftSpec, rng: RngState):
    """The synthetic shift drawn in stream order with no closed-form offset:
    both sides one example at a time, then each class's members found by a
    scan, one permutation per class, each flipped example rebuilt, and the
    two shuffles."""
    target = oracle_generate_side(spec, rng, spec.target_prefix, spec.target_vocab, spec.n_target)
    source = oracle_generate_side(spec, rng, spec.source_prefix, spec.source_vocab, spec.n_source)
    flip_per_class = round(spec.flip_fraction * (spec.n_source // 2))
    members_by_class = {cls: [i for i, ex in enumerate(source) if ex.label == cls] for cls in (0, 1)}
    for cls in (0, 1):
        members = members_by_class[cls]
        order = rng.permutation(len(members))
        for j in order[:flip_per_class]:
            ex = source[members[j]]
            source[members[j]] = Example(ex.text_a, ex.text_b, 1 - ex.label)
    source_order = rng.permutation(len(source))
    target_order = rng.permutation(len(target))
    return (
        metaweight.data.Dataset("synthetic-source", 2, tuple(source[i] for i in source_order)),
        metaweight.data.Dataset("synthetic-target", 2, tuple(target[i] for i in target_order)),
    )


def oracle_select_target_batch(target_set, cfg, rng: RngState) -> tuple[Example, ...]:
    """select_target_batch over examples, with one `permutation` per class
    and the class members found by a scan of the labels on every call."""
    size = cfg.target_batch_size
    if size is None:
        size = min(len(target_set), TARGET_BATCH_CAP)
    if size >= len(target_set):
        return tuple(target_set)
    labels = np.fromiter((ex.label for ex in target_set), dtype=np.int64, count=len(target_set))
    classes = np.unique(labels)
    base, extra = divmod(size, len(classes))
    chosen = []
    for rank, cls in enumerate(classes):
        members = np.flatnonzero(labels == cls)
        take = min(base + (1 if rank < extra else 0), len(members))
        order = rng.permutation(len(members))
        chosen.append(members[order[:take]])
    return tuple(target_set[i] for i in np.sort(np.concatenate(chosen)))


def oracle_write_weight_trace(rows, path) -> None:
    """The weight-trace CSV written row object by row object."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("step,example_id,raw_metagrad,regulated_weight\n")
        for r in rows:
            fh.write(f"{r.step},{r.example_id},{r.metagrad!r},{r.weight!r}\n")


def small_arch(
    kind: str, dim: int = 4, hidden: int = 8, buckets: int = 256, seed: int = 11, classes: int = 2
) -> BackboneArch:
    return BackboneArch(kind, build_embedding(seed, buckets, dim), classes, hidden_dim=hidden)


def small_task(seed: int = 3, n_source: int = 32, n_target: int = 16, flip: float = 0.0):
    spec = ShiftSpec(
        n_source=n_source,
        n_target=n_target,
        source_vocab=12,
        target_vocab=12,
        flip_fraction=flip,
    )
    return gen_synthetic_shift(spec, RngState(seed))


def random_model(arch: BackboneArch, seed: int) -> ModelState:
    return ModelState(arch.init_params(seed), arch)


def make_example(a, b, label: int) -> Example:
    return Example(tuple(a), tuple(b), label)


def mwr_loop(spec, model: ModelState, s_train, t_fs):
    """run_training's mwr as a loop of the public step functions: each step
    featurizes its source examples and the target examples that
    oracle_select_target_batch picks afresh. Returns the final model and the
    weight trace as (step, example_id, metagrad, weight) tuples."""
    cfg = spec.regulator
    alpha = cfg.learning_rate
    rng = RngState(derive_seed(spec.seed, "mwr"))
    rows = []
    step = 0
    for _ in range(spec.epochs):
        order = rng.permutation(len(s_train))
        for start in range(0, len(order), cfg.source_batch_size):
            ids = [int(i) for i in order[start : start + cfg.source_batch_size]]
            batch = featurize(model.arch, [s_train[i] for i in ids])
            initial = init_weights(len(ids), cfg.init_policy, rng)
            targets = featurize(model.arch, oracle_select_target_batch(t_fs, cfg, rng))
            metagrad = weight_meta_gradient(model, batch, initial, targets, alpha)
            weights = regulate_weights(initial, metagrad, alpha, cfg.clamp_nonnegative)
            model = weighted_training_step(model, batch, weights, alpha)
            rows.extend((step, i, float(m), float(w)) for i, m, w in zip(ids, metagrad, weights))
            step += 1
    return model, rows


def data_merging_loop(spec, model: ModelState, s_train, t_fs) -> ModelState:
    """run_training's data_merging as a loop of summed-loss steps, each on
    its batch of examples featurized afresh."""
    data = (*s_train, *t_fs)
    rng = RngState(derive_seed(spec.seed, "data_merging"))
    for _ in range(spec.epochs):
        order = rng.permutation(len(data))
        params = model.params
        for start in range(0, len(order), spec.batch_size):
            batch = featurize(model.arch, [data[i] for i in order[start : start + spec.batch_size]])
            grad = batch_weighted_gradient_fast(ModelState(params, model.arch), batch, np.ones(len(batch)))
            params = params - spec.alpha * grad
        model = ModelState(params, model.arch)
    return model
