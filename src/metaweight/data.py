"""Datasets on disk, preprocessing, few-shot splits, and synthetic shifted pairs.

The on-disk format is header-less UTF-8 TSV, one example per line:
text_a TAB text_b TAB integer label. Texts are tokenized at load time;
tokens never contain tabs or whitespace, so writing a dataset and loading
it back is the identity.

Synthetic generation is an array program: every example takes a fixed
number of words from the seeded stream (see ShiftSpec), so where each word
of each example sits is known in closed form. A side is drawn in blocks of
whole examples with one `uniforms` call per block; marker indices, filler
counts and token ids come out of the block as arrays, and only the ids that
occur are formatted as tokens. The datasets and the final stream position
equal those of drawing the words one example at a time.
"""

from __future__ import annotations

import logging
import string
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .backbones import Example
from .errors import ConfigError, DataError, DomainError
from .vectors import RngState, derive_seed

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Dataset:
    name: str
    class_count: int
    examples: tuple[Example, ...]

    def __post_init__(self):
        object.__setattr__(self, "examples", tuple(self.examples))
        for ex in self.examples:
            if ex.label >= self.class_count:
                raise DomainError(
                    f"label {ex.label} out of range for class_count {self.class_count} in {self.name!r}"
                )

    def __len__(self) -> int:
        return len(self.examples)

    def label_counts(self) -> dict[int, int]:
        counts = Counter(ex.label for ex in self.examples)
        return {c: counts.get(c, 0) for c in range(self.class_count)}


def tokenize(text: str, max_len: int = 50) -> tuple[str, ...]:
    """Lowercase, split on whitespace, strip edge punctuation, truncate to max_len."""
    if max_len < 1:
        raise DomainError("max_len must be >= 1")
    out: list[str] = []
    for raw in text.lower().split():
        token = raw.strip(string.punctuation)
        if token:
            out.append(token)
            if len(out) == max_len:
                break
    return tuple(out)


def load_tsv(path, max_len: int = 50) -> Dataset:
    """Parse `text_a<TAB>text_b<TAB>label` lines; blank lines are skipped.

    The class count is inferred as max label + 1. Malformed rows raise a
    DataError naming the line.
    """
    path = Path(path)
    examples: list[Example] = []
    max_label = -1
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\r\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise DataError(f"{path}:{lineno}: expected 3 tab-separated fields, found {len(fields)}")
            try:
                label = int(fields[2])
            except ValueError:
                raise DataError(f"{path}:{lineno}: label {fields[2]!r} is not an integer") from None
            if label < 0:
                raise DataError(f"{path}:{lineno}: negative label {label}")
            examples.append(Example(tokenize(fields[0], max_len), tokenize(fields[1], max_len), label))
            max_label = max(max_label, label)
    return Dataset(name=path.stem, class_count=max_label + 1, examples=tuple(examples))


def write_tsv(ds: Dataset, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for ex in ds.examples:
            fh.write(f"{' '.join(ex.text_a)}\t{' '.join(ex.text_b)}\t{ex.label}\n")


def balance_downsample(ds: Dataset, seed: int) -> Dataset:
    """Seeded downsample of every class to the smallest class size, reshuffled."""
    if ds.class_count == 0 or not ds.examples:
        raise DomainError(f"cannot balance empty dataset {ds.name!r}")
    counts = ds.label_counts()
    empty = [c for c, n in counts.items() if n == 0]
    if empty:
        raise DomainError(f"cannot balance {ds.name!r}: class {empty[0]} has no examples")
    smallest = min(counts.values())
    rng = RngState(derive_seed(seed, "balance"))
    keep: list[int] = []
    for cls in range(ds.class_count):
        members = [i for i, ex in enumerate(ds.examples) if ex.label == cls]
        order = rng.permutation(len(members))
        keep.extend(members[j] for j in order[:smallest])
    shuffled = rng.permutation(len(keep))
    picked = tuple(ds.examples[keep[j]] for j in shuffled)
    return Dataset(name=ds.name, class_count=ds.class_count, examples=picked)


def filter_labels(ds: Dataset, keep: Iterable[int], relabel: Mapping[int, int] | None = None) -> Dataset:
    """Drop labels outside `keep`; remap survivors to the contiguous range 0..C'-1.

    With relabel None the kept labels are remapped in sorted order. An
    explicit mapping must cover every kept label and hit 0..C'-1 exactly.
    """
    keep_set = {int(k) for k in keep}
    if not keep_set:
        raise ConfigError("keep must name at least one label")
    if relabel is None:
        relabel = {old: new for new, old in enumerate(sorted(keep_set))}
    missing = keep_set - set(relabel)
    if missing:
        raise ConfigError(f"relabel mapping does not cover kept labels {sorted(missing)}")
    targets = sorted(relabel[k] for k in keep_set)
    if targets != list(range(len(keep_set))):
        raise ConfigError(f"relabel must map kept labels onto 0..{len(keep_set) - 1}, got {targets}")
    survivors = tuple(
        Example(ex.text_a, ex.text_b, relabel[ex.label]) for ex in ds.examples if ex.label in keep_set
    )
    if not survivors:
        logger.warning("filter_labels(%r, keep=%s) produced an empty dataset", ds.name, sorted(keep_set))
    return Dataset(name=ds.name, class_count=len(keep_set), examples=survivors)


@dataclass(frozen=True)
class FewShotSpec:
    k: int
    seed: int

    def __post_init__(self):
        if self.k < 1:
            raise DomainError("k must be >= 1")


def few_shot_indices(ds: Dataset, spec: FewShotSpec) -> list[int]:
    """Sorted indices of a class-balanced seeded draw of k examples per class."""
    if spec.k * ds.class_count > len(ds.examples):
        raise DomainError(
            f"k={spec.k} over {ds.class_count} classes exceeds dataset size {len(ds.examples)}"
        )
    rng = RngState(derive_seed(spec.seed, "fewshot", spec.k))
    chosen: list[int] = []
    for cls in range(ds.class_count):
        members = [i for i, ex in enumerate(ds.examples) if ex.label == cls]
        if len(members) < spec.k:
            raise DomainError(f"class {cls} has {len(members)} examples, fewer than k={spec.k}")
        order = rng.permutation(len(members))
        chosen.extend(members[j] for j in order[: spec.k])
    return sorted(chosen)


def few_shot_manifest(ds: Dataset, spec: FewShotSpec) -> dict:
    """JSON-ready record of a few-shot draw: seed, k, and the selected indices."""
    return {"dataset": ds.name, "seed": spec.seed, "k": spec.k, "indices": few_shot_indices(ds, spec)}


def sample_few_shot(ds: Dataset, spec: FewShotSpec) -> tuple[Dataset, Dataset]:
    """Class-balanced few-shot split: (k-per-class subset, remainder).

    The two parts partition the dataset exactly; order inside each part
    follows the original dataset order.
    """
    picked = few_shot_indices(ds, spec)
    picked_set = set(picked)
    few = tuple(ds.examples[i] for i in picked)
    rest = tuple(ex for i, ex in enumerate(ds.examples) if i not in picked_set)
    return (
        Dataset(name=f"{ds.name}:fewshot", class_count=ds.class_count, examples=few),
        Dataset(name=f"{ds.name}:remainder", class_count=ds.class_count, examples=rest),
    )


@dataclass(frozen=True)
class ShiftSpec:
    """Synthetic source/target pair-matching task with a controllable gap.

    The label rule is shared by both sides of the shift and is a marker
    correspondence: side a of every pair carries one marker from the family
    qm00..qm<P-1> and side b one marker from rm00..rm<P-1>, where P is
    marker_pairs. The label is 1 exactly when the two marker indices agree,
    so neither text alone determines the label, and a model has to learn
    the P associations between a-side and b-side markers, the way question
    types correspond to answer types. A small labelled set underdetermines
    the rule when it cannot cover every pairing, while a large one pins it
    down.

    Filler tokens come from disjoint source/target vocabularies, which is
    what separates the two distributions; the marker families are shared.
    A seeded flip_fraction of source examples, balanced across classes,
    gets its stored label inverted, so those examples teach the opposite
    of the rule. Whether a generated example is flipped can always be
    recomputed by comparing its stored label with rule_label.

    Stream layout. Each side (target first, then source) is a run of
    examples with labels 0, 1, 0, 1, ...; example i has label i % 2 and takes
    1 + [label == 0] + 2 * (1 + max_fillers) words, in this order: the a-side
    marker index, choice_int(P); for label 0 only, the offset of the b-side
    marker, b = (a + 1 + choice_int(P - 1)) % P, so that it differs from a;
    then the two sentences, a-side first, each of 1 + max_fillers words: the
    filler count min_fillers + choice_int(max_fillers - min_fillers + 1),
    then one token id choice_int(vocab) per filler slot, of which only the
    first count are used. A sentence is its marker, marker_repeats times,
    then its fillers; markers go first so that truncation can only drop
    fillers. A pair of examples thus spans 3 + 4 * (1 + max_fillers) words
    whatever the sentence lengths, and example i starts at a closed-form
    offset, which lets a whole block of examples be drawn at once. After both
    sides come the flip permutations of the two source classes and the
    shuffles of the source and of the target.
    """

    n_source: int = 2000
    n_target: int = 600
    source_vocab: int = 200
    target_vocab: int = 200
    source_prefix: str = "src"
    target_prefix: str = "tgt"
    min_fillers: int = 2
    max_fillers: int = 4
    marker_pairs: int = 2
    marker_repeats: int = 3
    flip_fraction: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.flip_fraction <= 1.0:
            raise ConfigError(f"flip_fraction must be in [0, 1], got {self.flip_fraction}")
        if self.n_target < 1 or self.n_source < self.n_target:
            raise ConfigError("sizes must satisfy n_source >= n_target >= 1")
        if self.n_source % 2 or self.n_target % 2:
            raise ConfigError("n_source and n_target must be even for class balance")
        if self.min_fillers < 1 or self.max_fillers < self.min_fillers:
            raise ConfigError("filler counts must satisfy 1 <= min_fillers <= max_fillers")
        if self.marker_pairs < 2:
            raise ConfigError("marker_pairs must be >= 2")
        if self.marker_repeats < 1:
            raise ConfigError("marker_repeats must be >= 1")
        if self.source_vocab < 1 or self.target_vocab < 1:
            raise ConfigError("vocabulary sizes must be >= 1")


def marker_indices(text_a: Sequence[str], text_b: Sequence[str]) -> tuple[int | None, int | None]:
    """First a-side (qm) and b-side (rm) marker index found in the texts."""
    a_idx = next((int(t[2:]) for t in text_a if t.startswith("qm") and t[2:].isdigit()), None)
    b_idx = next((int(t[2:]) for t in text_b if t.startswith("rm") and t[2:].isdigit()), None)
    return a_idx, b_idx


def rule_label(spec: ShiftSpec, text_a: Sequence[str], text_b: Sequence[str]) -> int:
    """1 when the two sides carry corresponding markers, else 0."""
    a_idx, b_idx = marker_indices(text_a, text_b)
    return int(a_idx is not None and a_idx == b_idx)


# Words drawn per block of synthetic examples: enough to amortize the numpy
# calls, few enough that a block's arrays stay small whatever the set size.
_BLOCK_WORDS = 1 << 16


def _draw_index(u: np.ndarray, bound: int) -> np.ndarray:
    """min(int(u * bound), bound - 1) per uniform, which is what
    `RngState.choice_int` returns for that draw: int64 while the sum of two
    indices fits, Python ints beyond."""
    scaled = u * float(bound)
    if bound <= 1 << 62:
        return np.minimum(scaled.astype(np.int64), bound - 1)
    return np.minimum(np.frompyfunc(int, 1, 1)(scaled), bound - 1)


def _format(ids: np.ndarray, fmt) -> list:
    """fmt(i) for every id, calling fmt once per distinct id."""
    values = ids.tolist()
    names = {i: fmt(i) for i in set(values)}
    return [names[i] for i in values]


def _generate_side(spec: ShiftSpec, rng: RngState, prefix: str, vocab: int, n: int) -> list[Example]:
    """n examples with alternating labels 0, 1, 0, ..., drawn in blocks.

    The words of a pair of examples (labels 0 and 1) sit at fixed offsets of
    a row of `stride` words; see ShiftSpec for the layout."""
    pairs, repeats = spec.marker_pairs, spec.marker_repeats
    width = 1 + spec.max_fillers
    span = spec.max_fillers - spec.min_fillers + 1
    stride = 3 + 4 * width
    sentence_cols = np.r_[2 : 2 + 2 * width, 3 + 2 * width : stride]
    per_block = max(1, _BLOCK_WORDS // stride)
    examples: list[Example] = []
    for first in range(0, n // 2, per_block):
        rows = rng.uniforms(min(per_block, n // 2 - first) * stride).reshape(-1, stride)
        a_idx = _draw_index(rows[:, [0, 2 + 2 * width]], pairs)  # columns: label 0, label 1
        b_idx = a_idx.copy()  # label 1: the markers correspond
        b_idx[:, 0] = (a_idx[:, 0] + 1 + _draw_index(rows[:, 1], pairs - 1)) % pairs
        # one row per sentence, in example order, side a before side b
        sentences = rows[:, sentence_cols].reshape(-1, width)
        counts = spec.min_fillers + _draw_index(sentences[:, 0], span)
        used = np.arange(width - 1) < counts[:, None]
        fillers = _format(_draw_index(sentences[:, 1:][used], vocab), lambda i: f"{prefix}{i:03d}")
        qm = _format(a_idx.ravel(), lambda i: (f"qm{i:02d}",) * repeats)
        rm = _format(b_idx.ravel(), lambda i: (f"rm{i:02d}",) * repeats)
        ends = np.cumsum(counts).tolist()
        texts = [tuple(fillers[end - c : end]) for end, c in zip(ends, counts.tolist())]
        examples.extend(
            Example(qm[k] + texts[2 * k], rm[k] + texts[2 * k + 1], k % 2) for k in range(len(qm))
        )
    return examples


def gen_synthetic_shift(spec: ShiftSpec, rng: RngState) -> tuple[Dataset, Dataset]:
    """(source, target) datasets; a seeded balanced slice of source labels is flipped."""
    target = _generate_side(spec, rng, spec.target_prefix, spec.target_vocab, spec.n_target)
    source = _generate_side(spec, rng, spec.source_prefix, spec.source_vocab, spec.n_source)
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
        Dataset("synthetic-source", 2, tuple(source[i] for i in source_order)),
        Dataset("synthetic-target", 2, tuple(target[i] for i in target_order)),
    )
