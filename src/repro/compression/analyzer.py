"""Automatic compression selection by data sampling.

This is the paper's canonical "dusty knob": on COPY, the engine samples the
incoming data, trial-encodes each column with every applicable codec, and
picks the smallest encoding (with a decode-cost tie-break), so the user
never has to choose an ENCODE clause. The same machinery backs an explicit
``ANALYZE COMPRESSION``-style API.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.compression.codecs import applicable_codecs
from repro.datatypes.types import SqlType
from repro.util.rng import DeterministicRng

#: Default number of values sampled per column, mirroring the modest sample
#: Redshift's COMPUPDATE takes rather than scanning the full load.
DEFAULT_SAMPLE_SIZE = 2_000

#: A codec must beat RAW by at least this ratio to be preferred; below the
#: threshold the analyzer keeps RAW for its cheaper decode path.
MIN_IMPROVEMENT = 1.05


@dataclass
class CodecTrial:
    """Result of trial-encoding a sample with one codec."""

    codec_name: str
    encoded_bytes: int
    ratio_vs_raw: float
    decode_cost: float


@dataclass
class ColumnAnalysis:
    """Outcome of analyzing one column: the chosen codec and all trials."""

    column_name: str
    sql_type: SqlType
    chosen_codec: str
    sample_size: int
    trials: list[CodecTrial] = field(default_factory=list)

    def trial(self, codec_name: str) -> CodecTrial:
        """Look up the trial for *codec_name* (raises KeyError if absent)."""
        for t in self.trials:
            if t.codec_name == codec_name:
                return t
        raise KeyError(codec_name)

    @property
    def best_possible_bytes(self) -> int:
        """Smallest encoded size over all trials (the oracle choice)."""
        return min(t.encoded_bytes for t in self.trials)

    @property
    def regret(self) -> float:
        """How much larger the chosen encoding is than the oracle, as a ratio.

        1.0 means the analyzer picked the optimum; 1.10 means the pick is
        10% larger than the best possible codec on the sample.
        """
        return self.trial(self.chosen_codec).encoded_bytes / self.best_possible_bytes


def analyze_column(
    column_name: str,
    sql_type: SqlType,
    values: Sequence[object],
    sample_size: int = DEFAULT_SAMPLE_SIZE,
    rng: DeterministicRng | None = None,
) -> ColumnAnalysis:
    """Pick the best codec for one column by trial-encoding a sample.

    Sampling is contiguous-prefix plus a random tail slice: delta and
    run-length codecs are sensitive to value *order*, so the sample must
    preserve local ordering rather than shuffle individual values.
    """
    sample = _take_sample(values, sample_size, rng)
    raw_trial_bytes: int | None = None
    trials: list[CodecTrial] = []
    for codec in applicable_codecs(sql_type):
        encoded = codec.encode(sample, sql_type)
        if codec.name == "raw":
            raw_trial_bytes = encoded.encoded_bytes
        trials.append(
            CodecTrial(
                codec_name=codec.name,
                encoded_bytes=encoded.encoded_bytes,
                ratio_vs_raw=0.0,  # filled below once raw size is known
                decode_cost=codec.decode_cost,
            )
        )
    assert raw_trial_bytes is not None  # RawCodec supports every type
    for trial in trials:
        trial.ratio_vs_raw = raw_trial_bytes / trial.encoded_bytes

    chosen = _choose(trials, raw_trial_bytes)
    return ColumnAnalysis(
        column_name=column_name,
        sql_type=sql_type,
        chosen_codec=chosen,
        sample_size=len(sample),
        trials=trials,
    )


def _take_sample(
    values: Sequence[object],
    sample_size: int,
    rng: DeterministicRng | None,
) -> list[object]:
    if len(values) <= sample_size:
        return list(values)
    head = sample_size // 2
    tail = sample_size - head
    rng = rng or DeterministicRng("compression-analyzer")
    start = rng.randrange(head, len(values) - tail + 1)
    return list(values[:head]) + list(values[start:start + tail])


def _choose(trials: Sequence[CodecTrial], raw_bytes: int) -> str:
    """Smallest encoding wins if it beats RAW by MIN_IMPROVEMENT; ties go to
    the cheaper decoder."""
    best = min(trials, key=lambda t: (t.encoded_bytes, t.decode_cost))
    if raw_bytes / best.encoded_bytes < MIN_IMPROVEMENT:
        return "raw"
    return best.codec_name


class CompressionAnalyzer:
    """Analyzer over a whole table load: one :class:`ColumnAnalysis` per column.

    Usage::

        analyzer = CompressionAnalyzer(sample_size=1000)
        choices = analyzer.analyze(schema_columns, column_vectors)
        choices["price"].chosen_codec  # e.g. 'mostly16'
    """

    def __init__(
        self,
        sample_size: int = DEFAULT_SAMPLE_SIZE,
        rng: DeterministicRng | None = None,
    ):
        if sample_size < 1:
            raise ValueError(f"sample_size must be positive, got {sample_size}")
        self._sample_size = sample_size
        self._rng = rng or DeterministicRng("compression-analyzer")

    def analyze(
        self,
        columns: Sequence[tuple[str, SqlType]],
        vectors: Sequence[Sequence[object]],
    ) -> dict[str, ColumnAnalysis]:
        """Analyze a set of parallel column vectors; returns name → analysis."""
        if len(columns) != len(vectors):
            raise ValueError(
                f"{len(columns)} columns but {len(vectors)} value vectors"
            )
        result: dict[str, ColumnAnalysis] = {}
        for (name, sql_type), values in zip(columns, vectors):
            result[name] = analyze_column(
                name, sql_type, values, self._sample_size, self._rng.child(name)
            )
        return result
