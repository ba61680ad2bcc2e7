"""Workload definitions and their seeded input generators.

Each workload fixes the property that sets the work (the sharpness of the
noise rows, the density of planted phrases in the speech input, the
bias-list size and the chunk length); only the content varies with the
seed. Inputs are written to a cache directory by a separate process, so
that generating them neither costs time in the measured run nor counts in
its peak memory:

    python3 bench/inputs.py --workload stream-speech-10k --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

VOCAB_SIZE = 1024
BLANK = VOCAB_SIZE - 1
FRAME_MS = 40.0
MAX_PHRASE_TOKENS = 6
# The age cap must cover every utterance, so that streamed results equal
# whole-utterance results exactly (the chunk-invariance guarantee).
MAX_KEYWORD_FRAMES = 1000

# speech-shaped input: every PLANT_EVERY-th word is a bias phrase
SPEECH_WORDS = 48
PLANT_EVERY = 4
PLANT_PEAK = 0.75
FILLER_PEAK = 0.7
BLANK_PEAK = 0.85

# near-flat noise input: log-softmax of standard normals times this scale
NOISE_SCALE = 1.6


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    inputs: str  # "speech" or "noise": which generator makes the utterances
    feed: str  # "envelope", "logits" (both streamed) or "offline"
    phrases: int
    chunk_ms: float  # offline: the chunking of its streamed reference
    utterances: int
    noise_frames: int = 0

    @property
    def streamed(self) -> bool:
        return self.feed != "offline"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "stream-speech-10k",
            "about 1,023 root children against about ten live hypotheses, so fresh-entry "
            "admission dominates the search; 160 ms envelope chunks maximise per-chunk costs",
            inputs="speech",
            feed="envelope",
            phrases=10_000,
            chunk_ms=160.0,
            utterances=8,
        ),
        Workload(
            "stream-noise-1k",
            "hundreds of live hypotheses, so recombination, pruning, settle and merge dominate "
            "instead of admission; 1120 ms chunks read through read_logits and chunker",
            inputs="noise",
            feed="logits",
            phrases=1_000,
            chunk_ms=1120.0,
            utterances=4,
            noise_frames=500,
        ),
        Workload(
            "offline-noise-1k",
            "the same noise through offline_pipeline, the only path that runs dedup_overlaps, "
            "which takes most of its wall time over tens of thousands of candidates",
            inputs="noise",
            feed="offline",
            phrases=1_000,
            chunk_ms=1120.0,
            utterances=4,
            noise_frames=500,
        ),
    )
}

# Reduced sizes for the benchmark's own tests; the shape of the work stays.
TINY = {"phrases": 200, "utterances": 2, "speech_words": 8, "noise_frames": 60}


def input_key(w: Workload, seed: int, tiny: bool) -> str:
    """Cache key: workloads that share a generator and sizes share inputs."""
    layout = f"envelope{w.chunk_ms:g}ms" if w.feed == "envelope" else "ctcl"
    return f"{w.inputs}-{w.phrases}-{layout}-{'tiny' if tiny else 'full'}-s{seed}"


def vocab_pieces() -> list[str]:
    """Even ids begin a word, odd ids continue one; the last id is the blank."""
    pieces = [f"▁w{i}" if i % 2 == 0 else f"s{i}" for i in range(VOCAB_SIZE - 1)]
    return pieces + ["<blank>"]


def bias_phrases(rng, count: int) -> list[tuple[int, ...]]:
    """Distinct random token sequences of 1 to MAX_PHRASE_TOKENS tokens."""
    seen: set[tuple[int, ...]] = set()
    out: list[tuple[int, ...]] = []
    while len(out) < count:
        length = int(rng.integers(1, MAX_PHRASE_TOKENS + 1))
        tokens = tuple(int(t) for t in rng.integers(0, BLANK, size=length))
        if tokens not in seen:
            seen.add(tokens)
            out.append(tokens)
    return out


def speech_matrix(rng, phrases: list[tuple[int, ...]], words: int):
    """Speech-shaped rows: filler words with a bias phrase planted at every
    PLANT_EVERY-th word, each separated by a blank gap."""
    from ctcspot.synth import ScriptSegment, generate, make_spec

    script = [ScriptSegment(BLANK, 4, BLANK_PEAK)]
    for i in range(words):
        if i % PLANT_EVERY == 0:
            tokens, peak = phrases[int(rng.integers(len(phrases)))], PLANT_PEAK
        else:
            tokens, peak = (2 * int(rng.integers(BLANK // 2)),), FILLER_PEAK
        script.extend(ScriptSegment(tok, 2, peak) for tok in tokens)
        script.append(ScriptSegment(BLANK, 2 + int(rng.integers(2)), BLANK_PEAK))
    spec = make_spec(int(rng.integers(2**31)), VOCAB_SIZE, BLANK, script)
    matrix, _ = generate(spec)
    return matrix


def noise_matrix(rng, frames: int):
    """Near-flat rows of fixed sharpness: normalized log-softmax."""
    import numpy as np

    x = rng.standard_normal((frames, VOCAB_SIZE)) * NOISE_SCALE
    peak = x.max(axis=1, keepdims=True)
    return x - (peak + np.log(np.exp(x - peak).sum(axis=1, keepdims=True)))


def make_inputs(w: Workload, seed: int, tiny: bool, out: Path) -> None:
    """Write vocab.txt, bias.tsv and one utterance file per utterance."""
    import numpy as np

    from ctcspot.formats import chunker, write_envelope, write_logits

    rng = np.random.default_rng([seed, VOCAB_SIZE])
    phrases = bias_phrases(rng, TINY["phrases"] if tiny else w.phrases)
    out.mkdir(parents=True, exist_ok=True)
    (out / "vocab.txt").write_text("\n".join(vocab_pieces()) + "\n", encoding="utf-8")
    with open(out / "bias.tsv", "w", encoding="utf-8") as fp:
        for i, tokens in enumerate(phrases):
            fp.write(f"kw{i}\t{','.join(map(str, tokens))}\n")
    count = TINY["utterances"] if tiny else w.utterances
    files = []
    for u in range(count):
        if w.inputs == "speech":
            matrix = speech_matrix(rng, phrases, TINY["speech_words"] if tiny else SPEECH_WORDS)
        else:
            matrix = noise_matrix(rng, TINY["noise_frames"] if tiny else w.noise_frames)
        if matrix.shape[0] > MAX_KEYWORD_FRAMES:
            raise ValueError(f"utterance of {matrix.shape[0]} frames exceeds the age cap")
        if w.feed == "envelope":
            name = f"utt{u}.jsonl"
            with open(out / name, "w", encoding="ascii") as fp:
                write_envelope(fp, chunker(matrix, w.chunk_ms, FRAME_MS))
        else:
            name = f"utt{u}.ctcl"
            write_logits(str(out / name), matrix, FRAME_MS)
        files.append(name)
    # written last: its presence marks a complete cache entry
    (out / "manifest.json").write_text(json.dumps({"utterances": files}), encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    make_inputs(WORKLOADS[args.workload], args.seed, args.tiny, Path(args.out))
    return 0


if __name__ == "__main__":
    os.environ.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    sys.exit(main())
