"""Golden-corpus serialization for the hot-path differential harness.

Two seeded corpora have their *entire* mining output — every spot,
polarity, provenance field, and audit decision — frozen as JSON under
``tests/fixtures/golden/``.  The tier-1 regression test re-mines the
same corpora (on both the batched optimized path and the unbatched
path) and diffs the reports byte-for-byte, so any hot-path change that
shifts semantics fails loudly rather than silently skewing results.

Regenerate fixtures (only after an *intentional* semantics change)::

    PYTHONPATH=src python -m tests.support.golden
"""

from __future__ import annotations

import json
import os

from repro.core import Subject
from repro.core.disambiguation import Disambiguator, TopicTermSet
from repro.core.miner import MiningResult, SentimentMiner
from repro.core.model import SentimentJudgment
from repro.corpora import DIGITAL_CAMERA, MUSIC, ReviewGenerator
from repro.obs import Obs

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "..", "fixtures", "golden")

#: Golden corpus sizes — small enough for tier-1, large enough to cover
#: every sentence-template class the generators emit.
CAMERA_DOCS = 6
MUSIC_DOCS = 12
CAMERA_SEED = 7
MUSIC_SEED = 11


def judgment_record(judgment: SentimentJudgment) -> dict:
    """One judgment as a canonical JSON-able record (every field)."""
    spot = judgment.spot
    provenance = judgment.provenance
    return {
        "subject": spot.subject.canonical,
        "synonyms": list(spot.subject.synonyms),
        "term": spot.term,
        "start": spot.start,
        "end": spot.end,
        "sentence_index": spot.sentence_index,
        "document_id": spot.document_id,
        "polarity": judgment.polarity.value,
        "sentence_span": (
            [judgment.sentence_span.start, judgment.sentence_span.end]
            if judgment.sentence_span is not None
            else None
        ),
        "provenance": {
            "predicate": provenance.predicate,
            "pattern": provenance.pattern,
            "source_role": provenance.source_role,
            "target_role": provenance.target_role,
            "sentiment_words": list(provenance.sentiment_words),
            "negated": provenance.negated,
            "holder": provenance.holder,
        },
    }


def mining_report(result: MiningResult) -> dict:
    """The full mining output as one canonical JSON-able report."""
    return {
        "judgments": [judgment_record(j) for j in result.judgments],
        "stats": {
            "documents": result.stats.documents,
            "sentences": result.stats.sentences,
            "spots_found": result.stats.spots_found,
            "spots_on_topic": result.stats.spots_on_topic,
            "judgments_polar": result.stats.judgments_polar,
            "judgments_neutral": result.stats.judgments_neutral,
        },
        "audit": [entry.to_record() for entry in result.audit],
    }


# -- the two golden corpora -----------------------------------------------------


def camera_documents() -> list[tuple[str, str]]:
    docs = ReviewGenerator(DIGITAL_CAMERA, seed=CAMERA_SEED).generate_dplus(CAMERA_DOCS)
    return [(d.doc_id, d.text) for d in docs]


def camera_subjects() -> list[Subject]:
    return [Subject(p) for p in DIGITAL_CAMERA.products] + [
        Subject(f) for f in DIGITAL_CAMERA.features
    ]


def camera_miner(obs: Obs) -> SentimentMiner:
    """Mode A with disambiguation, so audit carries keep/filter decisions."""
    terms = TopicTermSet.build(
        on_topic=list(DIGITAL_CAMERA.features) + ["camera", "photo", "picture"]
    )
    return SentimentMiner(
        subjects=camera_subjects(),
        disambiguator=Disambiguator(terms),
        obs=obs,
    )


def music_documents() -> list[tuple[str, str]]:
    docs = ReviewGenerator(MUSIC, seed=MUSIC_SEED).generate_dplus(MUSIC_DOCS)
    return [(d.doc_id, d.text) for d in docs]


def mine_camera(batched: bool) -> MiningResult:
    miner = camera_miner(Obs.enabled())
    documents = camera_documents()
    return miner.mine_batch(documents) if batched else miner.mine_corpus(documents)


def mine_music_open() -> MiningResult:
    """Mode B (open subjects) over the music corpus; always per-document."""
    miner = SentimentMiner(obs=Obs.enabled())
    return miner.mine_open_corpus(music_documents())


GOLDEN_RUNS = {
    "camera_modeA.json": lambda: mine_camera(batched=False),
    "music_modeB.json": lambda: mine_music_open(),
}


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURE_DIR, name)


def load_fixture(name: str) -> dict:
    with open(fixture_path(name), "r", encoding="utf-8") as stream:
        return json.load(stream)


def regenerate() -> list[str]:
    os.makedirs(FIXTURE_DIR, exist_ok=True)
    written = []
    for name, run in GOLDEN_RUNS.items():
        report = mining_report(run())
        with open(fixture_path(name), "w", encoding="utf-8") as stream:
            json.dump(report, stream, indent=1, sort_keys=True)
            stream.write("\n")
        written.append(fixture_path(name))
    return written


if __name__ == "__main__":
    for path in regenerate():
        print(f"wrote {path}")
