"""Expected outputs of a workload, as fingerprints, from a child process.

The oracles are the differential reference in ``tests/support/reference.py``
for mining, and unsharded indexes over the same documents for serving.
``run.py`` runs this module in a child process before anything is timed
and keeps only the fingerprints (one sha256 per checked output), so the
oracles' miners, indexes and caches never enter the benchmark process,
whose peak resident set is a gated metric.

Run from the root of a source checkout, with ``src`` on ``PYTHONPATH``::

    PYTHONPATH=src python3 -m perfbench.oracle --workload serve_read --seed 1

It prints one JSON object: check key → fingerprint (for serve_ingest,
batch index or ``"end"`` → request key → fingerprint).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from repro.core import SentimentMiner
from repro.core.model import SentimentJudgment
from repro.platform.datastore import DataStore
from repro.platform.entity import Entity
from repro.platform.indexer import InvertedIndex, SentimentIndex
from repro.platform.services import SearchService, SentimentQueryService

from tests.support.reference import reference_analyzer, reference_miner

from perfbench.workloads import (
    WORKLOADS,
    MineSyndicated,
    MineUnique,
    ServeIngest,
    ServeRead,
    Sizes,
    Workload,
    camera_subjects,
    fingerprint,
    judgments_by_doc,
    relabel,
    replay,
    request_key,
)


def mode_a_oracle(documents: list[tuple[str, str]]) -> dict[str, list[SentimentJudgment]]:
    """Reference judgments per document: naive spotter, no memos, per doc."""
    return judgments_by_doc(reference_miner(camera_subjects()).mine_corpus(documents).judgments)


def mode_b_oracle(documents: list[tuple[str, str]]) -> dict[str, list[SentimentJudgment]]:
    miner = SentimentMiner(analyzer=reference_analyzer(), split_memo_size=0)
    return judgments_by_doc(miner.mine_open_corpus(documents).judgments)


class ReferenceJudgments:
    """Reference-miner judgments per (document id, text), computed once."""

    def __init__(self):
        self._miner = reference_miner(camera_subjects())
        self._cache: dict[tuple[str, str], list[SentimentJudgment]] = {}

    def of(self, documents: list[tuple[str, str]]) -> dict[str, list[SentimentJudgment]]:
        out = {}
        for doc_id, text in documents:
            key = (doc_id, text)
            if key not in self._cache:
                self._cache[key] = self._miner.mine_corpus([key]).judgments
            out[doc_id] = self._cache[key]
        return out


class Oracle:
    """Unsharded services over one document state: the expected answers."""

    def __init__(self, documents: list[tuple[str, str]], judgments: dict[str, list[SentimentJudgment]]):
        sentiment = SentimentIndex()
        inverted = InvertedIndex()
        store = DataStore()
        for doc_id, text in documents:
            sentiment.add_all(j for j in judgments.get(doc_id, ()) if j.polarity.is_polar)
            entity = Entity(entity_id=doc_id, content=text)
            inverted.add_entity(entity)
            store.store(entity)
        self._sentiment = SentimentQueryService(sentiment, store)
        self._search = SearchService(inverted)

    def answer(self, op: str, payload: dict) -> Any:
        if op == "search":
            return self._search.search(payload)["data"]
        return getattr(self._sentiment, op)(payload)["data"]

    def fingerprints(self, requests) -> dict[str, str]:
        """Request key → fingerprint of the expected answer data."""
        keys = {request_key(op, payload): (op, payload) for op, payload, *_ in requests}
        return {key: fingerprint(self.answer(op, payload)) for key, (op, payload) in keys.items()}


def expected(workload: Workload) -> dict[str, Any]:
    """The fingerprints *workload*'s ``verify`` compares its outputs with."""
    if isinstance(workload, MineUnique):
        reviews, pages = workload.checked()
        judged = {**mode_a_oracle(reviews), **mode_b_oracle(pages)}
        return {doc_id: fingerprint(judged.get(doc_id, [])) for doc_id, _ in reviews + pages}
    if isinstance(workload, MineSyndicated):
        by_base = mode_a_oracle(workload.bases)
        return {
            copy_id: fingerprint(relabel(by_base.get(base_id, []), copy_id))
            for copy_id, _, base_id in workload.arrivals
        }
    if isinstance(workload, ServeRead):
        reference = ReferenceJudgments()
        oracle = Oracle(workload.documents, reference.of(workload.documents))
        return oracle.fingerprints(workload.requests)
    if isinstance(workload, ServeIngest):
        reference = ReferenceJudgments()
        last = len(workload.batches) - 1
        out = {}
        for index in sorted(workload.checked | {last}):
            state = replay(workload.base, workload.batches[: index + 1])
            oracle = Oracle(state, reference.of(state))
            if index in workload.checked:
                out[str(index)] = oracle.fingerprints(workload.reads_after(index))
            if index == last:
                out["end"] = oracle.fingerprints(workload.end_state_requests())
        return out
    raise TypeError(f"no oracle for {type(workload).__name__}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--sizes", default="{}", help="Sizes fields as a JSON object")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload](args.seed, Sizes(**json.loads(args.sizes)))
    json.dump(expected(workload), sys.stdout, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
