"""The sentiment miner: end-to-end orchestration of both operational modes.

Mode A — *predefined subjects* (paper Fig. 2): spotter → disambiguator →
sentiment-context formation → sentiment analyzer.

Mode B — *no predefined subjects* (paper Fig. 3): named-entity spotter →
sentiment-bearing sentence filter → analyzer; results feed the sentiment
index for query-time lookups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from ..obs import Obs
from ..obs.audit import CONTEXT_WINDOW, AuditEntry
from ..nlp.sentences import SentenceSplitter
from ..nlp.tokenizer import Tokenizer
from .analyzer import SentimentAnalyzer, audit_judgment
from .context import ContextBuilder, ContextWindowRule
from .disambiguation import Disambiguator
from .model import Polarity, SentimentJudgment, Spot, Subject
from .spotting import NamedEntitySpotter, SubjectSpotter

#: Nominal simulated cost one pipeline stage charges per mining call
#: (one document for ``mine_document``) — keeps standalone-miner span
#: durations in the same currency the cluster uses (one entity ≈ 1.0
#: units across its stages).
STAGE_COST = 0.25


@dataclass
class MiningStats:
    """Counters describing one mining run."""

    documents: int = 0
    sentences: int = 0
    spots_found: int = 0
    spots_on_topic: int = 0
    judgments_polar: int = 0
    judgments_neutral: int = 0

    def merge(self, other: "MiningStats") -> None:
        self.documents += other.documents
        self.sentences += other.sentences
        self.spots_found += other.spots_found
        self.spots_on_topic += other.spots_on_topic
        self.judgments_polar += other.judgments_polar
        self.judgments_neutral += other.judgments_neutral


@dataclass
class MiningResult:
    """Judgments plus run statistics.

    ``audit`` carries the decision audit trail for the run — one entry
    per disambiguator keep/filter and per sentiment judgment — when the
    miner was built with an auditing :class:`~repro.obs.Obs` context;
    it stays empty under the zero-cost default.
    """

    judgments: list[SentimentJudgment] = field(default_factory=list)
    stats: MiningStats = field(default_factory=MiningStats)
    audit: list[AuditEntry] = field(default_factory=list)

    def polar_judgments(self) -> list[SentimentJudgment]:
        return [j for j in self.judgments if j.polarity.is_polar]

    def by_subject(self) -> dict[str, list[SentimentJudgment]]:
        out: dict[str, list[SentimentJudgment]] = {}
        for judgment in self.judgments:
            out.setdefault(judgment.subject_name, []).append(judgment)
        return out


class SentimentMiner:
    """Entity-level sentiment miner with two operational modes."""

    def __init__(
        self,
        subjects: list[Subject] | None = None,
        analyzer: SentimentAnalyzer | None = None,
        disambiguator: Disambiguator | None = None,
        context_rule: ContextWindowRule | None = None,
        obs: Obs | None = None,
        spotter: SubjectSpotter | None = None,
        split_memo_size: int = 64,
    ):
        self._obs = obs if obs is not None else Obs.default()
        self._subjects = list(subjects or [])
        self._analyzer = analyzer or SentimentAnalyzer(obs=self._obs)
        self._disambiguator = disambiguator
        self._context_builder = ContextBuilder(context_rule)
        # ``spotter`` overrides the compiled default — the differential
        # test harness injects the naive reference implementation here.
        if spotter is not None:
            self._spotter = spotter
        else:
            self._spotter = SubjectSpotter(self._subjects) if self._subjects else None
        self._ne_spotter = NamedEntitySpotter()
        self._tokenizer = Tokenizer()
        self._splitter = SentenceSplitter(self._tokenizer, memo_size=split_memo_size)

    @property
    def analyzer(self) -> SentimentAnalyzer:
        return self._analyzer

    @property
    def subjects(self) -> list[Subject]:
        return list(self._subjects)

    # -- mode A: predefined subject set -------------------------------------------

    def mine_document(self, text: str, document_id: str = "") -> MiningResult:
        """Run the Fig. 2 pipeline on one document (a batch of one)."""
        return self._mine_stages(
            [(document_id, text)], "mine.document", document_id=document_id, mode="A"
        )

    def mine_batch(self, documents: Iterable[tuple[str, str]]) -> MiningResult:
        """Mode A over a document batch in one call.

        Runs the same stage-major body as :meth:`mine_document`, so the
        result equals :meth:`mine_corpus` on the same documents: same
        judgments in the same order, same stats, same audit entries.  It
        is no faster on the wall clock; the one difference is that the
        simulated clock is charged once per stage for the whole batch
        rather than once per stage per document.
        """
        documents = list(documents)
        return self._mine_stages(
            documents, "mine.batch", mode="A", documents=len(documents)
        )

    def mine_corpus(self, documents: Iterable[tuple[str, str]]) -> MiningResult:
        """Mine ``(document_id, text)`` pairs, one :meth:`mine_document` call each."""
        return self._mine_each(documents, self.mine_document, "A")

    def _mine_stages(
        self, batch: list[tuple[str, str]], span_name: str, **attributes
    ) -> MiningResult:
        """The one mode-A body: split all, spot all, disambiguate all, analyze all.

        Each charged stage (spot, disambiguate when configured, analyze)
        advances the sim clock by one ``STAGE_COST`` per call, whatever
        the batch size; splitting is uncharged.  The global audit trail
        records stage-major, but ``MiningResult.audit`` is reassembled in
        document order: each document's keep/filter entries, then its
        sentiment entries.
        """
        spotter = self._spotter
        if spotter is None:
            raise ValueError("mode A requires a predefined subject list")
        obs = self._obs
        tracer = obs.tracer
        audit = obs.audit
        total = MiningResult()
        stats = total.stats
        with tracer.span(span_name, **attributes) as root:
            sentences_by_doc = [self._splitter.split_text(text) for _, text in batch]
            stats.documents = len(batch)
            stats.sentences = sum(map(len, sentences_by_doc))
            with tracer.span("stage.spot", sentences=stats.sentences) as span:
                obs.clock.advance(STAGE_COST)
                spots_by_doc = [
                    spotter.spot_document(sentences, document_id)
                    for (document_id, _), sentences in zip(batch, sentences_by_doc)
                ]
                stats.spots_found = sum(map(len, spots_by_doc))
                span.set_attribute("spots", stats.spots_found)
            audit_by_doc: list[list[AuditEntry]] = [[] for _ in batch]
            if self._disambiguator is not None:
                with tracer.span("stage.disambiguate", spots=stats.spots_found) as span:
                    obs.clock.advance(STAGE_COST)
                    for position, sentences in enumerate(sentences_by_doc):
                        mark = audit.mark()
                        spots_by_doc[position] = self._disambiguator.disambiguate(
                            sentences, spots_by_doc[position], audit=audit
                        ).on_topic
                        audit_by_doc[position] = audit.since(mark)
                    span.set_attribute("on_topic", sum(map(len, spots_by_doc)))
            stats.spots_on_topic = sum(map(len, spots_by_doc))

            grouped: list[dict[int, list[Spot]]] = []
            for spots in spots_by_doc:
                spots_by_sentence: dict[int, list[Spot]] = {}
                for spot in spots:
                    spots_by_sentence.setdefault(spot.sentence_index, []).append(spot)
                grouped.append(spots_by_sentence)
            with tracer.span(
                "stage.analyze", sentences_with_spots=sum(map(len, grouped))
            ):
                obs.clock.advance(STAGE_COST)
                for sentences, spots_by_sentence, doc_audit in zip(
                    sentences_by_doc, grouped, audit_by_doc
                ):
                    mark = audit.mark()
                    self._analyze_spotted(sentences, spots_by_sentence, total)
                    total.audit.extend(doc_audit)
                    total.audit.extend(audit.since(mark))
            root.set_attribute("judgments", len(total.judgments))
        self._publish(total)
        return total

    def _analyze_spotted(
        self,
        sentences: list,
        spots_by_sentence: dict[int, list[Spot]],
        result: MiningResult,
    ) -> None:
        """Judge every spotted sentence, recording into *result*."""
        for index, sentence_spots in sorted(spots_by_sentence.items()):
            sentence = sentences[index]
            tagged = self._analyzer.tag(sentence)
            judgments = self._analyzer.judge_spots(tagged, sentence_spots)
            judgments, inherited = self._widen_with_context(
                sentences, index, judgments
            )
            self._record(result, judgments, context_inherited=inherited)

    def _widen_with_context(
        self,
        sentences: list,
        index: int,
        judgments: list[SentimentJudgment],
    ) -> tuple[list[SentimentJudgment], frozenset[int]]:
        """Context-window attribution for anaphora.

        When the window rule includes neighbouring sentences, a spot left
        NEUTRAL by its own sentence inherits a polarity assigned to a bare
        pronoun subject in a window sentence ("I tested the zoom.  It is
        superb.") — the paper's "possibly some surrounding text of the
        sentence determined by the sentiment context window formation
        rule".

        Returns the (possibly rewritten) judgments plus the positions
        that inherited their polarity from the window, so the audit
        trail can label them ``context-window`` rather than
        ``pattern-match``.
        """
        rule = self._context_builder.rule
        if rule.sentences_after == 0 and rule.sentences_before == 0:
            return judgments, frozenset()
        if all(j.polarity.is_polar for j in judgments):
            return judgments, frozenset()
        neighbor_indices = [
            i
            for i in range(index - rule.sentences_before, index + rule.sentences_after + 1)
            if i != index and 0 <= i < len(sentences)
        ]
        inherited: Polarity | None = None
        provenance = None
        for i in neighbor_indices:
            tagged = self._analyzer.tag(sentences[i])
            assignment = self._analyzer.pronoun_assignment(tagged)
            if assignment is not None:
                inherited = assignment.polarity
                provenance = assignment.provenance
                break
        if inherited is None:
            return judgments, frozenset()
        widened = []
        inherited_positions = set()
        for position, judgment in enumerate(judgments):
            if judgment.polarity.is_polar:
                widened.append(judgment)
            else:
                inherited_positions.add(position)
                widened.append(
                    SentimentJudgment(
                        spot=judgment.spot,
                        polarity=inherited,
                        provenance=provenance,
                        sentence_span=judgment.sentence_span,
                    )
                )
        return widened, frozenset(inherited_positions)

    def contexts(self, text: str, document_id: str = "") -> Iterator:
        """Yield the sentiment contexts mode A would analyze (for tooling)."""
        if self._spotter is None:
            raise ValueError("mode A requires a predefined subject list")
        sentences = self._splitter.split_text(text)
        for spot in self._spotter.spot_document(sentences, document_id):
            yield self._context_builder.build(sentences, spot)

    # -- mode B: open subjects ------------------------------------------------------

    def mine_open_document(self, text: str, document_id: str = "") -> MiningResult:
        """Run the Fig. 3 pipeline: named entities as subjects.

        Only sentiment-bearing sentences are analyzed, mirroring the
        paper's offline whole-corpus pass that feeds the sentiment index.
        """
        obs = self._obs
        audit_mark = obs.audit.mark()
        result = MiningResult()
        result.stats.documents = 1
        with obs.tracer.span(
            "mine.document", document_id=document_id, mode="B"
        ) as doc_span:
            sentences = self._splitter.split_text(text)
            result.stats.sentences = len(sentences)
            obs.clock.advance(STAGE_COST)
            for sentence in sentences:
                tagged = self._analyzer.tag(sentence)
                spots = self._ne_spotter.spot_sentence(tagged, document_id)
                result.stats.spots_found += len(spots)
                if not spots or not self._analyzer.bears_sentiment(tagged):
                    continue
                result.stats.spots_on_topic += len(spots)
                judgments = self._analyzer.judge_spots(tagged, spots)
                self._record(result, judgments)
            doc_span.set_attribute("judgments", len(result.judgments))
        self._publish(result)
        result.audit = obs.audit.since(audit_mark)
        return result

    def mine_open_corpus(self, documents: Iterable[tuple[str, str]]) -> MiningResult:
        """Mode B over ``(document_id, text)`` pairs."""
        return self._mine_each(documents, self.mine_open_document, "B")

    # -- shared ------------------------------------------------------------------------

    def _mine_each(
        self,
        documents: Iterable[tuple[str, str]],
        mine_one: Callable[[str, str], MiningResult],
        mode: str,
    ) -> MiningResult:
        """Concatenate ``mine_one(text, document_id)`` over *documents*."""
        total = MiningResult()
        with self._obs.tracer.span("mine.corpus", mode=mode) as span:
            for document_id, text in documents:
                result = mine_one(text, document_id)
                total.judgments.extend(result.judgments)
                total.stats.merge(result.stats)
                total.audit.extend(result.audit)
            span.set_attribute("documents", total.stats.documents)
            span.set_attribute("judgments", len(total.judgments))
        return total

    def _record(
        self,
        result: MiningResult,
        judgments: list[SentimentJudgment],
        context_inherited: frozenset[int] = frozenset(),
    ) -> None:
        """Accumulate judgments into *result*, auditing each decision."""
        audit = self._obs.audit
        for position, judgment in enumerate(judgments):
            result.judgments.append(judgment)
            if judgment.polarity is Polarity.NEUTRAL:
                result.stats.judgments_neutral += 1
            else:
                result.stats.judgments_polar += 1
            reason = CONTEXT_WINDOW if position in context_inherited else None
            audit_judgment(audit, judgment, reason)

    def _publish(self, result: MiningResult) -> None:
        """Mirror the run's :class:`MiningStats` into the metrics registry."""
        metrics = self._obs.metrics
        stats = result.stats
        self._analyzer.publish_memo_metrics(self._splitter)
        metrics.counter("miner.documents").inc(stats.documents)
        metrics.counter("miner.sentences").inc(stats.sentences)
        metrics.counter("miner.spots_found").inc(stats.spots_found)
        metrics.counter("miner.spots_on_topic").inc(stats.spots_on_topic)
        metrics.counter("miner.judgments_polar").inc(stats.judgments_polar)
        metrics.counter("miner.judgments_neutral").inc(stats.judgments_neutral)
