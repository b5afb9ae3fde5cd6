"""The sentiment miner as a platform entity miner.

Two adapters, one per operational mode:

* :class:`SentimentEntityMiner` — mode A: reads the ``spot`` layer,
  writes ``sentiment`` annotations;
* :class:`OpenSentimentEntityMiner` — mode B: reads the ``entity`` layer
  (named entities), analyzes sentiment-bearing sentences only.

Sentiment annotations span the *spot* and carry polarity in ``label``
plus provenance in attributes, so the indexer can turn them into
conceptual tokens and the :class:`~repro.platform.indexer.SentimentIndex`
can be rebuilt from stored entities alone.
"""

from __future__ import annotations

from ..core.analyzer import SentimentAnalyzer, audit_judgment
from ..core.model import Polarity, SentimentJudgment, Spot, Subject
from ..obs import Obs
from ..core.entity import Annotation, Entity
from ..core.mining import EntityMiner
from . import base


def _annotate_judgment(entity: Entity, judgment: SentimentJudgment) -> None:
    entity.annotate(
        Annotation.make(
            base.SENTIMENT_LAYER,
            judgment.spot.start,
            judgment.spot.end,
            label=judgment.polarity.value,
            subject=judgment.subject_name,
            pattern=judgment.provenance.pattern,
            predicate=judgment.provenance.predicate,
            negated=judgment.provenance.negated,
        )
    )


def judgments_from(entity: Entity) -> list[SentimentJudgment]:
    """Rebuild judgments from a stored entity's ``sentiment`` layer."""
    judgments: list[SentimentJudgment] = []
    for annotation in entity.layer(base.SENTIMENT_LAYER):
        subject = Subject(annotation.attribute("subject", entity.text_of(annotation)))
        spot = Spot(
            subject=subject,
            term=entity.text_of(annotation),
            span=annotation.span,
            sentence_index=0,
            document_id=entity.entity_id,
        )
        judgments.append(
            SentimentJudgment(spot=spot, polarity=Polarity.from_symbol(annotation.label))
        )
    return judgments


class SentimentEntityMiner(EntityMiner):
    """Mode A: judge every spotted subject occurrence."""

    name = "sentiment-miner"
    requires = (base.TOKEN_LAYER, base.SENTENCE_LAYER, base.SPOT_LAYER)
    provides = (base.SENTIMENT_LAYER,)

    def __init__(
        self,
        analyzer: SentimentAnalyzer | None = None,
        polar_only: bool = False,
        obs: Obs | None = None,
    ):
        self._obs = obs if obs is not None else Obs.default()
        self._analyzer = analyzer or SentimentAnalyzer(obs=self._obs)
        self._polar_only = polar_only

    @property
    def analyzer(self) -> SentimentAnalyzer:
        return self._analyzer

    def process(self, entity: Entity) -> None:
        entity.clear_layer(base.SENTIMENT_LAYER)
        sentences = base.sentences_from(entity)
        spots = base.spots_from(entity)
        spots_by_sentence: dict[int, list] = {}
        for spot in spots:
            spots_by_sentence.setdefault(spot.sentence_index, []).append(spot)
        by_index = {s.index: s for s in sentences}
        for index, sentence_spots in sorted(spots_by_sentence.items()):
            sentence = by_index.get(index)
            if sentence is None:
                continue
            tagged = self._analyzer.tag(sentence)
            for judgment in self._analyzer.judge_spots(tagged, sentence_spots):
                if self._polar_only and not judgment.polarity.is_polar:
                    continue
                audit_judgment(self._obs.audit, judgment)
                _annotate_judgment(entity, judgment)


class OpenSentimentEntityMiner(EntityMiner):
    """Mode B: judge named entities in sentiment-bearing sentences."""

    name = "open-sentiment-miner"
    requires = (base.TOKEN_LAYER, base.SENTENCE_LAYER, base.POS_LAYER, base.ENTITY_LAYER)
    provides = (base.SENTIMENT_LAYER,)

    def __init__(self, analyzer: SentimentAnalyzer | None = None, obs: Obs | None = None):
        self._obs = obs if obs is not None else Obs.default()
        self._analyzer = analyzer or SentimentAnalyzer(obs=self._obs)

    def process(self, entity: Entity) -> None:
        entity.clear_layer(base.SENTIMENT_LAYER)
        ne_spots = [
            Spot(
                subject=Subject(a.label),
                term=entity.text_of(a),
                span=a.span,
                sentence_index=int(a.attribute("sentence", 0)),
                document_id=entity.entity_id,
            )
            for a in entity.layer(base.ENTITY_LAYER)
        ]
        if not ne_spots:
            return
        spots_by_sentence: dict[int, list[Spot]] = {}
        for spot in ne_spots:
            spots_by_sentence.setdefault(spot.sentence_index, []).append(spot)
        for tagged in base.tagged_sentences_from(entity):
            sentence_spots = spots_by_sentence.get(tagged.index)
            if not sentence_spots or not self._analyzer.bears_sentiment(tagged):
                continue
            for judgment in self._analyzer.judge_spots(tagged, sentence_spots):
                if judgment.polarity.is_polar:
                    audit_judgment(self._obs.audit, judgment)
                    _annotate_judgment(entity, judgment)
