"""Retrieval-augmented generation: a TF-IDF vector index.

Used twice in the reproduction: the HLS repair loop retrieves correction
templates (Fig. 2 stage 2), and the structured flows retrieve few-shot
examples.  The index is a plain TF-IDF cosine retriever — no network, no
embedding model, fully deterministic.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Document:
    doc_id: str
    text: str
    payload: object = None   # arbitrary attachment (e.g. a RepairTemplate)


@dataclass(frozen=True)
class Retrieval:
    document: Document
    score: float


_WORD_RE = re.compile(r"[a-z0-9_]+")


def _terms(text: str) -> list[str]:
    return _WORD_RE.findall(text.lower())


@dataclass
class VectorIndex:
    """TF-IDF index with cosine similarity retrieval."""

    documents: list[Document] = field(default_factory=list)
    _df: dict[str, int] = field(default_factory=dict)
    _vectors: list[dict[str, float]] = field(default_factory=list)
    _dirty: bool = False

    def add(self, document: Document) -> None:
        self.documents.append(document)
        self._dirty = True

    def __len__(self) -> int:
        return len(self.documents)

    def _rebuild(self) -> None:
        self._df = {}
        term_lists: list[dict[str, int]] = []
        for doc in self.documents:
            counts: dict[str, int] = {}
            for term in _terms(doc.text):
                counts[term] = counts.get(term, 0) + 1
            term_lists.append(counts)
            for term in counts:
                self._df[term] = self._df.get(term, 0) + 1
        n = max(1, len(self.documents))
        self._vectors = []
        for counts in term_lists:
            vec: dict[str, float] = {}
            for term, tf in counts.items():
                idf = math.log((1 + n) / (1 + self._df[term])) + 1.0
                vec[term] = (1.0 + math.log(tf)) * idf
            norm = math.sqrt(sum(w * w for w in vec.values())) or 1.0
            self._vectors.append({t: w / norm for t, w in vec.items()})
        self._dirty = False

    def query(self, text: str, top_k: int = 3,
              min_score: float = 0.0) -> list[Retrieval]:
        """Return the ``top_k`` most similar documents to ``text``."""
        if self._dirty or (self.documents and not self._vectors):
            self._rebuild()
        if not self.documents:
            return []
        counts: dict[str, int] = {}
        for term in _terms(text):
            counts[term] = counts.get(term, 0) + 1
        n = max(1, len(self.documents))
        qvec: dict[str, float] = {}
        for term, tf in counts.items():
            idf = math.log((1 + n) / (1 + self._df.get(term, 0))) + 1.0
            qvec[term] = (1.0 + math.log(tf)) * idf
        qnorm = math.sqrt(sum(w * w for w in qvec.values())) or 1.0
        scored: list[Retrieval] = []
        for doc, dvec in zip(self.documents, self._vectors):
            score = sum(w * dvec.get(t, 0.0) for t, w in qvec.items()) / qnorm
            if score > min_score:
                scored.append(Retrieval(doc, score))
        scored.sort(key=lambda r: (-r.score, r.document.doc_id))
        return scored[:top_k]


def build_template_index(templates) -> VectorIndex:
    """Index repair templates by their retrieval text (see repro.hls.transforms).

    The issue codes a template fixes are part of its indexed text — a real
    correction library is keyed by tool error code, and queries lead with
    the code from the compile log.
    """
    index = VectorIndex()
    for template in templates:
        codes = " ".join(template.issue_codes)
        index.add(Document(template.template_id,
                           f"{codes} {template.retrieval_text} "
                           f"{template.description}",
                           payload=template))
    return index
