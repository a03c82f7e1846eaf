"""Deterministic character-trigram language classifier.

This is the engine's stand-in for the reference's stateful model probe
(`faster-whisper` singleton, /root/reference/langid_service/app/services/
detector.py:20-47, probed at lang_gate.py:310-317) and for fastText
lid.176 in the north star: a *stateful, load-once, score-per-batch*
classifier, built once per Ray worker process and reused by every batch
the cascade's tasks score there (`pipelines/quality_filter._process_model`).
Because the sandbox has no model weights and no network, the model itself
is a byte-trigram multinomial with additive smoothing built from embedded
seed text — fully deterministic across runs, processes and pool sizes (the
property the reference could NOT promise; see SURVEY.md §4.1
"Determinism").

Scoring is vectorized end-to-end: texts are normalized with one C pass per
row (a ``bytes.translate`` on text below U+0100, a regex otherwise),
encoded to UTF-8, concatenated into a single uint8 buffer, and
trigram log-likelihood sums are computed with numpy gather +
``np.add.reduceat`` over per-row ranges — no Python loop over characters
or trigrams.

Trigram lookup is a direct-address table, not a search.  Normalized text
holds exactly 62 distinct UTF-8 byte values (``_LID_BYTES``: ``a``-``z``,
the apostrophe, the space, and ``0xC3`` + ``0x9F``-``0xBF`` for ß-ÿ).  A
256-entry remap sends each of them to a 6-bit code and every other byte
to the spare code 63, which no vocabulary trigram holds; three codes make
an 18-bit trigram key, and a ``1 << 18`` int32 table (1 MiB, built once
per model) holds each vocabulary trigram's profile row and the unseen
row everywhere else.  Two gathers (bytes -> codes, keys -> rows) replace
a binary search over the vocabulary plus its known-check, and give the
same row for every trigram, so scores are bit-identical to the search.

The same instance answers all three model passes of the cascade:
- ``classify``        -> first-pass (lang, prob)        [lang_gate.py:310-317]
- ``classify`` on the filtered text -> second pass      [lang_gate.py:458-461]
- ``forced_choice``   -> EN-vs-FR fallback argmax       [lang_gate.py:222-259]
"""

from __future__ import annotations

import re
from functools import lru_cache

import numpy as np

from .textproc import latin1_bytes, lowered_byte_table

LANGS = ("en", "fr", "de", "es")
SOFTMAX_SCALE = 9.0       # inverse temperature mapping mean-ll gaps to probabilities
NO_SCORE = -99.0          # forced-choice score when a text has no trigrams
                          # (reference uses -99.0 when no segments, lang_gate.py:245)
LID_MAX_CHARS = 256       # classifier reads at most this many normalized chars/row
                          # (256 chars of letter trigrams is ample for LID and
                          # keeps the per-batch gather memory-bandwidth-light)

# keep lowercase letters (incl. latin-1 accents) and apostrophes; everything
# else becomes a space (code symbols dilute trigram mass -> lower confidence,
# the analog of an unspeechy probe)
_LID_CHARS = "a-zß-ÿ'"
_LID_RE = re.compile(f"[{_LID_CHARS}]")
_NORM_RE = re.compile(f"[^{_LID_CHARS}]")
# the same normalization as one byte pass on text below U+0100
_NORM_TABLE = lowered_byte_table(_LID_RE)
# every byte value of ``normalize_for_lid(...).encode("utf-8")``: the UTF-8
# bytes of the LID characters (all below U+0100) and the space
_LID_BYTES = bytes(sorted(set(
    "".join(filter(_LID_RE.fullmatch, map(chr, range(0x100)))).encode("utf-8") + b" "
)))
_CODE_BITS = 6
_OUTSIDE_CODE = (1 << _CODE_BITS) - 1   # bytes outside _LID_BYTES

# --- embedded seed corpora (plain common prose, written for this project) ---
_SEED_TEXTS = {
    "en": (
        "the quick brown fox jumps over the lazy dog and the people of the "
        "town were happy to see that the weather was good today because they "
        "wanted to walk along the river and talk about their plans for the "
        "new year with friends and family members who had come from far away "
        "places to visit them during the holidays and everyone agreed that "
        "this was the best time of the year for such gatherings since the "
        "children could play outside while the adults prepared the dinner "
        "and told stories about the old days when things were different but "
        "not always better than they are now in this modern world full of "
        "machines and computers that help us work faster and communicate "
        "with people everywhere at any time of the day or night without "
        "having to wait for letters that used to take weeks to arrive "
        "please remember to save your work before you close the program "
        "and check that all the files have been written to the disk"
    ),
    "fr": (
        "le petit garçon marche dans la rue avec sa mère et ils regardent "
        "les vitrines des magasins qui sont pleines de jouets et de livres "
        "pour les enfants de tous les âges car la fête approche et tout le "
        "monde veut acheter des cadeaux pour sa famille et ses amis avant "
        "que les prix ne montent encore une fois cette année nous avons "
        "décidé de passer les vacances à la montagne parce que la mer était "
        "trop loin et les routes étaient pleines de voitures qui roulaient "
        "lentement sous le soleil d'été pendant que les oiseaux chantaient "
        "dans les arbres du jardin où les fleurs poussaient entre les "
        "pierres du vieux mur que mon grand père avait construit quand il "
        "était jeune et fort comme un bœuf il ne faut pas oublier de "
        "sauvegarder votre travail avant de fermer le programme et de "
        "vérifier que tous les fichiers ont bien été écrits sur le disque "
        "c'est une belle journée pour apprendre quelque chose de nouveau"
    ),
    "de": (
        "der kleine junge geht mit seiner mutter durch die strasse und sie "
        "schauen sich die schaufenster der geschäfte an die voller "
        "spielzeug und bücher für kinder jeden alters sind denn das fest "
        "naht und alle wollen geschenke für ihre familie und freunde kaufen "
        "bevor die preise wieder steigen dieses jahr haben wir beschlossen "
        "den urlaub in den bergen zu verbringen weil das meer zu weit weg "
        "war und die strassen voller autos waren die langsam unter der "
        "sommersonne fuhren während die vögel in den bäumen des gartens "
        "sangen wo die blumen zwischen den steinen der alten mauer wuchsen "
        "die mein grossvater gebaut hatte als er jung und stark war bitte "
        "denken sie daran ihre arbeit zu speichern bevor sie das programm "
        "schliessen und prüfen sie dass alle dateien geschrieben wurden"
    ),
    "es": (
        "el niño pequeño camina por la calle con su madre y miran los "
        "escaparates de las tiendas que están llenos de juguetes y libros "
        "para niños de todas las edades porque la fiesta se acerca y todo "
        "el mundo quiere comprar regalos para su familia y sus amigos antes "
        "de que los precios suban otra vez este año hemos decidido pasar "
        "las vacaciones en la montaña porque el mar estaba demasiado lejos "
        "y las carreteras estaban llenas de coches que circulaban despacio "
        "bajo el sol de verano mientras los pájaros cantaban en los árboles "
        "del jardín donde las flores crecían entre las piedras del viejo "
        "muro que mi abuelo construyó cuando era joven y fuerte por favor "
        "recuerde guardar su trabajo antes de cerrar el programa y "
        "comprobar que todos los archivos han sido escritos en el disco"
    ),
}


def normalize_for_lid(text: str, max_chars: int = LID_MAX_CHARS) -> str:
    """Lowercase, cap length, and blank out every non-letter character."""
    head = text[:max_chars]
    raw = latin1_bytes(head)
    if raw is None:
        return _NORM_RE.sub(" ", head.lower())
    return raw.translate(_NORM_TABLE).decode("latin-1")


class TrigramLidModel:
    """Load-once trigram tables; score whole batches vectorized.

    Deterministic: profiles are built from module constants in sorted order;
    all arithmetic is float64 numpy with fixed evaluation order.
    """

    def __init__(self) -> None:
        self.langs = LANGS
        counts: dict[int, np.ndarray] = {}
        totals = np.zeros(len(LANGS), dtype=np.float64)
        for li, lang in enumerate(LANGS):
            data = normalize_for_lid(_SEED_TEXTS[lang], max_chars=10**9).encode("utf-8")
            arr = np.frombuffer(data, dtype=np.uint8)
            codes = (
                arr[:-2].astype(np.int64) << 16
            ) | (arr[1:-1].astype(np.int64) << 8) | arr[2:].astype(np.int64)
            uniq, cnt = np.unique(codes, return_counts=True)
            totals[li] = len(codes)
            for code, c in zip(uniq.tolist(), cnt.tolist()):
                row = counts.setdefault(code, np.zeros(len(LANGS), dtype=np.float64))
                row[li] += c

        vocab = np.array(sorted(counts), dtype=np.int32)
        vsize = len(vocab)
        mat = np.zeros((vsize + 1, len(LANGS)), dtype=np.float64)
        for i, code in enumerate(vocab.tolist()):
            mat[i] = counts[code]
        # add-one smoothing; the extra row is the unseen-trigram log-prob
        denom = totals + vsize + 1
        mat = np.log((mat + 1.0) / denom)
        mat[vsize] = np.log(1.0 / denom)
        self._vocab = vocab
        self._logprob = mat
        self._unseen_idx = vsize

        # direct-address lookup: byte -> 6-bit code, 18-bit trigram key ->
        # profile row (see the module docstring)
        remap = np.full(256, _OUTSIDE_CODE, dtype=np.int32)
        remap[np.frombuffer(_LID_BYTES, dtype=np.uint8)] = np.arange(len(_LID_BYTES))
        keys = (
            remap[vocab >> 16] << 2 * _CODE_BITS
        ) | (remap[(vocab >> 8) & 0xFF] << _CODE_BITS) | remap[vocab & 0xFF]
        table = np.full(1 << 3 * _CODE_BITS, vsize, dtype=np.int32)
        table[keys] = np.arange(vsize, dtype=np.int32)
        self._remap = remap
        self._table = table

    # ---- internals -------------------------------------------------------

    def _mean_ll(self, texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
        """Return (mean log-likelihood per lang, trigram count) per text.

        Rows with zero trigrams get mean_ll = 0 and count = 0; callers must
        mask them.
        """
        n = len(texts)
        means = np.zeros((n, len(LANGS)), dtype=np.float64)
        tri_counts = np.zeros(n, dtype=np.int64)
        if n == 0:
            return means, tri_counts

        bufs = [normalize_for_lid(t).encode("utf-8") for t in texts]
        lens = np.fromiter((len(b) for b in bufs), dtype=np.int64, count=n)
        total = int(lens.sum())
        if total == 0:
            return means, tri_counts
        concat = np.frombuffer(b"".join(bufs), dtype=np.uint8)
        starts = np.zeros(n, dtype=np.int64)
        np.cumsum(lens[:-1], out=starts[1:])
        tri_counts = np.maximum(lens - 2, 0)

        if total < 3:
            return means, np.zeros(n, dtype=np.int64)
        codes = self._remap[concat]
        keys = codes[:-2] << 2 * _CODE_BITS
        keys |= codes[1:-1] << _CODE_BITS
        keys |= codes[2:]
        idx = self._table[keys]

        # gather straight into a buffer with one zero pad row (reduceat end
        # sentinel); every index is in range, so mode="clip" only skips the
        # bounds-check buffer that mode="raise" makes for ``out``
        vals = np.empty((len(idx) + 1, len(LANGS)), dtype=np.float64)
        np.take(self._logprob, idx, axis=0, out=vals[:-1], mode="clip")
        vals[-1] = 0.0
        ends = starts + tri_counts
        pairs = np.empty(2 * n, dtype=np.int64)
        pairs[0::2] = np.minimum(starts, len(vals) - 1)
        pairs[1::2] = np.minimum(ends, len(vals) - 1)
        sums = np.add.reduceat(vals, pairs, axis=0)[0::2]
        # reduceat quirk: empty segment (start==end) yields vals[start]; zero it
        empty = tri_counts <= 0
        sums[empty] = 0.0
        with np.errstate(invalid="ignore", divide="ignore"):
            means = np.where(
                tri_counts[:, None] > 0, sums / np.maximum(tri_counts, 1)[:, None], 0.0
            )
        return means, np.where(empty, 0, tri_counts)

    # ---- public API ------------------------------------------------------

    def classify(self, texts: list[str]) -> tuple[list[str], np.ndarray]:
        """Top-1 (language, probability) per text — see classify_full."""
        langs, probs, _ = self.classify_full(texts)
        return langs, probs

    def classify_full(
        self, texts: list[str]
    ) -> tuple[list[str], np.ndarray, np.ndarray]:
        """Top-1 (language, probability, perplexity) per text.

        probability = softmax(SOFTMAX_SCALE * mean_ll) of the argmax lang;
        perplexity = exp(-mean_ll) under the winning profile — the
        KenLM-style character n-gram perplexity signal of the north star
        (lower = more natural-language-like under that language model).
        Texts with no trigrams get ("und", 0.0, inf) — the analog of a
        silent probe producing no usable transcript.
        """
        means, cnt = self._mean_ll(texts)
        z = SOFTMAX_SCALE * means
        z -= z.max(axis=1, keepdims=True)
        ez = np.exp(z)
        probs = ez / ez.sum(axis=1, keepdims=True)
        top = np.argmax(probs, axis=1)
        langs = [
            LANGS[int(top[i])] if cnt[i] > 0 else "und" for i in range(len(texts))
        ]
        rows = np.arange(len(texts))
        p = np.where(cnt > 0, probs[rows, top], 0.0)
        ppl = np.where(cnt > 0, np.exp(-means[rows, top]), np.inf)
        return langs, p, ppl

    def forced_choice(self, texts: list[str], a: str = "en", b: str = "fr") -> list[str]:
        """EN-vs-FR fallback: argmax of mean log-likelihood under each profile;
        ties and no-trigram rows choose ``a`` (reference picks max of a dict
        seeded in en,fr order — lang_gate.py:231-253)."""
        means, cnt = self._mean_ll(texts)
        ia, ib = LANGS.index(a), LANGS.index(b)
        sa = np.where(cnt > 0, means[:, ia], NO_SCORE)
        sb = np.where(cnt > 0, means[:, ib], NO_SCORE)
        return [a if sa[i] >= sb[i] else b for i in range(len(texts))]


@lru_cache(maxsize=1)
def get_model() -> TrigramLidModel:
    """Per-process singleton, mirroring the reference's lazy global model
    (detector.py:20-47), for the row-wise oracle.  The pipeline's cascade
    tasks build theirs through ``model_factory`` instead, once per worker
    process — see ``pipelines/quality_filter._process_model``."""
    return TrigramLidModel()
