"""Record synthesis: per-page RNG streams, the record emitter, the fleet driver.

An extractor turns a page into records by walking its content
(:meth:`~repro.extract.base.Extractor._synthesize_page`, one per family)
and pushing every (subject, predicate, mention) it identifies through one
record emitter, which appends the record as a row of its window's table
(:class:`~repro.extract.records.TableBuilder`).  This module is
everything around the walk; it is the one implementation of record
synthesis, held bit for bit to the scalar walk it replaced
(``tests/oracle/extract.py``) and to committed record-stream
fingerprints (``tests/extract/test_pipeline.py``).

Why the draws themselves cannot be columnised: a page's generator is
``default_rng(split_seed(seed, "extract", name, url))`` and its draw
*sequence* is data-dependent (a misgrab draw may or may not consume an
``integers`` draw before the mangle draw; ``beta``/``normal`` use
rejection sampling with variable bitstream consumption).  Reordering or
batching the draws would change every downstream value and break the
golden metrics.  What *is* vectorised is everything around them:

- **Seed-array keying** — per-page seeds ``(seed, extractor, url)`` are
  produced by one :func:`seed_array` call (the shared ``split_seed``
  prefix is folded once per extractor, then one hash per URL, the same
  factoring ``coverage_mask`` uses).
- **Generator provisioning** — ``default_rng(seed)`` costs ~10 µs/page,
  ~90% of it ``SeedSequence`` pool mixing and object construction.
  :class:`PageRNGBank` reimplements the ``SeedSequence`` → PCG64 seeding
  pipeline as uint32/uint64 column arithmetic over the whole seed array
  (verified bitwise against ``np.random.PCG64(seed).state`` by the unit
  suite), then *reuses one* ``Generator`` whose PCG64 state is reset per
  page — the draw stream is bit-identical to a fresh
  ``default_rng(seed)`` at a fraction of the cost.
- **Pure lookups** — ambiguity and the canonical text of a parsed
  literal, linked entity or raw string are pure functions of their
  inputs; :class:`SynthesisCaches` memoises them shard-wide, which is
  bitwise-safe because equal inputs produce equal texts.
- **Emission** — :func:`make_emitter` builds the emitter as a closure
  with every attribute/method resolved once per window instead of once
  per record, and :func:`emit_plan` carries the per-predicate constants.
  An emission is one :meth:`~repro.extract.records.TableBuilder.add`:
  the triple's canonical text, the provenance strings, the confidence,
  the mention's ``fact_ref`` and the two mechanism flags.  No value,
  triple or record object is built.

:func:`synthesize_window` drives a whole fleet over a page window in the
pipeline's canonical order (page-major, extractor-major) and is the
entry point behind ``ExtractionPipeline.run``; :func:`synthesize_batch`
is the same driver decoded into per-page record lists.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.extract.records import ExtractionRecord, TableBuilder, records_from_wire
from repro.kb.schema import ValueKind
from repro.rng import split_seed, stream_seed
from repro.world.literals import parse_literal, parse_literal_naive

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.extract.base import Extractor
    from repro.world.webgen import WebPage

__all__ = [
    "PageRNGBank",
    "SynthesisCaches",
    "emit_plan",
    "make_emitter",
    "seed_array",
    "synthesize_batch",
    "synthesize_window",
]


# ---------------------------------------------------------------------------
# Seed arrays
# ---------------------------------------------------------------------------


def seed_array(master_seed: int, names: Sequence[str], leaves: Sequence[str]) -> np.ndarray:
    """Per-leaf ``split_seed`` values as one uint64 array.

    ``seed_array(seed, ("extract", name), urls)[i]`` equals
    ``split_seed(seed, "extract", name, urls[i])`` exactly: ``split_seed``
    folds left-to-right, so the shared prefix is hashed once and each
    leaf costs a single ``stream_seed`` — one sha256 per page instead of
    one per path component.
    """
    prefix = split_seed(master_seed, *names)
    n = len(leaves)
    return np.fromiter(
        (stream_seed(prefix, leaf) for leaf in leaves), np.uint64, count=n
    )


# ---------------------------------------------------------------------------
# Vectorised SeedSequence -> PCG64 seeding
# ---------------------------------------------------------------------------
# Constants from numpy's _seed_seq hash mixer (bit_generator.pyx) and the
# PCG64 LCG (pcg64.h).  The uint32 hashing below is the exact algorithm
# ``SeedSequence(seed).generate_state(4, uint64)`` runs, evaluated as
# column operations over all seeds at once; ``hash_const`` is a *shared
# scalar* sequence (it advances per hash call, independent of the data),
# kept as a masked python int so scalar-overflow warnings never fire —
# array multiplies wrap silently, which is the semantics the mixer wants.

_XSHIFT = np.uint32(16)
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_MASK32 = 0xFFFFFFFF

_PCG_MULT_HI = np.uint64(0x2360ED051FC65DA4)
_PCG_MULT_LO = np.uint64(0x4385DF649FCCF645)
_U64_MASK32 = np.uint64(0xFFFFFFFF)
_U64_1 = np.uint64(1)
_U64_32 = np.uint64(32)
_U64_63 = np.uint64(63)


def _seedseq_words(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, uint64)`` for every seed.

    ``seeds`` is a uint64 array; returns an ``(n, 4)`` uint64 array.  The
    entropy of a 64-bit seed is its two little-endian uint32 limbs; a
    seed below 2**32 has one-limb entropy in numpy, but the pool slot it
    leaves empty is filled with ``hash(0)`` — identical to hashing an
    explicit zero limb, so the two-limb spelling is exact for all seeds.
    """
    n = seeds.shape[0]
    entropy = (
        (seeds & np.uint64(0xFFFFFFFF)).astype(np.uint32),
        (seeds >> _U64_32).astype(np.uint32),
        np.zeros(n, dtype=np.uint32),
        np.zeros(n, dtype=np.uint32),
    )
    pool = np.empty((4, n), dtype=np.uint32)
    hash_const = _INIT_A
    for index in range(4):
        value = entropy[index] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        value ^= value >> _XSHIFT
        pool[index] = value
    for i_src in range(4):
        for i_dst in range(4):
            if i_src == i_dst:
                continue
            hashed = pool[i_src] ^ np.uint32(hash_const)
            hash_const = (hash_const * _MULT_A) & _MASK32
            hashed = hashed * np.uint32(hash_const)
            hashed ^= hashed >> _XSHIFT
            mixed = (pool[i_dst] * _MIX_MULT_L) - (hashed * _MIX_MULT_R)
            mixed ^= mixed >> _XSHIFT
            pool[i_dst] = mixed
    words32 = np.empty((8, n), dtype=np.uint32)
    hash_const = _INIT_B
    for index in range(8):
        value = pool[index % 4] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        value ^= value >> _XSHIFT
        words32[index] = value
    words = np.empty((n, 4), dtype=np.uint64)
    for k in range(4):
        low = words32[2 * k].astype(np.uint64)
        high = words32[2 * k + 1].astype(np.uint64)
        words[:, k] = low | (high << _U64_32)
    return words


def _mul128_lo(a_hi, a_lo, b_hi, b_lo):
    """Low 128 bits of ``(a_hi:a_lo) * (b_hi:b_lo)`` as (hi, lo) uint64
    columns, with the 64×64 full product done in 32-bit halves."""
    lo = a_lo * b_lo
    a0 = a_lo & _U64_MASK32
    a1 = a_lo >> _U64_32
    b0 = b_lo & _U64_MASK32
    b1 = b_lo >> _U64_32
    m0 = a0 * b0
    m1 = a0 * b1
    m2 = a1 * b0
    carry = ((m0 >> _U64_32) + (m1 & _U64_MASK32) + (m2 & _U64_MASK32)) >> _U64_32
    hi = a1 * b1 + (m1 >> _U64_32) + (m2 >> _U64_32) + carry
    hi = hi + a_lo * b_hi + a_hi * b_lo
    return hi, lo


def _pcg64_states(words: np.ndarray):
    """The PCG64 ``srandom`` seeding for every 4-word row of ``words``.

    Mirrors ``pcg_setseq_128_srandom_r``: ``inc = (initseq << 1) | 1``,
    ``state = (inc + initstate) * PCG_MULT + inc`` (mod 2**128), where
    ``initstate = words[0]:words[1]`` and ``initseq = words[2]:words[3]``
    (high:low).  Returns (state_hi, state_lo, inc_hi, inc_lo) columns.
    """
    is_hi, is_lo = words[:, 0], words[:, 1]
    iq_hi, iq_lo = words[:, 2], words[:, 3]
    inc_hi = (iq_hi << _U64_1) | (iq_lo >> _U64_63)
    inc_lo = (iq_lo << _U64_1) | _U64_1
    s_lo = inc_lo + is_lo
    s_hi = inc_hi + is_hi + (s_lo < inc_lo).astype(np.uint64)
    t_hi, t_lo = _mul128_lo(s_hi, s_lo, _PCG_MULT_HI, _PCG_MULT_LO)
    state_lo = t_lo + inc_lo
    state_hi = t_hi + inc_hi + (state_lo < t_lo).astype(np.uint64)
    return state_hi, state_lo, inc_hi, inc_lo


class PageRNGBank:
    """One reusable ``Generator`` over per-page PCG64 streams.

    Seeding all pages is a handful of array passes; :meth:`reset`
    switches the bank's single generator onto page ``slot``'s stream by
    writing the precomputed 128-bit ``(state, inc)`` pair into its
    ``PCG64`` — bit-identical draws to
    ``np.random.default_rng(seeds[slot])``, without a per-page
    ``SeedSequence``/``Generator`` construction.
    """

    __slots__ = ("generator", "_bit_generator", "_states", "_incs")

    def __init__(self, seeds: np.ndarray) -> None:
        seeds = np.ascontiguousarray(seeds, dtype=np.uint64)
        state_hi, state_lo, inc_hi, inc_lo = _pcg64_states(_seedseq_words(seeds))
        # 128-bit python ints, which the collector does not track; the
        # state dict is built per reset (one state-setter call, ~1 µs vs
        # ~10 µs for default_rng).
        self._states = [
            (hi << 64) | lo for hi, lo in zip(state_hi.tolist(), state_lo.tolist())
        ]
        self._incs = [(hi << 64) | lo for hi, lo in zip(inc_hi.tolist(), inc_lo.tolist())]
        self._bit_generator = np.random.PCG64(0)
        self.generator = np.random.Generator(self._bit_generator)

    def reset(self, slot: int) -> np.random.Generator:
        """Point the bank's generator at page ``slot``'s stream."""
        self._bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": self._states[slot], "inc": self._incs[slot]},
            "has_uint32": 0,
            "uinteger": 0,
        }
        return self.generator


# ---------------------------------------------------------------------------
# Batch-wide memoisation
# ---------------------------------------------------------------------------


class SynthesisCaches:
    """Pure-lookup memos shared across one extraction shard.

    Everything cached here is a deterministic function of its key —
    linker ambiguity counts and the canonical texts of parsed literals,
    linked entities and raw strings — so reuse across pages, windows
    *and extractors* is bitwise-safe.
    """

    __slots__ = ("ambiguity", "parse", "entity_texts", "string_texts")

    def __init__(self) -> None:
        # linker_name -> {surface -> max(1, linker.ambiguity(surface))};
        # nested so the per-record lookup hashes a bare surface string
        # (its hash is cached on the str object) instead of building and
        # hashing a key tuple per record.
        self.ambiguity: dict[str, dict[str, int]] = {}
        # naive_dates -> {(kind, surface) -> value text | None}
        self.parse: dict[bool, dict[tuple[str, str], str | None]] = {}
        # entity id -> "entity:<id>"; surface -> "string:<surface>"
        self.entity_texts: dict[str, str] = {}
        self.string_texts: dict[str, str] = {}


_MISSING = object()

_KIND_OF_VALUEKIND = {
    ValueKind.ENTITY: "entity",
    ValueKind.STRING: "string",
    ValueKind.NUMBER: "number",
    ValueKind.DATE: "date",
}


def emit_plan(extractor: "Extractor", predicate, pattern, reliability: float) -> tuple:
    """Everything the emitter needs that is constant per callsite.

    Pure in ``(extractor profile, predicate, pattern, reliability)`` —
    families build one plan per memo key (template slot, DOM row label,
    table column, itemprop) and hand it to the emitter.  The thresholds
    are the products ``rate * (1.0 - reliability)``, computed once.  The
    emitter's *draw-consumption* gates test the raw rate, not the
    threshold (a zero threshold with a positive rate still consumes a
    draw) — those gates are profile-level constants, so
    :func:`make_emitter` binds them once per extractor rather than
    carrying them per plan.
    """
    profile = extractor.profile
    return (
        predicate.pid,
        pattern,
        reliability,
        profile.misgrab_rate * (1.0 - reliability),
        profile.mangle_rate * (1.0 - reliability),
        _KIND_OF_VALUEKIND[predicate.value_kind],
        predicate.object_type_id if profile.use_type_hints else None,
    )


def make_emitter(
    extractor: "Extractor",
    generator: np.random.Generator,
    caches: SynthesisCaches,
    builder: TableBuilder,
):
    """The record emitter of ``extractor``, drawing from ``generator``.

    The returned ``emit(page, subject_id, plan, mention,
    structure_penalty, slot_mismatch, alternates)`` turns one (subject,
    predicate, object-mention) into one row of ``builder``, or into
    nothing when the extractor's checks reject the mention.  It applies
    misgrab (wrong-mention association against ``alternates``), kind
    checking, span mangling, entity linkage (with string fallback),
    literal parsing and the confidence model, consuming draws in a fixed
    order (misgrab → misgrab index → mangle → confidence) — the order
    every committed record stream depends on.  The object is needed only
    as canonical text, so no value, triple or record object is built.
    Profile/linker/cache lookups are hoisted out of the per-record path;
    the per-predicate derivations arrive in the :func:`emit_plan` tuple.
    """
    profile = extractor.profile
    linker = extractor.linker
    naive_dates = profile.naive_dates
    model = extractor.confidence_model

    # Every hoisted constant rides in as a keyword-only default so the
    # hot path reads them as function locals (LOAD_FAST), not closure
    # cells; callers never pass them.  ``_pool_memo`` is a one-slot
    # identity memo for the misgrab pool's empty-mention prefilter —
    # callers reuse one ``alternates`` tuple across an element's
    # mentions, and list-comprehension filtering is order-preserving, so
    # a memoised base pass plus a per-mention pass yields the same pool
    # list as one filter over ``alternates``.
    def emit(
        page,
        subject_id,
        plan,
        mention,
        structure_penalty=1.0,
        slot_mismatch=False,
        alternates=(),
        *,
        value_kinds=profile.value_kinds,
        kind_checking=profile.kind_checking,
        string_fallback=profile.string_fallback,
        do_misgrab=profile.misgrab_rate > 0,
        do_mangle=profile.mangle_rate > 0,
        extractor_name=extractor.name,
        content_type=extractor.record_content_type,
        resolve=linker.resolve,
        raw_ambiguity=linker.ambiguity,
        ambiguity_cache=caches.ambiguity.setdefault(linker.name, {}),
        parse_cache=caches.parse.setdefault(naive_dates, {}),
        entity_texts=caches.entity_texts,
        string_texts=caches.string_texts,
        rng_random=generator.random,
        rng_integers=generator.integers,
        report=None if model is None else model.bind(generator),
        parse=parse_literal_naive if naive_dates else parse_literal,
        sqrt=math.sqrt,
        add=builder.add,
        _missing=_MISSING,
        _pool_memo=[(), ()],
    ):
        (
            pid,
            pattern,
            reliability,
            misgrab_threshold,
            mangle_threshold,
            expected_kind,
            type_hint,
        ) = plan
        if alternates and do_misgrab and rng_random() < misgrab_threshold:
            if _pool_memo[0] is alternates:
                base = _pool_memo[1]
            else:
                base = [m for m in alternates if m.kind != "empty"]
                _pool_memo[0] = alternates
                _pool_memo[1] = base
            surface = mention.surface
            kind = mention.kind
            # Exclude alternates by surface and kind, not object identity:
            # any same-surface same-kind alternate (a duplicate rendering of
            # this fact, or a different fact that happens to share the
            # surface) reproduces the correct triple when "misgrabbed", so
            # flagging it as a slot mismatch would mark a correct
            # extraction as a triple-identification error.
            pool = [m for m in base if m.surface != surface or m.kind != kind]
            if pool:
                mention = pool[int(rng_integers(len(pool)))]
                slot_mismatch = True
                structure_penalty *= 0.8
        kind = mention.kind
        if kind == "empty":
            return
        if value_kinds is not None and kind not in value_kinds:
            return
        if kind_checking and kind != expected_kind:
            # One exception: an entity mention can still satisfy a
            # *string*-valued predicate through the string fallback — the
            # raw surface is a well-kinded string object (the paper's
            # raw-string objects).  Everything else fails the kind check.
            if not (
                kind == "entity" and expected_kind == "string" and string_fallback
            ):
                return

        span_corrupted = False
        surface = mention.surface
        if do_mangle and rng_random() < mangle_threshold and " " in surface:
            # Span error: keep only the last token ("Mapother IV" style).
            surface = surface.rsplit(" ", 1)[-1]
            span_corrupted = True

        ambiguity = 1
        if kind == "entity" and kind_checking and expected_kind == "string":
            # Kind-checked string predicate (the exception above): emit the
            # raw surface without linking — an entity object would
            # contradict the extractor's own kind check.
            text = string_texts.get(surface)
            if text is None:
                text = string_texts[surface] = "string:" + surface
        elif kind == "entity":
            ambiguity = ambiguity_cache.get(surface)
            if ambiguity is None:
                ambiguity = ambiguity_cache[surface] = max(
                    1, raw_ambiguity(surface)
                )
            linked = resolve(surface, type_hint)
            if linked is not None:
                text = entity_texts.get(linked)
                if text is None:
                    text = entity_texts[linked] = "entity:" + linked
            elif string_fallback and not kind_checking:
                # A kind checker never downgrades an *entity*-valued
                # predicate's object to a raw string.
                text = string_texts.get(surface)
                if text is None:
                    text = string_texts[surface] = "string:" + surface
            else:
                return
        else:
            text = parse_cache.get((kind, surface), _missing)
            if text is _missing:
                value = parse(surface, kind)
                text = parse_cache[(kind, surface)] = (
                    None if value is None else value.canonical()
                )
            if text is None:
                return

        # math.sqrt over np.sqrt: IEEE-identical on scalars and ~10x
        # cheaper than routing one float through a ufunc.
        signal = reliability * structure_penalty * (1.0 / sqrt(ambiguity))
        add(
            f"{subject_id}|{pid}|{text}",
            extractor_name,
            page.url,
            page.site,
            content_type,
            pattern,
            None if report is None else report(signal),
            mention.fact_ref,
            span_corrupted,
            slot_mismatch,
        )

    return emit


# ---------------------------------------------------------------------------
# Fleet-level driver
# ---------------------------------------------------------------------------


def synthesize_window(
    extractors: Sequence["Extractor"],
    pages: Sequence["WebPage"],
    masks: Sequence[np.ndarray],
    caches: SynthesisCaches,
    builder: TableBuilder,
) -> list[int]:
    """Synthesis for a whole fleet: every row of ``pages`` into ``builder``,
    page-major then extractor-major (the pipeline's order), under one
    coverage mask per extractor.  Each extractor keeps its own
    :class:`PageRNGBank` (seeds keyed ``(seed, "extract", name, url)``
    over the pages it covers) and emitter, so every ``(extractor, url)``
    stream consumes the same draws whatever else the window holds.
    Returns the row count of ``builder`` after each page."""
    fleet = []
    for extractor, mask in zip(extractors, masks):
        urls = [pages[index].url for index in np.flatnonzero(mask).tolist()]
        if not urls:
            fleet.append(None)  # covers nothing here: no bank, no emitter
            continue
        bank = PageRNGBank(seed_array(extractor.seed, ("extract", extractor.name), urls))
        emit = make_emitter(extractor, bank.generator, caches, builder)
        fleet.append((bank.reset, extractor._synthesize_page, emit))
    # (page, extractor, bank slot) in row order, as plain ints: the loop
    # allocates nothing the cyclic collector tracks.
    coverage = np.stack(masks, axis=1) if masks else np.zeros((len(pages), 0), bool)
    page_of, extractor_of = np.nonzero(coverage)
    slots = (np.cumsum(coverage, axis=0) - 1)[page_of, extractor_of]
    pair_ends = [0]
    for index, which, slot in zip(page_of.tolist(), extractor_of.tolist(), slots.tolist()):
        reset, walk, emit = fleet[which]
        reset(slot)
        walk(pages[index], emit)
        pair_ends.append(len(builder))
    pages_done = np.searchsorted(page_of, np.arange(len(pages)), side="right")
    return np.asarray(pair_ends)[pages_done].tolist()


def synthesize_batch(
    extractors: Sequence["Extractor"],
    pages: Sequence["WebPage"],
    masks: Sequence[np.ndarray] | None = None,
    caches: SynthesisCaches | None = None,
) -> list[list[ExtractionRecord]]:
    """:func:`synthesize_window` decoded into one unclassified record list
    per page; ``masks`` and ``caches`` are made fresh when not given."""
    if caches is None:
        caches = SynthesisCaches()
    if masks is None:
        masks = [extractor.coverage_mask(pages) for extractor in extractors]
    builder = TableBuilder()
    ends = synthesize_window(extractors, pages, masks, caches, builder)
    records = records_from_wire(builder.finish())
    return [records[start:end] for start, end in zip([0, *ends], ends)]
