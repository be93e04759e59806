"""Record synthesis: per-page RNG streams, the record emitter, the fleet driver.

An extractor turns a page into records by walking its content
(:meth:`~repro.extract.base.Extractor._synthesize_page`, one per family)
and pushing every (subject, predicate, mention) it identifies through one
record emitter.  This module is everything around the walk; it is the one
implementation of record synthesis, held bit for bit to the scalar walk
it replaced (``tests/oracle/extract.py``) and to committed record-stream
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
- **Pure lookups** — ambiguity, literal parsing and value construction
  are pure functions of their inputs; :class:`SynthesisCaches` memoises
  them batch-wide, which is bitwise-safe because equal inputs produce
  equal (``==``) values.
- **Emission** — :func:`make_emitter` builds the emitter as a closure
  with every attribute/method resolved once per batch instead of once
  per record, and :func:`emit_plan` carries the per-predicate constants.

:func:`synthesize_batch` drives a whole fleet over a page list in the
pipeline's canonical order (page-major, extractor-major) and is the
entry point behind ``ExtractionPipeline.run``.
"""

from __future__ import annotations

import gc
import math
from contextlib import contextmanager
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.extract.records import ExtractionDebug, ExtractionRecord
from repro.kb.schema import ValueKind
from repro.kb.triples import Triple
from repro.kb.values import EntityRef, StringValue
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
]


@contextmanager
def _gc_paused():
    """Pause the cyclic GC for a batch-allocation burst.

    Synthesis allocates ~3 tracked objects per record and keeps them all
    live, so every generation-0 pass rescans a growing survivor set for
    cycles that record graphs (frozen, acyclic) cannot contain.  Pausing
    collection for the batch removes that quadratic-ish scan cost;
    nothing is leaked — allocation still happens normally and the GC
    resumes (and catches up) on exit.  Nested pauses are no-ops.
    """
    if gc.isenabled():
        gc.disable()
        try:
            yield
        finally:
            gc.enable()
    else:
        yield

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

    __slots__ = ("generator", "_bit_generator", "_states")

    def __init__(self, seeds: np.ndarray) -> None:
        seeds = np.ascontiguousarray(seeds, dtype=np.uint64)
        state_hi, state_lo, inc_hi, inc_lo = _pcg64_states(_seedseq_words(seeds))
        # Fully-formed state dicts up front: reset() then costs exactly
        # one state-setter call (~1 µs vs ~10 µs for default_rng).
        self._states = [
            {
                "bit_generator": "PCG64",
                "state": {"state": (s_hi << 64) | s_lo, "inc": (i_hi << 64) | i_lo},
                "has_uint32": 0,
                "uinteger": 0,
            }
            for s_hi, s_lo, i_hi, i_lo in zip(
                state_hi.tolist(),
                state_lo.tolist(),
                inc_hi.tolist(),
                inc_lo.tolist(),
            )
        ]
        self._bit_generator = np.random.PCG64(0)
        self.generator = np.random.Generator(self._bit_generator)

    def __len__(self) -> int:
        return len(self._states)

    def reset(self, slot: int) -> np.random.Generator:
        """Point the bank's generator at page ``slot``'s stream."""
        self._bit_generator.state = self._states[slot]
        return self.generator


# ---------------------------------------------------------------------------
# Batch-wide memoisation
# ---------------------------------------------------------------------------


class SynthesisCaches:
    """Pure-lookup memos shared across one ``synthesize_batch`` call.

    Everything cached here is a deterministic function of its key —
    linker ambiguity counts, parsed literals, and interned value objects
    — so reuse across pages *and extractors* is bitwise-safe: records
    compare by value (dataclass ``__eq__`` over every field), and an
    interned ``StringValue``/``EntityRef`` equals a freshly constructed
    one.
    """

    __slots__ = ("ambiguity", "parse", "entity_refs", "strings")

    def __init__(self) -> None:
        # linker_name -> {surface -> max(1, linker.ambiguity(surface))};
        # nested so the per-record lookup hashes a bare surface string
        # (its hash is cached on the str object) instead of building and
        # hashing a key tuple per record.
        self.ambiguity: dict[str, dict[str, int]] = {}
        # naive_dates -> {(kind, surface) -> parsed Value | None}
        self.parse: dict[bool, dict[tuple[str, str], object]] = {}
        self.entity_refs: dict[str, EntityRef] = {}
        self.strings: dict[str, StringValue] = {}


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


def make_emitter(extractor: "Extractor", generator: np.random.Generator, caches: SynthesisCaches):
    """The record emitter of ``extractor``, drawing from ``generator``.

    The returned ``emit(page, subject_id, plan, mention,
    structure_penalty, slot_mismatch, alternates)`` turns one (subject,
    predicate, object-mention) into a record, or None when the
    extractor's checks reject the mention.  It applies misgrab
    (wrong-mention association against ``alternates``), kind checking,
    span mangling, entity linkage (with string fallback), literal parsing
    and the confidence model, consuming draws in a fixed order (misgrab →
    misgrab index → mangle → confidence) — the order every committed
    record stream depends on.  Profile/linker/cache lookups are hoisted
    out of the per-record path; the per-predicate derivations arrive in
    the :func:`emit_plan` tuple.
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
        entity_refs=caches.entity_refs,
        strings=caches.strings,
        rng_random=generator.random,
        rng_integers=generator.integers,
        report=None if model is None else model.bind(generator),
        parse=parse_literal_naive if naive_dates else parse_literal,
        sqrt=math.sqrt,
        record_type=ExtractionRecord,
        debug_type=ExtractionDebug,
        triple_type=Triple,
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
            return None
        if value_kinds is not None and kind not in value_kinds:
            return None
        if kind_checking and kind != expected_kind:
            # One exception: an entity mention can still satisfy a
            # *string*-valued predicate through the string fallback — the
            # raw surface is a well-kinded string object (the paper's
            # raw-string objects).  Everything else fails the kind check.
            if not (
                kind == "entity" and expected_kind == "string" and string_fallback
            ):
                return None

        span_corrupted = False
        surface = mention.surface
        if do_mangle and rng_random() < mangle_threshold and " " in surface:
            # Span error: keep only the last token ("Mapother IV" style).
            surface = surface.rsplit(" ", 1)[-1]
            span_corrupted = True

        ambiguity = 1
        if kind == "entity" and kind_checking and expected_kind == "string":
            # Kind-checked string predicate (the exception above): emit the
            # raw surface without linking — an EntityRef object would
            # contradict the extractor's own kind check.
            value = strings.get(surface)
            if value is None:
                value = strings[surface] = StringValue(surface)
        elif kind == "entity":
            ambiguity = ambiguity_cache.get(surface)
            if ambiguity is None:
                ambiguity = ambiguity_cache[surface] = max(
                    1, raw_ambiguity(surface)
                )
            linked = resolve(surface, type_hint)
            if linked is not None:
                value = entity_refs.get(linked)
                if value is None:
                    value = entity_refs[linked] = EntityRef(linked)
            elif string_fallback and not kind_checking:
                # A kind checker never downgrades an *entity*-valued
                # predicate's object to a raw string.
                value = strings.get(surface)
                if value is None:
                    value = strings[surface] = StringValue(surface)
            else:
                return None
        else:
            value = parse_cache.get((kind, surface), _missing)
            if value is _missing:
                value = parse_cache[(kind, surface)] = parse(surface, kind)
            if value is None:
                return None

        # math.sqrt over np.sqrt: IEEE-identical on scalars and ~10x
        # cheaper than routing one float through a ufunc.
        signal = reliability * structure_penalty * (1.0 / sqrt(ambiguity))
        confidence = None if report is None else report(signal)

        return record_type(
            triple_type(subject_id, pid, value),
            extractor_name,
            page.url,
            page.site,
            content_type,
            pattern,
            confidence,
            debug_type(mention.fact_ref, None, False, span_corrupted, slot_mismatch),
        )

    return emit


# ---------------------------------------------------------------------------
# Fleet-level driver
# ---------------------------------------------------------------------------


def synthesize_batch(
    extractors: Sequence["Extractor"],
    pages: Sequence["WebPage"],
    masks: Sequence[np.ndarray] | None = None,
    caches: SynthesisCaches | None = None,
) -> list[list[ExtractionRecord]]:
    """Synthesis for a whole fleet: one (unclassified) record list per page.

    Records come in the pipeline's canonical order (page-major,
    extractor-major within a page) — each extractor's per-page sublists
    are produced by :meth:`Extractor.extract_pages_batch` and stitched
    back in fleet order.  ``masks`` (one boolean coverage mask per
    extractor, as from :meth:`Extractor.coverage_mask`) and ``caches``
    are computed fresh when not supplied.
    """
    if caches is None:
        caches = SynthesisCaches()
    if masks is None:
        masks = [extractor.coverage_mask(pages) for extractor in extractors]
    # One pause across synthesis *and* stitching: re-enabling mid-way
    # would hand the accumulated allocation debt to the very next
    # allocation — the stitch loop — as one giant collection.
    with _gc_paused():
        per_extractor = [
            extractor.extract_pages_batch(pages, mask=mask, caches=caches)
            for extractor, mask in zip(extractors, masks)
        ]
        per_page: list[list[ExtractionRecord]] = []
        for index in range(len(pages)):
            records: list[ExtractionRecord] = []
            for sublists in per_extractor:
                page_records = sublists[index]
                if page_records:
                    records.extend(page_records)
            per_page.append(records)
    return per_page
