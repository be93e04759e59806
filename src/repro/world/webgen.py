"""Web corpus generation: sites, pages, assertions, rendered content.

A corpus is a set of *sites* (each with a quality level, a date style, a
topical focus and rendering habits) holding *pages*.  Every page asserts a
set of facts about a few entities; with probability equal to the site's
error rate an assertion carries a wrong value drawn from the data item's
shared wrong-value pool (popular wrong values recur across sites — the
"copied false values" POPACCU is robust to); pages may also *copy*
assertions wholesale from earlier pages.  Assertions are then rendered into
TXT / DOM / TBL / ANO content for the extractors to parse.

The hidden :class:`~repro.world.facts.SourceAssertion` list on each page is
the analysis ground truth separating source errors from extraction errors.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.errors import ConfigError
from repro.kb.entities import Entity
from repro.kb.triples import DataItem, Triple
from repro.kb.values import EntityRef, Value
from repro.rng import WeightedChoice, named_rng, zipf_weights
from repro.world.config import WebConfig
from repro.world.content import (
    AnnotationBlock,
    ContentElement,
    DomRow,
    DomTree,
    Mention,
    Sentence,
    TextDocument,
    WebTable,
)
from repro.world.facts import SourceAssertion, World
from repro.world.labels import (
    TemplateSpec,
    ano_prop,
    build_templates,
    dom_label,
    tbl_header,
    templates_for_predicate,
)
from repro.world.literals import DATE_STYLE_EU, DATE_STYLE_ISO, DATE_STYLE_US, render_value

__all__ = [
    "SiteProfile",
    "WebPage",
    "WebCorpus",
    "generate_corpus",
    "stream_corpus",
]

_CATEGORIES = ("wiki", "news", "general")

# The web's shape, fixed like the paper's model parameters; with the world's
# constants in ``worldgen`` and ``facts`` they make the corpus track
# Tables 1-3 and Figures 3-7 at every scale preset.

#: Mean number of assertions per page (geometric, long tail).
FACTS_PER_PAGE_MEAN = 8.0
#: The Beta(alpha, beta) distribution of per-site error rates: the
#: probability a given assertion on the site carries a wrong value.
SITE_ERROR_ALPHA = 1.3
SITE_ERROR_BETA = 7.0
#: When a page errs, probability it picks a *popular* wrong value from the
#: data item's shared pool rather than a one-off one; popular wrong values
#: recur across independent pages.
POPULAR_WRONG_RATE = 0.65
#: Probability a page copies (a slice of) an earlier page of the same site
#: topic, errors included: the paper's copying between sources.
COPY_RATE = 0.08
#: For hierarchical predicates, probability a page asserts a true but more
#: general value (state/country instead of city).
GENERALIZATION_RATE = 0.10
#: Relative propensity of each content type.  Pages get 1-2 renderings,
#: dominated by DOM, then TXT, then ANO, then TBL (cf. Figure 3: DOM 80%,
#: TXT 19%).  Sites draw from it in sorted key order.
CONTENT_MIX = {"DOM": 0.62, "TXT": 0.24, "ANO": 0.12, "TBL": 0.02}
#: A page discusses up to this many entities (tables list many).
MAX_ENTITIES_PER_PAGE = 6

#: A general site's date style: ISO, US or EU.
_DATE_STYLES = (DATE_STYLE_ISO, DATE_STYLE_US, DATE_STYLE_EU)
_DATE_STYLE_CHOICE = WeightedChoice([0.4, 0.4, 0.2])


@dataclass(frozen=True, slots=True)
class SiteProfile:
    """Per-site rendering habits and quality."""

    domain: str
    category: str
    error_rate: float
    date_style: str
    content_weights: tuple[tuple[str, float], ...]
    topic_types: tuple[str, ...]
    merged_born_rows: bool
    alias_usage: float
    subject_col: int
    grouped_numbers: bool


@dataclass(frozen=True, slots=True)
class WebPage:
    """One rendered web page.

    ``assertions`` is the hidden ground truth of what the page claims;
    ``elements`` is what extractors actually see.
    """

    url: str
    site: str
    category: str
    assertions: tuple[SourceAssertion, ...]
    elements: tuple[ContentElement, ...]


@dataclass
class WebCorpus:
    """All generated pages plus their site profiles."""

    config: WebConfig
    sites: dict[str, SiteProfile]
    pages: list[WebPage] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Site generation
# ---------------------------------------------------------------------------
def _make_sites(
    world: World, config: WebConfig, rng: np.random.Generator
) -> dict[str, SiteProfile]:
    type_ids = sorted({spec.type_id for spec in world.specs})
    type_weights = np.array(
        [spec.entity_weight for spec in sorted(world.specs, key=lambda s: s.type_id)]
    )
    type_choice = WeightedChoice(type_weights / type_weights.sum())
    n_wiki = max(1, config.n_sites // 40)
    n_news = max(1, config.n_sites // 10)
    sites: dict[str, SiteProfile] = {}
    mix_names = sorted(CONTENT_MIX)
    mix_base = np.array([CONTENT_MIX[k] for k in mix_names], dtype=float)
    mix_base = mix_base / mix_base.sum()
    for index in range(config.n_sites):
        if index < n_wiki:
            category = "wiki"
            domain = f"wiki{index}.example.org"
        elif index < n_wiki + n_news:
            category = "news"
            domain = f"news{index:03d}.example.org"
        else:
            category = "general"
            domain = f"site{index:04d}.example.org"
        error_rate = float(rng.beta(SITE_ERROR_ALPHA, SITE_ERROR_BETA))
        if category == "wiki":
            error_rate *= 0.3
            date_style = DATE_STYLE_ISO
            topics = tuple(type_ids)
        else:
            if category == "news":
                date_style = DATE_STYLE_US
            else:
                date_style = _DATE_STYLES[_DATE_STYLE_CHOICE.draw(rng)]
            n_topics = int(rng.integers(1, min(4, len(type_ids)) + 1))
            picked = type_choice.draw_distinct(rng, n_topics)
            topics = tuple(sorted(type_ids[i] for i in picked))
        # Per-site content mix: Dirichlet jitter around the corpus mix.
        jitter = rng.dirichlet(mix_base * 12 + 0.08)
        content_weights = tuple(zip(mix_names, (float(x) for x in jitter)))
        sites[domain] = SiteProfile(
            domain=domain,
            category=category,
            error_rate=error_rate,
            date_style=date_style,
            content_weights=content_weights,
            topic_types=topics,
            merged_born_rows=bool(rng.random() < 0.5),
            alias_usage=float(rng.uniform(0.0, 0.5)),
            subject_col=int(rng.random() < 0.15),
            grouped_numbers=bool(rng.random() < 0.3),
        )
    return sites


# ---------------------------------------------------------------------------
# Assertion construction
# ---------------------------------------------------------------------------
def _pick_entities(
    world: World,
    site: SiteProfile,
    rng: np.random.Generator,
    max_entities: int,
) -> list[Entity]:
    pool, popularity = world.topic_pool(site.topic_types)
    if not pool:
        return []
    n = int(rng.integers(1, max_entities + 1))
    n = min(n, len(pool))
    return [pool[i] for i in popularity.draw_distinct(rng, n)]


def _assert_item(
    world: World,
    site: SiteProfile,
    item: DataItem,
    rng: np.random.Generator,
) -> list[SourceAssertion]:
    """Produce the page's claim(s) for one data item."""
    truths = world.truth_values(item)
    if not truths:
        return []
    predicate = world.schema.predicate(item.predicate)
    assertions: list[SourceAssertion] = []
    if rng.random() < site.error_rate:
        popular = rng.random() < POPULAR_WRONG_RATE
        wrong = world.draw_wrong_value(item, rng, popular=popular)
        if wrong is None:
            return []
        triple = Triple(item.subject, item.predicate, wrong)
        # A random wrong location may, by luck, generalise the truth.
        assertions.append(
            SourceAssertion(
                triple=triple,
                true_in_world=world.is_true(triple),
                exact=world.is_true_exact(triple),
            )
        )
        return assertions

    value: Value = truths[int(rng.integers(len(truths)))]
    exact = True
    if (
        predicate.hierarchical
        and isinstance(value, EntityRef)
        and rng.random() < GENERALIZATION_RATE
    ):
        ancestors = world.hierarchy.ancestors(value.entity_id)
        if ancestors:
            value = EntityRef(ancestors[int(rng.integers(len(ancestors)))])
            exact = False
    assertions.append(
        SourceAssertion(
            triple=Triple(item.subject, item.predicate, value),
            true_in_world=True,
            exact=exact,
        )
    )
    # Non-functional items sometimes get a second true value on the page.
    if not predicate.functional and len(truths) > 1 and rng.random() < 0.4:
        others = [t for t in truths if t != value]
        second = others[int(rng.integers(len(others)))]
        assertions.append(
            SourceAssertion(
                triple=Triple(item.subject, item.predicate, second),
                true_in_world=True,
                exact=True,
            )
        )
    return assertions


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------
def _entity_surface(world: World, entity_id: str, site: SiteProfile, rng) -> str:
    entity = world.entities.get(entity_id)
    forms = entity.surface_forms()
    if len(forms) > 1 and rng.random() < site.alias_usage:
        return forms[1 + int(rng.integers(len(forms) - 1))]
    return entity.name


def _value_mention(
    world: World,
    value: Value,
    site: SiteProfile,
    rng,
    fact_ref: int | None,
) -> Mention:
    if isinstance(value, EntityRef):
        return Mention(
            surface=_entity_surface(world, value.entity_id, site, rng),
            kind="entity",
            fact_ref=fact_ref,
        )
    kind = value.canonical().split(":", 1)[0]
    return Mention(
        surface=render_value(value, site.date_style, site.grouped_numbers),
        kind=kind,
        fact_ref=fact_ref,
    )


def _subject_mention(world: World, subject: str, site: SiteProfile, rng) -> Mention:
    return Mention(
        surface=_entity_surface(world, subject, site, rng),
        kind="entity",
        fact_ref=None,
    )


def _render_dom(
    world: World,
    site: SiteProfile,
    subject: str,
    asserted: list[tuple[int, SourceAssertion]],
    rng,
) -> DomTree:
    by_pid: dict[str, list[tuple[int, SourceAssertion]]] = {}
    for index, assertion in asserted:
        by_pid.setdefault(assertion.triple.predicate, []).append((index, assertion))
    rows: list[DomRow] = []
    born_date = next(
        (p for p in by_pid if p.endswith("/birth_date")), None
    )
    born_place = next(
        (p for p in by_pid if p.endswith("/birth_place")), None
    )
    merged_pids: set[str] = set()
    if site.merged_born_rows and born_date and born_place:
        # The Wikipedia-style "Born" row: full name, date, place in one row.
        name_cell = Mention(
            surface=world.entities.get(subject).name, kind="string", fact_ref=None
        )
        date_index, date_assertion = by_pid[born_date][0]
        place_index, place_assertion = by_pid[born_place][0]
        cells = (
            name_cell,
            _value_mention(world, date_assertion.triple.obj, site, rng, date_index),
            _value_mention(world, place_assertion.triple.obj, site, rng, place_index),
        )
        cell_labels = ("name", "date", "place") if site.category == "wiki" else None
        rows.append(
            DomRow(label="Born", cells=cells, merged=True, cell_labels=cell_labels)
        )
        merged_pids = {born_date, born_place}
    for pid in sorted(by_pid):
        if pid in merged_pids:
            continue
        cells = tuple(
            _value_mention(world, assertion.triple.obj, site, rng, index)
            for index, assertion in by_pid[pid]
        )
        rows.append(DomRow(label=dom_label(pid), cells=cells))
    return DomTree(subject=_subject_mention(world, subject, site, rng), rows=tuple(rows))


#: What ``_render_text`` phrases one predicate with: the single-object
#: templates, the weighted draw over them, and the conjunction template.
_TextMenu = tuple[list[TemplateSpec], WeightedChoice, TemplateSpec | None]


def _text_menus(templates: dict[str, TemplateSpec]) -> dict[str, _TextMenu]:
    """The menu of every predicate some template's first slot asserts."""
    menus: dict[str, _TextMenu] = {}
    for pid in dict.fromkeys(spec.slots[0] for spec in templates.values()):
        menu = templates_for_predicate(templates, pid)
        singles = [t for t in menu if t.n_objects == 1 and not t.merged]
        conj = next((t for t in menu if t.n_objects == 2 and not t.merged), None)
        weights = np.array([t.weight for t in singles])
        menus[pid] = (singles, WeightedChoice(weights / weights.sum()), conj)
    return menus


def _render_text(
    world: World,
    site: SiteProfile,
    subject: str,
    asserted: list[tuple[int, SourceAssertion]],
    templates: dict[str, TemplateSpec],
    menus: dict[str, _TextMenu],
    rng,
) -> TextDocument:
    subject_mention = _subject_mention(world, subject, site, rng)
    remaining = list(asserted)
    sentences: list[Sentence] = []
    # Merged born sentence when the site phrases it that way.
    born = {
        a.triple.predicate.rsplit("/", 1)[-1]: (i, a)
        for i, a in remaining
        if a.triple.predicate.rsplit("/", 1)[-1] in ("birth_date", "birth_place")
    }
    if len(born) == 2 and rng.random() < 0.5:
        date_index, date_assertion = born["birth_date"]
        place_index, place_assertion = born["birth_place"]
        template_id = f"t.{date_assertion.triple.predicate.rsplit('/', 1)[0].replace('/', '.')}.born_full"
        spec = templates.get(template_id)
        if spec is not None:
            obj0 = _value_mention(world, date_assertion.triple.obj, site, rng, date_index)
            obj1 = _value_mention(world, place_assertion.triple.obj, site, rng, place_index)
            sentences.append(
                Sentence(
                    template_id=spec.template_id,
                    subject=subject_mention,
                    objects=(obj0, obj1),
                    text=spec.fmt.format(
                        subj=subject_mention.surface, obj0=obj0.surface, obj1=obj1.surface
                    ),
                )
            )
            remaining = [
                (i, a) for i, a in remaining if i not in (date_index, place_index)
            ]
    # Group remaining assertions by predicate for conjunctions.
    by_pid: dict[str, list[tuple[int, SourceAssertion]]] = {}
    for index, assertion in remaining:
        by_pid.setdefault(assertion.triple.predicate, []).append((index, assertion))
    for pid in sorted(by_pid):
        group = by_pid[pid]
        menu = menus.get(pid)
        if menu is None:
            continue
        singles, single_choice, conj = menu
        while group:
            if conj is not None and len(group) >= 2 and rng.random() < 0.5:
                (i0, a0), (i1, a1) = group[0], group[1]
                group = group[2:]
                obj0 = _value_mention(world, a0.triple.obj, site, rng, i0)
                obj1 = _value_mention(world, a1.triple.obj, site, rng, i1)
                sentences.append(
                    Sentence(
                        template_id=conj.template_id,
                        subject=subject_mention,
                        objects=(obj0, obj1),
                        text=conj.fmt.format(
                            subj=subject_mention.surface,
                            obj0=obj0.surface,
                            obj1=obj1.surface,
                        ),
                    )
                )
                continue
            index, assertion = group[0]
            group = group[1:]
            spec = singles[single_choice.draw(rng)]
            obj0 = _value_mention(world, assertion.triple.obj, site, rng, index)
            sentences.append(
                Sentence(
                    template_id=spec.template_id,
                    subject=subject_mention,
                    objects=(obj0,),
                    text=spec.fmt.format(subj=subject_mention.surface, obj0=obj0.surface),
                )
            )
    return TextDocument(sentences=tuple(sentences))


def _render_table(
    world: World,
    site: SiteProfile,
    type_id: str,
    rows_data: list[tuple[str, list[tuple[int, SourceAssertion]]]],
    rng,
) -> WebTable | None:
    """Render several same-type subjects as one relational table."""
    pid_counts: dict[str, int] = {}
    for _, asserted in rows_data:
        for _, assertion in asserted:
            pid_counts[assertion.triple.predicate] = (
                pid_counts.get(assertion.triple.predicate, 0) + 1
            )
    if not pid_counts:
        return None
    columns = [
        pid
        for pid, _ in sorted(pid_counts.items(), key=lambda kv: (-kv[1], kv[0]))[:4]
    ]
    headers = ["Name"] + [tbl_header(pid) for pid in columns]
    subject_col = 0
    if site.subject_col == 1:
        headers = ["#"] + headers
        subject_col = 1
    table_rows: list[tuple[Mention, ...]] = []
    for row_number, (subject, asserted) in enumerate(rows_data, start=1):
        claims = {a.triple.predicate: (i, a) for i, a in asserted}
        cells: list[Mention] = []
        if site.subject_col == 1:
            cells.append(Mention(surface=str(row_number), kind="number", fact_ref=None))
        cells.append(_subject_mention(world, subject, site, rng))
        for pid in columns:
            if pid in claims:
                index, assertion = claims[pid]
                cells.append(
                    _value_mention(world, assertion.triple.obj, site, rng, index)
                )
            else:
                cells.append(Mention(surface="", kind="empty", fact_ref=None))
        table_rows.append(tuple(cells))
    caption = f"{type_id.split('/')[-1].capitalize()} overview"
    return WebTable(
        caption=caption,
        headers=tuple(headers),
        rows=tuple(table_rows),
        subject_col=subject_col,
    )


def _render_ano(
    world: World,
    site: SiteProfile,
    subject: str,
    asserted: list[tuple[int, SourceAssertion]],
    rng,
) -> AnnotationBlock:
    props = tuple(
        (
            ano_prop(assertion.triple.predicate),
            _value_mention(world, assertion.triple.obj, site, rng, index),
        )
        for index, assertion in asserted
    )
    return AnnotationBlock(
        subject=_subject_mention(world, subject, site, rng), props=props
    )


# ---------------------------------------------------------------------------
# Corpus assembly
# ---------------------------------------------------------------------------
def generate_corpus(world: World, config: WebConfig, seed: int) -> WebCorpus:
    """Generate a deterministic :class:`WebCorpus` over ``world``."""
    rng = named_rng(seed, "webgen")
    sites = _make_sites(world, config, rng)
    corpus = WebCorpus(config=config, sites=sites)
    # The copy pool is corpus.pages itself: every generated page both
    # lands in the corpus and becomes a copy source for later pages.
    for _ in _corpus_pages(world, config, rng, sites, corpus.pages):
        pass
    return corpus


def stream_corpus(
    world: World,
    config: WebConfig,
    seed: int,
    chunk_pages: int = 2048,
    copy_window: int | None = 1024,
) -> Iterator[list[WebPage]]:
    """Yield the corpus as page chunks without materialising it.

    The out-of-core generator behind the ``web`` scale tier: pages are
    produced by the same per-page dataflow as :func:`generate_corpus`
    but handed out ``chunk_pages`` at a time, and the copy-source pool
    is a bounded window of the last ``copy_window`` generated pages
    instead of the whole corpus — memory stays O(window + chunk) no
    matter how many pages the config asks for.  With
    ``copy_window=None`` the pool is unbounded and the concatenated
    chunks equal ``generate_corpus(...).pages`` exactly (the streaming
    parity anchor); any finite window defines its own corpus — the
    ``web`` tier's semantics, deterministic in ``(config, seed,
    window)``.  Both sizes are checked here, at the call, not at the
    first ``next()``.
    """
    if chunk_pages < 1:
        raise ConfigError(f"chunk_pages must be >= 1, got {chunk_pages}")
    if copy_window is not None and copy_window < 0:
        raise ConfigError(f"copy_window must be >= 0 or None, got {copy_window}")
    return _stream_chunks(world, config, seed, chunk_pages, copy_window)


def _stream_chunks(
    world: World,
    config: WebConfig,
    seed: int,
    chunk_pages: int,
    copy_window: int | None,
) -> Iterator[list[WebPage]]:
    """The generator behind :func:`stream_corpus`, arguments already checked."""
    rng = named_rng(seed, "webgen")
    sites = _make_sites(world, config, rng)
    pool: object = [] if copy_window is None else deque(maxlen=copy_window)
    chunk: list[WebPage] = []
    for page in _corpus_pages(world, config, rng, sites, pool):
        chunk.append(page)
        if len(chunk) >= chunk_pages:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


def _corpus_pages(
    world: World,
    config: WebConfig,
    rng: np.random.Generator,
    sites: dict[str, SiteProfile],
    pool,
) -> "Iterator[WebPage]":
    """The shared per-page dataflow of corpus generation.

    Yields each kept page after appending it to ``pool`` — the copy
    branch samples its source from ``pool``, so the caller chooses the
    copy semantics: the growing corpus list (:func:`generate_corpus`)
    or a bounded recent-page window (:func:`stream_corpus`).
    """
    templates = build_templates(world.schema)
    menus = _text_menus(templates)
    # Per site: the content types and the weighted draw over its mix.
    mixes: dict[str, tuple[list[str], WeightedChoice]] = {}
    for domain, site in sites.items():
        weights = np.array([w for _, w in site.content_weights])
        mixes[domain] = (
            [k for k, _ in site.content_weights],
            WeightedChoice(weights / weights.sum()),
        )

    domains = sorted(sites)
    site_weights = zipf_weights(len(domains), 1.05)
    order = rng.permutation(len(domains))
    weight_of = {domains[int(j)]: float(site_weights[k]) for k, j in enumerate(order)}
    probs = np.array([weight_of[d] for d in domains])
    probs = probs / probs.sum()
    page_sites = rng.choice(len(domains), size=config.n_pages, p=probs)
    page_counter: dict[str, int] = {}

    for page_index in range(config.n_pages):
        domain = domains[int(page_sites[page_index])]
        site = sites[domain]
        page_counter[domain] = page_counter.get(domain, 0) + 1
        url = f"http://{domain}/page{page_counter[domain]:05d}"

        assertions: list[SourceAssertion] = []
        # Copying: clone a slice of an earlier page (errors included).
        if pool and rng.random() < COPY_RATE:
            source = pool[int(rng.integers(len(pool)))]
            if source.assertions:
                take = int(rng.integers(1, len(source.assertions) + 1))
                picked = rng.choice(
                    len(source.assertions), size=take, replace=False
                )
                for i in sorted(int(x) for x in picked):
                    original = source.assertions[i]
                    assertions.append(
                        SourceAssertion(
                            triple=original.triple,
                            true_in_world=original.true_in_world,
                            exact=original.exact,
                            copied_from=source.url,
                        )
                    )

        entities = _pick_entities(world, site, rng, MAX_ENTITIES_PER_PAGE)
        budget = 1 + int(rng.geometric(1.0 / FACTS_PER_PAGE_MEAN))
        fresh_budget = max(0, budget - len(assertions))
        subject_items = [
            item for entity in entities for item in world.items_of(entity)
        ]
        if subject_items:
            picked_items = rng.permutation(len(subject_items))[:fresh_budget]
            for item_index in sorted(int(x) for x in picked_items):
                assertions.extend(
                    _assert_item(world, site, subject_items[item_index], rng)
                )

        if not assertions:
            continue

        # Partition assertions by subject; each subject renders into one
        # content type chosen from the site's mix.
        by_subject: dict[str, list[tuple[int, SourceAssertion]]] = {}
        for index, assertion in enumerate(assertions):
            by_subject.setdefault(assertion.triple.subject, []).append(
                (index, assertion)
            )
        mix_names, mix_choice = mixes[domain]
        elements: list[ContentElement] = []
        table_groups: dict[str, list[tuple[str, list[tuple[int, SourceAssertion]]]]] = {}
        for subject in sorted(by_subject):
            asserted = by_subject[subject]
            choice = mix_names[mix_choice.draw(rng)]
            if choice == "TBL":
                type_id = world.entities.get(subject).primary_type
                table_groups.setdefault(type_id, []).append((subject, asserted))
            elif choice == "DOM":
                elements.append(_render_dom(world, site, subject, asserted, rng))
            elif choice == "TXT":
                elements.append(
                    _render_text(
                        world, site, subject, asserted, templates, menus, rng
                    )
                )
            else:
                elements.append(_render_ano(world, site, subject, asserted, rng))
        for type_id in sorted(table_groups):
            table = _render_table(world, site, type_id, table_groups[type_id], rng)
            if table is not None:
                elements.append(table)

        page = WebPage(
            url=url,
            site=domain,
            category=site.category,
            assertions=tuple(assertions),
            elements=tuple(elements),
        )
        pool.append(page)
        yield page
