"""Content-addressed artifact store: scenario artifacts and column stores.

Worldgen is deterministic in ``(config, seed)`` — and in the *code* that
interprets them — so its output is cached on disk and reloaded in
milliseconds; the ``web`` tier persists its claim columns so fusion can
map them.  Both go through one store.  An entry is a directory
``<kind>-<key[:24]>/`` of files plus a ``meta.json`` manifest (format,
kind, key, code version, the kind's details, each file's ``bytes`` and
``sha256``).  :func:`_put` publishes one atomically (temp directory +
rename); :func:`_get` returns its manifest only if it is *intact* —
format, kind, key and code version current, every file at its recorded
size and sha256.  That one check serves the scenario load, column-store
reuse, a publish's lost rename race and :func:`prune_cache`, so a
damaged entry of either kind misses, is republished and is pruned.

The **code version** hashes the sources that determine worldgen output
(``repro/world``, ``repro/kb``, ``repro/rng.py``); the scenario key
``sha256(format, code version, seed, repr(WorldConfig), repr(WebConfig))``
covers it, so invalidation is by construction, not by expiry.  A
``scenario`` entry (details: seed and config reprs) holds::

    world.pkl     the World (with its lazily-derived wrong-value pools
                  cleared; they regenerate bit-identically on demand)
    freebase.pkl  the Freebase snapshot
    sites.pkl     the site-profile table
    url.npy / site.npy / category.npy
                  per-page columns (what coverage masks and sharding read)
    payload.bin   per-page pickled (assertions, elements) bodies,
    offsets.npy   concatenated, with int64 prefix offsets

A ``columns`` entry (detail: granularity) holds one ``.npy`` per claim
column, keyed on the granularity and the file digests.

Pages load as a :class:`LazyPageList`: the columns materialize at load
time (they are what setup-stage consumers touch), while each page's
assertion/element body is decoded from the payload on first access — so
a warm-cache pipeline's *setup* stage is pure I/O and page decoding
rides inside the extraction pass that actually consumes the pages.  That
pass takes :meth:`LazyPageList.stored_pages` instead of pages: each
extraction shard decodes its own with :func:`decode_page`, so the parent
decodes none.

Correctness contract: a cache hit is **bit-identical** to a fresh build
— same world, same corpus, and therefore the same extraction records.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import os
import pickle
import shutil
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence, overload

import numpy as np

from repro.world.config import WebConfig, WorldConfig
from repro.world.facts import World, build_freebase_snapshot
from repro.world.webgen import WebCorpus, WebPage, generate_corpus
from repro.world.worldgen import generate_world

__all__ = [
    "STORE_FORMAT",
    "ColumnHandle",
    "LazyPageList",
    "StoredPage",
    "decode_page",
    "code_version",
    "scenario_artifact_key",
    "artifact_dir_for",
    "save_scenario_artifact",
    "load_scenario_artifact",
    "save_column_store",
    "prune_cache",
    "setup_worldgen",
]

#: Bumped when an entry's layout or the manifest schema changes shape, so
#: every older entry misses and ``cache prune`` retires it.  3 is above
#: the formats scenario artifacts (1) and column stores (2) were written
#: with before they shared one store.
STORE_FORMAT = 3

_META = "meta.json"
_COLUMNS = ("url.npy", "site.npy", "category.npy")
_PAYLOAD = "payload.bin"
_OFFSETS = "offsets.npy"

_code_version_cache: str | None = None


# ---------------------------------------------------------------------------
# Fast pickling for the artifact payloads
# ---------------------------------------------------------------------------
# Stock pickling of slotted dataclasses round-trips through
# ``_dataclass_setstate``, which re-scans ``dataclasses.fields()`` for
# *every object* — the dominant cost of loading a world whose truths are
# tens of thousands of small value/triple dataclasses.  The artifact
# pickler reduces eligible repro dataclasses to plain ``cls(*fields)``
# constructor calls instead, which unpickle through ``__init__`` with no
# per-object field scan.  Eligible = every field participates in
# ``__init__`` (so the constructor round-trip is exact); anything else
# falls back to the stock reducer.

_fast_fields_cache: dict[type, tuple[str, ...] | None] = {}


def _fast_fields(cls: type) -> tuple[str, ...] | None:
    cached = _fast_fields_cache.get(cls, False)
    if cached is not False:
        return cached
    names: tuple[str, ...] | None = None
    if cls.__module__.startswith("repro.") and dataclasses.is_dataclass(cls):
        fields = dataclasses.fields(cls)
        if all(field.init for field in fields):
            names = tuple(field.name for field in fields)
    _fast_fields_cache[cls] = names
    return names


class _ArtifactPickler(pickle.Pickler):
    def reducer_override(self, obj):
        names = _fast_fields(type(obj))
        if names is None:
            return NotImplemented
        return type(obj), tuple(getattr(obj, name) for name in names)


def _dumps(obj) -> bytes:
    buffer = io.BytesIO()
    _ArtifactPickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(obj)
    return buffer.getvalue()


def code_version() -> str:
    """Hash of the source files that determine worldgen output.

    Covers ``repro/world``, ``repro/kb`` and ``repro/rng.py`` — the
    generators plus the seed-derivation and value/entity substrate they
    build on.  Extraction/fusion code is deliberately *not* included:
    the artifact stores worldgen output only, and extraction always runs
    fresh against it.
    """
    global _code_version_cache
    if _code_version_cache is None:
        package_root = Path(__file__).resolve().parent
        sources = sorted(
            [
                *(package_root / "world").glob("*.py"),
                *(package_root / "kb").glob("*.py"),
                package_root / "rng.py",
            ]
        )
        digest = hashlib.sha256()
        for source in sources:
            digest.update(source.name.encode())
            digest.update(source.read_bytes())
        _code_version_cache = digest.hexdigest()
    return _code_version_cache


def scenario_artifact_key(
    seed: int, world_config: WorldConfig, web_config: WebConfig
) -> str:
    """The content address of one worldgen bundle."""
    material = "\n".join(
        (
            f"format={STORE_FORMAT}",
            f"code={code_version()}",
            f"seed={seed}",
            repr(world_config),
            repr(web_config),
        )
    )
    return hashlib.sha256(material.encode()).hexdigest()


def artifact_dir_for(cache_dir: Path | str, kind: str, key: str) -> Path:
    """The directory of the ``kind`` entry under ``key``."""
    return Path(cache_dir) / f"{kind}-{key[:24]}"


class StoredPage(NamedTuple):
    """One page as the artifact stores it, not yet decoded.

    The identity columns plus the page's fast-pickled ``(assertions,
    elements)`` body — primitives that pickle at memory-copy speed, which
    is why an artifact-backed extraction chunk crosses the pool wire in
    this form and each shard decodes its own pages.  ``url`` is the field
    sharding keys on, as for a :class:`WebPage`.
    """

    url: str
    site: str
    category: str
    body: bytes


def decode_page(stored: StoredPage) -> WebPage:
    """The page ``stored`` holds, equal (``==``) to the generated one."""
    assertions, elements = pickle.loads(stored.body)
    return WebPage(
        url=stored.url,
        site=stored.site,
        category=stored.category,
        assertions=assertions,
        elements=elements,
    )


class LazyPageList(Sequence):
    """A sequence of :class:`WebPage` decoded from an artifact on demand.

    The identity columns (url/site/category) are materialized up front;
    each page's ``(assertions, elements)`` body is unpickled from the
    shared payload buffer on first access and memoized, so iterating the
    list yields pages equal (``==``) to the originally generated ones
    while opening the artifact costs only the column load.
    :meth:`stored_pages` hands out the undecoded form instead.
    """

    def __init__(
        self,
        urls: list[str],
        sites: list[str],
        categories: list[str],
        payload: bytes,
        offsets: np.ndarray,
    ) -> None:
        self._urls = urls
        self._sites = sites
        self._categories = categories
        self._payload = payload
        self._offsets = offsets
        self._pages: list[WebPage | None] = [None] * len(urls)

    def __len__(self) -> int:
        return len(self._urls)

    def _stored(self, index: int) -> StoredPage:
        start, end = self._offsets[index], self._offsets[index + 1]
        return StoredPage(
            self._urls[index],
            self._sites[index],
            self._categories[index],
            self._payload[start:end],
        )

    def stored_pages(self) -> list[StoredPage]:
        """Every page in its stored form, in order; decodes and memoizes
        nothing."""
        return [self._stored(index) for index in range(len(self))]

    def _materialize(self, index: int) -> WebPage:
        page = self._pages[index]
        if page is None:
            page = self._pages[index] = decode_page(self._stored(index))
        return page

    @overload
    def __getitem__(self, index: int) -> WebPage: ...

    @overload
    def __getitem__(self, index: slice) -> list[WebPage]: ...

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._materialize(i) for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(index)
        return self._materialize(index)

    def __iter__(self) -> Iterator[WebPage]:
        for index in range(len(self)):
            yield self._materialize(index)


def _dump_world(world: World) -> bytes:
    """Pickle ``world`` with its derived wrong-value pools cleared.

    The pools are a lazily-filled cache (each entry deterministic in
    ``(master_seed, item)``), so clearing keeps the artifact independent
    of how much of the cache corpus generation happened to populate —
    the reloaded world re-derives identical pools on demand.
    """
    pools = world._wrong_pools
    world._wrong_pools = {}
    try:
        return _dumps(world)
    finally:
        world._wrong_pools = pools


def _put(cache_dir: Path | str, kind: str, key: str, files: dict[str, bytes], **details) -> Path:
    """Publish ``files`` as the ``kind`` entry under ``key``; its directory.

    An intact entry (:func:`_get`) under the key is reused as it stands;
    anything else there is replaced.  The manifest records the format,
    kind, key, code version, ``details`` and each file's size and sha256.
    """
    directory = artifact_dir_for(cache_dir, kind, key)
    if _get(cache_dir, kind, key) is None:
        manifest = {
            "format": STORE_FORMAT,
            "kind": kind,
            "key": key,
            "code_version": code_version(),
            **details,
            "files": {
                name: {"bytes": len(blob), "sha256": hashlib.sha256(blob).hexdigest()}
                for name, blob in files.items()
            },
        }
        _publish_atomically(directory, files, manifest)
    return directory


def _get(cache_dir: Path | str, kind: str, key: str) -> dict | None:
    """The manifest of the ``kind`` entry under ``key`` if it is intact.

    Intact = the manifest's format, kind, key and code version are
    current and every file it names is present at its recorded size and
    sha256.  Anything else — no entry, an unreadable manifest, a
    truncated or bit-flipped file — is ``None``.
    """
    directory = artifact_dir_for(cache_dir, kind, key)
    try:
        manifest = json.loads((directory / _META).read_text())
        header = [manifest[field] for field in ("format", "kind", "key", "code_version")]
        if header != [STORE_FORMAT, kind, key, code_version()]:
            return None
        for name, entry in manifest["files"].items():
            # Hashed in chunks: checking an entry never holds a whole file.
            with (directory / name).open("rb") as handle:
                digest = hashlib.file_digest(handle, "sha256").hexdigest()
                if [handle.tell(), digest] != [entry["bytes"], entry["sha256"]]:
                    return None
    except (OSError, ValueError, KeyError, TypeError):
        return None
    return manifest


def _publish_atomically(final_dir: Path, files: dict[str, bytes], manifest: dict) -> None:
    """Write ``files`` plus ``meta.json`` into ``final_dir``, all or nothing.

    Everything lands in a ``.tmp-<pid>`` sibling first and is renamed into
    place, so a crashed writer leaves no half-readable directory (only a
    ``.tmp-`` leftover for ``cache prune``) and any failure removes the
    temp directory before re-raising.  If ``final_dir`` already exists
    (a concurrent writer of the same key won the rename race, or a
    damaged entry sits there) it is kept only if :func:`_get` calls it
    intact.
    """
    final_dir.parent.mkdir(parents=True, exist_ok=True)
    temp_dir = final_dir.with_name(final_dir.name + f".tmp-{os.getpid()}")
    if temp_dir.exists():
        shutil.rmtree(temp_dir)
    temp_dir.mkdir(parents=True)
    try:
        for name, blob in files.items():
            (temp_dir / name).write_bytes(blob)
        (temp_dir / _META).write_text(json.dumps(manifest, indent=2) + "\n")
        try:
            os.rename(temp_dir, final_dir)
        except OSError:
            if _get(final_dir.parent, manifest["kind"], manifest["key"]) is not None:
                # The winner is intact, and the key is a content address:
                # its content is this publish's, so keep it.
                shutil.rmtree(temp_dir)
            else:
                shutil.rmtree(final_dir, ignore_errors=True)
                os.rename(temp_dir, final_dir)
    except Exception:
        shutil.rmtree(temp_dir, ignore_errors=True)
        raise


def save_scenario_artifact(
    cache_dir: Path | str,
    seed: int,
    world: World,
    freebase,
    corpus: WebCorpus,
) -> Path:
    """Serialize one worldgen bundle under its content address.

    Returns the artifact directory.  Publication goes through
    :func:`_put`: atomic, a no-op over an intact artifact, and a
    replacement of a damaged one.
    """
    pages = list(corpus.pages)
    # One growing buffer: the payload is held once, never as a body list
    # plus its join.
    payload = bytearray()
    offsets = np.zeros(len(pages) + 1, dtype=np.int64)
    for i, page in enumerate(pages, 1):
        payload += _dumps((page.assertions, page.elements))
        offsets[i] = len(payload)
    files: dict[str, bytes] = {
        "world.pkl": _dump_world(world),
        "freebase.pkl": _dumps(freebase),
        "sites.pkl": _dumps(corpus.sites),
        _PAYLOAD: payload,
    }
    for name, column in zip(
        _COLUMNS,
        (
            [page.url for page in pages],
            [page.site for page in pages],
            [page.category for page in pages],
        ),
    ):
        files[name] = _npy_bytes(np.array(column))
    files[_OFFSETS] = _npy_bytes(offsets)
    return _put(
        cache_dir,
        "scenario",
        scenario_artifact_key(seed, world.config, corpus.config),
        files,
        seed=seed,
        world_config=repr(world.config),
        web_config=repr(corpus.config),
    )


def _npy_bytes(array: np.ndarray) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, array, allow_pickle=False)
    return buffer.getvalue()


def load_scenario_artifact(
    cache_dir: Path | str,
    seed: int,
    world_config: WorldConfig,
    web_config: WebConfig,
) -> tuple[World, object, WebCorpus] | None:
    """Load ``(world, freebase, corpus)`` for the key, or None on miss.

    A miss is an artifact :func:`_get` does not call intact — none, a
    different key, format or code version, or a file off its recorded
    size or sha256 — or one whose files do not decode.
    """
    key = scenario_artifact_key(seed, world_config, web_config)
    if _get(cache_dir, "scenario", key) is None:
        return None
    directory = artifact_dir_for(cache_dir, "scenario", key)
    try:
        world: World = pickle.loads((directory / "world.pkl").read_bytes())
        freebase = pickle.loads((directory / "freebase.pkl").read_bytes())
        sites = pickle.loads((directory / "sites.pkl").read_bytes())
        urls, site_col, categories = (
            np.load(directory / name, allow_pickle=False).tolist()
            for name in _COLUMNS
        )
        offsets = np.load(directory / _OFFSETS, allow_pickle=False)
        payload = (directory / _PAYLOAD).read_bytes()
    except (OSError, pickle.UnpicklingError, ValueError):
        return None
    pages = LazyPageList(urls, site_col, categories, payload, offsets)
    corpus = WebCorpus(config=web_config, sites=sites, pages=pages)
    return world, freebase, corpus


# ---------------------------------------------------------------------------
# Column store: persisted ColumnarClaims columns the parent maps
# ---------------------------------------------------------------------------
# The out-of-core `web` tier persists the claim matrix's CSR columns as
# ``.npy`` files of a ``columns`` entry, content-addressed by the column
# *data*, so the parent maps them read-only instead of holding them.


@dataclasses.dataclass(frozen=True)
class ColumnHandle:
    """A pure-primitive pointer at one published column store.

    Directory + content key + a per-file ``(name, size, sha256)``
    manifest — never the arrays themselves;
    :class:`~repro.fusion.matrix.MappedColumnarClaims` maps the files it
    names.
    """

    directory: str
    key: str
    granularity: str
    files: tuple[tuple[str, int, str], ...]

    def path_of(self, name: str) -> Path:
        return Path(self.directory) / name


def _column_store_key(granularity: str, digests: dict[str, str]) -> str:
    material = "\n".join(
        (
            f"format={STORE_FORMAT}",
            f"granularity={granularity}",
            *(f"{name}={digests[name]}" for name in sorted(digests)),
        )
    )
    return hashlib.sha256(material.encode()).hexdigest()


def save_column_store(
    cache_dir: Path | str,
    granularity: str,
    arrays: dict[str, np.ndarray],
) -> ColumnHandle:
    """Publish claim columns under their content address.

    ``arrays`` maps column names to int64 arrays (saved as ``.npy``); the
    key covers their digests.  Publication goes through :func:`_put`:
    atomic, a no-op over an intact store, and a replacement of a damaged
    one.
    """
    files = {f"{name}.npy": _npy_bytes(array) for name, array in arrays.items()}
    digests = {name: hashlib.sha256(blob).hexdigest() for name, blob in files.items()}
    key = _column_store_key(granularity, digests)
    directory = _put(cache_dir, "columns", key, files, granularity=granularity)
    return ColumnHandle(
        directory=str(directory),
        key=key,
        granularity=granularity,
        files=tuple((name, len(files[name]), digests[name]) for name in sorted(files)),
    )


# ---------------------------------------------------------------------------
# Cache lifecycle
# ---------------------------------------------------------------------------


def prune_cache(cache_dir: Path | str, apply: bool = False) -> list[Path]:
    """Find (and with ``apply=True`` remove) stale cache entries.

    The content-addressed key means a stale entry is never *loaded* —
    but nothing ever deleted it either, so directories written by old
    code versions or layouts accumulate forever.  Stale = a
    ``scenario-*`` or ``columns-*`` directory that is not the intact
    entry (:func:`_get`) its manifest names: an old code version or
    :data:`STORE_FORMAT`, unreadable metadata, a damaged file, or a
    leftover ``.tmp-*`` publish directory from a crashed writer.
    Returns the stale paths (sorted); the default is a dry run.
    """
    cache_dir = Path(cache_dir)
    if not cache_dir.is_dir():
        return []
    stale = [
        entry
        for entry in sorted(cache_dir.iterdir())
        if entry.name.startswith(("scenario-", "columns-"))
        and entry.is_dir()
        and not _is_live(cache_dir, entry)
    ]
    if apply:
        for entry in stale:
            shutil.rmtree(entry, ignore_errors=True)
    return stale


def _is_live(cache_dir: Path, entry: Path) -> bool:
    """True when ``entry`` is the intact entry its own manifest names."""
    kind = entry.name.partition("-")[0]
    try:
        key = json.loads((entry / _META).read_text())["key"]
        return (
            artifact_dir_for(cache_dir, kind, key) == entry
            and _get(cache_dir, kind, key) is not None
        )
    except (OSError, ValueError, KeyError, TypeError):
        return False


def setup_worldgen(
    seed: int,
    world_config: WorldConfig,
    web_config: WebConfig,
    cache_dir: Path | str | None = None,
) -> tuple[World, object, WebCorpus, str]:
    """Build (or load) the worldgen bundle; the one shared setup path.

    Returns ``(world, freebase, corpus, cache_status)`` where the status
    is ``"off"`` (no cache directory), ``"miss"`` (generated fresh and
    saved), ``"miss (publish fallback)"`` (generated fresh; the cache
    directory could not be written, so nothing was saved) or ``"hit"``
    (loaded from the artifact).  Used by the pipeline's stage body
    (:func:`repro.endtoend.run_end_to_end` and
    :func:`repro.datasets.scenario.build_scenario`), ``repro-kf extract``
    and kfbench, so all share one cache discipline.
    """
    if cache_dir is not None:
        loaded = load_scenario_artifact(cache_dir, seed, world_config, web_config)
        if loaded is not None:
            world, freebase, corpus = loaded
            return world, freebase, corpus, "hit"
    world = generate_world(world_config, seed)
    freebase = build_freebase_snapshot(world)
    corpus = generate_corpus(world, web_config, seed)
    if cache_dir is None:
        return world, freebase, corpus, "off"
    try:
        save_scenario_artifact(cache_dir, seed, world, freebase, corpus)
    except OSError:
        # An unwritable/full cache directory degrades to the bundle just
        # generated — the same bits, as the column store's persist fallback.
        return world, freebase, corpus, "miss (publish fallback)"
    return world, freebase, corpus, "miss"
