"""Content-addressed scenario artifact cache.

Worldgen is deterministic in ``(config, seed)`` — and in the *code* that
interprets them — so its output can be cached on disk and reloaded in
milliseconds instead of regenerated in seconds.  This module serializes
the worldgen bundle (world, Freebase snapshot, web corpus) into a
columnar artifact directory keyed on

    sha256(format version, code version, seed,
           repr(WorldConfig), repr(WebConfig))

where the **code version** is a hash over the source files whose logic
determines worldgen output (``repro/world``, ``repro/kb``,
``repro/rng.py``): editing any of them bumps the key, so a stale
artifact can never be loaded — invalidation is by construction, not by
expiry.

Layout of one artifact directory (``scenario-<key prefix>/``)::

    meta.json     key, code version, configs, per-file sizes, checksum
    world.pkl     the World (with its lazily-derived wrong-value pools
                  cleared; they regenerate bit-identically on demand)
    freebase.pkl  the Freebase snapshot
    sites.pkl     the site-profile table
    url.npy / site.npy / category.npy
                  per-page columns (what coverage masks and sharding read)
    payload.bin   per-page pickled (assertions, elements) bodies,
    offsets.npy   concatenated, with int64 prefix offsets

Pages load as a :class:`LazyPageList`: the columns materialize at load
time (they are what setup-stage consumers touch), while each page's
assertion/element body is decoded from the payload on first access — so
a warm-cache pipeline's *setup* stage is pure I/O and page decoding
rides inside the extraction pass that actually consumes the pages.

Correctness contract: a cache hit is **bit-identical** to a fresh build
— same world, same corpus, and therefore the same extraction records.
Writers publish atomically (temp directory + rename), and
:func:`load_scenario_artifact` returns ``None`` on *any* mismatch —
wrong key, wrong code version, missing or size-drifted files — so
callers fall back to a fresh build instead of a corrupt read; tests use
``verify=True`` for the full payload checksum.
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
from typing import Iterator, Sequence, overload

import numpy as np

from repro.world.config import WebConfig, WorldConfig
from repro.world.facts import World, build_freebase_snapshot
from repro.world.webgen import WebCorpus, WebPage, generate_corpus
from repro.world.worldgen import generate_world

__all__ = [
    "ARTIFACT_FORMAT",
    "COLUMN_FORMAT",
    "ColumnHandle",
    "LazyPageList",
    "code_version",
    "scenario_artifact_key",
    "artifact_dir_for",
    "save_scenario_artifact",
    "load_scenario_artifact",
    "save_column_store",
    "open_column_store",
    "prune_cache",
    "setup_worldgen",
]

#: Bumped when the artifact layout itself changes shape.
ARTIFACT_FORMAT = 1

#: Bumped when the column-store layout changes shape.
COLUMN_FORMAT = 1

_META = "meta.json"
_PICKLES = ("world.pkl", "freebase.pkl", "sites.pkl")
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
            f"format={ARTIFACT_FORMAT}",
            f"code={code_version()}",
            f"seed={seed}",
            repr(world_config),
            repr(web_config),
        )
    )
    return hashlib.sha256(material.encode()).hexdigest()


def artifact_dir_for(cache_dir: Path | str, key: str) -> Path:
    return Path(cache_dir) / f"scenario-{key[:24]}"


class LazyPageList(Sequence):
    """A sequence of :class:`WebPage` decoded from an artifact on demand.

    The identity columns (url/site/category) are materialized up front;
    each page's ``(assertions, elements)`` body is unpickled from the
    shared payload buffer on first access and memoized, so iterating the
    list yields pages equal (``==``) to the originally generated ones
    while opening the artifact costs only the column load.
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

    def _materialize(self, index: int) -> WebPage:
        page = self._pages[index]
        if page is None:
            start, end = self._offsets[index], self._offsets[index + 1]
            assertions, elements = pickle.loads(self._payload[start:end])
            page = WebPage(
                url=self._urls[index],
                site=self._sites[index],
                category=self._categories[index],
                assertions=assertions,
                elements=elements,
            )
            self._pages[index] = page
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


def _publish_atomically(final_dir: Path, files: dict[str, bytes], meta: dict) -> None:
    """Write ``files`` plus ``meta.json`` into ``final_dir``, all or nothing.

    Everything lands in a ``.tmp-<pid>`` sibling first and is renamed into
    place, so a crashed writer leaves no half-readable directory (only a
    ``.tmp-`` leftover for ``cache prune``) and any failure removes the
    temp directory before re-raising.
    """
    final_dir.parent.mkdir(parents=True, exist_ok=True)
    temp_dir = final_dir.with_name(final_dir.name + f".tmp-{os.getpid()}")
    if temp_dir.exists():
        shutil.rmtree(temp_dir)
    temp_dir.mkdir(parents=True)
    try:
        for name, blob in files.items():
            (temp_dir / name).write_bytes(blob)
        (temp_dir / _META).write_text(json.dumps(meta, indent=2) + "\n")
        try:
            os.rename(temp_dir, final_dir)
        except OSError:
            # Lost the publish race to a concurrent writer of the same
            # key: the published content is bit-equivalent, keep it.
            if not (final_dir / _META).exists():
                raise
            shutil.rmtree(temp_dir)
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

    Returns the artifact directory.  Publication is atomic (temp
    directory + rename): a crashed writer leaves no half-readable
    artifact, and a concurrent writer of the same key harmlessly loses
    the rename race.
    """
    key = scenario_artifact_key(seed, world.config, corpus.config)
    final_dir = artifact_dir_for(cache_dir, key)
    if (final_dir / _META).exists():
        return final_dir

    pages = list(corpus.pages)
    bodies = [_dumps((page.assertions, page.elements)) for page in pages]
    offsets = np.zeros(len(bodies) + 1, dtype=np.int64)
    np.cumsum([len(body) for body in bodies], out=offsets[1:])
    payload = b"".join(bodies)

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
        buffer = _npy_bytes(np.array(column))
        files[name] = buffer
    files[_OFFSETS] = _npy_bytes(offsets)

    meta = {
        "format": ARTIFACT_FORMAT,
        "key": key,
        "code_version": code_version(),
        "seed": seed,
        "world_config": repr(world.config),
        "web_config": repr(corpus.config),
        "n_pages": len(pages),
        "sizes": {name: len(blob) for name, blob in files.items()},
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }

    _publish_atomically(final_dir, files, meta)
    return final_dir


def _npy_bytes(array: np.ndarray) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, array, allow_pickle=False)
    return buffer.getvalue()


def load_scenario_artifact(
    cache_dir: Path | str,
    seed: int,
    world_config: WorldConfig,
    web_config: WebConfig,
    verify: bool = False,
) -> tuple[World, object, WebCorpus] | None:
    """Load ``(world, freebase, corpus)`` for the key, or None on miss.

    A miss is any mismatch: no artifact, a different key or code
    version, or files whose sizes drifted from the manifest.  With
    ``verify=True`` the payload checksum is also recomputed (the tests'
    corruption check; skipped on the hot path, where the bit-identity
    contract is enforced by the benchmark parity assertions instead).
    """
    key = scenario_artifact_key(seed, world_config, web_config)
    directory = artifact_dir_for(cache_dir, key)
    meta_path = directory / _META
    try:
        meta = json.loads(meta_path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if (
        meta.get("format") != ARTIFACT_FORMAT
        or meta.get("key") != key
        or meta.get("code_version") != code_version()
    ):
        return None
    sizes = meta.get("sizes", {})
    names = (*_PICKLES, *_COLUMNS, _PAYLOAD, _OFFSETS)
    try:
        for name in names:
            if (directory / name).stat().st_size != sizes.get(name):
                return None
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
    if verify and hashlib.sha256(payload).hexdigest() != meta.get("payload_sha256"):
        return None
    pages = LazyPageList(urls, site_col, categories, payload, offsets)
    corpus = WebCorpus(config=web_config, sites=sites, pages=pages)
    return world, freebase, corpus


# ---------------------------------------------------------------------------
# Column store: persisted ColumnarClaims columns for zero-copy worker views
# ---------------------------------------------------------------------------
# The out-of-core `web` tier persists the claim matrix's CSR columns as
# plain ``.npy`` files so fusion workers can map them read-only instead
# of unpickling a full ``ColumnarClaims`` per pool.  The store is
# content-addressed by the column *data* itself (sha256 over the file
# digests), published atomically like the scenario artifact, and carries
# the writer's code version so ``prune_cache`` can retire stores written
# by code that no longer exists.


@dataclasses.dataclass(frozen=True)
class ColumnHandle:
    """A pure-primitive pointer at one published column store.

    This is what crosses the pool wire when mapped columns are installed
    as pool-resident state: directory + content key + a per-file
    ``(name, size, sha256)`` manifest — never the arrays themselves.
    Workers re-map the files from the page cache, so the claim columns
    are shared zero-copy across the pool.
    """

    directory: str
    key: str
    granularity: str
    files: tuple[tuple[str, int, str], ...]

    def path_of(self, name: str) -> Path:
        return Path(self.directory) / name

    def manifest(self) -> dict[str, tuple[int, str]]:
        return {name: (size, digest) for name, size, digest in self.files}


def column_store_dir_for(cache_dir: Path | str, key: str) -> Path:
    return Path(cache_dir) / f"columns-{key[:24]}"


def _column_store_key(granularity: str, digests: dict[str, str]) -> str:
    material = "\n".join(
        (
            f"column-format={COLUMN_FORMAT}",
            f"granularity={granularity}",
            *(f"{name}={digests[name]}" for name in sorted(digests)),
        )
    )
    return hashlib.sha256(material.encode()).hexdigest()


def save_column_store(
    cache_dir: Path | str,
    granularity: str,
    arrays: dict[str, np.ndarray],
    objects: bytes,
) -> ColumnHandle:
    """Publish claim columns under their content address.

    ``arrays`` maps column names to int64 arrays (saved as ``.npy``);
    ``objects`` is the pickled object-column blob (saved verbatim).
    Publication is atomic (temp directory + rename) and idempotent: a
    store whose content already exists is reused, and a concurrent
    writer of the same key harmlessly loses the rename race.
    """
    files: dict[str, bytes] = {
        f"{name}.npy": _npy_bytes(array) for name, array in arrays.items()
    }
    files["objects.pkl"] = objects
    digests = {name: hashlib.sha256(blob).hexdigest() for name, blob in files.items()}
    key = _column_store_key(granularity, digests)
    final_dir = column_store_dir_for(cache_dir, key)
    handle = ColumnHandle(
        directory=str(final_dir),
        key=key,
        granularity=granularity,
        files=tuple(
            (name, len(files[name]), digests[name]) for name in sorted(files)
        ),
    )
    if (final_dir / _META).exists():
        return handle

    meta = {
        "format": COLUMN_FORMAT,
        "kind": "columns",
        "key": key,
        "granularity": granularity,
        "code_version": code_version(),
        "files": {
            name: {"bytes": len(blob), "sha256": digests[name]}
            for name, blob in files.items()
        },
    }
    _publish_atomically(final_dir, files, meta)
    return handle


def open_column_store(directory: Path | str, verify: bool = False) -> ColumnHandle | None:
    """Validate a published column store and return its handle, or None.

    A miss is any mismatch: unreadable metadata, a different layout
    format, or files whose sizes drifted from the manifest.  With
    ``verify=True`` every file's checksum is recomputed (the corruption
    check; skipped on the hot path, where the small-scale bitwise-parity
    tests enforce the contract instead).
    """
    directory = Path(directory)
    try:
        meta = json.loads((directory / _META).read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if meta.get("format") != COLUMN_FORMAT or meta.get("kind") != "columns":
        return None
    manifest = meta.get("files")
    granularity = meta.get("granularity")
    key = meta.get("key")
    if not isinstance(manifest, dict) or not isinstance(granularity, str) or not key:
        return None
    try:
        for name, entry in manifest.items():
            path = directory / name
            if path.stat().st_size != entry.get("bytes"):
                return None
            if verify:
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                if digest != entry.get("sha256"):
                    return None
    except OSError:
        return None
    return ColumnHandle(
        directory=str(directory),
        key=key,
        granularity=granularity,
        files=tuple(
            (name, int(manifest[name]["bytes"]), str(manifest[name]["sha256"]))
            for name in sorted(manifest)
        ),
    )


# ---------------------------------------------------------------------------
# Cache lifecycle
# ---------------------------------------------------------------------------


def prune_cache(cache_dir: Path | str, apply: bool = False) -> list[Path]:
    """Find (and with ``apply=True`` remove) stale cache entries.

    The content-addressed key means a stale entry is never *loaded* —
    but nothing ever deleted it either, so directories written by old
    code versions accumulate forever.  Stale = a ``scenario-*`` or
    ``columns-*`` entry whose recorded code version no longer matches
    the current one, whose metadata is unreadable, or a leftover
    ``.tmp-*`` publish directory from a crashed writer.  Returns the
    stale paths (sorted); the default is a dry run.
    """
    cache_dir = Path(cache_dir)
    stale: list[Path] = []
    current = code_version()
    if not cache_dir.is_dir():
        return stale
    for entry in sorted(cache_dir.iterdir()):
        if not entry.is_dir():
            continue
        name = entry.name
        if not (name.startswith("scenario-") or name.startswith("columns-")):
            continue
        if ".tmp-" in name:
            stale.append(entry)
            continue
        try:
            meta = json.loads((entry / _META).read_text())
        except (OSError, json.JSONDecodeError):
            stale.append(entry)
            continue
        if meta.get("code_version") != current:
            stale.append(entry)
    if apply:
        for entry in stale:
            shutil.rmtree(entry, ignore_errors=True)
    return stale


def setup_worldgen(
    seed: int,
    world_config: WorldConfig,
    web_config: WebConfig,
    cache_dir: Path | str | None = None,
) -> tuple[World, object, WebCorpus, str]:
    """Build (or load) the worldgen bundle; the one shared setup path.

    Returns ``(world, freebase, corpus, cache_status)`` where the status
    is ``"off"`` (no cache directory), ``"miss"`` (generated fresh and
    saved), or ``"hit"`` (loaded from the artifact).  Used by
    :func:`repro.datasets.scenario.build_scenario`,
    :func:`repro.endtoend.run_end_to_end` and the benchmark registry so
    all three share one cache discipline.
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
    save_scenario_artifact(cache_dir, seed, world, freebase, corpus)
    return world, freebase, corpus, "miss"
