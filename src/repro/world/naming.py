"""Deterministic surface-form generation.

Entities need names that (a) look like the kind of thing they are, (b) are
deterministic given the seed, and (c) can deliberately *collide* — shared
aliases are the raw material of entity-linkage errors ("wrongly reconciling
the Broadway show Les Miserables to the novel of the same name").

Names are built from syllable pools; titles from word pools.  The generator
never repeats a canonical name within a run, but aliases may be shared
across entities on purpose.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["NameForge"]

_ONSETS = [
    "b", "br", "c", "ch", "d", "dr", "f", "g", "gr", "h", "j", "k", "kl",
    "l", "m", "n", "p", "pr", "r", "s", "sh", "st", "t", "th", "tr", "v", "w",
]
_VOWELS = ["a", "e", "i", "o", "u", "ia", "ei", "ou", "ae"]
_CODAS = ["", "n", "r", "s", "l", "m", "th", "nd", "rk", "x"]

_TITLE_WORDS = [
    "Silent", "Golden", "Last", "Hidden", "Broken", "Crimson", "Eternal",
    "Falling", "Distant", "Burning", "Frozen", "Secret", "Lost", "Rising",
    "Shadow", "Winter", "Summer", "River", "Mountain", "Ocean", "Empire",
    "Garden", "Mirror", "Storm", "Harvest", "Journey", "Night", "Dawn",
]
_TITLE_NOUNS = [
    "Road", "City", "Dream", "Song", "Heart", "Crown", "Star", "House",
    "Letter", "Voyage", "Promise", "Echo", "Horizon", "Legacy", "Whisper",
    "Kingdom", "Island", "Harbor", "Flame", "Season",
]
_ORG_SUFFIXES = [
    "Industries", "Group", "Labs", "Systems", "Holdings", "Partners",
    "Media", "Works", "Corporation", "Collective", "Institute", "Foundry",
]
_PLACE_SUFFIXES = ["ville", "burg", "ton", " City", " Falls", " Springs", "ford", "haven"]
_PROFESSIONS = [
    "actor", "producer", "director", "novelist", "physicist", "composer",
    "journalist", "architect", "economist", "chemist", "historian",
    "illustrator", "screenwriter", "violinist", "biologist", "sculptor",
]
_GENRES = [
    "drama", "comedy", "thriller", "documentary", "romance", "mystery",
    "science fiction", "biography", "adventure", "historical", "noir", "satire",
]
_INDUSTRIES = [
    "aerospace", "retail", "logistics", "energy", "publishing", "insurance",
    "telecom", "agriculture", "robotics", "pharmaceuticals",
]
_SPORTS = ["football", "baseball", "basketball", "hockey", "cricket", "rugby"]
_LANG_SUFFIX = ["ish", "ese", "ian", "ic", "i"]
_SPECIES_CLASSES = ["mammal", "bird", "reptile", "amphibian", "fish", "insect"]
_COLORS = ["crimson", "navy", "gold", "emerald", "silver", "black", "white", "teal"]
_PLATFORMS = ["arcade", "console", "handheld", "desktop", "mobile", "cloud"]
_HABITATS = ["rainforest", "savanna", "tundra", "wetland", "coral reef", "desert",
             "taiga", "grassland"]


@dataclass
class NameForge:
    """Seeded name factory; guarantees canonical-name uniqueness."""

    rng: np.random.Generator
    _used: set[str] = field(default_factory=set)

    def _syllable(self) -> str:
        onset = _ONSETS[self.rng.integers(len(_ONSETS))]
        vowel = _VOWELS[self.rng.integers(len(_VOWELS))]
        coda = _CODAS[self.rng.integers(len(_CODAS))]
        return onset + vowel + coda

    def _word(self, n_syllables: int) -> str:
        word = "".join(self._syllable() for _ in range(n_syllables))
        return word.capitalize()

    def _unique(self, make) -> str:
        """Draw from ``make`` until the name is globally fresh."""
        for attempt in range(64):
            name = make()
            if name not in self._used:
                self._used.add(name)
                return name
        # Extremely unlikely at our scales; disambiguate explicitly.
        name = f"{make()} {len(self._used)}"
        self._used.add(name)
        return name

    # -- canonical names -------------------------------------------------
    def person_name(self) -> str:
        return self._unique(
            lambda: f"{self._word(2)} {self._word(int(self.rng.integers(2, 4)))}"
        )

    def place_name(self) -> str:
        def make() -> str:
            base = self._word(int(self.rng.integers(2, 4)))
            suffix = _PLACE_SUFFIXES[self.rng.integers(len(_PLACE_SUFFIXES))]
            return base + suffix

        return self._unique(make)

    def org_name(self) -> str:
        def make() -> str:
            base = self._word(int(self.rng.integers(2, 4)))
            suffix = _ORG_SUFFIXES[self.rng.integers(len(_ORG_SUFFIXES))]
            return f"{base} {suffix}"

        return self._unique(make)

    def work_title(self) -> str:
        def make() -> str:
            adj = _TITLE_WORDS[self.rng.integers(len(_TITLE_WORDS))]
            noun = _TITLE_NOUNS[self.rng.integers(len(_TITLE_NOUNS))]
            if self.rng.random() < 0.3:
                return f"The {adj} {noun}"
            return f"{adj} {noun}"

        return self._unique(make)

    def species_name(self) -> str:
        return self._unique(lambda: f"{self._word(2)} {self._word(2).lower()}")

    def mountain_name(self) -> str:
        return self._unique(lambda: f"Mount {self._word(int(self.rng.integers(2, 4)))}")

    def team_name(self) -> str:
        def make() -> str:
            place = self._word(2)
            mascot = _TITLE_NOUNS[self.rng.integers(len(_TITLE_NOUNS))]
            return f"{place} {mascot}s"

        return self._unique(make)

    # -- aliases ----------------------------------------------------------
    def alias_for(self, name: str) -> str:
        """A plausible alternative surface form for ``name``."""
        parts = name.split()
        roll = self.rng.random()
        if len(parts) >= 2 and roll < 0.4:
            # Initial + last word: "T. Cruise"
            return f"{parts[0][0]}. {parts[-1]}"
        if roll < 0.7:
            return parts[-1]
        return f"The {parts[-1]}" if not name.startswith("The ") else parts[-1]

    # -- literal vocabularies ---------------------------------------------
    def profession(self) -> str:
        return _PROFESSIONS[self.rng.integers(len(_PROFESSIONS))]

    def genre(self) -> str:
        return _GENRES[self.rng.integers(len(_GENRES))]

    def industry(self) -> str:
        return _INDUSTRIES[self.rng.integers(len(_INDUSTRIES))]

    def sport(self) -> str:
        return _SPORTS[self.rng.integers(len(_SPORTS))]

    def species_class(self) -> str:
        return _SPECIES_CLASSES[self.rng.integers(len(_SPECIES_CLASSES))]

    def color(self) -> str:
        return _COLORS[self.rng.integers(len(_COLORS))]

    def platform(self) -> str:
        return _PLATFORMS[self.rng.integers(len(_PLATFORMS))]

    def habitat(self) -> str:
        return _HABITATS[self.rng.integers(len(_HABITATS))]

    def award(self) -> str:
        return f"{self._word(2)} Prize"

    def landmark(self) -> str:
        noun = _TITLE_NOUNS[self.rng.integers(len(_TITLE_NOUNS))]
        return f"The {self._word(2)} {noun}"

    def language(self) -> str:
        base = self._word(2)
        return base + _LANG_SUFFIX[self.rng.integers(len(_LANG_SUFFIX))]

    def date(self) -> str:
        """An ISO date in 1900-2010, day 1-28 of any month."""
        year = int(self.rng.integers(1900, 2010 + 1))
        month = int(self.rng.integers(1, 13))
        day = int(self.rng.integers(1, 29))
        return f"{year:04d}-{month:02d}-{day:02d}"
