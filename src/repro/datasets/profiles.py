"""The 12 extractor profiles, calibrated against Table 2.

The paper's extractors differ along: which content they parse, which pages
they run on, how many patterns they have, how often those patterns are
wrong, how careful their structural handling is, which shared linker they
use (and whether they pass type hints), and how they report confidence.
The profiles below encode those differences; the resulting per-extractor
accuracies and volume ordering are validated against Table 2 in
``tests/integration`` and reported in EXPERIMENTS.md.

Paper reference points (Table 2):

====== ======== ===== ============== ====================
name   #Triples Accu  Accu(conf≥.7)  notes
====== ======== ===== ============== ====================
TXT1   274M     0.36  0.52           all pages, mediocre confidence
TXT2   31M      0.18  0.80           normal pages; noisy but well-calibrated
TXT3   8.8M     0.25  0.81           newswire
TXT4   2.9M     0.78  0.91           Wikipedia; precise
DOM1   804M     0.43  0.63           all pages, patterned
DOM2   431M     0.09  0.62           all pages, sloppy; extreme confidence
DOM3   45M      0.58  0.93           entity-type focussed; careful
DOM4   52M      0.26  0.34           literal-value focussed; sloppy
DOM5   0.7M     0.13  (no conf)      Wikipedia only, poor
TBL1   3.1M     0.24  0.24           naive header mapping
TBL2   7.4M     0.69  (no conf)      value-based schema mapping
ANO    145M     0.28  0.30           corrupted ontology map
====== ======== ===== ============== ====================
"""

from __future__ import annotations

from repro.extract.base import ExtractorProfile

__all__ = ["EXTRACTOR_PROFILES"]


EXTRACTOR_PROFILES: tuple[ExtractorProfile, ...] = (
    # ----------------------------------------------------------------- TXT
    ExtractorProfile(
        name="TXT1",
        content_types=("TXT",),
        site_categories=None,  # "a different implementation, runs on all Webpages"
        page_coverage=0.92,
        linker="EL-A",
        use_type_hints=False,
        kind_checking=False,
        handles_merged=False,
        naive_dates=True,
        string_fallback=True,
        pattern_coverage=0.85,
        wrong_predicate_rate=0.14,
        reliability_mean=0.4,
        reliability_concentration=5.0,
        mangle_rate=0.6,
        misgrab_rate=0.85,
        confidence="centered",
    ),
    ExtractorProfile(
        name="TXT2",
        content_types=("TXT",),
        site_categories=("general",),  # "normal Webpages"
        page_coverage=0.85,
        linker="EL-A",
        use_type_hints=False,
        kind_checking=False,
        handles_merged=False,
        naive_dates=True,
        string_fallback=True,
        pattern_coverage=0.95,
        wrong_predicate_rate=0.45,  # many learned-but-wrong patterns...
        reliability_mean=0.26,
        reliability_concentration=1.6,  # ...with a wide reliability spread,
        mangle_rate=0.5,
        misgrab_rate=0.95,
        confidence="calibrated",  # which a good confidence model separates
    ),
    ExtractorProfile(
        name="TXT3",
        content_types=("TXT",),
        site_categories=("news",),  # "newswire"
        page_coverage=0.95,
        linker="EL-A",
        use_type_hints=False,
        kind_checking=False,
        handles_merged=False,
        naive_dates=False,
        string_fallback=True,
        pattern_coverage=0.9,
        wrong_predicate_rate=0.3,
        reliability_mean=0.3,
        reliability_concentration=2.0,
        mangle_rate=0.4,
        misgrab_rate=0.92,
        confidence="calibrated",
    ),
    ExtractorProfile(
        name="TXT4",
        content_types=("TXT",),
        site_categories=("wiki",),  # "Wikipedia"
        page_coverage=1.0,
        linker="EL-A",
        use_type_hints=True,
        kind_checking=True,
        handles_merged=True,
        naive_dates=False,
        string_fallback=False,
        pattern_coverage=0.8,
        wrong_predicate_rate=0.02,
        reliability_mean=0.85,
        reliability_concentration=18.0,
        mangle_rate=0.15,
        misgrab_rate=0.55,
        confidence="calibrated",
    ),
    # ----------------------------------------------------------------- DOM
    ExtractorProfile(
        name="DOM1",
        content_types=("DOM", "TBL"),  # a tree-walker also sees tables
        site_categories=None,
        page_coverage=0.95,
        linker="EL-A",
        use_type_hints=False,
        kind_checking=False,
        handles_merged=False,
        naive_dates=False,
        string_fallback=True,
        wrong_predicate_rate=0.08,
        reliability_mean=0.5,
        reliability_concentration=6.0,
        mangle_rate=0.25,
        misgrab_rate=0.78,
        confidence="calibrated",
    ),
    ExtractorProfile(
        name="DOM2",
        content_types=("DOM", "TBL"),
        site_categories=None,
        page_coverage=0.85,
        linker="EL-A",
        use_type_hints=False,
        kind_checking=False,
        handles_merged=False,
        naive_dates=True,
        string_fallback=True,
        wrong_predicate_rate=0.3,
        reliability_mean=0.15,
        reliability_concentration=3.0,
        mangle_rate=0.8,
        misgrab_rate=1.0,
        confidence="extreme",
        global_label_map=True,  # cross-type label collisions
    ),
    ExtractorProfile(
        name="DOM3",
        content_types=("DOM",),
        site_categories=None,  # "focus on identifying entity types"
        page_coverage=0.4,
        linker="EL-B",
        use_type_hints=True,
        kind_checking=True,
        handles_merged=True,
        naive_dates=False,
        string_fallback=False,
        wrong_predicate_rate=0.03,
        reliability_mean=0.6,
        reliability_concentration=5.0,
        mangle_rate=0.05,
        misgrab_rate=0.55,
        confidence="calibrated",
        value_kinds=("entity",),
    ),
    ExtractorProfile(
        name="DOM4",
        content_types=("DOM",),
        site_categories=None,
        page_coverage=0.45,
        linker="EL-B",
        use_type_hints=False,
        kind_checking=False,
        handles_merged=False,
        naive_dates=True,
        string_fallback=True,
        wrong_predicate_rate=0.22,
        reliability_mean=0.3,
        reliability_concentration=4.0,
        mangle_rate=0.45,
        misgrab_rate=0.95,
        confidence="centered",
        value_kinds=("string", "number", "date"),
    ),
    ExtractorProfile(
        name="DOM5",
        content_types=("DOM",),
        site_categories=("wiki",),  # "runs only on Wikipedia"
        page_coverage=0.6,
        linker="EL-B",
        use_type_hints=False,
        kind_checking=False,
        handles_merged=False,
        naive_dates=True,
        string_fallback=True,
        wrong_predicate_rate=0.4,
        reliability_mean=0.15,
        reliability_concentration=3.0,
        mangle_rate=0.7,
        misgrab_rate=1.0,
        confidence="none",
        global_label_map=True,
    ),
    # ----------------------------------------------------------------- TBL
    ExtractorProfile(
        name="TBL1",
        content_types=("TBL",),
        site_categories=None,
        page_coverage=0.8,
        linker="EL-B",
        use_type_hints=False,
        kind_checking=False,
        handles_merged=False,
        naive_dates=True,
        string_fallback=True,
        wrong_predicate_rate=0.0,  # errors come from ambiguous headers
        reliability_mean=0.5,
        reliability_concentration=5.0,
        mangle_rate=0.2,
        misgrab_rate=0.8,
        confidence="peaked",
        detect_subject_col=False,
        type_aware_headers=False,
    ),
    ExtractorProfile(
        name="TBL2",
        content_types=("TBL",),
        site_categories=None,
        page_coverage=0.95,
        linker="EL-B",
        use_type_hints=True,
        kind_checking=True,
        handles_merged=False,
        naive_dates=False,
        string_fallback=False,
        wrong_predicate_rate=0.0,
        reliability_mean=0.8,
        reliability_concentration=10.0,
        mangle_rate=0.05,
        misgrab_rate=0.1,
        confidence="none",
        detect_subject_col=True,
        type_aware_headers=True,
    ),
    # ----------------------------------------------------------------- ANO
    ExtractorProfile(
        name="ANO",
        content_types=("ANO",),
        site_categories=None,
        page_coverage=0.92,
        linker="EL-A",
        use_type_hints=False,
        kind_checking=False,
        handles_merged=False,
        naive_dates=True,
        string_fallback=True,
        pattern_coverage=0.8,  # the semi-automatic map has holes...
        wrong_predicate_rate=0.35,  # ...and wrong entries
        reliability_mean=0.3,
        reliability_concentration=4.0,
        mangle_rate=0.4,
        misgrab_rate=0.9,
        confidence="uninformative",
    ),
)
