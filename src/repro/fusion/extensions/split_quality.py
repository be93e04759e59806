"""Direction 1: separate extractor quality from source quality.

§5.1: "A better approach would be to distinguish mistakes made by
extractors and erroneous information provided by Web sources.  This would
enable us to evaluate the quality of the sources and the quality of the
extractors independently."

The model: a claim by extractor ``E`` from site ``W`` is correct when the
source told the truth *and* the extractor read it faithfully, so the
effective claim accuracy factorises as ``A(E, W) = q_E · a_W``.  The two
factors are estimated by a bilinear EM:

- ``q_E`` (extractor fidelity) — the mean posterior of E's triples,
  weighting each observation by the quality of the *source* it came from
  (so a good extractor is not punished for working on bad sources);
- ``a_W`` (source accuracy) — the mean posterior of W's triples, weighting
  by the *extractor* fidelity behind each observation (so a good source is
  not punished for being read by bad extractors).

Both estimates shrink toward the default-accuracy prior with a fixed
pseudo-count, which matters doubly here: most sites carry very few triples
(the paper: half the provenances contribute a single one), and without
shrinkage the cross-weighting forms echo chambers — a site whose only
claim lost gets weight zero, silently excusing the extractor that made the
claim.

An extractor that makes the same mistake on many sources drags ``q_E``
down globally — exactly the signal Figure 18 shows is buried by the
(Extractor, URL) cross-product.

The model's deduplicated ``(triple, extractor, site)`` claims *are* the
claim columns at ``Granularity.EXTRACTOR_SITE``, whatever
``config.granularity`` says.
"""

from __future__ import annotations

import numpy as np

from repro.fusion import kernels
from repro.fusion.base import Fuser, FusionConfig, FusionResult
from repro.fusion.extensions.rounds import claim_rows, fuse_rounds
from repro.fusion.observations import FusionInput, _sorted_table
from repro.fusion.provenance import Granularity

__all__ = ["SplitQualityFuser"]


class SplitQualityFuser(Fuser):
    """Factored extractor × source accuracy model.

    ``extractor_prior_strength`` / ``site_prior_strength`` are the
    pseudo-counts of the shrinkage toward the default accuracy.
    """

    def __init__(
        self,
        config: FusionConfig | None = None,
        gold_labels=None,
        extractor_prior_strength: float = 1.0,
        site_prior_strength: float = 2.0,
    ) -> None:
        super().__init__(config, gold_labels)
        self.extractor_prior_strength = extractor_prior_strength
        self.site_prior_strength = site_prior_strength

    @property
    def name(self) -> str:
        return "SPLITQ"

    def fuse(self, fusion_input: FusionInput, executor=None) -> FusionResult:
        # executor accepted per the Fuser contract; this fuser runs in-process.
        config = self.config
        cols = fusion_input.claims(Granularity.EXTRACTOR_SITE).columnar()
        extractors, prov_extractor = _sorted_table([e for e, _site in cols.provenances])
        sites, prov_site = _sorted_table([s for _extractor, s in cols.provenances])
        claim_row = claim_rows(cols)
        claim_extractor = prov_extractor[cols.claim_prov]
        claim_site = prov_site[cols.claim_prov]
        everyone = np.ones(len(cols.provenances), dtype=bool)
        prior = config.default_accuracy

        def shrunk_mean(codes, weights, values, strength, size):
            """Per code: the weighted mean of ``values``, shrunk toward the
            prior with pseudo-count ``strength``."""
            return (strength * prior + np.bincount(codes, weights * values, size)) / (
                strength + np.bincount(codes, weights, size)
            )

        def step(state):
            q, a = state
            # Stage I: the pair accuracy q·a plays the per-provenance
            # accuracy role in the standard ACCU posterior.
            posteriors = kernels.accu_round(
                cols, q[prov_extractor] * a[prov_site], everyone, config.n_false_values
            ).posteriors
            # Stage II: re-estimate the factors, cross-weighted and shrunk
            # toward the prior (see module docstring).
            claimed = posteriors[claim_row]
            new_q = shrunk_mean(
                claim_extractor, a[claim_site], claimed,
                self.extractor_prior_strength, len(q),
            )
            new_a = shrunk_mean(
                claim_site, q[claim_extractor], claimed,
                self.site_prior_strength, len(a),
            )
            return posteriors, (new_q, new_a)

        result, (q, a) = fuse_rounds(
            self.name, cols, config,
            (np.full(len(extractors), prior), np.full(len(sites), prior)),
            step,
        )
        quality = dict(zip(extractors, q.tolist()))
        accuracy = dict(zip(sites, a.tolist()))
        result.accuracies = {("ext", e): v for e, v in quality.items()} | {
            ("site", s): v for s, v in accuracy.items()
        }
        result.diagnostics["extractor_quality"] = quality
        result.diagnostics["site_accuracy"] = accuracy
        return result
