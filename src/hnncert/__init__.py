"""Certifier for word-hyperbolicity of multiple ascending HNN extensions of free groups.

Given non-surjective endomorphisms of F_n presented as rose self-maps, the
pipeline verifies the train-track property, uniform expansion, pullback
stabilization and essential disjointness (at the emitted power, expansion
makes annuli flare), and emits a certificate naming a power N for which the
extension is word-hyperbolic — or a concrete obstruction (e.g. a
Baumslag–Solitar witness).
"""

__version__ = "0.1.0"

from .words import (  # noqa: F401
    Endomorphism,
    Word,
    apply_endo,
    canonical_cyclic_form,
    conjugate_in_free_group,
    cyclic_reduce,
    reduce,
    word_from_string,
    word_to_string,
)

from .certify import (  # noqa: F401
    Certificate,
    CertificationConfig,
    ConfigError,
    certify,
    emit_report,
    parse_config,
    parse_report,
)
