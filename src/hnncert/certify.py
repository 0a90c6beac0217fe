"""Certification pipeline: verify a family of rose endomorphisms and either
certify hyperbolicity of the multiple HNN extension built from their N-th
powers, or report a concrete obstruction.

Verdict semantics:

* ``certified_hyperbolic`` — every representative is an expanding irreducible
  train-track immersion, pullbacks stabilize, image subgroups are essentially
  disjoint at the emitted power N, and expansion holds at N, which settles
  the annuli-flare hypothesis at N (below).
* ``obstruction_BS`` — a verified invariant loop [φ^k(γ)] = [γ^d]; the
  mapping torus then contains a Baumslag–Solitar subgroup and is not
  hyperbolic at any power.
* ``not_disjoint`` — a witnessed conjugate intersection at every power up to
  the cap.  Image subgroups shrink as the power grows, so this is a budget
  verdict like ``inconclusive`` (the CLI exits 3 for both), not an
  obstruction: a larger disjointness cap may still certify.
* ``inconclusive`` — anything else (failed preconditions, exhausted caps);
  never a claim of non-hyperbolicity.

Precondition: the extension is a multiple *ascending* HNN extension, so
every φ_i must be injective.  F_n is Hopfian, so φ is injective iff its
image φ(F_n) has rank n, read off the folded graph of the generator images.
A non-injective representative is a failed precondition: it is named in the
reasons, and the disjointness gate is skipped.

No float enters a verdict.  "Expanding" is decided from the edge images: an
irreducible transition matrix has Perron–Frobenius eigenvalue 1 exactly
when it is a permutation matrix (every edge maps to a single edge), and
above 1 otherwise.  The eigenvalue itself is only reported, as ``lambda``.

Power selection: per-check powers transfer to common multiples (images of
φ^{kN} sit inside images of φ^N, stabilized pullbacks stay stabilized, and
expansion factors compound), so N is their least common multiple.

Annuli flare at N (Bestvina–Feighn's annuli-flare hypothesis), so no annulus
is sampled.  Each representative f_j is an immersion, and its expansion
power divides N.  An immersion's edge images never cancel, so every column
sum of M_j^N, M_j = ``transition_matrix(f_j)``, is at least 3K_j² ≥ 3, and
1ᵀM_j^N ≥ 3·1ᵀ entry by entry.  A loop with letter counts c has
|f_j^N(α)| = 1ᵀM_j^N·c, so the three rings of a thin annulus over the
admissible words (j, k), (−j, k) and (−j, −j) have lengths
(1ᵀc, 1ᵀM_j^N·c, 1ᵀM_k^N·M_j^N·c), (1ᵀM_j^N·c, 1ᵀc, 1ᵀM_k^N·c) and
(1ᵀM_j^N·M_j^N·c, 1ᵀM_j^N·c, 1ᵀc), c counting the loop the rings are
pushed from.  In each an outer ring is at least three times the middle
one: 3·girth ≤ max(end lengths) holds for every loop, and so does flaring
(an end of at least twice the girth).  ``tests/test_annuli.py`` checks this
against the built rings of :mod:`annuli`.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from . import __version__
from .disjointness import essential_disjointness_power
from .expansion import expansion_power
from .graphmap import (
    GraphMap,
    PowerIterationError,
    cyclic_paths_equal,
    is_immersion,
    is_irreducible_matrix,
    map_loop,
    pf_eigenvalue,
    transition_matrix,
    verify_train_track,
)
from .pullback import stabilization_power
from .stallings import graph_rank, subgroup_graph
from .words import Endomorphism, Word, word_from_string, word_to_string

# certify calls none of these; perfbench/spans.py looks them up in this
# module by name, until certify owns its trace
from .annuli import audit_31_hyperbolicity  # noqa: F401
from .annuli import flaring_audit as _flaring_battery  # noqa: F401
from .graphmap import iterate_map  # noqa: F401

LCM_CAP = 2**20

# the "caps" object of the JSON schema: each key and the config field it sets
_CAPS = {
    "pullback": "pullback_cap",
    "disjointness": "disjointness_cap",
    "expansion": "expansion_cap",
}
# the budgets of the sampled annulus audits, which certify no longer runs (see
# the module docstring); old configs that set them, or "seed", still parse
_RETIRED_CAPS = ("audit_loops", "audit_loop_length", "flaring_rho_max")


class ConfigError(ValueError):
    """Malformed certification input; the message names the offending field."""


@dataclass(frozen=True)
class MarkingPair:
    """A change of marking h with its declared inverse, both rose maps."""

    map: Endomorphism
    inverse: Endomorphism

    def bilipschitz_constant(self) -> int:
        return max(self.map.max_image_length(), self.inverse.max_image_length())


@dataclass(frozen=True)
class CertificationConfig:
    rank: int
    endomorphisms: tuple[Endomorphism, ...]
    markings: tuple[Optional[MarkingPair], ...] = ()
    pullback_cap: int = 16
    disjointness_cap: int = 8
    expansion_cap: int = 64
    diagnostics: bool = False

    def __post_init__(self):
        if self.rank < 1:
            raise ConfigError("rank: must be an integer >= 1")
        if not self.endomorphisms:
            raise ConfigError("endos: need at least one endomorphism")
        for i, e in enumerate(self.endomorphisms):
            if e.rank != self.rank:
                raise ConfigError(f"endos[{i}]: rank {e.rank} != configured rank")
        if self.markings and len(self.markings) != len(self.endomorphisms):
            raise ConfigError("marking_maps: need one entry (or null) per endomorphism")
        for cap_name in _CAPS.values():
            if getattr(self, cap_name) < 1:
                raise ConfigError(f"caps: {cap_name} must be >= 1")


@dataclass(frozen=True)
class Certificate:
    verdict: str
    n: Optional[int]
    witness: Optional[dict]
    evidence: dict
    config_digest: str
    version: str


_TOP_KEYS = {"rank", "endos", "caps", "marking_maps", "diagnostics"}


def _parse_word(spec: Union[str, Sequence[int]], rank: int, where: str) -> Word:
    try:
        if isinstance(spec, str):
            return word_from_string(spec, rank)
        if isinstance(spec, (list, tuple)) and all(
            isinstance(x, int) and not isinstance(x, bool) for x in spec
        ):
            return Word(tuple(spec), rank)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(f"{where}: expected a letter string or a list of integers")


def _parse_endo(spec, rank: int, where: str) -> Endomorphism:
    if not isinstance(spec, (list, tuple)) or len(spec) != rank:
        raise ConfigError(f"{where}: expected one image word per generator")
    images = tuple(
        _parse_word(w, rank, f"{where}[{j}]") for j, w in enumerate(spec)
    )
    try:
        return Endomorphism(rank, images)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def parse_config(text: bytes, lenient: bool = False) -> CertificationConfig:
    """Parse the JSON input schema; letter syntax like "aB" is normalized.

    Unknown fields are errors unless ``lenient``, which downgrades them to
    warnings.  The retired settings (``seed`` and the caps ``audit_loops``,
    ``audit_loop_length`` and ``flaring_rho_max``) are dropped whatever
    their value, with one warning that names them.
    """
    try:
        data = json.loads(text.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"input is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise ConfigError("top level: expected a JSON object")

    caps = data.get("caps", {})
    retired = ["seed"] if "seed" in data else []
    if isinstance(caps, dict):  # any other value is rejected below
        retired += [f"caps.{key}" for key in _RETIRED_CAPS if key in caps]
        caps = {key: value for key, value in caps.items() if key not in _RETIRED_CAPS}
    if retired:
        warnings.warn(f"ignoring retired settings: {', '.join(retired)}")

    unknown = sorted(set(data) - _TOP_KEYS - {"seed"})
    if unknown:
        if lenient:
            warnings.warn(f"ignoring unknown fields: {', '.join(unknown)}")
        else:
            raise ConfigError(f"unknown fields: {', '.join(unknown)}")

    rank = data.get("rank")
    # reports write words in letter syntax, which has 26 letters
    if not isinstance(rank, int) or isinstance(rank, bool) or not 1 <= rank <= 26:
        raise ConfigError("rank: must be an integer from 1 to 26")

    endos_spec = data.get("endos")
    if not isinstance(endos_spec, list) or not endos_spec:
        raise ConfigError("endos: expected a non-empty list of endomorphisms")
    endos = tuple(
        _parse_endo(spec, rank, f"endos[{i}]") for i, spec in enumerate(endos_spec)
    )

    if not isinstance(caps, dict):
        raise ConfigError("caps: expected an object")
    unknown_caps = sorted(set(caps) - set(_CAPS))
    if unknown_caps:
        if lenient:
            warnings.warn(f"ignoring unknown caps: {', '.join(unknown_caps)}")
        else:
            raise ConfigError(f"caps: unknown keys: {', '.join(unknown_caps)}")
    for key, value in caps.items():
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise ConfigError(f"caps: {key} must be an integer >= 1")

    markings: tuple[Optional[MarkingPair], ...] = ()
    marking_spec = data.get("marking_maps")
    if marking_spec is not None:
        if not isinstance(marking_spec, list) or len(marking_spec) != len(endos):
            raise ConfigError(
                "marking_maps: need one entry (or null) per endomorphism"
            )
        parsed: list[Optional[MarkingPair]] = []
        for i, entry in enumerate(marking_spec):
            where = f"marking_maps[{i}]"
            if entry is None:
                parsed.append(None)
                continue
            if not isinstance(entry, dict) or set(entry) != {"map", "inverse"}:
                raise ConfigError(f'{where}: expected {{"map": …, "inverse": …}}')
            h = _parse_endo(entry["map"], rank, f"{where}.map")
            h_inv = _parse_endo(entry["inverse"], rank, f"{where}.inverse")
            for j in range(1, rank + 1):
                gen = Word((j,), rank)
                if h(h_inv(gen)) != gen or h_inv(h(gen)) != gen:
                    raise ConfigError(
                        f"{where}: inverse fails on generator {word_to_string(gen)}"
                    )
            parsed.append(MarkingPair(h, h_inv))
        markings = tuple(parsed)

    diagnostics = data.get("diagnostics", False)
    if not isinstance(diagnostics, bool):
        raise ConfigError("diagnostics: must be a boolean")

    return CertificationConfig(
        rank=rank,
        endomorphisms=endos,
        markings=markings,
        diagnostics=diagnostics,
        **{field: caps[key] for key, field in _CAPS.items() if key in caps},
    )


def _config_echo(config: CertificationConfig) -> dict:
    return {
        "rank": config.rank,
        "endos": [
            [word_to_string(w) for w in e.images] for e in config.endomorphisms
        ],
        "marking_maps": [
            None
            if m is None
            else {
                "map": [word_to_string(w) for w in m.map.images],
                "inverse": [word_to_string(w) for w in m.inverse.images],
            }
            for m in config.markings
        ]
        if config.markings
        else None,
        "caps": {key: getattr(config, field) for key, field in _CAPS.items()},
        "diagnostics": config.diagnostics,
    }


def _canonical_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _verified_bs_witness(
    f: GraphMap, loop, degree: int, power: int, rank: int
) -> Optional[dict]:
    """Re-check [f^power(γ)] = [γ^degree] before claiming an obstruction."""
    try:
        current = tuple(loop)
        for _ in range(power):
            current = map_loop(f, current)
        if not cyclic_paths_equal(current, tuple(loop) * degree):
            return None
    except ValueError:
        return None
    return {
        "loop": word_to_string(Word(tuple(loop), rank)),
        "degree": degree,
        "power": power,
    }


def _diagnostics_report(reps: Sequence[GraphMap]) -> dict:
    from .lamination import independence_probe, leaf_segment, quasi_periodicity_probe

    report: dict = {"independence": [], "quasi_periodicity": []}
    for i in range(len(reps)):
        try:
            leaf = leaf_segment(reps[i], 1, 8)
            span = quasi_periodicity_probe(leaf, 2, 64)
        except ValueError as exc:
            report["quasi_periodicity"].append({"endo": i + 1, "error": str(exc)})
            continue
        report["quasi_periodicity"].append(
            {"endo": i + 1, "scale": 2, "span": span}
        )
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            try:
                verdict = independence_probe(reps[i], reps[j], 4, 6)
            except ValueError as exc:
                report["independence"].append(
                    {"pair": [i + 1, j + 1], "error": str(exc)}
                )
                continue
            report["independence"].append(
                {
                    "pair": [i + 1, j + 1],
                    "kind": verdict.kind,
                    "scale": verdict.scale,
                    "witness": list(verdict.witness) if verdict.witness else None,
                }
            )
    return report


def certify(config: CertificationConfig) -> Certificate:
    """Run the full pipeline and assemble a certificate.

    Deterministic: identical configs produce identical certificates.
    """
    rank = config.rank
    reasons: list[str] = []
    bs_witnesses: list[dict] = []
    per_endo: list[dict] = []
    rep_endos: list[Endomorphism] = []
    reps: list[GraphMap] = []
    stab_powers: list[int] = []
    exp_powers: list[int] = []
    not_injective: list[str] = []

    for i, phi in enumerate(config.endomorphisms):
        label = f"endomorphism {i + 1}"
        marking = config.markings[i] if config.markings else None
        rep_endo = (
            marking.map.compose(phi).compose(marking.inverse) if marking else phi
        )
        k_const = marking.bilipschitz_constant() if marking else 1
        f = GraphMap.from_endomorphism(rep_endo)
        rep_endos.append(rep_endo)
        reps.append(f)
        record: dict = {
            "endo": i + 1,
            "images": [word_to_string(w) for w in rep_endo.images],
            "marking_k": k_const,
        }

        image_rank = graph_rank(subgroup_graph(list(rep_endo.images), rank))
        if image_rank < rank:
            not_injective.append(label)
            reasons.append(f"{label}: not injective (image rank {image_rank} < {rank})")

        record["immersion"] = is_immersion(f)
        if not record["immersion"]:
            reasons.append(f"{label}: representative is not an immersion")

        tt = verify_train_track(f)
        record["train_track"] = tt.kind
        if tt.kind != "train_track":
            reasons.append(f"{label}: illegal turn {tt.witness}")

        a = transition_matrix(f)
        record["irreducible"] = is_irreducible_matrix(a)
        if record["irreducible"]:
            try:
                record["lambda"] = pf_eigenvalue(a)
            except PowerIterationError:
                record["lambda"] = None
            if all(len(p) == 1 for p in f.edge_map):  # permutation: lambda = 1
                reasons.append(
                    f"{label}: not expanding (lambda = {record['lambda']})"
                )
        else:
            record["lambda"] = None
            reasons.append(f"{label}: transition matrix is reducible")

        if record["immersion"]:
            stab = stabilization_power(f, cap=config.pullback_cap)
            record["pullback"] = {"kind": stab.kind, "n": stab.n}
            if stab.kind == "stabilized_at":
                stab_powers.append(stab.n)
            elif stab.kind == "invariant_loop":
                witness = _verified_bs_witness(
                    f, stab.loop, stab.degree, stab.power, rank
                )
                if witness is None:
                    reasons.append(
                        f"{label}: unverifiable invariant-loop report from pullback"
                    )
                else:
                    witness["endo"] = i + 1
                    bs_witnesses.append(witness)
            else:
                reasons.append(
                    f"{label}: pullback stabilization exceeded cap "
                    f"{config.pullback_cap}"
                )
        else:
            record["pullback"] = None

        if tt.kind == "train_track":
            exp = expansion_power(
                f, cap=config.expansion_cap, target_factor=3 * k_const * k_const
            )
            record["expansion"] = {"kind": exp.kind, "n": exp.n}
            if exp.kind == "power":
                exp_powers.append(exp.n)
            elif exp.kind == "periodic_loop_obstruction":
                witness = _verified_bs_witness(
                    f, exp.witness.orbit[0], 1, exp.witness.period, rank
                )
                if witness is None:
                    reasons.append(
                        f"{label}: edge {exp.witness.edge} has periodic image lengths"
                    )
                else:
                    witness["endo"] = i + 1
                    bs_witnesses.append(witness)
            else:
                reasons.append(
                    f"{label}: expansion exceeded cap {config.expansion_cap}"
                    + (f" ({exp.note})" if exp.note else "")
                )
        else:
            record["expansion"] = None

        per_endo.append(record)

    evidence: dict = {
        "per_endomorphism": per_endo,
        "tool_versions": {"hnncert": __version__},
        "config": _config_echo(config),
    }

    disjoint_power: Optional[int] = None
    not_disjoint_witness: Optional[dict] = None
    if len(config.endomorphisms) < 2 or not_injective:
        note = (
            "single endomorphism: mapping-torus mode"
            if len(config.endomorphisms) < 2
            else f"{', '.join(not_injective)}: not injective"
        )
        evidence["disjointness"] = {"kind": "skipped", "n": None, "note": note}
    else:
        verdict = essential_disjointness_power(
            rep_endos, cap=config.disjointness_cap
        )
        evidence["disjointness"] = {
            "kind": verdict.kind,
            "n": verdict.n,
            "note": verdict.note,
        }
        if verdict.kind == "disjoint_at":
            disjoint_power = verdict.n
        elif verdict.kind == "not_disjoint_at_cap":
            w = verdict.witness
            not_disjoint_witness = {
                "pair": [w.pair[0] + 1, w.pair[1] + 1],
                "power": verdict.n,
                "conjugator": word_to_string(w.conjugator),
                "element": word_to_string(w.element),
            }
        else:
            reasons.append(
                f"family: disjointness search exceeded budget ({verdict.note})"
            )

    if config.diagnostics:
        evidence["diagnostics"] = _diagnostics_report(reps)

    def finish(verdict: str, n: Optional[int], witness: Optional[dict]) -> Certificate:
        echo_bytes = _canonical_bytes(_config_echo(config))
        return Certificate(
            verdict=verdict,
            n=n,
            witness=witness,
            evidence=evidence,
            config_digest=hashlib.sha256(echo_bytes).hexdigest(),
            version=__version__,
        )

    if bs_witnesses:
        return finish("obstruction_BS", None, bs_witnesses[0])
    if not_disjoint_witness is not None:
        return finish("not_disjoint", None, not_disjoint_witness)
    if reasons:
        evidence["reasons"] = sorted(set(reasons))
        return finish("inconclusive", None, None)

    powers = stab_powers + exp_powers
    if disjoint_power is not None:
        powers.append(disjoint_power)
    n = math.lcm(*powers)
    if n > LCM_CAP:
        evidence["reasons"] = [f"common power {n} exceeds the cap {LCM_CAP}"]
        return finish("inconclusive", None, None)

    return finish("certified_hyperbolic", n, None)


def emit_report(c: Certificate, format: str = "json") -> bytes:
    """Serialize a certificate; JSON output is byte-stable and round-trips."""
    if format == "json":
        payload = {
            "verdict": c.verdict,
            "N": c.n,
            "witness": c.witness,
            "evidence": c.evidence,
            "config_digest": c.config_digest,
            "version": c.version,
        }
        return (
            json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
        ).encode("utf-8")
    if format == "text":
        lines = [f"verdict: {c.verdict}"]
        if c.n is not None:
            lines.append(f"power N: {c.n}")
        if c.witness:
            lines.append(
                "witness: "
                + ", ".join(f"{k}={v}" for k, v in sorted(c.witness.items()))
            )
        for record in c.evidence.get("per_endomorphism", []):
            lam = record.get("lambda")
            lines.append(
                f"endo {record['endo']}: images {' '.join(record['images'])}; "
                f"immersion {record['immersion']}; train track "
                f"{record['train_track']}; irreducible {record['irreducible']}; "
                f"lambda {lam if lam is not None else 'n/a'}"
            )
        dis = c.evidence.get("disjointness")
        if dis:
            lines.append(f"disjointness: {dis['kind']} (n={dis['n']})")
        for reason in c.evidence.get("reasons", []):
            lines.append(f"reason: {reason}")
        lines.append(f"config digest: {c.config_digest}")
        lines.append(f"version: {c.version}")
        return ("\n".join(lines) + "\n").encode("utf-8")
    raise ValueError("format must be json or text")


def parse_report(data: bytes) -> Certificate:
    """Inverse of ``emit_report(…, "json")``."""
    payload = json.loads(data.decode("utf-8"))
    return Certificate(
        verdict=payload["verdict"],
        n=payload["N"],
        witness=payload["witness"],
        evidence=payload["evidence"],
        config_digest=payload["config_digest"],
        version=payload["version"],
    )
