"""Tests for the certification pipeline, config parsing, and reports."""

import collections
import hashlib
import importlib
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

import hnncert
from hnncert.certify import (
    Certificate,
    CertificationConfig,
    ConfigError,
    MarkingPair,
    certify,
    emit_report,
    parse_config,
    parse_report,
)
from hnncert.disjointness import DisjointnessVerdict, image_subgroup
from hnncert.expansion import ExpansionVerdict
from hnncert.graphmap import PowerIterationError, TrainTrackVerdict
from hnncert.pullback import StabilizationVerdict
from hnncert.stallings import membership
from hnncert.words import Endomorphism, Word, free_reduce, word_from_string, word_to_string


def config_bytes(**kwargs) -> bytes:
    return json.dumps(kwargs).encode("utf-8")


# The audit caps no longer reach a verdict; they still enter the config digest.
GREEN = config_bytes(
    rank=2,
    endos=[["aab", "bba"], ["abb", "baa"]],
    caps={"audit_loops": 50, "audit_loop_length": 12},
)
TWO_ENDO_OBSTRUCTED = config_bytes(rank=2, endos=[["ab", "ba"], ["aa", "bb"]])
RANK_ONE_SQUARE = config_bytes(rank=1, endos=[["aa"]])
IDENTICAL = config_bytes(rank=2, endos=[["aab", "bba"], ["aab", "bba"]])


@pytest.fixture(scope="module")
def green_cert() -> Certificate:
    return certify(parse_config(GREEN))


@pytest.fixture(scope="module")
def obstructed_cert() -> Certificate:
    return certify(parse_config(TWO_ENDO_OBSTRUCTED))


class TestParseConfig:
    def test_minimal_schema(self):
        cfg = parse_config(b'{"rank":2,"endos":[["ab","ba"]]}')
        assert cfg.rank == 2
        assert len(cfg.endomorphisms) == 1
        assert cfg.endomorphisms[0].images == (
            Word((1, 2), 2),
            Word((2, 1), 2),
        )

    def test_defaults(self):
        cfg = parse_config(b'{"rank":2,"endos":[["ab","ba"]]}')
        assert cfg.pullback_cap == 16
        assert cfg.disjointness_cap == 8
        assert cfg.expansion_cap == 64
        assert cfg.seed == 0
        assert cfg.diagnostics is False
        assert cfg.markings == ()

    def test_caps_override(self):
        cfg = parse_config(config_bytes(rank=2, endos=[["ab", "a"]], caps={"expansion": 8}))
        assert cfg.expansion_cap == 8
        assert cfg.pullback_cap == 16

    def test_uppercase_is_inverse(self):
        cfg = parse_config(config_bytes(rank=2, endos=[["aB", "b"]]))
        assert cfg.endomorphisms[0].images[0] == Word((1, -2), 2)

    def test_integer_word_syntax(self):
        by_letters = parse_config(config_bytes(rank=2, endos=[["ab", "ba"]]))
        by_ints = parse_config(config_bytes(rank=2, endos=[[[1, 2], [2, 1]]]))
        assert by_letters.endomorphisms == by_ints.endomorphisms

    def test_rank_zero_rejected(self):
        with pytest.raises(ConfigError, match="rank"):
            parse_config(config_bytes(rank=0, endos=[["a"]]))

    def test_rank_must_be_integer(self):
        with pytest.raises(ConfigError, match="rank"):
            parse_config(config_bytes(rank="2", endos=[["ab", "ba"]]))
        with pytest.raises(ConfigError, match="rank"):
            parse_config(config_bytes(rank=True, endos=[["a"]]))
        with pytest.raises(ConfigError, match="rank"):
            parse_config(config_bytes(endos=[["a"]]))

    def test_letter_beyond_rank(self):
        with pytest.raises(ConfigError, match="range"):
            parse_config(config_bytes(rank=2, endos=[["ac", "b"]]))

    def test_word_neither_string_nor_ints(self):
        with pytest.raises(ConfigError, match="letter string"):
            parse_config(config_bytes(rank=2, endos=[[17, "b"]]))

    def test_image_reducing_to_nothing(self):
        with pytest.raises(ConfigError, match="nonempty"):
            parse_config(config_bytes(rank=2, endos=[["aA", "b"]]))

    def test_wrong_image_count(self):
        with pytest.raises(ConfigError, match="per generator"):
            parse_config(config_bytes(rank=2, endos=[["ab"]]))

    def test_empty_endo_list(self):
        with pytest.raises(ConfigError, match="endos"):
            parse_config(config_bytes(rank=2, endos=[]))

    def test_unknown_field_strict(self):
        with pytest.raises(ConfigError, match="bogus"):
            parse_config(config_bytes(rank=2, endos=[["ab", "ba"]], bogus=1))

    def test_unknown_field_lenient(self):
        with pytest.warns(UserWarning, match="bogus"):
            cfg = parse_config(
                config_bytes(rank=2, endos=[["ab", "ba"]], bogus=1), lenient=True
            )
        assert cfg.rank == 2

    def test_unknown_cap_strict(self):
        with pytest.raises(ConfigError, match="caps"):
            parse_config(config_bytes(rank=2, endos=[["ab", "ba"]], caps={"depth": 3}))

    def test_unknown_cap_lenient(self):
        with pytest.warns(UserWarning, match="depth"):
            parse_config(
                config_bytes(rank=2, endos=[["ab", "ba"]], caps={"depth": 3}),
                lenient=True,
            )

    def test_cap_values_validated(self):
        for bad in (0, -1, "8", True):
            with pytest.raises(ConfigError, match="caps"):
                parse_config(
                    config_bytes(rank=2, endos=[["ab", "ba"]], caps={"expansion": bad})
                )

    def test_malformed_json_reports_location(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config(b'{"rank": 2,,}')

    def test_non_utf8(self):
        with pytest.raises(ConfigError, match="UTF-8"):
            parse_config(b'\xff\xfe{"rank":2}')

    def test_top_level_must_be_object(self):
        with pytest.raises(ConfigError, match="object"):
            parse_config(b"[1,2]")

    def test_seed_and_diagnostics_types(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config(config_bytes(rank=2, endos=[["ab", "ba"]], seed="x"))
        with pytest.raises(ConfigError, match="diagnostics"):
            parse_config(config_bytes(rank=2, endos=[["ab", "ba"]], diagnostics=1))

    def test_marking_maps_parsed(self):
        cfg = parse_config(
            config_bytes(
                rank=2,
                endos=[["aab", "bba"]],
                marking_maps=[{"map": ["b", "a"], "inverse": ["b", "a"]}],
            )
        )
        assert len(cfg.markings) == 1
        assert cfg.markings[0].bilipschitz_constant() == 1

    def test_marking_null_entries(self):
        cfg = parse_config(
            config_bytes(
                rank=2,
                endos=[["aab", "bba"], ["abb", "baa"]],
                marking_maps=[None, {"map": ["ab", "b"], "inverse": ["aB", "b"]}],
            )
        )
        assert cfg.markings[0] is None
        assert cfg.markings[1].bilipschitz_constant() == 2

    def test_marking_length_mismatch(self):
        with pytest.raises(ConfigError, match="marking_maps"):
            parse_config(
                config_bytes(
                    rank=2,
                    endos=[["aab", "bba"], ["abb", "baa"]],
                    marking_maps=[None],
                )
            )

    def test_marking_wrong_keys(self):
        with pytest.raises(ConfigError, match="marking_maps"):
            parse_config(
                config_bytes(
                    rank=2, endos=[["aab", "bba"]], marking_maps=[{"map": ["b", "a"]}]
                )
            )

    def test_marking_not_an_inverse(self):
        with pytest.raises(ConfigError, match="inverse fails"):
            parse_config(
                config_bytes(
                    rank=2,
                    endos=[["aab", "bba"]],
                    marking_maps=[{"map": ["ab", "b"], "inverse": ["a", "b"]}],
                )
            )


class TestConfigInvariants:
    def endo(self, *words, rank=2):
        return Endomorphism(rank, tuple(word_from_string(w, rank) for w in words))

    def test_rank_below_one(self):
        with pytest.raises(ConfigError, match="rank"):
            CertificationConfig(rank=0, endomorphisms=(self.endo("a", "b"),))

    def test_rank_mismatch(self):
        with pytest.raises(ConfigError, match="rank"):
            CertificationConfig(rank=3, endomorphisms=(self.endo("ab", "ba"),))

    def test_no_endomorphisms(self):
        with pytest.raises(ConfigError, match="at least one"):
            CertificationConfig(rank=2, endomorphisms=())

    def test_cap_bounds(self):
        with pytest.raises(ConfigError, match="pullback_cap"):
            CertificationConfig(
                rank=2, endomorphisms=(self.endo("ab", "ba"),), pullback_cap=0
            )
        with pytest.raises(ConfigError, match="audit"):
            CertificationConfig(
                rank=2, endomorphisms=(self.endo("ab", "ba"),), audit_loops=0
            )

    def test_marking_count(self):
        pair = MarkingPair(self.endo("b", "a"), self.endo("b", "a"))
        with pytest.raises(ConfigError, match="marking_maps"):
            CertificationConfig(
                rank=2, endomorphisms=(self.endo("ab", "ba"),), markings=(pair, None)
            )


class TestVerdicts:
    def test_rank_one_square_is_bs_obstructed(self):
        cert = certify(parse_config(RANK_ONE_SQUARE))
        assert cert.verdict == "obstruction_BS"
        assert cert.witness == {"loop": "a", "degree": 2, "power": 1, "endo": 1}
        assert cert.n is None

    def test_identical_endomorphisms_are_not_disjoint(self):
        cert = certify(parse_config(IDENTICAL))
        assert cert.verdict == "not_disjoint"
        assert cert.witness["pair"] == [1, 2]
        assert cert.witness["element"]  # a concrete common conjugate element
        # the edge budget stops the search mid-cap; the verdict then covers
        # exactly the fully tested powers
        assert "powers 1..5" in cert.evidence["disjointness"]["note"]

    def test_two_endo_fixture_is_bs_obstructed(self, obstructed_cert):
        cert = obstructed_cert
        assert cert.verdict == "obstruction_BS"
        assert cert.witness == {"loop": "a", "degree": 2, "power": 1, "endo": 2}

    def test_two_endo_fixture_evidence(self, obstructed_cert):
        rec1, rec2 = obstructed_cert.evidence["per_endomorphism"]
        assert rec1["lambda"] == pytest.approx(2.0)
        assert rec1["pullback"]["kind"] == "cap_exceeded"
        assert rec1["expansion"] == {"kind": "power", "n": 2}
        assert rec2["irreducible"] is False
        assert rec2["lambda"] is None
        assert rec2["pullback"]["kind"] == "invariant_loop"
        assert obstructed_cert.evidence["disjointness"]["kind"] == "disjoint_at"

    def test_green_pair_certifies(self, green_cert):
        assert green_cert.verdict == "certified_hyperbolic"
        assert green_cert.n == 2
        assert green_cert.witness is None

    def test_green_pair_evidence(self, green_cert):
        for rec in green_cert.evidence["per_endomorphism"]:
            assert rec["immersion"] is True
            assert rec["train_track"] == "train_track"
            assert rec["lambda"] == pytest.approx(3.0)
            assert rec["pullback"] == {"kind": "stabilized_at", "n": 1}
            assert rec["expansion"] == {"kind": "power", "n": 1}
        assert green_cert.evidence["disjointness"] == {
            "kind": "disjoint_at",
            "n": 2,
            "note": "",
        }
        assert "audit_31" not in green_cert.evidence
        assert "flaring" not in green_cert.evidence

    def test_single_endomorphism_mode(self):
        cert = certify(
            parse_config(
                config_bytes(
                    rank=2,
                    endos=[["aab", "bba"]],
                    caps={"audit_loops": 50, "audit_loop_length": 12},
                )
            )
        )
        assert cert.verdict == "certified_hyperbolic"
        assert cert.n == 1
        assert cert.evidence["disjointness"]["kind"] == "skipped"

    def test_never_stabilizing_map_is_inconclusive(self):
        cert = certify(
            parse_config(
                config_bytes(rank=2, endos=[["ab", "ba"]], caps={"pullback": 4})
            )
        )
        assert cert.verdict == "inconclusive"
        assert any("pullback" in r for r in cert.evidence["reasons"])
        assert cert.n is None

    def test_non_injective_endomorphism_is_inconclusive(self):
        # a, b -> ab maps F_2 onto <ab>, of rank 1: the extension is not
        # ascending.  The disjointness gate, which would witness <ab>
        # meeting itself at every power, is skipped.
        cert = certify(parse_config(config_bytes(rank=2, endos=[["ab", "ab"]] * 2)))
        assert cert.verdict == "inconclusive"
        assert cert.witness is None
        assert "endomorphism 1: not injective (image rank 1 < 2)" in cert.evidence["reasons"]
        assert cert.evidence["disjointness"] == {
            "kind": "skipped",
            "n": None,
            "note": "endomorphism 1, endomorphism 2: not injective",
        }

    def test_power_coherence(self, green_cert):
        n = green_cert.n
        for rec in green_cert.evidence["per_endomorphism"]:
            assert n % rec["pullback"]["n"] == 0
            assert n % rec["expansion"]["n"] == 0
        assert n % green_cert.evidence["disjointness"]["n"] == 0


# Draws of a random-config fuzz run.  In the non-injective families some
# power of a map sends a generator to the empty word.  The rank-3 families
# are injective non-immersions: no power of their maps is block-decodable.
@pytest.mark.parametrize(
    "rank, endos, verdict, reason",
    [
        (2, [["bA", "bA"], ["bA", "BB"]], "inconclusive", "endomorphism 1: not injective (image rank 1 < 2)"),
        (2, [["BA", "ab"], ["Ba", "Abb"]], "inconclusive", "endomorphism 1: not injective (image rank 1 < 2)"),
        (2, [["aaB", "aB"], ["ba", "AB"]], "inconclusive", "endomorphism 2: not injective (image rank 1 < 2)"),
        (3, [["cBB", "cB", "CCA"], ["ACb", "aab", "acc"]], "not_disjoint", None),
        (3, [["ac", "acb", "Cbb"], ["bbc", "ca", "aCB"]], "not_disjoint", None),
    ],
    ids=["rank2_bA", "rank2_BA", "rank2_aaB", "rank3_cBB", "rank3_ac"],
)
def test_fuzz_draws_get_a_verdict(rank, endos, verdict, reason):
    t0 = time.monotonic()
    cert = certify(parse_config(config_bytes(rank=rank, endos=endos)))
    assert time.monotonic() - t0 < 10.0
    assert cert.verdict == verdict
    if reason is not None:
        assert reason in cert.evidence["reasons"]


class TestMarkings:
    def test_conjugated_representative_certifies(self):
        # psi = h^-1 (a->aab, b->bba) h for h: a->ab, b->b, so the marked
        # representative is the train-track map and K = 2 raises the
        # expansion target to 12, forcing a higher certified power.
        cert = certify(
            parse_config(
                config_bytes(
                    rank=2,
                    endos=[["aBabbaB", "bbaB"]],
                    marking_maps=[{"map": ["ab", "b"], "inverse": ["aB", "b"]}],
                    caps={"audit_loops": 10, "audit_loop_length": 8},
                )
            )
        )
        assert cert.verdict == "certified_hyperbolic"
        assert cert.n == 3
        rec = cert.evidence["per_endomorphism"][0]
        assert rec["images"] == ["aab", "bba"]
        assert rec["marking_k"] == 2
        assert rec["expansion"] == {"kind": "power", "n": 3}

    def test_isometric_marking_keeps_power(self):
        cert = certify(
            parse_config(
                config_bytes(
                    rank=2,
                    endos=[["aab", "bba"]],
                    marking_maps=[{"map": ["B", "A"], "inverse": ["B", "A"]}],
                    caps={"audit_loops": 10, "audit_loop_length": 8},
                )
            )
        )
        assert cert.verdict == "certified_hyperbolic"
        assert cert.n == 1
        rec = cert.evidence["per_endomorphism"][0]
        assert rec["images"] == ["baa", "abb"]
        assert rec["marking_k"] == 1


FAST_GREEN = config_bytes(
    rank=2,
    endos=[["aab", "bba"], ["abb", "baa"]],
    caps={"audit_loops": 5, "audit_loop_length": 6},
)


class TestSoundnessGating:
    """Forcing any single sub-check to fail must drop the certification."""

    # the package re-exports the certify *function*, which shadows the
    # submodule as an attribute of hnncert; resolve the module explicitly
    pipeline = importlib.import_module("hnncert.certify")

    def run_patched(self, monkeypatch, name, fake) -> Certificate:
        monkeypatch.setattr(self.pipeline, name, fake)
        return certify(parse_config(FAST_GREEN))

    def test_baseline_certifies(self):
        assert certify(parse_config(FAST_GREEN)).verdict == "certified_hyperbolic"

    def test_immersion_gate(self, monkeypatch):
        cert = self.run_patched(monkeypatch, "is_immersion", lambda f: False)
        assert cert.verdict == "inconclusive"

    def test_train_track_gate(self, monkeypatch):
        cert = self.run_patched(
            monkeypatch,
            "verify_train_track",
            lambda f: TrainTrackVerdict("illegal_turn_found", (1, 2), 1),
        )
        assert cert.verdict == "inconclusive"

    def test_irreducibility_gate(self, monkeypatch):
        cert = self.run_patched(monkeypatch, "is_irreducible_matrix", lambda a: False)
        assert cert.verdict == "inconclusive"

    def test_eigenvalue_gate(self):
        # swapping the petals has lambda = 1 exactly: not expanding
        capped = certify(
            parse_config(b'{"rank":2,"endos":[["b","a"]],"caps":{"expansion":1}}')
        )
        assert capped.verdict == "inconclusive"
        assert capped.evidence["reasons"] == [
            "endomorphism 1: expansion exceeded cap 1 "
            "(edges [1, 2] below target after 1 iterations)",
            "endomorphism 1: not expanding (lambda = 1.0)",
        ]
        uncapped = certify(parse_config(b'{"rank":2,"endos":[["b","a"]]}'))
        assert uncapped.verdict == "obstruction_BS"

    def test_reported_lambda_does_not_gate(self, monkeypatch):
        # "expanding" is decided from the edge images, not from the float
        cert = self.run_patched(monkeypatch, "pf_eigenvalue", lambda a: 1.0)
        assert cert.verdict == "certified_hyperbolic"
        lams = [r["lambda"] for r in cert.evidence["per_endomorphism"]]
        assert lams == [1.0, 1.0]

    def test_failed_eigenvalue_iteration_reports_null(self, monkeypatch):
        def fail(a):
            raise PowerIterationError("forced", [1, 1])

        cert = self.run_patched(monkeypatch, "pf_eigenvalue", fail)
        assert cert.verdict == "certified_hyperbolic"
        lams = [r["lambda"] for r in cert.evidence["per_endomorphism"]]
        assert lams == [None, None]

    def test_stabilization_gate(self, monkeypatch):
        cert = self.run_patched(
            monkeypatch,
            "stabilization_power",
            lambda f, cap: StabilizationVerdict("cap_exceeded"),
        )
        assert cert.verdict == "inconclusive"

    def test_disjointness_gate(self, monkeypatch):
        cert = self.run_patched(
            monkeypatch,
            "essential_disjointness_power",
            lambda endos, cap: DisjointnessVerdict("cap_exceeded", n=1, note="forced"),
        )
        assert cert.verdict == "inconclusive"

    def test_expansion_gate(self, monkeypatch):
        cert = self.run_patched(
            monkeypatch,
            "expansion_power",
            lambda f, cap, target_factor: ExpansionVerdict("cap_exceeded"),
        )
        assert cert.verdict == "inconclusive"


class TestAuditAnnuli:
    annuli = importlib.import_module("hnncert.annuli")
    graphmap = importlib.import_module("hnncert.graphmap")
    MARKED_GREEN = config_bytes(
        rank=2,
        endos=[["aBabbaB", "bbaB"], ["abb", "baa"]],
        marking_maps=[{"map": ["ab", "b"], "inverse": ["aB", "b"]}, None],
    )

    def test_certify_builds_no_annulus(self, monkeypatch):
        called = []
        for real in (
            self.annuli.build_annulus,
            self.graphmap.iterate_map,
            self.graphmap.compose_maps,
        ):

            def recorded(*args, real=real, **kwargs):
                called.append((real.__name__, args[1:]))
                return real(*args, **kwargs)

            # wherever a module of the package binds the name
            for name, module in list(sys.modules.items()):
                if name.split(".")[0] == "hnncert" and (
                    getattr(module, real.__name__, None) is real
                ):
                    monkeypatch.setattr(module, real.__name__, recorded)
        cert = certify(replace(parse_config(FAST_GREEN), diagnostics=True))
        assert cert.verdict == "certified_hyperbolic"
        assert cert.n == 2
        marked = certify(parse_config(self.MARKED_GREEN))
        assert marked.verdict == "certified_hyperbolic"
        wide = certify(parse_config(WIDE_GROWTH))
        assert wide.evidence["per_endomorphism"][0]["expansion"] == {"kind": "power", "n": 9}
        # no ring and no power of a map is built, not even f^1
        assert called == []

    def test_marked_green_pair_gets_a_verdict_at_power_6(self):
        # at N = 6 the edge images have 729 letters; built audit rings
        # reached 10^7 letters, and this config got no verdict at all
        t0 = time.monotonic()
        cert = certify(parse_config(self.MARKED_GREEN))
        assert time.monotonic() - t0 < 10.0
        assert cert.verdict == "certified_hyperbolic"
        assert cert.n == 6


class TestBenchmarkHooks:
    """perfbench/spans.py wraps functions, methods and gates by the names
    their callers look up; renaming or rebinding one breaks a traced run or
    leaves its counters empty."""

    ROOT = Path(__file__).resolve().parents[1]
    SCRIPT = """
import json, sys
from hnncert.certify import certify, parse_config
import spans
tracer = spans.Tracer()
spans.install(tracer)
cert = certify(parse_config(sys.stdin.buffer.read()))
print(json.dumps({"verdict": cert.verdict, "counts": dict(tracer.counts)}))
"""

    def test_traced_certify_counts(self):
        path = [str(self.ROOT / "perfbench"), str(self.ROOT / "src")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        result = subprocess.run(
            [sys.executable, "-c", self.SCRIPT],
            input=FAST_GREEN,
            capture_output=True,
            env=env,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr.decode()
        out = json.loads(result.stdout)
        assert out["verdict"] == "certified_hyperbolic"
        # certify builds and audits no annulus
        assert out["counts"].get("annuli.build_annulus_calls", 0) == 0
        assert out["counts"].get("annuli.flaring_audit_calls", 0) == 0
        assert out["counts"]["gate.disjointness_calls"] == 1

    def test_primitives_round(self, tmp_path):
        """One primitives round, untraced and traced: every op runs and
        passes its check, and the traced spans still see the product."""
        env = dict(os.environ, PYTHONPATH=str(self.ROOT / "src"))
        for trace in ("0", "1"):
            out = tmp_path / f"primitives-trace{trace}.json"
            result = subprocess.run(
                [sys.executable, str(self.ROOT / "perfbench" / "worker.py"),
                 "--workload", "primitives", "--seed", "1", "--trace", trace, "--out", str(out)],
                capture_output=True,
                env=env,
                timeout=300,
            )
            assert result.returncode == 0, result.stderr.decode()
            data = json.loads(out.read_text())
            assert data["ops"]
            for op in data["ops"]:
                assert op["error"] is None and op["check"] is None, op
        assert data["trace"]["counts"]["pullback.fiber_product_edges"] > 0
        assert "stallings.component_labels" in data["trace"]["times"]


class TestStandardLibraryOnly:
    """The package runs on the standard library alone."""

    ROOT = Path(__file__).resolve().parents[1]
    SCRIPT = """
import sys
sys.modules["numpy"] = None  # importing numpy now raises ImportError
before = set(sys.modules)
from hnncert import cli
code = cli.main(["--input", sys.argv[1], "--output", sys.argv[2]])
loaded = {name.split(".")[0] for name in set(sys.modules) - before}
foreign = sorted(
    name for name in loaded
    if name not in sys.stdlib_module_names and name != "hnncert"
)
print(code, " ".join(foreign))
"""

    def test_certify_imports_no_third_party_module(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_bytes(FAST_GREEN)
        env = dict(os.environ, PYTHONPATH=str(self.ROOT / "src"))
        result = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, str(config), str(tmp_path / "report.json")],
            capture_output=True,
            env=env,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr.decode()
        code, *foreign = result.stdout.decode().split()
        assert code == "0"
        assert foreign == []


class TestDeterminismAndDigest:
    def test_identical_config_identical_bytes(self):
        a = emit_report(certify(parse_config(FAST_GREEN)))
        b = emit_report(certify(parse_config(FAST_GREEN)))
        assert a == b

    def test_digest_tracks_config(self):
        base = certify(parse_config(FAST_GREEN))
        reseeded = certify(
            parse_config(
                config_bytes(
                    rank=2,
                    endos=[["aab", "bba"], ["abb", "baa"]],
                    caps={"audit_loops": 5, "audit_loop_length": 6},
                    seed=7,
                )
            )
        )
        assert base.config_digest != reseeded.config_digest
        assert len(base.config_digest) == 64
        assert base.verdict == reseeded.verdict

    def test_version_recorded(self, green_cert):
        assert green_cert.version == hnncert.__version__
        assert green_cert.evidence["tool_versions"]["hnncert"] == hnncert.__version__


GREEN_ENDOS = [["aab", "bba"], ["abb", "baa"]]

# Full SHA-256 of emit_report(certify(...)) on the reference configs: the
# four benchmark configs (perfbench/configs), then the default-caps green
# pair, one endomorphism alone, the rank-3 pair and a marked green pair.
# A change that keeps behaviour keeps every byte of these reports.
REFERENCE_REPORTS = {
    "green_pair": (
        dict(rank=2, endos=GREEN_ENDOS, caps={"audit_loops": 50}, seed=0),
        "ff01a9b5146c518714b4585e0388e6e838e16b751dcd5dbcdb100bf180fb1440",
    ),
    "identical_rank2": (
        dict(rank=2, endos=[["aab", "bba"], ["aab", "bba"]], seed=0),
        "43c291a7630e1991038579fb6b018d9c588d1a853fb73cba533f9cf500321939",
    ),
    "identical_rank3": (
        dict(rank=3, endos=[["aab", "bbc", "cca"], ["aab", "bbc", "cca"]], seed=0),
        "00a7957ec65e25cb2e5b41e31c336fe1a8e69aa86f086b9eeac54ce697b2b907",
    ),
    "obstructed_pair": (
        dict(rank=2, endos=[["ab", "ba"], ["aa", "bb"]], seed=0),
        "18b92dd590982d11b7bc9f11fb154bf77b051becca6d2c7611b6f8962a43d922",
    ),
    "green_default_caps": (
        dict(rank=2, endos=GREEN_ENDOS),
        "63729971feabe3393e96ea1a289ae01b8a13565b1cfdd04113b37ed2fd65cd32",
    ),
    "single": (
        dict(rank=2, endos=[["aab", "bba"]]),
        "43748e566c95b57926cf2b79b0e7368691756008dfe0a36fcab697857ab17548",
    ),
    "rank3_pair": (
        dict(rank=3, endos=[["aab", "bbc", "cca"], ["abc", "bca", "cab"]]),
        "fc843e5c28e957477977f949685840cc95a07238b6e524de946f06a6e41ce11c",
    ),
    "marked_green": (
        dict(
            rank=2,
            endos=GREEN_ENDOS,
            marking_maps=[{"map": ["ab", "b"], "inverse": ["aB", "b"]}, None],
            caps={"audit_loops": 20},
        ),
        "8b758c629659c6ef175f2ba10a211253e755e1e4d0dc4f5843d1616619d2f36a",
    ),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_REPORTS))
def test_reference_report_digest(name):
    config, digest = REFERENCE_REPORTS[name]
    report = emit_report(certify(parse_config(config_bytes(**config))))
    assert hashlib.sha256(report).hexdigest() == digest


# A representative a -> a^6, b -> b^2 behind a marking with K = 12, so the
# expansion target is 3K^2 = 432: b reaches it at power 9, when a's image
# would have 6^9 = 10,077,696 letters.
WIDE_GROWTH = config_bytes(
    rank=2,
    endos=[["aBBBBBBBBBBB" * 6 + "b" * 22, "bb"]],
    marking_maps=[{"map": ["abbbbbbbbbbb", "b"], "inverse": ["aBBBBBBBBBBB", "b"]}],
)


def test_wide_growth_report_digest():
    t0 = time.monotonic()
    cert = certify(parse_config(WIDE_GROWTH))
    report = emit_report(cert)
    assert time.monotonic() - t0 < 1.0
    assert cert.evidence["per_endomorphism"][0]["expansion"] == {"kind": "power", "n": 9}
    assert hashlib.sha256(report).hexdigest() == (
        "90456de7b5183eaf15d07624b4588afdc3a1e0e120e5eb3fd336a81ea424c01d"
    )


def slow_image_pair(first=("a", "bab")):
    """Rank 2: ``first`` (a -> a, b -> bab by default), and a -> a,
    b -> b·w·b with w a reduced 200-letter word drawn from
    ``random.Random(5)``.  The second image grows about 200-fold per power
    while the first grows 3-fold, so the product budget trips at power 3,
    where the second image would be a 1.9-million edge graph."""
    rng = random.Random(5)
    w = []
    while len(w) < 200:
        x = rng.choice((1, 2, -1, -2))
        if not w or x != -w[-1]:
            w.append(x)
    b_image = word_to_string(Word(free_reduce((2, *w, 2)), 2))
    return config_bytes(rank=2, endos=[list(first), ["a", b_image]])


def test_disjointness_budget_is_decided_before_the_images():
    t0 = time.monotonic()
    cert = certify(parse_config(slow_image_pair()))
    report = emit_report(cert)
    assert time.monotonic() - t0 < 10.0
    assert cert.verdict == "obstruction_BS"
    assert cert.evidence["disjointness"]["note"] == (
        "search budget exhausted at power 3; verdict covers powers 1..2"
    )
    assert hashlib.sha256(report).hexdigest() == (
        "d38b9f1ae7a41c2588fcc483754e2adb6bfef632ccd715d68d68a3a47035d134"
    )


def test_mixed_family_budget_is_decided_before_the_immersions_image():
    # a -> ab, b -> abb is no immersion (both images start with a), so its
    # image is built and counted; the immersion's third power is not built.
    # The witness cycle is read off parent pointers, not a word per product
    # vertex, which took 773 MB here
    t0 = time.monotonic()
    tracemalloc.start()
    try:
        cert = certify(parse_config(slow_image_pair(first=("ab", "abb"))))
        report = emit_report(cert)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.monotonic() - t0 < 10.0
    assert peak < 150 * 2**20
    assert cert.verdict == "obstruction_BS"
    assert cert.evidence["disjointness"]["note"] == (
        "search budget exhausted at power 3; verdict covers powers 1..2"
    )
    assert hashlib.sha256(report).hexdigest() == (
        "e6e2ce762b47368dadf522dba8015a7825d705a12e723d25be2ce9b16ffc3cc2"
    )


def seeded_corpus(count, seed=1):
    """``count`` parseable configs drawn from ``random.Random(seed)``: rank 2
    or 3, one or two endomorphisms, each image 2 or 3 random letters, small
    caps.  Drafts that parse_config rejects are skipped."""
    rng = random.Random(seed)
    caps = {"audit_loops": 10, "disjointness": 3, "pullback": 6}
    configs = []
    while len(configs) < count:
        rank = rng.randint(2, 3)
        letters = "abc"[:rank] + "ABC"[:rank]
        endos = [
            [
                "".join(rng.choice(letters) for _ in range(rng.randint(2, 3)))
                for _ in range(rank)
            ]
            for _ in range(rng.randint(1, 2))
        ]
        try:
            configs.append(parse_config(config_bytes(rank=rank, endos=endos, caps=caps)))
        except ConfigError:
            continue
    return configs


def test_seeded_corpus_digest():
    # SHA-256 of the concatenated reports of 1,000 random configs, which
    # reach every gate's odd cases: 638 inconclusive, 250 obstruction_BS,
    # 99 not_disjoint and 13 certified_hyperbolic
    digest = hashlib.sha256()
    verdicts = collections.Counter()
    for config in seeded_corpus(1000):
        cert = certify(config)
        verdicts[cert.verdict] += 1
        digest.update(emit_report(cert))
    assert verdicts == {
        "inconclusive": 638,
        "obstruction_BS": 250,
        "not_disjoint": 99,
        "certified_hyperbolic": 13,
    }
    assert digest.hexdigest() == (
        "24428bc53d4f53208d76e31f6771625bf159c7f389f4437aa3802b426cd0328e"
    )


def test_seeded_corpus_image_generators_are_basepoint_loops():
    # folding keeps each generator image a closed loop at the basepoint,
    # the invariant image_subgroup once re-checked on every call
    checked = 0
    for config in seeded_corpus(1000):
        for e in config.endomorphisms:
            for n in (1, 2, 3):
                try:
                    images = e.power(n).images
                except ValueError:  # φ^n kills a generator: no image is built
                    break
                graph = image_subgroup(e, n).graph
                for word in images:
                    assert membership(graph, word)
                    checked += 1
    assert checked > 10_000


def certified_configs():
    """Every certified config among the reference configs, FAST_GREEN, the
    marked green pair and the seeded corpus, with its certificate."""
    configs = [parse_config(config_bytes(**c)) for c, _ in REFERENCE_REPORTS.values()]
    configs += [parse_config(b) for b in (FAST_GREEN, TestAuditAnnuli.MARKED_GREEN)]
    configs += seeded_corpus(1000)
    for config in configs:
        cert = certify(config)
        if cert.verdict == "certified_hyperbolic":
            yield config, cert


def test_certified_power_triples_every_edge():
    # certify's lemma starts here: at N every column sum of M^N, the edge
    # image lengths of each immersed representative, is at least 3
    certified = 0
    for config, cert in certified_configs():
        certified += 1
        for record in cert.evidence["per_endomorphism"]:
            rank = config.rank
            images = [word_from_string(w, rank).letters for w in record["images"]]
            m = [[sum(abs(x) == i + 1 for x in img) for img in images] for i in range(rank)]
            power = [[int(i == j) for j in range(rank)] for i in range(rank)]
            for _ in range(cert.n):
                power = [[sum(a * b for a, b in zip(row, col)) for col in zip(*m)] for row in power]
            assert min(map(sum, zip(*power))) >= 3, (record["images"], cert.n)
    assert certified == 3 + 2 + 13


@pytest.mark.parametrize(
    "field, value",
    [("audit_loops", 1), ("audit_loop_length", 1), ("flaring_rho_max", 1), ("seed", 7)],
)
@pytest.mark.parametrize("name", ["green_pair", "single"])
def test_audit_caps_and_seed_reach_only_the_config(name, field, value):
    config = parse_config(config_bytes(**REFERENCE_REPORTS[name][0]))
    base = json.loads(emit_report(certify(config)))
    moved = json.loads(emit_report(certify(replace(config, **{field: value}))))
    assert moved["config_digest"] != base["config_digest"]
    for report in (base, moved):
        del report["evidence"]["config"], report["config_digest"]
    assert moved == base


class TestReports:
    def test_json_round_trip_green(self, green_cert):
        assert parse_report(emit_report(green_cert)) == green_cert

    def test_json_round_trip_obstruction(self, obstructed_cert):
        assert parse_report(emit_report(obstructed_cert)) == obstructed_cert

    def test_json_schema_keys(self, green_cert):
        payload = json.loads(emit_report(green_cert))
        assert set(payload) == {
            "verdict",
            "N",
            "witness",
            "evidence",
            "config_digest",
            "version",
        }
        assert payload["verdict"] == "certified_hyperbolic"
        assert payload["N"] == 2

    def test_text_format(self, green_cert):
        text = emit_report(green_cert, format="text").decode()
        assert "verdict: certified_hyperbolic" in text
        assert "power N: 2" in text
        assert "endo 1:" in text

    def test_text_format_witness(self, obstructed_cert):
        text = emit_report(obstructed_cert, format="text").decode()
        assert "degree=2" in text

    def test_unknown_format(self, green_cert):
        with pytest.raises(ValueError, match="format"):
            emit_report(green_cert, format="yaml")


class TestDiagnostics:
    def test_annotation_only(self):
        plain = certify(parse_config(FAST_GREEN))
        annotated = certify(
            parse_config(
                config_bytes(
                    rank=2,
                    endos=[["aab", "bba"], ["abb", "baa"]],
                    caps={"audit_loops": 5, "audit_loop_length": 6},
                    diagnostics=True,
                )
            )
        )
        assert annotated.verdict == plain.verdict
        assert annotated.n == plain.n
        report = annotated.evidence["diagnostics"]
        assert "diagnostics" not in plain.evidence
        (entry,) = report["independence"]
        assert entry["pair"] == [1, 2]
        assert entry["kind"] in {"distinct_at_scale", "indistinguishable_at_scale"}
        assert len(report["quasi_periodicity"]) == 2
