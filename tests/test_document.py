"""Tests for instance documents, the ring grammar, reports, and DOT export."""

import copy
import dataclasses
import importlib.util
import json
import pathlib
import pickle
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import chaincover.document as D
from chaincover.document import (
    DocumentSemanticError,
    DocumentSyntaxError,
    InstanceDocument,
    _KEPT,
    _POSETS,
    _Kept,
    _parse_poset_block,
    _verdict_dict,
    build_check_report,
    build_search_report,
    build_spec_report,
    build_verify_report,
    canonical_json,
    document_for_hom,
    document_for_map,
    elem_text,
    export_dot,
    hom_text,
    instance_dict,
    parse_hom_expr,
    parse_instance,
    parse_ring_expr,
    render_check_text,
    render_search_text,
    render_spec_text,
    render_verify_text,
    serialize_instance,
    serialize_report,
)
from chaincover.poset import MASK_ENUM_BOUND, height, make_poset, random_poset
from chaincover.rings import Product, Zn, enumerate_homs, make_hom, spec as ring_spec
from chaincover.search import WitnessSearchSpec, search_witness
from chaincover.specmap import (
    TOP,
    check_layer,
    enumerate_monotone_maps,
    make_spectral_map,
    properties_summary,
)
from chaincover.theorems import THEOREM_STATEMENTS, TheoremId, Verdict, exhaustive_verify, verify


def diamond_doc_text():
    payload = {
        "name": "identity-diamond",
        "s": {
            "labels": ["bot", "a", "b", "top"],
            "pairs": [["a", "top"], ["b", "top"], ["bot", "a"], ["bot", "b"]],
        },
        "r": {
            "labels": ["bot", "a", "b", "top"],
            "pairs": [["a", "top"], ["b", "top"], ["bot", "a"], ["bot", "b"]],
        },
        "map": {"bot": "bot", "a": "a", "b": "b", "top": "top"},
    }
    return json.dumps(payload, indent=2) + "\n"


class TestRingGrammar:
    def test_ring_expressions(self):
        assert parse_ring_expr("Zn(12)") == Zn(12)
        assert parse_ring_expr(" Zn( 12 ) ") == Zn(12)
        assert parse_ring_expr("Product(Zn(2),Zn(3))") == Product((Zn(2), Zn(3)))
        assert parse_ring_expr("Product( Zn(2) , Zn(3) , Zn(5) )") == Product(
            (Zn(2), Zn(3), Zn(5))
        )

    def test_nested_products_flatten(self):
        assert parse_ring_expr("Product(Zn(2),Product(Zn(3),Zn(4)))") == Product(
            (Zn(2), Zn(3), Zn(4))
        )

    def test_singleton_product_collapses(self):
        assert parse_ring_expr("Product(Zn(5))") == Zn(5)

    def test_ring_syntax_errors_carry_position(self):
        with pytest.raises(DocumentSyntaxError) as info:
            parse_ring_expr("Zn(x)")
        assert info.value.line == 1 and info.value.column == 4
        with pytest.raises(DocumentSyntaxError):
            parse_ring_expr("Zn(12")
        with pytest.raises(DocumentSyntaxError):
            parse_ring_expr("Zn(12) junk")
        with pytest.raises(DocumentSyntaxError):
            parse_ring_expr("Ring(12)")

    def test_ring_semantic_errors(self):
        with pytest.raises(DocumentSemanticError):
            parse_ring_expr("Zn(1)")

    def test_hom_expressions(self):
        h = parse_hom_expr("hom(m=6, target=Zn(2), e=1)")
        assert (h.m, h.target, h.e) == (6, Zn(2), 1)
        h = parse_hom_expr("hom(m=2,target=Product(Zn(2),Zn(2)),e=(1,0))")
        assert h.e == (1, 0)

    def test_hom_validation_errors(self):
        with pytest.raises(DocumentSemanticError):
            parse_hom_expr("hom(m=3, target=Zn(2), e=1)")
        with pytest.raises(DocumentSemanticError):
            parse_hom_expr("hom(m=6, target=Zn(4), e=2)")
        with pytest.raises(DocumentSemanticError):
            parse_hom_expr("hom(m=1, target=Zn(2), e=0)")

    def test_hom_syntax_errors(self):
        with pytest.raises(DocumentSyntaxError):
            parse_hom_expr("hom(m=6, e=1)")
        with pytest.raises(DocumentSyntaxError):
            parse_hom_expr("hom(m=6, target=Zn(2) e=1)")

    def test_canonical_text(self):
        assert str(Product((Zn(2), Zn(3)))) == "Product(Zn(2),Zn(3))"
        assert elem_text((1, 0)) == "(1,0)"
        assert elem_text(4) == "4"
        h = make_hom(6, Zn(2), 1)
        assert hom_text(h) == "hom(m=6, target=Zn(2), e=1)"
        assert parse_hom_expr(hom_text(h)) == h


class TestParseInstance:
    def test_poset_document_round_trip(self):
        text = diamond_doc_text()
        doc = parse_instance(text)
        assert doc.name == "identity-diamond"
        assert doc.ring is None
        canonical = serialize_instance(doc)
        again = parse_instance(canonical)
        assert again == doc
        assert serialize_instance(again) == canonical

    def test_ring_document_round_trip(self):
        doc = parse_instance('{"ring": "hom(m=6,target=Zn(2),e=1)"}')
        assert doc.ring == "hom(m=6, target=Zn(2), e=1)"
        assert doc.smap.s_poset.labels == ("2Z6", "3Z6")
        canonical = serialize_instance(doc)
        assert parse_instance(canonical) == doc
        assert serialize_instance(parse_instance(canonical)) == canonical

    def test_top_map_value(self):
        doc = parse_instance(json.dumps({
            "s": {"labels": ["p"], "pairs": []},
            "r": {"labels": ["q0", "q1"], "pairs": []},
            "map": {"q0": "p", "q1": "TOP"},
        }))
        assert doc.smap.assignment == (0, TOP)

    def test_json_syntax_error_position(self):
        with pytest.raises(DocumentSyntaxError) as info:
            parse_instance('{\n  "name": }\n')
        assert info.value.line == 2
        assert info.value.column == 11

    def test_non_json_constants_are_syntax_errors(self):
        # json.loads reads NaN, Infinity and -Infinity as floats; JSON has no
        # such value, and a report writing one back is no JSON text
        ring = '"ring": "hom(m=6, target=Zn(2), e=1)"'
        for token in ("NaN", "Infinity", "-Infinity"):
            for text, line, column in (
                (token, 1, 1),
                ("{%s, \"seed\": %s}" % (ring, token), 1, 49),
                ("{%s,\n \"violation\": {\"v\": %s}}" % (ring, token), 2, 21),
                ('{"violation": {"NaN": "Infinity", "a": [1, {"b": %s}]}}' % token, 1, 50),
                ('[%s' % token, 1, 2),
            ):
                with pytest.raises(DocumentSyntaxError) as info:
                    parse_instance(text)
                assert str(info.value) == (
                    f"{token} is not a JSON value (line {line}, column {column})"
                ), text
        # the strings are values like any other
        doc = parse_instance(
            '{"name": "NaN", %s, "violation": {"Infinity": "-Infinity"}}' % ring
        )
        assert doc.name == "NaN" and doc.violation == {"Infinity": "-Infinity"}
        assert serialize_instance(doc).count("NaN") == 1

    def test_unknown_keys(self):
        with pytest.raises(DocumentSemanticError):
            parse_instance('{"bogus": 1}')

    def test_exactly_one_block(self):
        with pytest.raises(DocumentSemanticError):
            parse_instance(json.dumps({
                "ring": "hom(m=6, target=Zn(2), e=1)",
                "s": {"labels": [], "pairs": []},
            }))
        with pytest.raises(DocumentSemanticError):
            parse_instance("{}")

    def test_missing_blocks(self):
        with pytest.raises(DocumentSemanticError) as info:
            parse_instance(json.dumps({
                "s": {"labels": ["p"], "pairs": []},
                "map": {},
            }))
        assert "missing: r" in str(info.value)

    def test_map_key_mismatch(self):
        base = {
            "s": {"labels": ["p"], "pairs": []},
            "r": {"labels": ["q0", "q1"], "pairs": []},
        }
        with pytest.raises(DocumentSemanticError) as info:
            parse_instance(json.dumps({**base, "map": {"q0": "p"}}))
        assert "unmapped r elements: q1" in str(info.value)
        with pytest.raises(DocumentSemanticError) as info:
            parse_instance(json.dumps({
                **base, "map": {"q0": "p", "q1": "p", "zz": "p"},
            }))
        assert "unknown r elements: zz" in str(info.value)

    def test_unknown_map_value(self):
        with pytest.raises(DocumentSemanticError):
            parse_instance(json.dumps({
                "s": {"labels": ["p"], "pairs": []},
                "r": {"labels": ["q"], "pairs": []},
                "map": {"q": "nope"},
            }))

    def test_non_monotone_map(self):
        # q0 < q1 but the contractions reverse strictly
        with pytest.raises(DocumentSemanticError) as info:
            parse_instance(json.dumps({
                "s": {"labels": ["p0", "p1"], "pairs": [["p0", "p1"]]},
                "r": {"labels": ["q0", "q1"], "pairs": [["q0", "q1"]]},
                "map": {"q0": "p1", "q1": "p0"},
            }))
        assert "map:" in str(info.value)

    def test_top_below_proper_value_rejected(self):
        with pytest.raises(DocumentSemanticError):
            parse_instance(json.dumps({
                "s": {"labels": ["p"], "pairs": []},
                "r": {"labels": ["q0", "q1"], "pairs": [["q0", "q1"]]},
                "map": {"q0": "TOP", "q1": "p"},
            }))

    def test_reserved_label(self):
        with pytest.raises(DocumentSemanticError):
            parse_instance(json.dumps({
                "s": {"labels": ["TOP"], "pairs": []},
                "r": {"labels": ["q"], "pairs": []},
                "map": {"q": "TOP"},
            }))

    def test_poset_block_errors(self):
        with pytest.raises(DocumentSemanticError):
            parse_instance(json.dumps({
                "s": {"labels": ["p", "p"], "pairs": []},
                "r": {"labels": ["q"], "pairs": []},
                "map": {"q": "p"},
            }))
        with pytest.raises(DocumentSemanticError):
            parse_instance(json.dumps({
                "s": {"labels": ["a", "b"], "pairs": [["a", "b"], ["b", "a"]]},
                "r": {"labels": ["q"], "pairs": []},
                "map": {"q": "a"},
            }))
        with pytest.raises(DocumentSemanticError):
            parse_instance(json.dumps({
                "s": {"labels": ["a"], "pairs": [["a"]]},
                "r": {"labels": ["q"], "pairs": []},
                "map": {"q": "a"},
            }))

    def test_metadata_types(self):
        with pytest.raises(DocumentSemanticError):
            parse_instance(json.dumps({"name": 3, "ring": "hom(m=6, target=Zn(2), e=1)"}))
        with pytest.raises(DocumentSemanticError):
            parse_instance(json.dumps({"seed": "x", "ring": "hom(m=6, target=Zn(2), e=1)"}))
        doc = parse_instance(json.dumps({
            "seed": 7, "ring": "hom(m=6, target=Zn(2), e=1)",
        }))
        assert doc.seed == 7

    def test_violation_block_tolerated(self):
        doc = parse_instance(json.dumps({
            "ring": "hom(m=6, target=Zn(2), e=1)",
            "violation": {"clause": "whatever"},
        }))
        assert doc.violation == {"clause": "whatever"}
        # and it survives a round trip
        assert parse_instance(serialize_instance(doc)).violation == doc.violation


class TestReports:
    def test_check_report_ring_regression(self):
        doc = parse_instance('{"ring": "hom(m=6, target=Zn(2), e=1)"}')
        report = build_check_report(doc)
        props = report["properties"]
        assert props["LO"] is False
        assert props["INC"] is True
        assert props["GU"] is True
        assert props["GD"] is True
        assert props["SGB"] is True
        assert props["unitary"] is True
        assert report["layers"] == {"1": False}
        assert list(report) == ["command", "instance", "properties", "layers"]

    def test_check_report_layer_override(self):
        doc = parse_instance(diamond_doc_text())
        report = build_check_report(doc, max_layer=4)
        assert list(report["layers"]) == ["1", "2", "3", "4"]
        assert all(report["layers"].values())

    def test_verify_report_counterexample_replays(self):
        v = exhaustive_verify(TheoremId.T_COVER_MAXCHAIN, 1, 2, waive_hypotheses=True)
        report = build_verify_report(None, [v], bounds={
            "max_s": 1, "max_r": 2, "allow_top": True,
        })
        assert report["all_hold"] is False
        entry = report["theorems"][0]
        dump = entry["counterexample"]
        # the dump is itself a valid instance document
        doc = parse_instance(json.dumps(dump))
        assert doc.violation["theorem"] == "T_COVER_MAXCHAIN"
        assert doc.violation["waived"] is True
        replay = verify(doc.smap, TheoremId.T_COVER_MAXCHAIN, waive_hypotheses=True)
        assert not replay.holds
        assert replay.counterexample.detail["code"] == doc.violation["code"]

    def test_verify_report_is_byte_stable(self):
        v1 = exhaustive_verify(TheoremId.C_EQUIVALENT, 2, 2, jobs=1)
        v2 = exhaustive_verify(TheoremId.C_EQUIVALENT, 2, 2, jobs=2)
        bounds = {"max_s": 2, "max_r": 2, "allow_top": True}
        r1 = serialize_report(build_verify_report(None, [v1], bounds=bounds))
        r2 = serialize_report(build_verify_report(None, [v2], bounds=bounds))
        assert r1 == r2

    def test_search_report_witness_parses(self):
        spec = WitnessSearchSpec(
            required=frozenset({"GU"}), goal="lo-fails", max_s=3, max_r=2
        )
        witness = search_witness(spec)
        report = build_search_report(spec, witness)
        assert report["found"] is True
        doc = parse_instance(json.dumps(report["witness"]))
        assert doc.smap.s_poset.n == 2
        assert doc.violation["goal"] == "lo-fails"

    def test_search_report_no_witness(self):
        spec = WitnessSearchSpec(
            required=frozenset({"LO"}), goal="lo-fails", max_s=2, max_r=2
        )
        report = build_search_report(spec, None)
        assert report["found"] is False and report["witness"] is None

    def test_spec_report(self):
        ring = parse_ring_expr("Zn(30)")
        report = build_spec_report(ring, ring_spec(ring))
        assert report["labels"] == ["2Z30", "3Z30", "5Z30"]
        assert report["pairs"] == []

    def test_renderers_produce_text(self):
        doc = parse_instance('{"ring": "hom(m=6, target=Zn(2), e=1)"}')
        check_text = render_check_text(build_check_report(doc))
        assert "LO: false" in check_text and "layer-1: false" in check_text
        v = verify(doc.smap, TheoremId.P_LAYERS)
        verify_text = render_verify_text(build_verify_report(doc, [v]))
        assert "P_LAYERS: holds" in verify_text
        spec = WitnessSearchSpec(
            required=frozenset(), goal="lo-fails", max_s=2, max_r=2
        )
        assert render_search_text(build_search_report(spec, None)).startswith(
            "no witness"
        )
        witness = search_witness(
            WitnessSearchSpec(required=frozenset(), goal="lo-fails", max_s=2, max_r=2)
        )
        text = render_search_text(build_search_report(spec, witness))
        assert "witness found" in text and "(antichain)" in text
        ring = parse_ring_expr("Zn(12)")
        assert "2Z12" in render_spec_text(build_spec_report(ring, ring_spec(ring)))


def plain(value):
    """A copy of a report value in plain dicts, lists and tuples."""
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(plain(item) for item in value)
    return value


def kept_text_documents():
    """Every sample document, random poset maps and ring homs."""
    root = pathlib.Path(__file__).resolve().parent.parent / "sample_instances"
    docs = [parse_instance(path.read_text()) for path in sorted(root.glob("*.json"))]
    rng = random.Random(27)
    for k in range(40):
        s = random_poset(rng.randint(1, 3), k)
        r = random_poset(rng.randint(1, 4), 1000 + k)
        docs.append(document_for_map(rng.choice(list(enumerate_monotone_maps(s, r, True)))))
    for m, target in ((6, Zn(2)), (30, Zn(6)), (12, Product((Zn(4), Zn(6)))), (8, Zn(4))):
        docs += [document_for_hom(h) for h in enumerate_homs(m, target)]
    return docs


class TestKeptVerdictTexts:
    """A verdict entry written from its kept text has the plain writer's bytes.

    The second routes are the plain writer on an equal plain dict and
    json.dumps itself, which reads the entries as the dicts they are.
    """

    @staticmethod
    def assert_written_alike(value):
        text = canonical_json(value)
        assert text == canonical_json(plain(value)) == json.dumps(value, indent=2) + "\n"
        assert json.loads(text) == value

    def test_every_verdict_writes_the_plain_bytes(self):
        verdicts = []
        for doc in kept_text_documents():
            for waive in (False, True):
                found = [verify(doc.smap, t, waive_hypotheses=waive) for t in TheoremId]
                verdicts += found
                report = build_verify_report(doc, found)
                self.assert_written_alike(report)
                assert serialize_report(report) == canonical_json(report)
        for waive in (False, True):
            found = [exhaustive_verify(t, 1, 2, waive_hypotheses=waive) for t in TheoremId]
            verdicts += found
            self.assert_written_alike(
                build_verify_report(None, found, bounds={"max_s": 1, "max_r": 2})
            )
        for v in verdicts:
            entry = _verdict_dict(v)
            assert (type(entry) is _Kept) == (v.counterexample is None)
            # at the top level, in a report's list and deeper
            for value in (entry, [entry], {"a": [[entry], {"b": entry}]}):
                self.assert_written_alike(value)
        def note(v, start):
            return (v.note or "").startswith(start)

        kinds = {
            "holds": any(v.holds and v.note is None for v in verdicts),
            "unmet": any(v.holds and note(v, "hypothesis unmet") for v in verdicts),
            "waived, holds": any(v.holds and note(v, "hypotheses waived") for v in verdicts),
            "waived, fails": any(v.counterexample and note(v, "hypotheses waived")
                                 for v in verdicts),
            "swept, fails": any(v.counterexample and note(v, "first violation")
                                for v in verdicts),
        }
        assert all(kinds.values()), kinds

    def test_equal_values_share_one_entry(self):
        doc = parse_instance('{"ring": "hom(m=6, target=Zn(2), e=1)"}')
        again = parse_instance('{"ring": "hom(m=6, target=Zn(2), e=1)"}')
        for t in TheoremId:
            entry = _verdict_dict(verify(doc.smap, t))
            assert _verdict_dict(verify(again.smap, t)) is entry
            assert entry == plain(entry) and type(plain(entry)) is dict

    def test_verdict_texts_are_kept_at_their_indent(self):
        doc = parse_instance(diamond_doc_text())
        report = build_verify_report(doc, [verify(doc.smap, t) for t in TheoremId])
        text = serialize_report(report)
        for entry in report["theorems"]:
            # first written in a verify report's list, at its indent
            assert entry.at[0] == "\n    " and entry.at[1] in text
            assert serialize_report({"x": entry}) == json.dumps({"x": entry}, indent=2) + "\n"
            assert entry.at[0] == "\n    "
        assert serialize_report(report) == text
        # the other blocks are written at the indent of each report
        assert report["instance"].at is None
        assert build_check_report(doc)["properties"].at is None

    def test_a_str_theorem_and_its_member_keep_blocks_of_their_own(self, empty_tables):
        # the str equals the member's value, yet it is written with an empty
        # statement and the member with its own
        member = TheoremId.P_LAYERS
        statements = {member: THEOREM_STATEMENTS[member], "P_LAYERS": ""}
        for order in ((member, "P_LAYERS"), ("P_LAYERS", member)):
            _KEPT.clear()
            texts = []
            for theorem in order:
                entry = _verdict_dict(Verdict(theorem, True, 3, None))
                assert type(entry) is _Kept
                want = {
                    "theorem": "P_LAYERS", "statement": statements[theorem], "holds": True,
                    "instances_checked": 3, "note": None, "counterexample": None,
                }
                assert canonical_json(entry) == json.dumps(want, indent=2) + "\n"
                texts.append(canonical_json(entry))
            assert texts[0] != texts[1]

    def test_other_types_take_the_plain_path(self):
        # 1 == True and True == 1, yet the writer spells each its own way
        for holds, checked in ((1, 1), (True, True), (True, 1.0)):
            v = Verdict(TheoremId.P_LAYERS, holds, checked, None)
            entry = _verdict_dict(v)
            assert type(entry) is dict
            self.assert_written_alike(entry)
        text = canonical_json(_verdict_dict(Verdict(TheoremId.P_LAYERS, 1, True, None)))
        assert '"holds": 1,' in text and '"instances_checked": true,' in text


def document_variants(doc):
    """`doc` with and without a name, a seed and a violation."""
    out = []
    for name, seed in ((None, None), ("x", None), (None, 0), ("named \"é\"", 41)):
        plain_doc = dataclasses.replace(doc, name=name, seed=seed, violation=None)
        out.append(plain_doc)
        out.append(dataclasses.replace(plain_doc, violation={"theorem": "P_LO", "code": 1}))
    return out


def assert_json_pair(text, value):
    """`text` is json.dumps(value, indent=2) plus a line break, and reads back as `value`."""
    assert text == json.dumps(value, indent=2) + "\n"
    assert text == canonical_json(plain(value))
    assert json.loads(text) == value


class TestKeptBlocks:
    """Instance, check and verify blocks written from kept texts have the
    bytes of json.dumps on the same report, on first use and once kept.

    The properties and layers are also compared with properties_summary and
    check_layer, which read no kept block.
    """

    def test_every_report_writes_the_json_dumps_bytes(self):
        docs = [v for doc in kept_text_documents() for v in document_variants(doc)]
        assert any(TOP in doc.smap.assignment for doc in docs)
        assert any(doc.ring is not None for doc in docs)
        first = None
        for round_ in range(2):
            texts = []
            for doc in docs:
                text = serialize_instance(doc)
                assert_json_pair(text, instance_dict(doc))
                again = parse_instance(text)
                assert again.violation == doc.violation
                assert serialize_instance(again) == text
                texts.append(text)
                for max_layer in (None, 0, 1, 3, 6):
                    report = build_check_report(again, max_layer=max_layer)
                    texts.append(serialize_report(report))
                    assert_json_pair(texts[-1], report)
                    top = height(doc.smap.s_poset) if max_layer is None else max_layer
                    assert report["properties"] == properties_summary(doc.smap)
                    assert report["layers"] == {
                        str(n): check_layer(doc.smap, n) for n in range(1, top + 1)
                    }
                for waive in (False, True):
                    verdicts = [verify(again.smap, t, waive_hypotheses=waive) for t in TheoremId]
                    report = build_verify_report(again, verdicts)
                    texts.append(serialize_report(report))
                    assert_json_pair(texts[-1], report)
            # the second round reads every block from what the first kept
            assert first is None or texts == first
            first = texts

    def test_kept_blocks_are_shared_per_value(self):
        text = diamond_doc_text()
        doc, again = parse_instance(text), parse_instance(text)
        assert instance_dict(doc) is instance_dict(doc)
        assert type(instance_dict(doc)) is _Kept
        assert instance_dict(doc).text == instance_dict(again).text
        one, two = build_check_report(doc), build_check_report(again)
        assert one["properties"] is two["properties"] and one["layers"] is two["layers"]
        # a violation is the caller's own dict, written afresh
        marked = dataclasses.replace(doc, violation={"code": 1})
        assert type(instance_dict(marked)) is dict
        assert instance_dict(marked)["violation"] is marked.violation

    def test_each_part_of_the_value_tells_texts_apart(self):
        # equal but for the s labels, the r labels, the r order, the map,
        # the name or the seed
        chain, antichain = [("a", "b")], []
        texts = set()
        for s_labels, r_labels, r_pairs, values, name, seed in (
            ("ab", "ab", chain, "ab", None, None),
            ("xy", "ab", chain, "xy", None, None),
            ("ab", "xy", chain, "ab", None, None),
            ("ab", "ab", antichain, "ab", None, None),
            ("ab", "ab", chain, "aa", None, None),
            ("ab", "ab", chain, "ab", "n", None),
            ("ab", "ab", chain, "ab", None, 3),
        ):
            s = make_poset(list(s_labels), [(s_labels[0], s_labels[1])])
            r = make_poset(list(r_labels), [(r_labels[0], r_labels[1])] if r_pairs else [])
            m = make_spectral_map(s, r, [s.index(v) for v in values])
            for _ in range(2):
                doc = InstanceDocument(m, name=name, seed=seed)
                text = serialize_instance(doc)
                assert_json_pair(text, instance_dict(doc))
            texts.add(text)
        assert len(texts) == 7

    def test_other_types_are_not_kept(self):
        # True == 1 == 1.0, yet each is written its own way
        doc = parse_instance(diamond_doc_text())
        for value in (1, True, 1.0, 1):
            text = serialize_instance(dataclasses.replace(doc, seed=value))
            assert f'"seed": {json.dumps(value)},' in text
            text = serialize_instance(dataclasses.replace(doc, name=value))
            assert f'"name": {json.dumps(value)},' in text
        s = make_poset([1, 2], [(1, 2)])
        for labels in ([True, 2], [1.0, 2]):
            other = make_poset(labels, [(labels[0], 2)])
            for p in (s, other):
                m = make_spectral_map(p, p, [0, 1])
                text = serialize_instance(document_for_map(m))
                assert text == json.dumps(instance_dict(document_for_map(m)), indent=2) + "\n"
                assert json.dumps(p.labels[0]) in text


class TestOneKeptTable:
    """Every kept block lives in one table, once per value."""

    def test_equal_instance_values_share_one_block(self):
        ring = '{"name": "z", "seed": 3, "ring": "hom(m=6, target=Zn(2), e=1)"}'
        for text in (diamond_doc_text(), ring):
            one, two = parse_instance(text), parse_instance(text)
            assert one is not two
            assert instance_dict(one) is instance_dict(two)
            assert serialize_instance(one) == serialize_instance(two) == text_of(one)

    def test_equal_flag_items_share_one_block(self):
        # the identities on two chains of different lengths have every property
        checks = []
        for labels in ("ab", "abc"):
            s = make_poset(list(labels), list(zip(labels, labels[1:])))
            doc = document_for_map(make_spectral_map(s, s, range(len(labels))))
            checks.append(build_check_report(doc, max_layer=2))
        one, two = checks
        assert one["instance"] is not two["instance"]
        assert one["properties"] is two["properties"] and one["layers"] is two["layers"]
        assert all(one["properties"].values()) and one["layers"] == {"1": True, "2": True}

    def test_other_types_get_their_own_blocks(self):
        # True == 1 and 1 == 1.0, yet each is written its own way
        doc = parse_instance(diamond_doc_text())
        s = make_poset(["a", "b"], [("a", "b")])
        variants = [dataclasses.replace(doc, seed=1), dataclasses.replace(doc, name="1")]
        variants += [dataclasses.replace(doc, seed=True), dataclasses.replace(doc, name=1)]
        for labels in (["a", "b"], [1, 2], [True, 2], [1.0, 2]):
            other = make_poset(labels, [(labels[0], labels[1])])
            variants.append(document_for_map(make_spectral_map(s, other, [0, 1])))
        size = len(_KEPT)
        texts = set()
        for k, variant in enumerate(variants):
            again = dataclasses.replace(variant)
            block = instance_dict(variant)
            # only the str and int values are kept and shared
            kept = k in (0, 1, 4)
            assert (instance_dict(again) is block) == kept
            assert serialize_instance(again) == serialize_instance(variant) == text_of(variant)
            texts.add(serialize_instance(variant))
        assert len(texts) == len(variants)
        # the other types' blocks are not kept
        assert len(_KEPT) <= size + 3

    def test_a_second_round_adds_no_entry(self):
        def round_():
            for doc in kept_text_documents():
                parsed = parse_instance(serialize_instance(doc))
                serialize_report(build_check_report(parsed))
                for waive in (False, True):
                    verdicts = [verify(parsed.smap, t, waive_hypotheses=waive) for t in TheoremId]
                    serialize_report(build_verify_report(parsed, verdicts))

        round_()
        size = len(_KEPT)
        round_()
        assert len(_KEPT) == size > 0


ROOT = pathlib.Path(__file__).resolve().parent.parent


def benchmark_poset_texts(seed):
    """The poset documents of one pass of the benchmark's `instances`
    workload at `seed`, as its inputs give them."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    inputs = workloads.prepare_instances(seed, {"instances": 2200})
    return [serialize_instance(document_for_map(m)) for kind, m, _ in inputs if kind == "poset"]


def poset_document(tag, block):
    """A document with `block` as its `tag` block and a one-element other."""
    if tag == "s":
        return {"s": block, "r": {"labels": ["q"], "pairs": []}, "map": {"q": "a"}}
    return {"s": {"labels": ["a"], "pairs": []}, "r": block, "map": {"a": "a", "b": "a"}}


def assert_made_alike(poset, block):
    made = make_poset(block["labels"], [tuple(pair) for pair in block.get("pairs", [])])
    assert (poset.labels, poset.up_masks) == (made.labels, made.up_masks)
    assert poset.facts is made.facts


class TestPosetBlockTable:
    """A poset block is validated and closed once per value; a block that
    equals a kept one only in tuple form is refused as ever."""

    #: blocks that look like the kept block ["a", "b"] with a < b, and the
    #: message of each, as "{tag}" names the block
    LOOK_ALIKES = [
        ({"labels": ["a", "b"], "pairs": ["ab"]},
         "each entry of {tag}.pairs must be a [low, high] label pair"),
        ({"labels": ["a", "b"], "pairs": [{"a": 0, "b": 1}]},
         "each entry of {tag}.pairs must be a [low, high] label pair"),
        ({"labels": ["a", "b"], "pairs": [["a", "b", "a"]]},
         "each entry of {tag}.pairs must be a [low, high] label pair"),
        ({"labels": ["a", "b"], "pairs": [["a", "b"], ["a"]]},
         "each entry of {tag}.pairs must be a [low, high] label pair"),
        ({"labels": ["a", "b"], "pairs": [[["a"], "b"]]},
         "each entry of {tag}.pairs must be a [low, high] label pair"),
        ({"labels": ["a", "b"], "pairs": "ab"}, "{tag}.pairs must be a list"),
        ({"labels": ["a", 1], "pairs": [["a", "b"]]}, "{tag}.labels must be a list of strings"),
        ({"labels": "ab", "pairs": [["a", "b"]]}, "{tag}.labels must be a list of strings"),
        ({"labels": [["a"], "b"], "pairs": [["a", "b"]]},
         "{tag}.labels must be a list of strings"),
        ({"pairs": [["a", "b"]]}, "{tag}.labels must be a list of strings"),
        ({"labels": ["a", "b"], "pairs": [["a", "b"]], "x": 1}, "unknown keys in {tag}: x"),
        (["a", "b"], "{tag} must be an object"),
        ({"labels": ["a", "b", "TOP"], "pairs": [["a", "b"]]},
         "{tag}.labels may not use the reserved label 'TOP'"),
        ({"labels": ["a", "b", *(f"x{k}" for k in range(MASK_ENUM_BOUND - 1))],
          "pairs": [["a", "b"]]},
         "{tag} has 21 elements; at most 20 are supported"),
        ({"labels": ["a", "b", "a"], "pairs": [["a", "b"]]}, "{tag}: label 'a' declared twice"),
        ({"labels": ["a", "b"], "pairs": [["a", "b"], ["b", "c"]]},
         "{tag}: no element labeled 'c'"),
        ({"labels": ["a", "b"], "pairs": [["a", "b"], ["b", "a"]]},
         "{tag}: elements 'a' and 'b' lie on a cycle"),
    ]

    def test_every_block_parses_once_to_the_made_poset(self, empty_tables):
        texts = [path.read_text() for path in sorted((ROOT / "sample_instances").glob("*.json"))]
        texts += benchmark_poset_texts(5) + benchmark_poset_texts(7)
        blocks = [
            (tag, data[tag]) for data in map(json.loads, texts) for tag in ("s", "r")
            if tag in data
        ]
        # three sample poset documents and 1,100 per seed, two blocks each
        assert len(blocks) == 2 * (3 + 2 * 1100)
        first = [_parse_poset_block(block, tag) for tag, block in blocks]
        assert 0 < len(_POSETS) < len(blocks)
        for (tag, block), poset in zip(blocks, first):
            assert _parse_poset_block(block, tag) is poset
            assert_made_alike(poset, block)
        # a whole document reads its blocks from the table too
        doc = parse_instance(texts[-1])
        assert doc.smap.s_poset is first[-2] and doc.smap.r_poset is first[-1]

    def test_equal_orders_in_other_words_parse_as_made(self, empty_tables):
        base = {"labels": ["a", "b", "c"], "pairs": [["a", "b"], ["b", "c"]]}
        variants = [
            base,
            {"labels": ["c", "b", "a"], "pairs": [["a", "b"], ["b", "c"]]},
            {"labels": ["a", "b", "c"], "pairs": [["b", "c"], ["a", "b"]]},
            {"labels": ["a", "b", "c"], "pairs": [["a", "b"], ["b", "c"], ["a", "b"]]},
            {"labels": ["a", "b", "c"], "pairs": [["a", "b"], ["b", "b"], ["b", "c"]]},
            {"labels": ["a", "b", "c"], "pairs": [["a", "b"], ["b", "c"], ["a", "c"]]},
            {"labels": ["a", "b", "c"]},
            {"labels": ["a", "b", "c"], "pairs": []},
        ]
        for _ in range(2):
            for block in variants:
                poset = _parse_poset_block(block, "s")
                assert _parse_poset_block(dict(block), "s") is poset
                assert_made_alike(poset, block)
        # one entry per value: the block without pairs is the one with none
        assert len(_POSETS) == len(variants) - 1

    @pytest.mark.parametrize("tag", ["s", "r"])
    def test_look_alikes_raise_before_and_after_their_twin_is_kept(self, tag, empty_tables):
        twin = {"labels": ["a", "b"], "pairs": [["a", "b"]]}

        def messages():
            out = []
            for block, _ in self.LOOK_ALIKES:
                with pytest.raises(DocumentSemanticError) as info:
                    parse_instance(json.dumps(poset_document(tag, block)))
                out.append(str(info.value))
            return out

        want = [message.format(tag=tag) for _, message in self.LOOK_ALIKES]
        assert messages() == want
        # at most the other block, valid, is kept
        assert len(_POSETS) == (tag == "r")
        kept = parse_instance(json.dumps(poset_document(tag, twin)))
        assert list(_POSETS.values()).count(getattr(kept.smap, f"{tag}_poset")) == 1
        before = dict(_POSETS)
        assert messages() == want
        assert _POSETS == before
        again = parse_instance(json.dumps(poset_document(tag, twin)))
        assert getattr(again.smap, f"{tag}_poset") is getattr(kept.smap, f"{tag}_poset")


class TestKeptValuesCap:
    """Past `KEPT_VALUES` entries a table keeps no more values, and every
    report is written as it would be with room to spare."""

    @staticmethod
    def texts():
        docs = [v for doc in kept_text_documents() for v in document_variants(doc)]
        return [serialize_instance(doc) for doc in docs if doc.violation is None]

    @staticmethod
    def round_(texts):
        out = []
        for text in texts:
            parsed = parse_instance(text)
            out.append(serialize_instance(parsed))
            for max_layer in (None, 1):
                out.append(serialize_report(build_check_report(parsed, max_layer=max_layer)))
            for waive in (False, True):
                verdicts = [verify(parsed.smap, t, waive_hypotheses=waive) for t in TheoremId]
                out.append(serialize_report(build_verify_report(parsed, verdicts)))
        return out

    def test_full_tables_stop_growing_and_write_the_same_bytes(self, monkeypatch, empty_tables):
        texts = self.texts()
        uncapped = self.round_(texts)
        assert len(_KEPT) > 20 and len(_POSETS) > 20
        for cap in (0, 1, 20):
            _KEPT.clear()
            _POSETS.clear()
            monkeypatch.setattr(D, "KEPT_VALUES", cap)
            for _ in range(2):
                assert self.round_(texts) == uncapped
                assert len(_KEPT) == len(_POSETS) == cap
        # each document's text reads back as itself: the first of its five
        assert texts == uncapped[::5]


def text_of(doc):
    """The json.dumps text of a document's instance block."""
    return json.dumps(instance_dict(doc), indent=2) + "\n"


class TestKeptBlocksAreReadOnly:
    """A kept block is shared by every report holding its value, so no
    edit may reach it; the report that holds it is the caller's own."""

    @staticmethod
    def reports():
        doc = parse_instance(diamond_doc_text())
        verdicts = [verify(doc.smap, t) for t in TheoremId]
        return build_check_report(doc), build_verify_report(doc, verdicts)

    @staticmethod
    def blocks(check, report):
        instance = report["instance"]
        dicts = [
            report["theorems"][0], instance, instance["s"], instance["map"],
            check["properties"], check["layers"],
        ]
        lists = [instance["s"]["labels"], instance["s"]["pairs"], instance["s"]["pairs"][0]]
        return dicts, lists

    def test_every_level_refuses_every_edit(self):
        check, report = self.reports()
        before = (json.dumps(check), json.dumps(report))
        dict_edits = [
            lambda b: b.__setitem__("x", 1), lambda b: b.__delitem__(next(iter(b))),
            lambda b: b.clear(), lambda b: b.pop(next(iter(b))), lambda b: b.popitem(),
            lambda b: b.setdefault("x", 1), lambda b: b.update(x=1),
        ]
        list_edits = [
            lambda x: x.__setitem__(0, "y"), lambda x: x.__setitem__(slice(0, 1), []),
            lambda x: x.__delitem__(0), lambda x: x.append("y"), lambda x: x.extend("y"),
            lambda x: x.insert(0, "y"), lambda x: x.pop(), lambda x: x.remove(x[0]),
            lambda x: x.clear(), lambda x: x.sort(), lambda x: x.reverse(),
        ]
        dicts, lists = self.blocks(check, report)
        for block in dicts:
            for edit in dict_edits:
                with pytest.raises(TypeError):
                    edit(block)
            with pytest.raises(TypeError):
                block |= {"x": 1}
        for block in lists:
            for edit in list_edits:
                with pytest.raises(TypeError):
                    edit(block)
            with pytest.raises(TypeError):
                block += ["y"]
            with pytest.raises(TypeError):
                block *= 2
        assert (json.dumps(check), json.dumps(report)) == before

    def test_an_edited_report_writes_its_edit(self):
        check, report = self.reports()
        with pytest.raises(TypeError):
            report["theorems"][0]["note"] = "edited"
        # the report's own dict and lists take edits, and the writer sees them
        report["theorems"][0] = {**report["theorems"][0], "note": "edited"}
        report["instance"] = {**report["instance"], "name": "renamed"}
        check["layers"] = {"1": False}
        for value in (check, report):
            assert serialize_report(value) == json.dumps(value, indent=2) + "\n"
        # and no later report holding the same values carries the edits
        check_again, again = self.reports()
        assert again["theorems"][0]["note"] is None
        assert again["instance"]["name"] == "identity-diamond"
        assert check_again["layers"] == {"1": True, "2": True, "3": True}

    def test_copies_and_pickles_are_plain(self):
        def assert_plain(value):
            if isinstance(value, dict):
                assert type(value) is dict
                for item in value.values():
                    assert_plain(item)
            elif isinstance(value, list):
                assert type(value) is list
                for item in value:
                    assert_plain(item)

        check, report = self.reports()
        dicts, lists = self.blocks(check, report)
        for block in dicts + lists:
            assert type(copy.copy(block)) in (dict, list)
            for value in (copy.deepcopy(block), pickle.loads(pickle.dumps(block))):
                assert value == block
                assert_plain(value)
        for value in (copy.deepcopy(report), pickle.loads(pickle.dumps(check))):
            assert_plain(value)
        edited = copy.deepcopy(report)
        edited["instance"]["s"]["labels"].append("extra")
        assert serialize_report(edited) == json.dumps(edited, indent=2) + "\n"


class TestExportDot:
    def test_structure(self):
        doc = parse_instance(diamond_doc_text())
        dot = export_dot(doc)
        assert dot.startswith("digraph instance {")
        assert dot.endswith("}\n")
        assert "subgraph cluster_s" in dot and "subgraph cluster_r" in dot
        # diamond Hasse has 4 covering edges per poset
        assert dot.count("->") == 4 + 4 + 4  # s edges + r edges + contraction
        assert dot.count("style=dashed") == 4
        assert "TOP" not in dot

    def test_top_node_appears_when_used(self):
        doc = parse_instance(json.dumps({
            "s": {"labels": ["p"], "pairs": []},
            "r": {"labels": ["q0", "q1"], "pairs": []},
            "map": {"q0": "p", "q1": "TOP"},
        }))
        dot = export_dot(doc)
        assert '"TOP" [shape=box];' in dot
        assert '"r:q1" -> "TOP" [style=dashed, constraint=false];' in dot

    def test_labels_with_quotes_escape(self):
        s = make_poset(['a"b'], [])
        r = make_poset(["q"], [])
        doc = document_for_map(make_spectral_map(s, r, [0]))
        dot = export_dot(doc)
        assert '\\"' in dot


class TestDocumentHelpers:
    def test_document_for_hom(self):
        doc = document_for_hom(make_hom(6, Zn(2), 1), name="reduction")
        assert doc.ring == "hom(m=6, target=Zn(2), e=1)"
        assert doc.name == "reduction"
        assert instance_dict(doc)["name"] == "reduction"

    def test_instance_dict_key_order(self):
        doc = parse_instance(diamond_doc_text())
        assert list(instance_dict(doc)) == ["name", "s", "r", "map"]
        ring_doc = parse_instance(json.dumps({
            "name": "x", "seed": 1, "ring": "hom(m=6, target=Zn(2), e=1)",
        }))
        assert list(instance_dict(ring_doc)) == ["name", "seed", "ring"]


class TestSampleInstances:
    """The shipped sample documents must stay parseable and canonical."""

    SAMPLES = sorted(
        pathlib.Path(__file__).resolve().parent.parent.joinpath("sample_instances").glob("*.json")
    )

    def test_samples_present(self):
        names = [p.name for p in self.SAMPLES]
        assert "z6_to_z2.json" in names
        assert "sgb_necessity.json" in names
        assert len(names) == 5

    @pytest.mark.parametrize("path", SAMPLES, ids=lambda p: p.stem)
    def test_sample_is_canonical_and_checkable(self, path):
        text = path.read_text()
        doc = parse_instance(text)
        assert serialize_instance(doc) == text
        report = build_check_report(doc)
        assert set(report["properties"]) >= {"LO", "GU", "GD", "SGB"}

    def test_sgb_necessity_profile(self):
        path = [p for p in self.SAMPLES if p.name == "sgb_necessity.json"][0]
        doc = parse_instance(path.read_text())
        props = build_check_report(doc)["properties"]
        assert props["LO"] and props["GU"] and props["GD"] and props["unitary"]
        assert not props["SGB"]


# Deterministic example streams, so the suite gives the same result on
# every run and writes no example database; no deadline or speed health
# check, so a loaded host cannot fail a test.
FUZZ = settings(
    derandomize=True, database=None, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

json_scalars = (
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats()
    | st.text(st.characters(max_codepoint=0x2FFF))
)
json_keys = st.text(max_size=8) | st.integers() | st.booleans() | st.none() | st.floats()
json_values = st.recursive(
    json_scalars,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(st.text(max_size=8), inner, max_size=4)
        | st.dictionaries(json_keys, inner, max_size=4)
    ),
    max_leaves=20,
)


class TestCanonicalJson:
    @FUZZ
    @given(json_values)
    def test_bytes_match_json_dumps(self, value):
        assert canonical_json(value) == json.dumps(value, indent=2) + "\n"

    def test_edge_values(self):
        for value in ({}, [], (), {"a": {}, "b": [[], ()]}, "\x00\u00e9\n\"", -(10**40),
                      {1: {"x": [1.5, float("nan")]}}, [{"k": {2: []}}]):
            assert canonical_json(value) == json.dumps(value, indent=2) + "\n"

    def test_errors_match_json_dumps(self):
        cyclic = []
        cyclic.append(cyclic)
        for value in ({"a": {(1,): 2}}, [object()], {"a": {1, 2}}, cyclic):
            with pytest.raises((TypeError, ValueError)) as want:
                json.dumps(value, indent=2)
            with pytest.raises(type(want.value)) as got:
                canonical_json(value)
            assert str(got.value) == str(want.value)


@st.composite
def fuzz_rings(draw):
    """A hom expression over small moduli, its e mostly of the right shape."""
    moduli = draw(st.lists(st.integers(2, 30), min_size=1, max_size=3))
    ring = ",".join(f"Zn({n})" for n in moduli)
    ring = ring if len(moduli) == 1 else f"Product({ring})"
    parts = draw(st.lists(st.sampled_from([0, 1, 2, 5]), min_size=1, max_size=3))
    if not draw(st.booleans()):
        parts = (parts * 3)[: len(moduli)]
    e = str(parts[0]) if len(parts) == 1 else "(" + ",".join(map(str, parts)) + ")"
    return f"hom(m={draw(st.integers(2, 40))}, target={ring}, e={e})"


@st.composite
def fuzz_documents(draw):
    """Instance documents that are mostly valid, with occasional faults."""
    doc: dict = {}
    if draw(st.booleans()):
        doc["name"] = draw(st.text(max_size=5))
    if draw(st.integers(0, 3)) == 0:
        doc["seed"] = draw(st.integers())
    kind = draw(st.sampled_from(["poset", "ring", "poset", "both", "ring", "poset"]))
    if kind != "poset":
        doc["ring"] = draw(fuzz_rings())
    if kind != "ring":
        pool = ["a", "b", "c", "d", "e"]
        names = st.sampled_from(pool + ["TOP", "", "z"]) | st.sampled_from(pool)
        blocks = {}
        for key in ("s", "r"):
            labels = draw(st.lists(st.sampled_from(pool), max_size=4, unique=True))
            if draw(st.integers(0, 5)) == 0:
                labels.append(draw(names))
            ends = st.sampled_from(labels) if labels else names
            if draw(st.integers(0, 5)) == 0:
                ends = ends | names
            pairs = draw(st.lists(st.lists(ends, min_size=2, max_size=2), max_size=5))
            blocks[key] = {"labels": labels, "pairs": pairs}
        doc.update(blocks)
        targets = st.sampled_from(blocks["s"]["labels"] + ["TOP"])
        doc["map"] = {q: draw(targets) for q in blocks["r"]["labels"]}
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        path = draw(st.sampled_from(["name", "seed", "s", "r", "map", "ring", "violation",
                                     "other", "s.labels", "r.pairs", "map.a"]))
        target = doc
        *outer, key = path.split(".")
        for part in outer:
            target = target.setdefault(part, {})
            if not isinstance(target, dict):
                break
        else:
            target[key] = draw(json_values)
    return doc


@st.composite
def fuzz_texts(draw):
    """A document's JSON text; now and then cut short or replaced by noise."""
    text = json.dumps(draw(fuzz_documents()))
    fault = draw(st.integers(0, 7))
    if fault == 6:
        return text[: draw(st.integers(0, len(text)))]
    if fault == 7:
        return draw(st.text(max_size=30))
    return text


class TestParseInstanceFuzz:
    @settings(FUZZ, max_examples=400)
    @given(fuzz_texts())
    def test_parse_gives_instance_or_positioned_error(self, text):
        try:
            doc = parse_instance(text)
        except DocumentSyntaxError as exc:
            assert exc.line >= 1 and exc.column >= 1
        except DocumentSemanticError as exc:
            assert exc.line is None or (exc.line >= 1 and exc.column >= 1)
        else:
            assert isinstance(doc, InstanceDocument)
            canonical = serialize_instance(doc)
            assert serialize_instance(parse_instance(canonical)) == canonical
