"""Giant-document page-sharding: bit-identity of the shard-parallel
artifact+replay path with the sequential fold (SURVEY.md §4.3; the
lead(1) carry spec is reference extractor.py:331-375)."""

from pdf_parser_ray.io.synth import DEFAULT_CONFIG, gen_document
from pdf_parser_ray.stages.parse import extract_spans
from pdf_parser_ray.kernels.shard import (
    compute_shard_artifacts,
    make_shards,
    replay_document,
)

# doc ids whose seeded rng draws the giant flag (6x repeated sections
# -> duplicate question instances, staggered completion)
GIANT_IDS = ["doc-00000041", "doc-00000116", "doc-00000169"]


def _sharded(doc_id, spans, pps):
    arts = []
    for _idx, off, ss, carry in make_shards(spans, pps):
        arts.extend(compute_shard_artifacts(doc_id, ss, carry, DEFAULT_CONFIG, off))
    return replay_document(arts, DEFAULT_CONFIG)


class TestShardIdentity:
    def test_giant_docs_all_shard_sizes(self):
        for did in GIANT_IDS:
            spans = gen_document(did, 42)
            want = extract_spans(did, spans, DEFAULT_CONFIG)
            assert want, did
            for pps in (1, 2, 5):
                assert _sharded(did, spans, pps) == want, (did, pps)

    def test_mixed_mega_document(self):
        # giant + normal pages concatenated into one document: the
        # remaining-label/question state completes at staggered times,
        # exercising the active-subset reconstruction
        spans = []
        for did in ["doc-00000041", "doc-00000007", "doc-00000116", "doc-00000002"]:
            spans.extend(gen_document(did, 42))
        want = extract_spans("mega", spans, DEFAULT_CONFIG)
        for pps in (1, 3, 16):
            assert _sharded("mega", spans, pps) == want, pps

    def test_thousand_page_document(self):
        # the north-rule skew case: a single ~1000-page document must
        # parse shard-parallel with bit-identical spans
        spans = []
        i = 0
        n_pages = 0
        while n_pages < 1000:
            s = gen_document(f"doc-{i:08d}", 42)
            n_pages += sum(1 for x in s if x["kind"] == "page")
            spans.extend(s)
            i += 1
        assert n_pages >= 1000
        want = extract_spans("bigdoc", spans, DEFAULT_CONFIG)
        got = _sharded("bigdoc", spans, 8)
        assert got == want

    def test_divergent_variant_question_sections(self):
        """DEFAULT_CONFIG's variants share question sections, so the
        per-variant artifact path is normally exercised only through
        the (differing) label sections. Force the variants' QUESTION
        lists apart and require bit-identity on docs of both form
        types — pins the per-variant records/regions selection in the
        replay."""
        from pdf_parser_ray.core.config import FormConfig
        from pdf_parser_ray.kernels.document import (
            classify_form_type,
            decode_spans,
        )

        f2 = DEFAULT_CONFIG.select("female")
        for s in f2:
            if s["section_name"] == "LIFESTYLE" and s.get("questions"):
                s["questions"] = list(s["questions"])[1:]  # drop one
        cfg = FormConfig.from_sections(
            [dict(s) for s in DEFAULT_CONFIG.sections],
            {"female": f2, "male": DEFAULT_CONFIG.select("male")},
        )

        seen_types = set()
        for i in range(12):
            did = f"doc-{i:08d}"
            spans = gen_document(did, 42)
            seen_types.add(classify_form_type(decode_spans(did, spans)))
            want = extract_spans(did, spans, cfg)
            arts = []
            for _idx, off, ss, carry in make_shards(spans, 1):
                arts.extend(compute_shard_artifacts(did, ss, carry, cfg, off))
            got = replay_document(arts, cfg)
            assert got == want, did
        assert seen_types == {"female", "male"}, "need both form types exercised"

    def test_single_variant_config_falls_back_to_base(self):
        """A config defining only a 'female' variant: male-classified
        docs must replay via config.select's base-sections fallback
        (artifacts for the base variant are always computed)."""
        from pdf_parser_ray.core.config import FormConfig

        cfg = FormConfig.from_sections(
            [dict(s) for s in DEFAULT_CONFIG.sections],
            {"female": DEFAULT_CONFIG.select("female")},
        )
        from pdf_parser_ray.kernels.document import classify_form_type, decode_spans

        seen = set()
        for i in range(12):
            did = f"doc-{i:08d}"
            spans = gen_document(did, 42)
            seen.add(classify_form_type(decode_spans(did, spans)))
            want = extract_spans(did, spans, cfg)
            arts = []
            for _idx, off, ss, carry in make_shards(spans, 2):
                arts.extend(compute_shard_artifacts(did, ss, carry, cfg, off))
            got = replay_document(arts, cfg)
            assert got == want, did
        assert "male" in seen, "need a male-classified doc to hit the fallback"

    def test_carry_is_lead1_only(self):
        # shard k's carry must be exactly the next shard's first page
        spans = gen_document("doc-00000041", 42)
        shards = make_shards(spans, 2)
        for k in range(len(shards) - 1):
            _i, _off, _ss, carry = shards[k]
            nxt_spans = shards[k + 1][2]
            first_page_end = next(
                (
                    j
                    for j, s in enumerate(nxt_spans[1:], start=1)
                    if s["kind"] == "page"
                ),
                len(nxt_spans),
            )
            assert carry == nxt_spans[:first_page_end]
        assert shards[-1][3] is None
