"""The probe corpus: per-shape extraction and the shared parse memo.

``fit_model`` parses and extracts each probe shape once and gives every
probe its own name and annotation values.  That is only sound while each
probe's features equal what the runtime's full pipeline reads from the
probe's own source text — checked here for the whole corpus.
"""

from repro.hardware.presets import aji_cluster15_node
from repro.ocl import source
from repro.predict.corpus import _probe_features, fit_model, probe_source, probe_specs
from repro.predict.features import extract


def test_every_probe_matches_a_full_parse_of_its_source():
    probes = probe_specs()
    assert len(probes) == 1152
    assert len({(p.buffers, p.scalars, p.motif) for p in probes}) == 36
    for p, feat in zip(probes, _probe_features(probes)):
        src = probe_source(p)
        want = extract(source._parse_program_source_uncached(src)[0], src)
        assert feat == want, p.name
        # Equal floats could still differ in sign of zero or type.
        assert [repr(v) for v in feat.to_dict().values()] == [
            repr(v) for v in want.to_dict().values()
        ], p.name


def test_fit_leaves_the_parse_memo_alone():
    app = (
        "// @multicl flops_per_item=3 bytes_per_item=12 writes=0\n"
        "__kernel void memo_probe(__global float* a) { a[0] = 1.0f; }\n"
    )
    source.parse_program_source(app)
    before = list(source._parse_memo)
    fit_model(aji_cluster15_node())
    assert list(source._parse_memo) == before
    assert app in source._parse_memo
