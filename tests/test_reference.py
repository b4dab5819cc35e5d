"""The committed reference outputs, recomputed and compared exactly."""

import reference


def test_outputs_equal_the_committed_reference():
    diffs = reference.mismatches(reference.load(), reference.compute())
    assert not diffs, "\n".join(diffs)


def test_reference_plans_tell_the_methods_apart():
    # A reference in which two methods agree cannot catch a change that turns
    # one into the other.
    ref = reference.load()
    m = ref["matrices"]
    for mode in reference.MODES:
        assert m[f"sep1/ewc/{mode}"] != m[f"sep1/gcn/{mode}"]
        assert m[f"sep0/tpp_heads/{mode}"] != m[f"sep0/meanpool_tpp/{mode}"]
        assert m[f"sep1/teen/{mode}"] != m[f"sep1/cosine/{mode}"]
        assert m[f"sep1-stub/simplecil/{mode}"] != m[f"sep1-stub/simgcl_proto/{mode}"]
    assert m["fsncil/teen/local"] != m["fsncil/cosine/local"]
    # Each full_union entry differs from its intra_only one, so the pins see
    # the edges between sessions.
    for m_id in reference.FULL_UNION_METHODS:
        assert m[f"sep1-full/{m_id}/global"] != m[f"sep1/{m_id}/global"]
    assert m["sep1-full-stub/simgcl_proto/global"] != m["sep1-stub/simgcl_proto/global"]
    routing = {(e["weighting"], e["k"]): e["task_id_accuracy"] for e in ref["leakage"]["sep0"]}
    assert routing[("plain-mean", 8)] < 1.0 == routing[("laplacian", 8)]
