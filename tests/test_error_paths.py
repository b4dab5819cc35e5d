"""Error-contract coverage for the on-disk formats and guard clauses."""

import json
import struct

import numpy as np
import pytest

from gclbench.embeddings import EmbeddingProviderError, HttpSource
from gclbench.graph import (
    FEATURES_MAGIC,
    TagFormatError,
    load_tag,
    make_graph,
    save_tag,
)
from gclbench.nn import ARCH_GCN, ARCH_MLP, init_params, model_forward
from gclbench.prototypes import PrototypeBank, build_prototypes, classify_batch, task_prototype
from gclbench.sessions import build_eval_task, filter_classes


_DEEP = "[" * 100_000 + "]" * 100_000  # nested too deep for the JSON decoder


@pytest.fixture()
def saved_dir(tmp_path):
    g = make_graph(np.zeros((3, 2), np.float32), ["a", "b", "c"],
                   np.array([0, 1, 0]), ["x", "y"], np.array([[0, 1]]))
    save_tag(g, tmp_path)
    return tmp_path


def test_nodes_jsonl_malformed_record(saved_dir):
    (saved_dir / "nodes.jsonl").write_text('{"id": 0, "text": "a", "label": 0}\nnot json\n')
    with pytest.raises(TagFormatError, match="malformed record 1"):
        load_tag(saved_dir)


def test_nodes_jsonl_non_contiguous_ids(saved_dir):
    (saved_dir / "nodes.jsonl").write_text(
        '{"id": 0, "text": "a", "label": 0}\n{"id": 5, "text": "b", "label": 0}\n'
    )
    with pytest.raises(TagFormatError, match="non-contiguous id at record 1"):
        load_tag(saved_dir)


def test_edges_tsv_malformed_record(saved_dir):
    (saved_dir / "edges.tsv").write_text("0\t1\n0 1 2\n")
    with pytest.raises(TagFormatError, match="malformed record 1"):
        load_tag(saved_dir)


@pytest.mark.parametrize("file, record", [("nodes.jsonl", 3), ("edges.tsv", 1)])
def test_a_line_that_is_not_utf8_is_a_malformed_record(saved_dir, file, record):
    # A bare UnicodeDecodeError used to escape, naming neither file nor record.
    path = saved_dir / file
    path.write_bytes(path.read_bytes() + b"\xff")
    with pytest.raises(TagFormatError, match=f"^{file}: malformed record {record}: 'utf-8' codec"):
        load_tag(saved_dir)


def test_class_names_must_be_strings(saved_dir):
    (saved_dir / "class_names.json").write_text("[1, 2]")
    with pytest.raises(TagFormatError, match="array of strings"):
        load_tag(saved_dir)


@pytest.mark.parametrize("file, content, message", [
    ("nodes.jsonl", '{"id": 0, "text": null, "label": 0}', "malformed record 0: id and label"),
    ("nodes.jsonl", '{"id": 0, "text": 5, "label": 0}', "malformed record 0: id and label"),
    ("nodes.jsonl", '{"id": 0, "text": "a", "label": true}', "malformed record 0: id and label"),
    ("nodes.jsonl", '{"id": 0, "text": "a", "label": "1"}', "malformed record 0: id and label"),
    ("nodes.jsonl", '{"id": 0, "text": "a", "label": 1.7}', "malformed record 0: id and label"),
    ("nodes.jsonl", '{"id": 0.4, "text": "a", "label": 0}', "malformed record 0: id and label"),
    ("nodes.jsonl", '[0, "a", 0]', "malformed record 0"),
    ("class_names.json", '["a", "a", "b", "c"]', "repeated class name 'a' at record 1"),
    ("nodes.jsonl", _DEEP, "malformed record 0: maximum recursion depth exceeded"),
    ("class_names.json", _DEEP, r"not a JSON file \(maximum recursion depth exceeded"),
], ids=["text-null", "text-int", "label-bool", "label-str", "label-float", "id-float",
        "record-list", "class-repeated", "record-nested-too-deep", "class-nested-too-deep"])
def test_loader_takes_each_field_as_its_json_type(saved_dir, file, content, message):
    # Each used to load: null text as "None", 5 as "5", labels true/"1"/1.7
    # and id 0.4 through int(), and a class list that names one class twice.
    # A value nested too deep for the decoder ended in a RecursionError traceback.
    (saved_dir / file).write_text(content + "\n")
    with pytest.raises(TagFormatError, match=f"^{file}: {message}"):
        load_tag(saved_dir)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_features_must_be_finite(saved_dir, value):
    # A NaN used to load, and the run failed later on non-finite logits
    # without naming the file. The precomputed-embedding provider reads the
    # same format and gets the same check.
    from gclbench.embeddings import FileSource

    path = saved_dir / "features.bin"
    raw = bytearray(path.read_bytes())
    struct.pack_into("<f", raw, struct.calcsize("<4sIQQ") + 4 * 3, value)  # row 1, column 1
    path.write_bytes(bytes(raw))
    message = f"^{path}: non-finite value in row 1$"
    with pytest.raises(TagFormatError, match=message):
        load_tag(saved_dir)
    (saved_dir / "index.json").write_text("[0, 1, 2]")
    with pytest.raises(TagFormatError, match=message):
        FileSource(matrix_path=str(path), index_path=str(saved_dir / "index.json"))


def test_features_unsupported_version(saved_dir):
    raw = bytearray((saved_dir / "features.bin").read_bytes())
    struct.pack_into("<I", raw, 4, 9)
    (saved_dir / "features.bin").write_bytes(bytes(raw))
    with pytest.raises(TagFormatError, match="unsupported version"):
        load_tag(saved_dir)


def test_features_payload_length_mismatch(saved_dir):
    raw = (saved_dir / "features.bin").read_bytes()
    (saved_dir / "features.bin").write_bytes(raw + b"\x00\x00\x00\x00")
    with pytest.raises(TagFormatError, match="payload length"):
        load_tag(saved_dir)


def test_features_truncated_header(saved_dir):
    (saved_dir / "features.bin").write_bytes(FEATURES_MAGIC + b"\x01")
    with pytest.raises(TagFormatError, match="truncated"):
        load_tag(saved_dir)


def test_make_graph_label_count_mismatch():
    with pytest.raises(TagFormatError, match="label-count"):
        make_graph(np.zeros((2, 2), np.float32), ["a", "b"], np.array([0]),
                   ["x"], np.zeros((0, 2), np.int64))


def test_init_params_unknown_arch():
    with pytest.raises(ValueError, match="unknown arch"):
        init_params("transformer", 2, 3, 2, seed=0)


def test_init_params_hidden_dim_guard():
    with pytest.raises(ValueError, match="hidden_dim"):
        init_params(ARCH_MLP, 4, 0, 2, seed=0)


def test_forward_input_dim_mismatch(two_node_graph):
    from gclbench.graph import gcn_normalized_adjacency

    p = init_params(ARCH_GCN, 5, 3, 2, seed=0)
    with pytest.raises(ValueError, match="dim mismatch"):
        model_forward(p, gcn_normalized_adjacency(two_node_graph), np.zeros((2, 1)))


def test_build_prototypes_guards():
    bank = PrototypeBank()
    with pytest.raises(ValueError, match="sample_num"):
        build_prototypes(bank, np.zeros((1, 2)), np.array([0]), sample_num=0, seed=0)
    with pytest.raises(ValueError, match="one label per"):
        build_prototypes(bank, np.zeros((2, 2)), np.array([0]), sample_num=1, seed=0)
    build_prototypes(bank, np.zeros((1, 2)), np.array([0]), sample_num=1, seed=0)
    with pytest.raises(ValueError, match="dim"):
        build_prototypes(bank, np.zeros((1, 3)), np.array([1]), sample_num=1, seed=0)


def test_classify_batch_empty_bank():
    with pytest.raises(ValueError, match="empty"):
        classify_batch(PrototypeBank(), np.zeros((1, 2)))


def test_task_prototype_unknown_weighting(two_node_graph):
    with pytest.raises(ValueError, match="unknown weighting"):
        task_prototype(two_node_graph, [0], np.zeros((2, 1)), 1, "median")


def test_temperature_must_be_positive():
    with pytest.raises(ValueError, match="temperature"):
        PrototypeBank(temperature=0.0)


def test_filter_classes_min_samples_guard(two_node_graph):
    with pytest.raises(ValueError, match="min_samples"):
        filter_classes(two_node_graph, 0)


def test_build_eval_task_unknown_mode(testkit_plan):
    with pytest.raises(ValueError, match="unknown mode"):
        build_eval_task(testkit_plan, 1, "hybrid")


def test_http_source_batch_size_guard():
    with pytest.raises(ValueError, match="batch size"):
        HttpSource("http://localhost:1", "m", batch_size=0)


def test_http_malformed_response_payload():
    with pytest.raises(EmbeddingProviderError, match="malformed"):
        HttpSource._parse({"data": "nope"}, 1)
    with pytest.raises(EmbeddingProviderError, match="index 0 repeated"):
        HttpSource._parse({"data": [{"index": 0, "embedding": [0.0]},
                                    {"index": 0, "embedding": [1.0]}]}, 2)


def _item(index, vec=(0.0, 1.0)):
    return {"index": index, "embedding": vec}


@pytest.mark.parametrize("data,match", [
    ([{"embedding": [0.0, 1.0]}], "malformed embedding item"),
    ([{"index": 0}], "malformed embedding item"),
    ([_item(None)], "malformed embedding item"),
    ([_item("one")], "malformed embedding item"),
    ([_item(float("inf"))], "malformed embedding item"),
    (["not an object"], "malformed embedding item"),
    ([_item(0, [[0.0], [1.0, 2.0]])], "malformed embedding item"),
    ([_item(1)], "outside"),
    ([_item(-1)], "outside"),
    ([_item(0), _item(0)], "repeated"),
    ([_item(0, [0.0, float("nan")])], "finite"),
    ([_item(0, [float("inf"), 1.0])], "finite"),
    ([_item(0, 3.0)], "finite vector"),
    ([_item(0, [])], "finite vector"),  # an empty vector used to pass as dimension 0
    ([_item(0, "")], "finite vector"),
    ([_item(0, "AAAA*AAA")], "malformed embedding item"),  # not a base64 character
    ([_item(0, "AAAA AAA")], "malformed embedding item"),
    ([_item(0, "AAAAAAAA")], "malformed embedding item"),  # 6 bytes: not whole float32s
    # Each of these used to load: the index through int(), the list through numpy,
    # so ["1.5", true, 2, 3] read as [1.5, 1, 2, 3].
    ([_item("0")], "malformed embedding item"),
    ([_item(0.7)], "malformed embedding item"),
    ([_item(False)], "malformed embedding item"),
    ([_item(0, ["1.5", True, 2, 3])], "malformed embedding item"),
    ([_item(0, [1.0, True])], "malformed embedding item"),
    ([_item(0, [1.0, None])], "malformed embedding item"),
])
def test_http_bad_payload_items_are_provider_errors(data, match):
    with pytest.raises(EmbeddingProviderError, match=match):
        HttpSource._parse({"data": data}, len(data))


def test_http_non_object_payload():
    with pytest.raises(EmbeddingProviderError, match="malformed"):
        HttpSource._parse(["data"], 1)


def test_http_empty_text_list():
    src = HttpSource("http://localhost:1", "m")
    assert src.embed([]).shape == (0, 0)
