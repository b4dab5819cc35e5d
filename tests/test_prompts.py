import json

import pytest

from gclbench.graph import EgoGraph, sample_ego_graph
from gclbench.prompts import (
    NO_NEIGHBOR_SENTINEL,
    default_template,
    emit_instruction_jsonl,
    render_prompt,
    truncate_tokens,
)
from gclbench.sessions import plan_ncil
from gclbench.synth import SynthConfig, synth_tag


def _ego_two_hops():
    return EgoGraph(
        center=7,
        hop_nodes=((3, 9), (4,)),
        hop_texts=(("citrus pricing report", "alkali survey"), ("river basin notes",)),
        center_text="central market analysis of seasonal goods",
    )


def test_render_contains_system_and_hop_blocks():
    prompt = render_prompt(_ego_two_hops(), default_template("Cora"), ["A", "B"])
    assert "You are a good graph reasoner" in prompt
    assert "known neighbors at hop 1:" in prompt
    assert "known neighbors at hop 2:" in prompt
    assert "[0][central market analysis of seasonal goods]" in prompt
    assert "[1][citrus pricing report]" in prompt
    assert "[2][alkali survey]" in prompt
    assert "[3][river basin notes]" in prompt
    assert "A, B" in prompt


def test_render_isolated_node_sentinel():
    ego = EgoGraph(center=0, hop_nodes=((), ()), hop_texts=((), ()), center_text="loner")
    prompt = render_prompt(ego, default_template("Cora"), ["A"])
    assert NO_NEIGHBOR_SENTINEL in prompt
    assert "hop 1" not in prompt


def test_render_truncates_long_text():
    words = " ".join(f"w{i}" for i in range(300))
    ego = EgoGraph(center=0, hop_nodes=((),), hop_texts=((),), center_text=words)
    template = default_template("Cora", hops=1)
    prompt = render_prompt(ego, template, ["A"])
    center_part = prompt.split("[0][")[1].split("]")[0]
    assert len(center_part.split()) == 128
    assert center_part.split()[-1] == "w127"


def test_truncate_tokens_short_text_unchanged():
    assert truncate_tokens("a b c", 128) == "a b c"


def test_render_requires_class_names():
    with pytest.raises(ValueError, match="empty class list"):
        render_prompt(_ego_two_hops(), default_template("Cora"), [])


def test_render_hop_count_guard():
    template = default_template("Cora", hops=1)
    with pytest.raises(ValueError, match="hops"):
        render_prompt(_ego_two_hops(), template, ["A"])


def test_render_pure_function(testkit_graph):
    ego = sample_ego_graph(testkit_graph, 11, [4, 4], seed=3)
    t = default_template("Synth")
    names = list(testkit_graph.class_names[:3])
    assert render_prompt(ego, t, names) == render_prompt(ego, t, names)


def test_class_names_in_class_id_order(testkit_plan):
    g = testkit_plan.graph
    session = testkit_plan.sessions[1]
    names_expected = [g.class_names[c] for c in testkit_plan.cumulative_classes(2)]
    node = session.train_nodes[0]
    ego = sample_ego_graph(g, node, (4, 4), seed=0)
    prompt = render_prompt(ego, default_template("Synth"), names_expected)
    # the question lists the cumulative class names joined in class-id order
    assert ", ".join(names_expected) in prompt


# -------------------------------------------------------------------- emission


@pytest.fixture(scope="module")
def cora_shaped_plan():
    g = synth_tag(SynthConfig(num_classes=7, nodes_per_class=120, feature_dim=8,
                              intra_p=0.05, inter_p=0.01, seed=12))
    return plan_ncil(g, classes_per_session=2, num_sessions=3, shots=100, seed=0)


def test_emit_line_count_cora_shape(tmp_path, cora_shaped_plan):
    out = tmp_path / "session0.jsonl"
    count = emit_instruction_jsonl(cora_shaped_plan, 0, default_template("Cora"), out, seed=1)
    assert count == 200  # 2 classes x 100 shots
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 200
    rec = json.loads(lines[0])
    assert set(rec) == {"node", "prompt", "answer"}
    session0_names = {cora_shaped_plan.graph.class_names[c]
                      for c in cora_shaped_plan.sessions[0].class_ids}
    for line in lines:
        assert json.loads(line)["answer"] in session0_names


def test_emit_byte_stable(tmp_path, cora_shaped_plan):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    emit_instruction_jsonl(cora_shaped_plan, 0, default_template("Cora"), a, seed=9)
    emit_instruction_jsonl(cora_shaped_plan, 0, default_template("Cora"), b, seed=9)
    assert a.read_bytes() == b.read_bytes()


def test_emit_sidecar_metadata(tmp_path, cora_shaped_plan):
    out = tmp_path / "s0.jsonl"
    emit_instruction_jsonl(cora_shaped_plan, 0, default_template("Cora"), out, seed=1)
    meta = json.loads((tmp_path / "s0.meta.json").read_text())
    assert meta["records"] == 200
    assert meta["lora"] == {"r": 5, "alpha": 16, "dropout": 0.05}


def test_emit_later_session_uses_cumulative_names(tmp_path, cora_shaped_plan):
    out = tmp_path / "s1.jsonl"
    emit_instruction_jsonl(cora_shaped_plan, 1, default_template("Cora"), out, seed=1)
    rec = json.loads(out.read_text().splitlines()[0])
    g = cora_shaped_plan.graph
    names = [g.class_names[c] for c in cora_shaped_plan.cumulative_classes(2)]
    assert ", ".join(names) in rec["prompt"]


def test_emit_session_out_of_range(tmp_path, cora_shaped_plan):
    with pytest.raises(IndexError):
        emit_instruction_jsonl(cora_shaped_plan, 5, default_template("Cora"),
                               tmp_path / "x.jsonl", seed=0)


@pytest.mark.parametrize("seed", [0, -1])
def test_numpy_integer_seed_samples_and_emits_as_its_python_int(tmp_path, testkit_plan, seed):
    # A numpy seed used to raise OverflowError in the 64-bit mask (numpy 2
    # integer promotion), and the sidecar could not hold it as JSON.
    import numpy as np

    from oracles import ego_hops_loop

    g = testkit_plan.graph
    for v in range(0, g.node_count, 7):
        want = sample_ego_graph(g, v, (2, 2), seed)
        assert sample_ego_graph(g, v, (2, 2), np.int64(seed)) == want
        assert ego_hops_loop(g, v, (2, 2), np.int64(seed)) == want.hop_nodes
    for name, s in (("py", seed), ("np", np.int64(seed))):
        emit_instruction_jsonl(testkit_plan, 0, default_template("Cora"), tmp_path / f"{name}.jsonl",
                               seed=s, fanouts=(2, 2))
    for suffix in (".jsonl", ".meta.json"):
        assert (tmp_path / f"np{suffix}").read_bytes() == (tmp_path / f"py{suffix}").read_bytes()
    with pytest.raises(TypeError):
        sample_ego_graph(g, 0, (2, 2), float(seed))
    with pytest.raises(TypeError):
        ego_hops_loop(g, 0, (2, 2), float(seed))
    with pytest.raises(TypeError):
        emit_instruction_jsonl(testkit_plan, 0, default_template("Cora"), tmp_path / "f.jsonl",
                               seed=float(seed))
