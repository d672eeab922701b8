"""Tests for LoRA adapters, configuration matching, injection and merge."""

import numpy as np
import pytest

from repro.lora import LoRAConfig, LoRALinear, inject_lora
from repro.models import build_model, nano_moe
from repro.models.expert import ExpertFFN
from repro.nn import Linear, Tensor


class TestLoRAConfig:
    def test_defaults_match_paper(self):
        cfg = LoRAConfig()
        assert cfg.rank == 8
        assert cfg.alpha == 16.0
        assert cfg.scaling == 2.0

    def test_gate_excluded(self):
        cfg = LoRAConfig()
        assert not cfg.matches("blocks.0.moe.gate.router")
        assert cfg.matches("blocks.0.moe.experts.0.w_gate")
        assert cfg.matches("blocks.0.attn.q_proj")

    def test_validation(self):
        with pytest.raises(ValueError):
            LoRAConfig(rank=0)
        with pytest.raises(ValueError):
            LoRAConfig(alpha=-1)
        with pytest.raises(ValueError):
            LoRAConfig(dropout=1.0)


class TestLoRALinear:
    def test_initial_output_identical_to_base(self, rng):
        base = Linear(6, 4, rng=rng)
        x = rng.normal(size=(3, 6))
        expected = base(Tensor(x)).data.copy()
        adapted = LoRALinear(base, LoRAConfig())
        np.testing.assert_array_equal(adapted(Tensor(x)).data, expected)

    def test_base_frozen_adapters_trainable(self, rng):
        adapted = LoRALinear(Linear(6, 4, rng=rng), LoRAConfig())
        trainable = {id(p) for p in adapted.trainable_parameters()}
        assert trainable == {id(adapted.lora_a), id(adapted.lora_b)}

    def test_update_changes_output(self, rng):
        adapted = LoRALinear(Linear(6, 4, rng=rng), LoRAConfig())
        x = rng.normal(size=(2, 6))
        before = adapted(Tensor(x)).data.copy()
        adapted.lora_b.data += 0.1
        after = adapted(Tensor(x)).data
        assert np.abs(after - before).max() > 0

    def test_scaling_applied(self, rng):
        cfg = LoRAConfig(rank=2, alpha=8.0)  # scaling 4
        adapted = LoRALinear(Linear(4, 4, rng=rng), cfg)
        adapted.lora_a.data = np.ones((2, 4))
        adapted.lora_b.data = np.ones((4, 2))
        x = np.ones((1, 4))
        base_out = adapted.base(Tensor(x)).data
        out = adapted(Tensor(x)).data
        np.testing.assert_allclose(out - base_out, 4.0 * 2 * 4, atol=1e-10)


class TestInjection:
    def test_injects_everything_but_gate(self, nano_model, nano_config):
        report = inject_lora(nano_model)
        assert report.num_adapted > 0
        assert not any("gate.router" in path for path in report.adapted_paths)
        assert any("gate.router" in path for path in report.skipped_paths)
        # every expert got three adapters
        expert_adapted = [p for p in report.adapted_paths if "experts" in p]
        assert len(expert_adapted) == nano_config.total_experts * 3

    def test_only_adapters_trainable(self, nano_model):
        inject_lora(nano_model)
        for name, p in nano_model.named_parameters():
            if p.requires_grad:
                assert "lora_a" in name or "lora_b" in name

    def test_output_unchanged_at_injection(self, nano_config, rng):
        m1, m2 = build_model(nano_config), build_model(nano_config)
        inject_lora(m2)
        ids = rng.integers(0, nano_config.vocab_size, size=(1, 6))
        np.testing.assert_allclose(m1.forward(ids).data,
                                   m2.forward(ids).data, atol=1e-12)

    def test_trainable_fraction_small(self, nano_model):
        report = inject_lora(nano_model, LoRAConfig(rank=2))
        assert 0 < report.trainable_fraction() < 0.5

    def test_no_match_raises(self, nano_model):
        with pytest.raises(ValueError):
            inject_lora(nano_model,
                        LoRAConfig(target_substrings=("nonexistent_layer",)))


def _adapters(model):
    return [m for _, m in model.named_modules() if isinstance(m, LoRALinear)]


class TestDropoutStreams:
    def test_adapters_draw_distinct_masks(self, nano_model):
        inject_lora(nano_model, LoRAConfig(dropout=0.1))
        draws = {tuple(a._dropout_rng.random(5))
                 for a in _adapters(nano_model)}
        assert len(draws) == len(_adapters(nano_model))

    def test_same_shape_adapters_apply_different_masks(self, nano_model):
        inject_lora(nano_model, LoRAConfig(dropout=0.5))
        attn = nano_model.blocks[0].attn
        masks = [proj.factors((4, 3, attn.q_proj.in_features),
                              np.float64)[3]
                 for proj in (attn.q_proj, attn.k_proj)]
        assert not np.array_equal(*masks)

    def test_streams_do_not_consume_the_injection_generator(self, nano_config):
        """Every ``A`` is the injection generator's next draw, as if the
        adapters drew nothing else from it."""
        model = build_model(nano_config)
        config = LoRAConfig(dropout=0.1, seed=3)
        report = inject_lora(model, config)
        adapters = dict(model.named_modules())
        rng = np.random.default_rng(config.seed)
        for path in report.adapted_paths:
            adapter = adapters[path]
            expected = rng.normal(0.0, 1.0 / config.rank,
                                  size=adapter.lora_a.shape)
            np.testing.assert_array_equal(adapter.lora_a.data, expected)


def _graph_nodes(out):
    """Every tensor with a backward closure reachable from ``out``."""
    seen, stack, nodes = set(), [out], []
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._backward is not None:
            nodes.append(node)
        stack.extend(node._parents)
    return nodes


def _op(node):
    return node._backward.__qualname__.split(".<locals>")[0]


class TestGraphStructure:
    def test_lora_linear_call_is_one_node(self, rng):
        adapted = LoRALinear(Linear(6, 4, bias=False, rng=rng), LoRAConfig())
        x = Tensor(rng.normal(size=(2, 3, 6)), requires_grad=True)
        out = adapted(x)
        assert out._parents == (x, adapted.base.weight, adapted.lora_a,
                                adapted.lora_b)
        assert _graph_nodes(out) == [out]

    def test_lora_expert_segment_is_one_node(self, rng):
        expert = ExpertFFN(6, 10, rng=rng)
        for i, name in enumerate(("w_gate", "w_up", "w_down")):
            setattr(expert, name, LoRALinear(getattr(expert, name),
                                             LoRAConfig(dropout=0.1),
                                             rng=rng, ordinal=i))
        x = Tensor(rng.normal(size=(5, 6)), requires_grad=True)
        out = expert.forward_fused(x)
        assert _graph_nodes(out) == [out]
        projections = (expert.w_gate, expert.w_up, expert.w_down)
        assert [p for p in out._parents if p.requires_grad] == \
            [x] + [t for p in projections for t in (p.lora_a, p.lora_b)]

    def test_model_graph_has_one_node_per_adapter_call(self, nano_config,
                                                       rng):
        """Each attention sublayer is one ``attention`` node carrying its
        four adapters, each RMSNorm one ``rms_norm`` node, the head adapter
        one ``lora_linear`` node, each expert segment one ``fused_swiglu``
        node, and no transpose or matmul node touches a parameter."""
        model = build_model(nano_config)
        report = inject_lora(model)
        ids = rng.integers(0, nano_config.vocab_size, size=(2, 8))
        nodes = _graph_nodes(model.loss(ids, ids))
        ops = [_op(node) for node in nodes]
        layers = nano_config.num_layers
        assert ops.count("attention") == layers
        # The first norm sees only the frozen embeddings: no node.
        assert ops.count("rms_norm") == 2 * layers
        assert ops.count("lora_linear") == 1
        modules = dict(model.named_modules())
        attention_adapters = {id(t) for path in report.adapted_paths
                              if ".attn." in path
                              for t in (modules[path].lora_a,
                                        modules[path].lora_b)}
        assert {id(p) for node, op in zip(nodes, ops) if op == "attention"
                for p in node._parents if p.requires_grad
                and p._backward is None} == attention_adapters
        segments = sum(len(np.unique(r.expert_indices))
                       for r in model.routing_records())
        assert ops.count("fused_swiglu") == segments
        params = {id(p) for p in model.parameters()}
        for node, op in zip(nodes, ops):
            if op in ("Tensor.transpose", "Tensor.__matmul__"):
                assert not any(id(p) in params for p in node._parents), op
