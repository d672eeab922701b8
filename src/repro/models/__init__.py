"""MoE model zoo: configs, gate, experts, blocks and the full transformer."""

from .config import MoEModelConfig
from .expert import ExpertFFN
from .generate import decode_routing_counts, generate
from .gating import GateOutput, TopKGate
from .moe_block import BlockRoutingRecord, MoEBlock, routing_counts
from .presets import (build_model, deepseek_moe_sim, gritlm_8x7b_sim,
                      mixtral_8x7b_sim, nano_moe, switch_xxl_sim,
                      tiny_mistral)
from .transformer import MoETransformer, TransformerBlock

__all__ = [
    "MoEModelConfig", "TopKGate", "GateOutput", "ExpertFFN",
    "MoEBlock", "BlockRoutingRecord", "routing_counts", "TransformerBlock",
    "MoETransformer",
    "tiny_mistral", "nano_moe", "mixtral_8x7b_sim", "gritlm_8x7b_sim",
    "switch_xxl_sim", "deepseek_moe_sim",
    "build_model", "generate", "decode_routing_counts",
]
