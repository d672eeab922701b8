"""GPU memory model: from device memory to worker expert capacities ``C_n``.

The paper derives ``C_n`` by "dividing the total available GPU memory of
worker n by the memory required for a single expert" (Section IV-B).  The
per-expert footprint during LoRA fine-tuning includes the frozen fp16
weights, the LoRA adapters with their optimizer states, and an activation
workspace proportional to the expert's hidden sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..models.config import MoEModelConfig
from .device import DeviceSpec
from .topology import ClusterTopology


@dataclass(frozen=True)
class ExpertMemoryModel:
    """Estimate of one expert's working-set bytes during fine-tuning.

    Attributes
    ----------
    weight_bytes_per_param:
        Precision of the frozen expert weights (2 = fp16, the paper's setup).
    adapter_overhead:
        Extra fraction for LoRA matrices plus their full-precision AdamW
        moments.  LoRA params are a small fraction of expert params; the
        default 0.05 is generous.
    activation_tokens:
        Sizing assumption for the activation workspace: the expert keeps, for
        this many dispatched tokens, its input (H) and intermediate
        (ffn_hidden, x3 for SwiGLU branches) activations for the backward
        pass, at 2 bytes each.
    reserve_bytes:
        Fixed per-device reservation (CUDA context, fragmentation, comm
        buffers).
    master_extra_reserve_bytes:
        Additional reservation on the GPU the master process shares: the
        backbone weights (~5 GB fp16 at Mixtral scale), all-layer activations
        kept for the backward pass, LoRA optimizer state, the LM-head logits
        workspace, and transfer staging buffers.  This is what makes the
        master's GPU host far fewer experts than pure worker GPUs.
    """

    weight_bytes_per_param: int = 2
    adapter_overhead: float = 0.05
    activation_tokens: int = 3072
    reserve_bytes: int = 2 * 1024 ** 3
    master_extra_reserve_bytes: int = 20 * 1024 ** 3

    def expert_bytes(self, config: MoEModelConfig) -> int:
        """Footprint of a single expert under this model."""
        weights = config.expert_num_params() * self.weight_bytes_per_param
        adapters = int(weights * self.adapter_overhead)
        per_token = 2 * (config.hidden_size + 3 * config.ffn_hidden_size)
        activations = self.activation_tokens * per_token
        return weights + adapters + activations

    def capacity(self, device: DeviceSpec, config: MoEModelConfig,
                 hosts_master: bool = False) -> int:
        """``C_n``: experts a device can host, after reserves."""
        available = device.memory_bytes - self.reserve_bytes
        if hosts_master:
            available -= self.master_extra_reserve_bytes
        if available <= 0:
            return 0
        return int(available // self.expert_bytes(config))

    def capacities(self, topology: ClusterTopology,
                   config: MoEModelConfig) -> List[int]:
        """Per-worker capacities for a whole cluster.

        The worker co-located with the master gets the master's extra
        reservation subtracted.
        """
        return [self.capacity(w.device, config,
                              hosts_master=(w.worker_id ==
                                            topology.master_worker_id))
                for w in topology.workers]

