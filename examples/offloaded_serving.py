"""Serve an MoE model whose experts don't fit on the GPU.

The same expert locality that VELA exploits for fine-tuning communication is
what makes offloaded *inference* viable (the Fiddler / MoE-Infinity setting
in the paper's related work).  This example decodes from a Mixtral-scale
router with an expert cache and compares:

* cache capacity (25 % .. 100 % of the expert set),
* eviction policies: LRU, LFU, and profile-pinned (VELA's locality insight
  applied to serving),
* skewed (WikiText) vs uniform routing — locality is the entire effect.

It also generates actual text from the live tiny model fine-tuned on
Tiny-Shakespeare, to show decode-time routing on real weights.

Run:  python examples/offloaded_serving.py
"""

import numpy as np

from repro.bench.report import format_table, percent
from repro.bench.workloads import tiny_finetune_workload
from repro.data import CharTokenizer, generate_tiny_shakespeare
from repro.finetune import pretrain_router
from repro.models import decode_routing_counts, generate, mixtral_8x7b_sim
from repro.routing import SyntheticRouter, UNIFORM_REGIME, WIKITEXT_REGIME
from repro.serving import (ExpertCache, OverlappedFetchScheduler,
                           hot_expert_keys, replay_stream,
                           sample_decode_stream)

TOKENS = 200


def decode(config, router, cache):
    """Modeled offloaded decode of TOKENS tokens: every miss is synchronous."""
    return replay_stream(sample_decode_stream(config, router, TOKENS, seed=1),
                         OverlappedFetchScheduler(config, None, cache))


def capacity_and_policy_study() -> None:
    config = mixtral_8x7b_sim()
    print(f"model: {config.name}, {config.total_experts} experts "
          f"({config.expert_nbytes() / 1e6:.0f} MB each)")

    print("\n=== cache capacity sweep (LRU, WikiText-skewed decode) ===")
    rows = []
    for fraction in (0.25, 0.5, 0.75, 1.0):
        capacity = int(config.total_experts * fraction)
        router = SyntheticRouter(config, WIKITEXT_REGIME, seed=1)
        metrics = decode(config, router, ExpertCache(capacity))
        rows.append([f"{fraction:.0%}", percent(metrics.hit_rate),
                     metrics.mean_latency() * 1e3,
                     metrics.throughput_tokens_per_s()])
    print(format_table(["capacity", "hit rate", "ms/token", "tokens/s"],
                       rows))

    print("\n=== policy comparison at 50% capacity ===")
    capacity = config.total_experts // 2
    rows = []
    for policy in ("lru", "lfu", "pinned"):
        router = SyntheticRouter(config, WIKITEXT_REGIME, seed=1)
        pinned = None
        if policy == "pinned":
            profile = router.probability_matrix(8192)
            pinned = hot_expert_keys(profile, capacity - config.num_layers)
        cache = ExpertCache(capacity, policy=policy, pinned=pinned)
        metrics = decode(config, router, cache)
        rows.append([policy, percent(metrics.hit_rate),
                     metrics.mean_latency() * 1e3])
    print(format_table(["policy", "hit rate", "ms/token"], rows))

    print("\n=== skew is the effect: WikiText vs uniform routing ===")
    rows = []
    for regime in (WIKITEXT_REGIME, UNIFORM_REGIME):
        router = SyntheticRouter(config, regime, seed=1)
        metrics = decode(config, router, ExpertCache(capacity))
        rows.append([regime.name, percent(metrics.hit_rate),
                     metrics.mean_latency() * 1e3])
    print(format_table(["routing", "hit rate", "ms/token"], rows))


def live_model_generation() -> None:
    print("\n=== live tiny model: fine-tune, then generate ===")
    model, loader = tiny_finetune_workload(seed=0)
    pretrain_router(model, loader, steps=40)
    text = generate_tiny_shakespeare(num_turns=300, seed=7)
    tokenizer = CharTokenizer(text)

    prompt = "FIRST CITIZEN:\n"
    prompt_ids = tokenizer.encode(prompt)
    out = generate(model, prompt_ids, max_new_tokens=80, temperature=0.8,
                   top_k=8, seed=3)
    print("sample:")
    print(tokenizer.decode(out))

    counts = decode_routing_counts(model, prompt_ids, max_new_tokens=40)
    freq = counts / counts.sum(axis=1, keepdims=True)
    print("\ndecode-time expert usage, block 0 "
          f"(top expert {freq[0].max():.0%} of selections): "
          f"{np.round(freq[0], 2).tolist()}")


def main() -> None:
    capacity_and_policy_study()
    live_model_generation()


if __name__ == "__main__":
    main()
