"""The benchmark's three workloads: ``finetune``, ``serve`` and ``place``.

Each workload is built, warmed up and checked by :meth:`Workload.build`,
then driven one op at a time by ``run.py`` on a schedule that depends only
on the seed: op ``k`` always gets the same inputs for the same seed, and
no input depends on a measured time.  ``RATIONALE.md`` says why each
workload exists and what it bypasses.

The warm-up of every build runs a *canonical* input that does not depend on
the seed and compares it with ``reference.json``; the seeded ops are
checked for self-consistency (finite losses, complete outcomes, valid
placements, ids unchanged with the serving sidecars detached).
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

import repro.placement.vela as vela
from repro.bench.workloads import paper_workload, tiny_finetune_workload
from repro.cluster import paper_cluster
from repro.data import LMDataLoader
from repro.finetune import FineTuneConfig, Trainer, pretrain_router
from repro.lora import LoRALinear
from repro.models import mixtral_8x7b_sim, moe_block
from repro.models.expert import ExpertFFN
from repro.models.gating import TopKGate
from repro.models.moe_block import MoEBlock
from repro.models.transformer import MoETransformer
from repro.nn.attention import KVCache, MultiHeadAttention
from repro.nn.optim import AdamW
from repro.nn.tensor import Tensor
from repro.placement.base import PlacementProblem
from repro.placement.expert_parallel import ExpertParallelPlacement
from repro.placement.local_search import (LocalSearchRefiner,
                                          RefinedLocalityPlacement)
from repro.placement.replication import ReplicationStrategy
from repro.routing.synthetic import SyntheticRouter
from repro.runtime.engine import ExpertParallelEngine, MasterWorkerEngine
from repro.serving.batching import Request
from repro.serving.prefetch import DecodePrefetcher, PrefetchConfig
from repro.serving.scheduler import ContinuousBatchingEngine
from repro.telemetry import (FlightRecorder, RequestTracer,
                             RoutingHealthMonitor, SLOConfig, Telemetry)

REFERENCE = json.loads(
    (Path(__file__).resolve().parent / "reference.json").read_text())

# The live model: the repo's TinyMistral stand-in (12 blocks x 6 experts,
# top-2) over the synthetic Tiny-Shakespeare corpus.  Its init and router
# pre-training are fixed so the canonical references hold for every seed;
# the workload seed only drives the data order and the requests.  The
# pre-training length is pretrain_router's default, the one the repo's
# examples use to reach the paper's Fig. 3(b) routing regime.
MODEL_SEED = 0
PRETRAIN_STEPS = 40
BATCH_SIZE, SEQ_LEN = 8, 48
TOKENS_PER_STEP = BATCH_SIZE * SEQ_LEN
WARMUP_STEPS = 2

# serve: bursts of 16 requests, all arriving at t=0, into 8 KV slots.
SLOTS = 8
BURST = 16
PROMPT_LEN = (8, 48)
DECODE_TOKENS = (16, 64)
CANONICAL_SEED = 20250  # the seed-independent warm-up burst

# place: the paper's four (model, dataset) cells at the paper seed for the
# canonical pass; measured passes draw fresh routers from the run seed.
CELLS = [("mixtral", "wikitext"), ("mixtral", "alpaca"),
         ("gritlm", "wikitext"), ("gritlm", "alpaca")]
PAPER_SEED = 1
TRACE_STEPS = 4

# Tail percentiles, chosen so the runs keep at least ten samples beyond
# them and (finetune) stay clear of the few steps that carry a gen-2 GC
# pause, where a high percentile would flip between paused and unpaused.
STEP_TAIL_PCT = 75
REQUEST_TAIL_PCT = 90
PLAN_TAIL_PCT = 75


class CheckError(Exception):
    """An output differs from its reference or from its own invariant."""


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (numpy's default)."""
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median_rate(tokens, walls) -> float:
    """Median over ops of tokens per wall second.

    A median, not total tokens over total time, so that one op stalled by
    the host does not move the run's figure.
    """
    return percentile([n / w for n, w in zip(tokens, walls)], 50)


def stratified(rng, lo: int, hi: int, n: int) -> np.ndarray:
    """``n`` integers uniform on ``[lo, hi]``, one per equal-width stratum,
    in random order."""
    strata = (np.arange(n) + rng.random(n)) * (hi - lo + 1) / n
    return rng.permutation(lo + np.floor(strata).astype(np.int64))


def tail(values, q: float) -> dict:
    """A tail percentile with the sample count behind it."""
    value = percentile(values, q)
    return {"pct": q, "value": value, "n": len(values),
            "beyond": int(np.sum(np.asarray(values) > value))}


def _pretrained_model():
    """Build the seeded base model and pre-train its router."""
    model, loader = tiny_finetune_workload(batch_size=BATCH_SIZE,
                                           seq_len=SEQ_LEN, seed=MODEL_SEED)
    pretrain_router(model, loader, steps=PRETRAIN_STEPS)
    return model, loader


def _live_model_points(tracer, moe_records: list) -> None:
    """Trace points shared by the two live-model workloads; each MoE
    forward's routing record is appended to ``moe_records``."""
    tracer.call(MoEBlock, "forward", "models.moe",
                extra=lambda args, result:
                moe_records.append(args[0].last_record))
    tracer.call(TopKGate, "forward", "models.gate")
    tracer.call(ExpertFFN, "forward_fused", "nn.expert_ffn")
    tracer.call(moe_block, "swiglu_infer", "nn.expert_ffn")
    tracer.call(MultiHeadAttention, "forward", "nn.attention")
    tracer.call(MultiHeadAttention, "forward_slots", "nn.attention")
    tracer.call(KVCache, "append_rows", "nn.kv_append")


def logit_digest(model, run):
    """Return ``run()`` and, for the prefill and the decode calls it makes
    to ``model.forward_slots``, the sum over rows of the L2 norm of the
    last position's logits.

    Greedy ids alone miss a numeric defect that leaves the argmax in
    place; the digest moves with any logit that changes.
    """
    sums = {"prefill": 0.0, "decode": 0.0}

    def recording(token_ids, caches, slots):
        logits = MoETransformer.forward_slots(model, token_ids, caches, slots)
        kind = "decode" if np.shape(token_ids)[1] == 1 else "prefill"
        sums[kind] += float(np.linalg.norm(logits.data[:, -1, :],
                                           axis=-1).sum())
        return logits

    model.forward_slots = recording
    try:
        return run(), sums
    finally:
        del model.forward_slots


def _expert_load_max_mean(records, num_experts: int) -> float:
    """Max over mean tokens per expert, averaged over MoE forwards."""
    skews = []
    for record in records:
        counts = np.bincount(record.expert_indices.reshape(-1),
                             minlength=num_experts)
        skews.append(counts.max() / counts.mean())
    return float(np.mean(skews))


class Workload:
    """One benchmark workload; ``run.py`` drives the methods in order."""

    name = ""
    # Ops per tracing on/off block in a traced run: a block must hold the
    # same mix of inputs on both sides for the overhead to be fair.
    trace_block = 1
    # Whether the host-speed probe adds its stream pass (see probe.py).
    probe_stream = False

    def __init__(self, seed: int):
        self.seed = seed

    def build(self) -> None:
        """Set up, warm up and check the canonical input."""
        raise NotImplementedError

    def op(self, k: int) -> bool:
        """Run op ``k``; False when the op failed."""
        raise NotImplementedError

    def verify(self) -> None:
        """Checks that need the measured ops; raise :class:`CheckError`."""

    def trace_points(self, tracer) -> None:
        """Register this workload's spans on ``tracer``."""
        raise NotImplementedError

    def end_to_end(self, walls: List[float],
                   scales: List[float]) -> Dict[str, float]:
        """End-to-end metrics from the successful ops' wall times (s), each
        op's times multiplied by its host-speed scale."""
        raise NotImplementedError

    def report(self, walls: List[float]) -> Dict[str, object]:
        """The workload's own end-to-end figures, under their own names."""
        raise NotImplementedError

    def counts(self, tracer, traced: List[int]) -> Dict[str, float]:
        """Per-layer counts and ratios for the traced run."""
        raise NotImplementedError


class FineTune(Workload):
    """LoRA fine-tuning with the paper's recipe; one op = one step."""

    name = "finetune"

    def build(self) -> None:
        model, loader = _pretrained_model()
        self.trainer = Trainer(model, loader, FineTuneConfig())
        losses = [float(self.trainer.train(steps=1).losses[0])
                  for _ in range(WARMUP_STEPS)]
        ref = REFERENCE["finetune"]
        if not np.allclose(losses, ref["warmup_losses"], rtol=ref["rtol"],
                           atol=0.0):
            raise CheckError(f"finetune warm-up losses {losses} differ from "
                             f"the reference {ref['warmup_losses']}")
        self.trainer.loader = LMDataLoader(loader.tokens,
                                           batch_size=BATCH_SIZE,
                                           seq_len=SEQ_LEN, seed=self.seed)
        self.losses: List[float] = []

    def op(self, k: int) -> bool:
        loss = float(self.trainer.train(steps=1).losses[0])
        self.losses.append(loss)
        return bool(np.isfinite(loss))

    def trace_points(self, tracer) -> None:
        self.moe_records: list = []
        _live_model_points(tracer, self.moe_records)
        tracer.call(MoETransformer, "loss", "models.embed_head")
        tracer.call(Tensor, "backward", "nn.backward")
        tracer.call(AdamW, "step", "nn.optimizer")
        tracer.call(LoRALinear, "forward", "lora.adapter")
        tracer.iterator(LMDataLoader, "batches", "data.batch")
        tracer.call(Trainer, "train", "finetune.loop")

    def end_to_end(self, walls, scales):
        walls = [w * s for w, s in zip(walls, scales)]
        step_ms = [w * 1e3 for w in walls]
        return {
            "tokens_per_s": median_rate([TOKENS_PER_STEP] * len(walls),
                                        walls),
            "op_p50_ms": percentile(step_ms, 50),
            "latency_p50_ms": percentile(step_ms, 50),
        }

    def report(self, walls):
        step_ms = [w * 1e3 for w in walls]
        return {
            "step_p50_ms": percentile(step_ms, 50),
            "step_tail_ms": tail(step_ms, STEP_TAIL_PCT),
            "loss_first": self.losses[0], "loss_last": self.losses[-1],
        }

    def counts(self, tracer, traced):
        return {"models.expert_load_max_mean": _expert_load_max_mean(
            self.moe_records, self.trainer.model.config.num_experts)}


class Serve(Workload):
    """Bursts of 16 requests into an 8-slot engine with every sidecar."""

    name = "serve"
    # Across serve processes in slow and fast host phases, bursts slowed
    # by more than the compute probe and by less than a stream pass alone;
    # scaled by their sum, the per-run medians spread 3% instead of 16%.
    # On finetune and place the compute probe alone tracked best.
    probe_stream = True

    def build(self) -> None:
        model, loader = _pretrained_model()
        self.model = model
        self.corpus = loader.tokens
        config = model.config
        topology = paper_cluster()
        capacities = [config.total_experts // topology.num_workers] \
            * topology.num_workers
        uniform = np.full((config.num_layers, config.num_experts),
                          1.0 / config.num_experts)
        placement = vela.LocalityAwarePlacement().place(PlacementProblem(
            config, topology, probability_matrix=uniform,
            capacities=capacities))
        self.telemetry = Telemetry()
        self.engine = ContinuousBatchingEngine(
            model, max_slots=SLOTS, telemetry=self.telemetry,
            monitor=RoutingHealthMonitor(telemetry=self.telemetry,
                                         placement=placement),
            tracing=RequestTracer(telemetry=self.telemetry,
                                  slo=SLOConfig(ttft_s=2.0,
                                                token_latency_s=0.05)),
            flight=FlightRecorder(capacity=64),
            # Priced at Mixtral scale, as a tiny model's compute window
            # hides no fetch at all.
            prefetch=PrefetchConfig(model_config=mixtral_8x7b_sim(),
                                    topology=topology, local_worker=0,
                                    replication_budget=4,
                                    replication_interval=32,
                                    window_size=64))
        self.trace_to_request: Dict[str, int] = {}
        self.canonical = self.burst(np.random.default_rng(CANONICAL_SEED))
        steps_before = self.engine.prefetcher.stats.steps
        self.check_canonical(self.engine, "")
        self.canonical_steps = self.engine.prefetcher.stats.steps \
            - steps_before
        ref = REFERENCE["serve"]
        if self.canonical_steps != ref["engine_steps"]:
            raise CheckError(f"serve: canonical burst took "
                             f"{self.canonical_steps} engine steps, the "
                             f"reference {ref['engine_steps']}")
        self.first_burst: Optional[list] = None
        self.first_ids: Optional[list] = None
        self.per_op: Dict[int, dict] = {}
        self.step_ids: List[int] = []

    def burst(self, rng) -> List[Request]:
        """16 requests at t=0, prompts cut from the corpus.

        Prompt lengths and decode budgets are stratified uniform draws, so
        every burst spans both ranges evenly and bursts differ in values,
        order and text rather than in total work.
        """
        lengths = stratified(rng, *PROMPT_LEN, BURST)
        budgets = stratified(rng, *DECODE_TOKENS, BURST)
        requests = []
        for i, (length, budget) in enumerate(zip(lengths, budgets)):
            start = int(rng.integers(0, len(self.corpus) - length + 1))
            request = Request(i, 0.0, int(budget),
                              prompt_ids=self.corpus[start:start + length])
            self.trace_to_request[request.trace_id] = i
            requests.append(request)
        return requests

    @staticmethod
    def serve_ids(engine, requests) -> List[List[int]]:
        outcomes = engine.serve(requests).outcomes
        return [o.token_ids.tolist() for o in outcomes]

    def check_canonical(self, engine, where: str) -> None:
        """The canonical burst's greedy ids and logit digest must equal the
        reference."""
        ids, digest = logit_digest(
            self.model, lambda: self.serve_ids(engine, self.canonical))
        ref = REFERENCE["serve"]
        if ids != ref["canonical_ids"]:
            raise CheckError(f"serve: canonical burst ids differ from the "
                             f"reference{where}")
        for kind, value in digest.items():
            expected = ref["logit_digest"][kind]
            if not np.isclose(value, expected, rtol=ref["rtol"], atol=0.0):
                raise CheckError(f"serve: canonical {kind} logit digest "
                                 f"{value!r} differs from the reference "
                                 f"{expected!r}{where}")

    def op(self, k: int) -> bool:
        requests = self.burst(np.random.default_rng([self.seed, k]))
        stats = self.engine.prefetcher.stats
        replicas = self.telemetry.gauge("serve.prefetch_replicas")
        before = (stats.predicted, stats.correct, stats.hidden_bytes,
                  stats.unhidden_bytes, replicas.updates)
        outcomes = self.engine.serve(requests).outcomes
        budgets = {r.request_id: r.decode_tokens for r in requests}
        if sorted(o.request_id for o in outcomes) != sorted(budgets) or any(
                o.decode_tokens != budgets[o.request_id]
                or len(o.token_ids) != budgets[o.request_id]
                for o in outcomes):
            return False
        if k == 0:
            self.first_burst = requests
            self.first_ids = [o.token_ids.tolist() for o in outcomes]
        self.per_op[k] = {
            "ttft_ms": [(o.first_token_time - o.arrival_time) * 1e3
                        for o in outcomes],
            "tpot_ms": [(o.finish_time - o.first_token_time)
                        / (o.decode_tokens - 1) * 1e3 for o in outcomes],
            "queue_ms": [(o.start_time - o.arrival_time) * 1e3
                         for o in outcomes],
            "tokens": sum(o.decode_tokens for o in outcomes),
            "predicted": stats.predicted - before[0],
            "correct": stats.correct - before[1],
            "hidden": stats.hidden_bytes - before[2],
            "fetched": stats.hidden_bytes + stats.unhidden_bytes
            - before[2] - before[3],
            "swaps": replicas.updates - before[4],
        }
        return True

    def pooled(self, key: str, ops=None) -> list:
        """One per-request series pooled over ``ops`` (default: all)."""
        ops = sorted(self.per_op) if ops is None else ops
        return [value for k in ops for value in self.per_op[k][key]]

    def verify(self) -> None:
        """With every sidecar detached, the canonical burst must still match
        the reference and burst 0 must give the same ids."""
        bare = ContinuousBatchingEngine(self.model, max_slots=SLOTS)
        self.check_canonical(bare, " with the sidecars detached")
        if self.first_burst is not None and \
                self.serve_ids(bare, self.first_burst) != self.first_ids:
            raise CheckError("serve: burst 0 ids change with the sidecars "
                             "detached")

    def trace_points(self, tracer) -> None:
        self.moe_records: list = []
        _live_model_points(tracer, self.moe_records)
        tracer.call(MoETransformer, "forward_slots", "models.embed_head",
                    extra=self._on_forward_slots)
        tracer.call(ContinuousBatchingEngine, "serve", "serving.loop")
        tracer.call(DecodePrefetcher, "observe_records", "serving.prefetch")
        tracer.call(RoutingHealthMonitor, "observe_records",
                    "telemetry.monitor")
        for method in ("admit", "prefill", "decode_step", "stall", "finish",
                       "attribute_fetch"):
            tracer.call(RequestTracer, method, "telemetry.tracing")
        tracer.call(RequestTracer, "set_step", "telemetry.tracing",
                    extra=self._on_set_step)
        tracer.call(FlightRecorder, "observe", "telemetry.flight")
        tracer.call(ReplicationStrategy, "solve_from_window",
                    "placement.replicate")

    def _on_set_step(self, args, result) -> None:
        self.step_ids = [self.trace_to_request.get(trace_id, -1)
                         for trace_id, _ in args[1]]

    def _on_forward_slots(self, args, result):
        rows, seq = np.shape(args[1])
        if seq == 1:
            return {"rows": rows, "seq": 1}
        return {"rows": rows, "seq": seq, "requests": self.step_ids}

    def end_to_end(self, walls, scales):
        ops = sorted(self.per_op)
        tokens = [self.per_op[k]["tokens"] for k in ops]
        tpot_ms = [t * s for k, s in zip(ops, scales)
                   for t in self.per_op[k]["tpot_ms"]]
        walls = [w * s for w, s in zip(walls, scales)]
        return {
            "tokens_per_s": median_rate(tokens, walls),
            "op_p50_ms": percentile([w * 1e3 for w in walls], 50),
            "latency_p50_ms": percentile(tpot_ms, 50),
        }

    def report(self, walls):
        ttft, tpot = self.pooled("ttft_ms"), self.pooled("tpot_ms")
        return {
            "burst_p50_ms": percentile([w * 1e3 for w in walls], 50),
            "ttft_p50_ms": percentile(ttft, 50),
            "ttft_tail_ms": tail(ttft, REQUEST_TAIL_PCT),
            "tpot_p50_ms": percentile(tpot, 50),
            "tpot_tail_ms": tail(tpot, REQUEST_TAIL_PCT),
            "engine_steps_canonical": self.canonical_steps,
        }

    def counts(self, tracer, traced):
        ops = list(self.per_op.values())
        predicted = sum(o["predicted"] for o in ops)
        fetched = sum(o["fetched"] for o in ops)
        decode_rows = [span[5]["rows"] for span in tracer.spans
                       if span[0] == "models.embed_head"
                       and span[5]["seq"] == 1]
        # The virtual clock advances by forward_slots time, which tracing
        # inflates, so clock-based figures come from the untraced ops.
        untraced = [k for k in sorted(self.per_op) if k not in traced]
        ttft = self.pooled("ttft_ms", untraced)
        return {
            "serving.engine_steps": float(self.canonical_steps),
            "serving.decode_batch_mean": float(np.mean(decode_rows)),
            "serving.queue_wait_p50_ms": percentile(
                self.pooled("queue_ms", untraced), 50),
            "serving.prefetch_accuracy":
                sum(o["correct"] for o in ops) / predicted
                if predicted else 0.0,
            "serving.prefetch_hidden_fraction":
                sum(o["hidden"] for o in ops) / fetched if fetched else 0.0,
            "serving.replication_swaps": float(sum(o["swaps"] for o in ops)),
            "serving.ttft_p50_ms": percentile(ttft, 50),
            "serving.ttft_tail_ms": percentile(ttft, REQUEST_TAIL_PCT),
            "models.expert_load_max_mean": _expert_load_max_mean(
                self.moe_records, self.model.config.num_experts),
        }


class Place(Workload):
    """VELA planning and replay over the paper's four cells."""

    name = "place"
    trace_block = len(CELLS)

    def build(self) -> None:
        cells = [self.cell(model, dataset, PAPER_SEED)
                 for model, dataset in CELLS]
        self.canonical = {
            "modeled_step_ms": float(np.mean([c["modeled_step_ms"]
                                              for c in cells])),
            "cross_node_gb_per_step": float(np.mean(
                [c["cross_node_gb_per_step"] for c in cells])),
        }
        ref = REFERENCE["place"]
        for key, value in self.canonical.items():
            if not np.isclose(value, ref[key], rtol=ref["rtol"], atol=0.0):
                raise CheckError(f"place: {key} = {value!r}, the reference "
                                 f"{ref[key]!r}")
        self.cells: List[dict] = []

    @staticmethod
    def cell(model: str, dataset: str, seed: int) -> dict:
        """Profile, trace, plan and replay one cell."""
        workload = paper_workload(model, dataset, seed=seed)
        trace = workload.trace(TRACE_STEPS)
        config = workload.config
        problem = PlacementProblem(
            config=config.model, topology=config.topology,
            probability_matrix=workload.probability_matrix,
            tokens_per_step=config.tokens_per_step,
            capacities=config.worker_capacities())
        strategy = RefinedLocalityPlacement()
        start = time.perf_counter()
        # RefinedLocalityPlacement.solve, split to keep the LP diagnostics.
        solution = strategy.base.solve(problem)
        refined = strategy.refiner.refine(solution.placement, problem)
        plan_s = time.perf_counter() - start
        placement = refined.placement
        loads = placement.worker_loads(problem.num_workers)
        if placement.assignment.shape != (config.model.num_layers,
                                          config.model.num_experts) \
                or placement.assignment.max() >= problem.num_workers \
                or np.any(loads > problem.effective_capacities()):
            raise ValueError(f"{workload.name}: invalid placement")
        args = (config.model, config.topology)
        kwargs = dict(tokens_per_step=config.tokens_per_step,
                      seq_len=config.seq_len, lora_rank=config.lora_rank)
        vela_run = MasterWorkerEngine(*args, placement,
                                      strategy_name="vela",
                                      **kwargs).run_trace(trace)
        ep_run = ExpertParallelEngine(
            *args, ExpertParallelPlacement().place(problem),
            **kwargs).run_trace(trace)
        return {
            "plan_s": plan_s,
            "tokens": TRACE_STEPS * config.tokens_per_step,
            "modeled_step_ms": vela_run.avg_step_time() * 1e3,
            "cross_node_gb_per_step":
                vela_run.total_cross_node_bytes() / TRACE_STEPS / 1e9,
            "cross_node_gb_ep":
                ep_run.total_cross_node_bytes() / TRACE_STEPS / 1e9,
            "integrality_gap": solution.integrality_gap,
            "local_search_actions": len(refined.actions),
            "local_search_improvement": refined.improvement,
        }

    def op(self, k: int) -> bool:
        model, dataset = CELLS[k % len(CELLS)]
        try:
            cell = self.cell(model, dataset,
                             1000 * self.seed + k // len(CELLS))
        except (RuntimeError, ValueError):
            return False
        self.cells.append(cell)
        return True

    def trace_points(self, tracer) -> None:
        tracer.call(SyntheticRouter, "probability_matrix", "routing.profile")
        tracer.call(SyntheticRouter, "generate_trace", "routing.trace")
        tracer.call(vela, "build_placement_lp", "placement.lp_build")
        tracer.call(vela, "solve_lp_scipy", "placement.lp_solve")
        tracer.call(vela, "round_relaxed_assignment", "placement.round")
        tracer.call(LocalSearchRefiner, "refine", "placement.local_search")
        tracer.call(MasterWorkerEngine, "run_trace", "runtime.replay")
        tracer.call(ExpertParallelEngine, "run_trace", "runtime.replay")

    def end_to_end(self, walls, scales):
        plan_ms = [c["plan_s"] * s * 1e3 for c, s in zip(self.cells, scales)]
        walls = [w * s for w, s in zip(walls, scales)]
        return {
            "tokens_per_s": median_rate([c["tokens"] for c in self.cells],
                                        walls),
            "op_p50_ms": percentile([w * 1e3 for w in walls], 50),
            "latency_p50_ms": percentile(plan_ms, 50),
        }

    def report(self, walls):
        plan_ms = [c["plan_s"] * 1e3 for c in self.cells]
        return {
            "cell_p50_ms": percentile([w * 1e3 for w in walls], 50),
            "plan_p50_ms": percentile(plan_ms, 50),
            "plan_tail_ms": tail(plan_ms, PLAN_TAIL_PCT),
            **self.canonical,
        }

    def counts(self, tracer, traced):
        def mean(key):
            return float(np.mean([c[key] for c in self.cells]))
        return {
            "placement.integrality_gap": mean("integrality_gap"),
            "placement.local_search_actions": mean("local_search_actions"),
            "placement.local_search_improvement":
                mean("local_search_improvement"),
            "runtime.cross_node_gb_ep": mean("cross_node_gb_ep"),
            "runtime.modeled_step_ms": self.canonical["modeled_step_ms"],
            "runtime.cross_node_gb_per_step":
                self.canonical["cross_node_gb_per_step"],
        }


WORKLOADS = {cls.name: cls for cls in (FineTune, Serve, Place)}
