"""Shared-memory expert weight store for the process-pool executor.

One read-only buffer per expert group (= one MoE layer) holds the frozen
projection matrices of every expert in that layer, in one of two formats:

``native``
    The raw ``float64`` matrices, laid out back to back.  Workers map the
    buffer and run GEMMs directly against the views — zero copies, and a
    master-side :meth:`SharedWeightStore.refresh` (an in-place ``memcpy``)
    is instantly visible to every attached worker.

``int8``
    The :mod:`repro.nn.quant` format — per-output-channel int8 codes plus
    float scales — at roughly 1/8 the native bytes.  Workers dequantize an
    expert on first use and cache the dense matrices keyed by the segment's
    version counter, so a refresh invalidates exactly once.

Each segment starts with an 8-byte ``uint64`` version header the master
bumps on every refresh.  With ``use_shm=True`` segments live in
``multiprocessing.shared_memory`` blocks; workers attach by name through
:class:`WorkerWeightView` and never unregister them (under the ``fork``
start method the resource tracker is shared and deduplicates
registrations), while the master alone closes *and unlinks* at
:meth:`SharedWeightStore.close`.  With ``use_shm=False`` the segments are
plain in-process ``bytearray`` buffers — the serial executor runs the exact
same attach/view/dequant code against them, which is what keeps the
fallback bit-compatible.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..nn.layers import Linear
from ..nn.quant import quantize_tensor

WEIGHT_FORMATS = ("native", "int8")
HEADER_NBYTES = 8
_PROJECTIONS = ("w_gate", "w_up", "w_down")


def _align8(offset: int) -> int:
    return (offset + 7) & ~7


@dataclass(frozen=True)
class LayerSpec:
    """Picklable description of one layer's weight segment."""

    layer: int
    num_experts: int
    hidden: int
    ffn: int
    fmt: str
    shm_name: Optional[str]
    nbytes: int


@dataclass(frozen=True)
class StoreHandle:
    """What a worker needs to attach: specs plus inline buffers (if any).

    ``buffers`` is ``None`` for shared-memory stores (workers attach by
    ``shm_name``) and holds the actual segment buffers for inline stores.
    """

    specs: Tuple[LayerSpec, ...]
    buffers: Optional[Dict[int, bytearray]]


def _expert_arrays(spec: LayerSpec):
    """``(key, shape, dtype)`` of every array in one expert's slice."""
    h, f = spec.hidden, spec.ffn
    shapes = {"w_gate": (f, h), "w_up": (f, h), "w_down": (h, f)}
    out = []
    for proj in _PROJECTIONS:
        if spec.fmt == "native":
            out.append((proj, shapes[proj], np.float64))
        else:
            out.append((f"{proj}.codes", shapes[proj], np.int8))
            out.append((f"{proj}.scales", (shapes[proj][0],), np.float64))
    return out


def _segment_nbytes(spec: LayerSpec) -> int:
    offset = HEADER_NBYTES
    for _ in range(spec.num_experts):
        for _, shape, dtype in _expert_arrays(spec):
            offset = _align8(offset) + int(np.prod(shape)) * \
                np.dtype(dtype).itemsize
    return _align8(offset)


def _segment_views(buf, spec: LayerSpec,
                   writeable: bool = True
                   ) -> Tuple[np.ndarray, List[Dict[str, np.ndarray]]]:
    """Build the (version header, per-expert array dict) views over ``buf``."""
    version = np.frombuffer(buf, dtype=np.uint64, count=1)
    offset = HEADER_NBYTES
    experts: List[Dict[str, np.ndarray]] = []
    for _ in range(spec.num_experts):
        views: Dict[str, np.ndarray] = {}
        for key, shape, dtype in _expert_arrays(spec):
            offset = _align8(offset)
            count = int(np.prod(shape))
            arr = np.frombuffer(buf, dtype=dtype, count=count,
                                offset=offset).reshape(shape)
            if not writeable:
                arr.flags.writeable = False
            views[key] = arr
            offset += count * np.dtype(dtype).itemsize
        experts.append(views)
    if not writeable:
        version.flags.writeable = False
    return version, experts


def base_weight(proj) -> np.ndarray:
    """The frozen dense weight of a (possibly LoRA-wrapped) projection."""
    return getattr(proj, "base", proj).weight.data


def expert_supported(expert) -> Optional[str]:
    """``None`` if the executor can host ``expert``, else the reason not.

    Supported experts carry three bias-free projections, each either a plain
    :class:`~repro.nn.layers.Linear` or a LoRA wrapper around one with
    dropout disabled: the worker kernel runs the low-rank branch from the
    shipped adapter factors, but a dropout mask would need the master's
    RNG stream.
    """
    for name in _PROJECTIONS:
        proj = getattr(expert, name, None)
        if proj is None:
            return f"expert has no projection {name!r}"
        if hasattr(proj, "lora_a"):
            base = getattr(proj, "base", None)
            if type(base) is not Linear or base.bias is not None:
                return f"{name}: LoRA base is not a bias-free Linear"
            if getattr(proj.config, "dropout", 0.0) > 0:
                return f"{name}: LoRA dropout is not supported in workers"
        elif type(proj) is not Linear or proj.bias is not None:
            return f"{name}: not a bias-free Linear"
    return None


def expert_groups(model) -> Dict[int, List]:
    """Group a model's experts by layer: ``{layer: [expert, ...]}``.

    Accepts anything with ``iter_experts()`` (a full
    :class:`~repro.models.transformer.MoETransformer`) or a bare MoE block
    exposing ``.experts`` (and optionally ``.layer_index``).
    """
    if hasattr(model, "iter_experts"):
        pairs: Dict[int, List] = {}
        for layer, expert_id, expert in model.iter_experts():
            pairs.setdefault(layer, []).append((expert_id, expert))
        return {layer: [e for _, e in sorted(group, key=lambda p: p[0])]
                for layer, group in pairs.items()}
    if hasattr(model, "experts"):
        return {int(getattr(model, "layer_index", 0)): list(model.experts)}
    raise TypeError(f"cannot enumerate experts of {type(model).__name__}")


class SharedWeightStore:
    """Master-side owner of the per-layer weight segments.

    Builds one segment per MoE layer from the model's current expert
    weights, exposes a picklable :meth:`handle` for workers, and rewrites
    segments in place on :meth:`refresh` (bumping each version header).
    The master is the only party that ever unlinks the shared-memory
    blocks; call :meth:`close` exactly once when done.
    """

    def __init__(self, model, fmt: str = "native", use_shm: bool = True):
        if fmt not in WEIGHT_FORMATS:
            raise ValueError(f"weight format must be one of {WEIGHT_FORMATS},"
                             f" got {fmt!r}")
        self.fmt = fmt
        self.use_shm = use_shm
        self._groups = expert_groups(model)
        if not self._groups:
            raise ValueError("model has no experts to place in the store")
        for layer, experts in sorted(self._groups.items()):
            for expert_id, expert in enumerate(experts):
                reason = expert_supported(expert)
                if reason is not None:
                    raise ValueError(f"layer {layer} expert {expert_id} "
                                     f"unsupported: {reason}")
        self._shms: Dict[int, shared_memory.SharedMemory] = {}
        self._buffers: Dict[int, bytearray] = {}
        self._segments: Dict[int, Tuple[np.ndarray,
                                        List[Dict[str, np.ndarray]]]] = {}
        self._specs: List[LayerSpec] = []
        self._closed = False
        for layer, experts in sorted(self._groups.items()):
            wd = base_weight(experts[0].w_down)
            hidden, ffn = wd.shape
            spec = LayerSpec(layer=layer, num_experts=len(experts),
                             hidden=hidden, ffn=ffn, fmt=fmt,
                             shm_name=None, nbytes=0)
            nbytes = _segment_nbytes(spec)
            if use_shm:
                shm = shared_memory.SharedMemory(create=True, size=nbytes)
                self._shms[layer] = shm
                buf = shm.buf
                spec = LayerSpec(layer=layer, num_experts=len(experts),
                                 hidden=hidden, ffn=ffn, fmt=fmt,
                                 shm_name=shm.name, nbytes=nbytes)
            else:
                buf = bytearray(nbytes)
                self._buffers[layer] = buf
                spec = LayerSpec(layer=layer, num_experts=len(experts),
                                 hidden=hidden, ffn=ffn, fmt=fmt,
                                 shm_name=None, nbytes=nbytes)
            self._specs.append(spec)
            self._segments[layer] = _segment_views(buf, spec)
            self._write_layer(layer)
            self._segments[layer][0][0] = 1

    # -- building / refreshing ------------------------------------------ #
    def _write_layer(self, layer: int) -> None:
        _, views = self._segments[layer]
        for expert, dst in zip(self._groups[layer], views):
            for proj in _PROJECTIONS:
                weight = base_weight(getattr(expert, proj))
                if self.fmt == "native":
                    np.copyto(dst[proj], weight)
                else:
                    qt = quantize_tensor(weight)
                    np.copyto(dst[f"{proj}.codes"], qt.codes)
                    np.copyto(dst[f"{proj}.scales"], qt.scales)

    def refresh(self) -> None:
        """Rewrite every segment from the live expert weights, in place.

        Attached workers see native-format updates immediately (same
        mapping) and int8 updates on their next dequantization (the bumped
        version invalidates their cache).
        """
        self._assert_open()
        for layer in self._segments:
            self._write_layer(layer)
            version, _ = self._segments[layer]
            version[0] += 1

    # -- sharing -------------------------------------------------------- #
    def handle(self) -> StoreHandle:
        """Picklable attachment handle for :class:`WorkerWeightView`."""
        self._assert_open()
        return StoreHandle(specs=tuple(self._specs),
                           buffers=self._buffers if not self.use_shm
                           else None)

    @property
    def layers(self) -> Tuple[int, ...]:
        """Layers with a segment in the store."""
        return tuple(sorted(self._segments))

    @property
    def nbytes(self) -> int:
        """Total bytes across all segments."""
        return sum(spec.nbytes for spec in self._specs)

    def version(self, layer: int) -> int:
        """Current version counter of one layer's segment."""
        self._assert_open()
        return int(self._segments[layer][0][0])

    # -- teardown ------------------------------------------------------- #
    def _assert_open(self) -> None:
        if self._closed:
            raise RuntimeError("SharedWeightStore is closed")

    def close(self) -> None:
        """Drop all views and close + unlink the shared-memory blocks.

        Idempotent; the master owns the segments, so this is the single
        point where they are returned to the OS.
        """
        if self._closed:
            return
        self._closed = True
        # numpy views keep the mmap's buffer exported; drop them before
        # closing or SharedMemory.close() raises BufferError.
        self._segments = {}
        for shm in self._shms.values():
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:
                pass
        self._shms = {}
        self._buffers = {}


class WorkerWeightView:
    """Read-only view of a :class:`StoreHandle`, master- or worker-side.

    ``dense_weights(layer, expert_id)`` returns the ``(w_gate, w_up,
    w_down)`` dense matrices: direct buffer views in native format, a
    version-cached dequantization in int8.  Shared-memory segments are
    attached by name and deliberately **not** unregistered from the
    resource tracker (see the module docstring); only the creating master
    unlinks.
    """

    def __init__(self, handle: StoreHandle):
        self._shms: List[shared_memory.SharedMemory] = []
        self._segments: Dict[int, Tuple[np.ndarray,
                                        List[Dict[str, np.ndarray]],
                                        LayerSpec]] = {}
        self._dequant: Dict[Tuple[int, int],
                            Tuple[int, Tuple[np.ndarray, ...]]] = {}
        for spec in handle.specs:
            if spec.shm_name is not None:
                shm = shared_memory.SharedMemory(name=spec.shm_name)
                self._shms.append(shm)
                buf = shm.buf
            else:
                buf = handle.buffers[spec.layer]
            version, views = _segment_views(buf, spec, writeable=False)
            self._segments[spec.layer] = (version, views, spec)

    @property
    def layers(self) -> Tuple[int, ...]:
        """Layers this view can serve."""
        return tuple(sorted(self._segments))

    def dense_weights(self, layer: int,
                      expert_id: int) -> Tuple[np.ndarray, ...]:
        """``(w_gate, w_up, w_down)`` dense matrices for one expert."""
        version, views, spec = self._segments[layer]
        expert = views[expert_id]
        if spec.fmt == "native":
            return tuple(expert[proj] for proj in _PROJECTIONS)
        current = int(version[0])
        key = (layer, expert_id)
        cached = self._dequant.get(key)
        if cached is not None and cached[0] == current:
            return cached[1]
        dense = tuple(expert[f"{proj}.codes"].astype(np.float64)
                      * expert[f"{proj}.scales"][:, None]
                      for proj in _PROJECTIONS)
        self._dequant[key] = (current, dense)
        return dense

    def close(self) -> None:
        """Drop views and close (never unlink) the attached segments."""
        self._segments = {}
        self._dequant = {}
        for shm in self._shms:
            shm.close()
        self._shms = []
