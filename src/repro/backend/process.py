"""The shared-memory multiprocess execution backend.

Each rank of the simulated world becomes a real OS process (explicit
``spawn`` context — fork would duplicate NumPy/BLAS state and any live
thread pools). The division of labor keeps every numerical guarantee of
the inline engines intact:

- **Workers own rank compute.** Each worker holds a full model replica
  whose parameters are zero-copy views into one shared flat-parameter
  block, runs ``step_fn`` for its rank's microbatch, and writes its
  outbound (loss-scaled/quantized) gradient contribution into its
  ``(round, rank)`` row of a shared gradient staging block.
- **The parent owns everything else.** Reduction consumes the staged
  rows *through the engine's unchanged deterministic schedule* (the
  same ``np.stack`` direct reduction / ring decomposition over the same
  contribution order — see DESIGN §12 for the determinism argument), so
  an fp32 process-backend step is bit-identical to the inline backend.
  Optimizer, collectives accounting, retry/fault machinery, loss
  scaling, and checkpointing all run unchanged in the parent; optimizer
  writes land in the shared parameter block, so workers see the new
  weights with no broadcast copy.

Synchronization is event-style over per-worker pipes: one round command
fans out, one completion event per rank fans in; the shared blocks are
written and read in strictly alternating phases, so no locks are needed.
Microbatch payloads travel through a separate data segment (ndarray
leaves land in shared memory; the structural skeleton rides the pipe).

Telemetry fans in per round: workers record spans/counters on a local
bus, serialize them into a per-worker shared event buffer, and the
parent replays them onto the rank-0 bus (:meth:`TelemetryBus.merge`)
tagged with the originating rank.

Failure semantics: a ``step_fn`` exception inside a worker surfaces as
:class:`WorkerStepError` (traceback attached) after the worker has
released its activation caches and stays serviceable; a dead worker
(crash, kill, timeout) raises :class:`WorkerCrashError` and poisons the
backend — ``engine.close()`` (or the ``atexit`` sweep) reclaims every
process and ``/dev/shm`` segment either way.
"""

from __future__ import annotations

import json
import multiprocessing
import pickle
import time
import traceback
from typing import Any, Sequence

import numpy as np

from repro.backend.inline import ExecutionBackend
from repro.backend.shm import ALIGN, ShmArena, plan_blocks
from repro.telemetry.bus import RecordingSink, TelemetryBus, TelemetryEvent

__all__ = ["ProcessBackend", "WorkerCrashError", "WorkerStepError"]

#: Bytes reserved per worker for one round's serialized telemetry events.
EVENT_BUFFER_BYTES = 128 * 1024

#: Seconds the parent waits on a worker before declaring it dead.
WORKER_TIMEOUT_S = 300.0


class WorkerCrashError(RuntimeError):
    """A worker process died (or stopped responding) mid-step."""

    def __init__(self, rank: int, detail: str):
        self.rank = rank
        super().__init__(f"worker rank {rank} crashed: {detail}")


class WorkerStepError(RuntimeError):
    """``step_fn`` raised inside a worker; the worker itself survived."""

    def __init__(self, rank: int, worker_traceback: str):
        self.rank = rank
        self.worker_traceback = worker_traceback
        super().__init__(
            f"step_fn failed on worker rank {rank}:\n{worker_traceback}"
        )


def _align(n: int) -> int:
    return -(-n // ALIGN) * ALIGN


# -- microbatch staging ------------------------------------------------------
#
# ndarray leaves are copied into the shared data segment; the skeleton
# (nesting structure + non-array leaves) travels over the pipe. Decoding
# yields views — a worker's step_fn must treat its microbatch as
# read-only, exactly as inline step_fns share the caller's arrays.


def _measure_micro(obj: Any) -> int:
    if isinstance(obj, np.ndarray):
        return _align(obj.nbytes)
    if isinstance(obj, (tuple, list)):
        return sum(_measure_micro(o) for o in obj)
    return 0


def _encode_micro(obj: Any, arena: ShmArena, cursor: list[int]):
    if isinstance(obj, np.ndarray):
        offset = cursor[0]
        cursor[0] += _align(obj.nbytes)
        view = arena.view(offset, obj.shape, obj.dtype)
        np.copyto(view, obj)
        return ("nd", offset, obj.shape, obj.dtype.str)
    if isinstance(obj, (tuple, list)):
        kind = "tuple" if isinstance(obj, tuple) else "list"
        return (kind, [_encode_micro(o, arena, cursor) for o in obj])
    return ("py", obj)


def _decode_micro(skeleton, arena: ShmArena | None):
    tag = skeleton[0]
    if tag == "nd":
        _, offset, shape, dtype = skeleton
        if arena is None:
            raise RuntimeError("microbatch references a data segment not attached")
        return arena.view(offset, shape, np.dtype(dtype))
    if tag in ("tuple", "list"):
        items = [_decode_micro(s, arena) for s in skeleton[1]]
        return tuple(items) if tag == "tuple" else items
    return skeleton[1]


# -- telemetry fan-in --------------------------------------------------------


class EventBuffer:
    """Single-writer/single-reader event block inside an arena.

    Layout: ``[used: u64][dropped: u64][payload bytes...]``. The worker
    appends serialized events while it owns the round; the parent drains
    and resets between rounds. Phases strictly alternate (the round
    protocol is the barrier), so no further synchronization is needed.
    """

    HEADER = 16

    def __init__(self, arena: ShmArena, offset: int, capacity: int):
        self._head = arena.view(offset, (2,), np.uint64)
        self._data = arena.view(offset + self.HEADER, (capacity,), np.uint8)
        self.capacity = capacity

    def append(self, payload: bytes) -> bool:
        """Append one serialized event; count it dropped when full."""
        used = int(self._head[0])
        if used + len(payload) > self.capacity:
            self._head[1] += 1
            return False
        self._data[used : used + len(payload)] = np.frombuffer(payload, np.uint8)
        self._head[0] = used + len(payload)
        return True

    def drain(self) -> tuple[list[TelemetryEvent], int]:
        """Decode and reset the buffer; returns (events, dropped count)."""
        used = int(self._head[0])
        dropped = int(self._head[1])
        raw = self._data[:used].tobytes()
        self._head[:] = 0
        events = [
            TelemetryEvent.from_json(json.loads(line))
            for line in raw.decode("utf-8").splitlines()
            if line
        ]
        return events, dropped


def _flush_events(sink: RecordingSink, buffer: EventBuffer) -> None:
    for ev in sink.events:
        buffer.append((json.dumps(ev.to_json()) + "\n").encode("utf-8"))
    sink.events.clear()


# -- the worker --------------------------------------------------------------


def _worker_main(spec: dict, conn) -> None:
    """Entry point of one rank process (spawn target; module-level for pickle)."""
    from repro.models.workspace import Workspace
    from repro.precision.bf16 import bf16_round

    rank = spec["rank"]
    arena = ShmArena.attach(spec["arena"])
    model = pickle.loads(spec["model"])
    # A private workspace makes the worker's steady-state step
    # allocation-free, like the parent trainer's; numerics are unchanged.
    model.use_workspace(Workspace())
    dtype = np.dtype(spec["dtype"])
    layout = spec["param_layout"]
    if spec["mode"] == "fsdp":
        from repro.core.sharding import default_wrap_units

        units = default_wrap_units(model, spec["shard_size"])
        for u, (offset, numel) in zip(units, layout):
            u.flat = arena.view(offset, (numel,), dtype)
            u._install_views()

        def zero_grads() -> None:
            for u in units:
                u.zero_grad()

        def local_grads() -> list[np.ndarray]:
            return [u.grad_flat for u in units]

    else:
        params = model.parameters()
        for p, (offset, numel) in zip(params, layout):
            p.data = arena.view(offset, (numel,), dtype).reshape(p.data.shape)

        def zero_grads() -> None:
            model.zero_grad()

        def local_grads() -> list[np.ndarray]:
            return [p.grad for p in params]

    grads_offset, k, world, grad_numel = spec["grads"]
    grads = arena.view(grads_offset, (k, world, grad_numel), dtype)
    precision = spec["precision"]

    def write_grads(round_index: int, scale: float) -> None:
        row = grads[round_index, rank]
        offset = 0
        for g in local_grads():
            flat = g.reshape(-1)
            dst = row[offset : offset + flat.size]
            if precision == "bf16":
                # Mirror Engine._outbound_grad bit-for-bit.
                np.copyto(dst, bf16_round(flat * scale if scale != 1.0 else flat))
            else:
                np.copyto(dst, flat)
            offset += flat.size

    bus = TelemetryBus(RecordingSink())
    sink = bus.sink
    # A mesh engine's TP context unpickles with its comm/bus nulled
    # (SimComm state must stay per-process); rewire it against this
    # worker's own collective engine and telemetry bus so the
    # load-bearing tp all-gathers run (and are accounted) locally.
    tp = model.tensor_parallel
    if tp is not None:
        from repro.comm.collectives import SimComm

        tp.rewire(SimComm(), bus)
    events_offset, events_capacity = spec["events"]
    events = EventBuffer(arena, events_offset, events_capacity)
    data_arena: ShmArena | None = None
    conn.send(("ready", rank))
    while True:
        try:
            cmd = conn.recv()
        except (EOFError, OSError):
            break
        if cmd[0] == "stop":
            break
        _, seq, round_index, scale, telemetry_on, data_name, skeleton, step_blob = cmd
        t0 = time.process_time()
        try:
            if data_name is not None and (
                data_arena is None or data_arena.name != data_name
            ):
                if data_arena is not None:
                    data_arena.close()
                data_arena = ShmArena.attach(data_name)
            micro = _decode_micro(skeleton, data_arena)
            step_fn = pickle.loads(step_blob)
            zero_grads()
            if telemetry_on:
                with bus.span("worker.fwd_bwd", rank=rank, round=round_index):
                    loss = float(step_fn(model, micro))
            else:
                loss = float(step_fn(model, micro))
            write_grads(round_index, scale)
            cpu_s = time.process_time() - t0
            if telemetry_on:
                bus.gauge("worker.cpu_s", cpu_s, rank=rank, round=round_index)
                _flush_events(sink, events)
            else:
                # TP spans record unconditionally; don't let them pile up
                # across steps when the parent isn't draining events.
                sink.events.clear()
            conn.send(("ok", seq, loss, cpu_s))
        except Exception:
            # Same cleanup contract as the inline engines: never leave a
            # model's worth of activations pinned behind a failed micro.
            model.release_caches()
            sink.events.clear()
            conn.send(("err", seq, traceback.format_exc()))
    pool = getattr(model, "_gemm_pool", None)
    if pool is not None:
        pool.close()
    if data_arena is not None:
        data_arena.close()
    arena.close()
    conn.close()


# -- the parent-side backend -------------------------------------------------


class ProcessBackend(ExecutionBackend):
    """One spawned OS process per rank over a shared-memory arena.

    Constructed by the engine *before* its optimizer: construction
    re-homes the engine's parameter storage (``p.data`` for DDP, each
    unit's ``flat`` for FSDP) into the shared segment, so optimizer
    state and flat-shard views built afterwards alias shared storage and
    every parent-side update is immediately visible to workers.
    """

    name = "process"

    def __init__(self, engine):
        super().__init__(engine)
        cfg = engine.config
        self.k = cfg.grad_accum_steps
        # Only data-parallel ranks compute (a mesh folds tp/pp into each
        # rank's step); off the mesh that is every rank.
        self.world_size = engine.data_parallel_size
        self.mode = "ddp" if engine.shard_size is None else "fsdp"
        if self.mode == "fsdp":
            self._targets = engine.units
            arrays = [u.flat for u in self._targets]
        else:
            self._targets = engine.params
            arrays = [p.data for p in self._targets]
        dtypes = {a.dtype for a in arrays}
        if len(dtypes) != 1:
            raise ValueError(
                f"backend='process' needs a uniform parameter dtype, got "
                f"{sorted(str(d) for d in dtypes)}; use backend='inline'"
            )
        self._dtype = arrays[0].dtype
        self._shapes = [a.shape for a in arrays]
        sizes = [a.size for a in arrays]
        self.grad_numel = sum(sizes)

        blocks = {f"p{i}": n * self._dtype.itemsize for i, n in enumerate(sizes)}
        blocks["grads"] = (
            self.k * self.world_size * self.grad_numel * self._dtype.itemsize
        )
        for r in range(self.world_size):
            blocks[f"ev{r}"] = EventBuffer.HEADER + EVENT_BUFFER_BYTES
        offsets, total = plan_blocks(blocks)
        self._arena = ShmArena.create(total)
        self._param_layout = [
            (offsets[f"p{i}"], n) for i, n in enumerate(sizes)
        ]
        self._grads_offset = offsets["grads"]
        self._event_offsets = [offsets[f"ev{r}"] for r in range(self.world_size)]

        # Re-home parameter storage into the arena (values preserved).
        for target, array, (offset, numel) in zip(
            self._targets, arrays, self._param_layout
        ):
            view = self._arena.view(offset, (numel,), self._dtype)
            np.copyto(view, array.reshape(-1))
            if self.mode == "fsdp":
                target.flat = view
                target._install_views()
            else:
                target.data = view.reshape(array.shape)

        grads = self._arena.view(
            self._grads_offset,
            (self.k, self.world_size, self.grad_numel),
            self._dtype,
        )
        # per_rank[r][i] views for every round, shaped like the inline
        # contributions (parameter-shaped for DDP, flat for FSDP) — the
        # engine's reduction consumes them with zero staging copies.
        self._grad_views: list[list[list[np.ndarray]]] | None = []
        for j in range(self.k):
            per_rank = []
            for r in range(self.world_size):
                row = grads[j, r]
                views, offset = [], 0
                for shape, numel in zip(self._shapes, sizes):
                    chunk = row[offset : offset + numel]
                    views.append(chunk if self.mode == "fsdp" else chunk.reshape(shape))
                    offset += numel
                per_rank.append(views)
            self._grad_views.append(per_rank)
        self._event_buffers = [
            EventBuffer(self._arena, off, EVENT_BUFFER_BYTES)
            for off in self._event_offsets
        ]

        self._procs: list = []
        self._conns: list = []
        self._data: ShmArena | None = None
        self._seq = 0
        self._cpu_s = [0.0] * self.world_size
        self._started = False
        self._broken: str | None = None
        self._shut = False

    # -- lifecycle ---------------------------------------------------------

    def _model_blob(self) -> bytes:
        model = self.engine.model
        workspace = model.workspace
        model.use_workspace(None)  # scratch pools are per-process
        try:
            return pickle.dumps(model)
        except Exception as err:
            raise TypeError(
                "backend='process' requires a picklable model (spawn workers "
                f"receive a replica): {err}"
            ) from err
        finally:
            if workspace is not None:
                model.use_workspace(workspace)

    def start(self) -> None:
        """Spawn one worker per rank and wait for the attach rendezvous."""
        if self._started:
            return
        ctx = multiprocessing.get_context("spawn")
        blob = self._model_blob()
        spec_common = {
            "mode": self.mode,
            "shard_size": self.engine.shard_size,
            "precision": self.engine.config.precision,
            "arena": self._arena.name,
            "dtype": self._dtype.str,
            "param_layout": self._param_layout,
            "grads": (
                self._grads_offset,
                self.k,
                self.world_size,
                self.grad_numel,
            ),
            "model": blob,
        }
        for r in range(self.world_size):
            parent_conn, child_conn = ctx.Pipe()
            spec = dict(
                spec_common,
                rank=r,
                events=(self._event_offsets[r], EVENT_BUFFER_BYTES),
            )
            proc = ctx.Process(
                target=_worker_main,
                args=(spec, child_conn),
                name=f"repro-rank{r}",
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._conns.append(parent_conn)
        for r in range(self.world_size):
            msg = self._recv(r)
            if msg != ("ready", r):
                raise WorkerCrashError(r, f"bad rendezvous message {msg!r}")
        self._started = True

    def shutdown(self) -> None:
        """Stop workers, reclaim processes and segments, re-home storage.

        Idempotent, and safe after a crash: live workers get a stop
        command, stragglers are terminated then killed, and both shared
        segments are unlinked. Parameter storage moves back to private
        arrays (flat-shard views re-installed for FSDP) so the engine
        remains fully usable — just inline-less-the-workers.
        """
        if self._shut:
            return
        self._shut = True
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (OSError, ValueError):
                pass
        for proc in self._procs:
            proc.join(timeout=5)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - last resort
                proc.kill()
                proc.join(timeout=5)
        for conn in self._conns:
            conn.close()
        self._procs = []
        self._conns = []
        # Re-home parameters to private storage so arena views can die.
        engine = self.engine
        if self.mode == "fsdp":
            for unit in self._targets:
                unit.flat = np.array(unit.flat)
                unit._install_views()
            for unit, shards in zip(engine.units, engine._shards):
                for j, shard in enumerate(shards):
                    shard.data = unit.shard_view(j)
        else:
            for p in self._targets:
                p.data = np.array(p.data)
        self._grad_views = None
        self._event_buffers = []
        if self._data is not None:
            self._data.destroy()
            self._data = None
        self._arena.destroy()

    # -- the round ---------------------------------------------------------

    def _recv(self, rank: int):
        conn = self._conns[rank]
        try:
            if not conn.poll(WORKER_TIMEOUT_S):
                self._broken = f"rank {rank} unresponsive for {WORKER_TIMEOUT_S:.0f}s"
                raise WorkerCrashError(rank, self._broken)
            return conn.recv()
        except (EOFError, ConnectionResetError, BrokenPipeError) as err:
            code = self._procs[rank].exitcode
            self._broken = f"pipe closed (exitcode {code})"
            raise WorkerCrashError(rank, self._broken) from err

    def _stage_micros(self, micros: Sequence[Any]) -> tuple[str | None, list]:
        needed = sum(_measure_micro(m) for m in micros)
        if needed == 0:
            return (self._data.name if self._data is not None else None), [
                _encode_micro(m, self._data, [0]) for m in micros
            ]
        if self._data is None or self._data.size < needed:
            fresh = ShmArena.create(max(needed, 1), prefix="repro-data")
            if self._data is not None:
                # unlink-while-mapped is safe; workers swap on name change.
                self._data.destroy()
            self._data = fresh
        cursor = [0]
        skeletons = [_encode_micro(m, self._data, cursor) for m in micros]
        return self._data.name, skeletons

    def run_round(self, round_index, micros, step_fn):
        if self._shut:
            raise RuntimeError(
                "process backend already shut down; build a new engine "
                "(or backend='inline') to keep training"
            )
        if not self._started:
            raise RuntimeError("ProcessBackend.run_round before start()")
        if self._broken:
            raise WorkerCrashError(-1, f"backend poisoned: {self._broken}")
        try:
            step_blob = pickle.dumps(step_fn)
        except Exception as err:
            raise TypeError(
                "backend='process' requires a picklable step_fn (a "
                f"module-level function, not a closure/lambda): {err}"
            ) from err
        data_name, skeletons = self._stage_micros(micros)
        scale = self.engine.scaler.scale
        bus = self.engine.telemetry
        telemetry_on = bus.enabled
        self._seq += 1
        for r in range(self.world_size):
            self._conns[r].send(
                (
                    "round",
                    self._seq,
                    round_index,
                    scale,
                    telemetry_on,
                    data_name,
                    skeletons[r],
                    step_blob,
                )
            )
        losses: list[float] = []
        failures: list[tuple[int, str]] = []
        for r in range(self.world_size):
            msg = self._recv(r)
            if msg[0] == "ok":
                _, seq, loss, cpu_s = msg
                if seq != self._seq:  # pragma: no cover - protocol guard
                    raise WorkerCrashError(r, f"out-of-order reply {seq}")
                losses.append(loss)
                self._cpu_s[r] += cpu_s
            else:
                failures.append((r, msg[2]))
        if telemetry_on:
            for r, buffer in enumerate(self._event_buffers):
                events, dropped = buffer.drain()
                bus.merge(events, rank=r)
                if dropped:
                    bus.counter("telemetry.dropped_events", dropped, rank=r)
        if failures:
            rank, tb = failures[0]
            raise WorkerStepError(rank, tb)
        return losses, self._grad_views[round_index]

    # -- instrumentation ---------------------------------------------------

    def pop_worker_cpu_s(self) -> list[float]:
        """Per-rank worker CPU seconds since the last call (then reset).

        The critical-path metric ``bench_multicore`` gates on: the
        slowest rank's CPU time bounds the step on a host with enough
        cores, independent of how this host's scheduler interleaved the
        workers (see DESIGN §12).
        """
        out = list(self._cpu_s)
        self._cpu_s = [0.0] * self.world_size
        return out
