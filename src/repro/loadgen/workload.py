"""Seeded traffic synthesis: simulated users, sessions, and backends.

The ROADMAP's "millions of users" claim needs a measured curve, so the
workload here is built to be **replayable**: every arrival time, session
shape, service time and fault decision is a pure function of the campaign
seed via :func:`repro.llm.model._stable_seed` — two runs of the same
config produce the same request schedule byte-for-byte (only the measured
latencies differ, because those are the experiment).

A *session* is one simulated user's request sequence.  Each user draws a
**flow kind** modeled on the repo's real flows — the shape controls how
many requests the session issues and in what kind mix:

* ``vrank``     — one burst of k ``generate`` calls (self-consistency);
* ``autochip``  — alternating ``generate``/``refine`` rounds (tree search);
* ``chat``      — serial conversational ``generate`` turns;
* ``structured``— generate → refine → occasional ``human_fix``.

Arrival times are **heavy-tailed**: users activate by a Pareto-distributed
inter-arrival process, so the schedule has the bursts that make load
shedding and breakers earn their keep, not a polite uniform trickle.

:class:`LoadBackend` stands in for a model server: it "serves" a request
by sleeping a deterministic Pareto-distributed service time (threads
sleeping release the GIL, so broker worker slots overlap realistically) and
optionally injecting seeded hard/transient faults — the flaky model in the
default mix is what drives measurable breaker trips.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from ..llm.model import _stable_seed
from ..llm.registry import get_model
from ..service.broker import BackendError, TransientBackendError

DEFAULT_MODELS = (
    "gpt-4", "chatgpt-3.5", "gpt-4o", "cl-verilog-34b", "rtlcoder-7b",
    "codev-7b", "verigen-codegen-16b", "codellama-34b-instruct",
)

FLOW_KINDS = ("vrank", "autochip", "chat", "structured")


@dataclass(frozen=True)
class LoadConfig:
    """One load-test campaign; every field feeds the seeded synthesis."""

    users: int = 1000
    seed: int = 0
    duration_s: float = 4.0            # arrival horizon (pre-scaling)
    models: tuple[str, ...] = DEFAULT_MODELS
    tenants: int = 8
    hog_tenant: bool = True            # tenant 0 issues ~4x the requests
    mean_session_len: float = 4.0      # heavy-tailed, per flow kind
    service_time_ms: float = 6.0       # mean simulated backend latency
    service_tail_alpha: float = 2.2    # Pareto shape (lower = heavier tail)
    flaky_model: str | None = "dave-gpt2"   # extra lane that trips breakers
    flaky_hard_rate: float = 0.85
    transient_rate: float = 0.02
    request_timeout_s: float = 2.0
    time_scale: float = 1.0            # >1 compresses the schedule


@dataclass(frozen=True)
class Arrival:
    """One scheduled request: everything the dispatcher needs to fire it."""

    t: float                 # seconds from campaign start (pre-scaling)
    req_id: int
    user: int
    tenant: str
    model: str
    kind: str                # 'generate' | 'refine' | 'human_fix'
    flow: str


def _session_kinds(flow: str, length: int, rng: random.Random) -> list[str]:
    if flow == "vrank":
        return ["generate"] * length
    if flow == "autochip":
        return [("generate" if i % 2 == 0 else "refine")
                for i in range(length)]
    if flow == "chat":
        return ["generate"] * length
    kinds = []
    for i in range(length):              # structured feedback flow
        if i == 0:
            kinds.append("generate")
        elif rng.random() < 0.15:
            kinds.append("human_fix")
        else:
            kinds.append("refine")
    return kinds


def build_schedule(cfg: LoadConfig) -> list[Arrival]:
    """The full campaign schedule, sorted by arrival time.

    Pure function of ``cfg``: user u's session derives every draw from
    ``_stable_seed(cfg.seed, "user", u)``, so schedules replay exactly.
    """
    arrivals: list[Arrival] = []
    req_id = 0
    models = list(cfg.models)
    if cfg.flaky_model and cfg.flaky_model not in models:
        models.append(cfg.flaky_model)
    for user in range(cfg.users):
        rng = random.Random(_stable_seed(cfg.seed, "user", user))
        tenant_id = user % max(1, cfg.tenants)
        if cfg.hog_tenant and rng.random() < 0.25:
            tenant_id = 0                # the hog absorbs extra sessions
        flow = FLOW_KINDS[user % len(FLOW_KINDS)]
        # Heavy-tailed session start inside the horizon: bursts of users
        # activate together near Pareto cluster points.
        start = (rng.paretovariate(1.8) - 1.0) * cfg.duration_s * 0.25
        start = min(start, cfg.duration_s * 0.95)
        length = max(1, min(24, int(rng.expovariate(
            1.0 / cfg.mean_session_len)) + 1))
        kinds = _session_kinds(flow, length, rng)
        model = models[rng.randrange(len(models))]
        t = start
        for kind in kinds:
            arrivals.append(Arrival(
                t=round(t, 6), req_id=req_id, user=user,
                tenant=f"tenant-{tenant_id}", model=model, kind=kind,
                flow=flow))
            req_id += 1
            if flow == "vrank":          # burst: near-simultaneous
                t += rng.random() * 0.002
            else:                        # think time, heavy-tailed
                t += (rng.paretovariate(2.5) - 1.0) * 0.2
            t = min(t, cfg.duration_s)
    arrivals.sort(key=lambda a: (a.t, a.req_id))
    return arrivals


class _Profile:
    """Duck-typed stand-in for a model profile (the lane key)."""

    def __init__(self, name: str):
        self.name = name


class LoadBackend:
    """A latency-faithful fake model server for one lane.

    ``generate``/``refine``/``apply_human_fix`` all serve the same way:
    sleep a deterministic heavy-tailed service time keyed by the request id,
    inject seeded faults, count the call.  The *service fabric* (lanes,
    worker slots, breakers, shedding) is what the harness measures — the
    payload is irrelevant, so the response is just the request id echoed
    back.
    """

    def __init__(self, model: str, cfg: LoadConfig,
                 sleeper: Callable[[float], None] = time.sleep):
        # Use the real registry profile when the name is registered so the
        # lane keys match production; fall back to a bare name otherwise.
        try:
            self.profile = get_model(model)
        except Exception:
            self.profile = _Profile(model)
        self.cfg = cfg
        self.sleeper = sleeper
        self.flaky = (model == cfg.flaky_model)
        self.calls = 0
        self.faults = 0
        self._lock = threading.Lock()

    def _serve(self, req_id: int, attempt_salt: str = "") -> int:
        with self._lock:
            self.calls += 1
        cfg = self.cfg
        rng = random.Random(_stable_seed(cfg.seed, "svc", self.profile.name,
                                         req_id, attempt_salt))
        hard_rate = cfg.flaky_hard_rate if self.flaky else 0.0
        roll = rng.random()
        if roll < hard_rate:
            with self._lock:
                self.faults += 1
            raise BackendError(f"injected hard failure (req {req_id})")
        if roll < hard_rate + cfg.transient_rate:
            with self._lock:
                self.faults += 1
            raise TransientBackendError(
                f"injected transient fault (req {req_id})")
        mean_s = cfg.service_time_ms / 1000.0
        alpha = cfg.service_tail_alpha
        # Pareto with mean == mean_s: scale by (alpha-1)/alpha.
        service = mean_s * (alpha - 1.0) / alpha * rng.paretovariate(alpha)
        self.sleeper(min(service, mean_s * 20) / max(1e-9, cfg.time_scale))
        return req_id

    # Kind surface the broker dispatches on:

    def generate(self, req_id: int) -> int:
        return self._serve(req_id, "generate")

    def refine(self, req_id: int) -> int:
        return self._serve(req_id, "refine")

    def apply_human_fix(self, req_id: int) -> int:
        return self._serve(req_id, "human_fix")


_KIND_METHOD = {"generate": "generate", "refine": "refine",
                "human_fix": "apply_human_fix"}


def method_for(kind: str) -> str:
    return _KIND_METHOD[kind]
