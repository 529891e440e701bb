"""The three closed-loop workloads, each driven by one caller.

Each workload builds its inputs from the seed, sets up (inputs, native
tier, service or first rank fork, one warm-up op), then runs measured ops
until the window holds ``seconds`` of op time and at least ``min_ops``
ops (whole epochs for ``service_mix``).  Every op result is checked
outside the timed region; an op that raises, misses its contract or ran
on a tier other than the requested one counts as failed.

With a :class:`spans.Recorder` the run is the traced one: ``lu_fill`` and
``spmd_lu`` alternate untraced and traced ops; ``service_mix`` runs an
untraced, a traced and an untraced epoch and compares the last two, both
warm.  So the trace overhead is measured in the same process.
"""

from __future__ import annotations

import asyncio
import os
import shutil
from time import perf_counter

import numpy as np

import spans
import stream

LU_K = 32
LU_TAU = 1e-2
SERVICE_K = 16
#: Warm-up key of ``service_mix``; the stream never draws it.
WARMUP_KEY = ("M4", 0.3, "lu")

#: Per-layer metrics a workload measures itself rather than from spans;
#: they read 0 where their layer does not run.
RUN_LAYERS = (
    "service.restart_s", "service.hit_frac", "service.disk_hit_frac",
    "service.batched_frac", "service.solves_per_request",
    "parallel.comm_bytes", "parallel.comm_msgs", "parallel.modeled_s",
    "parallel.wall_over_modeled",
)


def m2_instance(seed: int):
    """The suite's M2 (``random_graded(..., seed=22)``) under a seeded row
    and column permutation.

    A permutation keeps the singular values, hence rank K and the factor
    fill, while every seed still yields a different input; reseeding
    ``random_graded`` itself moves K between 192 and 320 over seeds 1-10.
    """
    from repro.matrices import random_graded
    A = random_graded(900, 900, nnz_per_row=14, decay_kind="exponential",
                      decay_rate=7.0, value_spread=2.0, two_sided=True,
                      seed=22).tocsr()
    rng = np.random.default_rng(seed)
    rows = rng.permutation(A.shape[0])
    cols = rng.permutation(A.shape[1])
    return A[rows][:, cols].tocsc()


def cpu_seconds() -> float:
    """CPU seconds of this process (all threads) and its ended children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def rel_error(res, A) -> float:
    """True ``||A' - H W||_F / ||A||_F`` (``A' = P_r A P_c`` for LU),
    accumulated over row blocks so the check never densifies ``A``."""
    from repro.results import LUApproximation
    A = A.tocsr()
    H, W = res.left, res.right
    if isinstance(res, LUApproximation):
        A = A[res.row_perm][:, res.col_perm]
        H = H.tocsr()
    total = 0.0
    for lo in range(0, A.shape[0], 256):
        approx = H[lo:lo + 256] @ W
        if not isinstance(approx, np.ndarray):
            approx = approx.toarray()
        block = A[lo:lo + 256].toarray() - approx
        total += float(np.sum(block * block))
    a_fro = float(np.sqrt(np.sum(A.data * A.data)))
    return float(np.sqrt(total)) / a_fro if a_fro else 0.0


def contract_violation(res, A, tau: float, method: str) -> str | None:
    """Why a sequential result misses its contract at ``tau``, or None."""
    if not res.converged:
        return "not converged"
    err = rel_error(res, A)
    if method == "ilut":
        est = res.relative_indicator()
        if not est < tau:
            return f"estimator {est:.3g} not below tau {tau:g}"
        slack = res.dropped_norm_bound() / res.a_fro
        if err > est + slack + 1e-12:
            return f"error {err:.3g} outside estimator {est:.3g} + {slack:.3g}"
    elif not err < tau:
        return f"error {err:.3g} not below tau {tau:g}"
    return None


class Run:
    """What one measuring process produced (filled by a workload)."""

    def __init__(self):
        self.latencies: list[float] = []      # untraced ops
        self.traced_latencies: list[float] = []
        self.window = 0.0
        self.attempted = 0
        self.failures: list[str] = []
        self.ranks: list[float] = []
        self.factor_nnz: list[float] = []
        self.cpu: list[float] = []            # traced ops
        self.details: dict = {}
        self.layers: dict = {}

    def fail(self, reason: str, count: int = 1) -> None:
        self.failures.extend([reason] * count)


# ---------------------------------------------------------------------------
# lu_fill and spmd_lu: one blocking call per op
# ---------------------------------------------------------------------------

class _ClosedLoop:
    name = ""

    def __init__(self, seed: int, tier: str, build_dir: str):
        self.seed = seed
        self.tier = tier

    def setup(self) -> None:
        from repro.api import SolverConfig
        t = perf_counter()
        self.A = m2_instance(self.seed)
        self.gen_s = perf_counter() - t
        self.cfg = SolverConfig(k=LU_K, tol=LU_TAU, kernel_tier=self.tier)
        self.op()                             # warm-up

    def run(self, seconds: float, min_ops: int,
            rec: spans.Recorder | None) -> Run:
        run = Run()
        i, elapsed = 0, 0.0
        while elapsed < seconds or i < min_ops:
            traced = rec is not None and i % 2 == 1
            if traced:
                rec.install()
                rec.begin_op(i)
            c0 = cpu_seconds()
            t0 = perf_counter()
            try:
                out, error = self.op(), None
            except Exception as exc:          # noqa: BLE001 - a failed op
                out, error = None, f"{type(exc).__name__}: {exc}"
            t1 = perf_counter()
            c1 = cpu_seconds()
            elapsed += t1 - t0
            if traced:
                rec.end_op()
                rec.uninstall()
                run.traced_latencies.append(t1 - t0)
                run.cpu.append(c1 - c0)
            else:
                run.latencies.append(t1 - t0)
                run.window += t1 - t0
            run.attempted += 1
            error = error or self.check(out, run)
            if error:
                run.fail(error)
            i += 1
        self.finish(run, rec)
        return run

    def finish(self, run: Run, rec) -> None:
        if rec is not None:
            run.layers["matrices.gen_s"] = self.gen_s

    def close(self) -> None:
        pass


class LuFill(_ClosedLoop):
    name = "lu_fill"

    def op(self):
        from repro.api import make_solver
        return make_solver("lu", self.cfg).solve(self.A)

    def check(self, res, run: Run) -> str | None:
        run.ranks.append(res.rank)
        run.factor_nnz.append(res.factor_nnz())
        if res.kernel_tier != self.tier:
            return f"ran on tier {res.kernel_tier!r}"
        return contract_violation(res, self.A, LU_TAU, "lu")


class SpmdLu(_ClosedLoop):
    name = "spmd_lu"
    nprocs = 2

    def op(self):
        from repro.parallel import run_spmd_solver
        info: dict = {}
        res = run_spmd_solver("lu", self.A, nprocs=self.nprocs, k=LU_K,
                              tol=LU_TAU, backend="procs",
                              kernel_tier=self.tier, run_info=info)
        return res, info

    def check(self, out, run: Run) -> str | None:
        res, info = out
        run.ranks.append(res.rank)
        self.last_rank, self.last_rel, self.last_info = \
            res.rank, res.relative_indicator(), info
        if res.kernel_tier != self.tier:
            return f"ran on tier {res.kernel_tier!r}"
        if not res.converged:
            return "not converged"
        if not res.relative_indicator() < LU_TAU:
            return f"indicator {res.relative_indicator():.3g} not below tau"
        return None

    def finish(self, run: Run, rec) -> None:
        # The rank processes keep their factor blocks; the stored entries
        # reported are those of the P=1 solve, which the SPMD run
        # reproduces when rank and indicator agree (recorded below).
        from repro.api import make_solver
        ref = make_solver("lu", self.cfg).solve(self.A)
        run.factor_nnz = [float(ref.factor_nnz())]
        run.details["p1_reference_match"] = bool(
            ref.rank == self.last_rank
            and abs(ref.relative_indicator() - self.last_rel) <= 1e-12)
        if rec is not None:
            info = self.last_info
            comm = info["comm"]
            run.layers.update({
                "matrices.gen_s": self.gen_s,
                "parallel.comm_bytes": float(comm["bytes_sent"]),
                "parallel.comm_msgs": float(comm["msgs"]),
                "parallel.modeled_s": float(info["elapsed"]),
                "parallel.wall_over_modeled":
                    float(info["wall_seconds"]) / float(info["elapsed"]),
            })


# ---------------------------------------------------------------------------
# service_mix: one client, tau-sweep bursts against an in-process service
# ---------------------------------------------------------------------------

class ServiceMix:
    name = "service_mix"

    def __init__(self, seed: int, tier: str, build_dir: str):
        self.seed = seed
        self.tier = tier
        self.build_dir = build_dir
        self.loop = asyncio.new_event_loop()
        self.svc = None
        self.dirs: list[str] = []
        self.matrices: dict = {}

    # -- plumbing --------------------------------------------------------
    def _fresh_dir(self) -> str:
        path = os.path.join(self.build_dir,
                            f"cache-{os.getpid()}-{len(self.dirs)}")
        shutil.rmtree(path, ignore_errors=True)
        self.dirs.append(path)
        return path

    async def _start(self, cache_dir: str) -> None:
        from repro.service import SolveService
        self.svc = SolveService(cache_dir=cache_dir)
        await self.svc.start()

    async def _restart(self, cache_dir: str) -> None:
        await self.svc.stop()
        await self._start(cache_dir)

    def _requests(self, key, taus):
        from repro.api import SolverConfig
        from repro.service import MatrixSpec, SolveRequest
        suite, scale, method = key
        return [SolveRequest(
            matrix=MatrixSpec(suite=suite, scale=scale), method=method,
            config=SolverConfig(k=SERVICE_K, tol=tau, kernel_tier=self.tier))
            for tau in taus]

    def _matrix(self, key):
        if key not in self.matrices:
            from repro.service import MatrixSpec
            self.matrices[key] = MatrixSpec(
                suite=key[0], scale=key[1]).load()
        return self.matrices[key]

    # -- one burst ---------------------------------------------------------
    async def _burst(self, key, taus):
        """Submit one tau sweep and await it; returns per-request
        ``(latency, response, job)`` and the burst's wall time."""
        svc = self.svc
        reqs = self._requests(key, taus)
        t_sub, ids = [], []
        for req in reqs:
            t_sub.append(perf_counter())
            ids.append(await svc.submit(req))

        async def waiter(job_id):
            resp = await svc.wait(job_id)
            return resp, perf_counter()

        done = await asyncio.gather(*(waiter(j) for j in ids))
        wall = perf_counter() - t_sub[0]
        return [(t_end - t0, resp, svc.job(j))
                for t0, (resp, t_end), j in zip(t_sub, done, ids)], wall

    def _check(self, key, taus, served, run: Run, checked: dict) -> None:
        """Gate one burst's responses (outside the timed region)."""
        method = key[2]
        tightest: dict = {}
        for tau, (_, resp, job) in zip(taus, served):
            if resp["state"] != "done":
                run.fail(f"{key}: state {resp['state']}: {resp['error']}")
                continue
            tier = (resp["result"] or {}).get("kernel_tier")
            if tier != self.tier:
                run.fail(f"{key}: ran on tier {tier!r}")
                continue
            run.ranks.append(resp["result"]["rank"])
            run.factor_nnz.append(resp["result"]["factor_nnz"])
            obj = job.result
            prev = tightest.get(id(obj))
            tightest[id(obj)] = (obj, tau if prev is None
                                 else min(prev[1], tau))
        for oid, (obj, tau) in tightest.items():
            if oid in checked:
                continue
            checked[oid] = obj                # keeps the id unique
            why = contract_violation(obj, self._matrix(key), tau, method)
            if why:
                users = sum(1 for _, _, job in served if job.result is obj)
                run.fail(f"{key}: {why}", users)

    # -- set-up and measurement -----------------------------------------
    def setup(self) -> None:
        self.bursts = stream.epoch(self.seed)
        self.loop.run_until_complete(self._setup())

    async def _setup(self) -> None:
        await self._start(self._fresh_dir())
        served, _ = await self._burst(WARMUP_KEY, (stream.TAUS[0],))
        if served[0][1]["state"] != "done":
            raise RuntimeError(f"warm-up request failed: {served[0][1]}")

    def run(self, seconds: float, min_ops: int,
            rec: spans.Recorder | None) -> Run:
        return self.loop.run_until_complete(self._run(seconds, rec))

    async def _run(self, seconds: float, rec) -> Run:
        run = Run()
        outcomes: list[str] = []
        restarts: list[float] = []
        checked: dict = {}
        epochs = 0
        op = 0
        while True:
            traced = rec is not None and epochs == 1
            if epochs:
                await self._restart(self._fresh_dir())
                checked.clear()
            if rec is not None and epochs == 2:
                run.latencies.clear()         # compare warm with warm
            if traced:
                rec.install()
            prev_segment = 0
            for burst in self.bursts:
                if burst.segment != prev_segment:
                    t = perf_counter()
                    await self._restart(self.dirs[-1])
                    if traced:
                        restarts.append(perf_counter() - t)
                    checked.clear()           # results of the old service
                    prev_segment = burst.segment
                if traced:
                    rec.begin_op(op)
                c0 = cpu_seconds()
                try:
                    served, wall = await self._burst(burst.key, stream.TAUS)
                except Exception as exc:      # noqa: BLE001 - failed ops
                    served, wall = None, 0.0
                    error = f"{type(exc).__name__}: {exc}"
                c1 = cpu_seconds()
                if traced:
                    rec.end_op()
                op += 1
                run.attempted += len(stream.TAUS)
                if served is None:
                    run.fail(error, len(stream.TAUS))
                    outcomes.extend(["error"] * len(stream.TAUS))
                    continue
                lat = [s[0] for s in served]
                if traced:
                    run.traced_latencies.extend(lat)
                    run.cpu.append(c1 - c0)
                else:
                    run.latencies.extend(lat)
                    run.window += wall
                outcomes.extend(str(s[1]["cache"]) for s in served)
                self._check(burst.key, stream.TAUS, served, run, checked)
            if traced:
                rec.uninstall()
            epochs += 1
            done = epochs == 3 if rec is not None \
                else run.window >= seconds
            if done:
                break
        expected = stream.predicted_outcomes(self.bursts) * epochs
        run.details.update(
            epochs=epochs, outcomes=outcomes,
            outcome_mismatches=sum(a != b for a, b in zip(outcomes,
                                                          expected)))
        if rec is not None:
            n = len(outcomes) // epochs
            traced_epoch = outcomes[n:2 * n]
            run.layers["service.restart_s"] = sum(restarts) / len(restarts)
            run.layers.update({f"service.{k}": v for k, v in
                               stream.ratios(traced_epoch).items()})
        return run

    def close(self) -> None:
        if self.svc is not None:
            self.loop.run_until_complete(self.svc.stop())
        self.loop.close()
        for path in self.dirs:
            shutil.rmtree(path, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (LuFill, ServiceMix, SpmdLu)}
