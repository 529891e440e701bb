"""Exception hierarchy for the :mod:`repro` library.

All library-specific failures derive from :class:`ReproError` so callers can
catch a single base class.  The breakdown exceptions mirror the failure modes
discussed in Section III-A of the paper (rank deficiency introduced by
thresholding, loss of convergence, numerical breakdown of the factorization).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConvergenceError(ReproError):
    """An iterative method failed to reach the requested tolerance.

    Carries the partial state so callers can inspect how far the method got.
    """

    def __init__(self, message: str, *, iterations: int | None = None,
                 achieved: float | None = None, requested: float | None = None):
        super().__init__(message)
        self.iterations = iterations
        self.achieved = achieved
        self.requested = requested


class RankDeficiencyBreakdown(ReproError):
    """The pivot block :math:`\\bar{A}_{11}` became numerically singular.

    For ILUT_CRTP this is the failure mode of Section III-A: thresholding
    perturbed :math:`\\tilde{A}` enough that it no longer has rank at least
    ``K + 1`` (bound (20) violated).  For LU_CRTP it indicates the input's
    numerical rank was reached or machine-precision singular values were hit.
    """

    def __init__(self, message: str, *, iteration: int | None = None,
                 rank: int | None = None):
        super().__init__(message)
        self.iteration = iteration
        self.rank = rank


class ToleranceTooSmallError(ReproError):
    """Requested tolerance is below what an error indicator can resolve.

    Theorem 3 of Yu/Gu/Li (2018) shows the RandQB_EI indicator (4) fails in
    IEEE double precision for tolerances below ``2.1e-7``.
    """


class DistributionError(ReproError):
    """Invalid data-distribution request in the simulated parallel layer."""


class CommunicatorError(ReproError):
    """Misuse of the simulated communicator (mismatched collectives, bad rank)."""


class RankFailure(CommunicatorError):
    """A simulated rank died (injected crash) or a peer observed its death.

    ``rank`` names the failed rank, ``superstep`` its communication step at
    the time of death.  ``injected`` distinguishes the primary failure
    raised *on* the crashing rank from the secondary failures healthy ranks
    raise when they detect the dead participant (broken barrier, recv from
    a dead source).
    """

    def __init__(self, message: str, *, rank: int | None = None,
                 superstep: int | None = None, injected: bool = False):
        super().__init__(message)
        self.rank = rank
        self.superstep = superstep
        self.injected = injected


class CollectiveMismatchError(CommunicatorError):
    """Ranks issued *different* collectives at the same logical step.

    Raised by the ``REPRO_SANITIZE=1`` collective-fingerprint sanitizer
    (:mod:`repro.parallel.sanitize`) when the combining rank observes two
    ranks disagreeing on the ``(kernel, op, root, call-site)`` of the
    current collective — the failure the SPMD001 lint rule flags
    statically, caught at runtime instead of deadlocking or silently
    mixing payloads.  ``rank_a``/``site_a`` name one agreeing rank and
    its call site, ``rank_b``/``site_b`` the divergent rank.
    """

    def __init__(self, message: str, *, rank_a: int | None = None,
                 op_a: str | None = None, site_a: str | None = None,
                 rank_b: int | None = None, op_b: str | None = None,
                 site_b: str | None = None):
        super().__init__(message)
        self.rank_a = rank_a
        self.op_a = op_a
        self.site_a = site_a
        self.rank_b = rank_b
        self.op_b = op_b
        self.site_b = site_b


class PayloadIntegrityError(CommunicatorError):
    """Data that crossed the wire differs from its owner's copy.

    Raised on every rank of an SPMD LU run when a winning column of the
    column tournament reached the ranks altered: its owner compares the
    broadcast copy with its own block before any rank uses it.  ``ranks``
    lists the owners that saw a mismatch, ``iteration`` the outer
    iteration it happened in.
    """

    def __init__(self, message: str, *, ranks: tuple[int, ...] = (),
                 iteration: int | None = None):
        super().__init__(message)
        self.ranks = tuple(ranks)
        self.iteration = iteration


class CommTimeoutError(CommunicatorError):
    """A simulated ``recv`` (or retry sequence) exhausted its timeout.

    Carries the route ``(src, dst, tag)`` and the configured ``timeout`` so
    chaos tests can assert *which* message went missing.
    """

    def __init__(self, message: str, *, src: int | None = None,
                 dst: int | None = None, tag: int | None = None,
                 timeout: float | None = None, retries: int = 0):
        super().__init__(message)
        self.src = src
        self.dst = dst
        self.tag = tag
        self.timeout = timeout
        self.retries = retries


class CheckpointError(ReproError):
    """A solver checkpoint could not be written, read, or applied
    (e.g. resuming an SPMD run with a different process count)."""


class MatrixFormatError(ReproError):
    """Malformed external matrix data (e.g. Matrix Market parsing failures)."""


class KernelBuildError(ReproError):
    """An *explicitly requested* native kernel build failed to compile.

    Raised by :func:`repro.kernels.resolve_tier` when
    ``kernel_tier='native'`` was requested explicitly, a C compiler was
    found, and the compile still failed — silently falling back to
    ``pure`` there would hide a real toolchain or source problem behind
    a one-line warning.  ``auto`` requests and compiler-less hosts keep
    the silent (warned) fallback, so solves on plain hosts never gain a
    hard dependency on a C toolchain.

    ``compiler`` is the executable that was invoked and ``stderr`` the
    captured compiler diagnostics (also embedded in the message).
    """

    def __init__(self, message: str, *, compiler: str | None = None,
                 stderr: str | None = None):
        super().__init__(message)
        self.compiler = compiler
        self.stderr = stderr


class UnknownSolverError(ReproError, ValueError):
    """A method name did not resolve through the :mod:`repro.api` registry."""


class ServiceError(ReproError):
    """Base class for solve-service failures (:mod:`repro.service`)."""


class QueueFullError(ServiceError):
    """Backpressure: the service job queue is at capacity.

    Clients should retry with backoff; ``limit`` carries the configured
    queue bound so callers can log/shed load intelligently.
    """

    def __init__(self, message: str, *, limit: int | None = None):
        super().__init__(message)
        self.limit = limit


class ServiceOverloadError(QueueFullError):
    """Typed overload shed: the service refused a submission.

    Subclasses :class:`QueueFullError` so pre-existing backpressure
    handlers keep working; adds ``retry_after`` — the server's estimate
    (seconds) of when capacity will free up, surfaced through the TCP
    protocol so remote clients can back off intelligently.
    """

    def __init__(self, message: str, *, limit: int | None = None,
                 retry_after: float | None = None):
        super().__init__(message, limit=limit)
        self.retry_after = retry_after


class CircuitOpenError(ServiceError):
    """Per-solver circuit breaker is open: the method failed repeatedly
    and the service is fast-failing its requests while it cools down.

    ``method`` names the tripped solver, ``failures`` the consecutive
    failure count that opened the breaker, ``retry_after`` the seconds
    until the breaker next admits a half-open probe.
    """

    def __init__(self, message: str, *, method: str | None = None,
                 failures: int | None = None,
                 retry_after: float | None = None):
        super().__init__(message)
        self.method = method
        self.failures = failures
        self.retry_after = retry_after


class WorkerCrashError(ServiceError):
    """A solve worker died (or hung past its deadline grace) too many
    times while holding this job; the supervisor gave up requeueing it.

    ``job_id`` names the abandoned job, ``requeues`` how many recovery
    attempts were made before the job was failed.
    """

    def __init__(self, message: str, *, job_id: str | None = None,
                 requeues: int | None = None):
        super().__init__(message)
        self.job_id = job_id
        self.requeues = requeues


class CacheIntegrityError(ServiceError):
    """A spilled cache entry failed its checksum or could not be read.

    Never fatal to serving — the durable tier quarantines the entry and
    treats the lookup as a miss — but raised by maintenance APIs
    (``DiskCacheTier.verify``) so operators can audit the spill directory.
    ``entry`` names the offending file, ``reason`` the failure.
    """

    def __init__(self, message: str, *, entry: str | None = None,
                 reason: str | None = None):
        super().__init__(message)
        self.entry = entry
        self.reason = reason


class JobTimeoutError(ServiceError):
    """A solve job exceeded its per-job timeout and was evicted.

    Mirrors :class:`CommTimeoutError`'s shape for the serving layer:
    ``job_id`` names the evicted job, ``timeout`` the budget it blew, and
    ``resumable`` whether a mid-flight checkpoint was captured (resubmit
    with ``resume_from=job_id`` to continue from it).
    """

    def __init__(self, message: str, *, job_id: str | None = None,
                 timeout: float | None = None, resumable: bool = False):
        super().__init__(message)
        self.job_id = job_id
        self.timeout = timeout
        self.resumable = resumable


class JobFailedError(ServiceError):
    """A solve job raised; carries the underlying error text and type."""

    def __init__(self, message: str, *, job_id: str | None = None,
                 error_type: str | None = None):
        super().__init__(message)
        self.job_id = job_id
        self.error_type = error_type
