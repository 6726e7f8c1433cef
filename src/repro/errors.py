"""Typed exceptions raised by the :mod:`repro` library.

Every invalid input detected by the library raises one of these classes so
callers can distinguish user errors from genuine bugs.  All of them derive
from :class:`ReproError`, which itself derives from :class:`ValueError` to
stay friendly to generic exception handling.
"""

from __future__ import annotations


class ReproError(ValueError):
    """Base class for all errors raised by the repro library."""


class DataValidationError(ReproError):
    """A data set (products or weights) failed validation.

    Raised for negative values, NaN/inf entries, wrong shapes, or weight
    vectors that do not sum to one.
    """


class DimensionMismatchError(ReproError):
    """Two objects that must share dimensionality do not."""


class EmptyDatasetError(ReproError):
    """An operation requires a non-empty data set."""


class InvalidParameterError(ReproError):
    """A query or index parameter is out of its valid domain.

    Examples: ``k <= 0``, a partition count that is not positive, or a
    histogram resolution of zero.
    """


class IndexCorruptionError(ReproError):
    """An index structure or persisted artifact violated an invariant.

    Raised by in-memory self-check routines (e.g.
    :meth:`RTree.check_invariants`) and by the storage layer when a
    persisted index fails its manifest checksums
    (:func:`repro.core.storage.load_index`).  For storage corruption the
    structured attributes say *what* is damaged so callers can decide
    between rebuild-from-raw recovery and degraded naive serving.

    Attributes
    ----------
    directory:
        The index directory, when the corruption is on disk.
    artifacts:
        Tuple of damaged artifact file names (may be empty).
    recoverable:
        True when the raw data and metadata are intact, i.e. a rebuild
        of the approximate vectors can heal the index in place.
    """

    def __init__(self, message: str, *, directory=None,
                 artifacts=(), recoverable: bool = False):
        super().__init__(message)
        self.directory = directory
        self.artifacts = tuple(artifacts)
        self.recoverable = bool(recoverable)


class WalCorruptionError(ReproError):
    """A write-ahead log failed its framing or checksum checks mid-log.

    Torn *trailing* records (an interrupted append) are expected after a
    crash and are silently dropped by recovery; this error is reserved
    for damage that cannot be explained by a torn tail — a CRC mismatch
    or framing violation with valid bytes after it — which means
    acknowledged history is gone and recovery must not silently proceed.

    Attributes
    ----------
    path:
        The WAL file, when known.
    offset:
        Byte offset of the first record that failed verification.
    lsn:
        LSN of the last successfully decoded record before the damage.
    """

    def __init__(self, message: str, *, path=None, offset: int = -1,
                 lsn: int = 0):
        super().__init__(message)
        self.path = path
        self.offset = int(offset)
        self.lsn = int(lsn)


class ServiceError(ReproError):
    """Base class for admission-control rejections raised by
    :mod:`repro.service`.

    These are *load* conditions, not caller mistakes: the request itself
    was well-formed but the service chose not to (or could not) answer it
    in time.  The HTTP frontend maps them to 4xx/5xx status codes (see
    :func:`repro.service.limits.http_status`).
    """


class ServiceOverloadError(ServiceError):
    """The admission queue is full; the request was rejected (HTTP 429)."""


class DeadlineExceededError(ServiceError):
    """The request's deadline elapsed before an answer was produced
    (HTTP 504)."""


class ServiceUnavailableError(ServiceError):
    """The service cannot currently answer at all (HTTP 503).

    Raised when the server is shutting down (requests are drained with
    structured rejections instead of dropped connections), when the
    engine is down and no fallback is configured, or by the client when
    the server cannot be reached at the transport level (connection
    refused, reset, DNS failure) — distinct from an HTTP-level error,
    which means the server is up and answered.
    """


class NotPrimaryError(ServiceError):
    """A mutation was sent to a replica that is not the primary (HTTP 409).

    Standbys serve reads (and the replication feed) but refuse writes
    until promoted via ``POST /promote``; the client uses this signal to
    keep writes on the primary while reads fail over freely.
    """


class KernelUnavailableError(RuntimeError):
    """The serving kernel could not be built (its retry backoff is running).

    Deliberately not a :class:`ReproError`: it is an engine failure, not a
    caller mistake, so the service trips its circuit breaker and answers
    from the exact naive fallback (flagged ``degraded``) — or, with the
    fallback disabled, fails the request with HTTP 500.
    """
