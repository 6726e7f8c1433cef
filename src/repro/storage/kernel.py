"""Blocked-kernel execution over a pinned snapshot.

The merge path in :mod:`repro.storage.snapshot` is exact but scalar —
one GInTop-k call per (weight, segment).  When the scheduler coalesces
a batch of queries against one snapshot, it pays off to densify: gather
the snapshot's live rows once, build a
:class:`~repro.vectorized.girkernel.GirKernelRRQ` over them, and run
every query of the batch through the BLAS kernel.  Answers come back in
*local* (dense) indices; this wrapper maps them to the snapshot's
stable global ids.

The remap preserves byte-identical tie-breaking: live rows are gathered
in ascending global-id order, so local order *is* global order and the
kernel's lexicographic ``(rank, index)`` truncation commutes with the
id map.

Build cost is O((|P| + |W|) d) quantization — amortized two ways:

* :meth:`SnapshotKernel.matches`: the scheduler caches the kernel and
  rebuilds only when the store generation moved;
* ``cache_dir``: the densified kernel of a *sealed* state (empty delta)
  is persisted through :mod:`repro.vectorized.kernelstore` under
  ``<cache_dir>/gen-<manifest generation>-<lsn>`` — an identity that
  survives a restart, unlike the in-memory store generation — so a
  process restart against an unchanged store re-acquires it by
  memory-mapping instead of rebuilding.  A cached entry is used only if
  its saved id maps equal the snapshot's live ids; older entries are
  pruned after each save.  States with a non-empty delta are never
  persisted: they change with every write.
"""

from __future__ import annotations

import shutil
from pathlib import Path
from typing import Optional, Union

import numpy as np

from ..data.datasets import ProductSet, WeightSet
from ..errors import DataValidationError, IndexCorruptionError
from ..queries.types import RKRResult, RTKResult
from ..vectorized.girkernel import GirKernelRRQ
from ..vectorized.kernelstore import load_kernel_bundle, save_kernel
from .snapshot import StoreSnapshot

PathLike = Union[str, Path]


class SnapshotKernel:
    """A :class:`GirKernelRRQ` over one snapshot's live rows, id-remapped.

    Construct through :meth:`build` (returns None when the snapshot is
    empty on either side — the merge path handles those).
    """

    def __init__(self, kernel: GirKernelRRQ, p_gids, w_gids,
                 generation: int, mmap_loaded: bool = False,
                 variant: Optional[str] = None):
        self.kernel = kernel
        self.p_gids = p_gids
        self.w_gids = w_gids
        #: Store generation the kernel was built from.
        self.generation = int(generation)
        #: True when this kernel came off the mmap cache, False when it
        #: was densified from the snapshot (observability only).
        self.mmap_loaded = bool(mmap_loaded)
        #: Tuned-config short digest when the auto-tuner chose the grid,
        #: None for the default build.  The scheduler keys its cache on
        #: (generation, variant) so a tuner swap forces a rebuild.
        self.variant = variant

    @classmethod
    def build(cls, snapshot: StoreSnapshot, use_domin: bool = True,
              cache_dir: Optional[PathLike] = None, tuning=None,
              ) -> Optional["SnapshotKernel"]:
        """Densify ``snapshot`` into a kernel, via the mmap cache if warm.

        With ``cache_dir`` set, ``<cache_dir>/gen-<generation>`` is
        tried first: a hit memory-maps the previously densified arrays
        (O(mmap), no gather/quantize/validate work); a miss — or a
        corrupt / parameter-mismatched entry — falls through to a fresh
        build whose result is saved back (and older generations pruned).

        ``tuning`` (a :class:`~repro.tuning.tuner.CandidateConfig`)
        overrides the default grid recipe: the kernel is built by
        :func:`~repro.tuning.tuner.build_tuned_kernel` and cached under
        ``gen-<N>-<lsn>-<variant>`` so tuned and default entries never
        alias.  Only snapshots with an empty delta touch the cache.
        """
        if snapshot.num_products == 0 or snapshot.num_weights == 0:
            return None
        variant = None
        if tuning is not None:
            use_domin = bool(tuning.use_domin)
            variant = tuning.short()
        if not snapshot.delta_empty:
            cache_dir = None
        if cache_dir is not None:
            cached = cls._load_cached(snapshot, use_domin, cache_dir,
                                      variant=variant)
            if cached is not None:
                return cached
        p_rows, p_gids = snapshot.live_products()
        w_rows, w_gids = snapshot.live_weights()
        products = ProductSet(p_rows, value_range=snapshot.value_range)
        weights = WeightSet(w_rows)
        if tuning is not None:
            from ..tuning.tuner import build_tuned_kernel

            kernel = build_tuned_kernel(products, weights, tuning)
        else:
            kernel = GirKernelRRQ(
                products, weights,
                partitions=max(1, snapshot.segments[0].partitions
                               if snapshot.segments else 32),
                use_domin=use_domin,
            )
        built = cls(kernel, p_gids, w_gids, snapshot.generation,
                    variant=variant)
        if cache_dir is not None:
            built.persist(cache_dir, snapshot)
        return built

    # ------------------------------------------------------------------
    # mmap cache
    # ------------------------------------------------------------------

    @staticmethod
    def _gen_dir(cache_dir: PathLike, snapshot: StoreSnapshot,
                 variant: Optional[str] = None) -> Path:
        name = f"gen-{snapshot.manifest_generation}-{snapshot.lsn}"
        if variant is not None:
            name = f"{name}-{variant}"
        return Path(cache_dir) / name

    @classmethod
    def _load_cached(cls, snapshot: StoreSnapshot, use_domin: bool,
                     cache_dir: PathLike, variant: Optional[str] = None,
                     ) -> Optional["SnapshotKernel"]:
        gen_dir = cls._gen_dir(cache_dir, snapshot, variant)
        try:
            kernel, extras = load_kernel_bundle(gen_dir)
        except (IndexCorruptionError, DataValidationError, OSError):
            return None
        if kernel.core.use_domin != use_domin or \
                "p_gids" not in extras or "w_gids" not in extras:
            return None
        # The key names a sealed state, but only the ids prove it: an
        # entry written by another store (or before a lost commit) is
        # refused, and rebuilt, unless its ids are this snapshot's.
        if not (np.array_equal(extras["p_gids"], snapshot.live_products()[1])
                and np.array_equal(extras["w_gids"],
                                   snapshot.live_weights()[1])):
            return None
        return cls(kernel, np.asarray(extras["p_gids"]),
                   np.asarray(extras["w_gids"]),
                   snapshot.generation, mmap_loaded=True, variant=variant)

    def persist(self, cache_dir: PathLike, snapshot: StoreSnapshot) -> Path:
        """Save this kernel (built from ``snapshot``, whose delta must be
        empty) under ``cache_dir`` and prune every other entry.  Returns
        the entry path."""
        gen_dir = self._gen_dir(cache_dir, snapshot, self.variant)
        save_kernel(gen_dir, self.kernel, extras={
            "p_gids": np.asarray(self.p_gids, dtype=np.int64),
            "w_gids": np.asarray(self.w_gids, dtype=np.int64),
        })
        root = Path(cache_dir)
        for entry in root.glob("gen-*"):
            if entry != gen_dir and entry.is_dir():
                shutil.rmtree(entry, ignore_errors=True)
        return gen_dir

    def matches(self, snapshot: StoreSnapshot) -> bool:
        """True when ``snapshot`` shows the exact state this was built on."""
        return snapshot.generation == self.generation

    # ------------------------------------------------------------------
    # queries: a single query is a batch of one, so each kind remaps ids
    # in one place, its batch form
    # ------------------------------------------------------------------

    def reverse_topk(self, q, k: int) -> RTKResult:
        return self.reverse_topk_batch([q], k)[0]

    def reverse_kranks(self, q, k: int) -> RKRResult:
        return self.reverse_kranks_batch([q], k)[0]

    def reverse_topk_batch(self, queries, k):
        results = self.kernel.reverse_topk_batch(queries, k)
        return [RTKResult(weights=frozenset(int(self.w_gids[j])
                                            for j in res.weights),
                          k=res.k, counter=res.counter)
                for res in results]

    def reverse_kranks_batch(self, queries, k):
        results = self.kernel.reverse_kranks_batch(queries, k)
        return [RKRResult(entries=tuple((rank, int(self.w_gids[j]))
                                        for rank, j in res.entries),
                          k=res.k, counter=res.counter)
                for res in results]

    @property
    def last_stats(self):
        return self.kernel.last_stats
