"""Parallel radix sort (the paper's SPLASH-2-style Radix kernel).

Iterative least-significant-digit radix sort of unsigned integers: one
iteration per ``digit_bits``-bit digit.  Each iteration is the classic
three-phase parallel counting sort:

1. **local histogram** -- each process counts the digit values of its
   contiguous key block;
2. **prefix combine** -- processes read all other processes' histograms
   to compute their global bucket offsets (all-to-all over a small
   shared table: pure communication);
3. **permutation** -- each process writes every key to its destination
   slot, which lands anywhere in the output array -- the scattered
   remote writes that make Radix the worst-locality program in the
   paper's Table 2.

Keys really are sorted (checked against ``numpy.sort``), and the traces
are the exact address stream of the algorithm above over the shared
``keys``/``keys_out``/``histogram`` arrays.

Instruction-cost model: digit extraction and loop overhead cost
``KEY_WORK`` non-memory instructions per key per phase, landing gamma
near the paper's 0.37.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import AddressSpace, ApplicationRun, SpmdApplication
from repro.trace.collector import TraceCollector

__all__ = ["RadixApplication"]

#: Non-memory instructions per key per phase (shift/mask/compare/branch).
KEY_WORK = 2


class RadixApplication(SpmdApplication):
    """LSD radix sort of ``num_keys`` uniform random 32-bit integers."""

    name = "Radix"

    def __init__(
        self,
        num_keys: int = 65_536,
        digit_bits: int = 8,
        key_bits: int = 32,
        num_procs: int = 1,
        seed: int = 0,
    ) -> None:
        super().__init__(num_procs=num_procs, seed=seed)
        if not 0 < digit_bits <= key_bits <= 64:
            raise ValueError("need 0 < digit_bits <= key_bits <= 64 (keys are uint64)")
        if num_keys % num_procs:
            raise ValueError("num_keys must be divisible by num_procs")
        if key_bits % digit_bits:
            raise ValueError("key_bits must be divisible by digit_bits")
        self.num_keys = num_keys
        self.digit_bits = digit_bits
        self.key_bits = key_bits
        self.radix = 1 << digit_bits
        self.passes = key_bits // digit_bits

    @property
    def problem_size(self) -> str:
        if self.num_keys >= 1 << 20:
            size = f"{self.num_keys >> 20}M"
        elif self.num_keys >= 1024:
            size = f"{self.num_keys >> 10}K"
        else:
            size = str(self.num_keys)
        return f"{size} integers, radix {self.radix}"

    # ------------------------------------------------------------------
    def run(self) -> ApplicationRun:
        n, P, R = self.num_keys, self.num_procs, self.radix
        rng = np.random.default_rng(self.seed)
        keys = rng.integers(0, 1 << self.key_bits, size=n, dtype=np.uint64)
        expected = np.sort(keys)

        space = AddressSpace(P)
        src_arr = space.alloc("keys", (n,), element_bytes=8, distribution="block")
        dst_arr = space.alloc("keys_out", (n,), element_bytes=8, distribution="block")
        hist_arr = space.alloc("histogram", (P, R), element_bytes=8, distribution="block")
        collectors = [TraceCollector() for _ in range(P)]

        per = n // P
        cur, out = keys.copy(), np.empty_like(keys)
        cur_h, out_h = src_arr, dst_arr

        for pass_no in range(self.passes):
            shift = np.uint64(pass_no * self.digit_bits)
            digits = ((cur >> shift) & np.uint64(R - 1)).astype(np.int64)

            # Phase 1: local histograms.
            counts = np.zeros((P, R), dtype=np.int64)
            for p in range(P):
                lo, hi = p * per, (p + 1) * per
                counts[p] = np.bincount(digits[lo:hi], minlength=R)
                c = collectors[p]
                key_reads = cur_h.addr_flat(np.arange(lo, hi))
                bucket_rmw = hist_arr.addr(
                    np.full(per, p, dtype=np.int64), digits[lo:hi]
                )
                inter = np.empty(3 * per, dtype=np.int64)
                inter[0::3] = key_reads
                inter[1::3] = bucket_rmw
                inter[2::3] = bucket_rmw
                wr = np.tile(np.array([False, False, True]), per)
                c.record_block(inter, wr, KEY_WORK)
                c.barrier()

            # Phase 2: global offsets -- each process reads the full table.
            # Rank order: digit-major then process (stable counting sort).
            flat = counts.T.ravel()  # (digit, proc)
            starts = np.concatenate([[0], np.cumsum(flat)[:-1]]).reshape(R, P)
            for p in range(P):
                c = collectors[p]
                pi, ri = np.meshgrid(np.arange(P), np.arange(R), indexing="ij")
                c.record_block(hist_arr.addr(pi.ravel(), ri.ravel()), False, 2)
                c.barrier()

            # Phase 3: permutation.
            for p in range(P):
                lo, hi = p * per, (p + 1) * per
                block_digits = digits[lo:hi]
                # destination of key i = start(digit, p) + rank within block
                order = np.argsort(block_digits, kind="stable")
                ranks = np.empty(per, dtype=np.int64)
                ranks[order] = np.arange(per) - np.concatenate(
                    [[0], np.cumsum(np.bincount(block_digits, minlength=R))[:-1]]
                )[block_digits[order]]
                dest = starts[block_digits, p] + ranks
                out[dest] = cur[lo:hi]
                c = collectors[p]
                reads = cur_h.addr_flat(np.arange(lo, hi))
                writes = out_h.addr_flat(dest)
                inter = np.empty(2 * per, dtype=np.int64)
                inter[0::2] = reads
                inter[1::2] = writes
                wr = np.tile(np.array([False, True]), per)
                c.record_block(inter, wr, KEY_WORK)
                c.barrier()

            cur, out = out, cur
            cur_h, out_h = out_h, cur_h

        verified = bool(np.array_equal(cur, expected))
        return ApplicationRun(
            name=self.name,
            problem_size=self.problem_size,
            num_procs=P,
            traces=tuple(c.finalize() for c in collectors),
            address_space=space,
            verified=verified,
            extras={"passes": self.passes, "radix": R},
        )
