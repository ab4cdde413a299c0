"""On-demand compiled C kernel for the simulator's replay loop.

The replay recurrence — dispatch cursor, ROB drain, MSHR/DRAM heaps,
prefetch fills — is sequential by nature: each access's timing depends
on the previous one's, so no NumPy expression can vectorize it without
changing results.  What *can* change is the cost per step: the
reference loop pays Python interpreter dispatch on every probe and
heap operation.  This module compiles a C transcription of
:meth:`repro.sim.simulator.Simulator._run_reference` and binds it
through :mod:`ctypes`, following the :mod:`repro.snn.ckernel` build
machinery.

Bit-identity contract
---------------------
The C code performs exactly the same IEEE-754 double operations in the
same order as the reference loop:

- ``dispatch += gap / width`` uses one correctly-rounded double
  division, like Python's int/int true division;
- cycle integers (DRAM completions, MSHR entries, instruction ids)
  stay ``int64_t`` and are converted to double only where the Python
  loop mixes them into float arithmetic — exact, because the planner
  rejects traces whose ids could push any derived cycle value toward
  2^53 (:data:`repro.sim.fast_engine.planner.MAX_KERNEL_INSTR_ID`);
- ``int(issue)`` becomes a C cast (both truncate toward zero;
  ``issue`` is never negative);
- the ``done = dispatch + (completion - dispatch)`` float round trip
  is kept verbatim;
- the prefetch completion heap holds (completion, block) pairs with
  Python's tuple ordering, and the heap routines port ``heapq``'s
  exact sift algorithms so ties in completion cycles pop in the same
  order as the Python heap (pop order determines LLC fill order,
  which determines LRU state);
- per-set LRU state is a block array in recency order, front =
  least recent — the victim :class:`repro.sim.cache.SetAssociativeCache`
  picks;
- compiled with ``-ffp-contract=off -fno-fast-math`` so no FMA
  contraction or reassociation can change results.

If no compiler is available (or ``REPRO_NO_CKERNEL=1`` is set, which
also disables :mod:`repro.snn.ckernel`) the simulator runs the
reference loop — slower, never wrong.  Compiled objects share the snn
kernel's cache directory (``$REPRO_CKERNEL_CACHE``), keyed by a hash
of source and compiler.
"""

from __future__ import annotations

import ctypes
import os
from typing import Optional

import numpy as np

from ...snn.ckernel import compile_library

C_SOURCE = r"""
#include <stdint.h>

/* ---- int64 min-heap (heapq's sift algorithms) -------------------- */

static void iheap_push(int64_t *h, int64_t *len, int64_t item)
{
    int64_t pos = (*len)++;
    while (pos > 0) {
        int64_t parent = (pos - 1) >> 1;
        if (item < h[parent]) {
            h[pos] = h[parent];
            pos = parent;
            continue;
        }
        break;
    }
    h[pos] = item;
}

static int64_t iheap_pop(int64_t *h, int64_t *len)
{
    int64_t last = h[--(*len)];
    int64_t end = *len, pos, child, ret;
    if (end == 0) {
        return last;
    }
    ret = h[0];
    pos = 0;
    child = 1;
    while (child < end) {
        int64_t right = child + 1;
        if (right < end && !(h[child] < h[right])) {
            child = right;
        }
        h[pos] = h[child];
        pos = child;
        child = 2 * pos + 1;
    }
    while (pos > 0) {
        int64_t parent = (pos - 1) >> 1;
        if (last < h[parent]) {
            h[pos] = h[parent];
            pos = parent;
            continue;
        }
        break;
    }
    h[pos] = last;
    return ret;
}

/* ---- (completion, block) min-heap with Python tuple ordering ----- */

static int pair_lt(int64_t c1, int64_t b1, int64_t c2, int64_t b2)
{
    return (c1 < c2) || (c1 == c2 && b1 < b2);
}

static void pheap_push(int64_t *hc, int64_t *hb, int64_t *len,
                       int64_t c, int64_t b)
{
    int64_t pos = (*len)++;
    while (pos > 0) {
        int64_t parent = (pos - 1) >> 1;
        if (pair_lt(c, b, hc[parent], hb[parent])) {
            hc[pos] = hc[parent];
            hb[pos] = hb[parent];
            pos = parent;
            continue;
        }
        break;
    }
    hc[pos] = c;
    hb[pos] = b;
}

static void pheap_pop(int64_t *hc, int64_t *hb, int64_t *len,
                      int64_t *out_c, int64_t *out_b)
{
    int64_t lc, lb, end, pos, child;
    lc = hc[--(*len)];
    lb = hb[*len];
    end = *len;
    if (end == 0) {
        *out_c = lc;
        *out_b = lb;
        return;
    }
    *out_c = hc[0];
    *out_b = hb[0];
    pos = 0;
    child = 1;
    while (child < end) {
        int64_t right = child + 1;
        if (right < end
                && !pair_lt(hc[child], hb[child], hc[right], hb[right])) {
            child = right;
        }
        hc[pos] = hc[child];
        hb[pos] = hb[child];
        pos = child;
        child = 2 * pos + 1;
    }
    while (pos > 0) {
        int64_t parent = (pos - 1) >> 1;
        if (pair_lt(lc, lb, hc[parent], hb[parent])) {
            hc[pos] = hc[parent];
            hb[pos] = hb[parent];
            pos = parent;
            continue;
        }
        break;
    }
    hc[pos] = lc;
    hb[pos] = lb;
}

/* ---- open-addressing block -> completion map (pf_inflight) ------- */
/* Keys are block numbers (>= 0, planner-guaranteed); EMPTY/TOMB are
 * negative sentinels.  Inserts only ever follow a failed contains
 * check, so reusing tombstone slots is safe. */

#define MAP_EMPTY (-1)
#define MAP_TOMB  (-2)

static int64_t map_slot(int64_t key, int64_t mask)
{
    uint64_t x = (uint64_t)key * 0x9E3779B97F4A7C15ULL;
    return (int64_t)((x >> 29) & (uint64_t)mask);
}

static int map_contains(const int64_t *keys, int64_t mask, int64_t key)
{
    int64_t i = map_slot(key, mask);
    while (keys[i] != MAP_EMPTY) {
        if (keys[i] == key) {
            return 1;
        }
        i = (i + 1) & mask;
    }
    return 0;
}

static int map_remove(int64_t *keys, const int64_t *vals, int64_t mask,
                      int64_t key, int64_t *val_out)
{
    int64_t i = map_slot(key, mask);
    while (keys[i] != MAP_EMPTY) {
        if (keys[i] == key) {
            *val_out = vals[i];
            keys[i] = MAP_TOMB;
            return 1;
        }
        i = (i + 1) & mask;
    }
    return 0;
}

static void map_insert(int64_t *keys, int64_t *vals, int64_t mask,
                       int64_t key, int64_t val)
{
    int64_t i = map_slot(key, mask);
    while (keys[i] != MAP_EMPTY && keys[i] != MAP_TOMB) {
        i = (i + 1) & mask;
    }
    keys[i] = key;
    vals[i] = val;
}

/* ---- per-set LRU arrays (recency order, front = LRU) ------------- */
/* Each set is a block array in recency order, index 0 = least
 * recent; sets are strided ways+1 wide so an insert can land before
 * the over-capacity eviction, like the dict it mirrors. */

static int64_t set_find(const int64_t *blk, int64_t len, int64_t b)
{
    int64_t j;
    for (j = 0; j < len; j++) {
        if (blk[j] == b) {
            return j;
        }
    }
    return -1;
}

/* config word indices (keep in sync with the Python binding) */
#define CFG_WIDTH 0
#define CFG_ROB 1
#define CFG_MSHR 2
#define CFG_L1_MASK 3
#define CFG_L1_WAYS 4
#define CFG_L1_LAT 5
#define CFG_L2_MASK 6
#define CFG_L2_WAYS 7
#define CFG_L2_LAT 8
#define CFG_LLC_MASK 9
#define CFG_LLC_WAYS 10
#define CFG_LLC_LAT 11
#define CFG_BANKS 12
#define CFG_DRAM_LAT 13
#define CFG_BANK_OCC 14
#define CFG_QSIZE 15

/* counter word indices (keep in sync with the Python binding) */
#define CNT_L1_HITS 0
#define CNT_L1_MISSES 1
#define CNT_L2_HITS 2
#define CNT_L2_MISSES 3
#define CNT_LLC_HITS 4
#define CNT_LLC_MISSES 5
#define CNT_LLC_USEFUL 6
#define CNT_LLC_EVICTED_UNUSED 7
#define CNT_LLC_PF_FILLS 8
#define CNT_DRAM_REQUESTS 9
#define CNT_DRAM_WAIT 10
#define CNT_PF_ISSUED 11
#define CNT_PF_LATE 12
#define CNT_PF_DROPPED 13

int64_t pf_replay(
    int64_t n,
    const int64_t *instr_ids, const int64_t *blocks,
    const int64_t *pf_starts, const int64_t *pf_blocks,
    const int64_t *cfg,
    int64_t *l1_blk, int64_t *l1_len,
    int64_t *l2_blk, int64_t *l2_len,
    int64_t *llc_blk, uint8_t *llc_bit, int64_t *llc_len,
    int64_t *bank_free,
    int64_t *dram_q, int64_t *mshr,
    int64_t *pf_comp, int64_t *pf_blkh,
    int64_t *map_keys, int64_t *map_vals, int64_t map_mask,
    int64_t *rob_ids, double *rob_done, int64_t rob_cap,
    int64_t *wait_out,
    int64_t series_window, int64_t *series_out,
    int64_t *counts_out, double *floats_out)
{
    const int64_t width = cfg[CFG_WIDTH];
    const int64_t rob_size = cfg[CFG_ROB];
    const int64_t mshr_cap = cfg[CFG_MSHR];
    const int64_t l1_mask = cfg[CFG_L1_MASK];
    const int64_t l1_ways = cfg[CFG_L1_WAYS];
    const int64_t l1_lat = cfg[CFG_L1_LAT];
    const int64_t l2_mask = cfg[CFG_L2_MASK];
    const int64_t l2_ways = cfg[CFG_L2_WAYS];
    const int64_t l2_lat = cfg[CFG_L2_LAT];
    const int64_t llc_mask = cfg[CFG_LLC_MASK];
    const int64_t llc_ways = cfg[CFG_LLC_WAYS];
    const int64_t llc_lat = cfg[CFG_LLC_LAT];
    const int64_t n_banks = cfg[CFG_BANKS];
    const int64_t base_latency = cfg[CFG_DRAM_LAT];
    const int64_t bank_occupancy = cfg[CFG_BANK_OCC];
    const int64_t queue_size = cfg[CFG_QSIZE];
    const int64_t l1_stride = l1_ways + 1;
    const int64_t l2_stride = l2_ways + 1;
    const int64_t llc_stride = llc_ways + 1;

    double dispatch = 0.0, commit = 0.0, drain = 0.0;
    int64_t last_instr_id = 0;
    int64_t dram_len = 0, mshr_len = 0, pf_len = 0;
    int64_t rob_head = 0, rob_count = 0;
    int64_t l1_hits = 0, l1_misses = 0;
    int64_t l2_hits = 0, l2_misses = 0;
    int64_t llc_hits = 0, llc_misses = 0;
    int64_t llc_useful = 0, llc_evicted_unused = 0, llc_pf_fills = 0;
    int64_t dram_requests = 0, dram_wait = 0;
    int64_t pf_issued = 0, pf_late = 0, pf_dropped = 0;
    int64_t i, j, k;

    for (i = 0; i < n; i++) {
        int64_t instr_id = instr_ids[i];
        int64_t block = blocks[i];
        double done;

        /* ---- core.dispatch_load ---- */
        int64_t gap = instr_id - last_instr_id;
        last_instr_id = instr_id;
        if (gap > 0) {
            dispatch += (double)gap / (double)width;
        }
        while (rob_count > 0) {
            if (instr_id - rob_ids[rob_head] < rob_size) {
                break;
            }
            if (rob_done[rob_head] > dispatch) {
                dispatch = rob_done[rob_head];
            }
            rob_head = (rob_head + 1) % rob_cap;
            rob_count--;
        }

        /* ---- drain completed prefetches into the LLC ---- */
        while (pf_len > 0 && (double)pf_comp[0] <= dispatch) {
            int64_t fc, fb, dummy;
            pheap_pop(pf_comp, pf_blkh, &pf_len, &fc, &fb);
            if (!map_remove(map_keys, map_vals, map_mask, fb, &dummy)) {
                continue;  /* superseded (demand fetched it first) */
            }
            {
                int64_t set = fb & llc_mask;
                int64_t *sblk = llc_blk + set * llc_stride;
                uint8_t *sbit = llc_bit + set * llc_stride;
                int64_t len = llc_len[set];
                int64_t at = set_find(sblk, len, fb);
                if (at >= 0) {
                    /* resident: refresh recency, keep bit */
                    uint8_t bit = sbit[at];
                    for (j = at; j < len - 1; j++) {
                        sblk[j] = sblk[j + 1];
                        sbit[j] = sbit[j + 1];
                    }
                    sblk[len - 1] = fb;
                    sbit[len - 1] = bit;
                    continue;
                }
                sblk[len] = fb;
                sbit[len] = 1;
                len++;
                llc_pf_fills++;
                if (len > llc_ways) {
                    uint8_t vbit = sbit[0];
                    for (j = 0; j < len - 1; j++) {
                        sblk[j] = sblk[j + 1];
                        sbit[j] = sbit[j + 1];
                    }
                    len--;
                    if (vbit) {
                        llc_evicted_unused++;
                    }
                }
                llc_len[set] = len;
            }
        }

        /* ---- demand access through the hierarchy ---- */
        {
            int64_t l1_set = block & l1_mask;
            int64_t *l1s = l1_blk + l1_set * l1_stride;
            int64_t l1n = l1_len[l1_set];
            int64_t at = set_find(l1s, l1n, block);
            if (at >= 0) {
                /* L1D hit */
                l1_hits++;
                for (j = at; j < l1n - 1; j++) {
                    l1s[j] = l1s[j + 1];
                }
                l1s[l1n - 1] = block;
                done = dispatch + (double)l1_lat;
            }
            else {
                int64_t l2_set, l2n, at2;
                int64_t *l2s;
                l1_misses++;
                l2_set = block & l2_mask;
                l2s = l2_blk + l2_set * l2_stride;
                l2n = l2_len[l2_set];
                at2 = set_find(l2s, l2n, block);
                if (at2 >= 0) {
                    /* L2 hit: refresh L2, fill L1 */
                    l2_hits++;
                    for (j = at2; j < l2n - 1; j++) {
                        l2s[j] = l2s[j + 1];
                    }
                    l2s[l2n - 1] = block;
                    done = dispatch + (double)l2_lat;
                }
                else {
                    int64_t llc_set, llcn, at3;
                    int64_t *llcs;
                    uint8_t *llcb;
                    l2_misses++;
                    llc_set = block & llc_mask;
                    llcs = llc_blk + llc_set * llc_stride;
                    llcb = llc_bit + llc_set * llc_stride;
                    llcn = llc_len[llc_set];
                    at3 = set_find(llcs, llcn, block);
                    if (at3 >= 0) {
                        /* LLC hit; first demand touch of a prefetched
                         * line counts it useful. */
                        llc_hits++;
                        if (llcb[at3]) {
                            llc_useful++;
                        }
                        for (j = at3; j < llcn - 1; j++) {
                            llcs[j] = llcs[j + 1];
                            llcb[j] = llcb[j + 1];
                        }
                        llcs[llcn - 1] = block;
                        llcb[llcn - 1] = 0;
                        done = dispatch + (double)llc_lat;
                    }
                    else {
                        /* LLC miss: late-prefetch match or DRAM trip */
                        int64_t inflight;
                        double completion;
                        llc_misses++;
                        if (map_remove(map_keys, map_vals, map_mask,
                                       block, &inflight)) {
                            double lookup_done = dispatch + (double)llc_lat;
                            pf_late++;
                            completion = ((double)inflight > lookup_done)
                                ? (double)inflight : lookup_done;
                        }
                        else {
                            double issue = dispatch + (double)llc_lat;
                            int64_t cycle, start, bank, completion_i;
                            /* core.mshr_admit */
                            while (mshr_len > 0
                                    && (double)mshr[0] <= issue) {
                                iheap_pop(mshr, &mshr_len);
                            }
                            if (mshr_len >= mshr_cap) {
                                int64_t freed = iheap_pop(mshr, &mshr_len);
                                if ((double)freed > issue) {
                                    issue = (double)freed;
                                }
                                while (mshr_len > 0
                                        && (double)mshr[0] <= issue) {
                                    iheap_pop(mshr, &mshr_len);
                                }
                            }
                            /* dram.access at int(issue) */
                            cycle = (int64_t)issue;
                            while (dram_len > 0 && dram_q[0] <= cycle) {
                                iheap_pop(dram_q, &dram_len);
                            }
                            start = cycle;
                            if (dram_len >= queue_size) {
                                if (dram_q[0] > start) {
                                    start = dram_q[0];
                                }
                                while (dram_len > 0
                                        && dram_q[0] <= start) {
                                    iheap_pop(dram_q, &dram_len);
                                }
                            }
                            bank = block % n_banks;
                            if (bank_free[bank] > start) {
                                start = bank_free[bank];
                            }
                            bank_free[bank] = start + bank_occupancy;
                            completion_i = start + base_latency;
                            iheap_push(dram_q, &dram_len, completion_i);
                            wait_out[dram_requests] = start - cycle;
                            dram_requests++;
                            dram_wait += start - cycle;
                            iheap_push(mshr, &mshr_len, completion_i);
                            completion = (double)completion_i;
                        }
                        /* demand-install in the LLC (fresh insert) */
                        llcs[llcn] = block;
                        llcb[llcn] = 0;
                        llcn++;
                        if (llcn > llc_ways) {
                            uint8_t vbit = llcb[0];
                            for (j = 0; j < llcn - 1; j++) {
                                llcs[j] = llcs[j + 1];
                                llcb[j] = llcb[j + 1];
                            }
                            llcn--;
                            if (vbit) {
                                llc_evicted_unused++;
                            }
                        }
                        llc_len[llc_set] = llcn;
                        /* the reference's float round trip, verbatim */
                        done = dispatch + (completion - dispatch);
                    }
                    if (at3 >= 0) {
                        llc_len[llc_set] = llcn;
                    }

                    /* L2 fill, shared by LLC-hit and LLC-miss paths */
                    l2s[l2n] = block;
                    l2n++;
                    if (l2n > l2_ways) {
                        for (j = 0; j < l2n - 1; j++) {
                            l2s[j] = l2s[j + 1];
                        }
                        l2n--;
                    }
                    l2_len[l2_set] = l2n;
                }
                if (at2 >= 0) {
                    l2_len[l2_set] = l2n;
                }

                /* L1 fill, shared by every L1-miss path */
                l1s[l1n] = block;
                l1n++;
                if (l1n > l1_ways) {
                    for (j = 0; j < l1n - 1; j++) {
                        l1s[j] = l1s[j + 1];
                    }
                    l1n--;
                }
            }
            l1_len[l1_set] = l1n;
        }

        /* ---- core.complete_load ---- */
        rob_ids[(rob_head + rob_count) % rob_cap] = instr_id;
        rob_done[(rob_head + rob_count) % rob_cap] = done;
        rob_count++;
        if (done > commit) {
            commit = done;
        }

        /* ---- issue this trigger's prefetches ---- */
        for (k = pf_starts[i]; k < pf_starts[i + 1]; k++) {
            int64_t pfb = pf_blocks[k];
            int64_t set = pfb & llc_mask;
            int64_t cycle, start, bank, completion_i;
            if (set_find(llc_blk + set * llc_stride,
                         llc_len[set], pfb) >= 0
                    || map_contains(map_keys, map_mask, pfb)) {
                pf_dropped++;
                continue;
            }
            /* dram.access at int(dispatch) */
            cycle = (int64_t)dispatch;
            while (dram_len > 0 && dram_q[0] <= cycle) {
                iheap_pop(dram_q, &dram_len);
            }
            start = cycle;
            if (dram_len >= queue_size) {
                if (dram_q[0] > start) {
                    start = dram_q[0];
                }
                while (dram_len > 0 && dram_q[0] <= start) {
                    iheap_pop(dram_q, &dram_len);
                }
            }
            bank = pfb % n_banks;
            if (bank_free[bank] > start) {
                start = bank_free[bank];
            }
            bank_free[bank] = start + bank_occupancy;
            completion_i = start + base_latency;
            iheap_push(dram_q, &dram_len, completion_i);
            wait_out[dram_requests] = start - cycle;
            dram_requests++;
            dram_wait += start - cycle;
            map_insert(map_keys, map_vals, map_mask, pfb, completion_i);
            pheap_push(pf_comp, pf_blkh, &pf_len, completion_i, pfb);
            pf_issued++;
        }

        /* ---- per-window series write-back (pure observation) ----
         * One cumulative-counter snapshot per window boundary; the
         * Python recorder diffs adjacent rows into per-window deltas.
         * With series_window == 0 this is one always-false branch per
         * access; it never touches replay state, so results stay
         * bit-identical with the series on or off. */
        if (series_window > 0
                && ((i + 1) % series_window == 0 || i + 1 == n)) {
            int64_t *row = series_out + (i / series_window) * 13;
            row[0] = l1_hits;
            row[1] = l1_misses;
            row[2] = l2_hits;
            row[3] = l2_misses;
            row[4] = llc_hits;
            row[5] = llc_misses;
            row[6] = llc_useful;
            row[7] = pf_issued;
            row[8] = pf_late;
            row[9] = pf_dropped;
            row[10] = dram_requests;
            row[11] = dram_wait;
            row[12] = dram_len;  /* gauge: outstanding DRAM queue */
        }
    }

    /* ---- core.finalize (drain = max remaining ROB completion) ---- */
    for (i = 0; i < rob_count; i++) {
        double d = rob_done[(rob_head + i) % rob_cap];
        if (d > drain) {
            drain = d;
        }
    }

    counts_out[CNT_L1_HITS] = l1_hits;
    counts_out[CNT_L1_MISSES] = l1_misses;
    counts_out[CNT_L2_HITS] = l2_hits;
    counts_out[CNT_L2_MISSES] = l2_misses;
    counts_out[CNT_LLC_HITS] = llc_hits;
    counts_out[CNT_LLC_MISSES] = llc_misses;
    counts_out[CNT_LLC_USEFUL] = llc_useful;
    counts_out[CNT_LLC_EVICTED_UNUSED] = llc_evicted_unused;
    counts_out[CNT_LLC_PF_FILLS] = llc_pf_fills;
    counts_out[CNT_DRAM_REQUESTS] = dram_requests;
    counts_out[CNT_DRAM_WAIT] = dram_wait;
    counts_out[CNT_PF_ISSUED] = pf_issued;
    counts_out[CNT_PF_LATE] = pf_late;
    counts_out[CNT_PF_DROPPED] = pf_dropped;
    floats_out[0] = dispatch;
    floats_out[1] = commit;
    floats_out[2] = drain;
    return 0;
}
"""

_INT64_P = ctypes.POINTER(ctypes.c_int64)
_DOUBLE_P = ctypes.POINTER(ctypes.c_double)
_UINT8_P = ctypes.POINTER(ctypes.c_uint8)

#: Counter-word layout of ``counts_out`` (matches the C defines).
COUNT_FIELDS = (
    "l1_hits", "l1_misses", "l2_hits", "l2_misses",
    "llc_hits", "llc_misses", "llc_useful", "llc_evicted_unused",
    "llc_pf_fills", "dram_requests", "dram_wait",
    "pf_issued", "pf_late", "pf_dropped",
)

#: Column layout of each per-window ``series_out`` row (matches the C
#: write-back).  The first twelve columns are cumulative counters; the
#: last is the instantaneous DRAM-queue occupancy gauge at the window
#: boundary.
SERIES_FIELDS = (
    "l1_hits", "l1_misses", "l2_hits", "l2_misses",
    "llc_hits", "llc_misses", "llc_useful",
    "pf_issued", "pf_late", "pf_dropped",
    "dram_requests", "dram_wait", "dram_queue_len",
)

_kernel: Optional["ReplayKernel"] = None
_kernel_tried = False


class ReplayKernel:
    """ctypes binding of the compiled replay kernel."""

    def __init__(self, lib: ctypes.CDLL):
        self._lib = lib
        fn = lib.pf_replay
        fn.restype = ctypes.c_int64
        fn.argtypes = [
            ctypes.c_int64,
            _INT64_P, _INT64_P,          # instr_ids, blocks
            _INT64_P, _INT64_P,          # pf_starts, pf_blocks
            _INT64_P,                    # cfg
            _INT64_P, _INT64_P,          # l1_blk, l1_len
            _INT64_P, _INT64_P,          # l2_blk, l2_len
            _INT64_P, _UINT8_P, _INT64_P,  # llc_blk, llc_bit, llc_len
            _INT64_P,                    # bank_free
            _INT64_P, _INT64_P,          # dram_q, mshr
            _INT64_P, _INT64_P,          # pf_comp, pf_blkh
            _INT64_P, _INT64_P, ctypes.c_int64,  # map_keys/vals/mask
            _INT64_P, _DOUBLE_P, ctypes.c_int64,  # rob_ids/done/cap
            _INT64_P,                    # wait_out
            ctypes.c_int64, _INT64_P,    # series_window, series_out
            _INT64_P, _DOUBLE_P,         # counts_out, floats_out
        ]
        self._replay = fn

    def replay(self, instr_ids: np.ndarray, blocks: np.ndarray,
               pf_starts: np.ndarray, pf_blocks: np.ndarray,
               config, series_window: int = 0) -> dict:
        """Run one full replay; returns counters, cursors, and waits.

        ``config`` is a :class:`repro.sim.simulator.HierarchyConfig`.
        All state is kernel-local (caches assumed cold, prefetch state
        empty — the batch driver checks both).  With ``series_window``
        > 0, ``out["series"]`` holds one cumulative-counter row per
        window (:data:`SERIES_FIELDS` columns) — pure observation, the
        replay itself is unchanged.
        """
        n = len(instr_ids)
        npf = len(pf_blocks)
        cfg = np.array([
            config.core.width, config.core.rob_size, config.core.mshrs,
            config.l1d.sets - 1, config.l1d.ways, config.l1d.latency,
            config.l2.sets - 1, config.l2.ways,
            config.l1d.latency + config.l2.latency,
            config.llc.sets - 1, config.llc.ways,
            config.l1d.latency + config.l2.latency + config.llc.latency,
            config.dram.total_banks, config.dram.base_latency,
            config.dram.bank_occupancy, config.dram.read_queue_size,
        ], dtype=np.int64)

        def level(sets: int, ways: int):
            return (np.empty(sets * (ways + 1), dtype=np.int64),
                    np.zeros(sets, dtype=np.int64))

        l1_blk, l1_len = level(config.l1d.sets, config.l1d.ways)
        l2_blk, l2_len = level(config.l2.sets, config.l2.ways)
        llc_blk, llc_len = level(config.llc.sets, config.llc.ways)
        llc_bit = np.empty(config.llc.sets * (config.llc.ways + 1),
                           dtype=np.uint8)
        bank_free = np.zeros(config.dram.total_banks, dtype=np.int64)
        dram_q = np.empty(config.dram.read_queue_size + 2, dtype=np.int64)
        mshr = np.empty(config.core.mshrs + 2, dtype=np.int64)
        pf_comp = np.empty(npf + 1, dtype=np.int64)
        pf_blkh = np.empty(npf + 1, dtype=np.int64)
        map_cap = 1
        while map_cap < 4 * (npf + 1):
            map_cap *= 2
        map_keys = np.full(map_cap, -1, dtype=np.int64)
        map_vals = np.empty(map_cap, dtype=np.int64)
        rob_cap = config.core.rob_size + 2
        rob_ids = np.empty(rob_cap, dtype=np.int64)
        rob_done = np.empty(rob_cap, dtype=np.float64)
        wait_out = np.empty(n + npf + 1, dtype=np.int64)
        series_rows = (-(-n // series_window) if series_window > 0 else 0)
        series_out = np.zeros((max(1, series_rows), len(SERIES_FIELDS)),
                              dtype=np.int64)
        counts_out = np.zeros(len(COUNT_FIELDS), dtype=np.int64)
        floats_out = np.zeros(3, dtype=np.float64)

        instr_ids = np.ascontiguousarray(instr_ids, dtype=np.int64)
        blocks = np.ascontiguousarray(blocks, dtype=np.int64)
        pf_starts = np.ascontiguousarray(pf_starts, dtype=np.int64)
        pf_blocks = np.ascontiguousarray(pf_blocks, dtype=np.int64)

        def ip(a):
            return a.ctypes.data_as(_INT64_P)

        self._replay(
            n, ip(instr_ids), ip(blocks), ip(pf_starts), ip(pf_blocks),
            ip(cfg),
            ip(l1_blk), ip(l1_len), ip(l2_blk), ip(l2_len),
            ip(llc_blk), llc_bit.ctypes.data_as(_UINT8_P), ip(llc_len),
            ip(bank_free), ip(dram_q), ip(mshr),
            ip(pf_comp), ip(pf_blkh),
            ip(map_keys), ip(map_vals), map_cap - 1,
            ip(rob_ids), rob_done.ctypes.data_as(_DOUBLE_P), rob_cap,
            ip(wait_out),
            series_window if series_window > 0 else 0, ip(series_out),
            ip(counts_out),
            floats_out.ctypes.data_as(_DOUBLE_P),
        )
        out = dict(zip(COUNT_FIELDS, counts_out.tolist()))
        out["dispatch"] = float(floats_out[0])
        out["commit"] = float(floats_out[1])
        out["drain"] = float(floats_out[2])
        out["waits"] = wait_out[:out["dram_requests"]]
        if series_window > 0:
            out["series"] = series_out[:series_rows]
        return out


def load_kernel() -> Optional[ReplayKernel]:
    """The process-wide compiled replay kernel, or ``None``.

    Compiles on first call (cached on disk afterwards).  Returns
    ``None`` — and the simulator runs the reference loop — when
    ``REPRO_NO_CKERNEL=1``, no C compiler is on PATH, or
    compilation/loading fails for any reason.
    """
    global _kernel, _kernel_tried
    if _kernel_tried:
        return _kernel
    _kernel_tried = True
    if os.environ.get("REPRO_NO_CKERNEL") == "1":
        return None
    so_path = compile_library("replay", C_SOURCE)
    if so_path is None:
        return None
    try:
        _kernel = ReplayKernel(ctypes.CDLL(so_path))
    except OSError:
        _kernel = None
    return _kernel
