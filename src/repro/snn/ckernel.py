"""On-demand compiled C kernels: the one-tick library.

One library holds the compiled loops of three prefetchers:

- ``pf_pathfinder_chunk`` runs
  :meth:`~repro.core.pathfinder.PathfinderPrefetcher.process` access by
  access over a trace chunk — Training-Table lookup, insert and LRU
  eviction, observe, encode, the one-tick SNN step, predict and address
  composition — on the prefetcher's own array-backed tables.  Its SNN
  step, ``tick_one``, is a C translation of
  :meth:`~repro.snn.network.DiehlCookNetwork.present_one_tick`.
- ``pf_pythia_chunk`` runs
  :meth:`~repro.prefetchers.pythia.PythiaPrefetcher.process` access by
  access over a trace chunk on the prefetcher's keyed row stores and
  evaluation-queue ring, with the Python code's floating-point
  operations in its order and its stable greedy pick (ties in
  action-list order).  ``pf_pythia_explore`` makes the chunk's
  epsilon-greedy draws first, from the prefetcher's own NumPy bit
  generator: the ``random()`` and ``choice(..., replace=False)`` calls
  of :meth:`~repro.prefetchers.pythia.PythiaPrefetcher.process`, step
  for step as NumPy makes them.
- ``pf_spp_chunk`` runs
  :meth:`~repro.prefetchers.spp.SPPPrefetcher.process` the same way on
  SPP's Signature and Pattern Tables, with the first maximal count in
  slot order as the best delta and the path confidence as one division
  and one multiply per step.

A NumPy expression of the same step bottoms out at ~10 us/query
because the arithmetic is tiny (~4 KFLOP) and every ufunc call costs
~1 us of dispatch.  The library is compiled with the system C compiler
and bound through :mod:`ctypes`.

Table operations
----------------
The tables are associative with LRU replacement, as in hardware, and
every lookup and eviction in the loops is O(1).  The Python
``process()`` methods keep the readable oracle forms over the same
arrays: a scan for the lookup and ``np.argmin`` of the stamps for the
victim.  The loops build loop-local scratch from those arrays at each
call, sized by the Python caller, so either path can take over from the
other mid-trace:

- PATHFINDER's Training Table and SPP's Signature Table are found
  through a hash index from the row key ((pc, page), or the page) to
  the row: linear probing, removal by backward shift.
- The Training Table and SPP's Signature and Pattern Tables keep their
  rows in use as an LRU list (prev/next links), built by sorting the
  rows by stamp.  A use stamps the row with the next clock value and
  moves it to the tail.  Stamps are distinct clock values, so the head
  is the row ``np.argmin`` of the stamps picks, and it is the victim.
- Pythia's demand hits come from an index from each block to a FIFO
  of its pending evaluation-queue slots, oldest first, which is the
  order the ring from its tail gives.  The slot an enqueue overwrites
  is the ring's oldest entry, so it heads its block's FIFO and is
  popped from there.
- PATHFINDER's health scan reads a count of non-finite weights per
  column.  One full scan at loop entry makes it, and ``tick_one``
  recounts each column it writes.

Bit-identity contract
---------------------
The C code performs *exactly* the same IEEE-754 double operations in
the same order as ``present_one_tick``:

- the drive accumulation matches ``np.add.reduce(rows, axis=0)``
  (strictly sequential over rows, seeded with the first row);
- the column total matches NumPy's 1-D ``add.reduce`` by porting its
  pairwise summation (8-accumulator unrolled blocks of <= 128, halved
  recursively above that);
- clip is a compare-select equal to ``np.maximum``/``np.minimum``
  (NaN passes through, a tie takes the bound) for bounds that are not
  NaN, which the SNN configs guarantee;
- it is compiled with ``-ffp-contract=off -fno-fast-math`` so no FMA
  contraction or reassociation can change results.

The winner is the first index attaining the maximal score (NaN scores
never win), which is what the stable
``np.negative(scores).argsort(kind="stable")[0]`` of
``present_one_tick`` picks.  The table operations are integer-exact:
they leave the same rows, stamps and clocks as the Python ones.
``pf_pairwise_sum`` exposes the summation to the parity tests.

If no compiler is available (or ``REPRO_NO_CKERNEL=1`` is set) the
callers fall back to the scalar Python path — slower, never wrong.
:func:`repro._cbuild.load_library` builds the library once per
environment into ``$REPRO_CKERNEL_CACHE`` and loads it once per process.
"""

from __future__ import annotations

import ctypes
from typing import List, Optional

import numpy as np

from .._cbuild import load_library
from ..types import BLOCK_BITS, BLOCKS_PER_PAGE, PAGE_BITS

#: C translation of the one-tick step and the PATHFINDER, Pythia and
#: SPP loops, with the address-layout constants of :mod:`repro.types`
#: prepended.  Kept as a string (not a data file) so the module is
#: self-contained under any packaging.
C_SOURCE = "".join(f"#define {name} {value}\n" for name, value in (
    ("PAGE_BITS", PAGE_BITS), ("BLOCK_BITS", BLOCK_BITS),
    ("BLOCKS_PER_PAGE", BLOCKS_PER_PAGE))) + r"""
#include <math.h>
#include <stdint.h>

/* NumPy's 1-D pairwise summation (numpy/_core/src/umath/loops.c.src,
 * pairwise_sum_DOUBLE) for a contiguous buffer: bit-identical partial
 * sums, required so the renormalisation total matches np.add.reduce. */
static double pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        int64_t i;
        double res = 0.;
        for (i = 0; i < n; i++) {
            res += a[i];
        }
        return res;
    }
    else if (n <= 128) {
        double r[8], res;
        int64_t i;
        r[0] = a[0]; r[1] = a[1]; r[2] = a[2]; r[3] = a[3];
        r[4] = a[4]; r[5] = a[5]; r[6] = a[6]; r[7] = a[7];
        for (i = 8; i < n - (n % 8); i += 8) {
            r[0] += a[i + 0]; r[1] += a[i + 1];
            r[2] += a[i + 2]; r[3] += a[i + 3];
            r[4] += a[i + 4]; r[5] += a[i + 5];
            r[6] += a[i + 6]; r[7] += a[i + 7];
        }
        res = ((r[0] + r[1]) + (r[2] + r[3]))
            + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++) {
            res += a[i];
        }
        return res;
    }
    else {
        int64_t n2 = n / 2;
        n2 -= n2 % 8;
        return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
    }
}

double pf_pairwise_sum(const double *a, int64_t n)
{
    return pairwise_sum(a, n);
}

/* ---- Loop-local table scratch ------------------------------------- */

/* The compiled loops find and evict rows of the prefetchers' tables in
 * O(1) through two kinds of scratch, rebuilt from the shared arrays at
 * each loop call: a hash index from a row's key to the row, and an LRU
 * list of the rows. */

static uint64_t key_hash(int64_t a, int64_t b)
{
    uint64_t h = (uint64_t)a * 0x9E3779B97F4A7C15ULL
                 ^ (uint64_t)b * 0xC2B2AE3D27D4EB4FULL;
    return h ^ (h >> 31);
}

/* A hash index over a table's rows: mask + 1 slots (a power of two
 * above twice the rows), each a row or -1, probed linearly from the
 * key's hash.  Row r's key is (a[r], b[r]); a table keyed by one value
 * passes it as both. */
typedef struct {
    int64_t *slots;
    uint64_t mask;
    const int64_t *a, *b;
} pf_index;

/* The slot holding key (a, b), or the empty slot where it would go. */
static uint64_t index_find(const pf_index *x, int64_t a, int64_t b)
{
    uint64_t i = key_hash(a, b) & x->mask;
    for (;;) {
        int64_t row = x->slots[i];
        if (row < 0 || (x->a[row] == a && x->b[row] == b)) {
            return i;
        }
        i = (i + 1) & x->mask;
    }
}

/* Empty slot i and shift later entries of its probe run back, so every
 * key stays reachable from its home slot without tombstones. */
static void index_remove(pf_index *x, uint64_t i)
{
    uint64_t j = i;
    for (;;) {
        j = (j + 1) & x->mask;
        int64_t row = x->slots[j];
        if (row < 0) {
            break;
        }
        uint64_t home = key_hash(x->a[row], x->b[row]) & x->mask;
        /* The entry stays put iff home lies cyclically in (i, j]. */
        if (i <= j ? (i < home && home <= j) : (i < home || home <= j)) {
            continue;
        }
        x->slots[i] = row;
        i = j;
    }
    x->slots[i] = -1;
}

/* Index rows [0, rows), whose keys are distinct. */
static void index_build(pf_index *x, int64_t rows)
{
    uint64_t k;
    int64_t r;
    for (k = 0; k <= x->mask; k++) {
        x->slots[k] = -1;
    }
    for (r = 0; r < rows; r++) {
        x->slots[index_find(x, x->a[r], x->b[r])] = r;
    }
}

/* A table's rows in use as an LRU list: prev/next links (-1 ends the
 * list) from head, the least recently used row, to tail.  A row's use
 * stamps it with the next value of *clock and moves it to the tail, so
 * the list stays in stamp order and its head is the row np.argmin of
 * the stamps picks. */
typedef struct {
    int64_t *prev, *next, *stamp, *clock;
    int64_t head, tail;
} pf_lru;

static void lru_push(pf_lru *l, int64_t row)
{
    l->prev[row] = l->tail;
    l->next[row] = -1;
    if (l->tail >= 0) {
        l->next[l->tail] = row;
    }
    else {
        l->head = row;
    }
    l->tail = row;
}

/* Use a row already in the list. */
static void lru_use(pf_lru *l, int64_t row)
{
    l->stamp[row] = ++*l->clock;
    if (row == l->tail) {
        return;
    }
    int64_t prev = l->prev[row], next = l->next[row];
    if (prev >= 0) {
        l->next[prev] = next;
    }
    else {
        l->head = next;
    }
    l->prev[next] = prev;
    lru_push(l, row);
}

/* Use a row new to the list. */
static void lru_add(pf_lru *l, int64_t row)
{
    l->stamp[row] = ++*l->clock;
    lru_push(l, row);
}

/* Row x was used before row y: a lower stamp, or on a tie (which a
 * clock never makes) the lower row, as np.argmin picks. */
static int used_before(const int64_t *stamp, int64_t x, int64_t y)
{
    return stamp[x] < stamp[y] || (stamp[x] == stamp[y] && x < y);
}

static void sift_down(const int64_t *stamp, int64_t *heap, int64_t k,
                      int64_t n)
{
    int64_t row = heap[k];
    for (;;) {
        int64_t child = 2 * k + 1;
        if (child >= n) {
            break;
        }
        if (child + 1 < n
                && used_before(stamp, heap[child], heap[child + 1])) {
            child++;
        }
        if (!used_before(stamp, row, heap[child])) {
            break;
        }
        heap[k] = heap[child];
        k = child;
    }
    heap[k] = row;
}

/* Link rows [0, rows) in stamp order: a heap sort of the row numbers
 * in next[], then each row's predecessor, then the successors. */
static void lru_build(pf_lru *l, int64_t rows)
{
    int64_t *order = l->next, k;
    for (k = 0; k < rows; k++) {
        order[k] = k;
    }
    for (k = rows / 2; k-- > 0;) {
        sift_down(l->stamp, order, k, rows);
    }
    for (k = rows - 1; k > 0; k--) {
        int64_t top = order[0];
        order[0] = order[k];
        order[k] = top;
        sift_down(l->stamp, order, 0, k);
    }
    l->head = rows ? order[0] : -1;
    l->tail = rows ? order[rows - 1] : -1;
    for (k = 0; k < rows; k++) {
        l->prev[order[k]] = k ? order[k - 1] : -1;
    }
    for (k = 0; k < rows; k++) {
        if (l->prev[k] >= 0) {
            l->next[l->prev[k]] = k;
        }
    }
    if (rows) {
        l->next[l->tail] = -1;
    }
}

/* ---- The one-tick step -------------------------------------------- */

/* The network's state and one-tick constants (DiehlCookNetwork.
 * kernel_args; NetArgs below mirrors this layout). */
typedef struct {
    double *w;              /* (n_input, n_neurons) C-contiguous, updated */
    double *theta;          /* (n_neurons,) adaptive thresholds, updated */
    const double *v;        /* (n_neurons,) membranes (health scan only) */
    double *drive_buf;      /* (n_neurons,) scratch */
    double *column_buf;     /* (n_input,) scratch */
    int64_t *nonfinite;     /* (n_neurons,) scratch: bad weights per column */
    int64_t n_input, n_neurons, health_interval;
    double threshold_gap, max_probability, stdp_d0, stdp_d1;
    double w_min, w_max, norm, theta_plus, theta_max, theta_decay;
    int32_t clamp_gap, do_stdp, has_norm, has_theta_max;
} pf_net;

/* Count each weight column's non-finite values into nonfinite[]: the
 * weight scan of DiehlCookNetwork.check_weight_health, made once per
 * loop call.  tick_one recounts each column it writes. */
static void count_nonfinite(const pf_net *s)
{
    int64_t c, i;
    for (c = 0; c < s->n_neurons; c++) {
        s->nonfinite[c] = 0;
    }
    for (i = 0; i < s->n_input; i++) {
        const double *row = s->w + i * s->n_neurons;
        for (c = 0; c < s->n_neurons; c++) {
            s->nonfinite[c] += !isfinite(row[c]);
        }
    }
}

/* The scan of DiehlCookNetwork.check_weight_health: a column with a
 * non-finite weight, or a non-finite theta or membrane value.  Runs on
 * the same cadence as the scalar path; a hit makes the PATHFINDER loop
 * return early so Python can run the (seeded, stateful) repair. */
static int unhealthy(const pf_net *s)
{
    int64_t c;
    for (c = 0; c < s->n_neurons; c++) {
        if (s->nonfinite[c] || !isfinite(s->theta[c])
                || !isfinite(s->v[c])) {
            return 1;
        }
    }
    return 0;
}

/* np.minimum(np.maximum(v, lo), hi) for bounds that are not NaN (the
 * configs reject them): a NaN v passes through, and a tie (incl. -0.0
 * vs 0.0) takes the bound, the second operand. */
static double clip(double v, double lo, double hi)
{
    v = v <= lo ? lo : v;
    return v >= hi ? hi : v;
}

/* One one-tick presentation of the sorted active pixels act[0..n_active).
 * Mirrors DiehlCookNetwork.present_one_tick op for op; see that method
 * for the derivation.  Returns the winner. */
static int64_t tick_one(const pf_net *s, const int64_t *act,
                        int64_t n_active, int learn)
{
    /* Locals, so stores through the buffers cannot force reloads. */
    double *w = s->w, *theta = s->theta;
    double *drive_buf = s->drive_buf, *column_buf = s->column_buf;
    const int64_t n_input = s->n_input, n_neurons = s->n_neurons;
    const double max_probability = s->max_probability;
    const double threshold_gap = s->threshold_gap;
    const int clamp_gap = s->clamp_gap;
    int64_t c, i, k;

    /* drive = add.reduce(w.take(active, axis=0), axis=0) * P, rows
     * added in order onto the first: all but the last into drive_buf
     * here, the last in the score pass. */
    const double *last = n_active ? w + act[n_active - 1] * n_neurons : w;
    if (n_active > 1) {
        const double *row = w + act[0] * n_neurons;
        for (c = 0; c < n_neurons; c++) {
            drive_buf[c] = row[c];
        }
        for (k = 1; k < n_active - 1; k++) {
            row = w + act[k] * n_neurons;
            for (c = 0; c < n_neurons; c++) {
                drive_buf[c] += row[c];
            }
        }
    }

    /* scores = drive / (theta + threshold_gap); first-max argmax */
    int64_t winner = 0;
    double best = -INFINITY;
    for (c = 0; c < n_neurons; c++) {
        double drive = n_active > 1 ? drive_buf[c] + last[c]
                       : n_active ? last[c] : 0.0;
        double gap = theta[c] + threshold_gap;
        if (clamp_gap && gap < 1e-9) {
            gap = 1e-9;
        }
        double score = drive * max_probability / gap;
        if (score > best) {
            best = score;
            winner = c;
        }
    }

    if (learn) {
        if (s->do_stdp) {
            /* The winner column in two strided passes: read it with
             * the STDP step and clip, then write it back renormalised,
             * recounting its non-finite weights. */
            double *wcol = w + winner;
            const double d0 = s->stdp_d0, d1 = s->stdp_d1;
            const double w_min = s->w_min, w_max = s->w_max;
            int64_t bad = 0;
            for (i = 0; i < n_input; i++) {
                column_buf[i] = clip(wcol[i * n_neurons] + d0, w_min, w_max);
            }
            for (k = 0; k < n_active; k++) {
                int64_t a = act[k];
                column_buf[a] = clip(wcol[a * n_neurons] + d1, w_min, w_max);
            }
            if (s->has_norm) {
                double total = pairwise_sum(column_buf, n_input);
                if (total == 0.0) {
                    total = 1.0;
                }
                const double scale = s->norm / total;
                for (i = 0; i < n_input; i++) {
                    double x = column_buf[i] * scale;
                    wcol[i * n_neurons] = x;
                    bad += !isfinite(x);
                }
            }
            else {
                for (i = 0; i < n_input; i++) {
                    wcol[i * n_neurons] = column_buf[i];
                    bad += !isfinite(column_buf[i]);
                }
            }
            s->nonfinite[winner] = bad;
        }
        if (s->theta_plus != 0.0) {
            double tw = theta[winner];
            if (s->has_theta_max) {
                double room = 1.0 - tw / s->theta_max;
                if (!(room > 0.0)) {
                    room = 0.0;
                }
                theta[winner] = tw + s->theta_plus * room;
            }
            else {
                theta[winner] = tw + s->theta_plus;
            }
        }
        const double theta_decay = s->theta_decay;
        for (c = 0; c < n_neurons; c++) {
            theta[c] *= theta_decay;
        }
    }
    return winner;
}

/* ---- The PATHFINDER loop ------------------------------------------ */

/* PAGE_BITS, BLOCK_BITS and BLOCKS_PER_PAGE are defined from
 * repro.types at the top of the source. */
#define NO_NEURON (-1)
#define NO_PENDING INT64_MIN

/* PATHFINDER's array-backed state (core/training_table.py,
 * core/inference_table.py, the encoder's lit-pixel CSR in
 * core/pixel.py) and its counters; PathfinderArgs below mirrors this
 * layout. */
typedef struct {
    /* Training Table: capacity rows, rows [0, tt_rows) in use. */
    int64_t *tt_pc, *tt_page, *tt_last_offset, *tt_deltas, *tt_n_deltas;
    int64_t *tt_fired, *tt_predicted, *tt_n_predicted, *tt_stamp;
    /* Inference Table: labels_per_neuron slots per neuron. */
    int64_t *it_label, *it_confidence, *it_count, *it_pending;
    /* Encoder: entry row * width + delta + max_delta lights
     * lit_flat[lit_starts[entry]:lit_starts[entry + 1]]. */
    const int64_t *lit_starts, *lit_flat;
    /* Scratch: the (pc, page) -> row hash index (index_size slots),
     * the LRU links (capacity each), the active-pixel buffer (n_input)
     * and the slot ranking buffer (labels_per_neuron). */
    int64_t *index, *lru_prev, *lru_next, *active, *rank;
    int64_t index_size;
    /* Configuration. */
    int64_t capacity, history, degree, width, max_delta;
    int64_t labels_per_neuron, confidence_max, confidence_init;
    int64_t confidence_threshold, require_confirmation, cold_pages;
    int64_t stdp_epoch, stdp_on_accesses;
    /* Counters, read and advanced. */
    int64_t tt_rows, tt_clock, tt_evictions;
    int64_t labels_assigned, labels_erased;
    int64_t correct_observations, wrong_observations;
    int64_t accesses_seen, snn_queries, stdp_updates, prefetches_emitted;
    int64_t pred_checked, pred_correct, intervals;
    /* Output: the row of the access a health scan stopped at. */
    int64_t stop_row;
} pf_tables;

/* TrainingTable.insert after a lookup miss at index slot `slot`: a
 * free row, or the least recently used one. */
static int64_t tt_insert(pf_tables *t, pf_index *index, pf_lru *lru,
                         int64_t pc, int64_t page, int64_t offset,
                         uint64_t slot)
{
    int64_t row, k;
    if (t->tt_rows < t->capacity) {
        row = t->tt_rows++;
        lru_add(lru, row);
    }
    else {
        row = lru->head;
        t->tt_evictions++;
        index_remove(index, index_find(index, t->tt_pc[row], t->tt_page[row]));
        slot = index_find(index, pc, page);
        lru_use(lru, row);
    }
    index->slots[slot] = row;
    t->tt_pc[row] = pc;
    t->tt_page[row] = page;
    t->tt_last_offset[row] = offset;
    for (k = 0; k < t->history; k++) {
        t->tt_deltas[row * t->history + k] = 0;
    }
    t->tt_n_deltas[row] = 0;
    t->tt_fired[row] = NO_NEURON;
    t->tt_n_predicted[row] = 0;
    return row;
}

/* TrainingTable.record_delta. */
static void tt_record_delta(pf_tables *t, int64_t row, int64_t delta,
                            int in_range)
{
    int64_t *history = t->tt_deltas + row * t->history, k;
    if (in_range) {
        for (k = 0; k + 1 < t->history; k++) {
            history[k] = history[k + 1];
        }
        history[t->history - 1] = delta;
        if (t->tt_n_deltas[row] < t->history) {
            t->tt_n_deltas[row]++;
        }
    }
    else {
        for (k = 0; k < t->history; k++) {
            history[k] = 0;
        }
        t->tt_n_deltas[row] = 0;
        t->tt_fired[row] = NO_NEURON;
    }
}

/* InferenceTable.observe. */
static void it_observe(pf_tables *t, int64_t neuron, int64_t delta)
{
    int64_t *label = t->it_label + neuron * t->labels_per_neuron;
    int64_t *confidence = t->it_confidence + neuron * t->labels_per_neuron;
    int64_t count = t->it_count[neuron], kept = 0, k;
    int matched = 0;
    for (k = 0; k < count; k++) {
        int64_t c = confidence[k];
        if (label[k] == delta) {
            c = c + 1 < t->confidence_max ? c + 1 : t->confidence_max;
            matched = 1;
            t->correct_observations++;
        }
        else {
            c -= 1;
            t->wrong_observations++;
        }
        if (c > 0) {
            label[kept] = label[k];
            confidence[kept] = c;
            kept++;
        }
    }
    t->labels_erased += count - kept;
    t->it_count[neuron] = kept;
    if (!matched && kept < t->labels_per_neuron) {
        if (!t->require_confirmation || t->it_pending[neuron] == delta) {
            label[kept] = delta;
            confidence[kept] = t->confidence_init;
            t->it_count[neuron] = kept + 1;
            t->labels_assigned++;
            t->it_pending[neuron] = NO_PENDING;
        }
        else {
            t->it_pending[neuron] = delta;
        }
    }
}

/* PathfinderPrefetcher._predict for a one-tick winner: record it, rank
 * its labels (a stable sort by descending confidence), keep up to
 * `degree` distinct labels at or above the threshold, and compose the
 * in-page prefetch addresses.  Returns how many it wrote to out. */
static int64_t predict(pf_tables *t, int64_t row, int64_t winner,
                       int64_t page, int64_t offset, int64_t *out)
{
    const int64_t *label = t->it_label + winner * t->labels_per_neuron;
    const int64_t *confidence =
        t->it_confidence + winner * t->labels_per_neuron;
    int64_t *predicted = t->tt_predicted + row * t->degree;
    int64_t count = t->it_count[winner], n_pred = 0, n_out = 0, j, k;

    t->tt_fired[row] = winner;
    for (k = 0; k < count; k++) {
        j = k;
        while (j > 0 && confidence[t->rank[j - 1]] < confidence[k]) {
            t->rank[j] = t->rank[j - 1];
            j--;
        }
        t->rank[j] = k;
    }
    for (k = 0; k < count && n_pred < t->degree; k++) {
        int64_t slot = t->rank[k];
        if (confidence[slot] < t->confidence_threshold) {
            continue;
        }
        for (j = 0; j < n_pred && predicted[j] != label[slot]; j++) {
        }
        if (j == n_pred) {
            predicted[n_pred++] = label[slot];
        }
    }
    t->tt_n_predicted[row] = n_pred;
    for (k = 0; k < n_pred; k++) {
        int64_t target = offset + predicted[k];
        if (0 <= target && target < BLOCKS_PER_PAGE) {
            out[n_out++] = (page << PAGE_BITS) | (target << BLOCK_BITS);
        }
    }
    t->prefetches_emitted += n_out;
    return n_out;
}

/* PathfinderPrefetcher.process over accesses [start, n) of a chunk.
 * Access i's prefetch addresses land in out_addr[i * degree ...] with
 * their count in out_count[i], and its SNN winner in out_winner[i]
 * (left untouched when it makes no query).  Returns n, or the index of
 * an access whose due health scan found non-finite state: that access
 * has run its SNN step (winner in out_winner, row in stop_row) but not
 * its prediction, which the caller makes after the repair. */
int64_t pf_pathfinder_chunk(const pf_net *s, pf_tables *t,
                            const int64_t *addresses, const int64_t *pcs,
                            int64_t start, int64_t n, int64_t *out_count,
                            int64_t *out_addr, int64_t *out_winner)
{
    const int64_t history = t->history, max_delta = t->max_delta;
    pf_index index = {t->index, (uint64_t)t->index_size - 1, t->tt_pc,
                      t->tt_page};
    pf_lru lru = {t->lru_prev, t->lru_next, t->tt_stamp, &t->tt_clock,
                  -1, -1};
    int64_t i, k, r;

    index_build(&index, t->tt_rows);
    lru_build(&lru, t->tt_rows);
    count_nonfinite(s);

    for (i = start; i < n; i++) {
        int64_t seen = ++t->accesses_seen;
        int64_t pc = pcs[i];
        int64_t page = addresses[i] >> PAGE_BITS;
        int64_t offset = (addresses[i] >> BLOCK_BITS) & (BLOCKS_PER_PAGE - 1);
        uint64_t slot = index_find(&index, pc, page);
        int64_t row = index.slots[slot];
        int first = row < 0;

        if (first) {
            row = tt_insert(t, &index, &lru, pc, page, offset, slot);
            if (!t->cold_pages) {
                continue;
            }
        }
        else {
            lru_use(&lru, row);
            int64_t delta = offset - t->tt_last_offset[row];
            t->tt_last_offset[row] = offset;
            if (delta == 0) {
                continue;
            }
            int in_range = -max_delta <= delta && delta <= max_delta;
            int64_t fired = t->tt_fired[row];
            if (fired != NO_NEURON && in_range) {
                if (t->tt_n_predicted[row]) {
                    t->pred_checked++;
                    for (k = 0; k < t->tt_n_predicted[row]; k++) {
                        if (t->tt_predicted[row * t->degree + k] == delta) {
                            t->pred_correct++;
                            break;
                        }
                    }
                }
                it_observe(t, fired, delta);
            }
            tt_record_delta(t, row, delta, in_range);
            if (!in_range) {
                continue;
            }
            if (t->tt_n_deltas[row] < history && !t->cold_pages) {
                t->tt_fired[row] = NO_NEURON;
                continue;
            }
        }

        /* Encode: a first access is {OF1, 0, ...} (the offset clipped
         * into range); otherwise the right-aligned history row is
         * already zero-padded. */
        int64_t n_active = 0;
        for (r = 0; r < history; r++) {
            int64_t d;
            if (first) {
                d = r ? 0 : (offset > max_delta ? max_delta : offset);
            }
            else {
                d = t->tt_deltas[row * history + r];
            }
            int64_t entry = r * t->width + d + max_delta;
            for (k = t->lit_starts[entry]; k < t->lit_starts[entry + 1]; k++) {
                t->active[n_active++] = t->lit_flat[k];
            }
        }

        int learn = t->stdp_epoch == 0
                    || seen % t->stdp_epoch < t->stdp_on_accesses;
        int64_t winner = tick_one(s, t->active, n_active, learn);
        t->snn_queries++;
        t->stdp_updates += learn;
        out_winner[i] = winner;
        t->intervals++;
        if (t->intervals % s->health_interval == 0 && unhealthy(s)) {
            t->stop_row = row;
            return i;
        }
        out_count[i] = predict(t, row, winner, page, offset,
                               out_addr + i * t->degree);
    }
    return n;
}

/* ---- The Pythia loop ---------------------------------------------- */

/* An append-only keyed row store (prefetchers/pythia.py, KeyedRows):
 * rows [0, n) of `rows` belong to keys[0, n).  `index` has 2^bits
 * slots, each a row or -1; a key probes linearly from the top `bits`
 * bits of its Fibonacci hash.  KeyedArgs below mirrors this layout. */
typedef struct {
    int64_t *keys;
    void *rows;
    int64_t *index;
    int64_t n, capacity, bits;
} pf_keyed;

/* Pythia's array-backed state (prefetchers/pythia.py) and its
 * configuration; PythiaArgs below mirrors this layout. */
typedef struct {
    /* Page -> (last offset, last delta, previous delta). */
    pf_keyed pages;
    /* Per vault: feature -> Q row of n_actions doubles. */
    pf_keyed vaults[2];
    /* Evaluation queue: a ring of eq_size slots; eq_tail takes the
     * next entry. */
    int64_t *eq_features, *eq_action, *eq_block, *eq_pending;
    const int64_t *actions;
    /* Scratch: one Q-value per action, the greedy pick, and each
     * block's pending slots as a FIFO, oldest first: a hash index
     * (eq_index_size slots) from the block to its oldest slot, and per
     * slot the next younger one (eq_next) and, at an oldest slot, the
     * youngest (eq_last). */
    double *q;
    int64_t *chosen, *eq_index, *eq_next, *eq_last;
    int64_t eq_index_size;
    /* Configuration. */
    int64_t n_actions, degree, n_vaults, eq_size;
    double alpha, gamma, reward_accurate, reward_inaccurate;
    double reward_no_prefetch;
    /* Counters, read and advanced. */
    int64_t eq_tail, rewards;
} pf_pythia;

#define FIB_HASH 0x9E3779B97F4A7C15ULL
#define PAGE_HISTORY 3

/* KeyedRows._slot: the index slot holding key, or the empty slot
 * where it would go. */
static uint64_t keyed_slot(const pf_keyed *t, int64_t key)
{
    uint64_t mask = ((uint64_t)1 << t->bits) - 1;
    uint64_t i = ((uint64_t)key * FIB_HASH) >> (64 - t->bits);
    for (;;) {
        int64_t row = t->index[i];
        if (row < 0 || t->keys[row] == key) {
            return i;
        }
        i = (i + 1) & mask;
    }
}

/* KeyedRows.add at the empty index slot a keyed_slot probe found. */
static int64_t keyed_add(pf_keyed *t, uint64_t slot, int64_t key)
{
    int64_t row = t->n++;
    t->keys[row] = key;
    t->index[slot] = row;
    return row;
}

static double *q_row(const pf_pythia *p, int64_t vault, int64_t row)
{
    return (double *)p->vaults[vault].rows + row * p->n_actions;
}

/* PythiaPrefetcher._q_values into p->q: the state's rows added onto
 * zeros, vault by vault. */
static void q_values(const pf_pythia *p, const int64_t *state)
{
    int64_t a, v;
    for (a = 0; a < p->n_actions; a++) {
        p->q[a] = 0.0;
    }
    for (v = 0; v < p->n_vaults; v++) {
        const pf_keyed *t = &p->vaults[v];
        int64_t row = t->index[keyed_slot(t, state[v])];
        if (row >= 0) {
            const double *values = q_row(p, v, row);
            for (a = 0; a < p->n_actions; a++) {
                p->q[a] += values[a];
            }
        }
    }
}

/* max(_q_values(state)): Python's max keeps the first of equal values. */
static double best_q(const pf_pythia *p, const int64_t *state)
{
    int64_t a;
    q_values(p, state);
    double best = p->q[0];
    for (a = 1; a < p->n_actions; a++) {
        if (p->q[a] > best) {
            best = p->q[a];
        }
    }
    return best;
}

/* PythiaPrefetcher._update, with the next state's term (gamma times
 * its best Q-value, or 0.0) already computed. */
static void sarsa_update(pf_pythia *p, const int64_t *state,
                         int64_t action, double reward, double bootstrap)
{
    uint64_t slots[2];
    int64_t rows[2], a, v;
    double old = 0.0;
    for (v = 0; v < p->n_vaults; v++) {
        slots[v] = keyed_slot(&p->vaults[v], state[v]);
        rows[v] = p->vaults[v].index[slots[v]];
        if (rows[v] >= 0) {
            old += q_row(p, v, rows[v])[action];
        }
    }
    double step = p->alpha * (reward + bootstrap - old) / (double)p->n_vaults;
    for (v = 0; v < p->n_vaults; v++) {
        if (rows[v] < 0) {
            rows[v] = keyed_add(&p->vaults[v], slots[v], state[v]);
            double *values = q_row(p, v, rows[v]);
            for (a = 0; a < p->n_actions; a++) {
                values[a] = 0.0;
            }
        }
        q_row(p, v, rows[v])[action] += step;
    }
    p->rewards++;
}

/* Append ring slot k, just made pending, to its block's FIFO. */
static void pending_push(pf_pythia *p, pf_index *pending, int64_t k)
{
    uint64_t i = index_find(pending, p->eq_block[k], p->eq_block[k]);
    int64_t oldest = pending->slots[i];
    p->eq_next[k] = -1;
    if (oldest < 0) {
        pending->slots[i] = k;
        p->eq_last[k] = k;
    }
    else {
        p->eq_next[p->eq_last[oldest]] = k;
        p->eq_last[oldest] = k;
    }
}

/* PythiaPrefetcher._enqueue: an unresolved entry in the tail slot is
 * the full ring's oldest, so its block's oldest too, and is evicted
 * with the inaccurate reward. */
static void enqueue(pf_pythia *p, pf_index *pending, const int64_t *state,
                    int64_t action, int64_t block)
{
    int64_t k = p->eq_tail, v;
    int64_t *features = p->eq_features + k * p->n_vaults;
    if (p->eq_pending[k]) {
        uint64_t i = index_find(pending, p->eq_block[k], p->eq_block[k]);
        int64_t next = p->eq_next[k];
        if (next < 0) {
            index_remove(pending, i);
        }
        else {
            pending->slots[i] = next;
            p->eq_last[next] = p->eq_last[k];
        }
        sarsa_update(p, features, p->eq_action[k], p->reward_inaccurate,
                     0.0);
    }
    for (v = 0; v < p->n_vaults; v++) {
        features[v] = state[v];
    }
    p->eq_action[k] = action;
    p->eq_block[k] = block;
    p->eq_pending[k] = 1;
    pending_push(p, pending, k);
    p->eq_tail = k + 1 < p->eq_size ? k + 1 : 0;
}

/* The greedy pick over p->q: sorted(range(n_actions),
 * key=q.__getitem__, reverse=True)[:degree] -- best first, equal
 * values in action-list order -- as an insertion into the kept few. */
static void top_actions(const pf_pythia *p)
{
    const double *q = p->q;
    int64_t *chosen = p->chosen;
    int64_t a, j, count = 0;
    for (a = 0; a < p->n_actions; a++) {
        if (count < p->degree) {
            j = count++;
        }
        else if (q[a] > q[chosen[p->degree - 1]]) {
            j = p->degree - 1;
        }
        else {
            continue;
        }
        while (j > 0 && q[a] > q[chosen[j - 1]]) {
            chosen[j] = chosen[j - 1];
            j--;
        }
        chosen[j] = a;
    }
}

/* numpy's bitgen_t (numpy/random/bitgen.h): a bit generator's state
 * and its draw functions, which Generator.bit_generator.ctypes
 * .bit_generator points to. */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *state);
    uint32_t (*next_uint32)(void *state);
    double (*next_double)(void *state);
    uint64_t (*next_raw)(void *state);
} pf_bitgen;

/* numpy's random_bounded_uint64(g, 0, rng, 0, 0) for rng < 2^32 - 1:
 * a value in [0, rng] by Lemire's multiply-and-reject over next_uint32
 * draws, and no draw at all when rng is 0. */
static uint64_t bounded(pf_bitgen *g, uint32_t rng)
{
    if (rng == 0) {
        return 0;
    }
    uint32_t excl = rng + 1;
    uint64_t m = (uint64_t)g->next_uint32(g->state) * excl;
    uint32_t leftover = (uint32_t)m;
    if (leftover < excl) {
        uint32_t threshold = (UINT32_MAX - rng) % excl;
        while (leftover < threshold) {
            m = (uint64_t)g->next_uint32(g->state) * excl;
            leftover = (uint32_t)m;
        }
    }
    return m >> 32;
}

/* The exploration draws of PythiaPrefetcher.process for n accesses, in
 * its order: access i explores when random() (next_double) falls under
 * epsilon, and its row explored[i * degree ...] then holds
 * choice(n_actions, degree, replace=False); a greedy access's row is
 * -1s.  choice takes numpy's branch for populations of at most 10,000:
 * Floyd's algorithm (each j in [n_actions - degree, n_actions) draws v
 * in [0, j] and takes v, or j when an earlier step took v), then a
 * Fisher-Yates pass over the row from its end. */
void pf_pythia_explore(pf_bitgen *g, int64_t n, double epsilon,
                       int64_t n_actions, int64_t degree, int64_t *explored)
{
    int64_t i, j, k, t;
    for (i = 0; i < n; i++) {
        int64_t *row = explored + i * degree;
        if (!(g->next_double(g->state) < epsilon)) {
            for (k = 0; k < degree; k++) {
                row[k] = -1;
            }
            continue;
        }
        for (k = 0, j = n_actions - degree; j < n_actions; k++, j++) {
            int64_t v = (int64_t)bounded(g, (uint32_t)j);
            for (t = 0; t < k && row[t] != v; t++) {
            }
            row[k] = t < k ? j : v;
        }
        for (k = degree - 1; k > 0; k--) {
            j = (int64_t)bounded(g, (uint32_t)k);
            t = row[j];
            row[j] = row[k];
            row[k] = t;
        }
    }
}

/* PythiaPrefetcher.process over accesses [start, n) of a chunk, with
 * the exploration draws made beforehand (pf_pythia_explore):
 * explored[i * degree ...] holds access i's drawn actions, or -1s when
 * it picks greedily.
 * Access i's prefetch addresses land in out_addr[i * degree ...] with
 * their count in out_count[i].  Returns n, or the index of an access
 * that could outgrow the page table or a vault's row store: it has not
 * started, and the caller grows the stores and resumes there. */
int64_t pf_pythia_chunk(pf_pythia *p, const int64_t *addresses,
                        const int64_t *pcs, const int64_t *explored,
                        int64_t start, int64_t n, int64_t *out_count,
                        int64_t *out_addr)
{
    const int64_t degree = p->degree, eq_size = p->eq_size;
    /* Rows one access can add to a vault: one per hit, the no-prefetch
     * update and one per eviction. */
    const int64_t headroom = eq_size + 2 * degree;
    pf_index pending = {p->eq_index, (uint64_t)p->eq_index_size - 1,
                        p->eq_block, p->eq_block};
    int64_t state[2], i, j, k, v;

    /* An empty index, then the pending slots oldest first: the ring
     * from the tail slot round to it. */
    index_build(&pending, 0);
    for (j = 0; j < eq_size; j++) {
        k = (p->eq_tail + j) % eq_size;
        if (p->eq_pending[k]) {
            pending_push(p, &pending, k);
        }
    }

    for (i = start; i < n; i++) {
        if (p->pages.n == p->pages.capacity) {
            return i;
        }
        for (v = 0; v < p->n_vaults; v++) {
            if (p->vaults[v].n + headroom > p->vaults[v].capacity) {
                return i;
            }
        }
        int64_t page = addresses[i] >> PAGE_BITS;
        int64_t block = addresses[i] >> BLOCK_BITS;
        int64_t offset = block & (BLOCKS_PER_PAGE - 1);

        /* Page history: last offset, last and previous nonzero delta. */
        uint64_t slot = keyed_slot(&p->pages, page);
        int64_t row = p->pages.index[slot], delta = 0;
        int64_t *history;
        if (row < 0) {
            row = keyed_add(&p->pages, slot, page);
            history = (int64_t *)p->pages.rows + row * PAGE_HISTORY;
            history[1] = 0;
            history[2] = 0;
        }
        else {
            history = (int64_t *)p->pages.rows + row * PAGE_HISTORY;
            delta = offset - history[0];
        }
        int64_t last = history[1], prev = history[2];
        history[0] = offset;
        if (delta != 0) {
            history[2] = last;
            history[1] = delta;
        }
        int64_t feature_delta = delta != 0 ? delta : last;
        state[0] = ((pcs[i] & 0xFFF) << 7) ^ (feature_delta & 0x7F);
        state[1] = ((feature_delta & 0x7F) << 7) ^ (prev & 0x7F);

        /* Demand hits: the block's pending FIFO, oldest first. */
        uint64_t hits = index_find(&pending, block, block);
        k = pending.slots[hits];
        if (k >= 0) {
            index_remove(&pending, hits);
            for (; k >= 0; k = p->eq_next[k]) {
                p->eq_pending[k] = 0;
                sarsa_update(p, p->eq_features + k * p->n_vaults,
                             p->eq_action[k], p->reward_accurate,
                             p->gamma * best_q(p, state));
            }
        }

        const int64_t *chosen = explored + i * degree;
        if (chosen[0] < 0) {
            q_values(p, state);
            top_actions(p);
            chosen = p->chosen;
        }

        int64_t n_out = 0;
        for (j = 0; j < degree; j++) {
            int64_t action = chosen[j], target = p->actions[action];
            if (target == 0) {
                sarsa_update(p, state, action, p->reward_no_prefetch, 0.0);
                continue;
            }
            /* A delta of a page or more never lands in it (and adding
             * a huge one could overflow). */
            if (target <= -BLOCKS_PER_PAGE || target >= BLOCKS_PER_PAGE) {
                continue;
            }
            target += offset;
            if (target < 0 || target >= BLOCKS_PER_PAGE) {
                continue;
            }
            int64_t address = (page << PAGE_BITS) | (target << BLOCK_BITS);
            enqueue(p, &pending, state, action, address >> BLOCK_BITS);
            out_addr[i * degree + n_out++] = address;
        }
        out_count[i] = n_out;
    }
    return n;
}

/* ---- The SPP loop ------------------------------------------------- */

/* Pattern Table slots per row: the distinct nonzero in-page deltas
 * (prefetchers/spp.py, DELTA_SLOTS). */
#define DELTA_SLOTS (2 * (BLOCKS_PER_PAGE - 1))

/* SPP's array-backed tables (prefetchers/spp.py) and its
 * configuration; SPPArgs below mirrors this layout. */
typedef struct {
    /* Signature Table: st_size rows, rows [0, st_rows) in use. */
    int64_t *st_page, *st_signature, *st_offset, *st_stamp;
    /* Pattern Table: signature -> row or -1; per row its signature,
     * slots in use, their total and a stamp; DELTA_SLOTS (delta,
     * count) slots per row, in first-insertion order. */
    int64_t *pt_row, *pt_signature, *pt_slots, *pt_total, *pt_stamp;
    int8_t *pt_delta;
    int64_t *pt_count;
    /* Scratch: the page -> row hash index of the Signature Table
     * (st_index_size slots), and both tables' LRU links (st_size and
     * pt_size each). */
    int64_t *st_index, *st_prev, *st_next, *pt_prev, *pt_next;
    int64_t st_index_size;
    /* Configuration: steps is min(lookahead_depth, max_degree). */
    int64_t st_size, pt_size, max_counter, steps;
    double threshold;
    /* Counters, read and advanced. */
    int64_t st_rows, st_clock, pt_rows, pt_clock;
} pf_spp;

static int64_t advance_signature(int64_t signature, int64_t delta)
{
    return ((signature << 3) ^ (delta & 0x3F)) & 0xFFF;
}

/* SPPPrefetcher._pattern_row: the signature's row, refreshed; if
 * absent, -1, or with `create` a new empty row: a free one, or the
 * least recently used. */
static int64_t pattern_row(pf_spp *p, pf_lru *lru, int64_t signature,
                           int create)
{
    int64_t row = p->pt_row[signature];
    if (row >= 0) {
        lru_use(lru, row);
        return row;
    }
    if (!create) {
        return -1;
    }
    if (p->pt_rows < p->pt_size) {
        row = p->pt_rows++;
        lru_add(lru, row);
    }
    else {
        row = lru->head;
        p->pt_row[p->pt_signature[row]] = -1;
        lru_use(lru, row);
    }
    p->pt_row[signature] = row;
    p->pt_signature[row] = signature;
    p->pt_slots[row] = 0;
    p->pt_total[row] = 0;
    return row;
}

/* SPPPrefetcher._record. */
static void spp_record(pf_spp *p, pf_lru *lru, int64_t signature,
                       int64_t delta)
{
    int64_t row = pattern_row(p, lru, signature, 1);
    int8_t *deltas = p->pt_delta + row * DELTA_SLOTS;
    int64_t *counts = p->pt_count + row * DELTA_SLOTS;
    int64_t n = p->pt_slots[row], slot, k;
    for (slot = 0; slot < n && deltas[slot] != delta; slot++) {
    }
    if (slot == n) {
        deltas[slot] = (int8_t)delta;
        counts[slot] = 0;
        p->pt_slots[row] = ++n;
    }
    if (counts[slot] < p->max_counter) {
        counts[slot]++;
        p->pt_total[row]++;
    }
    else {
        /* Counts are positive, so C's division floors like Python's. */
        int64_t total = 1;
        for (k = 0; k < n; k++) {
            counts[k] = counts[k] / 2 > 1 ? counts[k] / 2 : 1;
            total += counts[k];
        }
        counts[slot]++;
        p->pt_total[row] = total;
    }
}

/* SPPPrefetcher.process over a chunk of n accesses.  Access i's
 * prefetch addresses land in out_addr[i * steps ...] with their count
 * in out_count[i]: a path-walk step that does not end the walk emits
 * one address, so a walk takes at most `steps` steps. */
void pf_spp_chunk(pf_spp *p, const int64_t *addresses, int64_t n,
                  int64_t *out_count, int64_t *out_addr)
{
    pf_index index = {p->st_index, (uint64_t)p->st_index_size - 1,
                      p->st_page, p->st_page};
    pf_lru st_lru = {p->st_prev, p->st_next, p->st_stamp, &p->st_clock,
                     -1, -1};
    pf_lru pt_lru = {p->pt_prev, p->pt_next, p->pt_stamp, &p->pt_clock,
                     -1, -1};
    int64_t i, k, s;

    index_build(&index, p->st_rows);
    lru_build(&st_lru, p->st_rows);
    lru_build(&pt_lru, p->pt_rows);

    for (i = 0; i < n; i++) {
        int64_t page = addresses[i] >> PAGE_BITS;
        int64_t offset = (addresses[i] >> BLOCK_BITS) & (BLOCKS_PER_PAGE - 1);
        uint64_t slot = index_find(&index, page, page);
        int64_t row = index.slots[slot];
        out_count[i] = 0;
        if (row < 0) {
            /* The page's first access: a free row or the least
             * recently used one, and no delta yet. */
            if (p->st_rows < p->st_size) {
                row = p->st_rows++;
                lru_add(&st_lru, row);
            }
            else {
                row = st_lru.head;
                index_remove(&index, index_find(&index, p->st_page[row],
                                                p->st_page[row]));
                slot = index_find(&index, page, page);
                lru_use(&st_lru, row);
            }
            index.slots[slot] = row;
            p->st_page[row] = page;
            p->st_signature[row] = 0;
            p->st_offset[row] = offset;
            continue;
        }
        lru_use(&st_lru, row);
        int64_t delta = offset - p->st_offset[row];
        if (delta == 0) {
            continue;
        }
        spp_record(p, &pt_lru, p->st_signature[row], delta);
        int64_t signature = advance_signature(p->st_signature[row], delta);
        p->st_signature[row] = signature;
        p->st_offset[row] = offset;

        /* The path walk; the best delta is the first maximal count in
         * slot order.  Both operands of the ratio convert to double
         * exactly, so it is Python's int / int. */
        double confidence = 1.0;
        for (k = 0; k < p->steps; k++) {
            int64_t pattern = pattern_row(p, &pt_lru, signature, 0);
            if (pattern < 0) {
                break;
            }
            const int64_t *counts = p->pt_count + pattern * DELTA_SLOTS;
            int64_t best = 0;
            for (s = 1; s < p->pt_slots[pattern]; s++) {
                if (counts[s] > counts[best]) {
                    best = s;
                }
            }
            confidence *= (double)counts[best] / (double)p->pt_total[pattern];
            if (confidence < p->threshold) {
                break;
            }
            int64_t best_delta = p->pt_delta[pattern * DELTA_SLOTS + best];
            offset += best_delta;
            if (offset < 0 || offset >= BLOCKS_PER_PAGE) {
                break;
            }
            out_addr[i * p->steps + k] =
                (page << PAGE_BITS) | (offset << BLOCK_BITS);
            out_count[i] = k + 1;
            signature = advance_signature(signature, best_delta);
        }
    }
}
"""

_DOUBLE_P = ctypes.POINTER(ctypes.c_double)
_INT64_P = ctypes.POINTER(ctypes.c_int64)


class NetArgs(ctypes.Structure):
    """The C ``pf_net``: a network's state and one-tick constants."""

    _fields_ = [
        *((name, ctypes.c_void_p) for name in (
            "w", "theta", "v", "drive_buf", "column_buf", "nonfinite")),
        *((name, ctypes.c_int64) for name in (
            "n_input", "n_neurons", "health_interval")),
        *((name, ctypes.c_double) for name in (
            "threshold_gap", "max_probability", "stdp_d0", "stdp_d1",
            "w_min", "w_max", "norm", "theta_plus", "theta_max",
            "theta_decay")),
        *((name, ctypes.c_int32) for name in (
            "clamp_gap", "do_stdp", "has_norm", "has_theta_max")),
    ]


class PathfinderArgs(ctypes.Structure):
    """The C ``pf_tables``: PATHFINDER's arrays, config and counters."""

    _fields_ = [
        *((name, ctypes.c_void_p) for name in (
            "tt_pc", "tt_page", "tt_last_offset", "tt_deltas",
            "tt_n_deltas", "tt_fired", "tt_predicted", "tt_n_predicted",
            "tt_stamp", "it_label", "it_confidence", "it_count",
            "it_pending", "lit_starts", "lit_flat", "index", "lru_prev",
            "lru_next", "active", "rank")),
        *((name, ctypes.c_int64) for name in (
            "index_size", "capacity", "history", "degree", "width",
            "max_delta", "labels_per_neuron", "confidence_max",
            "confidence_init", "confidence_threshold",
            "require_confirmation", "cold_pages", "stdp_epoch",
            "stdp_on_accesses",
            "tt_rows", "tt_clock", "tt_evictions", "labels_assigned",
            "labels_erased", "correct_observations", "wrong_observations",
            "accesses_seen", "snn_queries", "stdp_updates",
            "prefetches_emitted", "pred_checked", "pred_correct",
            "intervals", "stop_row")),
    ]


class KeyedArgs(ctypes.Structure):
    """The C ``pf_keyed``: one keyed row store and its hash index."""

    _fields_ = [
        *((name, ctypes.c_void_p) for name in ("keys", "rows", "index")),
        *((name, ctypes.c_int64) for name in ("n", "capacity", "bits")),
    ]


class PythiaArgs(ctypes.Structure):
    """The C ``pf_pythia``: Pythia's arrays, config and counters."""

    _fields_ = [
        ("pages", KeyedArgs),
        ("vaults", KeyedArgs * 2),
        *((name, ctypes.c_void_p) for name in (
            "eq_features", "eq_action", "eq_block", "eq_pending", "actions",
            "q", "chosen", "eq_index", "eq_next", "eq_last")),
        *((name, ctypes.c_int64) for name in (
            "eq_index_size", "n_actions", "degree", "n_vaults", "eq_size")),
        *((name, ctypes.c_double) for name in (
            "alpha", "gamma", "reward_accurate", "reward_inaccurate",
            "reward_no_prefetch")),
        *((name, ctypes.c_int64) for name in ("eq_tail", "rewards")),
    ]


#: The array fields of ``SPPArgs``, each an ``SPPPrefetcher`` attribute
#: of the same name with a leading underscore.
SPP_ARRAYS = ("st_page", "st_signature", "st_offset", "st_stamp", "pt_row",
              "pt_signature", "pt_slots", "pt_total", "pt_stamp",
              "pt_delta", "pt_count")


class SPPArgs(ctypes.Structure):
    """The C ``pf_spp``: SPP's arrays, config and counters."""

    _fields_ = [
        *((name, ctypes.c_void_p) for name in (
            *SPP_ARRAYS, "st_index", "st_prev", "st_next", "pt_prev",
            "pt_next")),
        *((name, ctypes.c_int64) for name in (
            "st_index_size", "st_size", "pt_size", "max_counter", "steps")),
        ("threshold", ctypes.c_double),
        *((name, ctypes.c_int64) for name in (
            "st_rows", "st_clock", "pt_rows", "pt_clock")),
    ]


def index_slots(rows: int) -> int:
    """Slots of a compiled loop's hash index over ``rows`` rows: a power
    of two above twice the rows, so probe runs stay short."""
    return 1 << (2 * rows).bit_length()


def scratch(*sizes: int) -> List[np.ndarray]:
    """A compiled loop's int64 scratch arrays of these sizes, carved
    from one allocation (the loop fills them)."""
    return np.split(np.empty(sum(sizes), dtype=np.int64),
                    np.cumsum(sizes[:-1]))


def pointer(array: np.ndarray) -> int:
    """Address of a C-contiguous array, for a ``c_void_p`` field."""
    if not array.flags.c_contiguous:
        raise ValueError("kernel arrays must be C-contiguous")
    return array.ctypes.data


class TickKernel:
    """ctypes binding of the compiled one-tick library."""

    def __init__(self, lib: ctypes.CDLL):
        self._lib = lib
        chunk = lib.pf_pathfinder_chunk
        chunk.restype = ctypes.c_int64
        chunk.argtypes = [
            ctypes.POINTER(NetArgs), ctypes.POINTER(PathfinderArgs),
            _INT64_P, _INT64_P, ctypes.c_int64, ctypes.c_int64,
            _INT64_P, _INT64_P, _INT64_P,
        ]
        self._chunk = chunk
        pythia = lib.pf_pythia_chunk
        pythia.restype = ctypes.c_int64
        pythia.argtypes = [
            ctypes.POINTER(PythiaArgs), _INT64_P, _INT64_P, _INT64_P,
            ctypes.c_int64, ctypes.c_int64, _INT64_P, _INT64_P,
        ]
        self._pythia = pythia
        explore = lib.pf_pythia_explore
        explore.restype = None
        explore.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_double,
                            ctypes.c_int64, ctypes.c_int64, _INT64_P]
        self._explore = explore
        spp = lib.pf_spp_chunk
        spp.restype = None
        spp.argtypes = [ctypes.POINTER(SPPArgs), _INT64_P, ctypes.c_int64,
                        _INT64_P, _INT64_P]
        self._spp = spp
        ps = lib.pf_pairwise_sum
        ps.restype = ctypes.c_double
        ps.argtypes = [_DOUBLE_P, ctypes.c_int64]
        self._pairwise = ps

    def pairwise_sum(self, values: np.ndarray) -> float:
        """The kernel's pairwise sum (exposed for the parity tests)."""
        values = np.ascontiguousarray(values, dtype=np.float64)
        return self._pairwise(values.ctypes.data_as(_DOUBLE_P),
                              values.size)

    def pathfinder_chunk(self, net: NetArgs, tables: PathfinderArgs,
                         addresses: np.ndarray, pcs: np.ndarray,
                         start: int, counts: np.ndarray,
                         targets: np.ndarray, winners: np.ndarray) -> int:
        """Run PATHFINDER over accesses ``[start, len(addresses))``;
        return where it stopped (see ``pf_pathfinder_chunk``)."""
        return self._chunk(
            ctypes.byref(net), ctypes.byref(tables),
            addresses.ctypes.data_as(_INT64_P),
            pcs.ctypes.data_as(_INT64_P), start, len(addresses),
            counts.ctypes.data_as(_INT64_P),
            targets.ctypes.data_as(_INT64_P),
            winners.ctypes.data_as(_INT64_P))


    def pythia_explore(self, rng: np.random.Generator, epsilon: float,
                       n_actions: int, explored: np.ndarray) -> None:
        """Fill ``explored``, one row per access, with the exploration
        draws :meth:`PythiaPrefetcher.process` would make from ``rng``
        (see ``pf_pythia_explore``), advancing ``rng`` as it would."""
        if not (explored.dtype == np.int64 and explored.ndim == 2
                and explored.flags.c_contiguous
                and 1 <= explored.shape[1] <= n_actions):
            raise ValueError("explored must be a C-contiguous int64 "
                             "(accesses, degree) array, degree in "
                             "[1, n_actions]")
        bit_generator = rng.bit_generator
        with bit_generator.lock:
            self._explore(bit_generator.ctypes.bit_generator, len(explored),
                          epsilon, n_actions, explored.shape[1],
                          explored.ctypes.data_as(_INT64_P))

    def pythia_chunk(self, pythia: PythiaArgs, addresses: np.ndarray,
                     pcs: np.ndarray, explored: np.ndarray, start: int,
                     counts: np.ndarray, targets: np.ndarray) -> int:
        """Run Pythia over accesses ``[start, len(addresses))``; return
        where it stopped (see ``pf_pythia_chunk``)."""
        return self._pythia(
            ctypes.byref(pythia), addresses.ctypes.data_as(_INT64_P),
            pcs.ctypes.data_as(_INT64_P),
            explored.ctypes.data_as(_INT64_P), start, len(addresses),
            counts.ctypes.data_as(_INT64_P),
            targets.ctypes.data_as(_INT64_P))

    def spp_chunk(self, spp: SPPArgs, addresses: np.ndarray,
                  counts: np.ndarray, targets: np.ndarray) -> None:
        """Run SPP over ``addresses`` (see ``pf_spp_chunk``)."""
        self._spp(ctypes.byref(spp), addresses.ctypes.data_as(_INT64_P),
                  len(addresses), counts.ctypes.data_as(_INT64_P),
                  targets.ctypes.data_as(_INT64_P))


def load_kernel() -> Optional[TickKernel]:
    """The process-wide compiled kernel, or ``None`` if unavailable.

    Compiles on first call (cached on disk afterwards).  Returns
    ``None`` — and PATHFINDER, Pythia and SPP fall back to their scalar
    Python paths — when ``REPRO_NO_CKERNEL=1``, no C compiler is on
    PATH, or compilation/loading fails for any reason.
    """
    return load_library("tick", C_SOURCE, TickKernel, ("-lm",))
