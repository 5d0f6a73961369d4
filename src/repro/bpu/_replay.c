/* Native replay kernels for the `native` kernel tier (repro.bpu.native).
 *
 * Compiled at first use with the system C toolchain into a per-user
 * cached shared library and driven through ctypes.  Each entry point
 * replays the sequential state-update core of one predictor family over
 * pre-resolved SoA columns (the trace-pure pre-passes from
 * repro.bpu.vector, except the TAGE index/tag columns, which
 * tage_columns builds here) and must stay bit-identical to
 * the scalar reference implementation — enforced by the three-way
 * scalar/vector/native equivalence suite.
 *
 * Every piece of predictor state travels as int64 so Python-side
 * marshalling is a plain dtype conversion and no counter can overflow;
 * the saturation bounds below mirror the constants in tage.py,
 * corrector.py, loop.py and perceptron.py exactly.
 */

#include <stdint.h>
#include <stdlib.h>

/* ------------------------------------------------------------------ */
/* Perceptron (perceptron.py): per-branch dot product over the rolling  */
/* +/-1 outcome window, trained on mispredict or weak-margin.           */
/* ------------------------------------------------------------------ */

void replay_perceptron(
    int64_t n, int64_t hl, int64_t theta,
    const int64_t *idx,      /* [n] perceptron row per branch            */
    const uint8_t *taken,    /* [n]                                      */
    const uint8_t *hinted,   /* [n]                                      */
    const uint8_t *hint_ok,  /* [n] hint prediction correct (where hinted) */
    int64_t *weights,        /* [rows][hl+1], row-major                  */
    int64_t *recent,         /* [hl] in/out: +/-1 outcomes, newest first */
    uint8_t *correct)        /* [n] out                                  */
{
    const int64_t stride = hl + 1;
    for (int64_t j = 0; j < n; j++) {
        int64_t *w = weights + idx[j] * stride;
        int64_t total = w[0];
        for (int64_t i = 0; i < hl; i++) {
            int64_t bit = recent[i];
            if (bit > 0) total += w[i + 1];
            else if (bit < 0) total -= w[i + 1];
        }
        const int tk = taken[j];
        const int pred = total >= 0;
        correct[j] = hinted[j] ? hint_ok[j] : (uint8_t)(pred == tk);

        const int64_t target = tk ? 1 : -1;
        const int64_t abs_total = total >= 0 ? total : -total;
        if (pred != tk || abs_total <= theta) {
            int64_t nw = w[0] + target;
            if (nw > 127) nw = 127; else if (nw < -128) nw = -128;
            w[0] = nw;
            for (int64_t i = 0; i < hl; i++) {
                int64_t bit = recent[i];
                if (bit != 0) {
                    nw = w[i + 1] + (bit == target ? 1 : -1);
                    if (nw > 127) nw = 127; else if (nw < -128) nw = -128;
                    w[i + 1] = nw;
                }
            }
        }
        for (int64_t i = hl - 1; i > 0; i--) recent[i] = recent[i - 1];
        if (hl > 0) recent[0] = target;
    }
}

/* ------------------------------------------------------------------ */
/* Loop predictor (loop.py): fully-associative LRU table keyed by PC.   */
/* An open-addressing hash map (tombstoned, rebuilt when dirty) plus a  */
/* doubly-linked LRU list reproduce the OrderedDict semantics exactly.  */
/* ------------------------------------------------------------------ */

#define LP_EMPTY (-1)
#define LP_TOMB  (-2)

typedef struct {
    int64_t cap, size, hmask;
    int64_t *pc, *trip, *cnt, *conf;
    int64_t *prev, *next;      /* LRU links by slot; -1 = end            */
    int64_t head, tail;        /* head = least recently used             */
    int64_t *freelist, n_free;
    int64_t *hkey, *hval;      /* hkey: pc, LP_EMPTY or LP_TOMB          */
    int64_t n_tomb;
    int64_t *block;            /* single backing allocation              */
} Loop;

static uint64_t loop_hash(int64_t pc)
{
    uint64_t h = (uint64_t)pc * 0x9E3779B97F4A7C15ULL;
    return h ^ (h >> 29);
}

static int loop_init(Loop *L, int64_t cap,
                     const int64_t *pc, const int64_t *trip,
                     const int64_t *cnt, const int64_t *conf, int64_t m)
{
    int64_t hsize = 64;
    while (hsize < cap * 4) hsize <<= 1;
    L->cap = cap;
    L->hmask = hsize - 1;
    L->size = 0;
    L->head = L->tail = -1;
    L->n_tomb = 0;
    L->block = (int64_t *)malloc((size_t)(cap * 7 + hsize * 2) * sizeof(int64_t));
    if (L->block == NULL) return 1;
    L->pc = L->block;
    L->trip = L->pc + cap;
    L->cnt = L->trip + cap;
    L->conf = L->cnt + cap;
    L->prev = L->conf + cap;
    L->next = L->prev + cap;
    L->freelist = L->next + cap;
    L->hkey = L->freelist + cap;
    L->hval = L->hkey + hsize;
    for (int64_t i = 0; i < hsize; i++) L->hkey[i] = LP_EMPTY;
    L->n_free = 0;
    for (int64_t s = cap - 1; s >= m; s--) L->freelist[L->n_free++] = s;
    for (int64_t s = 0; s < m; s++) {
        L->pc[s] = pc[s];
        L->trip[s] = trip[s];
        L->cnt[s] = cnt[s];
        L->conf[s] = conf[s];
        L->prev[s] = s - 1;
        L->next[s] = (s + 1 < m) ? s + 1 : -1;
        uint64_t h = loop_hash(pc[s]) & (uint64_t)L->hmask;
        while (L->hkey[h] != LP_EMPTY) h = (h + 1) & (uint64_t)L->hmask;
        L->hkey[h] = pc[s];
        L->hval[h] = s;
    }
    if (m > 0) { L->head = 0; L->tail = m - 1; }
    L->size = m;
    return 0;
}

static int64_t loop_find(const Loop *L, int64_t pc)
{
    uint64_t h = loop_hash(pc) & (uint64_t)L->hmask;
    for (;;) {
        int64_t k = L->hkey[h];
        if (k == LP_EMPTY) return -1;
        if (k == pc) return L->hval[h];
        h = (h + 1) & (uint64_t)L->hmask;
    }
}

static void loop_hash_put(Loop *L, int64_t pc, int64_t slot)
{
    uint64_t h = loop_hash(pc) & (uint64_t)L->hmask;
    int64_t first_tomb = -1;
    for (;;) {
        int64_t k = L->hkey[h];
        if (k == LP_TOMB) {
            if (first_tomb < 0) first_tomb = (int64_t)h;
        } else if (k == LP_EMPTY) {
            if (first_tomb >= 0) { h = (uint64_t)first_tomb; L->n_tomb--; }
            L->hkey[h] = pc;
            L->hval[h] = slot;
            return;
        }
        h = (h + 1) & (uint64_t)L->hmask;
    }
}

static void loop_rehash(Loop *L)
{
    for (int64_t i = 0; i <= L->hmask; i++) L->hkey[i] = LP_EMPTY;
    L->n_tomb = 0;
    for (int64_t s = L->head; s >= 0; s = L->next[s])
        loop_hash_put(L, L->pc[s], s);
}

static void loop_unlink(Loop *L, int64_t s)
{
    int64_t p = L->prev[s], q = L->next[s];
    if (p >= 0) L->next[p] = q; else L->head = q;
    if (q >= 0) L->prev[q] = p; else L->tail = p;
}

static void loop_append(Loop *L, int64_t s)
{
    L->prev[s] = L->tail;
    L->next[s] = -1;
    if (L->tail >= 0) L->next[L->tail] = s; else L->head = s;
    L->tail = s;
}

static void loop_remove(Loop *L, int64_t s)
{
    loop_unlink(L, s);
    uint64_t h = loop_hash(L->pc[s]) & (uint64_t)L->hmask;
    for (;;) {
        int64_t k = L->hkey[h];
        if (k == L->pc[s] && L->hval[h] == s) { L->hkey[h] = LP_TOMB; L->n_tomb++; break; }
        if (k == LP_EMPTY) break;  /* unreachable for live entries */
        h = (h + 1) & (uint64_t)L->hmask;
    }
    L->freelist[L->n_free++] = s;
    L->size--;
    if (L->n_tomb > (L->hmask + 1) / 4) loop_rehash(L);
}

/* loop_table[pc] = _LoopEntry(), with LRU eviction when at capacity.    */
static void loop_insert(Loop *L, int64_t pc)
{
    if (L->size >= L->cap) loop_remove(L, L->head);
    int64_t s = L->freelist[--L->n_free];
    L->pc[s] = pc;
    L->trip[s] = -1;
    L->cnt[s] = 0;
    L->conf[s] = 0;
    loop_append(L, s);
    loop_hash_put(L, pc, s);
    L->size++;
}

/* ------------------------------------------------------------------ */
/* TAGE index/tag columns (vector.tage_column_arrays): each table's     */
/* three folded-history registers step exactly as FoldedHistory.update  */
/* does, and combine with the PC into the entry index and tag seen      */
/* *before* every branch, in one pass instead of one numpy pass per     */
/* register.  finals gets the post-run registers for predictor          */
/* write-back.                                                          */
/* ------------------------------------------------------------------ */

static inline int64_t fold_step(int64_t comp, int64_t new_bit, int64_t old_bit,
                                int64_t outpoint, int64_t width, int64_t mask)
{
    comp = (comp << 1) | new_bit;
    comp ^= old_bit << outpoint;
    comp ^= comp >> width;
    return comp & mask;
}

void tage_columns(
    int64_t n, int64_t n_tables,
    const int64_t *pcs,       /* [n] branch PCs                          */
    const uint8_t *taken,     /* [n]                                     */
    const int64_t *lengths,   /* [n_tables] history length per table     */
    int64_t log_entries, int64_t tag_bits,
    int64_t *idx_mat,         /* [n_tables][n] out: entry indices        */
    int64_t *tag_mat,         /* [n_tables][n] out: computed tags        */
    int64_t *finals)          /* [n_tables][3] out: idx, tag0, tag1 regs */
{
    const int64_t widths[3] = {
        log_entries, tag_bits, tag_bits > 1 ? tag_bits - 1 : 1
    };
    const int64_t entry_mask = ((int64_t)1 << log_entries) - 1;
    const int64_t tag_mask = ((int64_t)1 << tag_bits) - 1;
    for (int64_t i = 0; i < n_tables; i++) {
        const int64_t length = lengths[i];
        const int64_t shift = log_entries - i % 4;
        int64_t out[3], mask[3], f[3] = {0, 0, 0};
        for (int k = 0; k < 3; k++) {
            out[k] = length % widths[k];
            mask[k] = ((int64_t)1 << widths[k]) - 1;
        }
        int64_t *idx = idx_mat + i * n;
        int64_t *tag = tag_mat + i * n;
        for (int64_t j = 0; j < n; j++) {
            const int64_t pc2 = pcs[j] >> 2;
            idx[j] = (pc2 ^ (pc2 >> shift) ^ f[0]) & entry_mask;
            tag[j] = (pc2 ^ f[1] ^ (f[2] << 1)) & tag_mask;
            const int64_t new_bit = taken[j];
            const int64_t old_bit = j >= length ? taken[j - length] : 0;
            for (int k = 0; k < 3; k++)
                f[k] = fold_step(f[k], new_bit, old_bit, out[k], widths[k], mask[k]);
        }
        for (int k = 0; k < 3; k++) finals[i * 3 + k] = f[k];
    }
}

/* ------------------------------------------------------------------ */
/* TAGE core, optionally composed with the statistical corrector and    */
/* loop predictor (TAGE-SC-L) when has_sc != 0.  Mirrors the fused      */
/* vector kernel (_replay_tage_family) statement for statement, with    */
/* live tag probing instead of the lazy candidate/recheck machinery.    */
/* Returns 0 on success, 1 on allocation failure.                       */
/* ------------------------------------------------------------------ */

int replay_tage(
    int64_t n, int64_t n_tables, int64_t n_entries, int64_t n_bimodal,
    const int64_t *idx_mat,   /* [n_tables][n] per-table entry indices   */
    const int64_t *tag_mat,   /* [n_tables][n] per-table computed tags   */
    const int64_t *bim_idx,   /* [n] bimodal indices                     */
    const uint8_t *taken,
    const uint8_t *hinted,
    const uint8_t *hint_ok,
    int64_t allocate_hinted,
    int64_t *ctrs,            /* [n_tables][n_entries] 3-bit counters    */
    int64_t *tags,            /* [n_tables][n_entries] stored tags       */
    int64_t *us,              /* [n_tables][n_entries] useful counters   */
    int64_t *bimodal,         /* [n_bimodal] 2-bit counters              */
    int64_t *scalars,         /* [use_alt_on_na, tick, rand] in/out      */
    int64_t has_sc,
    int64_t n_sc, int64_t sc_entries,
    const int64_t *sc_idx_mat,/* [n_sc][n] corrector indices             */
    int64_t *sc_tables,       /* [n_sc][sc_entries] 6-bit counters       */
    int64_t sc_weight, int64_t sc_threshold,
    const int64_t *pcs,       /* [n] branch PCs (loop predictor keys)    */
    int64_t loop_cap, int64_t loop_m,
    int64_t *loop_pc, int64_t *loop_trip, int64_t *loop_count,
    int64_t *loop_conf,       /* [loop_cap] in/out, LRU-oldest first     */
    int64_t *loop_m_out,      /* [1] out: live entries after the run     */
    uint8_t *correct)         /* [n] out                                 */
{
    (void)n_bimodal;
    int64_t use_alt = scalars[0];
    int64_t tick = scalars[1];
    int64_t rnd = scalars[2];

    Loop L;
    if (has_sc) {
        if (loop_init(&L, loop_cap, loop_pc, loop_trip, loop_count,
                      loop_conf, loop_m) != 0)
            return 1;
    }

    for (int64_t j = 0; j < n; j++) {
        const int tk = taken[j];
        const int hj = hinted[j];
        const int allocate = hj ? (int)allocate_hinted : 1;

        /* ---- TAGE predict ---------------------------------------- */
        int64_t provider = -1, alt = -1;
        for (int64_t i = n_tables - 1; i >= 0; i--) {
            const int64_t e = idx_mat[i * n + j];
            if (tags[i * n_entries + e] == tag_mat[i * n + j]) {
                if (provider < 0) provider = i;
                else { alt = i; break; }
            }
        }

        const int64_t b_idx = bim_idx[j];
        const int64_t b_ctr = bimodal[b_idx];
        const int bim_pred = b_ctr >= 0;
        int pred, provider_pred, alt_pred, used_alt;
        int64_t conf, p_idx = 0, p_ctr = 0;
        if (provider < 0) {
            pred = provider_pred = alt_pred = bim_pred;
            used_alt = 0;
            conf = 2 * b_ctr + 1;
        } else {
            p_idx = idx_mat[provider * n + j];
            p_ctr = ctrs[provider * n_entries + p_idx];
            provider_pred = p_ctr >= 0;
            alt_pred = (alt >= 0)
                ? (ctrs[alt * n_entries + idx_mat[alt * n + j]] >= 0)
                : bim_pred;
            used_alt = (p_ctr == -1 || p_ctr == 0)
                && us[provider * n_entries + p_idx] == 0
                && use_alt >= 8;
            pred = used_alt ? alt_pred : provider_pred;
            conf = 2 * p_ctr + 1;
        }
        const int mispredicted = pred != tk;

        /* ---- TAGE update ------------------------------------------ */
        if (provider >= 0) {
            const int64_t ctr = p_ctr;
            if (tk) {
                if (ctr < 3) ctrs[provider * n_entries + p_idx] = ctr + 1;
            } else if (ctr > -4) {
                ctrs[provider * n_entries + p_idx] = ctr - 1;
            }

            if (provider_pred != alt_pred) {
                int64_t *up = &us[provider * n_entries + p_idx];
                if (provider_pred == tk) { if (*up < 3) (*up)++; }
                else if (*up > 0) (*up)--;
            }

            if ((ctr == -1 || ctr == 0)
                && us[provider * n_entries + p_idx] == 0
                && provider_pred != alt_pred) {
                if (provider_pred == tk) { if (use_alt > 0) use_alt--; }
                else if (use_alt < 15) use_alt++;
            }

            if (alt < 0 && used_alt) {
                if (tk) { if (b_ctr < 1) bimodal[b_idx] = b_ctr + 1; }
                else if (b_ctr > -2) bimodal[b_idx] = b_ctr - 1;
            }
        } else {
            if (tk) { if (b_ctr < 1) bimodal[b_idx] = b_ctr + 1; }
            else if (b_ctr > -2) bimodal[b_idx] = b_ctr - 1;
        }

        if (mispredicted && allocate && provider < n_tables - 1) {
            int64_t free0 = -1, free1 = -1, n_free_t = 0;
            for (int64_t i = provider + 1; i < n_tables; i++) {
                if (us[i * n_entries + idx_mat[i * n + j]] == 0) {
                    if (free0 < 0) free0 = i;
                    else if (free1 < 0) free1 = i;
                    n_free_t++;
                }
            }
            if (free0 < 0) {
                for (int64_t i = provider + 1; i < n_tables; i++) {
                    int64_t *up = &us[i * n_entries + idx_mat[i * n + j]];
                    if (*up > 0) (*up)--;
                }
            } else {
                int64_t choice = free0;
                if (n_free_t > 1) {
                    rnd = (rnd * 1103515245 + 12345) & 0x7FFFFFFF;
                    if (((rnd >> 16) & 3) == 0) choice = free1;
                }
                const int64_t c_idx = idx_mat[choice * n + j];
                tags[choice * n_entries + c_idx] = tag_mat[choice * n + j];
                ctrs[choice * n_entries + c_idx] = tk ? 0 : -1;
                us[choice * n_entries + c_idx] = 0;
            }
        }

        tick++;
        if (tick >= (1 << 18)) {
            tick = 0;
            const int64_t total_us = n_tables * n_entries;
            for (int64_t i = 0; i < total_us; i++)
                if (us[i]) us[i] >>= 1;
        }

        /* ---- SC-L composition ------------------------------------- */
        if (has_sc) {
            const int64_t pc = pcs[j];
            const int64_t slot = loop_find(&L, pc);
            int loop_valid = 0, loop_pred = 0;
            if (slot >= 0 && L.conf[slot] >= 3 && L.trip[slot] >= 1) {
                loop_valid = 1;
                loop_pred = L.cnt[slot] + 1 <= L.trip[slot];
            }

            const int64_t abs_conf = conf >= 0 ? conf : -conf;
            int64_t total = sc_weight * (pred ? abs_conf : -abs_conf);
            for (int64_t k = 0; k < n_sc; k++)
                total += 2 * sc_tables[k * sc_entries + sc_idx_mat[k * n + j]] + 1;
            const int sc_pred = total >= 0;

            const int final_pred =
                loop_valid ? loop_pred : (abs_conf >= 5 ? pred : sc_pred);
            correct[j] = hj ? hint_ok[j] : (uint8_t)(final_pred == tk);

            /* Loop update. */
            if (slot < 0) {
                if (mispredicted && allocate) loop_insert(&L, pc);
            } else {
                loop_unlink(&L, slot);
                loop_append(&L, slot);  /* move_to_end */
                if (tk) {
                    L.cnt[slot]++;
                    if (L.cnt[slot] > 4096) loop_remove(&L, slot);
                } else {
                    if (L.trip[slot] == L.cnt[slot] && L.trip[slot] > 0) {
                        if (L.conf[slot] < 7) L.conf[slot]++;
                    } else {
                        L.trip[slot] = L.cnt[slot];
                        L.conf[slot] = 0;
                    }
                    L.cnt[slot] = 0;
                }
            }

            /* SC update. */
            const int64_t abs_total = total >= 0 ? total : -total;
            if (sc_pred != tk || abs_total <= sc_threshold) {
                for (int64_t k = 0; k < n_sc; k++) {
                    int64_t *cp =
                        &sc_tables[k * sc_entries + sc_idx_mat[k * n + j]];
                    if (tk) { if (*cp < 31) (*cp)++; }
                    else if (*cp > -32) (*cp)--;
                }
            }
        } else {
            correct[j] = hj ? hint_ok[j] : (uint8_t)(pred == tk);
        }
    }

    scalars[0] = use_alt;
    scalars[1] = tick;
    scalars[2] = rnd;

    if (has_sc) {
        int64_t m = 0;
        for (int64_t s = L.head; s >= 0; s = L.next[s]) {
            loop_pc[m] = L.pc[s];
            loop_trip[m] = L.trip[s];
            loop_count[m] = L.cnt[s];
            loop_conf[m] = L.conf[s];
            m++;
        }
        loop_m_out[0] = m;
        free(L.block);
    }
    return 0;
}
