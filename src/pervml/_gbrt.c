/* Boosted regression trees: the rounds of gbrt.fit (gbrt.build_tree is one
   round of them), the split scan behind _kernels.best_split_kernel and the
   walk behind TreeEnsemble.predict_stages.

   Built with -ffp-contract=off and without -ffast-math, so every operation
   below rounds once, as an IEEE double, in the order written: the trees are
   bit for bit those of the same loops on Python floats. See the gbrt module
   docstring for the method.

   Layout: the fit's n rows and d columns come as cols (column c at
   cols + c*n) and orders (column c's rows in ascending order of value,
   stable, at orders + c*n). A tree is appended to a node table in
   pre-order, left child first, with child numbers local to the tree: an
   internal node's left child is node + 1 and its right child is right[node];
   a leaf has feature -1 and right -1. */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef struct {
    int64_t *feature, *right;                /* links: 2 x capacity */
    double *threshold, *gain, *cover, *value; /* nodes: 4 x capacity */
    int64_t size, capacity;
} Nodes;

/* The fit's data and penalties, shared by every tree. */
typedef struct {
    int64_t n;
    const double *cols;
    const int64_t *orders;
    int64_t max_depth;
    double gamma, reg_lambda, reg_alpha;
} Fit;

/* A node waiting to be grown: its slice [lo, lo + m) of the grown rows and
   of each column order, its slice [out_lo, out_lo + n_out) of the left-out
   rows, its depth and, for a right child, its parent (else -1). */
typedef struct {
    int64_t lo, m, out_lo, n_out, depth, parent;
} Pending;

/* One tree's scratch, sized for every row: the grown rows, the left-out
   rows and a partition buffer (3 x n), each candidate column's rows in its
   order (k x n), n + 1 pending nodes and the sampled flags. A node at depth
   d holds at most n - d rows and splits only with 2 or more, so at most n
   nodes are ever pending. */
typedef struct {
    int64_t *rows, *out, *tmp, *ord;
    Pending *pending;
    char *sampled;
} Work;

static void nodes_at(Nodes *t, int64_t capacity, int64_t *links, double *nodes)
{
    t->feature = links;
    t->right = links + capacity;
    t->threshold = nodes;
    t->gain = nodes + capacity;
    t->cover = nodes + 2 * capacity;
    t->value = nodes + 3 * capacity;
    t->size = 0;
    t->capacity = capacity;
}

static void work_free(Work *w)
{
    free(w->rows);
    free(w->ord);
    free(w->pending);
    free(w->sampled);
}

/* Scratch for trees of a fit of n rows with k candidate columns, or -1. */
static int work_alloc(Work *w, int64_t n, int64_t k)
{
    w->rows = malloc((size_t)(3 * n + 1) * sizeof(int64_t));
    w->ord = malloc((size_t)(k * n + 1) * sizeof(int64_t));
    w->pending = malloc((size_t)(n + 1) * sizeof(Pending));
    w->sampled = malloc((size_t)n + 1);
    if (w->rows == NULL || w->ord == NULL || w->pending == NULL || w->sampled == NULL) {
        work_free(w);
        return -1;
    }
    w->out = w->rows + n;
    w->tmp = w->out + n;
    return 0;
}

/* float(np.sum(g[idx[0..n)])) without the outer 0.0 +: numpy's pairwise
   sum. Fewer than 8 values add left to right from 0.0; up to 128 add into 8
   interleaved lanes, combined pairwise, then the rest left to right; longer
   runs split at a multiple of 8 near the middle. */
static double pairwise(const double *g, const int64_t *idx, int64_t n)
{
    double r[8], total = 0.0;
    int64_t i, lane;

    if (n < 8) {
        for (i = 0; i < n; i++)
            total += g[idx[i]];
        return total;
    }
    if (n > 128) {
        int64_t half = n / 2;
        half -= half % 8;
        return pairwise(g, idx, half) + pairwise(g, idx + half, n - half);
    }
    for (lane = 0; lane < 8; lane++)
        r[lane] = g[idx[lane]];
    for (i = 8; i < n - n % 8; i += 8)
        for (lane = 0; lane < 8; lane++)
            r[lane] += g[idx[i + lane]];
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
    for (; i < n; i++)
        total += g[idx[i]];
    return total;
}

/* -soft_threshold(G, reg_alpha) / (count + reg_lambda), as Python's
   -math.copysign(max(abs(G) - reg_alpha, 0.0), G) / (count + reg_lambda). */
static double leaf_weight(double grad_sum, int64_t count, const Fit *f)
{
    double t = fabs(grad_sum) - f->reg_alpha;
    if (0.0 > t)
        t = 0.0;
    return -copysign(t, grad_sum) / ((double)count + f->reg_lambda);
}

/* The best split of one node, scanning every (column, midpoint) candidate
   (see best_split_kernel): k candidate columns, ascending; candidate j's
   rows in its column's order at ord + j*stride; the node's m rows,
   ascending; g every row's gradient. Returns the candidate's index into
   columns, or -1 when every column is constant, and stores its gain and
   threshold. */
static int64_t scan(const Fit *f, const int64_t *columns, int64_t k,
                    const int64_t *ord, int64_t stride, const int64_t *rows,
                    int64_t m, const double *g, double *gain_out, double *thr_out)
{
    double lam = f->reg_lambda, alpha = f->reg_alpha, gamma = f->gamma;
    double total_g = 0.0, total_h = (double)m;
    double best_gain = -INFINITY, best_thr = 0.0;
    int64_t best_col = -1, i, j;

    for (i = 0; i < m; i++)
        total_g += g[rows[i]];
    /* hl and hr are whole numbers, so hl + hr is exactly total_h at every
       candidate and the parent's denominator is one number. */
    double parent_den = total_h + lam;
    for (j = 0; j < k; j++) {
        const double *col = f->cols + columns[j] * f->n;
        const int64_t *order = ord + j * stride;
        double gl = 0.0;
        for (i = 0; i + 1 < m; i++) {
            double v = col[order[i]], v_next = col[order[i + 1]];
            gl += g[order[i]];
            if (v == v_next)
                continue;
            double hl = (double)(i + 1);
            double gr = total_g - gl;
            double tl = (gl >= 0.0 ? gl : -gl) - alpha;
            double tr = (gr >= 0.0 ? gr : -gr) - alpha;
            if (tl < 0.0)
                tl = 0.0;
            if (tr < 0.0)
                tr = 0.0;
            double s = tl * tl / (hl + lam) + tr * tr / (total_h - hl + lam);
            /* The gain is 0.5 * (s - p) - gamma with p >= 0 the parent
               term. IEEE rounding is monotone, so the computed s - p is at
               most s (or NaN) and the gain at most 0.5 * s - gamma (or NaN).
               When that bound is <= best_gain the gain cannot pass the
               strict gain > best_gain, and the candidate is not priced; a
               NaN bound fails the <= and is priced. */
            if (0.5 * s - gamma <= best_gain)
                continue;
            double tp = gl + gr;
            tp = (tp >= 0.0 ? tp : -tp) - alpha;
            if (tp < 0.0)
                tp = 0.0;
            double gain = 0.5 * (s - tp * tp / parent_den) - gamma;
            if (gain > best_gain) {
                best_gain = gain;
                best_col = j;
                best_thr = (v + v_next) * 0.5;
                /* The midpoint of neighbouring subnormals can round up to
                   v_next, and near the largest double it overflows; then
                   only v itself still sends v left and v_next right. */
                if (!(v <= best_thr && best_thr < v_next))
                    best_thr = v;
            }
        }
    }
    *gain_out = best_gain;
    *thr_out = best_thr;
    return best_col;
}

/* Stable partition of a[0..m) by col[r] <= thr, the test pervml_gbrt_predict
   applies; returns the size of the left part. */
static int64_t partition(int64_t *a, int64_t m, const double *col, double thr,
                         int64_t *tmp)
{
    int64_t i, nl = 0, nr = 0;
    for (i = 0; i < m; i++) {
        if (col[a[i]] <= thr)
            a[nl++] = a[i];
        else
            tmp[nr++] = a[i];
    }
    memcpy(a + nl, tmp, (size_t)nr * sizeof(int64_t));
    return nl;
}

/* Grow one tree depth first and append it to t. w->rows holds its m grown
   rows and w->out its n_out left-out rows, each ascending; columns its k
   candidate columns, ascending. Each node's rows, left-out rows and column
   orders are partitioned with the split test, which keeps each in order, so
   no node sorts. leaf_of[r] receives the local leaf number of every row in
   rows and out. Returns the tree's node count, or -1 when t is full. */
static int64_t grow(const Fit *f, Work *w, int64_t m, int64_t n_out,
                    const int64_t *columns, int64_t k, const double *g,
                    Nodes *t, int64_t *leaf_of)
{
    int64_t n = f->n, i, j, top = 0, start = t->size;
    Pending *stack = w->pending;

    /* Each candidate column's order, cut down to the grown rows. */
    memset(w->sampled, 0, (size_t)n);
    for (i = 0; i < m; i++)
        w->sampled[w->rows[i]] = 1;
    for (j = 0; j < k; j++) {
        const int64_t *order = f->orders + columns[j] * n;
        int64_t *to = w->ord + j * m;
        for (i = 0; i < n; i++)
            if (w->sampled[order[i]])
                *to++ = order[i];
    }

    stack[top++] = (Pending){0, m, 0, n_out, 0, -1};
    while (top > 0) {
        Pending e = stack[--top];
        int64_t *rows = w->rows + e.lo, *out = w->out + e.out_lo;
        if (t->size == t->capacity || top + 2 > n + 1)
            return -1;
        int64_t at = t->size++, node = at - start;
        if (e.parent >= 0)
            t->right[start + e.parent] = node;
        t->right[at] = -1;

        double split_gain = 0.0, thr = 0.0;
        int64_t col_local = -1;
        if (e.depth < f->max_depth && e.m >= 2)
            col_local = scan(f, columns, k, w->ord + e.lo, m, rows, e.m, g,
                             &split_gain, &thr);
        if (col_local < 0 || split_gain <= 0.0) {
            t->feature[at] = -1;
            t->threshold[at] = 0.0;
            t->gain[at] = 0.0;
            t->cover[at] = 0.0;
            t->value[at] = leaf_weight(0.0 + pairwise(g, rows, e.m), e.m, f);
            for (i = 0; i < e.m; i++)
                leaf_of[rows[i]] = node;
            for (i = 0; i < e.n_out; i++)
                leaf_of[out[i]] = node;
            continue;
        }
        const double *col = f->cols + columns[col_local] * n;
        t->feature[at] = columns[col_local];
        t->threshold[at] = thr;
        t->gain[at] = split_gain;
        t->cover[at] = (double)e.m;
        t->value[at] = 0.0;
        int64_t nl = partition(rows, e.m, col, thr, w->tmp);
        int64_t nl_out = partition(out, e.n_out, col, thr, w->tmp);
        for (j = 0; j < k; j++)
            partition(w->ord + j * m + e.lo, e.m, col, thr, w->tmp);
        /* The left child is pushed last so that it is numbered next. */
        stack[top++] = (Pending){e.lo + nl, e.m - nl, e.out_lo + nl_out,
                                 e.n_out - nl_out, e.depth + 1, node};
        stack[top++] = (Pending){e.lo, nl, e.out_lo, nl_out, e.depth + 1, -1};
    }
    return t->size - start;
}

/* best_split_kernel: the scan of one node of m rows over the k candidate
   columns of cols, whose rows in each column's order are ord (k x m). best
   receives the gain and the threshold; returns the column's index into
   columns, or -1. */
int64_t pervml_gbrt_best_split(int64_t n, const double *cols, int64_t k,
                               const int64_t *columns, const int64_t *ord,
                               int64_t m, const int64_t *rows, const double *g,
                               double reg_lambda, double reg_alpha,
                               double gamma, double *best)
{
    Fit f = {n, cols, NULL, 0, gamma, reg_lambda, reg_alpha};
    return scan(&f, columns, k, ord, m, rows, m, g, best, best + 1);
}

/* gbrt.fit's rounds, and gbrt.build_tree's one round with leaf_out. Draw
   id draw[r] names round r's draw: its n_rows sampled rows, ascending, at
   draw_rows + id*n_rows and its k candidate columns, ascending, at
   draw_cols + id*k; the rest of the rows are left out. Each round takes
   the gradients p - y, grows a tree on its draw, scales every node's value
   by eta and adds each row's leaf value to its prediction. A tree that
   left every prediction's bits unchanged is stored under its draw, and a
   later round with that draw repeats it instead of growing one; a tree
   that changed any prediction empties the store. spans[2r], spans[2r + 1]
   receive the node range of round r's tree: a repeated tree's is the
   range of the round that grew it. Unless leaf_out is NULL, leaf_out[i]
   receives row i's local leaf number in the last tree the call grew.
   Returns the number of nodes written, -1 when the table is full or -2
   when memory runs out. */
int64_t pervml_gbrt_fit(int64_t n, const double *cols, const int64_t *orders,
                        const double *y, int64_t n_rows,
                        const int64_t *draw_rows, int64_t k,
                        const int64_t *draw_cols, int64_t n_draws,
                        int64_t rounds, const int64_t *draw,
                        int64_t max_depth, double eta, double gamma,
                        double reg_lambda, double reg_alpha, double base_score,
                        int64_t capacity, int64_t *links, double *nodes,
                        int64_t *spans, int64_t *leaf_out)
{
    Fit f = {n, cols, orders, max_depth, gamma, reg_lambda, reg_alpha};
    Nodes t;
    Work w;
    int64_t i, r, status = 0;
    /* g, the predictions and the next predictions, then each row's leaf
       and each draw's stored round (-1 when none). */
    double *g = malloc((size_t)(3 * n + 1) * sizeof(double));
    int64_t *leaf_of = malloc((size_t)(n + n_draws + 1) * sizeof(int64_t));

    if (g == NULL || leaf_of == NULL || work_alloc(&w, n, k) < 0) {
        free(g);
        free(leaf_of);
        return -2;
    }
    double *preds = g + n, *next = preds + n;
    int64_t *stored = leaf_of + n;
    nodes_at(&t, capacity, links, nodes);
    for (i = 0; i < n; i++)
        preds[i] = base_score;
    for (i = 0; i < n_draws; i++)
        stored[i] = -1;

    for (r = 0; r < rounds; r++) {
        int64_t id = draw[r], repeat = stored[id];
        if (repeat >= 0) {
            spans[2 * r] = spans[2 * repeat];
            spans[2 * r + 1] = spans[2 * repeat + 1];
            continue;
        }
        for (i = 0; i < n; i++)
            g[i] = preds[i] - y[i];

        const int64_t *sampled = draw_rows + id * n_rows;
        int64_t n_out = 0, s = 0;
        memcpy(w.rows, sampled, (size_t)n_rows * sizeof(int64_t));
        for (i = 0; i < n; i++) {
            if (s < n_rows && sampled[s] == i)
                s++;
            else
                w.out[n_out++] = i;
        }
        int64_t start = t.size;
        int64_t size = grow(&f, &w, n_rows, n_out, draw_cols + id * k, k, g, &t, leaf_of);
        if (size < 0) {
            status = size;
            break;
        }
        double *value = t.value + start;
        for (i = 0; i < size; i++)
            value[i] *= eta;
        for (i = 0; i < n; i++)
            next[i] = preds[i] + value[leaf_of[i]];
        spans[2 * r] = start;
        spans[2 * r + 1] = start + size;
        if (leaf_out != NULL)
            memcpy(leaf_out, leaf_of, (size_t)n * sizeof(int64_t));

        /* Bits, not ==: a leaf of 0.0 turns a prediction of -0.0 into 0.0. */
        if (memcmp(next, preds, (size_t)n * sizeof(double)) == 0) {
            stored[id] = r;
        } else {
            for (i = 0; i < n_draws; i++)
                stored[i] = -1;
            double *swap = preds;
            preds = next;
            next = swap;
        }
    }
    free(g);
    free(leaf_of);
    work_free(&w);
    return status < 0 ? status : t.size;
}

/* TreeEnsemble.predict_stages: the n rows of X (row major, d values each)
   through the ensemble whose round r is the tree at [spans[2r],
   spans[2r + 1]) of node tables of size nodes, numbered as grow numbers
   them. A row goes left where its value is <= the threshold, the test of
   partition. Stage s is base_score plus the leaf values of rounds 0..s-1,
   added one at a time as acc + leaf, and out[j*n + i] receives row i's
   stage stages[j]; the stages may come in any order and repeat. Returns 0,
   or -1 when a span leaves the tables, a split feature is d or more, or a
   child does not lie after its parent inside its tree: then the walk reads
   nothing outside the tables and cannot loop. */
int64_t pervml_gbrt_predict(int64_t n, int64_t d, const double *X,
                            int64_t size, const int64_t *links,
                            const double *nodes, const int64_t *spans,
                            double base_score, int64_t n_stages,
                            const int64_t *stages, double *out)
{
    const int64_t *feature = links, *right = links + size;
    const double *threshold = nodes, *value = nodes + 3 * size;
    int64_t i, j, r, rounds = 0;

    for (j = 0; j < n_stages; j++)
        if (stages[j] > rounds)
            rounds = stages[j];
    for (r = 0; r < rounds; r++)
        if (!(0 <= spans[2 * r] && spans[2 * r] < spans[2 * r + 1]
              && spans[2 * r + 1] <= size))
            return -1;
    for (i = 0; i < n; i++) {
        const double *x = X + i * d;
        double acc = base_score;
        for (r = 0;; r++) {
            for (j = 0; j < n_stages; j++)
                if (stages[j] == r)
                    out[j * n + i] = acc;
            if (r == rounds)
                break;
            int64_t start = spans[2 * r], len = spans[2 * r + 1] - start;
            int64_t node = 0, f, next;
            while ((f = feature[start + node]) >= 0) {
                if (f >= d)
                    return -1;
                next = x[f] <= threshold[start + node] ? node + 1 : right[start + node];
                if (next <= node || next >= len)
                    return -1;
                node = next;
            }
            acc += value[start + node];
        }
    }
    return 0;
}
