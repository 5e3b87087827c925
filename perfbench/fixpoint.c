/* Label-correcting fixpoint for the serving benchmark's reference.
 *
 * One snapshot graph in CSR form (out-edges by source), many sources.
 * For each source a FIFO work queue relaxes the out-edges of every vertex
 * whose value improved, keeping a candidate only if it is strictly better,
 * until no value changes.  The edge functions are the five of Table 1:
 *
 *   op 0  BFS      val + 1         minimize
 *   op 1  SSSP     val + wt        minimize
 *   op 2  SSWP     min(val, wt)    maximize
 *   op 3  SSNP     max(val, wt)    minimize
 *   op 4  Viterbi  val / wt        maximize
 *
 * Build: see Makefile.  Loaded through ctypes by reference.py.
 */
#include <stdint.h>

static double edge_fn(int op, double val, double wt) {
    switch (op) {
    case 0: return val + 1.0;
    case 1: return val + wt;
    case 2: return val < wt ? val : wt;
    case 3: return val > wt ? val : wt;
    default: return val / wt;
    }
}

/* out: n_sources rows of n values; queue: n + 1 slots; inq: n bytes.
 * Returns the number of edge relaxations performed. */
int64_t perfbench_fixpoint(
    int64_t n, const int64_t *indptr, const int64_t *dst, const double *wt,
    int op, int minimize, double identity, double source_value,
    int64_t n_sources, const int64_t *sources, double *out,
    int64_t *queue, uint8_t *inq)
{
    int64_t relaxed = 0;
    for (int64_t i = 0; i < n_sources; i++) {
        double *val = out + i * n;
        for (int64_t v = 0; v < n; v++) {
            val[v] = identity;
            inq[v] = 0;
        }
        int64_t s = sources[i];
        val[s] = source_value;
        int64_t head = 0, tail = 0, cap = n + 1;
        queue[tail++] = s;
        inq[s] = 1;
        while (head != tail) {
            int64_t u = queue[head];
            head = (head + 1) % cap;
            inq[u] = 0;
            double vu = val[u];
            for (int64_t e = indptr[u]; e < indptr[u + 1]; e++) {
                double c = edge_fn(op, vu, wt[e]);
                int64_t v = dst[e];
                relaxed++;
                if (minimize ? c < val[v] : c > val[v]) {
                    val[v] = c;
                    if (!inq[v]) {
                        inq[v] = 1;
                        queue[tail] = v;
                        tail = (tail + 1) % cap;
                    }
                }
            }
        }
    }
    return relaxed;
}
