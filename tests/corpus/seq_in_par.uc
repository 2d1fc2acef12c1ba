// expect:
// `seq` nested in a `par` body stays on the mask path (Figure 3's
// partial sums): each step's predicate becomes a context mask over the
// enclosing space, and `*seq` there sweeps until no processor is enabled.
#define N 8
#define LOGN 3
index_set I:i = {0..N-1}, L:l = {0..LOGN-1};
int s[N], c[N];
main() {
    par (I) { s[i] = i + 1; c[i] = i; }
    par (I)
        seq (L) st (i >= power2(l)) s[i] = s[i] + s[i - power2(l)];
    par (I)
        *seq (L) st (c[i] > l) c[i] = c[i] - 2;
}
