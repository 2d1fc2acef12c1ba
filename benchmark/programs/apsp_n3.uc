// Figure 5/7: all-pairs shortest paths with O(N^3) parallelism: LOGN rounds
// of min-plus squaring, each a `$<` reduction over a 64^3 = 262 144-VP
// space combined through the router. The harness prepends `#define P` and
// `#define Q`.
#define N 64
#define LOGN 6
index_set I:i = {0..N-1}, J:j = I, K:k = I;
index_set L:l = {0..LOGN-1};
int d[N][N];
main() {
    par (I, J)
        st (i == j) d[i][j] = 0;
        others d[i][j] = (i * P + j * Q) % N + 1;
    seq (L)
        par (I, J)
            d[i][j] = $<(K; d[i][k] + d[k][j]);
}
