// Figure 4/6: all-pairs shortest paths with O(N^2) parallelism, the k loop
// sequential on the front end. The whole computation repeats REPS times so
// that a run is ~83 k machine ops on 256-VP sets: per-op dispatch cost, not
// data movement. The harness prepends `#define P` and `#define Q`.
#define N 16
#define REPS 256
index_set I:i = {0..N-1}, J:j = I, K:k = I, T:t = {0..REPS-1};
int d[N][N];
main() {
    seq (T) {
        par (I, J)
            st (i == j) d[i][j] = 0;
            others d[i][j] = (i * P + j * Q) % N + 1;
        seq (K)
            par (I, J)
                st (d[i][k] + d[k][j] < d[i][j])
                    d[i][j] = d[i][k] + d[k][j];
    }
}
