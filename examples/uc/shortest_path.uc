// All-pairs shortest paths (paper §3.3): Floyd-Warshall with the k loop
// sequential on the front end and the N x N relaxation in parallel.
// `w[i][k]` and `w[k][j]` broadcast one row/column through the router;
// the updates themselves are local, so the lints stay silent.
#define N 8
#define FAR 9999
index_set I:i = {0..N-1}, J:j = I;
int w[N][N];
int k;
main() {
    par (I, J) w[i][j] = FAR;
    par (I, J) st (i == j) w[i][j] = 0;
    par (I, J) st (j == (i + 1) % N) w[i][j] = i + 1;
    for (k = 0; k < N; k = k + 1) {
        par (I, J) st (w[i][k] + w[k][j] < w[i][j])
            w[i][j] = w[i][k] + w[k][j];
    }
}
