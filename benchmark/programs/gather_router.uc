// Data-dependent addressing: `b[p[i]]` can be neither local nor NEWS, so
// every sweep is a router get over 65 536 VPs. `p` is a permutation (A is
// odd, N a power of two). The harness prepends `#define A` and `#define S`.
#define N 65536
#define ITERS 64
index_set I:i = {0..N-1}, T:t = {0..ITERS-1};
int a[N], b[N], p[N];
main() {
    par (I) { a[i] = i; b[i] = (i * 3 + S) % 1009; p[i] = (i * A + 7) % N; }
    seq (T)
        par (I) a[i] = a[i] + b[p[i]];
}
